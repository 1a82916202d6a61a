"""Shared fixtures: the small gentle tree algebra, its linear partner,
their dual-numbers extensions, and generic random-module helpers."""

import numpy as np
import pytest

from quivhom.algebra import BoundQuiverAlgebra, Quiver, dual_numbers, linear_algebra_An
from quivhom.complexes import direct_sum_complex
from quivhom.corpus import gentle_tree_algebra
from quivhom.homological import split_complex
from quivhom.modules import ProjSummands, Representation, cokernel, element_matrix_to_hom
from quivhom.projcplx import minimize, recognize


@pytest.fixture(scope="session")
def A1():
    return gentle_tree_algebra(1)


@pytest.fixture(scope="session")
def B1():
    return linear_algebra_An(4)


@pytest.fixture(scope="session")
def keps():
    return dual_numbers()


@pytest.fixture(scope="session")
def Lam1(A1):
    return A1.dual_numbers_extension()


@pytest.fixture(scope="session")
def Gam1(B1):
    return B1.dual_numbers_extension()


def radical_square_zero():
    """k<x, y>/(x, y)^2, which is not Gorenstein; a new instance per call,
    so nothing is cached on it yet."""
    q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
    return BoundQuiverAlgebra(q, [{("0", (a, b)): 1} for a in "xy" for b in "xy"])


def random_module(alg, rng, summands: int = 2) -> Representation:
    """Random cokernel of a random map between small projective sums:
    always a legal module, with decent variety."""
    verts = list(alg.quiver.vertices)
    tgt = ProjSummands(alg, [verts[rng.integers(0, len(verts))] for _ in range(summands)])
    src = ProjSummands(alg, [verts[rng.integers(0, len(verts))] for _ in range(summands)])
    emat = []
    for k in range(len(tgt.vertices)):
        row = []
        for j in range(len(src.vertices)):
            # element of e_{src_j} A e_{tgt_k}: paths from tgt_k to src_j
            opts = [
                pth
                for pth in alg.basis_by_source[tgt.vertices[k]]
                if alg.path_target(pth) == src.vertices[j]
            ]
            e = {}
            for pth in opts:
                if rng.integers(0, 3) == 0:
                    e[pth] = int(rng.integers(1, alg.p))
            row.append(e)
        emat.append(row)
    # note orientation: map src -> tgt needs entries in e_{src} A e_{tgt}
    f = element_matrix_to_hom(alg, emat, src, tgt)
    coker, _ = cokernel(f)
    return coker


def random_two_term_complex(alg, rng, lo: int = 0):
    """Random complex m0 -> m1 concentrated in [lo, lo+1]."""
    from quivhom.complexes import Complex
    from quivhom.modules import hom_space, zero_hom

    m0 = random_module(alg, rng)
    m1 = random_module(alg, rng)
    basis = hom_space(m0, m1)
    f = zero_hom(m0, m1)
    for b in basis:
        f = f + b.scale(int(rng.integers(0, alg.p)))
    return Complex(alg, {lo: m0, lo + 1: m1}, {lo: f})


def random_three_term_complex(alg, rng, lo: int = 0):
    """Random complex m0 -> m1 -> m2 with d^2 = 0."""
    import numpy as np

    from quivhom.complexes import Complex
    from quivhom.exactlin import Matrix, nullspace
    from quivhom.modules import hom_space, zero_hom

    m0 = random_module(alg, rng)
    m1 = random_module(alg, rng)
    m2 = random_module(alg, rng)
    basis01 = hom_space(m0, m1)
    d0 = zero_hom(m0, m1)
    for b in basis01:
        d0 = d0 + b.scale(int(rng.integers(0, alg.p)))
    basis12 = hom_space(m1, m2)
    d1 = zero_hom(m1, m2)
    if basis12:
        cols = [b.compose(d0).flat() for b in basis12]
        mat = Matrix(alg.p, np.stack(cols, axis=1))
        ns = nullspace(mat)
        if ns.cols:
            coeffs = ns.data @ rng.integers(0, alg.p, size=ns.cols)
            for c, b in zip(coeffs % alg.p, basis12):
                d1 = d1 + b.scale(int(c))
    return Complex(alg, {lo: m0, lo + 1: m1, lo + 2: m2}, {lo: d0, lo + 1: d1})


def proj_direct_sum(pcs):
    """The direct sum of complexes of projectives, in order, presented by
    `recognize`: a lookup, since a sum of shared sums is a shared sum."""
    return recognize(direct_sum_complex([pc.to_complex() for pc in pcs]))


def split_proj_complex(pc, seed=0):
    """The direct summands of a complex of projectives: the pieces of
    `homological.split_complex`, each presented by `recognize` and minimized."""
    return [minimize(recognize(piece))[0] for piece in split_complex(pc.to_complex(), seed)]
