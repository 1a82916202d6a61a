"""Products and comparison lifts are read off the path basis.

Every algebra product goes through the lazily filled product table
``mul_basis``; the rewrite of a concatenated path by ``nf`` is the
reference here.  ``lift_to_resolutions`` reads each lift off the images
of the generators; the lift it replaced solved over a basis of
Hom(P_x, P_y) and is kept only here, as the reference.
"""

import numpy as np
import pytest

from quivhom import stable
from quivhom.algebra import linear_algebra_An
from quivhom.corpus import corpus, gentle_tree_algebra
from quivhom.exactlin import MAX_PRIME, Matrix, solve
from quivhom.functors import lift_to_resolutions
from quivhom.homological import minimal_resolution
from quivhom.modules import (
    element_matrix_to_hom,
    hom_space,
    hom_to_element_matrix,
    zero_hom,
)
from quivhom.projcplx import ProjChainMap
from quivhom.stable import StableHomSpace, stable_image_map


def corpus_algebras(n, p):
    a, b = gentle_tree_algebra(n, p), linear_algebra_An(2 * n + 2, p)
    for alg in (a, b, a.dual_numbers_extension(), b.dual_numbers_extension()):
        yield alg
        yield alg.opposite()


def concat_nf(alg, i, j):
    """nf of the path "j, then i", or {} if j does not end where i starts."""
    if alg.path_target(j) != i[0]:
        return {}
    return alg.nf({(j[0], j[1] + i[1]): 1})


@pytest.mark.parametrize("p", [3, MAX_PRIME])
@pytest.mark.parametrize("n", [1, 2])
def test_product_table_matches_rewriting(n, p, monkeypatch):
    for alg in corpus_algebras(n, p):
        basis = alg.path_basis
        empty = 0
        for i in basis:
            for j in basis:
                prod = alg.mul_basis(i, j)
                assert prod == concat_nf(alg, i, j), (alg, i, j)
                empty += alg.path_target(j) != i[0]
        assert empty  # the non-composable pairs gave {}
        # each pair was rewritten once: a second pass never calls nf
        monkeypatch.setattr(alg, "nf", lambda e: pytest.fail("product rewritten twice"))
        for i in basis:
            for j in basis:
                alg.mul_basis(i, j)


@pytest.mark.parametrize("p", [3, MAX_PRIME])
@pytest.mark.parametrize("n", [1, 2])
def test_mul_matches_rewriting_with_near_p_coefficients(n, p):
    rng = np.random.default_rng(n)
    for alg in corpus_algebras(n, p):
        basis = alg.path_basis
        for _ in range(20):
            x = {basis[i]: p - 1 - int(rng.integers(0, 3)) for i in rng.choice(len(basis), 4)}
            y = {basis[i]: p - 1 - int(rng.integers(0, 3)) for i in rng.choice(len(basis), 4)}
            ref = {}
            for py, cy in y.items():
                for px, cx in x.items():
                    if alg.path_target(py) == px[0]:
                        word = (py[0], py[1] + px[1])
                        ref[word] = ref.get(word, 0) + cx * cy
            assert alg.mul(x, y) == alg.nf(ref)


def hom_basis_lift(phi, window_lo):
    """The reference lift: solve for each lambda_k over a basis of
    Hom(P_x,k, P_y,k)."""
    x, y = phi.source, phi.target
    resx = minimal_resolution(x, -window_lo)
    resy = minimal_resolution(y, -window_lo)
    comps = {}
    prev = None
    for k in range(0, -window_lo + 1):
        ps_x, ps_y = resx.terms[k], resy.terms[k]
        if not len(ps_x.vertices) or not len(ps_y.vertices):
            break
        basis = hom_space(ps_x.rep(), ps_y.rep())
        if k == 0:
            target = phi.compose(resx.homs[0])
            post = resy.homs[0]
        else:
            target = prev.compose(resx.diff_hom(k))
            post = resy.diff_hom(k)
        if not basis:
            if not target.is_zero():
                raise ValueError("comparison lift failed")
            lam = zero_hom(ps_x.rep(), ps_y.rep())
        else:
            cols = [post.compose(b).flat() for b in basis]
            mat = Matrix(x.p, np.stack(cols, axis=1))
            sol = solve(mat, Matrix(x.p, target.flat().reshape(-1, 1)))
            if sol is None:
                raise ValueError("comparison lift failed")
            lam = zero_hom(ps_x.rep(), ps_y.rep())
            for c, b in zip(sol.data[:, 0], basis):
                lam = lam + b.scale(int(c))
        comps[-k] = hom_to_element_matrix(x.algebra, lam, ps_x, ps_y)
        prev = lam
    return ProjChainMap(resx.proj_complex(window_lo), resy.proj_complex(window_lo), comps)


def random_maps(c, rng, count):
    keys = sorted(c.M)
    maps = []
    while len(maps) < count:
        x, y = (c.M[keys[rng.integers(0, len(keys))]] for _ in range(2))
        basis = hom_space(x, y)
        phi = zero_hom(x, y)
        for b in basis:
            phi = phi + b.scale(int(rng.integers(0, x.p)))
        if not phi.is_zero():
            maps.append(phi)
    return maps


@pytest.mark.parametrize("n", [1, 2])
def test_generator_lift_matches_hom_basis_lift(n, monkeypatch):
    c = corpus(n)
    rng = np.random.default_rng(10 + n)
    for phi in random_maps(c, rng, 6):
        x, y = phi.source, phi.target
        alg, w = x.algebra, -3
        lift = lift_to_resolutions(phi, w)
        resx, resy = minimal_resolution(x, -w), minimal_resolution(y, -w)
        prev = phi
        for k in range(-w + 1):
            if -k not in lift.comps:
                break
            lam = element_matrix_to_hom(alg, lift.comps[-k], resx.terms[k], resy.terms[k])
            if k == 0:
                assert resy.homs[0].compose(lam).mats == phi.compose(resx.homs[0]).mats
            else:
                assert resy.diff_hom(k).compose(lam).mats == prev.compose(resx.diff_hom(k)).mats
            prev = lam
        assert set(lift.comps) == set(hom_basis_lift(phi, w).comps)

        new = stable_image_map(c.F, phi)
        with monkeypatch.context() as mp:
            mp.setattr(stable, "lift_to_resolutions", hom_basis_lift)
            old = stable_image_map(c.F, phi)
        assert new.rep.source is old.rep.source and new.rep.target is old.rep.target
        space = StableHomSpace(new.rep.source, new.rep.target)
        assert space.factors_through_projective(new.rep - old.rep)
