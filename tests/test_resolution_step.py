"""The resolution step reads each kernel in the echelon coordinates of
`nullspace` and covers it in place (`modules.kernel_cover`): no solve, no
kernel module.  The loop it replaced built the kernel as a module with
one solve per arrow, covered it, composed the cover into P_k and read
the element matrix back; that loop is kept only here, as the reference.
Both must agree entry for entry.

The last tests run the resolution, Ext rows and GP verdicts with every
`solve` and `kernel` of the package made to raise.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import quivhom
from quivhom import exactlin, modules
from quivhom.corpus import corpus
from quivhom.exactlin import MAX_PRIME, Matrix, nullspace, solve
from quivhom.gorenstein import is_gorenstein_projective
from quivhom.homological import dual, ext_row, minimal_resolution
from quivhom.modules import (
    RepHom,
    Representation,
    ProjSummands,
    hom_to_element_matrix,
    projective,
    projective_cover,
    simple,
    sub_from_bases,
)
from quivhom.stable import stable_image
from tests.conftest import radical_square_zero, random_module
from tests.test_cover import extreme_prime_inputs, fresh

DEPTH = 4


def reference_kernel(f):
    """(ker f, inclusion): the nullspace bases, and the kernel's arrow
    actions by one solve per arrow."""
    m = f.source
    alg = m.algebra
    bases = {v: nullspace(f.mats[v]) for v in alg.quiver.vertices}
    mats = {}
    for n, s, t in alg.quiver.arrows:
        x = solve(bases[t], m.mats[n] @ bases[s])
        assert x is not None, n
        mats[n] = x
    sub = Representation(alg, {v: b.cols for v, b in bases.items()}, mats, check=False)
    return sub, RepHom(sub, m, bases, check=False)


def reference_extend(m, depth):
    """(terms, dmats, differentials, syzygies) to depth by the old loop:
    homs[k] is the minimal epi P_k ->> K_k, its kernel is K_(k+1), and
    d_(k+1) = (K_(k+1) -> P_k) o (P_(k+1) ->> K_(k+1))."""
    alg = m.algebra
    p0, epi = projective_cover(m)
    terms, dmats, homs, incls = [p0], [None], [epi], [None]
    for k in range(depth):
        ker, incl = reference_kernel(homs[k])
        pk, cover = projective_cover(ker)
        d = incl.compose(cover)
        terms.append(pk)
        dmats.append(hom_to_element_matrix(alg, d, pk, terms[k]))
        homs.append(cover)
        incls.append(incl)
    diffs = [None] + [incls[k].compose(homs[k]) for k in range(1, depth + 1)]
    syzygies = [m] + [incls[k].source for k in range(1, depth + 1)]
    return terms, dmats, diffs, syzygies


def assert_same_step(m):
    terms, dmats, diffs, syzygies = reference_extend(fresh(m), DEPTH)
    x = fresh(m)
    res = minimal_resolution(x, DEPTH)
    verts = m.algebra.quiver.vertices
    for k in range(DEPTH + 1):
        assert res.terms[k].vertices == terms[k].vertices, k
        assert res.dmats[k] == dmats[k], k
        syz = res.syzygy_module(k)
        assert syz.dims == syzygies[k].dims, k
        assert syz.mats == syzygies[k].mats, k
        if k:
            assert all(res.diff_hom(k).mats[v] == diffs[k].mats[v] for v in verts), k
    assert res.syzygy_module(0) is x


def corpus_inputs(n):
    c = corpus(n)
    out = []
    for key in sorted(c.M):
        out += [c.M[key], stable_image(c.F, c.M[key])[0]]
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_corpus_modules_and_images_match_the_old_step(n):
    for x in corpus_inputs(n):
        assert_same_step(x)


def test_random_modules_match_the_old_step():
    c = corpus(1)
    for alg in (c.A, c.Lam, c.Gam):
        rng = np.random.default_rng(1818)
        for i in range(20):
            assert_same_step(random_module(alg, rng, 1 + i % 3))


def test_radical_square_zero_modules_match_the_old_step():
    # not Gorenstein: the resolutions double at every degree
    alg = radical_square_zero()
    rng = np.random.default_rng(7)
    mods = [simple(alg, "0"), projective(alg, "0"), dual(projective(alg.opposite(), "0"))]
    mods += [random_module(alg, rng, 2) for _ in range(3)]
    for m in mods:
        assert_same_step(m)


@pytest.mark.parametrize("p", [3, MAX_PRIME])
def test_extreme_prime_inputs_match_the_old_step(p):
    for m in extreme_prime_inputs(p):
        assert_same_step(m)


# -- no solves in the resolution step ---------------------------------------


def _package_modules():
    return [importlib.import_module(f"quivhom.{info.name}") for info in pkgutil.iter_modules(quivhom.__path__)]


def refuse_solves(mp):
    """Make every binding of `exactlin.solve` and `modules.kernel` in the
    package raise RuntimeError."""

    def refuse(name):
        def raiser(*args, **kwargs):
            raise RuntimeError(f"{name} called")

        return raiser

    originals = {"solve": exactlin.solve, "kernel": modules.kernel}
    for mod in _package_modules():
        for name, original in originals.items():
            if getattr(mod, name, None) is original:
                mp.setattr(mod, name, refuse(name))


@pytest.fixture
def no_solves(monkeypatch):
    refuse_solves(monkeypatch)


def test_resolution_ext_rows_and_gp_verdicts_need_no_solve(monkeypatch):
    inputs = corpus_inputs(2)
    expected = []
    for x in inputs:
        y = fresh(x)
        expected.append((minimal_resolution(y, DEPTH).dmats, ext_row(y, 3), repr(is_gorenstein_projective(y, 8))))
    with monkeypatch.context() as mp:
        refuse_solves(mp)
        for x, (dmats, row, verdict) in zip(inputs, expected):
            y = fresh(x)
            assert minimal_resolution(y, DEPTH).dmats == dmats
            assert ext_row(y, 3) == row
            assert repr(is_gorenstein_projective(y, 8)) == verdict


def test_sub_from_bases_refuses_a_basis_off_normal_form(A1, no_solves):
    # the kernel of P_v ->> S_v is rad P_v; twice a nullspace column spans
    # the same arrow-stable space, but is 2 at its last nonzero entry
    for v in A1.quiver.vertices:
        _, epi = projective_cover(simple(A1, v))
        bases = {w: nullspace(epi.mats[w]) for w in A1.quiver.vertices}
        w = next((w for w, b in bases.items() if b.cols), None)
        if w is None:
            continue
        sub_from_bases(epi.source, bases)
        bases[w] = bases[w].scale(2)
        with pytest.raises(ValueError, match="normal form"):
            sub_from_bases(epi.source, bases)


def test_sub_from_bases_refuses_a_span_off_the_arrows(A1, no_solves):
    # the generator of P_s alone: the arrow s -> t moves it out of the span
    for n, s, t in A1.quiver.arrows:
        pv = projective(A1, s)
        gen = np.zeros((pv.dims[s], 1), dtype=np.int64)
        gen[ProjSummands(A1, (s,)).generator_index(0), 0] = 1
        with pytest.raises(ValueError, match="bases not stable under arrow"):
            sub_from_bases(pv, {s: Matrix(A1.p, gen)})
