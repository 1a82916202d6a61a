"""projective_cover reads the generators straight off the span of the
arrow images.  The cover it replaced went through top m = m / rad m and
lifted a basis of the top back to m; that cover is kept only here, as
the reference.
"""

import numpy as np
import pytest

from quivhom import homological
from quivhom.algebra import dual_numbers, linear_algebra_An
from quivhom.corpus import corpus, gentle_tree_algebra
from quivhom.exactlin import MAX_PRIME, Matrix, in_column_span, rank, solve
from quivhom.homological import ext, minimal_resolution
from quivhom.modules import (
    ProjSummands,
    RepHom,
    Representation,
    direct_sum,
    is_ses,
    kernel,
    projective,
    projective_cover,
    radical,
    regular_module,
    simple,
    top,
    zero_rep,
)
from quivhom.stable import stable_image
from tests.conftest import random_module

DEPTH = 4


def reference_cover(m):
    """The top -> lift cover: one P_v per basis vector of top m at v, its
    generator sent to a lift of that vector through m ->> top m."""
    alg, p = m.algebra, m.p
    t, pi = top(m)
    verts, gens = [], []
    for v in alg.quiver.vertices:
        if t.dims[v]:
            lift = solve(pi.mats[v], Matrix.identity(p, t.dims[v]))
            assert lift is not None
            for k in range(t.dims[v]):
                verts.append(v)
                gens.append(lift.column(k))
    ps = ProjSummands(alg, verts)
    mats = {}
    for w in alg.quiver.vertices:
        cols = [m.path_matrix(pth) @ gens[j] for j, pth in ps.layout()[w]]
        mats[w] = Matrix.hstack(cols) if cols else Matrix.zeros(p, m.dims[w], 0)
    return ps, RepHom(ps.rep(), m, mats, check=False)


def fresh(m):
    """A copy of m with empty caches."""
    return Representation(m.algebra, m.dims, m.mats, check=False)


def assert_cover(m, cover):
    ps, epi = cover
    assert epi.source is ps.rep() and epi.target is m
    assert epi.verify()
    for v in m.algebra.quiver.vertices:
        assert rank(epi.mats[v]) == m.dims[v], v
    # minimal: the kernel lies in rad P
    _, kincl = kernel(epi)
    _, rincl = radical(ps.rep())
    for v in m.algebra.quiver.vertices:
        if kincl.mats[v].cols:
            assert in_column_span(rincl.mats[v], kincl.mats[v]), v


def assert_matches_reference(m, monkeypatch):
    new, old = projective_cover(m), reference_cover(fresh(m))
    assert sorted(new[0].vertices) == sorted(old[0].vertices)
    assert_cover(m, new)
    assert_cover(old[1].target, old)
    # a resolution and Ext driven by the reference cover
    ref = fresh(m)
    with monkeypatch.context() as mp:
        mp.setattr(homological, "projective_cover", reference_cover)
        old_res = minimal_resolution(ref, DEPTH)
        reg = regular_module(m.algebra)
        old_ext = [ext(ref, reg, i) for i in range(1, DEPTH + 1)]
    res = minimal_resolution(m, DEPTH)
    for k in range(DEPTH + 1):
        assert res.terms[k].vertices == old_res.terms[k].vertices, k
    assert [ext(m, reg, i) for i in range(1, DEPTH + 1)] == old_ext


@pytest.mark.parametrize("n", [1, 2])
def test_corpus_modules_and_images_match_reference(n, monkeypatch):
    c = corpus(n)
    for key in sorted(c.M):
        x = c.M[key]
        assert_matches_reference(x, monkeypatch)
        assert_matches_reference(stable_image(c.F, x)[0], monkeypatch)


def test_random_modules_match_reference(keps, monkeypatch):
    c = corpus(1)
    for alg in (c.A, c.B, c.Lam, c.Gam, keps):
        rng = np.random.default_rng(505)
        for summands in (1, 2, 3, 3):
            assert_matches_reference(random_module(alg, rng, summands), monkeypatch)


def test_zero_module_has_empty_cover(A1):
    m = zero_rep(A1)
    ps, epi = projective_cover(m)
    assert ps.vertices == () and ps.rep().is_zero()
    assert epi.is_zero() and epi.verify()
    assert all(mat.shape() == (0, 0) for mat in epi.mats.values())


def test_top_vanishes_where_the_module_does_not(A1):
    # P_1 lives at every vertex its paths reach, but its top is S_1
    pv = projective(A1, "1")
    assert sum(1 for d in pv.dims.values() if d) > 1
    ps, epi = projective_cover(pv)
    assert ps.vertices == ("1",)
    assert epi.is_iso()
    # S_3 (+) P_1: the arrows into vertex 3 reach part of it, not all
    s3 = simple(A1, "3")
    ps, epi = projective_cover(direct_sum([s3, pv])[0])
    assert sorted(ps.vertices) == ["1", "3"]


def random_linear_rep(p, rng, length=5):
    """A representation of the linear quiver with uniformly random arrow
    matrices (no relations), so products along its paths carry full-size
    entries."""
    alg = linear_algebra_An(length + 1, p=p)
    dims = {v: int(rng.integers(1, 4)) for v in alg.quiver.vertices}
    mats = {n: Matrix.random(p, dims[t], dims[s], rng) for n, s, t in alg.quiver.arrows}
    return Representation(alg, dims, mats)


def extreme_prime_inputs(p):
    """Three random linear representations and two random modules over
    dual-numbers algebras, at the prime p."""
    rng = np.random.default_rng(p % 1000)
    mods = [random_linear_rep(p, rng) for _ in range(3)]
    mods += [random_module(alg, rng, 3) for alg in (gentle_tree_algebra(1, p=p).dual_numbers_extension(), dual_numbers(p=p))]
    return mods


@pytest.mark.parametrize("p", [3, MAX_PRIME])
def test_cover_is_exact_at_extreme_primes(p, monkeypatch):
    for m in extreme_prime_inputs(p):
        ps, epi = projective_cover(m)
        _, kincl = kernel(epi)
        assert is_ses(kincl, epi)
        assert_matches_reference(m, monkeypatch)
        res = minimal_resolution(m, DEPTH)
        assert res.homs[0].compose(res.diff_hom(1)).is_zero()
        for k in range(2, DEPTH + 1):
            assert res.diff_hom(k - 1).compose(res.diff_hom(k)).is_zero(), k


def test_cover_is_cached(A1):
    m = simple(A1, "2")
    assert projective_cover(m) is projective_cover(m)
