"""The GP detector built on ext_profile against the per-vertex detector it
replaced, and the syzygy-periodicity certificates it returns.

The per-vertex detector below is kept only here, as the reference: it
asks ext(., P_v, i) separately for every vertex v and every degree i on
both sides, with no periodicity shortcut.
"""

import numpy as np
import pytest

import quivhom.gorenstein as gorenstein
from quivhom.complexes import hom_d_dim, module_complex
from quivhom.corpus import corpus
from quivhom.gorenstein import GPCrossCheckError, is_gorenstein_projective, perp_check
from quivhom.homological import ext, ext_profile, minimal_resolution, transpose
from quivhom.modules import projective, simple
from quivhom.stable import stable_image
from tests.conftest import random_module

DEPTHS = (2, 5, 8)


def per_vertex_detector(x, d, ext_at):
    """(verdict, ext_left, ext_right, witness) by one ext call per vertex
    and degree, stopping at the first nonzero one.  ext_at(y, v, i) is
    dim Ext^i(y, P_v)."""
    if x.is_zero():
        return "gp-up-to-depth", [], [], None
    sides = [("left", x), ("right", transpose(x))]
    rows = {"left": [], "right": []}
    for side, y in sides:
        for i in range(1, d + 1):
            row = 0
            for v in y.algebra.quiver.vertices:
                e = ext_at(y, v, i)
                if e:
                    P = module_complex(projective(y.algebra, v))
                    assert hom_d_dim(module_complex(y), P, i) == e
                    return "refuted", rows["left"], rows["right"], (side, i, v)
                row += e
            rows[side].append(row)
    return "gp-up-to-depth", rows["left"], rows["right"], None


def per_vertex_profile(y, d):
    return [sum(ext(y, projective(y.algebra, v), i) for v in y.algebra.quiver.vertices) for i in range(1, d + 1)]


def assert_same_verdicts(x):
    """New and per-vertex detectors agree at every depth in DEPTHS.  The
    per-vertex Ext values are shared between the depths (keyed by the
    module's dimension vector and matrices, as Tr x is rebuilt per call)."""
    memo = {}

    def ext_at(y, v, i):
        key = (id(y.algebra), tuple(y.dims.items()), tuple(m.data.tobytes() for m in y.mats.values()), v, i)
        if key not in memo:
            memo[key] = ext(y, projective(y.algebra, v), i)
        return memo[key]

    for d in DEPTHS:
        new = is_gorenstein_projective(x, d)
        assert (new.verdict, new.ext_left, new.ext_right, new.witness) == per_vertex_detector(x, d, ext_at), d


@pytest.fixture(scope="module")
def C1():
    return corpus(1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_corpus_modules_and_images_agree(n):
    c = corpus(n)
    for key in sorted(c.M):
        x = c.M[key]
        assert_same_verdicts(x)
        assert_same_verdicts(stable_image(c.F, x)[0])


def test_simples_agree(A1, keps):
    for alg in (A1, keps):
        for v in alg.quiver.vertices:
            assert_same_verdicts(simple(alg, v))


def test_random_modules_agree(C1, keps):
    refuted = 0
    for alg in (C1.A, C1.B, C1.Lam, C1.Gam, keps):
        rng = np.random.default_rng(2017)
        for _ in range(5):
            x = random_module(alg, rng)
            assert_same_verdicts(x)
            refuted += not is_gorenstein_projective(x, 8).is_gp
            for m in (0, 1):
                old = all(e == 0 for e in per_vertex_profile(x, 5)[m:])
                assert perp_check(x, m, 5) == old
    assert refuted > 0  # the sample exercises the witness path too


def test_profile_matches_per_vertex_sums(C1):
    rng = np.random.default_rng(11)
    mods = [simple(C1.A, v) for v in C1.A.quiver.vertices] + [random_module(C1.Gam, rng, 3) for _ in range(4)]
    for y in mods:
        dims, _ = ext_profile(y, 6)
        assert dims == per_vertex_profile(y, 6)


def same_rep(a, b):
    return a.dims == b.dims and all(a.mats[n] == b.mats[n] for n in a.mats)


def assert_certificate(y, period):
    """iso : Omega^j y -> Omega^k y, j < k, in y's minimal resolution (the
    resolution is deterministic, so a recomputed Tr x resolves alike)."""
    j, k, iso = period
    res = minimal_resolution(y, k)
    assert 0 <= j < k
    assert same_rep(iso.source, res.syzygy_module(j))
    assert same_rep(iso.target, res.syzygy_module(k))
    assert iso.verify() and iso.is_iso()


def test_dual_numbers_simple_has_period_one(keps):
    s = simple(keps, "0")
    report = is_gorenstein_projective(s, 8)
    assert report.is_gp
    assert report.period_left[:2] == (0, 1) and report.period_right[:2] == (0, 1)
    assert_certificate(s, report.period_left)
    assert_certificate(transpose(s), report.period_right)


def test_corpus_gp_modules_carry_certificates(C1):
    for key in sorted(C1.M):
        x = C1.M[key]
        report = is_gorenstein_projective(x, 8)
        assert report.is_gp
        assert_certificate(x, report.period_left)
        assert_certificate(transpose(x), report.period_right)


def test_finite_projdim_gives_zero_syzygy_certificate(A1):
    for y in (projective(A1, "1"), simple(A1, "1")):
        dims, period = ext_profile(y, 8)
        assert period is not None
        j, k, iso = period
        assert k == j + 1
        assert iso.source.is_zero() and iso.target.is_zero()
        assert_certificate(y, period)
        assert iso.source is minimal_resolution(y, k).syzygy_module(j)
        assert dims == per_vertex_profile(y, 8)
    assert ext_profile(projective(A1, "1"), 8)[1][:2] == (1, 2)


def test_no_period_within_depth_falls_back(A1):
    s = simple(A1, "1")
    dims, period = ext_profile(s, 2)
    assert period is None
    assert dims == per_vertex_profile(s, 2) == [2, 1]
    report = is_gorenstein_projective(s, 2)
    assert report.period_left is None
    assert (report.verdict, report.ext_left, report.witness) == ("refuted", [], ("left", 1, "0"))


def test_refutation_cross_check_raises(A1, monkeypatch):
    real = gorenstein.hom_d_dim
    monkeypatch.setattr(gorenstein, "hom_d_dim", lambda a, b, i: real(a, b, i) + 1)
    with pytest.raises(GPCrossCheckError):
        is_gorenstein_projective(simple(A1, "1"), 2)
    assert issubclass(GPCrossCheckError, RuntimeError)


def test_cli_cross_check_failure_exits_1(monkeypatch, capsys):
    from quivhom.cli import main

    real = gorenstein.hom_d_dim
    monkeypatch.setattr(gorenstein, "hom_d_dim", lambda a, b, i: real(a, b, i) + 1)
    code = main(["--corpus", "1", "gp-check", "--module", "simple_A_1", "--depth", "2"])
    assert code == 1
    assert "error: refutation witness" in capsys.readouterr().err


def test_refuted_profile_stops_at_first_nonzero_degree(A1):
    s = simple(A1, "1")
    dims, period = ext_profile(s, 8, stop_above=0)
    assert (dims, period) == ([2], None)
    # Ext^1 is settled by rk d_2*, so the resolution went no further than P_2
    assert len(s._cache["minres"].terms) == 3
    assert ext_profile(s, 8, stop_above=1)[0] == per_vertex_profile(s, 2)


def test_profile_is_cached_per_depth(C1):
    x = C1.M[sorted(C1.M)[0]]
    dims, period = ext_profile(x, 8)
    again, period_again = ext_profile(x, 8, stop_above=1)
    assert again == dims and period_again is period
    again.append(99)
    assert ext_profile(x, 8)[0] == dims
