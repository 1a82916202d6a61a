"""The GP detector and perp_check against the per-vertex detector they
replaced, and the Ext row against the regular module that both read.

The per-vertex detector below is kept only here, as the reference: it
asks ext(., P_v, i) separately for every vertex v and every degree i on
both sides, with no row shared between vertices and no Gorenstein
dimension.
"""

import numpy as np
import pytest

import quivhom.gorenstein as gorenstein
from quivhom.complexes import hom_d_dim, module_complex
from quivhom.corpus import corpus
from quivhom.gorenstein import GPCrossCheckError, gorenstein_dimension, is_gorenstein_projective, perp_check
from quivhom.homological import ext, ext_row, syzygy, transpose
from quivhom.modules import is_projective, projective, simple
from quivhom.stable import stable_image
from tests.conftest import radical_square_zero, random_module

# depth 1 is below the Gorenstein dimension 2 of A and Lambda, so there
# the detector takes the two-sided path
DEPTHS = (1, 2, 5, 8)
RANDOM_PER_ALGEBRA = 60


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


def assert_agrees(new, ref):
    """The detector's report against the reference (verdict, ext_left,
    ext_right, witness) at the same depth.  A certified `gp` reads the
    left row up to its certificate g only (no degree for a projective),
    so its row is the reference row cut to g; every other verdict is
    compared field by field."""
    verdict, left, right, witness = ref
    assert (new.is_gp, new.witness) == (verdict == "gp-up-to-depth", witness)
    if new.verdict == "gp":
        if new.certificate is None:
            assert is_projective(new.module) and new.ext_left == []
        else:
            assert new.certificate <= new.depth and new.ext_left == left[: new.certificate]
        assert new.ext_right == []
    else:
        assert (new.verdict, new.ext_left, new.ext_right) == (verdict, left, right)


def memo_ext():
    """ext(y, P_v, i) keyed by the module's dimension vector and matrices,
    as Tr x is rebuilt per call."""
    memo = {}

    def ext_at(y, v, i):
        key = (id(y.algebra), tuple(y.dims.items()), tuple(m.data.tobytes() for m in y.mats.values()), v, i)
        if key not in memo:
            memo[key] = ext(y, projective(y.algebra, v), i)
        return memo[key]

    return ext_at


def assert_same_verdicts(x):
    """The detector and the per-vertex reference agree at every depth in
    DEPTHS; the reference's Ext values are shared between the depths."""
    ext_at = memo_ext()
    for d in DEPTHS:
        assert_agrees(is_gorenstein_projective(x, d), per_vertex_detector(x, d, ext_at))


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
    # k<x, y>/(x, y)^2 is not Gorenstein, so there perp_check reads the
    # row with no g to stop it
    refuted = 0
    for alg in (C1.A, C1.B, C1.Lam, C1.Gam, keps, radical_square_zero()):
        rng = np.random.default_rng(2017)
        for _ in range(5):
            x = random_module(alg, rng)
            assert_same_verdicts(x)
            refuted += not is_gorenstein_projective(x, 8).is_gp
            profile = per_vertex_profile(x, 5)
            for m in range(5):
                assert perp_check(x, m, 5) == (not any(profile[m:]))
    assert refuted > 0  # the sample exercises the witness path too


@pytest.mark.parametrize("n", [1, 2])
def test_certified_path_agrees_on_random_modules_and_syzygies(n, keps):
    """Seeded random modules with their first two syzygies over A, B,
    Lambda, Gamma (and k[eps] at n = 1), 540 modules in all: the detector
    at depth 8 against the reference.  Over each algebra of Gorenstein
    dimension g >= 1 some sample module is refuted in degree g exactly,
    so a certificate one degree short would call it GP."""
    c = corpus(n)
    algebras = [c.A, c.B, c.Lam, c.Gam] + [keps] * (n == 1)
    ext_at = memo_ext()
    for a, alg in enumerate(algebras):
        g = gorenstein_dimension(alg, 8)
        rng = np.random.default_rng(1000 * n + a)
        refuted_at_g = 0
        for _ in range(RANDOM_PER_ALGEBRA):
            x = random_module(alg, rng, 3)
            for y in (x, syzygy(x, 1), syzygy(x, 2)):
                report = is_gorenstein_projective(y, 8)
                assert_agrees(report, per_vertex_detector(y, 8, ext_at))
                refuted_at_g += report.witness is not None and report.witness[1] == g
        assert g == 0 or refuted_at_g > 0


def test_profile_matches_per_vertex_sums(C1):
    rng = np.random.default_rng(11)
    # the projective and the simples of A have finite projdim, so their
    # rows end in zeros
    mods = [projective(C1.A, "1")] + [simple(C1.A, v) for v in C1.A.quiver.vertices]
    mods += [random_module(C1.Gam, rng, 3) for _ in range(4)]
    for y in mods:
        assert ext_row(y, 6) == per_vertex_profile(y, 6)


def test_corpus_gp_modules_carry_certificates(C1):
    for key in sorted(C1.M):
        x = C1.M[key]
        report = is_gorenstein_projective(x, 8)
        assert (report.verdict, report.certificate) == ("gp", gorenstein_dimension(x.algebra, 8))
        for y in (x, transpose(x)):
            assert ext_row(y, 8) == [0] * 8


def test_depth_below_gorenstein_dimension_keeps_the_two_sided_verdict(C1):
    # Lambda has g = 2, so at depth 1 no certificate shows up and each side
    # is read to degree 1, as before g was computed
    assert gorenstein_dimension(C1.Lam, 1) is None
    for key in sorted(C1.M):
        y = stable_image(C1.F, C1.M[key])[0]
        report = is_gorenstein_projective(y, 1)
        assert (report.verdict, report.certificate, report.ext_left, report.ext_right) == ("gp-up-to-depth", None, [0], [0])


def spy_on_balance(monkeypatch, error=0):
    """Patch the GP layer so that every Ext it reads by balance, on duals
    that `gorenstein.dual` made, is off by error; returns the list of
    those (m, n, i) calls as they happen."""
    real_ext, real_dual = gorenstein.ext, gorenstein.dual
    duals, calls = [], []

    def dual(m):
        duals.append(real_dual(m))
        return duals[-1]

    def ext(m, n, i):
        if not any(m is d for d in duals):
            return real_ext(m, n, i)
        calls.append((m, n, i))
        return real_ext(m, n, i) + error

    monkeypatch.setattr(gorenstein, "dual", dual)
    monkeypatch.setattr(gorenstein, "ext", ext)
    return calls


def test_refutation_cross_check_raises(A1, monkeypatch):
    calls = spy_on_balance(monkeypatch, error=1)
    with pytest.raises(GPCrossCheckError, match="by balance"):
        is_gorenstein_projective(simple(A1, "1"), 2)
    assert calls and all(m.algebra is A1.opposite() for m, _, _ in calls)
    assert issubclass(GPCrossCheckError, RuntimeError)


def test_cli_cross_check_failure_exits_1(monkeypatch, capsys):
    from quivhom.cli import main

    calls = spy_on_balance(monkeypatch, error=1)
    code = main(["--corpus", "1", "gp-check", "--module", "simple_A_1", "--depth", "2"])
    assert code == 1 and calls
    assert "error: refutation witness" in capsys.readouterr().err


def test_refuted_profile_stops_at_first_nonzero_degree(A1):
    s = simple(A1, "1")
    report = is_gorenstein_projective(s, 8)
    assert (report.verdict, report.ext_left, report.witness) == ("refuted", [], ("left", 1, "0"))
    # Ext^1 is settled by rk d_2*, so the resolution went no further than P_2
    assert len(s._cache["minres"].terms) == 3
    assert ext_row(s, 2) == per_vertex_profile(s, 2) == [2, 1]


def test_row_is_cached_and_returned_as_a_copy(C1):
    x = C1.M[sorted(C1.M)[0]]
    row = ext_row(x, 8)
    ranks = x._cache["ext_ranks"]
    assert len(ranks) == 10
    # a shorter row is read off the cached ranks, with none added
    assert ext_row(x, 3) == row[:3] and x._cache["ext_ranks"] is ranks and len(ranks) == 10
    row.append(99)
    assert ext_row(x, 8) == row[:8]
