import time

import numpy as np
import pytest

import quivhom.homological as homological
from quivhom.algebra import dual_numbers
from quivhom.corpus import corpus
from quivhom.functors import identity_functor, shift_functor
from quivhom.gorenstein import (
    CosyzygyError,
    cosyzygy_sequence,
    findim_bounds_check,
    gorenstein_dimension,
    gp_preservation_check,
    is_gorenstein_projective,
    perp_check,
)
from quivhom.homological import dual, ext_row, is_isomorphic, projdim, strip_projectives, syzygy, transpose
from quivhom.modules import Representation, direct_sum, projective, simple
from quivhom.stable import stable_image, stable_iso
from tests.conftest import radical_square_zero, random_module


@pytest.fixture(scope="module")
def C1():
    return corpus(1)


def inverse_syzygy(x):
    """The reference forward shift, Tr o Omega o Tr with projective
    summands stripped: on GP modules it is the cosyzygy."""
    if x.is_zero():
        return x
    tr, _ = strip_projectives(transpose(x))
    back, _ = strip_projectives(transpose(syzygy(tr, 1)))
    return back


def test_perp_projective_always(A1):
    for v in A1.quiver.vertices:
        assert perp_check(projective(A1, v), 0, 5)


def test_perp_dual_numbers_simple(keps):
    # self-injective: Ext^i(k, k[eps]) vanishes for every i >= 1
    assert perp_check(simple(keps, "0"), 0, 8)


def test_perp_refutes_tree_simple(A1):
    assert not perp_check(simple(A1, "1"), 0, 2)


def test_perp_rejects_a_negative_degree_bound(A1):
    # read as a slice start, m = -1 would test degree d alone
    with pytest.raises(ValueError, match="degree bound must be >= 0"):
        perp_check(simple(A1, "1"), -1, 3)


def test_gp_layer_answers_without_an_isomorphism_search(C1, monkeypatch):
    # the depth-1 fallback over Lambda, perp_check and the cosyzygies read
    # Ext rows only, so they never look for a syzygy isomorphism
    images = [stable_image(C1.F, C1.M[key])[0] for key in sorted(C1.M)]

    def no_search(*args, **kwargs):
        raise AssertionError("find_iso called")

    monkeypatch.setattr(homological, "find_iso", no_search)
    for y in images:
        assert is_gorenstein_projective(y, 1).verdict == "gp-up-to-depth"
        assert perp_check(y, 0, 3) and perp_check(y, 1, 3)
    for key in sorted(C1.M):
        assert cosyzygy_sequence(C1.M[key], 3).verify()


def test_gp_projective(A1, keps):
    # a projective is GP over any algebra: certified with no degree read
    for alg, v in ((A1, "1"), (keps, "0")):
        P = projective(alg, v)
        rep = is_gorenstein_projective(P, 3)
        assert (rep.verdict, rep.certificate, rep.ext_left, rep.ext_right) == ("gp", None, [], [])
        assert ext_row(P, 3) == [0, 0, 0]


def test_gp_simple_over_dual_numbers(keps):
    s = simple(keps, "0")
    rep = is_gorenstein_projective(s, 8)
    assert (rep.verdict, rep.certificate, rep.ext_left, rep.ext_right) == ("gp", 0, [], [])
    assert ext_row(s, 8) == ext_row(transpose(s), 8) == [0] * 8


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gorenstein_dimensions_of_the_corpus(n):
    c = corpus(n)
    assert [gorenstein_dimension(alg, 4) for alg in (c.A, c.Lam, c.B, c.Gam)] == [2, 2, 1, 1]
    # g is not known below itself
    assert [gorenstein_dimension(alg, 1) for alg in (c.A, c.Lam, c.B)] == [None, None, 1]
    assert gorenstein_dimension(c.Gam, 0) is None


def test_self_injective_dual_numbers_have_dimension_zero(keps):
    assert gorenstein_dimension(keps, 0) == 0


def _injdims(alg, bound):
    """projdim of each indecomposable injective alg-module."""
    return [projdim(dual(projective(alg.opposite(), v)), bound) for v in alg.quiver.vertices]


def test_both_sides_agree_as_zaks_says(C1):
    # the injective dimensions of the regular module on the two sides
    for alg in (C1.A, C1.B, C1.Lam, C1.Gam):
        assert max(_injdims(alg, 4)) == max(_injdims(alg.opposite(), 4)) == gorenstein_dimension(alg, 4)


def test_non_gorenstein_algebra_has_no_dimension_within_bound():
    R = radical_square_zero()
    assert gorenstein_dimension(R, 4) is None
    assert _injdims(R, 4) == [None]


def test_non_gorenstein_simple_is_refuted_at_once():
    # the refutation in degree 1 comes before the injective is resolved
    # deep: asking for the dimension first would resolve it to depth 8
    s = simple(radical_square_zero(), "0")
    t = time.perf_counter()
    rep = is_gorenstein_projective(s, 8)
    assert time.perf_counter() - t < 0.5
    assert (rep.verdict, rep.witness) == ("refuted", ("left", 1, "0"))


def test_gp_refutes_simple_over_tree(A1):
    rep = is_gorenstein_projective(simple(A1, "1"), 2)
    assert rep.verdict == "refuted"
    assert rep.witness is not None


def test_depth_monotone(C1):
    x = C1.M[(1, 2)]
    assert is_gorenstein_projective(x, 6).is_gp
    assert is_gorenstein_projective(x, 2).is_gp
    s = simple(C1.A, "1")
    assert not is_gorenstein_projective(s, 2).is_gp
    assert not is_gorenstein_projective(s, 6).is_gp


def test_all_dual_numbers_modules_perp(keps):
    # every module over the self-injective dual numbers passes
    rng = np.random.default_rng(51)
    for _ in range(6):
        m = random_module(keps, rng)
        if m.is_zero():
            continue
        assert perp_check(m, 0, 5)


def test_gp_family_perp_over_gamma(C1):
    # sampled members of the GP family over the tensor algebra
    for key in ((0, 1), (1, 2), (2, 2), (3, 1)):
        assert perp_check(C1.M[key], 0, 5)


def test_inverse_syzygy_roundtrip(keps, C1):
    k = simple(keps, "0")
    y = inverse_syzygy(k)
    assert is_isomorphic(syzygy(y, 1), k)
    assert is_isomorphic(cosyzygy_sequence(k, 1).modules[1], y)
    x = C1.M[(2, 1)]
    y = inverse_syzygy(x)
    assert stable_iso(syzygy(y, 1), x)
    assert is_isomorphic(cosyzygy_sequence(x, 1).modules[1], y)


def gp_sweep():
    """(name, GP module): every M_i_l and S_P_i and the F-stable image of
    each M_i_l at n <= 2, S_P_1 (+) P_0, and the GP second syzygies of
    seeded random modules over Lambda_1, Gamma_1 and k[eps]."""
    out = []
    for n in (1, 2):
        C = corpus(n)
        out += [(f"n{n} M_{i}_{l}", x) for (i, l), x in sorted(C.M.items())]
        out += [(f"n{n} S_P_{i}", x) for i, x in sorted(C.S_P.items())]
        out += [(f"n{n} F(M_{i}_{l})", stable_image(C.F, x)[0]) for (i, l), x in sorted(C.M.items())]
    C = corpus(1)
    out.append(("S_P_1 + P_0", direct_sum([C.S_P[1], projective(C.Lam, "0")])[0]))
    rng = np.random.default_rng(53)
    for name, alg in (("Lam1", C.Lam), ("Gam1", C.Gam), ("keps", dual_numbers())):
        for k in range(8):
            x = syzygy(random_module(alg, rng, summands=3), 2)
            if not x.is_zero() and is_gorenstein_projective(x, 4).is_gp:
                out.append((f"{name} syzygy {k}", x))
    return out


def test_cosyzygies_match_the_reference_shift():
    # the minimal left approximation by projectives and Tr o Omega o Tr
    # give isomorphic cosyzygies, to depth two
    sweep = gp_sweep()
    assert len(sweep) >= 80
    for name, x in sweep:
        seq = cosyzygy_sequence(x, 2)
        ref = x
        for got in seq.modules[1:]:
            ref = inverse_syzygy(ref)
            assert is_isomorphic(got, ref), name


def test_cosyzygy_chain_dual_numbers(keps):
    k = simple(keps, "0")
    seq = cosyzygy_sequence(k, 4)
    assert seq.verify()
    assert [m.total_dim() for m in seq.modules] == [1, 1, 1, 1, 1]
    for emb in seq.embeddings:
        assert emb.target.total_dim() == 2  # always the regular module


def test_cosyzygy_projective_case(A1):
    P = projective(A1, "1")
    seq = cosyzygy_sequence(P, 2)
    assert seq.verify()


def test_cosyzygy_gp_family(C1):
    x = C1.S_P[1]  # GP over the tensor algebra by the classification
    seq = cosyzygy_sequence(x, 3)
    assert seq.verify()
    for m in seq.modules[1:]:
        assert perp_check(m, 0, 2)


def test_cosyzygy_rejects_non_gp(A1):
    with pytest.raises(CosyzygyError):
        cosyzygy_sequence(simple(A1, "1"), 3)


def test_gp_preservation_identity(C1):
    rep = gp_preservation_check(identity_functor(C1.Gam), C1.M[(1, 1)], d=4)
    assert rep.preserved


def test_gp_preservation_main_functor(C1):
    for key in ((0, 2), (3, 1)):
        rep = gp_preservation_check(C1.F, C1.M[key], d=6)
        assert rep.source_report.is_gp
        assert rep.image_report.is_gp
        assert rep.preserved


def test_gp_preserved_by_syzygy_data(C1):
    om = shift_functor(C1.Gam, 1)
    rep = gp_preservation_check(om, C1.M[(0, 3)], d=5)
    assert rep.preserved


def test_projdim_examples(A1, keps, C1):
    assert projdim(projective(A1, "2"), 4) == 0
    assert projdim(simple(keps, "0"), 6) is None
    # interval quotients of neighbouring projectives have dimension one
    from quivhom.corpus import interval_module

    x = interval_module(C1.B, 0, 2)
    assert projdim(x, 4) == 1


def test_findim_bounds_identity(A1):
    rng = np.random.default_rng(52)
    mods = [m for m in (random_module(A1, rng) for _ in range(4)) if not m.is_zero()]
    rep = findim_bounds_check(identity_functor(A1), mods, bound=6)
    assert rep.bounds_ok
    assert rep.findim_source == rep.findim_image


def test_findim_bounds_main_pair(C1):
    mods = C1.indecomposables_B()
    rep = findim_bounds_check(C1.F_BA, mods, bound=6)
    assert rep.bounds_ok
    assert rep.findim_source == 1  # hereditary linear quiver
    assert rep.findim_gap_ok


def test_findim_projective_inputs(C1):
    mods = [projective(C1.B, v) for v in C1.B.quiver.vertices]
    rep = findim_bounds_check(C1.F_BA, mods, bound=4)
    assert rep.bounds_ok
    assert rep.findim_source == 0


def test_cosyzygy_with_projective_padding(C1):
    x = C1.S_P[1]
    padded, _, _ = direct_sum([x, projective(C1.Lam, "0")])
    seq = cosyzygy_sequence(padded, 2)
    assert seq.verify()


def test_transpose_is_cached_so_the_fallback_resolves_once(monkeypatch):
    """Depth 1 is below g = 2 for Lambda, so every verdict takes the
    `gp-up-to-depth` fallback and reads the row of Tr x.  Asked twice, the
    second pass finds Tr x and its resolution on x: no resolution step."""
    c = corpus(2)
    images = []
    for key in sorted(c.M):
        y = stable_image(c.F, c.M[key])[0]
        images.append(Representation(y.algebra, y.dims, y.mats, check=False))
    steps = [0]
    new_res, extend = homological.MinimalResolution.__init__, homological.MinimalResolution.extend_to

    def counted_init(self, m):
        new_res(self, m)
        steps[0] += 1

    def counted_extend(self, depth):
        before = len(self.terms)
        out = extend(self, depth)
        steps[0] += len(self.terms) - before
        return out

    monkeypatch.setattr(homological.MinimalResolution, "__init__", counted_init)
    monkeypatch.setattr(homological.MinimalResolution, "extend_to", counted_extend)
    first = [repr(is_gorenstein_projective(y, 1)) for y in images]
    assert steps[0] and all(v == "GPReport(gp-up-to-depth 1)" for v in first)
    steps[0] = 0
    assert [repr(is_gorenstein_projective(y, 1)) for y in images] == first
    assert steps[0] == 0
    assert all(transpose(y) is transpose(y) for y in images)
