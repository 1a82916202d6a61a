import numpy as np
import pytest

from quivhom.complexes import (
    ChainMap,
    Complex,
    brutal_truncate_geq,
    brutal_truncate_lt,
    cone,
    good_truncate_geq0,
    hom_complex,
    hom_d_dim,
    hom_k,
    hom_k_dim,
    homology,
    homology_dims,
    identity_chain_map,
    is_acyclic,
    is_quasi_iso,
    localization_compare,
    module_complex,
    projective_resolution,
    shift,
)
from quivhom.corpus import corpus
from quivhom.homological import ext, is_isomorphic
from quivhom.modules import (
    ProjSummands,
    cokernel,
    element_matrix_to_hom,
    hom_space,
    identity_hom,
    projective,
    simple,
)
from tests.conftest import random_module, random_three_term_complex, random_two_term_complex


def two_term_projective(A1):
    # P_0 -> P_1, right multiplication by the arrow 1 -> 0
    f = element_matrix_to_hom(
        A1, [[A1.arrow("a1")]], ProjSummands(A1, ["0"]), ProjSummands(A1, ["1"])
    )
    return Complex(A1, {0: f.source, 1: f.target}, {0: f})


def test_shift_zero_identity(A1):
    rng = np.random.default_rng(1)
    c = random_two_term_complex(A1, rng)
    s = shift(c, 0)
    assert s.terms.keys() == c.terms.keys()
    assert all(s.term(i).dims == c.term(i).dims for i in c.degrees())


def test_shift_roundtrip(A1):
    rng = np.random.default_rng(2)
    c = random_three_term_complex(A1, rng)
    s = shift(shift(c, 1), -1)
    for i in c.degrees():
        assert s.term(i).dims == c.term(i).dims
        assert s.diff(i).mats == c.diff(i).mats


def test_shift_moves_homology(A1):
    rng = np.random.default_rng(3)
    c = random_three_term_complex(A1, rng)
    for n in (-2, 1, 3):
        s = shift(c, n)
        for i in c.degrees():
            assert homology(s, i - n).dims == homology(c, i).dims


def test_cone_of_identity_acyclic_and_contractible(A1):
    rng = np.random.default_rng(4)
    c = random_two_term_complex(A1, rng)
    cn, _, _ = cone(identity_chain_map(c))
    assert is_acyclic(cn)
    hk = hom_k(cn, cn, 0)
    ident = ChainMap(cn, cn, {i: identity_hom(cn.terms[i]) for i in cn.terms})
    assert hk.is_null_homotopic(ident)


def test_cone_of_zero_splits(A1):
    rng = np.random.default_rng(5)
    x = random_two_term_complex(A1, rng)
    y = random_two_term_complex(A1, rng)
    z = ChainMap(x, y, {}, check=False)
    cn, _, _ = cone(z)
    sx = shift(x, 1)
    for i in cn.degrees():
        assert cn.term(i).total_dim() == sx.term(i).total_dim() + y.term(i).total_dim()
        hc = homology(cn, i).total_dim()
        assert hc == homology(sx, i).total_dim() + homology(y, i).total_dim()


def test_cone_of_projective_embedding(A1):
    # quotient of P_1 by the a1-image: dims (0,1,0,1), concentrated in
    # degree 0 of the cone's homology
    c = two_term_projective(A1)
    f = c.diff(0)
    cm = ChainMap(module_complex(f.source), module_complex(f.target), {0: f})
    cn, _, _ = cone(cm)
    h0 = homology(cn, 0)
    assert h0.dim_vector() == {"0": 0, "1": 1, "2": 0, "3": 1}
    assert homology(cn, -1).is_zero()
    target, _ = cokernel(f)
    assert is_isomorphic(h0, target)


def test_cone_triangle_maps_commute(A1):
    rng = np.random.default_rng(6)
    x = random_two_term_complex(A1, rng)
    y = random_two_term_complex(A1, rng)
    basis = hom_k(x, y, 0).basis
    if not basis:
        pytest.skip("no chain maps in this sample")
    f = basis[0]
    cn, incl, proj = cone(f)
    # incl then proj vanishes
    assert proj.compose(incl).is_zero()


def test_brutal_truncation_splits_degreewise(A1):
    rng = np.random.default_rng(7)
    c = random_three_term_complex(A1, rng)
    for m in (0, 1, 2, 3):
        hipart = brutal_truncate_geq(c, m)
        lopart = brutal_truncate_lt(c, m)
        for i in c.degrees():
            assert (
                hipart.term(i).total_dim() + lopart.term(i).total_dim()
                == c.term(i).total_dim()
            )


def test_brutal_truncation_trivial_cases(A1):
    rng = np.random.default_rng(8)
    c = random_two_term_complex(A1, rng)
    assert brutal_truncate_geq(c, c.lo - 5).terms == c.terms
    assert brutal_truncate_geq(c, c.hi + 1).is_zero()
    assert brutal_truncate_lt(c, c.hi + 5).terms == c.terms


def test_good_truncation_of_resolution(A1):
    rng = np.random.default_rng(9)
    m = random_module(A1, rng)
    res, eps = projective_resolution(module_complex(m), -5)
    c = res.to_complex()
    # the tree algebra has finite global dimension, so the resolution is
    # exact in all negative degrees and good truncation recovers m
    t, wit = good_truncate_geq0(c)
    assert t.lo >= 0
    assert is_quasi_iso(wit)
    assert is_isomorphic(t.term(0), m)


def test_good_truncation_rejects_negative_homology(A1):
    c = shift(module_complex(simple(A1, "1")), 1)  # concentrated in degree -1
    with pytest.raises(ValueError):
        good_truncate_geq0(c)


def test_good_truncation_noop_in_nonnegative_degrees(A1):
    rng = np.random.default_rng(10)
    c = random_two_term_complex(A1, rng)
    t, wit = good_truncate_geq0(c)
    assert t.terms.keys() == c.terms.keys()


def test_hom_k_identity_class(A1):
    rng = np.random.default_rng(11)
    c = random_two_term_complex(A1, rng)
    hk = hom_k(c, c, 0)
    ident = ChainMap(c, c, {i: identity_hom(c.terms[i]) for i in c.terms})
    assert hk.dim >= 1
    assert hk.coordinates(ident).any()


def test_coordinates_of_a_non_cycle_raise_value_error(A1):
    # the identity on the source term alone does not commute with d
    c = two_term_projective(A1)
    half = ChainMap(c, c, {0: identity_hom(c.terms[0])}, check=False)
    with pytest.raises(ValueError, match="not a cycle"):
        hom_k(c, c, 0).coordinates(half)


def test_hom_k_projective_stalks(A1):
    c = module_complex(projective(A1, "1"))
    for n in (-2, -1, 1, 2):
        assert hom_k_dim(c, c, n) == 0
    assert hom_k_dim(c, c, 0) == 1


def test_hom_complex_euler_characteristic(A1):
    rng = np.random.default_rng(12)
    c = random_two_term_complex(A1, rng)
    d = random_two_term_complex(A1, rng)
    dims, bnds = hom_complex(c, d)
    # Euler characteristic of the total Hom complex equals the alternating
    # sum of homotopy-class dimensions
    lo, hi = min(dims), max(dims)
    euler_spaces = sum((-1) ** (m - lo) * dims.get(m, 0) for m in range(lo, hi + 1))
    euler_classes = sum(
        (-1) ** (m - lo) * hom_k_dim(c, d, m) for m in range(lo - 1, hi + 2)
    )
    assert euler_spaces == euler_classes


def test_projective_resolution_of_projective_stalk(A1):
    c = module_complex(projective(A1, "3"))
    res, eps = projective_resolution(c, -4)
    assert res.to_complex().total_dim() == c.total_dim()
    assert is_quasi_iso(eps)


def test_projective_resolution_of_projective_complex(A1):
    c = two_term_projective(A1)
    res, eps = projective_resolution(c, -4)
    assert sorted(res.terms) == [0, 1]
    assert res.to_complex().total_dim() == c.total_dim()
    assert is_quasi_iso(eps)


def test_projective_resolution_quasi_iso_range(A1, Lam1):
    rng = np.random.default_rng(13)
    for alg in (A1, Lam1):
        m = random_module(alg, rng)
        if m.is_zero():
            continue
        c = module_complex(m)
        wl = -4
        res, eps = projective_resolution(c, wl)
        rc = res.to_complex()
        for i in range(wl + 1, 2):
            hx = homology(rc, i)
            hy = homology(c, i)
            assert hx.dims == hy.dims or is_isomorphic(hx, hy)
        # comparison map is a quasi-isomorphism in trusted degrees
        assert homology(rc, 0).total_dim() == m.total_dim()


def test_resolution_window_independence(A1):
    rng = np.random.default_rng(14)
    m, n = random_module(A1, rng), random_module(A1, rng)
    c, d = module_complex(m), module_complex(n)
    for i in range(3):
        wl = d.lo + i - 2
        res1, _ = projective_resolution(c, wl)
        res2, _ = projective_resolution(c, wl - 2)
        assert hom_k_dim(res1.to_complex(), d, i) == hom_k_dim(res2.to_complex(), d, i)


def test_hom_d_matches_ext(A1, Lam1):
    rng = np.random.default_rng(15)
    for alg in (A1, Lam1):
        for _ in range(3):
            m, n = random_module(alg, rng), random_module(alg, rng)
            for i in range(3):
                assert hom_d_dim(module_complex(m), module_complex(n), i) == ext(m, n, i)


def test_hom_d_projective_source(A1):
    P = module_complex(projective(A1, "1"))
    m = module_complex(simple(A1, "0"))
    assert hom_d_dim(P, m, 0) == len(hom_space(P.term(0), m.term(0)))
    for n in (1, 2, -1):
        assert hom_d_dim(P, m, n) == 0


def test_localization_stalk_case(A1):
    rng = np.random.default_rng(16)
    m = random_module(A1, rng)
    c = module_complex(m)
    for n in (-2, -1, 0):
        rep = localization_compare(c, c, n)
        assert rep.hypothesis_ok
        assert rep.isomorphism()
    rep = localization_compare(c, c, 1)
    assert rep.injective()


def test_localization_projective_complex_all_shifts(A1):
    x = two_term_projective(A1)
    rng = np.random.default_rng(17)
    y = random_two_term_complex(A1, rng)
    for n in range(-3, 4):
        rep = localization_compare(x, y, n)
        assert rep.hypothesis_ok
        assert rep.isomorphism()


def test_cone_acyclic_iff_quasi_iso(A1):
    rng = np.random.default_rng(18)
    seen = 0
    for _ in range(6):
        x = random_two_term_complex(A1, rng)
        y = random_two_term_complex(A1, rng)
        for f in hom_k(x, y, 0).basis[:2]:
            cn, _, _ = cone(f)
            assert is_acyclic(cn) == is_quasi_iso(f)
            seen += 1
    assert seen > 0


def test_identity_is_quasi_iso(A1):
    rng = np.random.default_rng(19)
    c = random_three_term_complex(A1, rng)
    assert is_quasi_iso(identity_chain_map(c))


def test_homology_dims_helper(A1):
    c = two_term_projective(A1)
    hd = homology_dims(c)
    assert hd == {1: 2}  # the cokernel of the embedding sits in degree 1


def test_resolution_of_simple_over_dual_numbers(keps):
    from quivhom.modules import simple

    k = simple(keps, "0")
    res, eps = projective_resolution(module_complex(k), -3)
    # the periodic chain: one copy of the regular module per degree
    assert sorted(res.terms) == [-3, -2, -1, 0]
    for i in res.terms:
        assert res.terms[i].vertices == ("0",)
    assert is_quasi_iso_in_range(res, k)


def is_quasi_iso_in_range(res, k):
    c = res.to_complex()
    return homology(c, 0).total_dim() == 1 and all(
        homology(c, i).is_zero() for i in (-1, -2)
    )


def test_localization_flags_hypothesis_violation(A1):
    # a simple concentrated in degree 1 against a simple it extends:
    # the perpendicularity hypothesis fails and the comparison may too
    from quivhom.modules import simple

    xc = shift(module_complex(simple(A1, "1")), -1)
    yc = module_complex(simple(A1, "0"))
    rep = localization_compare(xc, yc, 0)
    assert not rep.hypothesis_ok
    assert rep.hom_k_dim == 0 and rep.hom_d_dim == 1



def test_chain_maps_check_and_compose_with_their_shift(A1):
    """`ChainMap(..., n=n)` checks f^(i+1) d = (-1)^n d f^i.  The identity
    components are a chain map c -> (c[-n])[n] at odd n, and fail once one
    component is negated; composing the two identities gives the identity
    of c at shift 0.  Every class of Hom_K(x, y[n]) passes the check at its
    own shift, and g o f, built by `compose`, at the sum of the shifts."""
    c = two_term_projective(A1)
    ident = {i: identity_hom(c.terms[i]) for i in c.terms}
    for n in (-1, 1):
        y = shift(c, -n)
        f = ChainMap(c, y, ident, n=n)
        with pytest.raises(ValueError, match="fails to commute"):
            ChainMap(c, y, {0: ident[0], 1: ident[1].scale(-1)}, n=n)
        back = ChainMap(y, c, {i + n: g for i, g in ident.items()}, n=-n)
        h = back.compose(f)
        assert h.n == 0 and all(h.map(i).mats == ident[i].mats for i in c.terms)
        ChainMap(c, c, h.maps)
    rng = np.random.default_rng(21)
    composed = 0
    for _ in range(6):
        x = random_two_term_complex(A1, rng)
        y = random_three_term_complex(A1, rng)
        for n in (-1, 0, 1):
            for f in hom_k(x, y, n).basis:
                ChainMap(x, y, f.maps, n=n)
                for m in (-1, 0, 1):
                    for g in hom_k(y, x, m).basis:
                        h = g.compose(f)
                        assert h.n == n + m
                        ChainMap(x, x, h.maps, n=n + m)
                        composed += 1
    assert composed


def same_complex(a, b):
    return (
        {i: t.dims for i, t in a.terms.items()} == {i: t.dims for i, t in b.terms.items()}
        and {i: d.mats for i, d in a.diffs.items()} == {i: d.mats for i, d in b.diffs.items()}
    )


def same_map(f, g):
    return same_complex(f.source, g.source) and same_complex(f.target, g.target) and (
        {i: h.mats for i, h in f.maps.items()} == {i: h.mats for i, h in g.maps.items()}
    )


def test_cone_of_a_shifted_map_is_the_cone_into_the_shifted_target(A1):
    """A map x -> y[n] has the cone of its components read as a shift-0
    map into y[n].  Over corpus-1 B, the class S_0 -> (S_0 in degree 1)[1]
    is an isomorphism, so a quasi-isomorphism; and for Hom_K classes at
    n = +-1, +-2 the cone and both its maps equal, entry for entry, those
    of the rewrapped map."""
    s0 = simple(corpus(1).B, "0")
    x, y = module_complex(s0), shift(module_complex(s0), -1)
    (f,) = hom_k(x, y, 1).basis
    assert is_quasi_iso(f)
    cn, incl, proj = cone(f)
    assert is_acyclic(cn) and cn.total_dim() == 2 and same_complex(incl.source, shift(y, 1))
    rng = np.random.default_rng(22)
    compared = 0
    for _ in range(6):
        x = random_two_term_complex(A1, rng)
        y = random_three_term_complex(A1, rng)
        for n in (-2, -1, 1, 2):
            for f in hom_k(x, y, n).basis:
                got = cone(f)
                want = cone(ChainMap(x, shift(y, n), f.maps))
                assert same_complex(got[0], want[0])
                assert same_map(got[1], want[1]) and same_map(got[2], want[2])
                compared += 1
    assert compared
