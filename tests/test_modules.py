import numpy as np
import pytest

from quivhom.exactlin import Matrix
from quivhom.homological import (
    decompose,
    dual,
    ext,
    is_isomorphic,
    minimal_resolution,
    projdim,
    strip_projectives,
    syzygy,
    transpose,
)
from quivhom.modules import (
    ProjSummands,
    Representation,
    direct_sum,
    element_matrix_to_hom,
    hom_space,
    hom_to_element_matrix,
    identity_hom,
    is_projective,
    is_ses,
    kernel,
    projective,
    projective_cover,
    radical,
    simple,
    top,
)
from quivhom.corpus import gentle_tree_algebra
from tests.conftest import random_module


def k_over_keps(keps):
    return simple(keps, "0")


def test_relation_check_at_construction(A1):
    with pytest.raises(ValueError):
        Representation(
            A1,
            {"1": 1, "3": 1, "2": 1},
            {"b1": Matrix(101, [[1]]), "a3": Matrix(101, [[1]])},
        )


def reference_evaluate(m, e):
    """The action of e as a sum of `path_matrix` terms, each path from an
    identity matrix, one `scale` and one `+` per term."""
    s, t = m.algebra.element_source_target(e)
    out = Matrix.zeros(m.p, m.dims[t], m.dims[s])
    for pth, c in e.items():
        out = out + m.path_matrix(pth).scale(c)
    return out


@pytest.mark.parametrize("which", ["A1", "Lam1", "Gam1", "keps"])
def test_evaluate_is_the_sum_of_path_matrices(which, A1, Lam1, Gam1, keps):
    alg = {"A1": A1, "Lam1": Lam1, "Gam1": Gam1, "keps": keps}[which]
    rng = np.random.default_rng(31)
    mods = [random_module(alg, rng, summands=3) for _ in range(3)] + [projective(alg, v) for v in alg.quiver.vertices]
    # every pair of vertices with parallel basis paths, each path with a
    # random coefficient (negative ones too), plus the relations
    elements = [r for r in alg.relations if r]
    for v in alg.quiver.vertices:
        by_target = {}
        for pth in alg.basis_by_source[v]:
            by_target.setdefault(alg.path_target(pth), []).append(pth)
        elements += [{pth: int(rng.integers(-alg.p, alg.p)) for pth in paths} for paths in by_target.values()]
    for m in mods:
        for e in elements:
            assert m.evaluate(e) == reference_evaluate(m, e), e


def test_projective_dims(A1, B1, Lam1):
    assert projective(A1, "1").dim_vector() == {"0": 1, "1": 1, "2": 0, "3": 1}
    assert projective(A1, "0").total_dim() == 1
    assert projective(B1, "0").dim_vector() == {"0": 1, "1": 1, "2": 1, "3": 1}
    assert projective(Lam1, "1").total_dim() == 6


def test_yoneda_dimension_formula(A1, Lam1):
    rng = np.random.default_rng(3)
    for alg in (A1, Lam1):
        m = random_module(alg, rng)
        for v in alg.quiver.vertices:
            assert len(hom_space(projective(alg, v), m)) == m.dims[v]


def test_hom_contains_identity(A1):
    m = projective(A1, "1")
    basis = hom_space(m, m)
    assert len(basis) == 1
    assert any(b.is_iso() for b in basis)


def test_hom_between_disjoint_simples(A1):
    assert hom_space(simple(A1, "1"), simple(A1, "0")) == []


def test_radical_of_simple_zero(A1):
    r, _ = radical(simple(A1, "1"))
    assert r.is_zero()


def test_radical_of_projective(A1):
    r, incl = radical(projective(A1, "1"))
    assert r.dim_vector() == {"0": 1, "1": 0, "2": 0, "3": 1}
    assert incl.verify()


def test_top_of_dual_numbers(keps):
    reg = projective(keps, "0")
    t, pi = top(reg)
    assert t.total_dim() == 1
    assert pi.verify()


def test_cover_of_simple_is_projective(A1):
    for v in A1.quiver.vertices:
        ps, epi = projective_cover(simple(A1, v))
        assert ps.vertices == (v,)
        assert epi.verify()


def test_cover_of_projective_is_iso(A1, Lam1):
    for alg in (A1, Lam1):
        m = projective(alg, "1")
        ps, epi = projective_cover(m)
        assert ps.rep().total_dim() == m.total_dim()
        assert epi.is_iso()


def test_cover_of_k_over_dual_numbers(keps):
    k = k_over_keps(keps)
    ps, epi = projective_cover(k)
    assert ps.rep().total_dim() == 2
    ker, _ = kernel(epi)
    assert ker.total_dim() == 1


def test_cover_minimality_random(A1, Lam1):
    rng = np.random.default_rng(5)
    for alg in (A1, Lam1):
        for _ in range(5):
            m = random_module(alg, rng)
            if m.is_zero():
                continue
            ps, epi = projective_cover(m)
            ker, incl = kernel(epi)
            r, rincl = radical(ps.rep())
            # kernel of a minimal cover sits inside rad P
            for v in alg.quiver.vertices:
                stacked = Matrix.hstack([rincl.mats[v], incl.mats[v]])
                from quivhom.exactlin import rank

                assert rank(stacked) == rank(rincl.mats[v])


def test_element_matrix_roundtrip(A1):
    # maps between projectives run against path direction:
    # Hom(P_v, P_w) = e_v A e_w = span of paths w -> v
    alg = A1
    src = ProjSummands(alg, ["0", "2"])
    tgt = ProjSummands(alg, ["1", "3"])
    emat = [
        [alg.arrow("a1"), {}],
        [{}, alg.arrow("a3")],
    ]
    f = element_matrix_to_hom(alg, emat, src, tgt)
    assert f.verify()
    back = hom_to_element_matrix(alg, f, src, tgt)
    assert back == emat


def test_element_matrix_compose_matches_hom_compose(A1):
    from quivhom.modules import emat_compose

    alg = A1
    a = ProjSummands(alg, ["2"])
    b = ProjSummands(alg, ["3"])
    c = ProjSummands(alg, ["1"])
    f = [[alg.arrow("a3")]]  # P_2 -> P_3
    g = [[alg.arrow("b1")]]  # P_3 -> P_1
    fh = element_matrix_to_hom(alg, f, a, b)
    gh = element_matrix_to_hom(alg, g, b, c)
    comp = gh.compose(fh)
    emat = emat_compose(alg, g, f)
    assert element_matrix_to_hom(alg, emat, a, c).flat().tolist() == comp.flat().tolist()
    # the composite is right multiplication by (b1 then a3), which the
    # relation kills
    assert comp.is_zero()


def test_syzygy_of_projective_vanishes(A1):
    assert syzygy(projective(A1, "1"), 1).is_zero()


def test_syzygy_periodicity_over_dual_numbers(keps):
    k = k_over_keps(keps)
    for j in (1, 2, 3, 5):
        s = syzygy(k, j)
        assert s.total_dim() == 1
        assert is_isomorphic(s, k)


def test_syzygy_strips_projectives(A1):
    # the radical of P_1 is P_0 + S_3, so the stripped first syzygy of S_1
    # is the simple at 3
    s = syzygy(simple(A1, "1"), 1)
    assert s.dim_vector() == {"0": 0, "1": 0, "2": 0, "3": 1}


def test_ext_vanishes_on_projectives(A1, keps):
    for alg, v in ((A1, "1"), (keps, "0")):
        P = projective(alg, v)
        m = simple(alg, alg.quiver.vertices[0])
        for i in (1, 2, 3):
            assert ext(P, m, i) == 0


def test_ext_simple_to_simple(A1):
    assert ext(simple(A1, "1"), simple(A1, "0"), 1) == 1


def test_ext_periodic_over_dual_numbers(keps):
    k = k_over_keps(keps)
    for i in range(6):
        assert ext(k, k, i) == 1


def test_ext_zero_degree_matches_hom(A1, Lam1):
    rng = np.random.default_rng(11)
    for alg in (A1, Lam1):
        for _ in range(4):
            m, n = random_module(alg, rng), random_module(alg, rng)
            assert ext(m, n, 0) == len(hom_space(m, n))


def test_ext_resolution_length_independent(A1):
    rng = np.random.default_rng(13)
    m, n = random_module(A1, rng), random_module(A1, rng)
    d1 = ext(m, n, 1)
    minimal_resolution(m, 6)  # force a longer resolution, recompute
    assert ext(m, n, 1) == d1


def test_transpose_of_projective_vanishes(A1):
    assert transpose(projective(A1, "1")).is_zero()


def test_transpose_of_k_over_dual_numbers(keps):
    tr = transpose(k_over_keps(keps))
    assert tr.total_dim() == 1  # the simple over the opposite algebra


def test_transpose_twice_recovers_simple(A1):
    s = simple(A1, "1")
    back = transpose(transpose(s))
    stripped, _ = strip_projectives(back)
    assert is_isomorphic(stripped, s)


def test_dual_of_simple_is_simple(A1):
    d = dual(simple(A1, "2"))
    assert d.total_dim() == 1
    assert d.algebra is A1.opposite()


def test_dual_involution(A1):
    rng = np.random.default_rng(17)
    m = random_module(A1, rng)
    dd = dual(dual(m))
    assert dd.dims == m.dims
    assert is_isomorphic(dd, m)


def test_dual_of_projective_is_injective_over_opposite(A1):
    # brute-force injectivity: Ext^1(S, D(P_v)) = 0 over the opposite
    # algebra for every simple S, and the socle is the simple at v
    op = A1.opposite()
    for v in A1.quiver.vertices:
        I = dual(projective(A1, v))
        for w in op.quiver.vertices:
            assert ext(simple(op, w), I, 1) == 0
        t, _ = top(dual(I))  # socle of I = top of its dual
        assert t.total_dim() == 1 and t.dims[v] == 1


def test_decompose_indecomposable(A1):
    [(piece, mult)] = decompose(projective(A1, "1"))
    assert mult == 1 and piece.total_dim() == 3


def test_decompose_two_copies(A1):
    two, _, _ = direct_sum([projective(A1, "1"), projective(A1, "1")])
    [(piece, mult)] = decompose(two)
    assert mult == 2
    assert is_isomorphic(piece, projective(A1, "1"))


def test_decompose_regular_module(A1):
    reg, _, _ = direct_sum([projective(A1, v) for v in A1.quiver.vertices])
    pieces = decompose(reg)
    assert sum(m for _, m in pieces) == 4
    assert sum(r.total_dim() * m for r, m in pieces) == A1.dim


def test_decompose_lambda_projective_indecomposable(Lam1):
    [(piece, mult)] = decompose(projective(Lam1, "1"))
    assert mult == 1 and piece.total_dim() == 6


def test_decompose_partition_dims_random(A1, Lam1):
    rng = np.random.default_rng(19)
    for alg in (A1, Lam1):
        for _ in range(3):
            m = random_module(alg, rng)
            pieces = decompose(m)
            assert sum(r.total_dim() * k for r, k in pieces) == m.total_dim()


def test_is_isomorphic_reflexive_random(Lam1):
    rng = np.random.default_rng(23)
    m = random_module(Lam1, rng)
    assert is_isomorphic(m, m)


def test_is_isomorphic_distinguishes_simples(A1):
    assert not is_isomorphic(simple(A1, "0"), simple(A1, "1"))


def test_strip_projectives(A1):
    m, _, _ = direct_sum([simple(A1, "3"), projective(A1, "1")])
    stripped, dropped = strip_projectives(m)
    assert stripped.total_dim() == 1
    assert len(dropped) == 1


def test_strip_projectives_counts_each_projective(A1, Lam1):
    for alg, v, w in ((A1, "1", "0"), (Lam1, "1", "3")):
        s, pv, pw = simple(alg, "3"), projective(alg, v), projective(alg, w)
        m, _, _ = direct_sum([pv, s, pw, pv])
        stripped, dropped = strip_projectives(m)
        assert is_isomorphic(stripped, s)
        want = (pv, pv, pw)
        assert sorted(sorted(d.dims.items()) for d in dropped) == sorted(sorted(d.dims.items()) for d in want)
        assert all(is_projective(d) for d in dropped)


def test_strip_projectives_agrees_with_decompose(A1, Lam1, keps):
    rng = np.random.default_rng(29)
    for alg in (A1, Lam1, keps):
        for _ in range(4):
            parts = [random_module(alg, rng), projective(alg, alg.quiver.vertices[0])]
            m, _, _ = direct_sum(parts)
            kept = [r for r, mult in decompose(m) for _ in range(mult) if not is_projective(r)]
            stripped, dropped = strip_projectives(m)
            assert sum(d.total_dim() for d in dropped) + stripped.total_dim() == m.total_dim()
            if kept:
                assert is_isomorphic(stripped, direct_sum(kept)[0])
            else:
                assert stripped.is_zero()


def test_syzygy_of_repeated_simple_small_prime():
    # dim End(S_1^3) = 9 >= p = 3, so no certified decomposition exists;
    # splitting off projective summands needs none
    alg = gentle_tree_algebra(1, p=3)
    s = simple(alg, "1")
    om = syzygy(s, 1)
    om3 = syzygy(direct_sum([s, s, s])[0], 1)
    assert is_isomorphic(om3, direct_sum([om, om, om])[0])


def test_is_projective(A1, keps):
    assert is_projective(projective(A1, "3"))
    assert not is_projective(simple(A1, "1"))
    assert not is_projective(simple(keps, "0"))


def test_projdim_values(A1, keps):
    assert projdim(projective(A1, "1"), 5) == 0
    assert projdim(simple(keps, "0"), 7) is None
    # the 2-term resolution P_0 -> P_1 covers the cone module of the tree
    # algebra: its cokernel has projective dimension 1
    from quivhom.modules import cokernel

    f = element_matrix_to_hom(
        A1, [[A1.arrow("a1")]], ProjSummands(A1, ["0"]), ProjSummands(A1, ["1"])
    )
    tau_inv, _ = cokernel(f)
    assert tau_inv.dim_vector() == {"0": 0, "1": 1, "2": 0, "3": 1}
    assert projdim(tau_inv, 5) == 1


def test_ses_detector(A1):
    P = projective(A1, "1")
    r, incl = radical(P)
    q, proj = top(P)
    assert is_ses(incl, proj)
    assert not is_ses(incl, identity_hom(P))


def test_syzygy_nonzero_over_selfinjective(keps):
    rng = np.random.default_rng(29)
    for _ in range(5):
        m = random_module(keps, rng)
        stripped, _ = strip_projectives(m)
        if stripped.is_zero():
            continue
        assert not syzygy(stripped, 1).is_zero()
