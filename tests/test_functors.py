import numpy as np
import pytest

from quivhom import projcplx
from quivhom.algebra import Quiver, linear_algebra_An
from quivhom.complexes import (
    cone,
    homology,
    homology_dims,
    hom_k,
    is_quasi_iso,
)
from quivhom.corpus import Corpus, corpus
from quivhom.functors import (
    FunctorData,
    TiltingCandidate,
    _count_paths,
    apply_to_map,
    apply_to_module,
    apply_to_projective_complex,
    check_tilting,
    compose,
    endomorphism_presentation,
    identity_functor,
    is_non_negative,
    lift_to_resolutions,
    perturb_functor_data,
    shift_functor,
)
from quivhom.homological import _end_radical, find_strict_iso, is_isomorphic, minimal_resolution
from quivhom.exactlin import Matrix, column_space_basis, rank
from quivhom.modules import ProjSummands, RepHom, hom_to_element_matrix, identity_hom, projective, radical, simple, top
from quivhom.projcplx import ProjChainMap, ProjComplex, _add_block, identity_proj_chain_map, minimize, recognize
from quivhom.stable import stable_iso
from tests.conftest import proj_direct_sum, random_module, split_proj_complex


@pytest.fixture(scope="module")
def C1():
    return corpus(1)


def proj_stalk(alg, v, deg=0):
    return ProjComplex(alg, {deg: ProjSummands(alg, [v])}, {}, check=False)


def test_identity_data_is_non_negative(A1):
    rep = is_non_negative(identity_functor(A1), depth=4)
    assert rep.ok and rep.details == {}


def test_negative_degree_image_rejected(A1):
    images = {
        v: proj_stalk(A1, v, -1 if v == "1" else 0) for v in A1.quiver.vertices
    }
    arrow_maps = {}
    for n, s, t in A1.quiver.arrows:
        deg = -1 if "1" in (s, t) else 0
        # only endpoints matter for this test; maps to/from the shifted
        # image cannot exist in matching degrees, so use empty data
        arrow_maps[n] = ProjChainMap(images[t], images[s], {})
    f = FunctorData(A1, A1, images, arrow_maps)
    rep = is_non_negative(f, depth=2)
    assert not rep.ok
    assert rep.details == {("degrees", "1"): -1}


def test_strict_relation_enforced(Lam1):
    # sending the square-zero loop to the identity violates its relation
    # strictly and must be rejected at construction
    images = {v: proj_stalk(Lam1, v) for v in Lam1.quiver.vertices}
    arrow_maps = {}
    for n, s, t in Lam1.quiver.arrows:
        arrow_maps[n] = ProjChainMap(images[t], images[s], {0: [[Lam1.arrow(n)]]})
    FunctorData(Lam1, Lam1, images, arrow_maps)  # identity data is strict
    bad = dict(arrow_maps)
    bad["eps_0"] = ProjChainMap(images["0"], images["0"], {0: [[Lam1.e("0")]]})
    with pytest.raises(ValueError):
        FunctorData(Lam1, Lam1, images, bad)


def zero_eps_data(c):
    """Corpus F with every eps_v arrow map set to zero: strict, and made of
    chain maps, so it loads, but it is not non-negative."""
    f = c.F
    arrow_maps = {n: ProjChainMap(m.source, m.target, {}) if n.startswith("eps_") else m for n, m in f.arrow_maps.items()}
    return FunctorData(f.source, f.target, f.images, arrow_maps)


def planted_non_chain_map():
    """Linear A_3 with image(0) = (P_1 --b0--> P_0) and b0 sent to the
    identity of P_1 in degree 0, which does not commute with that d."""
    alg = linear_algebra_An(3)
    images = {
        "0": ProjComplex(alg, {0: ProjSummands(alg, ["1"]), 1: ProjSummands(alg, ["0"])}, {0: [[alg.arrow("b0")]]}),
        "1": proj_stalk(alg, "1"),
        "2": proj_stalk(alg, "2"),
    }
    arrow_maps = {
        "b0": ProjChainMap(images["1"], images["0"], {0: [[alg.e("1")]]}),
        "b1": ProjChainMap(images["2"], images["1"], {0: [[alg.arrow("b1")]]}),
    }
    return FunctorData(alg, alg, images, arrow_maps)


def test_an_arrow_map_that_is_not_a_chain_map_is_rejected():
    """The planted data has the right endpoints and no relations to break,
    and is rejected at construction."""
    with pytest.raises(ValueError, match=r"^arrow map b0 is not a chain map at degree 0$"):
        planted_non_chain_map()


@pytest.mark.parametrize("n", [1, 2])
def test_the_package_functor_data_passes_the_chain_map_check(n):
    c = corpus(n)
    data = [c.F, c.G, c.F_BA, c.G_AB, shift_functor(c.Lam, 2), compose(c.F, c.G), compose(c.G_AB, c.F_BA)]
    data += [compose(c.F, shift_functor(c.Lam, 1)), perturb_functor_data(c.F, seed=2)[0], zero_eps_data(c)]
    for f in data:
        FunctorData(f.source, f.target, f.images, f.arrow_maps)


def test_corpus_images_match_expected_shapes(C1):
    f = C1.F_BA
    assert f.images["1"].signature() == ((1, ("1",)),)
    assert f.images["3"].signature() == ((1, ("3",)),)
    assert f.images["0"].signature() == ((0, ("0",)), (1, ("1",)))
    assert f.images["2"].signature() == ((0, ("2",)), (1, ("3",)))


def test_apply_on_projective_stalks(C1):
    f = C1.F_BA
    img = apply_to_projective_complex(f, proj_stalk(C1.B, "1"))
    assert img.signature() == ((1, ("1",)),)
    img = apply_to_projective_complex(f, proj_stalk(C1.B, "0"))
    assert img.signature() == ((0, ("0",)), (1, ("1",)))


def test_apply_to_module_identity(A1):
    rng = np.random.default_rng(31)
    idf = identity_functor(A1)
    m = random_module(A1, rng)
    img = apply_to_module(idf, m, -4)
    hd = homology_dims(img.to_complex())
    assert hd.get(0, 0) == m.total_dim()
    assert all(i < -3 for i in hd if i != 0)


def test_apply_to_zero_module(A1):
    from quivhom.modules import zero_rep

    idf = identity_functor(A1)
    img = apply_to_module(idf, zero_rep(A1), -3)
    assert not img.terms


def test_apply_dual_numbers_projective(C1):
    # the image of the extension projective at an even vertex is
    # quasi-isomorphic to the two-term complex of extension projectives
    f = C1.F
    img = apply_to_module(f, projective(C1.Gam, "0"), -4)
    mn, _, _ = minimize(img)
    assert mn.signature() == ((0, ("0",)), (1, ("1",)))


def test_uniform_boundedness(C1):
    rng = np.random.default_rng(33)
    f = C1.F_BA
    for _ in range(4):
        m = random_module(C1.B, rng)
        if m.is_zero():
            continue
        img = apply_to_module(f, m, -3)
        hd = homology_dims(img.to_complex())
        trusted = [i for i in hd if i >= -3 + f.width + 1]
        assert all(-0 <= i <= f.width for i in trusted if i >= 0) and all(
            i <= f.width for i in trusted
        )


def test_functor_sends_cones_to_cones(C1):
    rng = np.random.default_rng(34)
    f = C1.F_BA
    x = proj_stalk(C1.B, "2")
    y = proj_stalk(C1.B, "0")
    hk = hom_k(x.to_complex(), y.to_complex(), 0)
    assert hk.basis, "maps between these projectives must exist"
    b = hk.basis[0]
    cn = recognize(cone(b)[0])
    img_of_cone, _, _ = minimize(apply_to_projective_complex(f, cn))
    # cone of the applied map
    from quivhom.functors import apply_to_proj_chain_map

    emat = hom_to_element_matrix(C1.B, b.map(0), x.summands(0), y.summands(0))
    mu = ProjChainMap(x, y, {0: emat})
    fmap = apply_to_proj_chain_map(f, mu)
    cone_of_img = recognize(cone(fmap.to_chain_map())[0])
    cone_of_img, _, _ = minimize(cone_of_img)
    assert img_of_cone.signature() == cone_of_img.signature()
    assert find_strict_iso(img_of_cone.to_complex(), cone_of_img.to_complex(), 0) is not None


def test_apply_to_map_radical_inclusion(C1):
    # cone of the image of rad P_v -> P_v matches the image of the top
    f = C1.F_BA
    balg = C1.B
    P = projective(balg, "1")
    r, incl = radical(P)
    t, _ = top(P)
    lam = apply_to_map(f, incl, -4)
    cn = recognize(cone(lam.to_chain_map())[0])
    img_top = apply_to_module(f, t, -4)
    ch, ct = cn.to_complex(), img_top.to_complex()
    for i in range(-2, f.width + 1):
        hx, hy = homology(ch, i), homology(ct, i)
        assert hx.dims == hy.dims or is_isomorphic(hx, hy)


def test_lift_of_a_non_module_map_raises_value_error(A1):
    # top of S_1 onto top of P_1: the arrow a1 acts by zero on S_1 but
    # not on P_1, so no chain map of resolutions lifts it
    s, P = simple(A1, "1"), projective(A1, "1")
    phi = RepHom(s, P, {"1": Matrix(A1.p, [[1]])}, check=False)
    assert not phi.verify()
    with pytest.raises(ValueError, match="comparison lift failed"):
        lift_to_resolutions(phi, -2)


def test_compose_with_identity(C1):
    f = C1.F_BA
    idb = identity_functor(C1.B)
    ida = identity_functor(C1.A)
    left = compose(idb, f)
    right = compose(f, ida)
    for v in C1.B.quiver.vertices:
        assert minimize(left.images[v])[0].signature() == minimize(f.images[v])[0].signature()
        assert minimize(right.images[v])[0].signature() == minimize(f.images[v])[0].signature()


def test_compose_widths(C1):
    fg = compose(C1.F, C1.G)
    assert fg.width <= C1.F.width + C1.G.width
    assert is_non_negative(fg, depth=3).ok


def test_shift_functor_square(A1):
    om1 = shift_functor(A1, 1)
    om2 = compose(om1, om1)
    rng = np.random.default_rng(36)
    m = random_module(A1, rng)
    from quivhom.homological import syzygy
    from quivhom.stable import stable_image

    M, _ = stable_image(om2, m)
    assert stable_iso(M, syzygy(m, 2))


def test_check_tilting_regular(A1):
    cand = TiltingCandidate(A1, [proj_stalk(A1, v) for v in A1.quiver.vertices])
    rep = check_tilting(cand, search_depth=1)
    assert rep.self_orthogonal
    assert rep.generates == "yes"
    assert rep.rounds == 0


def test_a_tilting_candidate_needs_a_summand(A1):
    # the empty candidate used to die with an IndexError in its direct sum
    with pytest.raises(ValueError, match="at least one summand"):
        TiltingCandidate(A1, [])


def test_check_tilting_single_summand_unknown(A1):
    cand = TiltingCandidate(A1, [proj_stalk(A1, "1")])
    rep = check_tilting(cand, search_depth=2)
    assert rep.self_orthogonal
    assert rep.generates == "unknown"


def test_endo_presentation_of_regular(A1):
    cand = TiltingCandidate(A1, [proj_stalk(A1, v) for v in A1.quiver.vertices])
    pres = endomorphism_presentation(cand)
    assert pres.dim == A1.dim
    assert pres.multiplicities == [1, 1, 1, 1]
    arrows = sorted((s, t) for _, s, t in pres.quiver.arrows)
    # summand k is the projective at vertex k, so the presentation quiver
    # must be the original one
    assert arrows == [("1", "0"), ("1", "3"), ("3", "2")]
    assert pres.relation_count == 1


def test_homotopy_iso_test_lets_a_failed_check_through(A1, monkeypatch):
    """A runtime check that raises inside the isomorphism search is a bug
    to report, not a "not homotopy-isomorphic" verdict (which would
    miscount the multiplicities of endomorphism_presentation)."""

    def broken_check(f):
        raise ValueError("runtime check failed")

    x = proj_stalk(A1, "1")
    assert find_strict_iso(x.to_complex(), x.to_complex(), 0) is not None
    monkeypatch.setattr(RepHom, "is_iso", broken_check)
    with pytest.raises(ValueError, match="runtime check failed"):
        find_strict_iso(x.to_complex(), x.to_complex(), 0)
    with pytest.raises(ValueError, match="runtime check failed"):
        endomorphism_presentation(TiltingCandidate(A1, [x, x]))


def test_endo_presentation_local_summand(A1):
    cand = TiltingCandidate(A1, [proj_stalk(A1, "0")])
    pres = endomorphism_presentation(cand)
    assert pres.dim == 1
    assert len(pres.quiver.vertices) == 1
    assert len(pres.quiver.arrows) == 0


def test_tilting_summands_have_no_positive_homology(C1):
    # images of the regular module under the equivalence have vanishing
    # homology in positive degrees
    from quivhom.complexes import homology

    for s in C1.tilting.summands:
        c = s.to_complex()
        for i in range(1, 3):
            assert homology(c, i).is_zero()


def test_hom_classes_match_base_algebra(C1):
    # faithfulness spot check: graded Homs between the images equal the
    # Homs between the corresponding projectives of the linear algebra
    f = C1.F_BA
    for v in ("0", "1", "3"):
        for w in ("0", "2"):
            lhs = hom_k(
                f.images[v].to_complex(), f.images[w].to_complex(), 0
            ).dim
            rhs = len(
                __import__("quivhom.modules", fromlist=["hom_space"]).hom_space(
                    projective(C1.B, v), projective(C1.B, w)
                )
            )
            assert lhs == rhs
            for n in (-1, 1):
                assert hom_k(f.images[v].to_complex(), f.images[w].to_complex(), n).dim == 0


def test_split_proj_complex(A1):
    x = proj_stalk(A1, "1")
    y = ProjComplex(
        A1,
        {0: ProjSummands(A1, ["0"]), 1: ProjSummands(A1, ["3"])},
        {0: [[{}]]},
        check=False,
    )
    pieces = split_proj_complex(proj_direct_sum([x, y]), seed=3)
    sigs = sorted(p.signature() for p in pieces)
    assert sigs == [((0, ("0",)),), ((0, ("1",)),), ((1, ("3",)),)]


def test_strict_chain_automorphism_raises_when_every_draw_is_singular(C1, monkeypatch):
    """The automorphisms come from `find_strict_iso` of each image with
    itself: none is the identity and psi o psi^-1 = psi^-1 o psi = id, and
    the perturbed arrow maps differ from the old ones.  With every
    candidate singular the search finds none, and `perturb_functor_data`
    raises instead of returning unperturbed data."""
    from quivhom import modules
    from quivhom.functors import strict_chain_automorphism

    rng = np.random.default_rng(0)
    for img in C1.F.images.values():
        psi, psi_inv = strict_chain_automorphism(img, rng)
        ident = identity_proj_chain_map(img).comps
        assert psi.compose(psi_inv).comps == ident and psi_inv.compose(psi).comps == ident
        assert psi.comps != ident
    f2, _ = perturb_functor_data(C1.F, seed=0)
    assert any(f2.arrow_maps[n].comps != m.comps for n, m in C1.F.arrow_maps.items())
    monkeypatch.setattr(modules.RepHom, "is_iso", lambda self: False)
    with pytest.raises(ValueError, match=r"^no strict chain automorphism found$"):
        perturb_functor_data(C1.F, seed=0)


def test_non_negativity_needs_a_degree_to_check(C1):
    """The zero-eps data is refuted at depths 1 and 8; a depth below 1
    checks no degree, so it raises instead of certifying."""
    f0 = zero_eps_data(C1)
    assert not is_non_negative(f0, 1) and not is_non_negative(f0, 8)
    for depth in (0, -3):
        with pytest.raises(ValueError, match=r"^depth must be >= 1$"):
            is_non_negative(f0, depth)


def test_a_window_above_zero_is_rejected(A1):
    """A resolution window above degree 0 holds nothing: applying or
    lifting there raises instead of returning an empty complex or map."""
    f, x = identity_functor(A1), simple(A1, "0")
    assert apply_to_module(f, x, 0).terms
    for call in (lambda: apply_to_module(f, x, 1), lambda: lift_to_resolutions(identity_hom(x), 1)):
        with pytest.raises(ValueError, match=r"^window_lo must be <= 0$"):
            call()


def test_functor_data_names_a_missing_image_or_arrow_map(C1):
    """In the words of `io`."""
    with pytest.raises(ValueError, match=r"^missing image of vertex 0$"):
        FunctorData(C1.B, C1.A, {}, {})
    f = C1.F_BA
    without_b0 = {n: m for n, m in f.arrow_maps.items() if n != "b0"}
    with pytest.raises(ValueError, match=r"^missing map of arrow b0$"):
        FunctorData(f.source, f.target, f.images, without_b0)


# -- the old tilting constructions, kept as references -------------------


def old_proj_cone(x, y, n, b):
    """Cone of a chain map x -> y[n], at the element-matrix level."""
    alg = x.algebra
    sign = 1 if n % 2 == 0 else -1
    # y[n] at the element level: degrees move down by n, differentials pick up the sign
    ysh_dmats = {i - n: [[alg.smul(sign, e) for e in row] for row in d] for i, d in y.dmats.items()}
    ysh = ProjComplex(alg, {i - n: t for i, t in y.terms.items()}, ysh_dmats, check=False)
    comps = {}
    for i in range(x.lo, x.hi + 1):
        src_ps = x.summands(i)
        tgt_ps = ysh.summands(i)
        if not len(src_ps.vertices) or not len(tgt_ps.vertices):
            continue
        comps[i] = hom_to_element_matrix(alg, b.map(i), src_ps, tgt_ps)
    terms = {}
    dmats = {}
    for i in range(min(x.lo - 1, ysh.lo), max(x.hi, ysh.hi) + 1):
        verts = list(x.summands(i + 1).vertices) + list(ysh.summands(i).vertices)
        if verts:
            terms[i] = ProjSummands(alg, verts)
    for i in terms:
        if i + 1 not in terms:
            continue
        nx, ny = len(x.summands(i + 1).vertices), len(ysh.summands(i).vertices)
        mx, my = len(x.summands(i + 2).vertices), len(ysh.summands(i + 1).vertices)
        shape = (mx + my, nx + ny)
        _add_block(alg, dmats, i, shape, (0, 0), x.dmats.get(i + 1, ()), -1)
        _add_block(alg, dmats, i, shape, (mx, 0), comps.get(i + 1, ()), sign)
        _add_block(alg, dmats, i, shape, (mx, nx), ysh.dmats.get(i, ()))
    return ProjComplex(alg, terms, dmats)


def old_proj_complexes_homotopy_iso(x, y, seed=0):
    """Whether one of 20 random combinations of the hom_k(x, y, 0) class
    basis is a quasi-isomorphism."""
    hk = hom_k(x.to_complex(), y.to_complex(), 0)
    if not hk.dim:
        return False
    rng = np.random.default_rng(seed)
    for _ in range(20):
        if is_quasi_iso(hk.engine.map_of(0, hk.vectors @ rng.integers(0, x.algebra.p, size=hk.dim) % x.algebra.p)):
            return True
    return False


def old_endomorphism_presentation(t, seed=0):
    """Arrows as a basis of rad / rad^2 in each block, rad^2 from a loop
    over the products of block bases of the radical."""
    p = t.algebra.p
    reps, mult = [], []
    for s in t.summands:
        mn, _, _ = minimize(s)
        for idx, r in enumerate(reps):
            if r.signature() == mn.signature() and old_proj_complexes_homotopy_iso(r, mn, seed):
                mult[idx] += 1
                break
        else:
            reps.append(mn)
            mult.append(1)
    r = len(reps)
    cxs = [x.to_complex() for x in reps]
    hk = {}
    basis_index = []
    for u in range(r):
        for v in range(r):
            hk[(u, v)] = hom_k(cxs[u], cxs[v], 0)
            basis_index += [(u, v, k) for k in range(hk[(u, v)].dim)]
    dim = len(basis_index)
    pos = {t3: i for i, t3 in enumerate(basis_index)}

    def as_vector(u, v, coords):
        vec = np.zeros(dim, dtype=np.int64)
        for k, cval in enumerate(coords):
            vec[pos[(u, v, k)]] = cval
        return vec

    sc = np.zeros((dim, dim, dim), dtype=np.int64)
    for i1, (u, v, k1) in enumerate(basis_index):
        for i2, (v2, w, k2) in enumerate(basis_index):
            if v2 == v:
                coords = hk[(u, w)].coordinates(hk[(v, w)].basis[k2].compose(hk[(u, v)].basis[k1]))
                sc[i1, i2] = as_vector(u, w, coords)
    radbasis = _end_radical(p, sc)
    rad_block = {}
    for u in range(r):
        for v in range(r):
            cols = []
            for k in range(radbasis.cols):
                blockvec = np.array([radbasis.data[pos[(u, v, k2)], k] for k2 in range(hk[(u, v)].dim)], dtype=np.int64)
                if blockvec.any():
                    cols.append(blockvec)
            if cols:
                rad_block[(u, v)] = column_space_basis(Matrix(p, np.stack(cols, axis=1)))
    arrows = []
    for (u, v), bu in rad_block.items():
        sq_cols = []
        for w in range(r):
            if (u, w) in rad_block and (w, v) in rad_block:
                b1, b2 = rad_block[(u, w)], rad_block[(w, v)]
                for k1 in range(b1.cols):
                    for k2 in range(b2.cols):
                        x1 = as_vector(u, w, b1.data[:, k1])
                        x2 = as_vector(w, v, b2.data[:, k2])
                        prod = np.zeros(dim, dtype=np.int64)
                        for a in range(dim):
                            if x1[a]:
                                prod = (prod + x1[a] * (x2 @ sc[a] % p)) % p
                        sq_cols.append(np.array([prod[pos[(u, v, k)]] for k in range(hk[(u, v)].dim)], dtype=np.int64))
        count = bu.cols - rank(Matrix(p, np.stack(sq_cols, axis=1))) if sq_cols else bu.cols
        for _ in range(count):
            arrows.append((f"x{len(arrows)}", str(v), str(u)))
    quiver = Quiver([str(i) for i in range(r)], arrows)
    return dim, mult, quiver.arrows, max(0, _count_paths(quiver) - dim)


def regular_candidate(alg):
    return TiltingCandidate(alg, [proj_stalk(alg, v) for v in alg.quiver.vertices])


@pytest.mark.parametrize("p", [101, 103])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_endo_presentation_arrows_are_the_old_block_product_loop(n, p):
    """Arrows read off the ranks of the rad and rad^2 blocks match the old
    basis of rad / rad^2, block by block and in the same order, on the
    corpus tilting candidate and the regular candidates of A, B, Lam and
    Gam."""
    c = Corpus(n, p)
    cands = [c.tilting] + [regular_candidate(alg) for alg in (c.A, c.B, c.Lam, c.Gam)]
    for cand in cands:
        pres = endomorphism_presentation(cand)
        got = (pres.dim, pres.multiplicities, pres.quiver.arrows, pres.relation_count)
        assert got == old_endomorphism_presentation(cand)


def tilting_cone_inputs(C1, A1):
    """The corpus-1 tilting summands, the projective stalks of A1 and the
    minimal projective resolutions of its simples."""
    window = -4
    out = list(C1.tilting.summands) + [proj_stalk(A1, v) for v in A1.quiver.vertices]
    for v in A1.quiver.vertices:
        out.append(minimal_resolution(simple(A1, v), -window).proj_complex(window))
    return out


def test_tilting_cones_are_the_old_element_matrix_cones(C1):
    """`recognize(cone(b)[0])` and the old element-matrix cone have the
    same minimal model for every Hom_K class b : x -> y[n], |n| <= 2."""
    A1 = C1.A
    pcs = tilting_cone_inputs(C1, A1)
    seen = {}
    for x in pcs:
        for y in pcs:
            for n in range(-2, 3):
                for b in hom_k(x.to_complex(), y.to_complex(), n).basis:
                    new = minimize(recognize(cone(b)[0]))[0]
                    old = minimize(old_proj_cone(x, y, n, b))[0]
                    assert new.signature() == old.signature()
                    seen[n] = seen.get(n, 0) + 1
    # every class of these complexes sits at n >= 0
    assert set(seen) == {0, 1, 2}, seen


def _tilting_answers(c):
    rep = check_tilting(c.tilting)
    pres = endomorphism_presentation(c.tilting)
    return (
        (rep.self_orthogonal, rep.generates, rep.rounds, rep.failures),
        (pres.dim, pres.multiplicities, pres.quiver.arrows, pres.relation_count),
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tilting_reads_its_cones_without_covers_or_lifts(n, monkeypatch):
    """Every cone of the tilting check has shared sums for terms, so
    `recognize` reads its summands off their tags: with the cover and the
    lift of `projcplx` raising, a fresh corpus gives the same tilting
    report and endomorphism presentation as another fresh one."""
    expected = _tilting_answers(Corpus(n))
    c = Corpus(n)

    def refuse(*args):
        raise AssertionError("recognize took a cover or a lift")

    monkeypatch.setattr(projcplx, "projective_cover", refuse)
    monkeypatch.setattr(projcplx, "lift", refuse)
    assert _tilting_answers(c) == expected


def test_a_cone_and_its_proj_complex_are_one_object(C1):
    """`to_complex` and `recognize` find each other's view by lookup."""
    x, y = C1.tilting.summands[0], C1.tilting.summands[2]  # P_1 -> (P_0 -> P_1)
    (b,) = hom_k(x.to_complex(), y.to_complex(), 0).basis
    c = cone(b)[0]
    pc = recognize(c)
    assert recognize(c) is pc and pc.to_complex() is c
    assert recognize(pc.to_complex()) is pc
    mn = minimize(pc)[0]
    assert recognize(mn.to_complex()) is mn
