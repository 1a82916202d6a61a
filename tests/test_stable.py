import numpy as np
import pytest

from quivhom import complexes, stable
from quivhom.complexes import ChainMap, HomEngine, _block_hom, cone, direct_sum_complex, is_acyclic, is_quasi_iso, shift, total_cone
from quivhom.corpus import Corpus, corpus
from quivhom.exactlin import Matrix, solve
from quivhom.functors import (
    compose,
    conjugation_comparison,
    identity_functor,
    is_non_negative,
    perturb_functor_data,
)
from quivhom.gorenstein import is_gorenstein_projective
from quivhom.homological import strip_projectives, syzygy
from quivhom.modules import (
    cokernel,
    direct_sum,
    hom_frame,
    hom_space,
    identity_hom,
    is_projective,
    projective,
    projective_cover,
    radical,
    simple,
    top,
)
from quivhom.stable import (
    StableHom,
    _pipeline,
    exact_sequence_image,
    omega_functor,
    stable_hom,
    stable_image,
    stable_image_map,
    stable_iso,
)
from quivhom.projcplx import ProjComplex
from quivhom.modules import ProjSummands
from tests.conftest import random_module
from tests.test_functors import zero_eps_data


@pytest.fixture(scope="module")
def C1():
    return corpus(1)


def test_stable_hom_from_projective_vanishes(A1):
    rng = np.random.default_rng(41)
    y = random_module(A1, rng)
    sh = stable_hom(projective(A1, "1"), y)
    assert sh.dim == 0


def test_stable_end_of_simple_over_dual_numbers(keps):
    k = simple(keps, "0")
    assert stable_hom(k, k).dim == 1


def test_stable_end_nonzero_on_gp_family(C1):
    sp1 = C1.S_P[1]
    assert stable_hom(sp1, sp1).dim > 0


def test_stable_hom_space_builds_hom_x_y_only_when_read(C1, monkeypatch):
    x, y = next(
        (C1.M[a], C1.M[b]) for a in sorted(C1.M) for b in sorted(C1.M) if a != b and hom_space(C1.M[a], C1.M[b])
    )
    f = hom_space(x, y)[0]
    pairs = []

    def counting(a, b):
        pairs.append((a, b))
        return hom_frame(a, b)

    monkeypatch.setattr(stable, "hom_frame", counting)
    space = stable.StableHomSpace(x, y)
    space.factors_through_projective(f)
    space.spans(f.flat()[:, None], f.scale(2))
    space.equal(f, f)
    assert not [pr for pr in pairs if pr[0] is x and pr[1] is y]
    assert 0 <= space.dim <= len(space.basis)
    assert space.basis is space.basis  # read once, then cached
    assert len([pr for pr in pairs if pr[0] is x and pr[1] is y]) == 1


def test_stable_iso_absorbs_projectives(A1):
    rng = np.random.default_rng(42)
    x = random_module(A1, rng)
    padded, _, _ = direct_sum([x, projective(A1, "1")])
    assert stable_iso(x, padded)


def test_stable_iso_distinguishes_simples(A1):
    assert not stable_iso(simple(A1, "0"), simple(A1, "3"))


def test_stable_image_identity_functor(A1):
    rng = np.random.default_rng(43)
    idf = identity_functor(A1)
    x = random_module(A1, rng)
    M, tri = stable_image(idf, x)
    stripped, _ = strip_projectives(x)
    assert stable_iso(M, stripped)
    assert not tri.U.terms  # width zero: no positive part


def test_truncation_triangle_structure(C1):
    # every corpus-1 M(i, l) and P_1 of Gamma, under F and under F o G;
    # U, i, pi and mu are built on first read
    xs = [C1.M[key] for key in sorted(C1.M)] + [projective(C1.Gam, "1")]
    for f in (C1.F, compose(C1.F, C1.G)):
        for x in xs:
            M, tri = stable_image(f, x)
            # degreewise split: U (+) M[0] matches the model termwise
            assert min(tri.model.terms, default=0) >= 0
            assert tri.model.term(0).dims == M.dims
            for i in set(tri.model.terms) | set(tri.U.terms):
                if i >= 1:
                    assert tri.model.term(i).dims == tri.U.terms[i].dims
            # U sits in degrees >= 1 with projective terms
            assert all(i >= 1 for i in tri.U.terms)
            assert all(is_projective(t) for t in tri.U.terms.values())
            # the cone identification is a quasi-isomorphism, and pi is
            # one exactly when U is acyclic
            assert is_quasi_iso(tri.mu)
            assert is_quasi_iso(tri.pi) == is_acyclic(tri.U)


def test_pi_quasi_iso_iff_u_acyclic(A1, C1):
    idf = identity_functor(A1)
    rng = np.random.default_rng(44)
    x = random_module(A1, rng)
    _, tri = stable_image(idf, x)
    assert is_quasi_iso(tri.pi)  # U empty
    _, tri2 = stable_image(C1.F, C1.S_Q[1])
    u_acyclic = is_acyclic(tri2.U)
    assert is_quasi_iso(tri2.pi) == u_acyclic
    assert not u_acyclic


def test_stable_image_map_identity_class(C1):
    x = C1.M[(1, 2)]
    sh = stable_image_map(C1.F, identity_hom(x))
    assert not sh.is_zero()
    assert sh.is_stable_iso()


def test_stable_image_map_kills_projective_factors(C1):
    # a map factoring through a projective has vanishing stable class
    gam = C1.Gam
    x = C1.M[(1, 2)]
    y = C1.M[(0, 3)]
    P = projective(gam, "1")
    through = hom_space(x, P)
    out = hom_space(P, y)
    found = False
    for g in through:
        for h in out:
            phi = h.compose(g)
            if phi.is_zero():
                continue
            sh = stable_image_map(C1.F, phi)
            assert sh.is_zero()
            found = True
    assert found, "no nonzero factoring map in sample"


def test_stable_image_map_of_stable_iso_is_stable_iso(C1):
    # x -> x (+) P is an isomorphism in the stable category
    gam = C1.Gam
    x = C1.M[(2, 1)]
    padded, incls, _ = direct_sum([x, projective(gam, "0")])
    sh = stable_image_map(C1.F, incls[0])
    assert sh.is_stable_iso()


def test_omega_functor_matches_syzygy(A1, Lam1):
    rng = np.random.default_rng(45)
    for alg in (A1, Lam1):
        om = omega_functor(alg, 1)
        for _ in range(3):
            x = random_module(alg, rng)
            M, _ = stable_image(om, x)
            assert stable_iso(M, syzygy(x, 1))


def test_omega_squared(C1):
    om2 = omega_functor(C1.Gam, 2)
    x = C1.M[(0, 2)]
    M, _ = stable_image(om2, x)
    assert stable_iso(M, syzygy(x, 2))


def test_omega_commutation(C1):
    # image of the syzygy is stably the syzygy of the image
    for key in ((1, 2), (0, 3)):
        x = C1.M[key]
        left, _ = stable_image(C1.F, syzygy(x, 1))
        right = syzygy(stable_image(C1.F, x)[0], 1)
        assert stable_iso(left, right)


def test_inverse_composite_is_syzygy_sample(C1):
    fg = compose(C1.F, C1.G)
    for key in ((0, 1), (2, 2)):
        x = C1.M[key]
        M, _ = stable_image(fg, x)
        assert stable_iso(M, syzygy(x, 1))


def test_composition_against_iterated(C1):
    # compose(F, omega) computes the syzygy of the image
    om = omega_functor(C1.Lam, 1)
    fom = compose(C1.F, om)
    for key in ((1, 1), (0, 4)):
        x = C1.M[key]
        M1, _ = stable_image(fom, x)
        M2 = syzygy(stable_image(C1.F, x)[0], 1)
        assert stable_iso(M1, M2)


def test_exact_image_of_split_sequence(C1):
    gam = C1.Gam
    x = C1.M[(3, 1)]
    y = projective(gam, "2")
    tot, incls, projs = direct_sum([x, y])
    res = exact_sequence_image(C1.F, incls[0], projs[1])
    assert res.verify_exact()
    assert is_projective(res.P) and is_projective(res.Q)
    a_exp = stable_image_map(C1.F, incls[0])
    assert a_exp.space.equal(res.a_hom, a_exp.rep)


def test_exact_image_identity_functor(A1):
    idf = identity_functor(A1)
    P = projective(A1, "1")
    r, incl = radical(P)
    t, proj = top(P)
    res = exact_sequence_image(idf, incl, proj)
    assert res.verify_exact()
    a_exp = stable_image_map(idf, incl)
    u_exp = stable_image_map(idf, proj)
    assert a_exp.space.equal(res.a_hom, a_exp.rep)
    assert u_exp.space.equal(res.u_hom, u_exp.rep)


def test_exact_image_corpus_sequence(C1):
    incl, proj = C1.ses[(1, 2)]
    res = exact_sequence_image(C1.F, incl, proj)
    assert res.verify_exact()
    assert is_projective(res.P) and is_projective(res.Q)
    a_exp = stable_image_map(C1.F, incl)
    u_exp = stable_image_map(C1.F, proj)
    assert a_exp.space.equal(res.a_hom, a_exp.rep)
    assert u_exp.space.equal(res.u_hom, u_exp.rep)


def test_exact_image_rejects_non_exact(C1):
    x = C1.M[(1, 2)]
    with pytest.raises(ValueError):
        exact_sequence_image(C1.F, identity_hom(x), identity_hom(x))


def test_padded_strategy_gives_stably_equal_images(C1):
    # second resolution strategy: pad the minimal complex with a split
    # projective pair before truncating; M is the cokernel of d^{-1}
    x = C1.M[(0, 2)]
    pl = _pipeline(C1.F, x)
    lam = C1.Lam
    pad = ProjComplex(
        lam,
        {0: ProjSummands(lam, ["2"]), 1: ProjSummands(lam, ["2"])},
        {0: [[lam.e("2")]]},
    )
    padded = direct_sum_complex([pl.cmin.to_complex(), pad.to_complex()])
    M2, _ = cokernel(padded.diff(-1))
    assert M2.total_dim() == pl.M.total_dim() + projective(lam, "2").total_dim()
    assert stable_iso(M2, pl.M)


def test_perturbed_data_same_stable_images(C1):
    f2, psis = perturb_functor_data(C1.F, seed=5)
    for key in ((1, 3), (2, 1)):
        x = C1.M[key]
        M1, _ = stable_image(C1.F, x)
        M2, _ = stable_image(f2, x)
        assert stable_iso(M1, M2)


def test_perturbed_data_natural_comparison(C1):
    f1 = C1.F
    f2, psis = perturb_functor_data(f1, seed=7)
    x = C1.M[(1, 2)]
    y = C1.M[(0, 3)]
    # explicit comparison iso on the raw applied complexes
    xi_x = conjugation_comparison(f1, f2, psis, x)
    assert is_quasi_iso(xi_x.to_chain_map())
    # transport through the two minimizations and induce on cokernels
    from quivhom.exactlin import solve

    def eta(mod):
        xi = conjugation_comparison(f1, f2, psis, mod)
        p1 = _pipeline(f1, mod)
        p2 = _pipeline(f2, mod)
        comp = p1.mproj.compose(xi).compose(p2.minc)
        cm = comp.to_chain_map()
        mats = {}
        for v in C1.Lam.quiver.vertices:
            rhs = p1.pi0.mats[v] @ cm.map(0).mats[v]
            sol = solve(p2.pi0.mats[v].transpose(), rhs.transpose())
            assert sol is not None
            mats[v] = sol.transpose()
        from quivhom.modules import RepHom

        return RepHom(p2.M, p1.M, mats, check=False), p1, p2

    eta_x, p1x, p2x = eta(x)
    eta_y, p1y, p2y = eta(y)
    assert stable_hom(p2x.M, p1x.M).factors_through_projective(eta_x) is False
    for phi in hom_space(x, y)[:3]:
        b1 = stable_image_map(f1, phi)
        b2 = stable_image_map(f2, phi)
        lhs = b1.rep.compose(eta_x)
        rhs = eta_y.compose(b2.rep)
        assert stable_hom(p2x.M, p1y.M).equal(lhs, rhs)


def test_omega_cross_check_on_corpus_family(C1):
    om = omega_functor(C1.Gam, 1)
    for key in sorted(C1.M)[:5]:
        x = C1.M[key]
        M, _ = stable_image(om, x)
        assert stable_iso(M, syzygy(x, 1))


def test_iterated_stable_functors_give_syzygy_power(C1):
    # applying the functor and then its shifted quasi-inverse, stepwise,
    # is stably one syzygy on the GP family
    for key in ((0, 2), (1, 3), (3, 1)):
        x = C1.M[key]
        mid, _ = stable_image(C1.F, x)
        back, _ = stable_image(C1.G, mid)
        assert stable_iso(back, syzygy(x, 1))


def test_exact_image_with_wide_functor(C1):
    # a width-two composite gives a total cone reaching degree 3, whose
    # top V = ker d^2 is a kernel rather than the whole degree-2 term
    from quivhom.modules import is_projective

    f2 = compose(C1.F, omega_functor(C1.Lam, 1))
    incl, proj = C1.ses[(0, 2)]
    res = exact_sequence_image(f2, incl, proj)
    assert res.verify_exact()
    assert is_projective(res.P) and is_projective(res.Q)
    a_exp = stable_image_map(f2, incl)
    u_exp = stable_image_map(f2, proj)
    assert a_exp.space.equal(res.a_hom, a_exp.rep)
    assert u_exp.space.equal(res.u_hom, u_exp.rep)


def test_stable_image_of_zero_and_projective(C1):
    from quivhom.modules import zero_rep

    M0, _ = stable_image(C1.F, zero_rep(C1.Gam))
    assert M0.is_zero()
    Mp, _ = stable_image(C1.F, projective(C1.Gam, "1"))
    assert stable_iso(Mp, zero_rep(C1.Lam))


def test_exact_image_random_cover_sequences(C1):
    # transport of 0 -> syzygy -> cover -> x -> 0 for random modules
    from quivhom.modules import is_projective, kernel, projective_cover

    rng = np.random.default_rng(777)
    checked = 0
    for _ in range(8):
        x = random_module(C1.Gam, rng)
        if x.is_zero() or is_projective(x):
            continue
        ps, epi = projective_cover(x)
        k, incl = kernel(epi)
        if k.is_zero():
            continue
        checked += 1
        res = exact_sequence_image(C1.F, incl, epi)
        assert res.verify_exact()
        a_exp = stable_image_map(C1.F, incl)
        u_exp = stable_image_map(C1.F, epi)
        assert a_exp.space.equal(res.a_hom, a_exp.rep)
        assert u_exp.space.equal(res.u_hom, u_exp.rep)
    assert checked >= 3


def test_composition_on_random_modules(C1):
    fg = compose(C1.F, C1.G)
    rng = np.random.default_rng(888)
    checked = 0
    for _ in range(6):
        x = random_module(C1.Gam, rng)
        if x.is_zero():
            continue
        checked += 1
        M, _ = stable_image(fg, x)
        assert stable_iso(M, syzygy(x, 1))
    assert checked >= 3


def test_stable_image_of_projective_kernel_keeps_positive_part(C1):
    # the model of a projective module's image lives entirely in positive
    # degrees but must not be discarded
    P = projective(C1.Gam, "1")
    _, tri = stable_image(C1.F, P)
    assert tri.M.is_zero()
    assert tri.U.terms  # the image complex survives in degree one
    assert tri.model.term(1).total_dim() > 0


def test_stable_image_map_functorial(C1):
    # transported classes compose: the image of g o f equals the
    # composite of the images, as stable classes
    rng = np.random.default_rng(31337)
    checked = 0
    while checked < 4:
        x = random_module(C1.Gam, rng)
        y = random_module(C1.Gam, rng)
        z = random_module(C1.Gam, rng)
        if x.is_zero() or y.is_zero() or z.is_zero():
            continue
        hs1, hs2 = hom_space(x, y), hom_space(y, z)
        if not hs1 or not hs2:
            continue
        checked += 1
        f, g = hs1[0], hs2[0]
        bf = stable_image_map(C1.F, f)
        bg = stable_image_map(C1.F, g)
        bgf = stable_image_map(C1.F, g.compose(f))
        sp = stable_hom(bf.rep.source, bg.rep.target)
        assert sp.equal(bgf.rep, bg.rep.compose(bf.rep))


# -- stable invertibility by two solves -------------------------------------


def stable_left_inverse(f):
    """A g: y -> x with g f - id_x factoring through a projective, read off
    one solve over Hom(y, x) and the maps x -> cover(x) -> x, or None."""
    x, y = f.source, f.target
    back = hom_space(y, x)
    ps, epi = projective_cover(x)
    cols = [g.compose(f).flat() for g in back] + [epi.compose(b).flat() for b in hom_space(x, ps.rep())]
    if not cols:
        return None
    sol = solve(Matrix(x.p, np.stack(cols, axis=1)), Matrix(x.p, identity_hom(x).flat().reshape(-1, 1)))
    if sol is None:
        return None
    return hom_frame(y, x).combination(sol.data[: len(back), 0])


def assert_two_sided_stable_inverse(f, g):
    x, y = f.source, f.target
    assert stable_hom(x, x).equal(g.compose(f), identity_hom(x))
    assert stable_hom(y, y).equal(f.compose(g), identity_hom(y))


def test_scalar_multiples_of_the_identity_are_stable_isos(C1):
    x = C1.M[(1, 3)]
    for c in range(1, 6):
        f = identity_hom(x).scale(c)
        assert StableHom(f, stable_hom(x, x)).is_stable_iso(), c
        assert_two_sided_stable_inverse(f, stable_left_inverse(f))


def test_random_automorphisms_are_stable_isos(C1):
    rng = np.random.default_rng(61)
    for key, x in sorted(C1.M.items()):
        frame = hom_frame(x, x)
        autos = [f for f in (frame.combination(rng.integers(0, x.p, size=frame.dim)) for _ in range(8)) if f.is_iso()]
        assert autos, key
        for f in autos:
            assert StableHom(f, stable_hom(x, x)).is_stable_iso(), key
            assert_two_sided_stable_inverse(f, stable_left_inverse(f))


def test_maps_between_images_that_are_not_stably_isomorphic(C1):
    # F(M_0_2) and F(M_2_2) have no projective summands and different
    # dimensions; Hom between them holds a map factoring through a
    # projective and one that does not
    x, _ = stable_image(C1.F, C1.M[(0, 2)])
    y, _ = stable_image(C1.F, C1.M[(2, 2)])
    assert strip_projectives(x)[0].total_dim() == 7 and strip_projectives(y)[0].total_dim() == 3
    space = stable_hom(x, y)
    kinds = set()
    for f in space.basis:
        assert not f.is_zero()
        assert not StableHom(f, space).is_stable_iso()
        kinds.add(space.factors_through_projective(f))
    assert kinds == {True, False}


def test_one_sided_stable_inverses_are_not_enough(C1):
    # the inclusion of a summand has a left inverse and the projection a
    # right one; the other summand is not projective, so neither inverts
    x, y = C1.M[(1, 2)], C1.M[(0, 3)]
    total, incls, projs = direct_sum([x, y])
    assert not StableHom(incls[0], stable_hom(x, total)).is_stable_iso()
    assert not StableHom(projs[0], stable_hom(total, x)).is_stable_iso()


def _image_answers(c):
    """Stable images of every M(i, l) under F (dims and arrow matrices),
    their GP verdicts, and whether the images of the basis maps of
    Hom(M(i, l), M(i', l')), for (i', l') equal to (i, l) or next to it
    in key order, are stably zero."""
    keys = sorted(c.M)
    images = [stable_image(c.F, c.M[key])[0] for key in keys]
    shapes = [(m.dims, {a: mat.data.tolist() for a, mat in m.mats.items()}) for m in images]
    gp = [is_gorenstein_projective(m, 8).is_gp for m in images]
    pairs = list(zip(keys, keys)) + list(zip(keys, keys[1:]))
    phis = [phi for a, b in pairs for phi in hom_space(c.M[a], c.M[b])]
    zero = [stable_image_map(c.F, phi).is_zero() for phi in phis]
    return shapes, gp, zero


def _raise(*args, **kwargs):
    raise AssertionError("a stable image built a mapping cone")


@pytest.mark.parametrize("n", [1, 2])
def test_stable_images_build_no_cone(monkeypatch, n):
    """With `cone` raising in `quivhom.stable` and `quivhom.complexes`,
    stable images, their GP verdicts and transported maps answer as
    unpatched: the triangle's cone is built only when mu is read.  Both
    runs use a fresh corpus, so no image is cached from the other."""
    want = _image_answers(Corpus(n))
    _, _, zero = want
    assert any(zero) and not all(zero)
    fresh = Corpus(n)
    monkeypatch.setattr(stable, "cone", _raise)
    monkeypatch.setattr(complexes, "cone", _raise)
    assert _image_answers(fresh) == want


def _edge_cases():
    """(functor, incl, proj) for every corpus sequence at n <= 2 under F,
    and every corpus-1 sequence under the width-two composite F o Omega."""
    c1, c2 = corpus(1), corpus(2)
    cases = [(c.F, incl, proj) for c in (c1, c2) for _, (incl, proj) in sorted(c.ses.items())]
    f2 = compose(c1.F, omega_functor(c1.Lam, 1))
    return cases + [(f2, incl, proj) for _, (incl, proj) in sorted(c1.ses.items())]


def _same_complex(a, b):
    """The same terms (dimensions and arrow matrices) and differentials."""
    assert sorted(a.terms) == sorted(b.terms) and sorted(a.diffs) == sorted(b.diffs)
    for i, t in a.terms.items():
        assert t.dims == b.terms[i].dims
        assert all(np.array_equal(m.data, b.terms[i].mats[n].data) for n, m in t.mats.items())
    for i, d in a.diffs.items():
        assert all(np.array_equal(m.data, b.diffs[i].mats[v].data) for v, m in d.mats.items())


def test_total_cone_is_the_nested_cone():
    """total_cone(p, q, h) is shift(cone((h, q) : cone(p) -> dz), -1) entry
    for entry on every edge case; the ChainMap check on (h, q) confirms that
    h is a null-homotopy of q p in the sign convention of the blocks."""
    for f, incl, proj in _edge_cases():
        p, q = stable._model_chain_map(f, incl), stable._model_chain_map(f, proj)
        dx, dy, dz = p.source, p.target, q.target
        h = HomEngine(dx, dz).solve_nullhomotopy(q.compose(p))
        cp = cone(p)[0]
        hq = {
            i: _block_hom(t, dz.term(i), [dx.term(i + 1), dy.term(i)], [dz.term(i)], {(0, 0): h.map(i + 1), (0, 1): q.map(i)})
            for i, t in cp.terms.items()
        }
        _same_complex(total_cone(p, q, h), shift(cone(ChainMap(cp, dz, hq))[0], -1))


def test_zero_eps_data_raises_naming_the_cohomology():
    """Corpus F with every eps_v arrow map set to zero is not non-negative,
    and on each of the 21 corpus sequences at n <= 2 its total cone is not
    acyclic: the error names cohomology in degree -1 only and
    dim Hom_K(dx, dz[-1]) = 0."""
    msg = r"^the total cone is not acyclic: nonzero cohomology \{-1: [246]\} by degree, dim Hom_K\(dx, dz\[-1\]\) = 0; "
    count = 0
    for c in (corpus(1), corpus(2)):
        f0 = zero_eps_data(c)
        assert not is_non_negative(f0, 2)
        for _, (incl, proj) in sorted(c.ses.items()):
            with pytest.raises(ValueError, match=msg):
                exact_sequence_image(f0, incl, proj)
            count += 1
    assert count == 21


def test_exact_image_edge_blocks_are_the_transported_maps():
    """The M_y block of `left` and the M_y -> M_z block of `right`, read by
    offsets past P = V (+) dx^1 and Q = dx^2 (+) dy^1, are the transported
    maps entry for entry, and so are `a_hom` and `u_hom`."""
    for f, incl, proj in _edge_cases():
        res = exact_sequence_image(f, incl, proj)
        mx, my, mz = (stable_image(f, m)[0] for m in (incl.source, incl.target, proj.target))
        assert res.a_hom.source is mx
        a, u = stable_image_map(f, incl).rep, stable_image_map(f, proj).rep
        for v in f.target.quiver.vertices:
            p0, q0 = res.P.dims[v], res.Q.dims[v]
            left, right = res.left.mats[v].data, res.right.mats[v].data
            assert left.shape == (p0 + my.dims[v], mx.dims[v])
            assert right.shape == (q0 + mz.dims[v], p0 + my.dims[v])
            assert np.array_equal(left[p0:], a.mats[v].data)
            assert np.array_equal(right[q0:, p0:], u.mats[v].data)
            assert np.array_equal(res.a_hom.mats[v].data, a.mats[v].data)
            assert np.array_equal(res.u_hom.mats[v].data, u.mats[v].data)


def _exact_answers(c):
    """verify_exact and the P and Q dimensions of every transported
    corpus sequence under F."""
    out = []
    for _, (incl, proj) in sorted(c.ses.items()):
        res = exact_sequence_image(c.F, incl, proj)
        out.append((res.verify_exact(), res.P.dims, res.Q.dims))
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_exact_images_build_no_homotopy_classes(monkeypatch, n):
    """With `HomKResult.__init__` raising, every corpus sequence is
    transported as unpatched: the construction builds no homotopy
    classes.  Both runs use a fresh corpus."""
    want = _exact_answers(Corpus(n))
    assert all(exact for exact, _, _ in want)
    fresh = Corpus(n)

    def _no_classes(*args, **kwargs):
        raise AssertionError("the exactness construction built homotopy classes")

    monkeypatch.setattr(complexes.HomKResult, "__init__", _no_classes)
    assert _exact_answers(fresh) == want


def test_exact_image_without_correcting_classes_raises_at_once(C1, monkeypatch):
    """When the total cone is not acyclic, the construction raises after
    one acyclicity test, naming the cohomology of the cone and
    dim Hom_K(dx, dz[-1]), instead of searching for another homotopy."""
    calls = []

    def never_acyclic(c):
        calls.append(c)
        return False

    monkeypatch.setattr(stable, "is_acyclic", never_acyclic)
    incl, proj = C1.ses[(1, 2)]
    with pytest.raises(ValueError, match=r"total cone is not acyclic: nonzero cohomology \{\} by degree, dim Hom_K\(dx, dz\[-1\]\) = 0"):
        exact_sequence_image(C1.F, incl, proj)
    assert len(calls) == 1
