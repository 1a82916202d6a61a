import numpy as np
import pytest

from quivhom.algebra import linear_algebra_An
from quivhom.complexes import compress, module_complex
from quivhom.corpus import corpus, gentle_tree_algebra
from quivhom.exactlin import Matrix
from quivhom.functors import FunctorData, TiltingCandidate, eps_extension, is_non_negative
from quivhom.homological import decompose, find_strict_iso
from quivhom.modules import (
    ProjSummands,
    RepHom,
    Representation,
    _proj_sum,
    direct_sum,
    element_matrix_to_hom,
    is_projective,
    is_ses,
    kernel,
    projective,
    projective_cover,
)
from quivhom.projcplx import ProjChainMap, ProjComplex, minimize


@pytest.fixture(scope="module")
def C1():
    return corpus(1)


def test_algebra_dimensions(C1):
    assert (C1.A.dim, C1.B.dim, C1.Lam.dim, C1.Gam.dim) == (7, 10, 14, 20)


def test_pair_counts():
    assert corpus(1).manifest["pair_count"] == 10
    assert corpus(2).manifest["pair_count"] == 21


def test_full_interval_modules_are_eps_trivial_projectives(C1):
    # M(i, full) is the base projective with vanishing loop action
    m = C1.M[(3, 1)]
    assert m.total_dim() == 1
    assert m.mats["eps_3"].is_zero()
    assert C1.M[(0, 4)].dims == projective(C1.B, "0").dims


def test_tensor_projective_two_ways(C1):
    # the extension projective equals the dual-numbers-extension projective
    for i in range(4):
        q = projective(C1.Gam, str(i))
        assert q.total_dim() == 2 * projective(C1.B, str(i)).total_dim()


def test_corpus_modules_indecomposable(C1):
    for key, m in C1.M.items():
        pieces = decompose(m)
        assert len(pieces) == 1 and pieces[0][1] == 1, key


def test_corpus_ses_exact_and_consistent(C1):
    # the endpoints are the corpus's own objects, which the stable pipeline
    # caches by identity; M(i, full) is S (x) Q_i itself and has no sequence
    for i in range(4):
        assert C1.M[(i, 4 - i)] is C1.S_Q[i] and (i, 4 - i) not in C1.ses
    assert len(C1.ses) == len(C1.M) - 4
    for (i, l), (incl, proj) in C1.ses.items():
        assert is_ses(incl, proj)
        assert incl.source is C1.S_Q[i] and incl.target is C1.M[(i, l)] is proj.source
        assert proj.target is C1.S_Q[i + l]


def test_manifest_dims_match(C1):
    for (i, l) in C1.manifest["pairs"]:
        assert C1.M[(i, l)].total_dim() == C1.manifest["module_dims"][f"{i},{l}"]


def test_functor_data_non_negative(C1):
    for f in (C1.F, C1.G, C1.F_BA, C1.G_AB):
        assert is_non_negative(f, depth=4).ok


def test_inverse_data_normalized_width(C1):
    # shifted quasi-inverse images live in degrees [0, width] and are
    # homotopy-minimal within the window after cancellation
    for v in C1.Lam.quiver.vertices:
        img = C1.G.images[v]
        assert img.lo >= 0 and img.hi <= C1.G.width
        mn, _, _ = minimize(img)
        assert mn.lo >= 0 and mn.hi <= C1.G.width


def test_pullback_modules_exist(C1):
    for i in range(2):
        pb = C1.pullback_module(i)
        assert pb.total_dim() > 0
        assert not is_projective(pb)


def test_indecomposable_lists(C1):
    assert len(C1.indecomposables_B()) == 10
    assert len(C1.indecomposables_A()) == 8


def test_tilting_candidate_shape(C1):
    assert len(C1.tilting.summands) == 4  # two stalks and two two-term complexes


def test_scale_three_builds():
    c3 = corpus(3)
    assert c3.manifest["pair_count"] == 36
    assert c3.Gam.dim == 2 * c3.B.dim
    # one transported value at the larger scale
    from quivhom.stable import stable_image, stable_iso

    img, _ = stable_image(c3.F, c3.S_Q[7])
    assert stable_iso(img, c3.S_P[7])


def test_pipeline_over_small_prime():
    from quivhom.corpus import Corpus
    from quivhom.functors import compose
    from quivhom.gorenstein import is_gorenstein_projective
    from quivhom.homological import syzygy
    from quivhom.stable import stable_image, stable_iso

    c = Corpus(1, p=7)
    img, _ = stable_image(c.F, c.S_Q[1])
    assert stable_iso(img, c.S_P[1])
    assert is_gorenstein_projective(img, 5).is_gp
    fg = compose(c.F, c.G)
    M, _ = stable_image(fg, c.M[(0, 2)])
    assert stable_iso(M, syzygy(c.M[(0, 2)], 1))


# -- the hand-built eps-data, kept as the reference of eps_extension ---------


def old_eps_maps(src, tgt, images):
    """The chain endomorphisms eps_v of images[v], one per vertex v of src:
    in each degree the diagonal element matrix whose entry at a summand
    P_w is tgt's loop eps_w."""
    out = {}
    for v in src.quiver.vertices:
        comps = {}
        for t in images[v].terms:
            verts = images[v].terms[t].vertices
            comps[t] = [
                [tgt.arrow(f"eps_{verts[c]}") if r == c else {} for c in range(len(verts))]
                for r in range(len(verts))
            ]
        out[f"eps_{v}"] = ProjChainMap(images[v], images[v], comps)
    return out


def old_functor_data(n, src, tgt):
    """The data Gamma -> Lambda as the corpus built it with `with_eps`."""
    images = {}
    for i in range(n + 1):
        v = str(2 * i + 1)
        images[v] = ProjComplex(tgt, {1: ProjSummands(tgt, [v])}, {}, check=False)
    for i in range(n + 1):
        v, w = str(2 * i), str(2 * i + 1)
        images[v] = ProjComplex(
            tgt,
            {0: ProjSummands(tgt, [v]), 1: ProjSummands(tgt, [w])},
            {0: [[tgt.arrow(f"a{2 * i + 1}")]]},
        )
    arrow_maps = {}
    for j in range(2 * n + 1):
        if j % 2 == 0:
            i = j // 2
            am = ProjChainMap(images[str(j + 1)], images[str(j)], {1: [[tgt.e(str(2 * i + 1))]]})
        else:
            i = (j - 1) // 2
            am = ProjChainMap(images[str(j + 1)], images[str(j)], {1: [[tgt.arrow(f"b{2 * i + 1}")]]})
        arrow_maps[f"b{j}"] = am
    arrow_maps.update(old_eps_maps(src, tgt, images))
    return FunctorData(src, tgt, images, arrow_maps)


def old_inverse_data(n, src, tgt):
    """The data Lambda -> Gamma as the corpus built it with `with_eps`."""
    images = {}
    for i in range(n + 1):
        v = str(2 * i)
        images[v] = ProjComplex(
            tgt,
            {0: ProjSummands(tgt, [str(2 * i + 1)]), 1: ProjSummands(tgt, [str(2 * i)])},
            {0: [[tgt.arrow(f"b{2 * i}")]]},
        )
    images["1"] = ProjComplex(tgt, {0: ProjSummands(tgt, ["1"])}, {}, check=False)
    for j in range(1, n + 1):
        v = str(2 * j + 1)
        images[v] = ProjComplex(
            tgt,
            {0: ProjSummands(tgt, [str(2 * j + 1), str(2 * j)]), 1: ProjSummands(tgt, [str(2 * j)])},
            {0: [[{}, tgt.e(str(2 * j))]]},
        )
    arrow_maps = {"a1": ProjChainMap(images["0"], images["1"], {0: [[tgt.e("1")]]})}
    for j in range(1, n + 1):
        v21, v20 = str(2 * j + 1), str(2 * j)
        arrow_maps[f"a{2 * j + 1}"] = ProjChainMap(
            images[v20], images[v21], {0: [[tgt.e(v21)], [tgt.arrow(f"b{2 * j}")]], 1: [[tgt.e(v20)]]}
        )
    for i in range(n):
        srcv, tgtv = str(2 * i + 3), str(2 * i + 1)
        bb = {(tgtv, (f"b{2 * i + 1}", f"b{2 * i + 2}")): 1}
        bshort = tgt.arrow(f"b{2 * i + 1}")
        if i == 0:
            comps = {0: [[bb, tgt.smul(-1, bshort)]]}
        else:
            comps = {0: [[bb, tgt.smul(-1, bshort)], [{}, {}]], 1: [[{}]]}
        arrow_maps[f"b{2 * i + 1}"] = ProjChainMap(images[srcv], images[tgtv], comps)
    arrow_maps.update(old_eps_maps(src, tgt, images))
    return FunctorData(src, tgt, images, arrow_maps)


def assert_same_data(new, old):
    """Same algebras, same image terms and differentials, and the same
    arrow maps, element for element."""
    assert new.source is old.source and new.target is old.target
    assert new.images.keys() == old.images.keys() and new.arrow_maps.keys() == old.arrow_maps.keys()
    for v, img in new.images.items():
        assert img.algebra is new.target
        assert {i: ps.vertices for i, ps in img.terms.items()} == {i: ps.vertices for i, ps in old.images[v].terms.items()}
        assert img.dmats == old.images[v].dmats
    for a, m in new.arrow_maps.items():
        assert m.comps == old.arrow_maps[a].comps
    assert new.width == old.width and new.stable_window == old.stable_window == -new.width - 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eps_extension_is_the_hand_built_eps_data(n):
    """F and G are the eps-extensions of the A/B data, equal element for
    element to the Gamma/Lambda data the corpus used to build by hand."""
    c = corpus(n)
    assert_same_data(c.F, old_functor_data(n, c.Gam, c.Lam))
    assert_same_data(c.G, old_inverse_data(n, c.Lam, c.Gam))
    assert_same_data(eps_extension(c.F_BA), c.F)


def test_the_dual_numbers_extension_is_built_once_and_knows_its_base():
    """One extension per algebra, as with `opposite`; it records the
    algebra it extends and the loop of each vertex, and only the base's
    arrows and those loops are its arrows."""
    for base in (gentle_tree_algebra(1), linear_algebra_An(3)):
        ext = base.dual_numbers_extension()
        assert base.dual_numbers_extension() is ext
        assert ext.base is base and base.base is None
        assert ext.loops == {v: f"eps_{v}" for v in base.quiver.vertices} and base.loops == {}
        assert set(ext.quiver.arrows) == set(base.quiver.arrows) | {(n, v, v) for v, n in ext.loops.items()}
    c = corpus(1)
    assert (c.Lam.base, c.Gam.base) == (c.A, c.B)
    assert (c.F.source, c.F.target, c.G.source, c.G.target) == (c.Gam, c.Lam, c.Lam, c.Gam)


# -- the hand-built eps-modules and tilting complex, kept as references -------


def old_s_tensor_projective(ext_alg, base_alg, v):
    q = projective(base_alg, v)
    return Representation(ext_alg, dict(q.dims), {n: q.mats[n] for n, _, _ in base_alg.quiver.arrows})


def old_gp_module(c, i, l):
    """M(i, l) and its sequence as the corpus built them by hand: block
    matrices for the arrows and eps, and the inclusion and projection."""
    balg, gam = c.B, c.Gam
    qi = projective(balg, str(i))
    qil = projective(balg, str(i + l))
    pth = (str(i), tuple(f"b{j}" for j in range(i, i + l)))
    incl = element_matrix_to_hom(balg, [[{pth: 1}]], ProjSummands(balg, [str(i + l)]), ProjSummands(balg, [str(i)]))
    dims = {v: qi.dims[v] + qil.dims[v] for v in balg.quiver.vertices}
    p = c.p
    mats = {}
    for nm, _, _ in balg.quiver.arrows:
        mats[nm] = Matrix.block_diag(p, [qi.mats[nm], qil.mats[nm]])
    for v in balg.quiver.vertices:
        m = np.zeros((dims[v], dims[v]), dtype=np.int64)
        m[: qi.dims[v], qi.dims[v] :] = incl.mats[v].data
        mats[f"eps_{v}"] = Matrix(p, m)
    M = Representation(gam, dims, mats)
    sub = old_s_tensor_projective(gam, balg, str(i))
    quot = old_s_tensor_projective(gam, balg, str(i + l))
    imats, qmats = {}, {}
    for v in gam.quiver.vertices:
        inc = np.zeros((dims[v], sub.dims[v]), dtype=np.int64)
        for k in range(sub.dims[v]):
            inc[k, k] = 1
        imats[v] = Matrix(p, inc)
        pr = np.zeros((quot.dims[v], dims[v]), dtype=np.int64)
        for k in range(quot.dims[v]):
            pr[k, qi.dims[v] + k] = 1
        qmats[v] = Matrix(p, pr)
    return M, (RepHom(sub, M, imats), RepHom(M, quot, qmats))


def old_tilting_candidate(c):
    """T as the corpus wrote it by hand: the stalks P_(2i+1) in degree 0
    and the complexes P_(2i) -> P_(2i+1) (by a_(2i+1)) in degrees -1, 0."""
    alg = c.A
    summands = [ProjComplex(alg, {0: ProjSummands(alg, [str(2 * i + 1)])}, {}, check=False) for i in range(c.n + 1)]
    for i in range(c.n + 1):
        summands.append(
            ProjComplex(
                alg,
                {-1: ProjSummands(alg, [str(2 * i)]), 0: ProjSummands(alg, [str(2 * i + 1)])},
                {-1: [[alg.arrow(f"a{2 * i + 1}")]]},
            )
        )
    return TiltingCandidate(alg, summands)


def same_rep(x, y):
    return x.algebra is y.algebra and x.dims == y.dims and all(np.array_equal(x.mats[a].data, y.mats[a].data) for a in x.mats)


def same_hom(f, g):
    return same_rep(f.source, g.source) and same_rep(f.target, g.target) and all(np.array_equal(f.mats[v].data, g.mats[v].data) for v in f.mats)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eps_modules_are_the_hand_built_ones(n):
    """S (x) Q_v, S (x) P_v, M(i, l) and its sequence, read off the
    extension's base and loops and off one direct sum, equal the
    hand-built block matrices, matrix for matrix."""
    c = corpus(n)
    for v in range(2 * n + 2):
        assert same_rep(c.S_Q[v], old_s_tensor_projective(c.Gam, c.B, str(v)))
        assert same_rep(c.S_P[v], old_s_tensor_projective(c.Lam, c.A, str(v)))
    assert c.ses
    for (i, l), (incl, proj) in c.ses.items():
        M, (old_incl, old_proj) = old_gp_module(c, i, l)
        assert same_rep(c.M[(i, l)], M)
        assert same_hom(incl, old_incl) and same_hom(proj, old_proj)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tilting_candidate_is_the_hand_built_one(n):
    """T read off F_BA's images is the hand-written T: summand by summand
    the same vertex tuples, and strictly isomorphic (the shift negates
    the differentials)."""
    c = corpus(n)
    old = old_tilting_candidate(c).summands
    assert c.tilting.algebra is c.A and len(c.tilting.summands) == len(old)
    for new, ref in zip(c.tilting.summands, old):
        assert {i: t.vertices for i, t in new.terms.items()} == {i: t.vertices for i, t in ref.terms.items()}
        assert find_strict_iso(new.to_complex(), ref.to_complex(), 0) is not None


def old_quotient_by_eps(ext_alg, v):
    """The projection of the extension projective at v onto S (x) P_v as
    the corpus wrote it: kill every basis path that contains a loop."""
    P = projective(ext_alg, v)
    S = compress(module_complex(projective(ext_alg.base, v)))[0]
    lay_ext = _proj_sum(ext_alg, (v,)).layout
    base_index = _proj_sum(ext_alg.base, (v,)).index
    loops = set(ext_alg.loops.values())
    mats = {}
    for w in ext_alg.quiver.vertices:
        m = np.zeros((S.dims[w], P.dims[w]), dtype=np.int64)
        for col, (j, pth) in enumerate(lay_ext[w]):
            if loops.isdisjoint(pth[1]):
                m[base_index[(j, pth)], col] = 1
        mats[w] = Matrix(ext_alg.p, m)
    return RepHom(P, S, mats)


def old_pullback_module(c, i):
    alg = c.A
    pi = old_quotient_by_eps(c.Lam, str(2 * i + 1))
    g = element_matrix_to_hom(alg, [[alg.arrow(f"a{2 * i + 1}")]], ProjSummands(alg, [str(2 * i)]), ProjSummands(alg, [str(2 * i + 1)]))
    sp0 = c.S_P[2 * i]
    gl = RepHom(sp0, c.S_P[2 * i + 1], dict(g.mats))
    _, _, projs = direct_sum([pi.source, sp0])
    pb, _ = kernel(pi.compose(projs[0]) - gl.compose(projs[1]))
    return pb


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_cover_of_s_tensor_p_is_the_hand_built_eps_quotient(n):
    """The projective cover of S (x) P_v is the hand-built quotient by eps,
    matrix for matrix, over Lambda and Gamma; so the pullback modules read
    off the cover are the hand-built ones."""
    c = corpus(n)
    for ext, s in ((c.Lam, c.S_P), (c.Gam, c.S_Q)):
        for v in ext.quiver.vertices:
            _, cover = projective_cover(s[int(v)])
            old = old_quotient_by_eps(ext, v)
            assert cover.source is old.source and same_rep(cover.target, old.target)
            assert all(np.array_equal(cover.mats[w].data, old.mats[w].data) for w in ext.quiver.vertices)
    for i in range(n + 1):
        assert same_rep(c.pullback_module(i), old_pullback_module(c, i))
