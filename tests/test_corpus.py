import pytest

from quivhom.corpus import corpus
from quivhom.functors import FunctorData, eps_extension, is_non_negative
from quivhom.homological import decompose
from quivhom.modules import ProjSummands, is_projective, is_ses, projective
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
    for (i, l), (incl, proj) in C1.ses.items():
        assert is_ses(incl, proj)
        assert incl.source.dims == C1.S_Q[i].dims
        assert proj.target.dims == C1.S_Q[i + l].dims


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
    assert_same_data(eps_extension(c.F_BA, c.Gam, c.Lam), c.F)
