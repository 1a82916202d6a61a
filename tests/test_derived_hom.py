"""Derived Hom reads the un-minimized resolution construction.

`hom_d_dim` and `localization_compare` compute Hom_K out of the
construction that `complexes._Resolution` keeps on a complex, truncated
at the window, with its own comparison eps.  The path they replaced is
kept here as the reference: the minimized `projective_resolution`, its
element matrices turned back into maps, and the comparison chain map it
builds.  `minimize` is a homotopy equivalence, so both must give the
same integers, including at the windows where it cancels summands.

Hom(P, n) out of a shared projective sum is kept on its target n; the
last tests check that frame against a fresh build.
"""

import itertools
import sys

import numpy as np
import pytest

from quivhom import modules, projcplx
from quivhom.algebra import dual_numbers
from quivhom.complexes import (
    hom_d_dim,
    hom_d_window,
    hom_k,
    hom_k_dim,
    localization_compare,
    module_complex,
    perpendicularity_hypothesis,
    projective_resolution,
)
from quivhom.corpus import Corpus, corpus
from quivhom.exactlin import Matrix, rank
from quivhom.gorenstein import is_gorenstein_projective
from quivhom.modules import _flat_offsets, _free_rows, _hom_basis_from_generators, _proj_sum, hom_frame, simple
from quivhom.stable import stable_image
from tests.conftest import random_module, random_two_term_complex
from tests.test_complex_resolution import WINDOWS, complexes as window_complexes, localization_pair
from tests.test_gp_profile import spy_on_balance


def reference_hom_d_dim(c, d, n):
    return hom_k_dim(projective_resolution(c, hom_d_window(d, n))[0].to_complex(), d, n)


def reference_localization(x, y, n, depth=6):
    """Every LocalizationReport field, from the minimized resolution of x
    and its comparison chain map."""
    hk = hom_k(x, y, n)
    res, epsmap = projective_resolution(x, hom_d_window(y, n))
    rk = hom_k(res.to_complex(), y, n)
    cols = [rk.coordinates(b.compose(epsmap)) for b in hk.basis]
    r = rank(Matrix(x.algebra.p, np.stack(cols, axis=1))) if cols and rk.dim else 0
    return hk.dim, rk.dim, r, perpendicularity_hypothesis(x, y, depth), r == rk.dim


def fields(rep):
    return rep.hom_k_dim, rep.hom_d_dim, rep.comparison_rank, rep.hypothesis_ok, rep.surjective_at_n


def stalk_groups(c):
    """Every M(i, l) of the corpus c, its stable image under F and the
    simples of both algebras, grouped by algebra."""
    images = [stable_image(c.F, x)[0] for _, x in sorted(c.M.items())]
    return [
        list(c.M.values()) + [simple(c.Gam, v) for v in c.Gam.quiver.vertices],
        images + [simple(c.Lam, v) for v in c.Lam.quiver.vertices],
    ]


def stalk_cases(c, step=1):
    """(x, y, n) for the stalk complexes of the modules of `stalk_groups`,
    x every other one, at shifts 0..2."""
    cases = [
        (module_complex(x), module_complex(y), n)
        for group in stalk_groups(c)
        for x, y in itertools.product(group[::2], group)
        for n in range(3)
    ]
    return cases[::step]


def localization_cases(alg_a, alg_keps, count=6):
    """Criterion-3 pairs over A and k[eps] at the shifts the criterion asks for."""
    out = []
    for alg, seed in ((alg_a, 41), (alg_keps, 43)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            x, y = localization_pair(alg, rng), random_two_term_complex(alg, rng)
            out += [(x, y, n) for n in range(-3, 2)]
    return out


def test_hom_d_of_corpus_stalks_matches_the_minimized_resolution():
    cases = stalk_cases(corpus(1))
    got = [hom_d_dim(x, y, n) for x, y, n in cases]
    assert got == [reference_hom_d_dim(x, y, n) for x, y, n in cases]
    assert sum(map(bool, got)) > 20


@pytest.mark.parametrize("name", ["A1", "Lam1", "keps"])
def test_hom_d_at_every_window_matches_the_minimized_resolution(name, request):
    """The complexes and windows of `test_minimize`, where minimize
    cancels 0 / 12 / 36 summands over A1 / Lam1 / keps: at window w, the
    shift n = d.lo - 2 - w into each d."""
    alg = request.getfixturevalue(name)
    cs = window_complexes(alg, seed=len(name))
    nonzero = cancelled = 0
    for c in cs:
        for w in WINDOWS:
            for d in cs:
                n = d.lo - 2 - w
                got = hom_d_dim(c, d, n)
                assert got == reference_hom_d_dim(c, d, n), (w, n)
                nonzero += bool(got)
            built = c._cache["_resolution"].psums
            kept = projective_resolution(c, w)[0].terms
            cancelled += sum(len(t.vertices) for i, t in built.items() if i >= w) - sum(len(t.vertices) for t in kept.values())
    assert nonzero
    assert cancelled == {"A1": 0, "Lam1": 12, "keps": 36}[name]


def test_localization_matches_the_minimized_resolution():
    cases = localization_cases(corpus(1).A, dual_numbers())
    got = [fields(localization_compare(x, y, n)) for x, y, n in cases]
    assert got == [reference_localization(x, y, n) for x, y, n in cases]
    # the comparison rank is nonzero often enough to see a wrong eps
    assert sum(1 for f in got if f[2]) >= 10


def _raise(*args, **kwargs):
    raise AssertionError("derived Hom minimized or converted a resolution")


def _patch_everywhere(monkeypatch, fn):
    """Make fn raise in every quivhom namespace that binds it."""
    for name in [m for m in sys.modules if m == "quivhom" or m.startswith("quivhom.")]:
        mod = sys.modules[name]
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, _raise)


def derived_inputs():
    """Inputs for hom_d_dim, localization_compare and the GP cross-check,
    built from a fresh corpus, so nothing is cached on them yet: stalk
    cases, localization cases and non-GP modules whose refutation is
    cross-checked by balance."""
    c = Corpus(1)
    rng = np.random.default_rng(47)
    non_gp = [simple(alg, v) for alg in (c.A, c.Lam) for v in alg.quiver.vertices]
    return stalk_cases(c, step=7), localization_cases(c.A, dual_numbers(), count=3), non_gp + [random_module(c.Lam, rng) for _ in range(3)]


def derived_answers(inputs):
    stalks, locs, non_gp = inputs
    hom_d = [hom_d_dim(x, y, n) for x, y, n in stalks]
    loc = [fields(localization_compare(x, y, n)) for x, y, n in locs]
    gp = [(r.verdict, r.witness) for r in map(is_gorenstein_projective, non_gp)]
    return hom_d, loc, gp


def test_derived_hom_builds_no_minimized_resolution(monkeypatch):
    """With minimize, the chain map conversion and element matrices to
    maps all raising, derived Hom, the localization comparison and the
    GP refutation cross-check by balance answer as before, on fresh
    inputs."""
    fresh = derived_inputs()
    want = derived_answers(derived_inputs())
    assert any(want[0]) and any(f[2] for f in want[1])
    assert sum(1 for verdict, _ in want[2] if verdict == "refuted") >= 3
    crosschecks = spy_on_balance(monkeypatch)
    monkeypatch.setattr(projcplx.ProjChainMap, "to_chain_map", _raise)
    _patch_everywhere(monkeypatch, projcplx.minimize)
    _patch_everywhere(monkeypatch, modules.element_matrix_to_hom)
    assert derived_answers(fresh) == want
    assert crosschecks


def test_derived_hom_builds_no_element_matrix(monkeypatch):
    """Element matrices of the construction are built on first read, and
    derived Hom reads none: with `hom_to_element_matrix` raising in every
    namespace, `hom_d_dim` and `localization_compare` answer as before on
    fresh inputs.  The perpendicularity hypothesis that
    `localization_compare` reports is Ext, which reads element matrices of
    the terms' own resolutions by design, so it is read once before the
    patch; the localization complexes are resolved only under it."""
    stalks, locs, _ = derived_inputs()
    want_stalks, want_locs, _ = derived_inputs()
    want = [hom_d_dim(x, y, n) for x, y, n in want_stalks], [fields(localization_compare(x, y, n)) for x, y, n in want_locs]
    for x, y, _ in locs:
        perpendicularity_hypothesis(x, y)
    assert all("_resolution" not in x._cache for x, _, _ in locs)
    _patch_everywhere(monkeypatch, modules.hom_to_element_matrix)
    got = [hom_d_dim(x, y, n) for x, y, n in stalks], [fields(localization_compare(x, y, n)) for x, y, n in locs]
    assert got == want


def corpus_targets(n):
    """Every target that derived Hom between corpus stalk complexes at
    scale n touches, after asking for Hom_D at shifts 0..2."""
    targets = []
    for group in stalk_groups(corpus(n)):
        for x, y in itertools.product(group[::3], group):
            for i in range(3):
                hom_d_dim(module_complex(x), module_complex(y), i)
        targets += group
    return targets


@pytest.mark.parametrize("n", [1, 2])
def test_cached_frames_equal_a_fresh_build(n):
    seen = 0
    for y in corpus_targets(n):
        for key, frame in y._cache.items():
            if not (isinstance(key, tuple) and key[0] == "_hom_from"):
                continue
            vertices = key[1]
            P = _proj_sum(y.algebra, vertices).rep
            fresh = _hom_basis_from_generators(vertices, y, *_flat_offsets(P, y))
            assert frame.source is P and frame.target is y
            assert np.array_equal(frame.flats, fresh) and frame.flats.dtype == fresh.dtype
            assert np.array_equal(frame.free, _free_rows(fresh))
            assert hom_frame(P, y) is frame
            with pytest.raises(ValueError):
                frame.flats[..., :1] = 1
            seen += 1
    assert seen > 50


def test_a_cached_frame_stays_with_its_algebra(A1, Lam1):
    """A1 and its dual-numbers extension share vertex names, so one vertex
    tuple names a projective sum over each; the frame kept on a target
    belongs to the target's algebra alone."""
    verts = tuple(A1.quiver.vertices[:2])
    assert set(verts) <= set(Lam1.quiver.vertices)
    for alg in (A1, Lam1):
        y = random_module(alg, np.random.default_rng(53))
        other = Lam1 if alg is A1 else A1
        frame = hom_frame(_proj_sum(alg, verts).rep, y)
        assert frame.source is _proj_sum(alg, verts).rep and frame.source.algebra is alg
        with pytest.raises(ValueError):
            hom_frame(_proj_sum(other, verts).rep, y)
        assert hom_frame(_proj_sum(alg, verts).rep, y) is frame
