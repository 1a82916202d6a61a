"""Cohomology dimensions are rank counts.

`homology_dims`, `is_acyclic`, `good_truncate_geq0`, `hom_k_dim`, `ext`
and `ext_row` read dim C^n - rk d^n - rk d^(n-1) off the ranks of the
differentials, and build no homology module, class basis or nullspace;
`is_quasi_iso` asks whether the cone is acyclic.  The references kept
here are what they no longer build: the homology module `homology(c, i)`,
the maps `induced_homology_map(f, i)` and the Hom space `hom_frame(m, n)`.
"""

import numpy as np
import pytest

from quivhom import complexes, homological
from quivhom.complexes import (
    brutal_truncate_geq,
    brutal_truncate_lt,
    cone,
    good_truncate_geq0,
    hom_d_dim,
    hom_k_dim,
    homology,
    homology_dims,
    identity_chain_map,
    induced_homology_map,
    is_acyclic,
    is_quasi_iso,
    module_complex,
    projective_resolution,
)
from quivhom.corpus import corpus
from quivhom.exactlin import inverse
from quivhom.functors import apply_to_module
from quivhom.homological import ext, ext_row
from quivhom.modules import hom_frame, simple
from tests.conftest import random_module, random_three_term_complex, random_two_term_complex
from tests.test_complex_resolution import complexes as resolution_inputs
from tests.test_derived_hom import stalk_groups


def reference_homology_dims(c):
    dims = {i: homology(c, i).total_dim() for i in range(c.lo - 1, c.hi + 2)}
    return {i: d for i, d in dims.items() if d}


def complex_cases(alg, seed):
    """The inputs of `test_complex_resolution`, their resolutions, the
    cones of the comparisons and of identities, and brutal truncations."""
    out = []
    for c in resolution_inputs(alg, seed):
        pc, eps = projective_resolution(c, -4)
        out += [c, pc.to_complex(), cone(eps)[0], cone(identity_chain_map(c))[0]]
        out += [brutal_truncate_geq(c, c.lo + 1), brutal_truncate_lt(c, c.hi)]
    return out


@pytest.mark.parametrize("name", ["A1", "Lam1", "keps"])
def test_homology_dims_match_the_homology_modules(name, request):
    cases = complex_cases(request.getfixturevalue(name), seed=len(name))
    acyclic = 0
    for c in cases:
        want = reference_homology_dims(c)
        assert homology_dims(c) == want
        assert is_acyclic(c) == (not want)
        acyclic += not want
    assert 0 < acyclic < len(cases)


def reference_is_quasi_iso(f):
    """Every induced map H^i(f) is square and invertible at every vertex."""
    for i in range(min(f.source.lo, f.target.lo) - 1, max(f.source.hi, f.target.hi) + 2):
        hx, hy, mats = induced_homology_map(f, i)
        if hx.dims != hy.dims:
            return False
        if any(m.rows != m.cols or (m.rows and inverse(m) is None) for m in mats.values()):
            return False
    return True


@pytest.mark.parametrize("name", ["A1", "Lam1", "keps"])
def test_quasi_isomorphisms_match_the_induced_homology_maps(name, request):
    """The resolution comparisons, identities, and the two canonical maps
    of each of their cones."""
    alg = request.getfixturevalue(name)
    maps = []
    for c in resolution_inputs(alg, seed=len(name)):
        for f in (projective_resolution(c, -4)[1], identity_chain_map(c)):
            _, incl, proj = cone(f)
            maps += [f, incl, proj]
    quasi = 0
    for f in maps:
        want = reference_is_quasi_iso(f)
        assert is_quasi_iso(f) == want
        quasi += want
    assert 0 < quasi < len(maps)


@pytest.mark.parametrize("name", ["A1", "Lam1", "keps"])
def test_good_truncation_refuses_exactly_negative_homology(name, request):
    refused = 0
    for c in complex_cases(request.getfixturevalue(name), seed=len(name)):
        want = reference_homology_dims(c)
        if any(i < 0 for i in want):
            with pytest.raises(ValueError):
                good_truncate_geq0(c)
            refused += 1
        else:
            t, _ = good_truncate_geq0(c)
            assert homology_dims(t) == reference_homology_dims(t) == want
    assert refused


def test_homology_dims_of_the_images_of_corpus_simples():
    c = corpus(1)
    nonzero = 0
    for f in (c.F, c.F_BA, c.G, c.G_AB):
        for v in f.source.quiver.vertices:
            x = apply_to_module(f, simple(f.source, v), -4).to_complex()
            want = reference_homology_dims(x)
            assert homology_dims(x) == want and is_acyclic(x) == (not want)
            nonzero += bool(want)
    assert nonzero


def test_ext0_is_the_hom_space():
    nonzero = 0
    for group in stalk_groups(corpus(1)):
        for m in group:
            for n in group:
                d = ext(m, n, 0)
                assert d == hom_frame(m, n).dim
                nonzero += bool(d)
    assert nonzero > 50


def test_ext_row_rejects_a_negative_length(A1):
    s = simple(A1, "1")
    with pytest.raises(ValueError):
        ext_row(s, -1)
    with pytest.raises(ValueError):
        ext(s, s, -1)
    assert ext_row(s, 0) == []


def guarded_inputs(A1, Lam1):
    """Complexes and modules made from one seed, so two calls give equal
    inputs with nothing cached on them yet."""
    rng = np.random.default_rng(61)
    cxs, mods = [], []
    for alg in (A1, Lam1):
        cxs += [random_two_term_complex(alg, rng), random_two_term_complex(alg, rng, -1), random_three_term_complex(alg, rng)]
        mods += [random_module(alg, rng) for _ in range(3)] + [simple(alg, v) for v in alg.quiver.vertices[:2]]
    cxs += [cone(identity_chain_map(x))[0] for x in cxs[:2]]
    return cxs, mods


def truncated(c):
    try:
        t, _ = good_truncate_geq0(c)
    except ValueError as err:
        return str(err)
    return {i: t.terms[i].dims for i in t.terms}


def rank_answers(inputs):
    cxs, mods = inputs
    same_alg = [(x, y) for x in cxs for y in cxs if x.algebra is y.algebra]
    pairs = [(m, n) for m in mods for n in mods if m.algebra is n.algebra]
    return (
        [hom_k_dim(x, y, n) for x, y in same_alg for n in range(-2, 3)],
        [hom_d_dim(module_complex(m), module_complex(n), i) for m, n in pairs[::3] for i in range(3)],
        [homology_dims(x) for x in cxs],
        [is_acyclic(x) for x in cxs],
        [truncated(x) for x in cxs],
        [ext(m, n, i) for m, n in pairs for i in range(3)],
        [ext_row(m, 3) for m in mods],
        [is_quasi_iso(cone(identity_chain_map(x))[k]) for x in cxs for k in (1, 2)],
    )


def _raise(*args, **kwargs):
    raise AssertionError("a dimension built a kernel, a quotient or a nullspace")


def test_dimensions_build_no_kernel_quotient_or_nullspace(monkeypatch, A1, Lam1):
    """With `nullspace`, `extending_columns`, `kernel` and
    `quotient_by_bases` raising in `quivhom.complexes`, and `nullspace` in
    `quivhom.homological`, every dimension and `is_quasi_iso` answer as
    before on fresh inputs."""
    fresh = guarded_inputs(A1, Lam1)
    want = rank_answers(guarded_inputs(A1, Lam1))
    hom_k, hom_d, hdims, acyclic, trunc, exts, rows, quasi = want
    assert any(hom_k) and any(hom_d) and any(exts) and any(map(any, rows))
    assert any(hdims) and any(acyclic) and not all(acyclic)
    assert any(isinstance(t, str) for t in trunc) and any(isinstance(t, dict) for t in trunc)
    assert any(quasi) and not all(quasi)
    for name in ("nullspace", "extending_columns", "kernel", "quotient_by_bases"):
        monkeypatch.setattr(complexes, name, _raise)
    monkeypatch.setattr(homological, "nullspace", _raise)
    assert rank_answers(fresh) == want
