"""`minimize` against the step-map cancellation it replaced.

The reference below cancels one unit at a time, rescanning the whole
complex from its lowest degree, and composes a whole-complex step
projection and step inclusion into the running maps.  The in-place
cancellation must give the same minimal complex and the same proj and
inc, entry for entry and with the same degree keys, and must leave its
input untouched.
"""

import copy

import numpy as np
import pytest

from quivhom.complexes import module_complex, projective_resolution
from quivhom.corpus import corpus
from quivhom.functors import apply_to_module
from quivhom.modules import ProjSummands
from quivhom.projcplx import (
    ProjChainMap,
    ProjComplex,
    _identity_emat,
    _zero_emat,
    element_unit_inverse,
    identity_proj_chain_map,
    minimize,
)
from tests.conftest import proj_direct_sum, random_module
from tests.test_complex_resolution import WINDOWS, complexes
from tests.test_projcplx import contractible_pair


def _dmat(pc, i):
    if i in pc.dmats:
        return pc.dmats[i]
    return _zero_emat(len(pc.summands(i + 1).vertices), len(pc.summands(i).vertices))


def _find_unit(pc):
    for i in sorted(pc.dmats):
        d = pc.dmats[i]
        src = pc.terms[i].vertices
        tgt = pc.terms[i + 1].vertices
        for k in range(len(tgt)):
            for j in range(len(src)):
                if src[j] == tgt[k] and d[k][j].get((src[j], ()), 0):
                    return i, k, j
    return None


def reference_minimize(pc):
    alg = pc.algebra
    cur = pc
    proj = identity_proj_chain_map(pc)
    inc = identity_proj_chain_map(pc)
    while True:
        hit = _find_unit(cur)
        if hit is None:
            return cur, proj, inc
        i, k1, j1 = hit
        src = list(cur.terms[i].vertices)
        tgt = list(cur.terms[i + 1].vertices)
        d = _dmat(cur, i)
        ainv = element_unit_inverse(alg, d[k1][j1])
        js = [j for j in range(len(src)) if j != j1]
        ks = [k for k in range(len(tgt)) if k != k1]
        newd = _zero_emat(len(ks), len(js))
        for a_, k in enumerate(ks):
            for b_, j in enumerate(js):
                corr = alg.mul(alg.mul(d[k1][j], ainv), d[k][j1])
                newd[a_][b_] = alg.add(d[k][j], alg.smul(-1, corr))
        new_terms = dict(cur.terms)
        new_dmats = dict(cur.dmats)
        new_terms[i] = ProjSummands(alg, [src[j] for j in js])
        new_terms[i + 1] = ProjSummands(alg, [tgt[k] for k in ks])
        if js and ks:
            new_dmats[i] = newd
        else:
            new_dmats.pop(i, None)
        if (i - 1) in cur.dmats:
            e = _dmat(cur, i - 1)
            new_dmats[i - 1] = [[e[j][l] for l in range(len(e[0]))] for j in js]
            if not js:
                new_dmats.pop(i - 1, None)
        if (i + 1) in cur.dmats:
            f = _dmat(cur, i + 1)
            new_dmats[i + 1] = [[f[l][k] for k in ks] for l in range(len(f))]
            if not ks:
                new_dmats.pop(i + 1, None)
        nxt = ProjComplex(alg, new_terms, new_dmats, check=False)
        pcomp = {}
        icomp = {}
        for deg, t in nxt.terms.items():
            nt = len(t.vertices)
            if deg == i:
                mat = _zero_emat(nt, len(src))
                imat = _zero_emat(len(src), nt)
                for a_, j in enumerate(js):
                    mat[a_][j] = alg.e(src[j])
                    imat[j][a_] = alg.e(src[j])
                    imat[j1][a_] = alg.smul(-1, alg.mul(d[k1][j], ainv))
            elif deg == i + 1:
                mat = _zero_emat(nt, len(tgt))
                imat = _zero_emat(len(tgt), nt)
                for a_, k in enumerate(ks):
                    mat[a_][k] = alg.e(tgt[k])
                    mat[a_][k1] = alg.smul(-1, alg.mul(ainv, d[k][j1]))
                    imat[k][a_] = alg.e(tgt[k])
            else:
                mat = imat = _identity_emat(alg, t)
            pcomp[deg] = mat
            icomp[deg] = imat
        proj = ProjChainMap(cur, nxt, pcomp).compose(proj)
        inc = inc.compose(ProjChainMap(nxt, cur, icomp))
        cur = nxt


def check_against_reference(pc):
    """Returns the number of summands cancelled."""
    before = ({i: t.vertices for i, t in pc.terms.items()}, copy.deepcopy(pc.dmats))
    mn, proj, inc = minimize(pc)
    assert ({i: t.vertices for i, t in pc.terms.items()}, pc.dmats) == before
    mn0, proj0, inc0 = reference_minimize(pc)
    assert {i: t.vertices for i, t in mn.terms.items()} == {i: t.vertices for i, t in mn0.terms.items()}
    assert mn.dmats == mn0.dmats
    assert proj.comps == proj0.comps
    assert inc.comps == inc0.comps
    assert proj.source is pc and inc.target is pc
    assert proj.target is mn and inc.source is mn
    assert proj.compose(inc).comps == identity_proj_chain_map(mn).comps
    return sum(len(t.vertices) for t in pc.terms.values()) - sum(len(t.vertices) for t in mn.terms.values())


@pytest.mark.parametrize("n", [1, 2])
def test_functor_images_of_corpus_modules(n):
    c = corpus(n)
    cancelled = 0
    for key in sorted(c.M):
        cancelled += check_against_reference(apply_to_module(c.F, c.M[key], c.F.stable_window))
    assert cancelled > 0


@pytest.mark.parametrize("name", ["A1", "Lam1", "keps"])
def test_unminimized_resolution_constructions(name, request):
    """The constructions behind `projective_resolution`, before it
    minimizes them (over A1 they happen to be minimal already)."""
    alg = request.getfixturevalue(name)
    cancelled = 0
    for c in complexes(alg, seed=len(name)):
        for w in WINDOWS:
            projective_resolution(c, w)
            res = c._cache["resolution"]
            terms = {i: ps for i, ps in res.psums.items() if i >= w}
            dmats = {i: d for i, d in res.dmats.items() if i >= w}
            cancelled += check_against_reference(ProjComplex(alg, terms, dmats, check=False))
    assert cancelled == {"A1": 0, "Lam1": 12, "keps": 36}[name]


def test_padded_contractible_sums(A1, Lam1):
    rng = np.random.default_rng(21)
    for alg in (A1, Lam1):
        for _ in range(3):
            m = random_module(alg, rng)
            if m.is_zero():
                continue
            res, _ = projective_resolution(module_complex(m), -3)
            padded = proj_direct_sum([contractible_pair(alg, "1", lo=-1), res, contractible_pair(alg, "0", lo=0)])
            assert check_against_reference(padded) >= 4
    mixed = ProjComplex(
        A1, {0: ProjSummands(A1, ["0", "1"]), 1: ProjSummands(A1, ["1"])}, {0: [[A1.arrow("a1"), A1.e("1")]]}
    )
    assert check_against_reference(mixed) == 2
    assert check_against_reference(contractible_pair(A1, "1")) == 2


def test_a_minimal_complex_comes_back_unchanged(A1):
    res, _ = projective_resolution(module_complex(random_module(A1, np.random.default_rng(22))), -3)
    mn, proj, inc = minimize(res)
    assert mn is res
    assert proj.comps == inc.comps == identity_proj_chain_map(res).comps
