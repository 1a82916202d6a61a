"""A's indecomposables are the tau^-1-orbits of its projectives.

`Corpus.indecomposables_A` lists P_v, tau^-1 P_v, ... for each vertex v,
tau^-1 = Tr D, which over a representation-directed algebra are all the
indecomposables, each once.  The string modules are kept here as the
reference they are compared with: walks through the quiver that use
arrows forwards or backwards, with no immediate backtracking and no
forbidden length-two composite, each built as a representation, kept
when its End is local and grouped up to isomorphism.  Walks have at most
2|arrows| + 1 letters; for tree quivers they give every indecomposable.
"""

import numpy as np
import pytest

from quivhom.algebra import path_arrows
from quivhom.complexes import module_complex
from quivhom.corpus import _tau_inverse_orbits, corpus, gentle_tree_algebra, interval_module
from quivhom.exactlin import Matrix
from quivhom.homological import find_iso, group_isomorphic, is_isomorphic
from quivhom.modules import Representation, hom_frame, projective, simple
from tests.conftest import local_end

# -- the reference: string modules from walks ------------------------------------


def monomial_quadratic_relations(alg):
    forbidden = set()
    for r in alg.relations:
        if len(r) != 1:
            raise ValueError("string enumeration needs monomial relations")
        (pth,) = r.keys()
        arrows = path_arrows(pth)
        if len(arrows) != 2:
            raise ValueError("string enumeration needs quadratic relations")
        forbidden.add(arrows)
    return forbidden


def walks(alg, forbidden):
    q = alg.quiver
    max_len = 2 * len(q.arrows) + 1
    letters = [(a, +1) for a, _, _ in q.arrows] + [(a, -1) for a, _, _ in q.arrows]

    def endpoint(letter, at):
        a, d = letter
        if d == +1:
            return q.target(a) if at == q.source(a) else None
        return q.source(a) if at == q.target(a) else None

    def ok_pair(l1, l2):
        (a1, d1), (a2, d2) = l1, l2
        if a1 == a2 and d1 != d2:
            return False  # immediate backtrack
        if d1 == +1 and d2 == +1 and (a1, a2) in forbidden:
            return False
        if d1 == -1 and d2 == -1 and (a2, a1) in forbidden:
            return False
        return True

    out = []
    stack = [((v,), ()) for v in q.vertices]
    while stack:
        verts, word = stack.pop()
        out.append((verts, word))
        if len(word) >= max_len:
            continue
        for letter in letters:
            nxt = endpoint(letter, verts[-1])
            if nxt is None:
                continue
            if word and not ok_pair(word[-1], letter):
                continue
            stack.append((verts + (nxt,), word + (letter,)))
    return out


def string_module(alg, verts, word):
    """The representation of a walk, or None when a relation fails on it."""
    dims = {v: 0 for v in alg.quiver.vertices}
    coord = []
    for v in verts:
        coord.append(dims[v])
        dims[v] += 1
    mats = {n: np.zeros((dims[t], dims[s]), dtype=np.int64) for n, s, t in alg.quiver.arrows}
    for j, (a, d) in enumerate(word):
        if d == +1:
            mats[a][coord[j + 1], coord[j]] = 1
        else:
            mats[a][coord[j], coord[j + 1]] = 1
    try:
        return Representation(alg, dims, {n: Matrix(alg.p, m) for n, m in mats.items()})
    except ValueError:
        return None


def reversed_walk(verts, word):
    return tuple(reversed(verts)), tuple((a, -d) for a, d in reversed(word))


def string_modules(alg):
    """The indecomposable string modules up to isomorphism, each the first
    of its class in walk order; a walk and its reverse give one module."""
    local = []
    for verts, word in walks(alg, monomial_quadratic_relations(alg)):
        if reversed_walk(verts, word) < (verts, word):
            continue
        m = string_module(alg, verts, word)
        if m is not None and local_end(m):
            local.append(module_complex(m))
    return [c.terms[0] for c, _ in group_isomorphic(local, lambda c: c.terms[0].dims)]


# -- the reference itself -----------------------------------------------------------


@pytest.fixture(scope="module")
def C1():
    return corpus(1)


def test_linear_quiver_recovers_intervals(C1):
    mods = string_modules(C1.B)
    # the linear quiver on 4 vertices has exactly 4+3+2+1 indecomposables
    assert len(mods) == 10
    intervals = [interval_module(C1.B, i, l) for i in range(4) for l in range(1, 5 - i)]
    for iv in intervals:
        assert any(m.dims == iv.dims and is_isomorphic(m, iv) for m in mods)


def test_tree_algebra_strings(C1):
    """The strings and the orbits of corpus-1 A: simples, three edge
    modules and the projective at the branch vertex."""
    for mods in (string_modules(C1.A), C1.indecomposables_A()):
        assert len(mods) == 8
        for v in C1.A.quiver.vertices:
            assert any(is_isomorphic(m, simple(C1.A, v)) for m in mods if m.total_dim() == 1)
        P1 = projective(C1.A, "1")
        assert any(m.dims == P1.dims and is_isomorphic(m, P1) for m in mods)
        # the forbidden composite rules out any module supported on 1-3-2
        assert not any(m.dims == {"0": 0, "1": 1, "2": 1, "3": 1} for m in mods)


def test_rejects_non_monomial_relations():
    # the dual-numbers extension has binomial commutation relations
    lam = gentle_tree_algebra(1).dual_numbers_extension()
    with pytest.raises(ValueError):
        string_modules(lam)


# -- the orbits against the reference -------------------------------------------------


def hom_row(mods, x):
    """dim Hom(z, x) for z in mods: equal for isomorphic x, so rows that
    differ certify that two modules are not isomorphic."""
    return tuple(hom_frame(z, x).dim for z in mods)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbits_are_the_string_modules(n):
    """A's orbits number (n+1)(n+3), each with a certified local End,
    pairwise non-isomorphic by their Hom rows, and each isomorphic, with a
    witness, to the one string module that shares its Hom row.  B's orbits
    are its interval modules, class for class."""
    c = corpus(n)
    orbits, strings = c.indecomposables_A(), string_modules(c.A)
    assert len(orbits) == len(strings) == (n + 1) * (n + 3)
    assert all(local_end(x) for x in orbits)
    rows = [hom_row(orbits, x) for x in orbits]
    assert len(set(rows)) == len(rows)
    string_rows = [hom_row(orbits, s) for s in strings]
    for x, row in zip(orbits, rows):
        (match,) = [s for s, r in zip(strings, string_rows) if r == row]
        assert find_iso(x, match, 0) is not None
    intervals = {tuple(iv.dims.values()): iv for iv in c.indecomposables_B()}
    b_orbits = _tau_inverse_orbits(c.B)
    assert len(b_orbits) == len(intervals) == len({tuple(x.dims.values()) for x in b_orbits})
    for x in b_orbits:
        assert local_end(x) and find_iso(x, intervals[tuple(x.dims.values())], 0) is not None
