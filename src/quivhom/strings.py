"""String modules for monomial quadratic presentations.

For gentle-style algebras every indecomposable is a string module: a
walk through the quiver using arrows forwards or backwards, avoiding
immediate backtracking and the forbidden length-two compositions.  The
enumeration below is deliberately permissive (it may emit walks that
fail the sharper string-algebra sign conditions); each candidate is
built as a representation, rejected if a relation fails, filtered down
to modules with local endomorphism rings and grouped up to isomorphism
by `homological.group_isomorphic`.  Walks have at most 2|arrows| + 1
letters.  For tree quivers this recovers the full list of indecomposables.
"""

from __future__ import annotations

import numpy as np

from .algebra import BoundQuiverAlgebra, path_arrows
from .complexes import module_complex
from .exactlin import Matrix
from .homological import _is_local_end, group_isomorphic
from .modules import Representation


def _monomial_quadratic_relations(alg: BoundQuiverAlgebra) -> set[tuple[str, str]]:
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


def _walks(alg: BoundQuiverAlgebra, forbidden):
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


def string_module(alg: BoundQuiverAlgebra, verts, word) -> Representation | None:
    dims = {v: 0 for v in alg.quiver.vertices}
    coord = []
    for v in verts:
        coord.append(dims[v])
        dims[v] += 1
    p = alg.p
    mats = {
        n: np.zeros((dims[t], dims[s]), dtype=np.int64)
        for n, s, t in alg.quiver.arrows
    }
    for j, (a, d) in enumerate(word):
        if d == +1:
            mats[a][coord[j + 1], coord[j]] = 1
        else:
            mats[a][coord[j], coord[j + 1]] = 1
    try:
        return Representation(alg, dims, {n: Matrix(p, m) for n, m in mats.items()})
    except ValueError:
        return None


def enumerate_string_modules(alg: BoundQuiverAlgebra) -> list[Representation]:
    """All indecomposable string modules up to isomorphism, each the first
    of its class in walk order."""
    forbidden = _monomial_quadratic_relations(alg)
    local = []
    for verts, word in _walks(alg, forbidden):
        # a walk and its reverse give the same module: keep one
        rev = (tuple(reversed(verts)), tuple((a, -d) for a, d in reversed(word)))
        if rev < (verts, word):
            continue
        m = string_module(alg, verts, word)
        if m is not None and _is_local_end(m):
            local.append(module_complex(m))
    return [c.terms[0] for c, _ in group_isomorphic(local, lambda c: c.terms[0].dims)]
