"""Quivers, path rewriting, and bound quiver algebras over F_p.

A path is stored in traversal order: ``(source_vertex, (a1, a2, ...))``
means "start at source_vertex, walk a1, then a2, ...".  The algebra
product follows the usual right-to-left function composition, so the
product ``x * y`` is "traverse y, then x"; concretely
``mul({p: 1}, {q: 1}) = {q ++ p: 1}`` when q's target equals p's source.

Algebra elements are plain dicts mapping paths to coefficients in
[0, p).  The admissible relation ideal is handled by a two-sided
Groebner-style rewriting system with the deglex order (length first,
then lexicographically by arrow-name sequence), which yields a
deterministic irreducible-path basis and normal forms for all products
of basis paths.  Finiteness is decided from the leading monomials, and
the completion's length bound is worked out from the longest
irreducible path.
"""

from __future__ import annotations

import functools

from .exactlin import DEFAULT_PRIME, check_prime

Path = tuple[str, tuple[str, ...]]
Element = dict[Path, int]


_MISS = object()


def cached(fn):
    """Declares a memo: fn(owner, *args) is kept in owner._cache under
    (fn.__name__, *args), or under fn.__name__ when fn takes the owner
    alone, so it is computed once per owner and lives as long as the owner.
    The args are positional and hashable.  One wrapper per arity keeps a
    hit to one dict lookup, with no key built for the owner alone."""
    name = fn.__name__
    if fn.__code__.co_argcount == 1:
        def memo(owner):
            hit = owner._cache.get(name, _MISS)
            if hit is _MISS:
                hit = owner._cache[name] = fn(owner)
            return hit
    elif fn.__code__.co_argcount == 2:
        def memo(owner, arg):
            key = (name, arg)
            hit = owner._cache.get(key, _MISS)
            if hit is _MISS:
                hit = owner._cache[key] = fn(owner, arg)
            return hit
    else:
        def memo(owner, *args):
            key = (name, *args)
            hit = owner._cache.get(key, _MISS)
            if hit is _MISS:
                hit = owner._cache[key] = fn(owner, *args)
            return hit
    return functools.wraps(fn)(memo)


class NonAdmissibleError(ValueError):
    """Raised when the relations are not shown to leave finitely many paths."""


# The longest ambiguity resolved while the leading monomials still leave
# infinitely many paths (a completion that has not ended may yet end).
_AMBIGUITY_BUDGET = 32


class Quiver:
    """A finite directed graph with named vertices and arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(str(v) for v in vertices)
        self.arrows = tuple((str(n), str(s), str(t)) for n, s, t in arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vset = set(self.vertices)
        for n, s, t in self.arrows:
            if s not in vset or t not in vset:
                raise ValueError(f"arrow {n}: endpoint not a vertex")
        self.arrow_by_name = {n: (s, t) for n, s, t in self.arrows}
        self.out_arrows = {v: [] for v in self.vertices}
        for n, s, t in self.arrows:
            self.out_arrows[s].append(n)

    def source(self, arrow: str) -> str:
        return self.arrow_by_name[arrow][0]

    def target(self, arrow: str) -> str:
        return self.arrow_by_name[arrow][1]

    def reversed(self) -> "Quiver":
        return Quiver(self.vertices, [(n, t, s) for n, s, t in self.arrows])

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


def path_source(p: Path) -> str:
    return p[0]


def path_arrows(p: Path) -> tuple[str, ...]:
    return p[1]


def path_len(p: Path) -> int:
    return len(p[1])


def _order_key(p: Path):
    # deglex: length, then arrow-name sequence, then source (to totalize
    # over trivial paths at different vertices)
    return (len(p[1]), p[1], p[0])


class BoundQuiverAlgebra:
    """Finite-dimensional quotient of a path algebra by an admissible ideal.

    relations: list of Elements; every monomial must be a path of length
    >= 2 and all paths within one relation must be parallel.
    """

    def __init__(self, quiver: Quiver, relations, p: int = DEFAULT_PRIME):
        self.quiver = quiver
        self.p = check_prime(p)
        self.relations: tuple[Element, ...] = tuple(
            self._canonical(dict(r)) for r in relations
        )
        for r in self.relations:
            self._validate_relation(r)
        self._gb, succ = self._certified_system()
        self.path_basis: tuple[Path, ...] = self._irreducible_paths(succ)
        self.dim = len(self.path_basis)
        self.basis_index = {pth: i for i, pth in enumerate(self.path_basis)}
        self.basis_by_source: dict[str, list[Path]] = {v: [] for v in quiver.vertices}
        for pth in self.path_basis:
            self.basis_by_source[path_source(pth)].append(pth)
        self._mul_cache: dict[tuple[Path, Path], Element] = {}
        self._cache: dict = {}  # the memos of `cached`
        # set on a dual-numbers extension: the algebra it extends, and the
        # square-zero loop of each vertex
        self.base: "BoundQuiverAlgebra | None" = None
        self.loops: dict[str, str] = {}

    # -- construction helpers -------------------------------------------

    def path_target(self, p: Path) -> str:
        v = path_source(p)
        for a in path_arrows(p):
            if self.quiver.source(a) != v:
                raise ValueError(f"path {p} not composable at {a}")
            v = self.quiver.target(a)
        return v

    def _validate_relation(self, r: Element):
        for pth in r:
            if path_len(pth) < 2:
                raise ValueError(f"relation contains a path of length < 2: {pth}")
        if r and self.element_source_target(r) is None:
            raise ValueError("relation mixes non-parallel paths")

    def _canonical(self, e: Element) -> Element:
        out = {}
        for pth, c in e.items():
            pth = (str(pth[0]), tuple(str(a) for a in pth[1]))
            self.path_target(pth)  # validates composability
            c = c % self.p
            if c:
                out[pth] = c
        return out

    # -- rewriting -------------------------------------------------------

    def _reduce(self, e: Element, gb) -> Element:
        p = self.p
        e = {k: v % p for k, v in e.items() if v % p}
        while True:
            hit = None
            for pth in sorted(e, key=_order_key, reverse=True):
                word = path_arrows(pth)
                for lm, g in gb:
                    w = path_arrows(lm)
                    L = len(w)
                    for i in range(len(word) - L + 1):
                        if word[i : i + L] == w:
                            hit = (pth, i, lm, g)
                            break
                    if hit:
                        break
                if hit:
                    break
            if not hit:
                return e
            pth, i, lm, g = hit
            word = path_arrows(pth)
            coeff = e.pop(pth)
            # pth = u . lm . w ; subtract coeff * u . g . w  (g is monic,
            # its leading monomial cancels exactly)
            src = path_source(pth)
            pre = word[:i]
            post = word[i + len(path_arrows(lm)) :]
            for mono, c in g.items():
                if mono == lm:
                    continue
                new_word = pre + path_arrows(mono) + post
                new_path = (src, new_word)
                e[new_path] = (e.get(new_path, 0) - coeff * c) % self.p
                if not e[new_path]:
                    del e[new_path]

    def _certified_system(self):
        """The completed rewriting system and its automaton's transitions.

        With m the longest irreducible path, resolving every ambiguity up to
        length 2m + 2 certifies the normal form of every product of two basis
        paths (Bergman's diamond lemma).  The first bound is twice the longest
        relation path plus 2.  While the leading monomials leave infinitely
        many paths and an ambiguity was skipped, the bound doubles, up to
        ``_AMBIGUITY_BUDGET``; with none skipped, the refusal is exact."""
        bound = 2 * max((path_len(q) for r in self.relations for q in r), default=0) + 2
        while True:
            gb, skipped = self._complete(bound)
            succ, m = self._automaton({path_arrows(lm) for lm, _ in gb})
            if m is not None and (not skipped or 2 * m + 2 <= bound):
                return gb, succ
            if not skipped:
                raise NonAdmissibleError("infinitely many irreducible paths; the relation ideal is not admissible")
            if m is None and bound >= _AMBIGUITY_BUDGET:
                raise NonAdmissibleError(f"not certified finite from ambiguities up to length {bound}")
            bound = min(2 * bound, _AMBIGUITY_BUDGET) if m is None else 2 * m + 2

    def _complete(self, bound: int):
        """Add to the relations the reduced S-polynomial of every ambiguity
        up to length bound, and say whether a longer one was skipped."""
        p = self.p
        gb: list[tuple[Path, Element]] = []

        def insert(e: Element):
            e = self._reduce(e, gb)
            if e:
                lm = max(e, key=_order_key)
                gb.append((lm, self.smul(pow(e[lm], p - 2, p), e)))

        for r in self.relations:
            insert(r)
        skipped = False
        done = 0
        while done < len(gb):
            lm1, g1 = gb[done]
            done += 1
            for lm2, g2 in list(gb):
                for s1, w1, s2, w2 in ((lm1, g1, lm2, g2), (lm2, g2, lm1, g1)):
                    a1, a2 = path_arrows(s1), path_arrows(s2)
                    n1, n2 = len(a1), len(a2)
                    # s2 starts at offset j of s1 and runs past its end
                    # (an overlap) or ends inside it (an inclusion)
                    for j in range(n1):
                        if (j == 0 and n2 >= n1) or a1[j : j + n2] != a2[: n1 - j]:
                            continue
                        tail = a2[n1 - j :]
                        if n1 + len(tail) > bound:
                            skipped = True
                            continue
                        # the superposition's two rewrites: w1 before tail,
                        # and w2 spliced between a1's head and tail
                        src = path_source(s1)
                        insert(self.add(
                            {(src, path_arrows(mono) + tail): c for mono, c in w1.items()},
                            {(src, a1[:j] + path_arrows(mono) + a1[j + n2 :]): -c for mono, c in w2.items()},
                        ))
        return gb, skipped

    def _automaton(self, lms: set[tuple[str, ...]]):
        """The transitions {state: [(arrow, next state)]} of the paths with no
        factor in lms, from the trivial paths, and the longest path's length
        (None if infinitely many paths avoid lms: a cycle, by Ufnarovskii).
        A state is (vertex, longest suffix of the path that begins a word of
        lms), which decides the arrows that may follow.  The depth-first
        search is iterative: the state count can pass the recursion limit."""
        begins = {w[:i] for w in lms for i in range(len(w))} | {()}

        def moves(state):
            v, u = state
            out = []
            for a in self.quiver.out_arrows[v]:
                word = u + (a,)
                suffixes = [word[i:] for i in range(len(word) + 1)]
                if lms.isdisjoint(suffixes):
                    out.append((a, (self.quiver.target(a), next(s for s in suffixes if s in begins))))
            return out

        succ: dict = {}
        height: dict = {}
        stack = [(v, ()) for v in self.quiver.vertices]
        while stack:
            state = stack[-1]
            if state in succ:  # second visit: every successor is finished
                stack.pop()
                height[state] = max((height[n] + 1 for _, n in succ[state]), default=0)
                continue
            succ[state] = moves(state)
            for _, nxt in succ[state]:
                if nxt not in succ:
                    stack.append(nxt)
                elif nxt not in height:  # entered, unfinished: on the search path
                    return succ, None
        return succ, max(height.values(), default=0)

    def _irreducible_paths(self, succ) -> tuple[Path, ...]:
        out: list[Path] = []
        for v in self.quiver.vertices:
            stack = [((v, ()), ())]
            while stack:
                state, word = stack.pop()
                out.append((v, word))
                stack.extend((nxt, word + (a,)) for a, nxt in succ[state])
        return tuple(sorted(out, key=_order_key))

    # -- element arithmetic ----------------------------------------------

    def nf(self, e: Element) -> Element:
        """Normal form of an element modulo the relation ideal."""
        return self._reduce(dict(e), self._gb)

    def e(self, v: str) -> Element:
        """The trivial path at v, as an element."""
        if v not in self.quiver.vertices:
            raise ValueError(f"unknown vertex {v}")
        return {(v, ()): 1}

    def arrow(self, name: str) -> Element:
        s = self.quiver.source(name)
        return {(s, (name,)): 1}

    def add(self, *elems: Element) -> Element:
        out: Element = {}
        for e in elems:
            for k, v in e.items():
                out[k] = (out.get(k, 0) + v) % self.p
        return {k: v for k, v in out.items() if v}

    def smul(self, c: int, e: Element) -> Element:
        c = c % self.p
        return {k: (v * c) % self.p for k, v in e.items() if (v * c) % self.p}

    def mul(self, x: Element, y: Element) -> Element:
        """Algebra product x*y = "traverse y, then x", in normal form, summed
        pair by pair from the product table ``mul_basis``."""
        p = self.p
        out: Element = {}
        for py, cy in y.items():
            for px, cx in x.items():
                c = cx * cy % p
                for mono, c2 in self.mul_basis(px, py).items():
                    out[mono] = (out.get(mono, 0) + c * c2) % p
        return {k: v for k, v in out.items() if v}

    def mul_basis(self, i: Path, j: Path) -> Element:
        """The product table that every product reads: (path i) * (path j),
        i.e. j then i, in normal form; {} unless j ends where i starts.
        Filled lazily in ``_mul_cache``, so each pair is rewritten by ``nf``
        at most once.  The result is shared: callers must not mutate it."""
        key = (i, j)
        prod = self._mul_cache.get(key)
        if prod is None:
            if self.path_target(j) != path_source(i):
                prod = {}
            else:
                prod = self.nf({(path_source(j), path_arrows(j) + path_arrows(i)): 1})
            self._mul_cache[key] = prod
        return prod

    def element_source_target(self, e: Element) -> tuple[str, str] | None:
        """(source, target) if all monomials are parallel, else None."""
        ends = None
        for pth in e:
            cur = (path_source(pth), self.path_target(pth))
            if ends is None:
                ends = cur
            elif ends != cur:
                return None
        return ends

    # -- derived algebras --------------------------------------------------

    @cached
    def opposite(self) -> "BoundQuiverAlgebra":
        """Same arrows with reversed orientation; relation paths reversed; its opposite is self."""
        rq = self.quiver.reversed()
        rrels = []
        for r in self.relations:
            nr: Element = {}
            for pth, c in r.items():
                arrows = tuple(reversed(path_arrows(pth)))
                nr[(self.path_target(pth), arrows)] = c
            rrels.append(nr)
        op = BoundQuiverAlgebra(rq, rrels, p=self.p)
        op._cache["opposite"] = self
        return op

    def _eps_presentation(self):
        """The loop of each vertex, and the quiver and relations of the
        dual-numbers extension: the base's arrows, then the loops; the
        base's relations, then eps^2 = 0 at each vertex and a eps = eps a
        for each arrow."""
        eps = {v: f"eps_{v}" for v in self.quiver.vertices}
        taken = {n for n, _, _ in self.quiver.arrows}
        for v, name in eps.items():
            if name in taken:
                raise ValueError(f"arrow name {name} already used; rename arrows")
        arrows = list(self.quiver.arrows) + [(eps[v], v, v) for v in self.quiver.vertices]
        rels: list[Element] = [dict(r) for r in self.relations]
        for v in self.quiver.vertices:
            rels.append({(v, (eps[v], eps[v])): 1})
        for n, s, t in self.quiver.arrows:
            rels.append({(s, (n, eps[t])): 1, (s, (eps[s], n)): self.p - 1})
        return eps, Quiver(self.quiver.vertices, arrows), rels

    @cached
    def dual_numbers_extension(self) -> "BoundQuiverAlgebra":
        """Tensor with k[eps]/(eps^2): one square-zero loop per vertex that
        commutes with every arrow.  The dimension doubles.  Built once per
        algebra; the extension records its `base` and the `loops` by vertex.
        """
        eps, q2, rels = self._eps_presentation()
        ext = BoundQuiverAlgebra(q2, rels, p=self.p)
        ext.base, ext.loops = self, eps
        return ext

    def spells_extension_of(self, base: "BoundQuiverAlgebra") -> bool:
        """Whether self is presented as `base.dual_numbers_extension()`:
        the same field and vertices, the same arrows in order (the loops
        named as that method names them) and the same relations as a set."""
        if self is base or self.p != base.p or self.dim != 2 * base.dim:
            return False
        try:
            _, q2, rels = base._eps_presentation()
        except ValueError:
            return False
        return self.quiver == q2 and {frozenset(r.items()) for r in self.relations} == {
            frozenset(r.items()) for r in rels
        }

    def __repr__(self):
        return (
            f"BoundQuiverAlgebra(dim={self.dim}, p={self.p}, "
            f"{len(self.quiver.vertices)} vertices, {len(self.quiver.arrows)} arrows)"
        )


@functools.cache
def _linear_quiver(m: int) -> Quiver:
    verts = [str(i) for i in range(m)]
    arrows = [(f"b{i}", str(i), str(i + 1)) for i in range(m - 1)]
    return Quiver(verts, arrows)


def linear_algebra_An(m: int, p: int = DEFAULT_PRIME) -> BoundQuiverAlgebra:
    """Path algebra of the linear quiver 0 -> 1 -> ... -> m-1 (no relations)."""
    return BoundQuiverAlgebra(_linear_quiver(m), [], p=p)


def one_vertex_algebra(p: int = DEFAULT_PRIME) -> BoundQuiverAlgebra:
    """The ground field as a bound quiver algebra."""
    return BoundQuiverAlgebra(Quiver(["0"], []), [], p=p)


def dual_numbers(p: int = DEFAULT_PRIME) -> BoundQuiverAlgebra:
    """k[eps]/(eps^2) as a one-vertex quiver algebra."""
    return one_vertex_algebra(p).dual_numbers_extension()
