"""Finite-dimensional representations of bound quiver algebras.

A representation assigns a space F_p^{dims[v]} to each vertex and a
matrix (rows = target dim, cols = source dim) to each arrow, acting on
column vectors; composition of morphisms is right-to-left.  Every
relation of the algebra must evaluate to the zero matrix; this is
checked at construction.

Maps between direct sums of indecomposable projectives are routinely
converted to "element matrices" whose entries are algebra elements
(Hom(P_v, P_w) = e_v A e_w via phi -> phi(generator), with phi acting as
right multiplication).  That exact combinatorial form drives the
resolution, transpose, and functor machinery downstream.
"""

from __future__ import annotations

import numpy as np

from .algebra import BoundQuiverAlgebra, Element, Path, path_arrows, path_source
from .exactlin import (
    Matrix,
    column_space_basis,
    inverse,
    kron,
    nullspace,
    rank,
    rref,
    solve,
)


class Representation:
    """Immutable representation (module) over a bound quiver algebra."""

    __slots__ = ("algebra", "dims", "mats", "_cache")

    def __init__(self, algebra: BoundQuiverAlgebra, dims, mats, check: bool = True):
        self.algebra = algebra
        p = algebra.p
        self.dims = {v: int(dims.get(v, 0)) for v in algebra.quiver.vertices}
        if any(d < 0 for d in self.dims.values()):
            raise ValueError("negative dimension")
        self.mats = {}
        for n, s, t in algebra.quiver.arrows:
            m = mats.get(n)
            if m is None:
                m = Matrix.zeros(p, self.dims[t], self.dims[s])
            if m.shape() != (self.dims[t], self.dims[s]):
                raise ValueError(
                    f"arrow {n}: matrix shape {m.shape()} does not match "
                    f"({self.dims[t]}, {self.dims[s]})"
                )
            self.mats[n] = m
        self._cache = {}
        if check:
            for r in algebra.relations:
                if r and not self.evaluate(r).is_zero():
                    raise ValueError(f"relation {r} does not vanish on representation")

    # -- basics ---------------------------------------------------------

    @property
    def p(self) -> int:
        return self.algebra.p

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def dim_vector(self) -> dict[str, int]:
        return dict(self.dims)

    def path_matrix(self, pth: Path) -> Matrix:
        v = path_source(pth)
        m = Matrix.identity(self.p, self.dims[v])
        for a in path_arrows(pth):
            m = self.mats[a] @ m
        return m

    def evaluate(self, e: Element) -> Matrix:
        """Action matrix of a parallel-path element (target dim x source dim)."""
        ends = self.algebra.element_source_target(e)
        if ends is None:
            raise ValueError("element mixes non-parallel paths")
        s, t = ends
        out = Matrix.zeros(self.p, self.dims[t], self.dims[s])
        for pth, c in e.items():
            out = out + self.path_matrix(pth).scale(c)
        return out

    def __repr__(self):
        dv = ",".join(f"{v}:{d}" for v, d in self.dims.items())
        return f"Rep({dv})"


class RepHom:
    """Morphism of representations: one matrix per vertex, commuting with
    every arrow action."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: Representation, target: Representation, mats, check: bool = True):
        if source.algebra is not target.algebra:
            raise ValueError("morphism between different algebras")
        self.source = source
        self.target = target
        p = source.p
        self.mats = {}
        for v in source.algebra.quiver.vertices:
            m = mats.get(v)
            if m is None:
                m = Matrix.zeros(p, target.dims[v], source.dims[v])
            if m.shape() != (target.dims[v], source.dims[v]):
                raise ValueError(f"vertex {v}: bad shape {m.shape()}")
            self.mats[v] = m
        if check:
            for n, s, t in source.algebra.quiver.arrows:
                lhs = target.mats[n] @ self.mats[s]
                rhs = self.mats[t] @ source.mats[n]
                if lhs != rhs:
                    raise ValueError(f"square at arrow {n} does not commute")

    def __call__(self, v: str) -> Matrix:
        return self.mats[v]

    def compose(self, other: "RepHom") -> "RepHom":
        """self after other (right-to-left)."""
        if other.target is not self.source and other.target.dims != self.source.dims:
            raise ValueError("composition mismatch")
        return RepHom(
            other.source,
            self.target,
            {v: self.mats[v] @ other.mats[v] for v in self.mats},
            check=False,
        )

    def __add__(self, other: "RepHom") -> "RepHom":
        return RepHom(
            self.source,
            self.target,
            {v: self.mats[v] + other.mats[v] for v in self.mats},
            check=False,
        )

    def __sub__(self, other: "RepHom") -> "RepHom":
        return RepHom(
            self.source,
            self.target,
            {v: self.mats[v] - other.mats[v] for v in self.mats},
            check=False,
        )

    def __neg__(self) -> "RepHom":
        return RepHom(self.source, self.target, {v: -m for v, m in self.mats.items()}, check=False)

    def scale(self, c: int) -> "RepHom":
        return RepHom(self.source, self.target, {v: m.scale(c) for v, m in self.mats.items()}, check=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def is_iso(self) -> bool:
        return all(
            m.rows == m.cols and inverse(m) is not None for m in self.mats.values()
        )

    def flat(self) -> np.ndarray:
        """All vertex matrices concatenated into one coordinate vector."""
        parts = [self.mats[v].data.reshape(-1) for v in self.source.algebra.quiver.vertices]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    def verify(self) -> bool:
        for n, s, t in self.source.algebra.quiver.arrows:
            if self.target.mats[n] @ self.mats[s] != self.mats[t] @ self.source.mats[n]:
                return False
        return True

    def __repr__(self):
        return f"RepHom({self.source!r} -> {self.target!r})"


def identity_hom(m: Representation) -> RepHom:
    return RepHom(m, m, {v: Matrix.identity(m.p, d) for v, d in m.dims.items()}, check=False)


def zero_hom(m: Representation, n: Representation) -> RepHom:
    return RepHom(m, n, {}, check=False)


# -- constructions -----------------------------------------------------


def zero_rep(alg: BoundQuiverAlgebra) -> Representation:
    return Representation(alg, {}, {}, check=False)


def simple(alg: BoundQuiverAlgebra, v: str) -> Representation:
    return Representation(alg, {v: 1}, {}, check=False)


def projective(alg: BoundQuiverAlgebra, v: str) -> Representation:
    """Indecomposable projective at v: basis = irreducible paths starting
    at v, graded by their target vertex; arrows act by appending."""
    key = ("proj", v)
    cached = alg._proj_cache
    if key in cached:
        return cached[key]
    paths = alg.basis_by_source[v]
    by_target: dict[str, list[Path]] = {w: [] for w in alg.quiver.vertices}
    for pth in paths:
        by_target[alg.path_target(pth)].append(pth)
    dims = {w: len(by_target[w]) for w in alg.quiver.vertices}
    mats = {}
    for n, s, t in alg.quiver.arrows:
        m = np.zeros((dims[t], dims[s]), dtype=np.int64)
        for j, pth in enumerate(by_target[s]):
            for mono, c in alg.mul_basis((s, (n,)), pth).items():
                i = by_target[t].index(mono)
                m[i, j] = c
        mats[n] = Matrix(alg.p, m)
    rep = Representation(alg, dims, mats)
    rep._cache["proj_layout"] = by_target
    cached[key] = rep
    return rep


def regular_module(alg: BoundQuiverAlgebra) -> Representation:
    """The regular module A = (+)_v P_v, kept next to its summands in the
    projective cache."""
    parts = [projective(alg, v) for v in alg.quiver.vertices]
    cached = alg._proj_cache
    if "regular" not in cached:
        cached["regular"] = direct_sum(parts)[0]
    return cached["regular"]


def projective_layout(alg: BoundQuiverAlgebra, v: str) -> dict[str, list[Path]]:
    rep = projective(alg, v)
    return rep._cache["proj_layout"]


def _sum_rep(alg: BoundQuiverAlgebra, reps: list[Representation]) -> Representation:
    """The block-diagonal direct sum of reps (the zero module if empty)."""
    dims = {v: sum(r.dims[v] for r in reps) for v in alg.quiver.vertices}
    mats = {
        n: Matrix.block_diag(alg.p, [r.mats[n] for r in reps])
        for n, _, _ in alg.quiver.arrows
    }
    return Representation(alg, dims, mats, check=False)


def direct_sum(reps: list[Representation]):
    """Direct sum with canonical inclusions and projections."""
    if not reps:
        raise ValueError("empty direct sum; use zero_rep")
    alg = reps[0].algebra
    p = alg.p
    total = _sum_rep(alg, reps)
    offs = {v: 0 for v in alg.quiver.vertices}
    incls, projs = [], []
    for r in reps:
        imats, pmats = {}, {}
        for v in alg.quiver.vertices:
            inc = np.zeros((total.dims[v], r.dims[v]), dtype=np.int64)
            inc[offs[v] : offs[v] + r.dims[v]] = np.eye(r.dims[v], dtype=np.int64)
            offs[v] += r.dims[v]
            imats[v] = Matrix(p, inc)
            pmats[v] = Matrix(p, inc.T)
        incls.append(RepHom(r, total, imats, check=False))
        projs.append(RepHom(total, r, pmats, check=False))
    return total, incls, projs


# -- hom spaces --------------------------------------------------------


def hom_space(m: Representation, n: Representation) -> list[RepHom]:
    """Basis of Hom(m, n), from one nullspace computation.

    Unknowns are the stacked vertex matrices; each arrow a: v -> w
    contributes the constraint n_a f_v - f_w m_a = 0.
    """
    if m.algebra is not n.algebra:
        raise ValueError("modules over different algebras")
    alg = m.algebra
    p = alg.p
    verts = alg.quiver.vertices
    sizes = {v: n.dims[v] * m.dims[v] for v in verts}
    offs = {}
    off = 0
    for v in verts:
        offs[v] = off
        off += sizes[v]
    total = off
    if total == 0:
        return []
    rows = []
    for aname, s, t in alg.quiver.arrows:
        r = n.dims[t] * m.dims[s]
        if r == 0:
            continue
        block = np.zeros((r, total), dtype=np.int64)
        # row-major vec: vec(n_a f_s) = (n_a (x) I_{m(s)}) vec(f_s)
        if sizes[s]:
            block[:, offs[s] : offs[s] + sizes[s]] = kron(
                n.mats[aname], Matrix.identity(p, m.dims[s])
            ).data
        # row-major vec: vec(f_t m_a) = (I_{n(t)} (x) m_a^T) vec(f_t)
        if sizes[t]:
            block[:, offs[t] : offs[t] + sizes[t]] = (
                block[:, offs[t] : offs[t] + sizes[t]]
                - kron(Matrix.identity(p, n.dims[t]), m.mats[aname].transpose()).data
            ) % p
        rows.append(block)
    if rows:
        sysmat = Matrix(p, np.vstack(rows))
        ns = nullspace(sysmat)
    else:
        ns = Matrix.identity(p, total)
    out = []
    for k in range(ns.cols):
        vec = ns.data[:, k]
        mats = {}
        for v in verts:
            mats[v] = Matrix(p, vec[offs[v] : offs[v] + sizes[v]].reshape(n.dims[v], m.dims[v]))
        out.append(RepHom(m, n, mats, check=False))
    return out


def hom_in_span(hom: RepHom, basis: list[RepHom]) -> np.ndarray | None:
    """Coordinates of hom in the span of basis, or None."""
    p = hom.source.p
    if not basis:
        return np.zeros(0, dtype=np.int64) if hom.is_zero() else None
    mat = Matrix(p, np.stack([b.flat() for b in basis], axis=1))
    target = Matrix(p, hom.flat().reshape(-1, 1))
    x = solve(mat, target)
    return None if x is None else x.data[:, 0]


# -- sub / quotient machinery -------------------------------------------


def sub_from_bases(m: Representation, bases: dict[str, Matrix]):
    """Subrepresentation spanned columnwise by bases (must be arrow-stable).

    Returns (sub, inclusion).
    """
    alg = m.algebra
    p = alg.p
    cleaned = {}
    for v in alg.quiver.vertices:
        b = bases.get(v, Matrix.zeros(p, m.dims[v], 0))
        cleaned[v] = column_space_basis(b)
    dims = {v: cleaned[v].cols for v in alg.quiver.vertices}
    mats = {}
    for n, s, t in alg.quiver.arrows:
        mapped = m.mats[n] @ cleaned[s]
        x = solve(cleaned[t], mapped)
        if x is None:
            raise ValueError(f"bases not stable under arrow {n}")
        mats[n] = x
    sub = Representation(alg, dims, mats, check=False)
    incl = RepHom(sub, m, cleaned, check=False)
    return sub, incl


def quotient_by_bases(m: Representation, bases: dict[str, Matrix]):
    """Quotient of m by the subrepresentation spanned by bases.

    Returns (quot, projection).
    """
    alg = m.algebra
    p = alg.p
    projs = {}
    for v in alg.quiver.vertices:
        b = bases.get(v, Matrix.zeros(p, m.dims[v], 0))
        # rows spanning the left annihilator of b: kernel of projection = span(b)
        projs[v] = nullspace(b.transpose()).transpose()
    dims = {v: projs[v].rows for v in alg.quiver.vertices}
    mats = {}
    for n, s, t in alg.quiver.arrows:
        # induced action: solve q_t m_a = a' q_s for a'
        rhs = projs[t] @ m.mats[n]
        x = solve(projs[s].transpose(), rhs.transpose())
        if x is None:
            raise ValueError(f"subspace not stable under arrow {n}")
        mats[n] = x.transpose()
    quot = Representation(alg, dims, mats, check=False)
    proj = RepHom(m, quot, projs, check=False)
    return quot, proj


def kernel(f: RepHom):
    """(ker f, inclusion)."""
    bases = {v: nullspace(f.mats[v]) for v in f.source.algebra.quiver.vertices}
    return sub_from_bases(f.source, bases)


def image(f: RepHom):
    """(im f, inclusion into target)."""
    bases = {v: column_space_basis(f.mats[v]) for v in f.source.algebra.quiver.vertices}
    return sub_from_bases(f.target, bases)


def cokernel(f: RepHom):
    """(coker f, projection from target)."""
    bases = {v: f.mats[v] for v in f.source.algebra.quiver.vertices}
    return quotient_by_bases(f.target, bases)


def is_mono(f: RepHom) -> bool:
    return all(nullspace(f.mats[v]).cols == 0 for v in f.mats)


def is_epi(f: RepHom) -> bool:
    return all(rank(f.mats[v]) == f.target.dims[v] for v in f.mats)


def is_exact_at(f: RepHom, g: RepHom) -> bool:
    """Exactness of  . --f--> . --g--> .  at the middle term."""
    if not g.compose(f).is_zero():
        return False
    for v in f.mats:
        if rank(f.mats[v]) != nullspace(g.mats[v]).cols:
            return False
    return True


def is_ses(f: RepHom, g: RepHom) -> bool:
    return is_mono(f) and is_epi(g) and is_exact_at(f, g)


# -- radical, top, covers ------------------------------------------------


def radical(m: Representation):
    """(rad m, inclusion): the image of the arrow-ideal action."""
    key = "radical"
    if key not in m._cache:
        alg = m.algebra
        p = alg.p
        bases = {}
        for v in alg.quiver.vertices:
            imgs = [m.mats[n] for n, _, t in alg.quiver.arrows if t == v and m.mats[n].cols]
            if imgs:
                bases[v] = column_space_basis(Matrix.hstack(imgs))
            else:
                bases[v] = Matrix.zeros(p, m.dims[v], 0)
        m._cache[key] = sub_from_bases(m, bases)
    return m._cache[key]


def top(m: Representation):
    """(top m, projection): the semisimple quotient m / rad m."""
    key = "top"
    if key not in m._cache:
        _, incl = radical(m)
        m._cache[key] = quotient_by_bases(m, {v: incl.mats[v] for v in incl.mats})
    return m._cache[key]


class ProjSummands:
    """An explicit direct sum of indecomposable projectives P_{v}, v in
    `vertices` (with repetition).  Carries a fixed basis layout: at each
    vertex w the coordinates are grouped summand by summand, each block
    listing that projective's basis paths into w in algebra order.
    """

    __slots__ = ("algebra", "vertices", "_rep", "_layout")

    def __init__(self, algebra: BoundQuiverAlgebra, vertices):
        self.algebra = algebra
        self.vertices = tuple(vertices)
        self._rep = None
        self._layout = None

    def rep(self) -> Representation:
        if self._rep is None:
            alg = self.algebra
            self._rep = _sum_rep(alg, [projective(alg, v) for v in self.vertices])
            layout = {w: [] for w in alg.quiver.vertices}
            for j, v in enumerate(self.vertices):
                for w, paths in projective_layout(alg, v).items():
                    layout[w].extend((j, pth) for pth in paths)
            self._layout = layout
        return self._rep

    def layout(self) -> dict[str, list[tuple[int, Path]]]:
        self.rep()
        return self._layout

    def generator_index(self, j: int) -> int:
        """Coordinate of the j-th summand's generator inside vertex v_j."""
        v = self.vertices[j]
        for i, (k, pth) in enumerate(self.layout()[v]):
            if k == j and not path_arrows(pth):
                return i
        raise ValueError("generator not found")

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"ProjSummands({list(self.vertices)})"


ElementMatrix = list  # rows of lists of algebra Elements


def element_matrix_to_hom(alg, emat: ElementMatrix, src: ProjSummands, tgt: ProjSummands) -> RepHom:
    """Realize a matrix of algebra elements as a morphism of projectives.

    Entry emat[k][j] lies in e_{src.vertices[j]} A e_{tgt.vertices[k]}
    (paths from tgt vertex to src vertex) and acts on summand j by right
    multiplication into summand k.
    """
    p = alg.p
    srep, trep = src.rep(), tgt.rep()
    slay, tlay = src.layout(), tgt.layout()
    mats = {}
    for w in alg.quiver.vertices:
        m = np.zeros((trep.dims[w], srep.dims[w]), dtype=np.int64)
        tindex = {(k, pth): i for i, (k, pth) in enumerate(tlay[w])}
        for col, (j, pth) in enumerate(slay[w]):
            # basis path pth: src.vertices[j] -> w, mapped to pth * u
            for k in range(len(tgt.vertices)):
                u = emat[k][j]
                if not u:
                    continue
                for upath, c in u.items():
                    for mono, c2 in alg.mul_basis(pth, upath).items():
                        m[tindex[(k, mono)], col] = (m[tindex[(k, mono)], col] + c * c2) % p
        mats[w] = Matrix(p, m)
    return RepHom(srep, trep, mats, check=False)


def hom_to_element_matrix(alg, f: RepHom, src: ProjSummands, tgt: ProjSummands) -> ElementMatrix:
    """Read a morphism between projective sums off its generator images."""
    tlay = tgt.layout()
    emat = [[{} for _ in range(len(src.vertices))] for _ in range(len(tgt.vertices))]
    for j, v in enumerate(src.vertices):
        col = src.generator_index(j)
        vec = f.mats[v].data[:, col] if f.mats[v].cols else np.zeros(0, dtype=np.int64)
        for i, (k, pth) in enumerate(tlay[v]):
            c = int(vec[i]) if i < len(vec) else 0
            if c:
                emat[k][j][pth] = c
    return emat


def emat_compose(alg, a: ElementMatrix, b: ElementMatrix) -> ElementMatrix:
    """Element matrix of the composite "a after b"."""
    rows, mid = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = [[{} for _ in range(cols)] for _ in range(rows)]
    for l in range(rows):
        for j in range(cols):
            acc: Element = {}
            for k in range(mid):
                u, s = b[k][j], a[l][k]
                if u and s:
                    acc = alg.add(acc, alg.mul(u, s))
            out[l][j] = acc
    return out


def emat_is_zero(emat: ElementMatrix) -> bool:
    return all(not e for row in emat for e in row)


def projective_cover(m: Representation):
    """Minimal projective cover (P, epi) with P an explicit ProjSummands.

    rad m(v) is the span of the arrow images into v.  One rref of their
    transpose puts a pivot on rad m(v)'s echelon coordinates; the standard
    basis vectors at the other coordinates complete it to m(v), so they
    lift a basis of top m(v).  P has one P_v per such coordinate, listed
    vertex by vertex in coordinate order, and the epi sends that summand's
    generator to the basis vector, so ker(epi) lies in rad P.  The epi's
    columns are the actions of P's basis paths on these generators, each
    path's action computed once, from that of its prefix.
    """
    key = "cover"
    if key not in m._cache:
        alg = m.algebra
        p = alg.p
        verts = []
        slot = []  # position of each summand among the generators at its vertex
        gens = {}  # vertex -> the generators there, as columns of the identity
        for v in alg.quiver.vertices:
            if not m.dims[v]:
                continue
            imgs = [m.mats[n].data for n, _, t in alg.quiver.arrows if t == v and m.mats[n].cols]
            pivots = set(rref(Matrix(p, np.hstack(imgs).T))[1]) if imgs else set()
            free = [i for i in range(m.dims[v]) if i not in pivots]
            verts.extend([v] * len(free))
            slot.extend(range(len(free)))
            gens[v] = np.eye(m.dims[v], dtype=np.int64)[:, free]
        acts = {}  # path -> its action on the generators at its source

        def act(pth: Path) -> np.ndarray:
            if pth not in acts:
                v, arrows = pth
                if arrows:
                    acts[pth] = m.mats[arrows[-1]].data @ act((v, arrows[:-1])) % p
                else:
                    acts[pth] = gens[v]
            return acts[pth]

        ps = ProjSummands(alg, verts)
        prep = ps.rep()
        mats = {}
        for w in alg.quiver.vertices:
            cols = np.zeros((m.dims[w], prep.dims[w]), dtype=np.int64)
            for c, (j, pth) in enumerate(ps.layout()[w]):
                cols[:, c] = act(pth)[:, slot[j]]
            mats[w] = Matrix(p, cols)
        epi = RepHom(prep, m, mats, check=False)
        m._cache[key] = (ps, epi)
    return m._cache[key]


def is_projective(m: Representation) -> bool:
    ps, _ = projective_cover(m)
    return ps.rep().total_dim() == m.total_dim()
