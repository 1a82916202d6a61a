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

from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .algebra import BoundQuiverAlgebra, Element, Path, cached, path_arrows, path_source
from .exactlin import (
    Matrix,
    column_space_basis,
    inverse,
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
        """Action matrix of a parallel-path element (target dim x source dim):
        the path actions (`_path_actions`) summed in one array, reduced once."""
        if self.algebra.element_source_target(e) is None:
            raise ValueError("element mixes non-parallel paths")
        act = _path_actions(self, lambda v: np.eye(self.dims[v], dtype=np.int64))
        return Matrix(self.p, sum(c % self.p * act(pth) for pth, c in e.items()))

    def __repr__(self):
        dv = ",".join(f"{v}:{d}" for v, d in self.dims.items())
        return f"Rep({dv})"


def _path_actions(m: Representation, start) -> Callable[[Path], np.ndarray]:
    """pth -> m(pth) @ start(v) for a path pth from v, memoized: each
    path's action is one product with that of its prefix."""
    acts = {}

    def act(pth: Path) -> np.ndarray:
        if pth not in acts:
            v, arrows = pth
            acts[pth] = m.mats[arrows[-1]].data @ act((v, arrows[:-1])) % m.p if arrows else start(v)
        return acts[pth]

    return act


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
    """The zero module: the shared empty sum of projectives."""
    return _proj_sum(alg, ()).rep


def simple(alg: BoundQuiverAlgebra, v: str) -> Representation:
    if v not in alg.quiver.vertices:
        raise ValueError(f"unknown vertex {v}")
    return Representation(alg, {v: 1}, {}, check=False)


def projective(alg: BoundQuiverAlgebra, v: str) -> Representation:
    """Indecomposable projective at v: basis = irreducible paths starting
    at v, graded by their target vertex; arrows act by appending."""
    return _proj_sum(alg, (v,)).rep


def regular_module(alg: BoundQuiverAlgebra) -> Representation:
    """The regular module A = (+)_v P_v."""
    return _proj_sum(alg, tuple(alg.quiver.vertices)).rep


class _ProjSum(NamedTuple):
    rep: Representation
    layout: Mapping[str, tuple[tuple[int, Path], ...]]
    index: Mapping[tuple[int, Path], int]  # (summand, path) -> coordinate at the path's target
    gens: tuple[int, ...]  # coordinate of each summand's generator at its vertex


@cached
def _proj_sum(alg: BoundQuiverAlgebra, vertices: tuple) -> _ProjSum:
    """The sum of the P_v, v in vertices (with repetition), built once per
    vertex tuple and algebra; () is the zero module.  At
    each vertex w the coordinates are grouped summand by summand, each
    block listing that projective's basis paths into w in algebra order.
    The entry is shared, so its layout and index are read-only.

    A single P_v gets its arrow matrices from `mul_basis` and the full
    relation check.  Any other tuple is the block diagonal of those
    entries' matrices, which is exactly its layout; relations evaluate
    blockwise on it, so it is built unchecked.
    """
    for v in vertices:
        if v not in alg.quiver.vertices:
            raise ValueError(f"unknown vertex {v}")
    layout = {w: [] for w in alg.quiver.vertices}
    for j, v in enumerate(vertices):
        for pth in alg.basis_by_source[v]:
            layout[alg.path_target(pth)].append((j, pth))
    index = {jp: i for lay in layout.values() for i, jp in enumerate(lay)}
    dims = {w: len(lay) for w, lay in layout.items()}
    if len(vertices) == 1:
        mats = {}
        for n, s, t in alg.quiver.arrows:
            m = np.zeros((dims[t], dims[s]), dtype=np.int64)
            for col, (j, pth) in enumerate(layout[s]):
                for mono, c in alg.mul_basis((s, (n,)), pth).items():
                    m[index[(j, mono)], col] = c
            mats[n] = Matrix(alg.p, m)
        rep = Representation(alg, dims, mats)
    else:
        parts = [_proj_sum(alg, (v,)).rep for v in vertices]
        mats = {n: Matrix.block_diag(alg.p, [r.mats[n] for r in parts]) for n, _, _ in alg.quiver.arrows}
        rep = Representation(alg, dims, mats, check=False)
    rep._cache["proj_sum"] = vertices  # hom_space reads Hom out of it off the generators
    # relations have length >= 2, so every trivial path is a basis path
    gens = tuple(index[(j, (v, ()))] for j, v in enumerate(vertices))
    return _ProjSum(rep, MappingProxyType({w: tuple(lay) for w, lay in layout.items()}), MappingProxyType(index), gens)


def direct_sum_module(reps: list[Representation]) -> Representation:
    """The direct sum alone, without inclusions and projections: its
    arrow matrices are block diagonal, in the order of reps.  A sum of shared projective
    sums is the shared sum of their joined vertex tuples (`_proj_sum`), that block diagonal."""
    if not reps:
        raise ValueError("empty direct sum; use zero_rep")
    alg = reps[0].algebra
    tags = [r._cache.get("proj_sum") for r in reps]
    if all(t is not None for t in tags):
        return _proj_sum(alg, sum(tags, ())).rep
    dims = {v: sum(r.dims[v] for r in reps) for v in alg.quiver.vertices}
    mats = {n: Matrix.block_diag(alg.p, [r.mats[n] for r in reps]) for n, _, _ in alg.quiver.arrows}
    return Representation(alg, dims, mats, check=False)


def direct_sum(reps: list[Representation]):
    """Direct sum with canonical inclusions and projections."""
    total = direct_sum_module(reps)
    alg = total.algebra
    p = alg.p
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


def _flat_offsets(m: Representation, n: Representation) -> tuple[dict[str, int], int]:
    """Where each vertex block f_v (n.dims[v] x m.dims[v], row-major)
    starts in the flat coordinates of a map m -> n (`RepHom.flat`), and
    their total."""
    offs = {}
    off = 0
    for v in m.algebra.quiver.vertices:
        offs[v] = off
        off += n.dims[v] * m.dims[v]
    return offs, off


def hom_space(m: Representation, n: Representation) -> list[RepHom]:
    """Basis of Hom(m, n): the basis maps of `hom_frame(m, n)`."""
    return hom_frame(m, n).basis()


def hom_frame(m: Representation, n: Representation) -> HomFrame:
    """Hom(m, n) as a HomFrame, its basis columns straight from one
    echelon computation.

    If m is a shared sum of projectives (+)_j P_{v_j} (`_proj_sum`), the
    basis is read off the generator images, Hom(m, n) = (+)_j n(v_j) by
    Yoneda, and put in normal form by one rref.  Otherwise it is the
    nullspace of the constraints n_a f_s - f_t m_a = 0, one block per
    arrow a: s -> t, on the stacked vertex matrices f_v.  Both give the
    normal form of the span, so the basis does not depend on the path.
    Hom(P, n) depends only on P's vertex tuple and n, so that frame is
    built once, with read-only flats, and kept on n (`_hom_from`).
    """
    if m.algebra is not n.algebra:
        raise ValueError("modules over different algebras")
    vertices = m._cache.get("proj_sum")
    if vertices is None:
        offs, total = _flat_offsets(m, n)
        sysmat = _hom_system(m, n, offs, total)
        flats = np.eye(total, dtype=np.int64) if sysmat is None else nullspace(sysmat).data
        return HomFrame(m, n, flats, _free_rows(flats))
    return _hom_from(n, vertices)


@cached
def _hom_from(n: Representation, vertices: tuple) -> HomFrame:
    """Hom(P, n) for P the shared sum of the P_v, v in vertices."""
    m = _proj_sum(n.algebra, vertices).rep
    flats = _hom_basis_from_generators(vertices, n, *_flat_offsets(m, n))
    flats.setflags(write=False)
    return HomFrame(m, n, flats, _free_rows(flats))


def _hom_of_flat(m: Representation, n: Representation, offs, flat: np.ndarray) -> RepHom:
    """The map m -> n whose flat coordinates (`RepHom.flat`) are flat,
    cut into vertex blocks at offs (`_flat_offsets`)."""
    p = m.p
    mats = {v: Matrix(p, flat[off : off + n.dims[v] * m.dims[v]].reshape(n.dims[v], m.dims[v])) for v, off in offs.items()}
    return RepHom(m, n, mats, check=False)


def _hom_system(m: Representation, n: Representation, offs, total) -> Matrix | None:
    """The constraints of Hom(m, n) on the flat coordinates, or None if no
    arrow gives one.  Arrow a: s -> t gives the rows (r, c) of
    vec(n_a f_s) - vec(f_t m_a), i.e. (n_a (x) I) vec(f_s) - (I (x) m_a^T) vec(f_t),
    written in place by broadcasting and reduced mod p once."""
    blocks = []
    for a, s, t in m.algebra.quiver.arrows:
        nt, ms, mt = n.dims[t], m.dims[s], m.dims[t]
        if nt * ms == 0:
            continue
        block = np.zeros((nt, ms, total), dtype=np.int64)
        c = np.arange(ms)[:, None]
        # vec(n_a f_s)[r, c] = sum_r' n_a[r, r'] f_s[r', c]
        block[:, c, offs[s] + np.arange(n.dims[s]) * ms + c] = n.mats[a].data[:, None, :]
        # vec(f_t m_a)[r, c] = sum_c' f_t[r, c'] m_a[c', c]
        r = np.arange(nt)[:, None]
        block[r, :, offs[t] + r * mt + np.arange(mt)] -= m.mats[a].data
        blocks.append(block.reshape(nt * ms, total))
    return Matrix(m.p, np.vstack(blocks)) if blocks else None


def _hom_basis_from_generators(vertices: tuple, n: Representation, offs, total) -> np.ndarray:
    """Flat basis columns of Hom(P, n) for the shared sum P of the P_v, v
    in vertices, from where the generators go.

    Map (j, i) sends summand j's generator to e_i in n(v_j), so its
    column at layout entry (j, path) is n(path) e_i (`_path_actions`).
    These maps span Hom, and their normal form is the
    `column_space_basis` of their span.
    """
    layout = _proj_sum(n.algebra, vertices).layout
    starts = np.cumsum([0] + [n.dims[v] for v in vertices])
    if not starts[-1]:
        return np.zeros((total, 0), dtype=np.int64)
    act = _path_actions(n, lambda v: np.eye(n.dims[v], dtype=np.int64))
    rows = np.zeros((starts[-1], total), dtype=np.int64)
    for w, lay in layout.items():
        width = len(lay)
        for c, (j, pth) in enumerate(lay):
            # entry (r, c) of f_w sits at offs[w] + r * width + c
            rows[starts[j] : starts[j + 1], offs[w] + c : offs[w] + n.dims[w] * width : width] = act(pth).T
    return column_space_basis(Matrix(n.p, rows.T)).data


class HomFrame(NamedTuple):
    """Hom(source, target), the one representation of a Hom space: its
    basis as the columns of `flats`, on the flat coordinates of
    `RepHom.flat`, in reduced-echelon normal form.  Column k is 1 at row
    free[k], its last nonzero entry, and every column is 0 at the other
    free rows, with free ascending; so the coordinates of a map in the
    span are its flat entries at free.  The basis maps, combinations and
    composites of the whole basis with a map are read off the columns."""

    source: Representation
    target: Representation
    flats: np.ndarray
    free: np.ndarray

    @property
    def dim(self) -> int:
        return self.flats.shape[1]

    def basis(self) -> list[RepHom]:
        """The basis maps, one per column, cut into vertex blocks."""
        offs, _ = _flat_offsets(self.source, self.target)
        return [_hom_of_flat(self.source, self.target, offs, col) for col in self.flats.T]

    def blocks(self) -> dict[str, np.ndarray]:
        """All basis maps at once: v -> array (k, target.dims[v], source.dims[v])."""
        offs, _ = _flat_offsets(self.source, self.target)
        out = {}
        for v, off in offs.items():
            a, b = self.target.dims[v], self.source.dims[v]
            out[v] = self.flats[off : off + a * b].T.reshape(self.dim, a, b)
        return out

    def postcompose(self, g: RepHom) -> np.ndarray:
        """Flat columns of g o b for every basis map b, in basis order: one
        block product per vertex, reduced mod p."""
        return flatten_blocks(self.source.algebra, {v: g.mats[v].data @ b % g.source.p for v, b in self.blocks().items()})

    def precompose(self, f: RepHom) -> np.ndarray:
        """Flat columns of b o f for every basis map b, in basis order: one
        block product per vertex, reduced mod p."""
        return flatten_blocks(self.source.algebra, {v: b @ f.mats[v].data % f.source.p for v, b in self.blocks().items()})

    def combination(self, coeffs: np.ndarray) -> RepHom:
        """The map sum_k coeffs[k] * (basis vector k), the inverse of
        `coordinates`: one product, cut into vertex blocks."""
        offs, _ = _flat_offsets(self.source, self.target)
        coeffs = np.asarray(coeffs, dtype=np.int64) % self.source.p
        return _hom_of_flat(self.source, self.target, offs, self.flats @ coeffs)

    def coordinates(self, vecs: np.ndarray) -> np.ndarray:
        """Coordinates of each column of vecs (flat maps source -> target),
        one column each: the entries at `free`, checked by one product."""
        return _read_off(self.flats, self.free, vecs, self.source.p, "composite escaped the hom space")


def flatten_blocks(alg: BoundQuiverAlgebra, blocks: dict[str, np.ndarray]) -> np.ndarray:
    """Columns of flat coordinates from vertex blocks v -> (k, rows, cols),
    the inverse of `HomFrame.blocks`."""
    parts = []
    for v in alg.quiver.vertices:
        k, a, b = blocks[v].shape
        parts.append(blocks[v].reshape(k, a * b))
    return np.concatenate(parts, axis=1).T


# -- sub / quotient machinery -------------------------------------------


def _free_rows(basis: np.ndarray) -> np.ndarray:
    """The row of the last nonzero entry of each column of basis."""
    if not basis.size:
        return np.zeros(0, dtype=np.intp)
    return basis.shape[0] - 1 - np.argmax(basis[::-1] != 0, axis=0)


def _read_off(basis: np.ndarray, free: np.ndarray, vecs: np.ndarray, p: int, msg: str) -> np.ndarray:
    """Coordinates of the columns of vecs in a basis in reduced-echelon
    normal form (column k is 1 at row free[k], every column is 0 at the
    other free rows): their entries at free, checked by one product;
    ValueError(msg) when a column is not in the span."""
    vecs = vecs % p
    x = vecs[free]
    if ((basis @ x - vecs) % p).any():
        raise ValueError(msg)
    return x


def _sub_actions(m: Representation, bases: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The arrow matrices of the subrepresentation of m spanned by bases
    (vertex -> columns in reduced-echelon normal form), read off the arrow
    images at the free rows; ValueError when a basis is not in that form
    or the span is not arrow-stable."""
    free = {}
    for v, b in bases.items():
        free[v] = _free_rows(b)
        if not np.array_equal(b[free[v]], np.eye(len(free[v]), dtype=np.int64)):
            raise ValueError(f"basis at {v} is not in reduced-echelon normal form")
    return {
        n: _read_off(bases[t], free[t], m.mats[n].data @ bases[s], m.p, f"bases not stable under arrow {n}")
        for n, s, t in m.algebra.quiver.arrows
    }


def _solve_or_raise(a: Matrix, b: Matrix, msg: str) -> Matrix:
    """The x with a @ x = b, or ValueError(msg) when there is none."""
    x = solve(a, b)
    if x is None:
        raise ValueError(msg)
    return x


def lift(f: RepHom, g: RepHom) -> RepHom:
    """The x with f o x = g, for a monomorphism f; ValueError when g does
    not factor through f."""
    mats = {}
    for v in f.mats:
        mats[v] = _solve_or_raise(f.mats[v], g.mats[v], f"map does not factor through the mono at {v}")
    return RepHom(g.source, f.source, mats, check=False)


def descend(q: RepHom, g: RepHom) -> RepHom:
    """The x with x o q = g, for an epimorphism q; ValueError when g is
    nonzero on ker q."""
    mats = {}
    for v in q.mats:
        qt, gt = q.mats[v].transpose(), g.mats[v].transpose()
        mats[v] = _solve_or_raise(qt, gt, f"map is nonzero on the kernel of the epi at {v}").transpose()
    return RepHom(q.target, g.target, mats, check=False)


def sub_from_bases(m: Representation, bases: dict[str, Matrix]):
    """Subrepresentation spanned columnwise by bases; the bases are the
    inclusion's matrices as given.  Each basis must be in reduced-echelon
    normal form, as a `nullspace` or `column_space_basis` is: column k is 1
    at its last nonzero entry F[k], and every column is 0 at the other
    entries of F.  The arrow actions are then the arrow images' entries
    at F, each checked by one product.  ValueError when a basis is not in
    that form or the span is not arrow-stable.

    Returns (sub, inclusion).
    """
    alg = m.algebra
    bases = {v: bases.get(v, Matrix.zeros(alg.p, m.dims[v], 0)) for v in alg.quiver.vertices}
    acts = _sub_actions(m, {v: b.data for v, b in bases.items()})
    dims = {v: b.cols for v, b in bases.items()}
    sub = Representation(alg, dims, {n: Matrix(alg.p, x) for n, x in acts.items()}, check=False)
    return sub, RepHom(sub, m, bases, check=False)


def quotient_by_bases(m: Representation, bases: dict[str, Matrix]):
    """Quotient of m by the subrepresentation spanned by bases.

    Returns (quot, projection).
    """
    alg = m.algebra
    p = alg.p
    cols = {}  # q_v^T, a nullspace and so in normal form
    for v in alg.quiver.vertices:
        b = bases.get(v, Matrix.zeros(p, m.dims[v], 0))
        # rows spanning the left annihilator of b: kernel of projection = span(b)
        cols[v] = nullspace(b.transpose()).data
    projs = {v: Matrix(p, c.T) for v, c in cols.items()}
    dims = {v: projs[v].rows for v in alg.quiver.vertices}
    mats = {}
    for n, s, t in alg.quiver.arrows:
        # induced action a' with q_t m_a = a' q_s, read off q_s^T
        rhs = (projs[t] @ m.mats[n]).data.T
        x = _read_off(cols[s], _free_rows(cols[s]), rhs, p, f"subspace not stable under arrow {n}")
        mats[n] = Matrix(p, x.T)
    quot = Representation(alg, dims, mats, check=False)
    return quot, RepHom(m, quot, projs, check=False)


def kernel(f: RepHom):
    """(ker f, inclusion)."""
    bases = {v: nullspace(f.mats[v]) for v in f.source.algebra.quiver.vertices}
    return sub_from_bases(f.source, bases)


def kernel_cover(f: RepHom):
    """(P, d): the minimal projective cover of ker f, composed into the
    source of f as d : P ->> ker f -> f.source, with no kernel module
    built.  The kernel's basis at v is nullspace(f_v); its arrow actions
    are read off that basis (`_sub_actions`), and the generators are
    picked as `projective_cover` picks them (`_cover_into`)."""
    src = f.source
    bases = {v: nullspace(f.mats[v]).data for v in src.algebra.quiver.vertices}
    return _cover_into(src, bases, _sub_actions(src, bases))


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


@cached
def radical(m: Representation):
    """(rad m, inclusion): the image of the arrow-ideal action."""
    alg = m.algebra
    bases = {}
    for v in alg.quiver.vertices:
        imgs = [m.mats[n] for n, _, t in alg.quiver.arrows if t == v and m.mats[n].cols]
        bases[v] = column_space_basis(Matrix.hstack(imgs)) if imgs else Matrix.zeros(alg.p, m.dims[v], 0)
    return sub_from_bases(m, bases)


@cached
def top(m: Representation):
    """(top m, projection): the semisimple quotient m / rad m."""
    _, incl = radical(m)
    return quotient_by_bases(m, {v: incl.mats[v] for v in incl.mats})


class ProjSummands:
    """An explicit direct sum of indecomposable projectives P_{v}, v in
    `vertices` (with repetition).  Its module, basis layout and generator
    coordinates are the algebra's one shared entry for the vertex tuple
    (see `_proj_sum`).
    """

    __slots__ = ("algebra", "vertices")

    def __init__(self, algebra: BoundQuiverAlgebra, vertices):
        self.algebra = algebra
        self.vertices = tuple(vertices)

    def rep(self) -> Representation:
        return _proj_sum(self.algebra, self.vertices).rep

    def layout(self) -> Mapping[str, tuple[tuple[int, Path], ...]]:
        return _proj_sum(self.algebra, self.vertices).layout

    def generator_index(self, j: int) -> int:
        """Coordinate of the j-th summand's generator inside vertex v_j."""
        return _proj_sum(self.algebra, self.vertices).gens[j]

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
    slay, tindex = src.layout(), _proj_sum(alg, tgt.vertices).index
    mats = {}
    for w in alg.quiver.vertices:
        m = np.zeros((trep.dims[w], srep.dims[w]), dtype=np.int64)
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
    p = alg.p
    table = alg.mul_basis
    for l in range(rows):
        arow = a[l]
        for j in range(cols):
            acc: Element = {}
            for k in range(mid):
                u, s = b[k][j], arow[k]
                if not (u and s):
                    continue
                for ps, cs in s.items():
                    for pu, cu in u.items():
                        c = cu * cs % p
                        for mono, c2 in table(pu, ps).items():
                            acc[mono] = (acc.get(mono, 0) + c * c2) % p
            out[l][j] = {mono: c for mono, c in acc.items() if c} if acc else acc
    return out


def emat_is_zero(emat: ElementMatrix) -> bool:
    return all(not e for row in emat for e in row)


def _cover_into(m: Representation, bases: dict[str, np.ndarray], acts: dict[str, np.ndarray]):
    """The minimal projective cover of the submodule K of m with bases
    (vertex -> columns in m, in normal form) and arrow matrices acts, as
    (P, the map P ->> K -> m).

    rad K(v) is the span of the arrow images into v.  One rref of their
    transpose puts a pivot on rad K(v)'s echelon coordinates; the basis
    columns at the other coordinates complete it to K(v), so they lift a
    basis of top K(v).  P has one P_v per such column, listed vertex by
    vertex in coordinate order, and that summand's generator goes to the
    column, so the kernel of P ->> K lies in rad P.  The map's columns
    are the actions in m of P's basis paths on these generators
    (`_path_actions`).
    """
    alg = m.algebra
    p = alg.p
    verts = []
    slot = []  # position of each summand among the generators at its vertex
    gens = {}  # vertex -> the generators there, as columns in m
    for v in alg.quiver.vertices:
        if not bases[v].shape[1]:
            continue
        imgs = [acts[n] for n, _, t in alg.quiver.arrows if t == v and acts[n].shape[1]]
        pivots = set(rref(Matrix(p, np.hstack(imgs).T))[1]) if imgs else set()
        free = [i for i in range(bases[v].shape[1]) if i not in pivots]
        verts.extend([v] * len(free))
        slot.extend(range(len(free)))
        gens[v] = bases[v][:, free]
    act = _path_actions(m, gens.__getitem__)
    ps = ProjSummands(alg, verts)
    mats = {}
    for w, lay in ps.layout().items():
        cols = np.zeros((m.dims[w], len(lay)), dtype=np.int64)
        for c, (j, pth) in enumerate(lay):
            cols[:, c] = act(pth)[:, slot[j]]
        mats[w] = Matrix(p, cols)
    return ps, RepHom(ps.rep(), m, mats, check=False)


@cached
def projective_cover(m: Representation):
    """Minimal projective cover (P, epi) with P an explicit ProjSummands:
    `_cover_into` with m its own submodule on the identity bases, so the
    epi sends each summand's generator to a standard basis vector of m.
    Cached on m.
    """
    ident = {v: np.eye(d, dtype=np.int64) for v, d in m.dims.items()}
    return _cover_into(m, ident, {n: a.data for n, a in m.mats.items()})


def is_projective(m: Representation) -> bool:
    ps, _ = projective_cover(m)
    return ps.rep().total_dim() == m.total_dim()
