"""Bounded complexes of representations.

Conventions, fixed once and property-tested:
  * differentials raise degree: d^i : X^i -> X^{i+1}, d d = 0;
  * shift: (X[n])^i = X^{i+n} and the differential picks up (-1)^n;
  * cone(f)^i = X^{i+1} (+) Y^i with d(x, y) = (-d x, f x + d y); for
    f : X -> Y[n], Y is read as Y[n];
  * a chain map X -> Y[n] is a family f^i : X^i -> Y^{i+n} with
    f^{i+1} d_X^i = (-1)^n d_Y^{i+n} f^i; it is one `ChainMap` with
    shift n, stored unshifted, and g o f has components g^{i+m} f^i and
    shift n + m for f : X -> Y[m] and g : Y -> Z[n].

Hom computations go through the total Hom complex: Hom^m = the direct
sum over i of Hom(X^i, Y^{i+m}) with differential
D(f)_i = d_Y f_i - (-1)^m f_{i+1} d_X, whose cohomology at n is the space
of homotopy classes X -> Y[n].  Maps in the derived category are
computed by replacing X with a bounded-above projective resolution,
truncated where chain maps and homotopies can no longer reach Y[n].

Every cohomology dimension, of a complex or of a total Hom complex, is
the rank count dim C^n - rk d^n - rk d^(n-1) (`homology_dims`,
`hom_k_dim`), and f is a quasi-isomorphism when its cone is acyclic;
homology modules and homotopy class bases are built only where they are
read (`homology`, `HomKResult`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .exactlin import Matrix, extending_columns, nullspace, rank, solve
from .modules import (
    HomFrame,
    ProjSummands,
    RepHom,
    Representation,
    cokernel,
    descend,
    direct_sum,
    direct_sum_module,
    hom_frame,
    hom_to_element_matrix,
    identity_hom,
    is_projective,
    kernel,
    kernel_cover,
    lift,
    projective_cover,
    quotient_by_bases,
    zero_hom,
    zero_rep,
)
from .projcplx import ProjComplex, minimize


class Complex:
    """Bounded complex of representations (zero terms are pruned)."""

    def __init__(self, algebra, terms: dict[int, Representation], diffs: dict[int, RepHom], check: bool = True):
        self.algebra = algebra
        self.terms = {i: t for i, t in terms.items() if not t.is_zero()}
        degs = sorted(self.terms)
        self.lo = degs[0] if degs else 0
        self.hi = degs[-1] if degs else -1
        self.diffs = {
            i: d for i, d in diffs.items() if i in self.terms and i + 1 in self.terms
        }
        self._cache: dict = {}
        if check:
            for i, d in self.diffs.items():
                if d.source.dims != self.terms[i].dims or d.target.dims != self.terms[i + 1].dims:
                    raise ValueError(f"differential at {i} has wrong endpoints")
            for i in self.diffs:
                if i + 1 in self.diffs:
                    if not self.diff(i + 1).compose(self.diff(i)).is_zero():
                        raise ValueError(f"d^2 != 0 at degree {i}")

    def term(self, i: int) -> Representation:
        return self.terms.get(i) or zero_rep(self.algebra)

    def diff(self, i: int) -> RepHom:
        d = self.diffs.get(i)
        if d is not None:
            return d
        return zero_hom(self.term(i), self.term(i + 1))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def is_zero(self) -> bool:
        return not self.terms

    def total_dim(self) -> int:
        return sum(t.total_dim() for t in self.terms.values())

    def __repr__(self):
        parts = ", ".join(f"{i}:{self.terms[i].total_dim()}" for i in sorted(self.terms))
        return f"Complex({parts})"


def module_complex(m: Representation) -> Complex:
    """m as a stalk complex in degree 0, one cached object per module, so
    its projective resolution is built once; `shift` moves it."""
    c = m._cache.get("stalk")
    if c is None:
        c = m._cache["stalk"] = Complex(m.algebra, {0: m}, {}, check=False)
    return c


class ChainMap:
    """A chain map source -> target[n]: maps f^i : X^i -> Y^(i+n) with
    f^(i+1) d_X^i = (-1)^n d_Y^(i+n) f^i, checked where X^i is nonzero."""

    def __init__(self, source: Complex, target: Complex, maps: dict[int, RepHom], check: bool = True, n: int = 0):
        self.source = source
        self.target = target
        self.n = n
        self.maps = {
            i: f
            for i, f in maps.items()
            if not source.term(i).is_zero() and not target.term(i + n).is_zero()
        }
        if check:
            for i in source.degrees():
                lhs = self.map(i + 1).compose(source.diff(i))
                rhs = target.diff(i + n).compose(self.map(i))
                if not (lhs + rhs if n % 2 else lhs - rhs).is_zero():
                    raise ValueError(f"chain map fails to commute at degree {i}")

    def map(self, i: int) -> RepHom:
        f = self.maps.get(i)
        if f is not None:
            return f
        return zero_hom(self.source.term(i), self.target.term(i + self.n))

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other, a chain map other.source -> self.target[self.n + other.n]."""
        maps = {i: self.maps[i + other.n].compose(f) for i, f in other.maps.items() if i + other.n in self.maps}
        return ChainMap(other.source, self.target, maps, check=False, n=self.n + other.n)

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.maps.values())


def identity_chain_map(c: Complex) -> ChainMap:
    return ChainMap(c, c, {i: identity_hom(c.terms[i]) for i in c.terms}, check=False)


# -- elementary constructions ------------------------------------------


def shift(c: Complex, n: int) -> Complex:
    sign = 1 if n % 2 == 0 else -1
    terms = {i - n: t for i, t in c.terms.items()}
    diffs = {i - n: d.scale(sign) for i, d in c.diffs.items()}
    return Complex(c.algebra, terms, diffs, check=False)


def _block_hom(src_rep, tgt_rep, src_parts, tgt_parts, blocks):
    """Assemble a RepHom from blocks[(r, s)] : src_parts[s] -> tgt_parts[r]."""
    p = src_rep.p
    alg = src_rep.algebra
    mats = {}
    for v in alg.quiver.vertices:
        rows = tgt_rep.dims[v]
        cols = src_rep.dims[v]
        m = np.zeros((rows, cols), dtype=np.int64)
        roff = 0
        for r, tp in enumerate(tgt_parts):
            coff = 0
            for s, sp in enumerate(src_parts):
                b = blocks.get((r, s))
                if b is not None:
                    m[roff : roff + tp.dims[v], coff : coff + sp.dims[v]] = b.mats[v].data
                coff += sp.dims[v]
            roff += tp.dims[v]
        mats[v] = Matrix(p, m)
    return RepHom(src_rep, tgt_rep, mats, check=False)


def _block_complex(alg, degrees, parts, blocks, check: bool = True):
    """The one block assembly of complexes: term i is the direct sum of the
    modules parts(i), and d^i is assembled by `_block_hom` from
    blocks(i)[(r, s)] : parts(i)[s] -> parts(i + 1)[r].  Degrees whose parts
    are all zero are left out.  Returns (complex, {degree: parts})."""
    terms, pieces = {}, {}
    for i in degrees:
        ps = parts(i)
        if not all(t.is_zero() for t in ps):
            terms[i], pieces[i] = direct_sum_module(ps), ps
    diffs = {i: _block_hom(terms[i], terms[i + 1], pieces[i], pieces[i + 1], blocks(i)) for i in terms if i + 1 in terms}
    return Complex(alg, terms, diffs, check=check), pieces


def cone(f: ChainMap):
    """Mapping cone with its two canonical maps.

    A map f : X -> Y[n] has the cone of its components read as a shift-0
    map into Y[n] (Y itself when n = 0).  Returns
    (cone, incl: Y[n] -> cone, proj: cone -> X[1]).
    """
    X, Y = f.source, shift(f.target, f.n) if f.n else f.target
    c, parts = _block_complex(
        X.algebra,
        range(min(X.lo - 1, Y.lo), max(X.hi, Y.hi) + 1),
        lambda i: [X.term(i + 1), Y.term(i)],
        lambda i: {(0, 0): X.diff(i + 1).scale(-1), (1, 0): f.map(i + 1), (1, 1): Y.diff(i)},
        check=False,
    )
    incl = {i: _block_hom(ys, c.terms[i], [ys], [xs, ys], {(1, 0): identity_hom(ys)}) for i, (xs, ys) in parts.items()}
    proj = {i: _block_hom(c.terms[i], xs, [xs, ys], [xs], {(0, 0): identity_hom(xs)}) for i, (xs, ys) in parts.items()}
    return c, ChainMap(Y, c, incl, check=False), ChainMap(c, shift(X, 1), proj, check=False)


def total_cone(p: ChainMap, q: ChainMap, h: ChainMap) -> Complex:
    """The total cone of X -p-> Y -q-> Z and a null-homotopy h : X -> Z[-1] of
    q p: degree i is X^(i+1) (+) Y^i (+) Z^(i-1), d = [[-d_X, 0, 0], [p, d_Y, 0],
    [-h, -q, -d_Z]], which is shift(cone((h, q) : cone(p) -> Z), -1) entry for
    entry; d^2 = 0 is checked."""
    X, Y, Z = p.source, p.target, q.target
    return _block_complex(
        X.algebra,
        range(min(X.lo - 1, Y.lo, Z.lo + 1), max(X.hi - 1, Y.hi, Z.hi + 1) + 1),
        lambda i: [X.term(i + 1), Y.term(i), Z.term(i - 1)],
        lambda i: {
            (0, 0): X.diff(i + 1).scale(-1),
            (1, 0): p.map(i + 1),
            (1, 1): Y.diff(i),
            (2, 0): h.map(i + 1).scale(-1),
            (2, 1): q.map(i).scale(-1),
            (2, 2): Z.diff(i - 1).scale(-1),
        },
    )[0]


def direct_sum_complex(cs: list[Complex]) -> Complex:
    """The direct sum of complexes, in the order of cs.  A sum of complexes of
    shared projective sums has shared sums for terms (`direct_sum_module`),
    so `projcplx.recognize` reads it by lookup."""
    return _block_complex(
        cs[0].algebra,
        range(min(c.lo for c in cs), max(c.hi for c in cs) + 1),
        lambda i: [c.term(i) for c in cs],
        lambda i: {(k, k): c.diffs[i] for k, c in enumerate(cs) if i in c.diffs},
        check=False,
    )[0]


def compress(c: Complex):
    """The compression of c (Ringel-Zhang's differential modules): the
    module over c.algebra's dual-numbers extension that sums the terms of c
    from c.hi down to c.lo, eps acting by the differential (unchecked:
    eps^2 = d^2 = 0 and d is linear).  Returns (module, incls, projs) as
    `modules.direct_sum` does; the zero complex compresses to zero."""
    parts = [c.term(i) for i in reversed(c.degrees())] or [zero_rep(c.algebra)]
    tot, incls, projs = direct_sum(parts)
    eps = _block_hom(tot, tot, parts, parts, {(c.hi - i - 1, c.hi - i): d for i, d in c.diffs.items()})
    ext = c.algebra.dual_numbers_extension()
    return Representation(ext, tot.dims, {**tot.mats, **{ext.loops[v]: m for v, m in eps.mats.items()}}, check=False), incls, projs


def brutal_truncate_geq(c: Complex, m: int) -> Complex:
    terms = {i: t for i, t in c.terms.items() if i >= m}
    diffs = {i: d for i, d in c.diffs.items() if i >= m}
    return Complex(c.algebra, terms, diffs, check=False)


def brutal_truncate_lt(c: Complex, m: int) -> Complex:
    terms = {i: t for i, t in c.terms.items() if i < m}
    diffs = {i: d for i, d in c.diffs.items() if i + 1 < m}
    return Complex(c.algebra, terms, diffs, check=False)


# -- homology ------------------------------------------------------------


def _homology_data(c: Complex, i: int):
    """(H, Z, incl_Z, proj_H) at degree i."""
    z, zincl = kernel(c.diff(i))
    h, projh = quotient_by_bases(z, lift(zincl, c.diff(i - 1)).mats)
    return h, z, zincl, projh


def homology(c: Complex, i: int) -> Representation:
    return _homology_data(c, i)[0]


def homology_dims(c: Complex) -> dict[int, int]:
    """The nonzero dim H^i(c) = dim c^i - rk d^i - rk d^(i-1), in ascending
    degree, from the vertexwise ranks of the differentials: no homology
    module is built."""
    rk = {i: sum(rank(m) for m in d.mats.values()) for i, d in c.diffs.items()}
    dims = {i: c.terms[i].total_dim() - rk.get(i, 0) - rk.get(i - 1, 0) for i in sorted(c.terms)}
    return {i: d for i, d in dims.items() if d}


def induced_homology_map(f: ChainMap, i: int):
    """Vertexwise matrices of H^i(f), with the two homologies."""
    hx, zx, zix, px = _homology_data(f.source, i)
    hy, zy, ziy, py = _homology_data(f.target, i)
    zmap = lift(ziy, f.map(i).compose(zix))
    return hx, hy, descend(px, py.compose(zmap)).mats


def is_quasi_iso(f: ChainMap) -> bool:
    """f is a quasi-isomorphism exactly when its cone is acyclic."""
    return is_acyclic(cone(f)[0])


def is_acyclic(c: Complex) -> bool:
    return not homology_dims(c)


def good_truncate_geq0(c: Complex):
    """Replace degrees < 0 by the cokernel of d^{-1} placed in degree 0.

    Requires vanishing homology in all negative degrees (checked);
    returns (truncated, witness) with witness : c -> truncated a
    quasi-isomorphism.
    """
    negative = [i for i in homology_dims(c) if i < 0]
    if negative:
        raise ValueError(f"nonzero homology in negative degree {negative[0]}")
    return _good_truncate_unchecked(c)


def _good_truncate_unchecked(c: Complex):
    if c.lo >= 0:
        return c, identity_chain_map(c)
    m, pi = cokernel(c.diff(-1))
    terms = {0: m}
    diffs = {}
    for i in c.terms:
        if i > 0:
            terms[i] = c.terms[i]
    for i in c.diffs:
        if i > 0:
            diffs[i] = c.diffs[i]
    # induced differential out of the cokernel; descend checks that d^0
    # kills the image of d^{-1}
    d0 = descend(pi, c.diff(0))
    if not m.is_zero() and not c.term(1).is_zero():
        diffs[0] = d0
    t = Complex(c.algebra, terms, diffs, check=False)
    wit = {0: pi}
    for i in c.terms:
        if i > 0:
            wit[i] = identity_hom(c.terms[i])
    return t, ChainMap(c, t, wit, check=False)


# -- the total Hom complex ----------------------------------------------


class HomEngine:
    """Total Hom complex of a pair of bounded complexes, with coordinates.

    Hom(c^i, d^j) is one `HomFrame` per degree pair of nonzero terms,
    built once per engine; coordinates are read off it, not solved for,
    and each layout and each D_m is built once.
    """

    def __init__(self, c: Complex, d: Complex):
        self.c = c
        self.d = d
        self.p = c.algebra.p
        self._frames: dict[tuple[int, int], HomFrame] = {}
        self._layouts: dict[int, list[tuple[int, int, int]]] = {}
        self._bnd: dict[int, Matrix] = {}

    def frame(self, i: int, j: int) -> HomFrame:
        key = (i, j)
        if key not in self._frames:
            self._frames[key] = hom_frame(self.c.term(i), self.d.term(j))
        return self._frames[key]

    def layout(self, m: int) -> list[tuple[int, int, int]]:
        """[(i, offset, size)] for Hom^m, over source degrees i, made once;
        a degree whose source or target term is zero has no frame built."""
        if m not in self._layouts:
            sizes = [(i, self.frame(i, i + m).dim) for i in sorted(self.c.terms) if i + m in self.d.terms]
            offs = np.cumsum([0] + [size for _, size in sizes]).tolist()
            self._layouts[m] = [(i, off, size) for (i, size), off in zip(sizes, offs) if size]
        return self._layouts[m]

    def space_dim(self, m: int) -> int:
        lay = self.layout(m)
        return lay[-1][1] + lay[-1][2] if lay else 0

    def boundary(self, m: int) -> Matrix:
        """D_m : Hom^m -> Hom^{m+1}; D(f)_i = d_Y f_i - (-1)^m f_{i+1} d_X.

        Each source block's composites are formed for its whole basis at
        once and read off the target pair's frame in one call.
        """
        if m in self._bnd:
            return self._bnd[m]
        tgt_off = {i: off for i, off, _ in self.layout(m + 1)}
        out = np.zeros((self.space_dim(m + 1), self.space_dim(m)), dtype=np.int64)
        sign = 1 if m % 2 == 0 else -1
        for i, off, size in self.layout(m):
            frame = self.frame(i, i + m)
            if i in tgt_off:
                x = self.frame(i, i + m + 1).coordinates(frame.postcompose(self.d.diff(i + m)))
                o = tgt_off[i]
                out[o : o + len(x), off : off + size] += x
            if (i - 1) in tgt_off:
                x = self.frame(i - 1, i + m).coordinates(frame.precompose(self.c.diff(i - 1)))
                o = tgt_off[i - 1]
                out[o : o + len(x), off : off + size] -= sign * x
        self._bnd[m] = Matrix(self.p, out)
        return self._bnd[m]

    def vector_of(self, f: ChainMap) -> np.ndarray:
        m = f.n
        vec = np.zeros(self.space_dim(m), dtype=np.int64)
        for i, off, size in self.layout(m):
            vec[off : off + size] = self.frame(i, i + m).coordinates(f.map(i).flat()[:, None])[:, 0]
        return vec

    def map_of(self, m: int, vec: np.ndarray) -> ChainMap:
        """The map with coordinate vector vec in Hom^m, the inverse of
        `vector_of`: one `HomFrame.combination` per degree block, on the
        frames that `boundary` builds."""
        maps = {i: self.frame(i, i + m).combination(vec[off : off + size]) for i, off, size in self.layout(m)}
        return ChainMap(self.c, self.d, maps, check=False, n=m)

    def solve_nullhomotopy(self, f: ChainMap) -> ChainMap | None:
        """h with D(h) = f (an explicit homotopy witnessing f ~ 0)."""
        vec = self.vector_of(f)
        dprev = self.boundary(f.n - 1)
        x = solve(dprev, Matrix(self.p, vec.reshape(-1, 1)))
        if x is None:
            return None
        return self.map_of(f.n - 1, x.data[:, 0])


class HomKResult:
    """Homotopy classes of chain maps c -> d[n], for the callers that read
    them: the classes are the cycles independent of the boundaries and of
    the cycles before them, so `dim` and the class vectors in Hom^n
    coordinates come together from one rref of [D_(n-1) | Z_n].  `basis`,
    the classes as chain maps, is built on first read.  A dimension alone
    is `hom_k_dim`, which reads ranks and builds no HomKResult."""

    def __init__(self, engine: HomEngine, n: int):
        self.engine = engine
        self.n = n
        cycles = nullspace(engine.boundary(n))
        self._bnd = engine.boundary(n - 1)
        bnd_rank, new = extending_columns(self._bnd, cycles)
        self.dim = cycles.cols - bnd_rank
        # the chosen class vectors in Hom^n coordinates, as columns
        self.vectors = cycles.data[:, new]

    @cached_property
    def basis(self) -> list[ChainMap]:
        """The chosen classes as chain maps, built on first read."""
        return [self.engine.map_of(self.n, v) for v in self.vectors.T]

    def coordinates(self, f: ChainMap) -> np.ndarray:
        """Class coordinates of f in the chosen basis."""
        vec = self.engine.vector_of(f)
        full = Matrix(self.engine.p, np.hstack([self.vectors, self._bnd.data]))
        x = solve(full, Matrix(self.engine.p, vec.reshape(-1, 1)))
        if x is None:
            raise ValueError("map is not a cycle in the Hom complex")
        return x.data[: self.dim, 0]

    def is_null_homotopic(self, f: ChainMap) -> bool:
        return not self.coordinates(f).any()


def hom_complex(c: Complex, d: Complex):
    """The total Hom complex, as plain dimensions and boundary matrices."""
    eng = HomEngine(c, d)
    window = range(d.lo - c.hi - 1, d.hi - c.lo + 2)
    dims = {m: eng.space_dim(m) for m in window if eng.space_dim(m)}
    bnds = {m: eng.boundary(m) for m in dims}
    return dims, bnds


def _engine(c: Complex, d: Complex) -> HomEngine:
    # the engine (shared by every shift) is cached on c under d itself,
    # which hashes and compares by identity
    key = ("homeng", d)
    if key not in c._cache:
        c._cache[key] = HomEngine(c, d)
    return c._cache[key]


def hom_k(c: Complex, d: Complex, n: int) -> HomKResult:
    return HomKResult(_engine(c, d), n)


def hom_k_dim(c: Complex, d: Complex, n: int) -> int:
    """dim Hom^n - rk D_n - rk D_(n-1)."""
    eng = _engine(c, d)
    return eng.space_dim(n) - rank(eng.boundary(n)) - rank(eng.boundary(n - 1))


# -- projective resolutions ----------------------------------------------


class _Resolution:
    """The one construction of projective resolutions: that of a complex
    c, kept on c and extended downward on demand.  A module's minimal
    resolution (`homological.MinimalResolution`) is a view of it.

    Step i (from c.hi down) covers by P_i the kernel of
    G = [[dP_(i+1), 0], [eps_(i+1), -d_c^i]] : P_(i+1) (+) c^i -> P_(i+2) (+) c^(i+1),
    read in echelon coordinates by `kernel_cover`; zero summands are left
    out of both sums.  G's first column is the cover map of step i + 1
    (`last`), all of G where c^i = 0; where P_(i+1) = 0, G has the kernel
    of d_c^i, all of c^i (`projective_cover`) where c^(i+1) = 0 too.
    dP_i : P_i -> P_(i+1) and eps_i : P_i -> c^i, kept only where c^i is
    nonzero, are the row blocks of the cover map.  Nothing is minimized,
    and `dmat(i)`, the element matrix of dP_i, is built on first read;
    lo is the lowest degree constructed.  Derived Hom reads the
    construction itself (`truncation`); `projective_resolution` is its
    minimized view.
    """

    @staticmethod
    def of(c: Complex) -> "_Resolution":
        """The construction kept on c, made on first use."""
        if "resolution" not in c._cache:
            c._cache["resolution"] = _Resolution(c)
        return c._cache["resolution"]

    def __init__(self, c: Complex):
        self.complex = c
        self.psums: dict[int, ProjSummands] = {}
        self.dmats: dict[int, list] = {}
        self.eps: dict[int, RepHom] = {}
        self.dP: dict[int, RepHom] = {}
        self.last: RepHom | None = None
        self.lo = c.hi + 1
        self._proj_complexes: dict[int, ProjComplex] = {}

    def extend_to(self, window_lo: int):
        c, p = self.complex, self.complex.algebra.p
        for i in range(self.lo - 1, window_lo - 1, -1):
            pnext, ci = self.psums.get(i + 1), c.terms.get(i)
            if not pnext and ci is None:
                continue
            if not pnext:
                ps, cover = kernel_cover(c.diffs[i]) if i in c.diffs else projective_cover(ci)
                self.eps[i] = cover
            elif ci is None:
                ps, cover = kernel_cover(self.last)
                self.dP[i] = cover
            else:
                # G written per vertex into one array
                r1, d, mats = pnext.rep(), c.diff(i), {}
                for v, m in self.last.mats.items():
                    g = np.zeros((m.rows, m.cols + ci.dims[v]), dtype=np.int64)
                    g[:, : m.cols] = m.data
                    g[m.rows - d.target.dims[v] :, m.cols :] = -d.mats[v].data
                    mats[v] = Matrix(p, g)
                ps, cover = kernel_cover(RepHom(direct_sum_module([r1, ci]), self.last.target, mats, check=False))
                self.dP[i] = RepHom(ps.rep(), r1, {v: Matrix(p, m.data[: r1.dims[v]]) for v, m in cover.mats.items()}, check=False)
                self.eps[i] = RepHom(ps.rep(), ci, {v: Matrix(p, m.data[r1.dims[v] :]) for v, m in cover.mats.items()}, check=False)
            self.psums[i], self.last = ps, cover
        self.lo = min(self.lo, window_lo)

    def dmat(self, i: int) -> list:
        """The element matrix of dP_i, built on first read."""
        if i not in self.dmats:
            self.dmats[i] = hom_to_element_matrix(self.complex.algebra, self.dP[i], self.psums[i], self.psums[i + 1])
        return self.dmats[i]

    def proj_complex(self, window_lo: int) -> ProjComplex:
        """The construction in degrees >= window_lo as a ProjComplex, one
        cached object per window: the minimal resolution of a module, and
        what `projective_resolution` minimizes."""
        if window_lo not in self._proj_complexes:
            self.extend_to(window_lo)
            terms = {i: ps for i, ps in self.psums.items() if i >= window_lo and ps}
            dmats = {i: self.dmat(i) for i in terms if i + 1 in terms}
            self._proj_complexes[window_lo] = ProjComplex(self.complex.algebra, terms, dmats, check=False)
        return self._proj_complexes[window_lo]

    def truncation(self, window_lo: int) -> tuple[Complex, ChainMap]:
        """(P, eps): the construction in degrees >= window_lo, extended there
        first, as a Complex of the shared sums psums[i].rep() with the
        differentials dP, and the comparison eps : P -> c, unminimized:
        `minimize` is a homotopy equivalence, so Hom_K dimensions agree."""
        self.extend_to(window_lo)
        terms = {i: ps.rep() for i, ps in self.psums.items() if i >= window_lo}
        pc = Complex(self.complex.algebra, terms, self.dP, check=False)  # keeps the dP between its terms
        return pc, ChainMap(pc, self.complex, {i: self.eps[i] for i in terms if i in self.eps}, check=False)


def projective_resolution(c: Complex, window_lo: int):
    """Bounded-above complex of projectives quasi-isomorphic to c in all
    degrees >= window_lo + 1, termwise minimal (contractible summands are
    cancelled).  Returns (ProjComplex, comparison ChainMap into c).

    Every window of c reads the one construction kept on c (`_Resolution`),
    extended from the lowest degree it reached; each call minimizes its
    `proj_complex` for the window, for the `resolve` verb and for callers
    that want element matrices.  Derived Hom reads the un-minimized
    construction (`_Resolution.truncation`) instead.
    """
    res = _Resolution.of(c)
    pc_min, _, minc = minimize(res.proj_complex(window_lo))
    minc_cm = minc.to_chain_map()
    comps = {i: res.eps[i].compose(minc_cm.map(i)) for i in pc_min.terms if i in res.eps}
    return pc_min, ChainMap(pc_min.to_complex(), c, comps, check=False)


def hom_d_window(d: Complex, n: int) -> int:
    """Resolution cutoff for computing Hom_D(-, d[n]): components of chain
    maps into d[n] vanish below d.lo - n, and the lowest cycle constraint
    reaches one term further; one extra degree of margin is kept so that
    window independence is a testable property rather than an accident."""
    return d.lo - n - 2


def hom_d_dim(c: Complex, d: Complex, n: int) -> int:
    """Hom in the derived category: Hom_K into d[n] out of the un-minimized
    construction of c truncated at the window (`_Resolution.truncation`),
    with no minimize, element matrix or comparison map built."""
    if c.is_zero() or d.is_zero():
        return 0
    return hom_k_dim(_Resolution.of(c).truncation(hom_d_window(d, n))[0], d, n)


class LocalizationReport:
    def __init__(self, hom_k_dim_, hom_d_dim_, comparison_rank, hypothesis_ok, surjective_at_n):
        self.hom_k_dim = hom_k_dim_
        self.hom_d_dim = hom_d_dim_
        self.comparison_rank = comparison_rank
        self.hypothesis_ok = hypothesis_ok
        self.surjective_at_n = surjective_at_n

    def injective(self) -> bool:
        return self.comparison_rank == self.hom_k_dim

    def isomorphism(self) -> bool:
        return self.injective() and self.comparison_rank == self.hom_d_dim


def perpendicularity_hypothesis(x: Complex, y: Complex, depth: int = 6) -> bool:
    """Ext^{>0}(x^i, y^j) = 0 for all j < i, checked to the given depth."""
    from .homological import ext

    for i in range(x.lo, x.hi + 1):
        xi = x.term(i)
        if xi.is_zero() or is_projective(xi):
            continue
        for j in range(y.lo, min(i, y.hi + 1)):
            yj = y.term(j)
            if yj.is_zero():
                continue
            for t in range(1, depth + 1):
                if ext(xi, yj, t) != 0:
                    return False
    return True


def localization_compare(x: Complex, y: Complex, n: int, depth: int = 6) -> LocalizationReport:
    """Compare Hom up to homotopy with Hom in the derived category at
    shift n, together with the rank of the localization map: each class
    x -> y[n] is pulled back along the comparison eps of the un-minimized
    construction of x (`_Resolution.truncation`), which also gives Hom_D."""
    hk = hom_k(x, y, n)
    res, epsmap = _Resolution.of(x).truncation(hom_d_window(y, n))
    rk = hom_k(res, y, n)
    cols = [rk.coordinates(b.compose(epsmap)) for b in hk.basis]
    r = rank(Matrix(x.algebra.p, np.stack(cols, axis=1))) if cols and rk.dim else 0
    hyp = perpendicularity_hypothesis(x, y, depth)
    return LocalizationReport(hk.dim, rk.dim, r, hyp, r == rk.dim)
