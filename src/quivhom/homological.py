"""Module-level homological operations: minimal resolutions, Ext groups,
syzygies, transpose, duality, decomposition and isomorphism testing.

A minimal resolution is a view of the package's one resolution
construction, `complexes._Resolution` of the module's stalk complex.  Ext
is read off it through the Yoneda identification Hom(P_v, N) = N(v) as
the rank count dim Hom(P_i, N) - rk d_(i+1)* - rk d_i*, each d_i* a small
dense matrix assembled from the resolution's element-matrix
differentials, and is checked by balance, Ext^i_A(M, N) =
Ext^i_(A^op)(DN, DM).

Decomposition and isomorphism testing are one Krull-Schmidt layer over
complexes: a module is split and compared as its stalk complex, whose
strict chain endomorphisms Z^0 are End(m), so modules and complexes of
projectives share one splitter (`split_complex`), one locality test
(`_is_local`, the trace-form radical of Z^0's structure constants) and
one isomorphism search (`find_strict_iso`), which decides every class
multiplicity (`group_isomorphic`).  Splitting is a Las Vegas algorithm
(seeded): split along idempotents of F_p[f] for random f in Z^0 until
every piece has a certified local Z^0.  Each f gives one draw in the
Berlekamp subalgebra of F_p[f], by linear algebra on f itself, with no
polynomial formed (`_split_idempotent`).  Both random searches read one
budget, DRAWS.
"""

from __future__ import annotations

import numpy as np

from .algebra import BoundQuiverAlgebra, Element, cached, path_arrows
from .complexes import ChainMap, Complex, HomEngine, _resolution, identity_chain_map, module_complex
from .exactlin import Matrix, extending_columns, inverse, nullspace, rank, rref, solve
from .modules import (
    ElementMatrix,
    ProjSummands,
    RepHom,
    Representation,
    _free_rows,
    _read_off,
    cokernel,
    direct_sum_module,
    element_matrix_to_hom,
    flatten_blocks,
    hom_frame,
    identity_hom,
    image,
    kernel,
    lift,
    projective,
    projective_cover,
    regular_module,
    zero_hom,
    zero_rep,
)
from .projcplx import ProjComplex


class MinimalResolution:
    """Minimal projective resolution ... -> P_1 -> P_0 -> m -> 0, the one
    resolution of m that every consumer reads: a view, with P_k in degree
    -k, of the construction `complexes._Resolution` of the stalk complex
    of m, with no step of its own.

    terms[k] is a ProjSummands, for k up to the depth the view reached;
    dmats[k] (k >= 1) is the element matrix of d_k : P_k -> P_{k-1} ([]
    where P_{k-1} = 0), built on first read and kept on the construction;
    homs[0] is the cover P_0 ->> m.  The syzygy K_k is built on demand,
    as the kernel of the map before it.
    """

    def __init__(self, m: Representation):
        self._res = _resolution(module_complex(m))
        p0, epi = projective_cover(m)  # the construction's P_0 and eps_0
        self.terms: list[ProjSummands] = [p0]
        self.homs: list[RepHom] = [epi]
        self._cache: dict = {}

    def extend_to(self, depth: int):
        self._res.extend_to(-depth)
        empty = ProjSummands(self._res.complex.algebra, ())
        self.terms += [self._res.psums.get(-k, empty) for k in range(len(self.terms), depth + 1)]
        return self

    @property
    def dmats(self) -> list[ElementMatrix | None]:
        return [None] + [self._res.dmat(-k) if self.terms[k - 1] else [] for k in range(1, len(self.terms))]

    @cached
    def syzygy_module(self, k: int) -> Representation:
        """K_k, the kernel of P_(k-1) ->> K_(k-1) (K_0 = m), unstripped:
        kernel(d_(k-1)), or kernel(homs[0]) for k = 1.  Built once."""
        if k == 0:
            return self.homs[0].target
        return kernel(self.homs[0] if k == 1 else self.diff_hom(k - 1))[0]

    def diff_hom(self, k: int) -> RepHom:
        """d_k : P_k -> P_{k-1} as a RepHom (k >= 1)."""
        self.extend_to(k)
        d = self._res.dP.get(-k)
        return d if d is not None else zero_hom(self.terms[k].rep(), self.terms[k - 1].rep())

    def proj_complex(self, window_lo: int) -> ProjComplex:
        """The resolution as a ProjComplex in degrees [window_lo, 0], the
        construction's one cached object per window."""
        self.extend_to(-window_lo)
        return self._res.proj_complex(window_lo)


@cached
def _minres(m: Representation) -> MinimalResolution:
    return MinimalResolution(m)


def minimal_resolution(m: Representation, depth: int) -> MinimalResolution:
    """The one minimal resolution of m, kept on m, extended to depth."""
    return _minres(m).extend_to(depth)


def _yoneda_rank(res: MinimalResolution, i: int, n: Representation) -> int:
    """rk d_i* for d_i* = Hom(d_i, n) : Hom(P_(i-1), n) -> Hom(P_i, n) in
    Yoneda coordinates, 0 for i = 0.

    d_i has element matrix res.dmats[i] (rows = P_(i-1) summands); the
    entry u in Hom(P_{v_j}, P_{w_l}) pulls back along the action of u.
    """
    if i == 0:
        return 0
    src, tgt, emat = res.terms[i], res.terms[i - 1], res.dmats[i]
    roff = np.cumsum([0] + [n.dims[v] for v in src.vertices])
    coff = np.cumsum([0] + [n.dims[w] for w in tgt.vertices])
    out = np.zeros((roff[-1], coff[-1]), dtype=np.int64)
    for l in range(len(tgt.vertices)):
        for j in range(len(src.vertices)):
            if emat[l][j]:
                out[roff[j] : roff[j + 1], coff[l] : coff[l + 1]] = n.evaluate(emat[l][j]).data  # n(w_l) -> n(v_j)
    return rank(Matrix(n.p, out))


def ext(m: Representation, n: Representation, i: int) -> int:
    """dim Ext^i(m, n) = dim Hom(P_i, n) - rk d_(i+1)* - rk d_i*, with
    Hom(P_v, n) = n(v), from a resolution of depth i + 1."""
    if i < 0:
        raise ValueError("ext degree must be >= 0")
    if m.is_zero() or n.is_zero():
        return 0
    res = minimal_resolution(m, i + 1)
    return sum(n.dims[v] for v in res.terms[i].vertices) - _yoneda_rank(res, i + 1, n) - _yoneda_rank(res, i, n)


def ext_row(y: Representation, k: int) -> list[int]:
    """[dim Ext^i(y, A) for i = 1..k] against the regular module
    A = (+)_v P_v, by the rank count of `ext`.  The ranks
    [rk d_i* for i = 0..] are cached on y and extended one degree at a
    time, so reading the row a degree further costs one new rank."""
    if k < 0:
        raise ValueError("ext_row length must be >= 0")
    A = regular_module(y.algebra)
    res = minimal_resolution(y, k + 1)
    ranks = _ext_ranks(y)
    ranks += [_yoneda_rank(res, i, A) for i in range(len(ranks), k + 2)]
    return [sum(A.dims[v] for v in res.terms[i].vertices) - ranks[i + 1] - ranks[i] for i in range(1, k + 1)]


@cached
def _ext_ranks(y: Representation) -> list[int]:
    """[rk d_i* for i = 0..] against the regular module, as far as `ext_row` has appended."""
    return []


# -- syzygies -----------------------------------------------------------


def strip_projectives(m: Representation):
    """(m with its projective direct summands split off, list of the
    removed P_v).

    The multiplicity of P_v in m is the rank of the composition pairing
    Hom(m, P_v) x Hom(P_v, m) -> End(P_v)/rad = k.  With Hom(P_v, m) = m(v),
    the pairing matrix has one row per Hom basis map f: the generator row
    of f at v.  Maps whose rows are independent, taken over all v, form
    F : m -> (+)_v P_v^(r_v) with F o G invertible for some G (modulo the
    radical F o G is block diagonal with invertible blocks), so m is
    im G (+) ker F and ker F has no projective summand.  Cached on m.
    """
    rest, dropped = _split_projectives(m)
    return rest, list(dropped)


@cached
def _split_projectives(m: Representation):
    alg = m.algebra
    if m.is_zero():
        return m, []
    cover, _ = projective_cover(m)
    rows, dropped = {v: [] for v in alg.quiver.vertices}, []
    for v in dict.fromkeys(cover.vertices):
        frame = hom_frame(m, projective(alg, v))
        if not frame.dim:
            continue
        gen = ProjSummands(alg, (v,)).generator_index(0)
        blocks = frame.blocks()
        for j in rref(Matrix(m.p, blocks[v][:, gen].T))[1]:
            for w in alg.quiver.vertices:
                rows[w].append(blocks[w][j])
            dropped.append(frame.target)
    if not dropped:
        return m, []
    total = direct_sum_module(dropped)
    mats = {w: Matrix(m.p, np.vstack(rows[w])) for w in alg.quiver.vertices}
    rest, _ = kernel(RepHom(m, total, mats, check=False))
    return rest, dropped


def syzygy(m: Representation, k: int) -> Representation:
    """k-th syzygy K_k of the minimal resolution, with projective summands
    stripped.  Omega(X (+) P) = Omega X, so this is the iterated
    strip-then-cover syzygy up to isomorphism."""
    if k < 0:
        raise ValueError("syzygy index must be >= 0")
    return strip_projectives(minimal_resolution(m, k).syzygy_module(k))[0]


def projdim(m: Representation, bound: int):
    """Length of the minimal resolution: the least k <= bound with
    P_(k+1) = 0, or None if it exceeds bound."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    res = minimal_resolution(m, 0)
    for k in range(bound + 1):
        if not res.extend_to(k + 1).terms[k + 1].vertices:
            return k
    return None


# -- duality and transpose ------------------------------------------------


@cached
def dual(m: Representation) -> Representation:
    """The linear dual, a representation of the opposite algebra; cached
    on m, so the dual of a shared projective (an injective) keeps its
    own minimal resolution.  A relation of the opposite algebra is a
    reversed relation of m's, and acts on the transposed matrices as the
    transpose of its action on m, so the dual is built unchecked."""
    mats = {n: m.mats[n].transpose() for n, _, _ in m.algebra.quiver.arrows}
    return Representation(m.algebra.opposite(), dict(m.dims), mats, check=False)


def op_element(alg: BoundQuiverAlgebra, e: Element) -> Element:
    """Image of an element under the arrow-reversing isomorphism A -> A^op."""
    out: Element = {}
    for pth, c in e.items():
        out[(alg.path_target(pth), tuple(reversed(path_arrows(pth))))] = c
    return out


@cached
def transpose(m: Representation) -> Representation:
    """Auslander-Bridger transpose over the opposite algebra.

    Given the minimal presentation P_1 -> P_0 -> m -> 0, returns
    coker(Hom(P_0, A) -> Hom(P_1, A)); Tr(projective) = 0.  Cached on m,
    like `dual`, so Tr m keeps its own minimal resolution.
    """
    alg = m.algebra
    op = alg.opposite()
    if m.is_zero():
        return zero_rep(op)
    res = minimal_resolution(m, 1)
    p0, p1 = res.terms[0], res.terms[1]
    d = res.dmats[1]  # rows = p0 summands, cols = p1 summands
    # dual map P_0^op -> P_1^op: entry (j, l) = op(d[l][j])
    emat = [[op_element(alg, d[l][j]) for l in range(len(p0.vertices))] for j in range(len(p1.vertices))]
    return cokernel(element_matrix_to_hom(op, emat, ProjSummands(op, p0.vertices), ProjSummands(op, p1.vertices)))[0]


# -- decomposition and isomorphism ------------------------------------------

# random strict endomorphisms `split_complex` tries per piece, and random
# strict maps `find_strict_iso` tries
DRAWS = 60


def _power(x, e: int, mul, one):
    """x^e (e >= 0) by square-and-multiply, for the product mul with unit one."""
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        x = mul(x, x)
        e >>= 1
    return out


def _split_idempotent(maps: list[RepHom], rng) -> list[RepHom] | None:
    """A nontrivial idempotent e of A = F_p[f], f the endomorphism given
    degreewise by maps (one map for a module), as one RepHom per map; None
    when A is local (f splits nothing) or the one draw from rng gave a
    trivial e, so that `split_complex` draws a new f under its budget.

    A is spanned by f^0, ..., f^(d-1), up to the first dependent power.
    Its Berlekamp subalgebra B = ker(x -> x^p - x) (F_p-linear, as A is
    commutative of characteristic p) is the span of the primitive
    idempotents e_i of A.  For a random b = sum c_i e_i in B,
    s = b^((p-1)/2) = sum chi(c_i) e_i, chi the quadratic character, and
    e = (s^2 + s)/2 is the sum of the e_i with chi(c_i) = 1: no
    polynomial is formed.  A draw is trivial (e = 0 or 1) with
    probability about 2^(1 - dim B) <= 1/2.
    """
    p = maps[0].source.p
    verts = maps[0].source.algebra.quiver.vertices
    blocks = [f.mats[v].data for f in maps for v in verts]
    one = [np.eye(len(x), dtype=np.int64) for x in blocks]

    def mul(x, y):
        return [a @ b % p for a, b in zip(x, y)]

    def columns(elems):
        return np.stack([np.concatenate([a.ravel() for a in x]) for x in elems], axis=1)

    # double the number of powers until one depends on those before it
    powers = [one]
    while True:
        for _ in range(len(powers)):
            powers.append(mul(powers[-1], blocks))
        d = rank(Matrix(p, columns(powers)))
        if d < len(powers):
            break
    span = Matrix(p, columns(powers[:d]))
    # Frobenius sends f^j to (f^p)^j; its matrix in the power basis
    fp = _power(blocks, p, mul, one)
    images = [one]
    for _ in range(d - 1):
        images.append(mul(images[-1], fp))
    fixed = nullspace(solve(span, Matrix(p, columns(images))) - Matrix.identity(p, d))
    if fixed.cols < 2:
        return None
    B = span.data @ fixed.data % p
    cuts = np.cumsum([x.size for x in blocks])[:-1]
    flat = B @ rng.integers(0, p, size=fixed.cols) % p
    b = [part.reshape(x.shape) for part, x in zip(np.split(flat, cuts), blocks)]
    s = _power(b, (p - 1) // 2, mul, one)
    e = [(x @ x % p + x) * ((p + 1) // 2) % p for x in s]
    if not any(x.any() for x in e) or all(np.array_equal(x, i) for x, i in zip(e, one)):
        return None
    it = iter(e)
    return [RepHom(f.source, f.source, {v: Matrix(p, next(it)) for v in verts}, check=False) for f in maps]


class DecompositionError(RuntimeError):
    """Raised when indecomposability cannot be certified within budget."""


def _strict_maps(x: Complex, y: Complex) -> tuple[HomEngine, np.ndarray]:
    """The total Hom engine of (x, y) and Z^0, the strict chain maps
    x -> y: the cycles of D_0, as columns in Hom^0 coordinates in
    reduced-echelon normal form.  For modules, stalk complexes in degree
    0, Hom^1 = 0, so Z^0 is Hom(x^0, y^0) with the identity for cycles."""
    eng = HomEngine(x, y)
    return eng, nullspace(eng.boundary(0)).data


def _cycle_coordinates(cycles: np.ndarray, vecs: np.ndarray, p: int) -> np.ndarray:
    """Coordinates in the basis cycles of the columns of vecs (Hom^0
    coordinates): vecs itself when the cycles are all of Hom^0."""
    if cycles.shape[0] == cycles.shape[1]:
        return vecs % p
    return _read_off(cycles, _free_rows(cycles), vecs, p, "composite escaped the strict endomorphisms")


def _end_structure(eng: HomEngine, cycles: np.ndarray) -> np.ndarray:
    """Structure constants of the algebra Z^0 spanned by cycles, strict
    chain endomorphisms of eng.c: z_i o z_j = sum_k sc[i, j, k] z_k.  In
    each degree all n^2 composites are formed at once and read off the
    frame in one call."""
    n, p = cycles.shape[1], eng.p
    coords = []
    for i, off, size in eng.layout(0):
        frame = eng.frame(i, i)
        # degree i of the cycles, as the basis of a frame with the same layout
        zs = frame._replace(flats=frame.flats @ cycles[off : off + size] % p).blocks()
        comp = {v: (z[:, None] @ z[None, :]).reshape(n * n, *z.shape[1:]) for v, z in zs.items()}
        coords.append(frame.coordinates(flatten_blocks(eng.c.algebra, comp)))
    return _cycle_coordinates(cycles, np.concatenate(coords), p).T.reshape(n, n, n)


def _end_radical(p: int, sc) -> Matrix:
    """Radical of a finite-dimensional algebra E with structure constants
    sc (sc[i, j] holds the coordinates of b_i b_j), via the trace form of
    the regular representation.

    Valid only when p exceeds dim E, so dim E >= p raises
    DecompositionError; returns a matrix whose columns are radical basis
    vectors in E coordinates.
    """
    n = sc.shape[0]
    if n >= p:
        raise DecompositionError(
            f"dim End = {n} >= p = {p}; rerun with a larger prime to certify"
        )
    # T[i, j] = trace(L_i L_j), L_i the matrix of left multiplication by
    # b_i, is sum_(k, l) sc[i, l, k] sc[j, k, l] = sum_k (A_k B_k^T)[i, j]
    # with A_k = sc[:, :, k] and B_k = sc[:, k, :]: n products, not n^2
    T = np.zeros((n, n), dtype=np.int64)
    for k in range(n):
        T = (T + sc[:, :, k] @ sc[:, k, :].T) % p
    return nullspace(Matrix(p, T))


def _is_local(eng: HomEngine, cycles: np.ndarray) -> bool:
    """Certify that the algebra Z^0 of strict chain endomorphisms of
    eng.c, spanned by cycles, is local (so eng.c is indecomposable): the
    trace-form radical of its structure constants, then E/rad.  The zero
    complex, with Z^0 = 0, is not indecomposable."""
    n = cycles.shape[1]
    if n <= 1:
        return n == 1
    p = eng.p
    sc = _end_structure(eng, cycles)
    radbasis = _end_radical(p, sc)
    r = radbasis.cols
    if n - r == 1:
        return True
    # E/rad is local iff it is commutative (no matrix factor) and has one
    # field factor, counted Berlekamp-style as dim ker(x -> x^p - x).  The
    # unit vectors independent of rad and of the ones before them span a
    # complement of rad; qsc holds the structure constants of E/rad in
    # those coordinates, e_i e_j = sum_k qsc[i, j, k] e_k.
    _, comp = extending_columns(radbasis, Matrix.identity(p, n))
    full = Matrix.hstack([radbasis, Matrix(p, np.eye(n, dtype=np.int64)[:, comp])])
    to_comp = inverse(full).data[r:]  # full is square and invertible
    q = len(comp)
    qsc = sc[np.ix_(comp, comp)] @ to_comp.T % p
    if not np.array_equal(qsc, qsc.transpose(1, 0, 2)):
        return False

    def qmul(a, b):
        """Row-wise products a[r] b[r] in E/rad: two products, each with
        inner dimension q."""
        t = (a @ qsc.reshape(q, q * q) % p).reshape(-1, q, q)
        return (b[:, None, :] @ t)[:, 0, :] % p

    one = to_comp @ _cycle_coordinates(cycles, eng.vector_of(identity_chain_map(eng.c))[:, None], p) % p
    eye = np.eye(q, dtype=np.int64)
    frob = _power(eye, p, qmul, np.repeat(one.T, q, axis=0))
    return nullspace(Matrix(p, (frob - eye).T)).cols == 1


def _summand(c: Complex, e: dict[int, RepHom]) -> Complex:
    """im e, for e an idempotent chain endomorphism of c given
    degreewise: a direct summand of c, with the differential lifted
    through the inclusions of the images."""
    parts = {i: image(x) for i, x in e.items()}
    diffs = {i: lift(parts[i + 1][1], c.diff(i).compose(incl)) for i, (_, incl) in parts.items() if i + 1 in parts}
    return Complex(c.algebra, {i: sub for i, (sub, _) in parts.items()}, diffs, check=False)


def split_complex(c: Complex, seed: int = 0) -> list[Complex]:
    """Indecomposable direct summands of c, as subcomplexes, certified by
    a local algebra of strict chain endomorphisms (`_is_local`).

    A piece that is not certified splits into im(1 - e) (+) im e along an
    idempotent e of F_p[f] (`_split_idempotent`, one draw), f a random
    element of its Z^0 taken degreewise; a piece that DRAWS such f leave unsplit
    raises DecompositionError naming the budget and the piece.  A module
    is split as its stalk complex (`decompose`), a complex of projectives
    as itself (`functors.check_tilting`).
    """
    rng = np.random.default_rng(seed)
    pieces: list[Complex] = []
    stack = [c]
    while stack:
        cur = stack.pop()
        if cur.is_zero():
            continue
        eng, cycles = _strict_maps(cur, cur)
        if _is_local(eng, cycles):
            pieces.append(cur)
            continue
        degrees = sorted(cur.terms)
        for _ in range(DRAWS):
            f = eng.map_of(0, cycles @ rng.integers(0, eng.p, size=cycles.shape[1]) % eng.p)
            e = _split_idempotent([f.map(i) for i in degrees], rng)
            if e:
                break
        else:
            vectors = ", ".join(f"{list(t.dims.values())} in degree {i}" for i, t in sorted(cur.terms.items()))
            raise DecompositionError(
                f"could not certify a split within budget = {DRAWS} random endomorphisms "
                f"of the piece with dimension vector {vectors}"
            )
        stack.append(_summand(cur, {i: identity_hom(x.source) - x for i, x in zip(degrees, e)}))
        stack.append(_summand(cur, dict(zip(degrees, e))))
    return pieces


def decompose(m: Representation, seed: int = 0):
    """Indecomposable direct summands with multiplicity.

    Returns a list of (representation, multiplicity), sorted by total
    dimension and then by dimension vector (in quiver vertex order); the
    parts are certified indecomposable (local End) and their dimensions
    add up.  They are the degree-0 terms of `split_complex` of the stalk
    complex of m, whose Z^0 is End(m), grouped by `group_isomorphic`.
    """
    return _decompose(m, seed)


@cached
def _decompose(m: Representation, seed: int):
    pieces = split_complex(module_complex(m), seed)
    pieces.sort(key=lambda c: (c.terms[0].total_dim(), list(c.terms[0].dims.values())))
    return [(c.terms[0], k) for c, k in group_isomorphic(pieces, lambda c: c.terms[0].dims, seed)]


def group_isomorphic(cxs: list[Complex], key, seed: int = 0) -> list[tuple[Complex, int]]:
    """[(representative, multiplicity)] of the complexes cxs up to strict
    isomorphism, in first-seen order: a complex joins the first class with
    an equal key(.) whose representative `find_strict_iso` (seeded) maps
    onto it.  key must agree on isomorphic complexes (a dimension vector, a
    signature), so two classes are isomorphic only where a search failed."""
    classes: list[list] = []  # [representative, key, multiplicity]
    for c in cxs:
        k = key(c)
        for cls in classes:
            if cls[1] == k and find_strict_iso(cls[0], c, seed) is not None:
                cls[2] += 1
                break
        else:
            classes.append([c, k, 1])
    return [(rep, mult) for rep, _, mult in classes]


def find_strict_iso(x: Complex, y: Complex, rng) -> ChainMap | None:
    """A strict isomorphism x -> y, a chain map invertible in every
    degree, or None when none was found.

    Tries DRAWS random elements of Z^0(Hom(x, y)).  Las Vegas: a
    returned map is an isomorphism, but None from a nonzero Z^0 is only
    a failed search.  On stalk complexes this compares modules
    (`find_iso`); two minimal complexes of projectives are strictly
    isomorphic exactly when they are homotopy equivalent.  rng is a numpy
    Generator, or a seed for one, made only when Z^0 is nonzero.
    """
    eng, cycles = _strict_maps(x, y)
    if not cycles.shape[1]:
        return None
    rng = np.random.default_rng(rng)
    p, degrees = eng.p, sorted(set(x.terms) | set(y.terms))
    for _ in range(DRAWS):
        f = eng.map_of(0, cycles @ rng.integers(0, p, size=cycles.shape[1]) % p)
        if all(f.map(i).is_iso() for i in degrees):
            return f
    return None


def find_iso(a: Representation, b: Representation, rng) -> RepHom | None:
    """An explicit isomorphism a -> b, or None when none was found:
    `find_strict_iso` of the stalk complexes, after the exits for unequal
    dimension vectors and the zero module."""
    if a.algebra is not b.algebra:
        raise ValueError("different algebras")
    if a.dims != b.dims:
        return None
    if a.is_zero():
        return zero_hom(a, b)
    f = find_strict_iso(module_complex(a), module_complex(b), rng)
    return None if f is None else f.map(0)


def is_isomorphic(m: Representation, n: Representation, seed: int = 0) -> bool:
    """Whether find_iso, seeded, finds an isomorphism m -> n.  False is a
    failed search, not a proof."""
    return find_iso(m, n, seed) is not None
