"""The dual-numbers corpus: a tilted gentle tree algebra, its linear
partner, their tensor products with k[eps]/(eps^2), the derived
equivalence data between them, and the family of Gorenstein projective
modules that the stable functor transports.

The data between B and A is built by hand; everything over the
extensions is derived from it.  Lambda and Gamma are the algebras'
`dual_numbers_extension`s, which record their base and loops; F and G are
`functors.eps_extension` of the B/A data; the tilting complex T is the
images of F_BA shifted by one.

Scale parameter n >= 1:

  * A(n): vertices 0..2n+1, arrows a_{2i+1}: 2i+1 -> 2i and
    b_{2i+1}: 2i+1 -> 2i+3, every composite (b then a) zero;
  * B(n): the linear quiver 0 -> 1 -> ... -> 2n+1;
  * Lambda = k[eps] (x) A,  Gamma = k[eps] (x) B.

Over Gamma, the indecomposable non-projective Gorenstein projective
modules are compressions (`complexes.compress`), indexed by intervals:
M(i, l) is that of C(i, l) = (Q_{i+l} -> Q_i), the inclusion, in degrees
-1 and 0 (`interval_complex`), and it is S (x) Q_i when Q_{i+l} is zero
and C(i, l) the stalk Q_i (S (x) P_i likewise over Lambda).  Each other
M(i, l) sits in the compression of the brutal-truncation sequence
sigma>=0 C -> C -> sigma<0 C,

    0 -> S (x) Q_i -> M(i, l) -> S (x) Q_{i+l} -> 0,

which the generator uses (rather than hand-typed tables) to derive
expected values.
"""

from __future__ import annotations

from .algebra import BoundQuiverAlgebra, Quiver, linear_algebra_An
from .complexes import compress, module_complex, shift
from .exactlin import DEFAULT_PRIME, Matrix
from .functors import FunctorData, TiltingCandidate, eps_extension
from .homological import dual, transpose
from .modules import (
    ProjSummands,
    RepHom,
    Representation,
    direct_sum,
    element_matrix_to_hom,
    kernel,
    projective,
    projective_cover,
)
from .projcplx import ProjChainMap, ProjComplex, recognize


def gentle_tree_algebra(n: int = 1, p: int = DEFAULT_PRIME) -> BoundQuiverAlgebra:
    verts = [str(i) for i in range(2 * n + 2)]
    arrows = []
    for i in range(n + 1):
        arrows.append((f"a{2 * i + 1}", str(2 * i + 1), str(2 * i)))
    for i in range(n):
        arrows.append((f"b{2 * i + 1}", str(2 * i + 1), str(2 * i + 3)))
    rels = []
    for i in range(n):
        src = str(2 * i + 1)
        rels.append({(src, (f"b{2 * i + 1}", f"a{2 * i + 3}")): 1})
    return BoundQuiverAlgebra(Quiver(verts, arrows), rels, p=p)


def interval_module(balg: BoundQuiverAlgebra, i: int, l: int) -> Representation:
    """The interval B-module supported on [i, i+l-1] with identity arrows."""
    dims = {}
    for j in range(i, i + l):
        dims[str(j)] = 1
    mats = {}
    for n, s, t in balg.quiver.arrows:
        if s in dims and t in dims:
            mats[n] = Matrix(balg.p, [[1]])
    return Representation(balg, dims, mats)


def interval_complex(balg: BoundQuiverAlgebra, i: int, l: int) -> ProjComplex:
    """C(i, l) = (Q_{i+l} -> Q_i) in degrees -1 and 0 by the path from i to
    i+l, the projective resolution of `interval_module(balg, i, l)`; Q_{i+l}
    is zero, and C(i, l) the stalk Q_i, when the interval ends at the sink."""
    tail = [str(i + l)] if i + l < len(balg.quiver.vertices) else []
    pth = (str(i), tuple(f"b{j}" for j in range(i, i + l)))
    return ProjComplex(balg, {-1: ProjSummands(balg, tail), 0: ProjSummands(balg, [str(i)])}, {-1: [[{pth: 1}]]}, check=False)


def _tau_inverse_orbits(alg: BoundQuiverAlgebra) -> list[Representation]:
    """P_v, tau^-1 P_v, ... (tau^-1 = Tr D) up to the first zero, for each
    vertex v.  tau^-1 maps the non-injective indecomposables bijectively
    to the non-projective ones, so these are pairwise non-isomorphic
    indecomposables; when alg is representation-directed (a
    representation-finite tree algebra is), they are all of them
    (Auslander-Reiten-Smalo, Representation Theory of Artin Algebras)."""
    out = []
    for v in alg.quiver.vertices:
        x = projective(alg, v)
        while not x.is_zero():
            out.append(x)
            x = transpose(dual(x))
    return out


class Corpus:
    """All the data of the worked family at scale n."""

    def __init__(self, n: int = 1, p: int = DEFAULT_PRIME):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.p = p
        self.A = gentle_tree_algebra(n, p)
        self.B = linear_algebra_An(2 * n + 2, p)
        self.Lam = self.A.dual_numbers_extension()
        self.Gam = self.B.dual_numbers_extension()
        m = 2 * n + 2
        compressions = {(i, l): compress(interval_complex(self.B, i, l).to_complex()) for i in range(m) for l in range(1, m - i + 1)}
        self.M: dict[tuple[int, int], Representation] = {key: mod for key, (mod, _, _) in compressions.items()}
        self.S_Q = {i: self.M[(i, m - i)] for i in range(m)}
        self.S_P = {i: compress(module_complex(projective(self.A, str(i))))[0] for i in range(m)}
        self.ses: dict[tuple[int, int], tuple[RepHom, RepHom]] = {
            (i, l): (RepHom(self.S_Q[i], mod, incls[0].mats), RepHom(mod, self.S_Q[i + l], projs[1].mats))
            for (i, l), (mod, incls, projs) in compressions.items() if len(incls) == 2
        }
        self.F_BA = self._functor_data(self.B, self.A)
        self.F = eps_extension(self.F_BA)
        self.G_AB = self._inverse_data(self.A, self.B)
        self.G = eps_extension(self.G_AB)
        # T = F_BA's images, shifted into degrees [-1, 0]
        self.tilting = TiltingCandidate(self.A, [recognize(shift(img.to_complex(), 1)) for img in self.F_BA.images.values()])
        self.manifest = self._manifest()

    # -- modules -------------------------------------------------------

    def pullback_module(self, i: int) -> Representation:
        """The stable image of S (x) Q_{2i} predicted by the pullback of
        the extension projective at 2i+1 against S (x) P_{2i}: the
        projective cover of S (x) P_{2i+1}, which kills eps, against the
        arrow a_{2i+1}."""
        alg = self.A
        sp0 = self.S_P[2 * i]
        sp1 = self.S_P[2 * i + 1]
        _, pi = projective_cover(sp1)
        g = element_matrix_to_hom(
            alg,
            [[alg.arrow(f"a{2 * i + 1}")]],
            ProjSummands(alg, [str(2 * i)]),
            ProjSummands(alg, [str(2 * i + 1)]),
        )
        gl = RepHom(sp0, sp1, dict(g.mats))
        tot, _, projs = direct_sum([pi.source, sp0])
        diff = pi.compose(projs[0]) - gl.compose(projs[1])
        pb, _ = kernel(diff)
        return pb

    # -- functor data -----------------------------------------------------

    def _functor_data(self, src: BoundQuiverAlgebra, tgt: BoundQuiverAlgebra) -> FunctorData:
        n = self.n
        images: dict[str, ProjComplex] = {}
        for i in range(n + 1):
            v = str(2 * i + 1)
            images[v] = ProjComplex(tgt, {1: ProjSummands(tgt, [v])}, {}, check=False)
        for i in range(n + 1):
            v, w = str(2 * i), str(2 * i + 1)
            images[v] = ProjComplex(
                tgt,
                {0: ProjSummands(tgt, [v]), 1: ProjSummands(tgt, [w])},
                {0: [[tgt.arrow(f"a{2 * i + 1}")]]},
            )
        arrow_maps: dict[str, ProjChainMap] = {}
        for j in range(2 * n + 1):
            # arrow j -> j+1 in degree 1: the identity of P_(j+1) for even j,
            # the arrow b_j of the target algebra for odd j
            entry = tgt.e(str(j + 1)) if j % 2 == 0 else tgt.arrow(f"b{j}")
            arrow_maps[f"b{j}"] = ProjChainMap(images[str(j + 1)], images[str(j)], {1: [[entry]]})
        return FunctorData(src, tgt, images, arrow_maps)

    def _inverse_data(self, src: BoundQuiverAlgebra, tgt: BoundQuiverAlgebra) -> FunctorData:
        """Strict data for the shifted quasi-inverse: images of the
        projectives of the (tree-side) algebra inside complexes over the
        (linear-side) algebra, padded with contractible summands so that
        the tree relations vanish on the nose."""
        n = self.n
        images: dict[str, ProjComplex] = {}
        for i in range(n + 1):
            v = str(2 * i)
            images[v] = ProjComplex(
                tgt,
                {0: ProjSummands(tgt, [str(2 * i + 1)]), 1: ProjSummands(tgt, [str(2 * i)])},
                {0: [[tgt.arrow(f"b{2 * i}")]]},
            )
        images["1"] = ProjComplex(tgt, {0: ProjSummands(tgt, ["1"])}, {}, check=False)
        for j in range(1, n + 1):
            v = str(2 * j + 1)
            images[v] = ProjComplex(
                tgt,
                {
                    0: ProjSummands(tgt, [str(2 * j + 1), str(2 * j)]),
                    1: ProjSummands(tgt, [str(2 * j)]),
                },
                {0: [[{}, tgt.e(str(2 * j))]]},
            )
        arrow_maps: dict[str, ProjChainMap] = {}
        # a1 : 1 -> 0
        arrow_maps["a1"] = ProjChainMap(images["0"], images["1"], {0: [[tgt.e("1")]]})
        # a_{2j+1} : 2j+1 -> 2j for j >= 1
        for j in range(1, n + 1):
            v21, v20 = str(2 * j + 1), str(2 * j)
            arrow_maps[f"a{2 * j + 1}"] = ProjChainMap(
                images[v20],
                images[v21],
                {
                    0: [[tgt.e(v21)], [tgt.arrow(f"b{2 * j}")]],
                    1: [[tgt.e(v20)]],
                },
            )
        # b_{2i+1} : 2i+1 -> 2i+3 for i in 0..n-1
        for i in range(n):
            srcv = str(2 * i + 3)
            tgtv = str(2 * i + 1)
            bb = {(tgtv, (f"b{2 * i + 1}", f"b{2 * i + 2}")): 1}
            bshort = tgt.arrow(f"b{2 * i + 1}")
            if i == 0:
                comps = {0: [[bb, tgt.smul(-1, bshort)]]}
            else:
                comps = {
                    0: [[bb, tgt.smul(-1, bshort)], [{}, {}]],
                    1: [[{}]],
                }
            arrow_maps[f"b{2 * i + 1}"] = ProjChainMap(images[srcv], images[tgtv], comps)
        return FunctorData(src, tgt, images, arrow_maps)

    # -- manifest -----------------------------------------------------------

    def _manifest(self) -> dict:
        n = self.n
        pairs = sorted(self.M)
        return {
            "n": n,
            "pair_count": len(pairs),
            "pairs": pairs,
            "module_dims": {f"{i},{l}": self.M[(i, l)].total_dim() for (i, l) in pairs},
            "gp_expected": {f"{i},{l}": True for (i, l) in pairs},
            "odd_full": {f"{2 * i + 1},{2 * n + 1 - 2 * i}": f"S_P_{2 * i + 1}" for i in range(n + 1)},
            "even_full": {f"{2 * i},{2 * n + 2 - 2 * i}": f"pullback_{2 * i}" for i in range(n + 1)},
        }

    def indecomposables_B(self) -> list[Representation]:
        return [interval_module(self.B, i, l) for i, l in self.M]

    def indecomposables_A(self) -> list[Representation]:
        return _tau_inverse_orbits(self.A)


_corpus_cache: dict[tuple[int, int], Corpus] = {}


def corpus(n: int = 1, p: int = DEFAULT_PRIME) -> Corpus:
    key = (n, p)
    if key not in _corpus_cache:
        _corpus_cache[key] = Corpus(n, p)
    return _corpus_cache[key]
