"""The stable category and stable functors of non-negative functor data.

The stable image of a module x under functor data f is computed from the
canonical pipeline: substitute the minimal resolution of x (truncated at
`f.window(-1)` = -width - 2, which makes the result exact in all degrees
>= -1), cancel contractible summands, and truncate at degree zero.  The
degree-0 cokernel M is the stable image; the part in degrees >= 1 is a
bounded complex of projectives U, and the
degreewise-split sequence U -> model -> M[0] is the defining truncation
triangle.  One `TruncationTriangle` per (f, x) holds M, the model and
the choices that morphism transport reuses; U and the maps i, pi and mu
of the triangle are built on first read.

Morphisms are transported by lifting to resolutions, substituting, and
inducing on the degree-0 cokernels.  Two different lifts differ by a map
factoring through a projective, so the stable class is well defined.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .complexes import (
    ChainMap,
    Complex,
    HomEngine,
    _block_hom,
    _good_truncate_unchecked,
    brutal_truncate_geq,
    cone,
    hom_k_dim,
    homology_dims,
    is_acyclic,
    module_complex,
    total_cone,
)
from .exactlin import Matrix, rank, solve
from .homological import is_isomorphic, strip_projectives
from .modules import (
    HomFrame,
    RepHom,
    Representation,
    descend,
    direct_sum,
    direct_sum_module,
    hom_frame,
    identity_hom,
    is_projective,
    is_ses,
    kernel,
    lift,
    projective_cover,
    zero_hom,
)
from .functors import (
    FunctorData,
    apply_to_map,
    apply_to_module,
    shift_functor,
)
from .projcplx import minimize


# -- stable hom spaces ---------------------------------------------------


class StableHomSpace:
    """Hom(x, y) together with the subspace P(x, y) of maps factoring
    through projectives (= maps factoring through the cover of y).
    P(x, y) is spanned by the composites of Hom(x, cover) with the
    cover's epi, formed for that whole basis at once.  `frame`, `basis`
    and `dim` are computed on first read: `spans` needs none of them."""

    def __init__(self, x: Representation, y: Representation):
        self.x = x
        self.y = y
        ps, epi = projective_cover(y)
        self._factoring = hom_frame(x, ps.rep()).postcompose(epi)  # flat columns spanning P(x, y)

    @cached_property
    def frame(self) -> HomFrame:
        return hom_frame(self.x, self.y)

    @cached_property
    def basis(self) -> list[RepHom]:
        return self.frame.basis()

    @cached_property
    def dim(self) -> int:
        return self.frame.dim - rank(Matrix(self.x.p, self._factoring))

    def spans(self, cols: np.ndarray, g: RepHom) -> bool:
        """Whether g lies in span(cols) + P(x, y), for cols flat columns of
        maps x -> y (`RepHom.flat`): one solve."""
        if g.is_zero():
            return True
        full = np.hstack([cols, self._factoring])
        if not full.shape[1]:
            return False
        p = self.x.p
        return solve(Matrix(p, full), Matrix(p, g.flat().reshape(-1, 1))) is not None

    def factors_through_projective(self, f: RepHom) -> bool:
        return self.spans(self._factoring[:, :0], f)

    def equal(self, f: RepHom, g: RepHom) -> bool:
        return self.factors_through_projective(f - g)


class StableHom:
    """A morphism in the stable category: representative plus its ambient
    quotient-space description."""

    def __init__(self, rep: RepHom, space: StableHomSpace):
        self.rep = rep
        self.space = space

    def is_zero(self) -> bool:
        return self.space.factors_through_projective(self.rep)

    def is_stable_iso(self) -> bool:
        """True if the class f: x -> y is invertible in the stable category:
        id_x lies in Hom(y, x) f + P(x, x) (a left inverse) and id_y in
        f Hom(y, x) + P(y, y) (a right inverse).  Stably, a left and a
        right inverse agree, so together they are one two-sided inverse."""
        x, y, f = self.space.x, self.space.y, self.rep
        back = hom_frame(y, x)
        left = StableHomSpace(x, x).spans(back.precompose(f), identity_hom(x))
        return left and StableHomSpace(y, y).spans(back.postcompose(f), identity_hom(y))


def stable_hom(x: Representation, y: Representation) -> StableHomSpace:
    return StableHomSpace(x, y)


def stable_iso(x: Representation, y: Representation) -> bool:
    """Isomorphism in the stable category: strip projective summands,
    then search for an honest isomorphism (`is_isomorphic`, seed 0)."""
    sx, _ = strip_projectives(x)
    sy, _ = strip_projectives(y)
    return is_isomorphic(sx, sy)


# -- the truncation triangle and stable images ----------------------------


class TruncationTriangle:
    """The stable image of x under f and its truncation triangle
    U -> model -> M[0], the degreewise-split brutal truncation of the
    canonical model of F(x) at degree one.

    The model is the good truncation in degrees >= 0 of the minimized
    complex cmin, which is exact in degree -1; its degree-zero term M is
    the cokernel of d^{-1} and pi0 the projection onto it.  Morphism
    transport reuses these canonical choices.

    The rest of the triangle is built on first read: U is the brutal
    truncation of the model in degrees >= 1, a bounded complex of the
    shared projective sums of cmin (`projcplx.recognize` reads its
    summands); pi is a quasi-isomorphism exactly when U is acyclic; mu
    is the cone identification cone(i) -> M[0] (a quasi-isomorphism
    witnessing the connecting map of the triangle).
    """

    def __init__(self, f: FunctorData, x: Representation):
        self.cmin, self.mproj, self.minc = minimize(apply_to_module(f, x, f.window(-1)))
        self.model, wit = _good_truncate_unchecked(self.cmin.to_complex())
        self.M, self.pi0 = self.model.term(0), wit.map(0)

    @cached_property
    def U(self) -> Complex:
        return brutal_truncate_geq(self.model, 1)

    @cached_property
    def i(self) -> ChainMap:
        return ChainMap(self.U, self.model, {i: identity_hom(t) for i, t in self.U.terms.items()}, check=False)

    @cached_property
    def pi(self) -> ChainMap:
        return ChainMap(self.model, module_complex(self.M), {0: identity_hom(self.M)}, check=False)

    @cached_property
    def mu(self) -> ChainMap:
        cn, _, _ = cone(self.i)
        parts0 = [self.i.source.term(1), self.M]
        mu0 = _block_hom(cn.term(0), self.M, parts0, [self.M], {(0, 1): identity_hom(self.M)})
        return ChainMap(cn, module_complex(self.M), {0: mu0}, check=False)


def _pipeline(f: FunctorData, x: Representation) -> TruncationTriangle:
    key = ("stable", id(x))
    hit = f._apply_cache.get(key)
    if hit is not None and hit[0] is x:
        return hit[1]
    pl = TruncationTriangle(f, x)
    f._apply_cache[key] = (x, pl)
    return pl


def stable_image(f: FunctorData, x: Representation):
    """(M, truncation triangle) for the stable image of x under f."""
    pl = _pipeline(f, x)
    return pl.M, pl


def _model_chain_map(f: FunctorData, phi: RepHom) -> ChainMap:
    """Chain map between the models of F(source) and F(target) induced by
    a module map; its degree-0 component is the induced map M_x -> M_y."""
    px = _pipeline(f, phi.source)
    py = _pipeline(f, phi.target)
    psi = py.mproj.compose(apply_to_map(f, phi, f.window(-1))).compose(px.minc)
    psi_cm = psi.to_chain_map()
    comps = {i: m for i, m in psi_cm.maps.items() if i >= 1}
    if not px.M.is_zero() and not py.M.is_zero():
        comps[0] = descend(px.pi0, py.pi0.compose(psi_cm.map(0)))
    return ChainMap(px.model, py.model, comps)


def stable_image_map(f: FunctorData, phi: RepHom) -> StableHom:
    """The stable class of the induced map between stable images."""
    px = _pipeline(f, phi.source)
    py = _pipeline(f, phi.target)
    return StableHom(_model_chain_map(f, phi).map(0), stable_hom(px.M, py.M))


def omega_functor(alg, k: int) -> FunctorData:
    """Functor data whose stable functor is the k-th syzygy."""
    return shift_functor(alg, k)


# -- exactness construction ----------------------------------------------


class ExactSequenceImage:
    """0 -> M_x -> M_y (+) P -> M_z (+) Q -> 0 (`left`, `right`) with
    projective P, Q; a_hom : M_x -> M_y and u_hom : M_y -> M_z are the
    transported maps, the M_y and M_z blocks of its edge maps."""

    def __init__(self, P, Q, left, right, a_hom, u_hom):
        self.P = P
        self.Q = Q
        self.left = left
        self.right = right
        self.a_hom = a_hom
        self.u_hom = u_hom

    def verify_exact(self) -> bool:
        return is_ses(self.left, self.right)


def exact_sequence_image(f: FunctorData, fmap: RepHom, gmap: RepHom) -> ExactSequenceImage:
    """Transport a short exact sequence through the stable functor.

    Follows the mapping-cone construction: present the images of the two
    maps by chain maps p, q on the canonical models, identify the model of
    the source with the shifted cone of q (the comparison is a
    quasi-isomorphism, built from an explicit null-homotopy h of q p), and
    read the sequence off the total cone.  No choice of h is searched
    for: another h changes the comparison by a class in
    Hom_D(Fx, Fz[-1]) = Hom_D(x, z[-1]) = 0 when F is fully faithful on
    D^- (the derived equivalences, the shifts Omega and the corner
    inductions), so every h gives the same comparison in D.  For other
    non-negative F no such argument is known, and a cone that is not
    acyclic raises ValueError naming its cohomology and
    dim Hom_K(dx, dz[-1]).  The acyclic cone's degrees >= 2 are
    projective, so V = ker d^2 = im d^1 is projective and
    0 -> M_x -> M_y (+) V (+) dx^1 -> M_z (+) dx^2 (+) dy^1 -> 0 is exact.
    The edge maps M_x -> M_y and M_y -> M_z are the transported maps
    p^0 and q^0 themselves.
    """
    if fmap.target is not gmap.source:
        raise ValueError("maps do not compose")
    if not is_ses(fmap, gmap):
        raise ValueError("input is not a short exact sequence")
    alg = f.target
    pcm = _model_chain_map(f, fmap)
    qcm = _model_chain_map(f, gmap)
    dx, dy, dz = pcm.source, pcm.target, qcm.target
    h0 = HomEngine(dx, dz).solve_nullhomotopy(qcm.compose(pcm))
    if h0 is None:
        raise ValueError("composite image is not null-homotopic")
    cn = total_cone(pcm, qcm, h0)
    if not is_acyclic(cn):
        raise ValueError(
            f"the total cone is not acyclic: nonzero cohomology {homology_dims(cn)} by degree, "
            f"dim Hom_K(dx, dz[-1]) = {hom_k_dim(dx, dz, -1)}; no argument is known that another "
            "homotopy makes it acyclic when F is not fully faithful on D^-"
        )

    # cn is acyclic and projective above degree 1, so im d^1 = ker d^2 is
    # projective; it is all of cn^2 when cn stops there
    if 3 in cn.terms:
        V, vincl = kernel(cn.diff(2))
        d_1 = lift(vincl, cn.diff(1))
    else:
        V, d_1 = cn.term(2), cn.diff(1)
    if not is_projective(V):
        raise ValueError("collapsed top term is not projective")

    c1 = cn.term(1)
    section = zero_hom(V, c1)
    if not V.is_zero():
        frame = hom_frame(V, c1)
        rhs = Matrix(alg.p, identity_hom(V).flat().reshape(-1, 1))
        sol = solve(Matrix(alg.p, frame.postcompose(d_1)), rhs)
        if sol is None:
            raise ValueError("no section onto the collapsed projective")
        section = frame.combination(sol.data[:, 0])

    mid, mid_incls, mid_projs = direct_sum([V, cn.term(0)])
    left = mid_incls[1].compose(cn.diff(-1))
    right = (section.compose(mid_projs[0]) + cn.diff(0).compose(mid_projs[1])).scale(-1)
    P = direct_sum_module([V, dx.term(1)])
    Q = direct_sum_module([dx.term(2), dy.term(1)])
    out = ExactSequenceImage(P, Q, left, right, pcm.map(0), qcm.map(0))
    if not out.verify_exact():
        raise ValueError("constructed sequence is not exact")
    return out
