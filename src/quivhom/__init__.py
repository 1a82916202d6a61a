"""quivhom: homological algebra over bound quiver algebras.

Exact linear algebra over a prime field, bound quiver algebras and their
representations, bounded complexes with homotopy- and derived-category
Hom computations, combinatorial presentations of non-negative triangle
functors, their stable functors between stable module categories, and
Gorenstein projective detection, with a worked dual-numbers corpus and a
command-line interface.
"""

from .algebra import BoundQuiverAlgebra, NonAdmissibleError, Quiver, dual_numbers, linear_algebra_An, one_vertex_algebra
from .complexes import (
    ChainMap,
    Complex,
    brutal_truncate_geq,
    brutal_truncate_lt,
    cone,
    good_truncate_geq0,
    hom_complex,
    hom_d_dim,
    hom_k,
    hom_k_dim,
    homology,
    is_acyclic,
    is_quasi_iso,
    localization_compare,
    module_complex,
    projective_resolution,
    shift,
)
from .corpus import Corpus, corpus, gentle_tree_algebra, interval_module
from .exactlin import DEFAULT_PRIME, Matrix, nullspace, rank, rref, solve
from .functors import (
    FunctorData,
    TiltingCandidate,
    apply_to_map,
    apply_to_module,
    apply_to_projective_complex,
    check_tilting,
    compose,
    endomorphism_presentation,
    identity_functor,
    is_non_negative,
    shift_functor,
)
from .gorenstein import (
    CosyzygySequence,
    GPCrossCheckError,
    GPReport,
    cosyzygy_sequence,
    findim_bounds_check,
    gp_preservation_check,
    is_gorenstein_projective,
    perp_check,
    restriction_is_projective,
)
from .homological import (
    DecompositionError,
    decompose,
    dual,
    ext,
    is_isomorphic,
    projdim,
    strip_projectives,
    syzygy,
    transpose,
)
from .io import parse_definitions, serialize_definitions
from .modules import (
    ProjSummands,
    RepHom,
    Representation,
    direct_sum,
    hom_space,
    projective,
    projective_cover,
    radical,
    simple,
    top,
    zero_rep,
)
from .projcplx import ProjChainMap, ProjComplex, minimize, recognize
from .stable import (
    StableHom,
    StableHomSpace,
    TruncationTriangle,
    exact_sequence_image,
    omega_functor,
    stable_hom,
    stable_image,
    stable_image_map,
    stable_iso,
)
