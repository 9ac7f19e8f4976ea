"""Exact-arithmetic toolkit for root systems, minuscule weight orbits,
point-configuration geometry and exponent-lattice eigenvalue models."""

from .rootsystem import (
    NotARootError,
    RootSystem,
    RootSystemError,
    SpanError,
    build_root_system,
    cartan_matrix,
    from_simple_root_coords,
    pairing,
    reflect,
    reflection_matrix_table,
    to_simple_root_coords,
)
from .weylorbit import (
    WeightSet,
    apply_chain,
    fundamental_weight,
    fundamental_weights,
    orbit,
    orbit_words,
)
from .minuscule import (
    CubeForm,
    MinusculeEntry,
    cube_normal_form,
    is_minuscule,
    minuscule_catalog,
    saturation_progressions,
)
from .affgeom import (
    AffineMap,
    Configuration,
    DetectionInconclusive,
    collinear_triple_count,
    detect_e7_config,
    no_three_collinear,
    omega56,
    separation_partition,
)
from .frobmodel import (
    BlockStructure,
    EigenSet,
    StructureError,
    b_set,
    build_delta,
    e7_fiber_projection_check,
    fiber_constancy_check,
    inverse_closed,
    invariant_level_sets,
    line_set,
    recover_lambda_sq,
    t_eta_count,
    weil_involution,
)

__version__ = "0.1.0"
