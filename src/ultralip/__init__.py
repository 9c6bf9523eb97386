"""Exact Lipschitz extension over computable non-archimedean valued fields."""

from .field import (
    BackendMismatchError,
    CutValue,
    FieldDescriptor,
    FieldElement,
    NormValue,
    PDivisibleCountWarning,
    Point,
    RVValue,
    integer_average,
)
from .geometry import (
    AnnulusBox,
    Ball,
    Cell1D,
    ExactBox,
    cells_intersect,
    rho,
)
from .lipschitz import (
    FiniteFunction,
    LipschitzReport,
    NotLipschitzError,
    is_lipschitz,
    reduce_to_risometry,
    risometry_check,
)
from .skeleton import (
    Configuration,
    Skeleton,
    SkeletonLevel,
    build_skeleton,
    configuration_of,
    one_cell,
    risometry_image_cell,
    transport_skeleton,
)
from .extension import (
    ExtendedFunction,
    GraphBranch,
    GraphFamily,
    epsilon_pipeline,
    extend_cell_risometry_line,
    extend_finite,
    extend_finite_line,
    extend_graph_family_via_reduction,
    glue_union,
    glue_vanishing,
    origins,
)
from .serialize import Instance, InstanceError, parse_instance

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
