"""2D isotropic linear elasticity: forward solves, Neumann-to-Dirichlet
operator analysis, and Lame-parameter reconstruction from boundary data."""

from .mesh import (
    DIRICHLET,
    NEUMANN,
    BoundaryPartitionSpec,
    Mesh,
    MeshError,
    generate_disk_mesh,
    partition_boundary,
)
from .fem import (
    ElasticitySolver,
    FemError,
    ForwardSolution,
    LameField,
    SurfaceLoad,
    assemble,
    isotropic_stress,
)
from .ntd import (
    NtDOperator,
    OrderedPair,
    build_ntd,
    loewner_gap,
    monotonicity_sandwich,
    operator_distance,
    parameter_distance,
    stability_ratio_experiment,
)
from .inversion import (
    InversionConfig,
    InversionRun,
    MeasurementSet,
    NoiseSpec,
    add_noise,
    bfgs_minimize,
    constant_parameterization,
    generate_measurements,
    kohn_vogelius,
    kv_gradient,
    kv_value_and_gradient,
)

__version__ = "0.1.0"
