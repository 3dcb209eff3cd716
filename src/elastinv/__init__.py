"""2D isotropic linear elasticity: forward solves, Neumann-to-Dirichlet
operator analysis, and Lame-parameter reconstruction from boundary data."""

from .mesh import (
    BoundaryPartitionSpec,
    Mesh,
    MeshError,
    generate_disk_mesh,
    partition_boundary,
)
from .fem import (
    ElasticitySolver,
    FemError,
    LameField,
    RegionParameterization,
    SurfaceLoad,
    load_coefficients,
    quadrant_regions,
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
    generate_measurements,
    kohn_vogelius,
    kv_gradient,
)

__version__ = "0.1.0"
