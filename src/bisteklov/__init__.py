"""Numerics for fourth-order Steklov eigenvalue problems on balls and star-shaped planar domains."""

from .special_functions import BesselEval, modified_bessel_I, ultraspherical_i
from .ball_spectrum import (
    BallMode,
    SortedSpectrum,
    eigenvalue_of_order,
    multiplicity_of_order,
    radial_profile,
    rayleigh_quotient,
    sorted_spectrum,
    verify_order_monotonicity,
)
from .geometry import (
    BoundaryQuadrature,
    StarDomain,
    area,
    boundary_geometry,
    center_boundary_centroid,
    interior_quadrature,
    rescale_to_area,
)
from .steklov_solver import (
    AssembledForms,
    EigenSolution,
    TrialBasis,
    assemble,
    boundary_rule_size,
    eigenfunction_boundary_data,
    eval_basis,
    make_trial_basis,
    solve,
)
from .shape_calculus import (
    FDResult,
    PerturbationField,
    criticality_residual,
    fd_derivative,
    hadamard_derivative,
    is_volume_preserving,
    realize_perturbation,
    symmetric_function,
    volume_preserving_projection,
)
from .concentration import (
    DensityProfile,
    RadialMesh,
    convergence_sweep,
    make_radial_mesh,
    merged_spectrum,
    neumann_mode_eigenvalues,
)
from .iso_experiments import (
    IsoScanResult,
    inverse_sum_bound,
    iso_scan,
    lambda2_of,
    make_family,
    weighted_boundary_inequality_check,
)
from .errors import DomainValidationError, NumericalError

__version__ = "0.1.0"
