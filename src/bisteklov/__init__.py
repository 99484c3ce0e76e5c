"""Numerics for fourth-order Steklov eigenvalue problems on balls and star-shaped planar domains."""

from .special_functions import BesselEval, ultraspherical_i
from .ball_spectrum import (
    SortedSpectrum,
    eigenvalue_of_order,
    multiplicity_of_order,
    sorted_spectrum,
)
from .geometry import (
    BoundaryQuadrature,
    StarDomain,
    area,
    boundary_geometry,
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
    make_trial_basis,
    solve,
)
from .shape_calculus import (
    FDResult,
    PerturbationField,
    criticality_residual,
    fd_derivative,
    hadamard_derivative,
    realize_perturbation,
    symmetric_function,
)
from .concentration import (
    convergence_sweep,
    make_radial_mesh,
    merged_spectrum,
)
from .iso_experiments import (
    IsoScanResult,
    iso_scan,
    lambda2_of,
    make_family,
)
from .errors import DomainValidationError, NumericalError

__version__ = "0.1.0"
