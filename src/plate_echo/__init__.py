"""plate_echo: biharmonic (thin-plate) wave scattering from clamped cavities.

Forward solver (boundary integral equations, Nystrom discretization),
closed-form disk oracle, direct-sampling imaging functions, and numerical
checks of the far-field operator identities.
"""

from .geometry import ParametricCurve, make_curve, SHAPE_KINDS
from .forward import (
    BoundaryDiscretization,
    FarFieldMatrix,
    ScatteringSolver,
    discretize,
    assemble_system,
    assemble_far_field_matrix,
    save_farfield,
    load_farfield,
)
from .oracle import DiskScatteringSolution, solve_disk, disk_far_field, disk_far_field_matrix
from .imaging import (
    NoiseModel,
    ApertureMask,
    ImagingGrid,
    add_noise,
    apply_mask,
    phi_z,
    w_ip,
    w_norm,
    evaluate_grid,
)
from .verify import (
    IdentityResidualReport,
    check_funk_hecke,
    check_operator_identity,
    check_decay_slope,
    check_equivalence_chain,
    reconstruction_overlap,
)

__version__ = "0.1.0"

__all__ = [
    "ParametricCurve", "make_curve", "SHAPE_KINDS",
    "BoundaryDiscretization", "FarFieldMatrix", "ScatteringSolver",
    "discretize", "assemble_system",
    "assemble_far_field_matrix", "save_farfield", "load_farfield",
    "DiskScatteringSolution", "solve_disk", "disk_far_field", "disk_far_field_matrix",
    "NoiseModel", "ApertureMask", "ImagingGrid",
    "add_noise", "apply_mask", "phi_z", "w_ip", "w_norm", "evaluate_grid",
    "IdentityResidualReport", "check_funk_hecke", "check_operator_identity",
    "check_decay_slope", "check_equivalence_chain", "reconstruction_overlap",
    "__version__",
]
