"""plate_echo: biharmonic (thin-plate) wave scattering from clamped cavities.

Forward solver (boundary integral equations, Nystrom discretization),
closed-form disk oracle, direct-sampling imaging functions, and numerical
checks of the far-field operator identities.

The public names resolve on first use, so importing the package, or only its
numpy modules (far-field files and imaging), loads no scipy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it; also the source of __all__
_EXPORTS = {
    name: module
    for module, names in (
        ("geometry", ("ParametricCurve", "make_curve", "SHAPE_KINDS")),
        ("forward", ("BoundaryDiscretization", "ScatteringSolver", "discretize",
                     "assemble_system", "assemble_far_field_matrix")),
        ("farfield", ("FarFieldMatrix", "save_farfield", "load_farfield")),
        ("oracle", ("disk_far_field_matrix",)),
        ("imaging", ("NoiseModel", "ApertureMask", "ImagingGrid", "add_noise", "apply_mask",
                     "phi_z", "evaluate_grid")),
        ("verify", ("CheckRecord", "check_funk_hecke", "check_operator_identity",
                    "check_decay_slope", "check_equivalence_chain", "reconstruction_overlap")),
    )
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
