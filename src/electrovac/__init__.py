"""Static electro-vacuum data: construction, verification, photon spheres.

Importing the package loads none of its submodules, and so no numpy: each
public name below is imported from its submodule on first access (PEP 562)
and then bound here.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "errors": ("DegeneracyError", "DomainError", "ElectrovacError", "NumericsError",
               "ParameterError"),
    "geometry": ("FrameTensor2", "HypersurfaceGeometry", "SphericalStaticData",
                 "contracted_gauss_residual", "coupling_constant", "default_tolerance",
                 "grad_norm", "hessian_radial", "horizon_gradient_limit", "laplacian_radial",
                 "level_set_geometry", "ricci_radial", "richardson_limit", "scalar_curvature",
                 "scalar_curvature_d1"),
    "models": ("BallStaticExample", "IsotropicChart", "IsotropicPoint", "RNParameters",
               "flat_data", "isotropic_inverse", "perturbed_potential_data",
               "phi_identity_residual", "rn_data", "rn_horizon", "rn_r0"),
    "photon": ("Classification", "PhotonRoot", "PhotonSphereResult", "QuasilocalReport",
               "RejectedRoot", "boundary_residual", "classify_configuration",
               "photon_sphere_radii", "quasilocal_check", "scan_photon_spheres"),
    "profiles": ("RadialProfile", "constant_profile", "tabulated_profile"),
    "residuals": ("EQUATION_TAGS", "GridSpec", "ResidualReport", "TagResult",
                  "default_grid", "euclidean_ball_residuals", "residual_identities",
                  "residual_master", "residual_pem", "residual_system", "residual_traced",
                  "verify_all"),
    "variational": ("CriticalityResult", "Perturbation", "QuadratureConfig",
                    "criticality_test", "euler_lagrange_integral", "evaluate_functional",
                    "pohozaev_residual", "sphere_area", "surface_gravity"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
