"""Static electro-vacuum data: construction, verification, photon spheres."""

from types import ModuleType as _ModuleType

from .errors import (
    DegeneracyError,
    DomainError,
    ElectrovacError,
    NumericsError,
    ParameterError,
)
from .geometry import (
    FrameTensor2,
    HypersurfaceGeometry,
    SphericalStaticData,
    contracted_gauss_residual,
    grad_norm,
    hessian_radial,
    horizon_gradient_limit,
    laplacian_radial,
    level_set_geometry,
    ricci_radial,
    richardson_limit,
    scalar_curvature,
    scalar_curvature_d1,
)
from .models import (
    BallStaticExample,
    IsotropicChart,
    IsotropicPoint,
    RNParameters,
    coupling_constant,
    euclidean_ball_residuals,
    flat_data,
    isotropic_inverse,
    isotropic_map,
    perturbed_potential_data,
    phi_identity_residual,
    rn_data,
    rn_horizon,
    rn_r0,
)
from .photon import (
    Classification,
    PhotonRoot,
    PhotonSphereResult,
    QuasilocalReport,
    RejectedRoot,
    boundary_residual,
    classify_configuration,
    photon_sphere_radii,
    quasilocal_check,
    scan_photon_spheres,
)
from .profiles import RadialProfile, constant_profile, tabulated_profile
from .residuals import (
    EQUATION_TAGS,
    GridSpec,
    ResidualReport,
    TagResult,
    default_grid,
    default_tolerance,
    equivalence_property,
    residual_identities,
    residual_master,
    residual_pem,
    residual_system,
    residual_traced,
    verify_all,
)
from .variational import (
    CriticalityResult,
    Perturbation,
    QuadratureConfig,
    criticality_test,
    euler_lagrange_integral,
    evaluate_functional,
    perturbation_norm,
    pohozaev_residual,
    radial_integral,
    sphere_area,
    surface_gravity,
)

# Importing the names above also binds each submodule as a package attribute;
# those are not part of the public API.
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))
__version__ = "0.1.0"
