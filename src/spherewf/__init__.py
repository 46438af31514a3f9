"""spherewf: sphere diffusion and Wright-Fisher diffusion, exactly related.

Isotropic Brownian motion on the unit sphere S^{k-1}, pushed through the
square map x_i = y_i**2, is the Wright-Fisher diffusion with parent-
independent mutation at rate epsilon_i = 1/2 (noise scale c = 1,
diffusion constant D = c**2/8).  This package provides the exact
eigenfunction-expansion transition densities on both sides, stochastic
simulators for the underlying SDEs and the Moran/pair-interaction
particle model, and a verification harness that certifies the
correspondence numerically.
"""

import importlib

from .types import (
    ModelParams,
    SimplexPoint,
    SpherePoint,
    SphericalCoords,
    Truncation,
    cartesian_from_spherical,
    spherical_from_cartesian,
    sqrt_lift,
    square_push,
)
from .specfun import (
    gegenbauer,
    gegenbauer_explicit,
    generating_function_residual,
    log_gamma,
    log_pochhammer,
    pochhammer,
    sphere_surface_area,
)
from .sphere_heat import (
    KernelValue,
    SphereKernelQuery,
    heat_kernel,
    heat_kernel_circle,
    heat_kernel_unnormalized,
    sample_uniform_sphere,
    truncation_cutoff,
    zonal_kernel,
)
from .wf_density import (
    DensityValue,
    GriffithsQuery,
    PushforwardQuery,
    compositions,
    dirichlet_stationary,
    griffiths_density,
    pushforward_density,
    q_n,
    xi_m,
)
from .simulate import (
    Model,
    MoranState,
    PathRecord,
    SkewIncrements,
    draw_skew,
    ensemble_final,
    moran_event_rate,
    moran_step,
    path_rng,
    simulate_moran,
    simulate_path,
    step_sphere,
    step_wf_isotropic,
    step_wf_mutation,
    step_wf_neutral,
)

__version__ = "0.1.0"


def __getattr__(name):
    # The harness imports scipy.stats, which costs more than the rest of the
    # package together, so it loads on first use.  Spawned pool workers and
    # callers that never verify do not pay for it.
    if name in ("harness", "VerificationReport", "run_suite"):
        harness = importlib.import_module(".harness", __name__)
        return harness if name == "harness" else getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
