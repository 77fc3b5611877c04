"""heatlab: spectral observability constants and constructive null control for
heat flows with Lipschitz coefficients on desk-scale grids."""

from .domain import (
    DIRICHLET,
    NEUMANN,
    CoefficientField,
    Domain,
    build_interval,
    build_rectangle,
    coefficients_from_tables,
    constant_coefficients,
    random_lipschitz_coefficients,
)
from .operators import DiscreteOperator, assemble
from .spectrum import (
    Spectrum,
    compute_spectrum,
    eigen_sup_exponent,
    sup_embedding_constant,
    weyl_exponent,
)
from .obsets import (
    ObservationSet,
    box_mask,
    cantor_set,
    content_bound_geometry,
    dyadic_cover_cost,
    full_domain_set,
    hausdorff_content,
    interval_mask,
    point_cloud,
    random_set,
    set_from_mask,
)
from .inequality import (
    GrowthFit,
    TimeSequence,
    constant_l1,
    constant_l2,
    constant_sup,
    fit_growth,
    interpolation_check,
    phung_wang_times,
    telescope_check,
)
from .control import (
    ControlSchedule,
    CostLedger,
    StepControl,
    cost_report,
    distributed_control,
    lr_schedule,
    observable_cutoff,
    simulate,
    synthesize,
)
from .doubling import (
    BoundaryChart,
    DoubledSystem,
    boundary_normal,
    build_chart,
    double_domain,
    extend_eigenfunction,
    kernel_mass,
    pseudo_geodesic_diag,
    smooth_normal,
)
from . import errors

__version__ = "0.1.0"
