"""Numerical laboratory for a generalized Calabi-Yau equation on
almost-Kahler torus models."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AkcyError,
    AmplitudeError,
    ConfigurationError,
    ConsistencyError,
    DegreeError,
    FrameError,
    NoSeedError,
    NumericalError,
    PreconditionError,
    RecipeError,
    SeedSearchError,
    ShapeMismatchError,
    SolverFailure,
    StructureError,
)
from .structure import (  # noqa: F401
    CompatibleStructure,
    GridChart,
    StructureRecipe,
    build_grid,
    standard_structure,
    twisted_structure,
    validate_structure,
)
from .forms import (  # noqa: F401
    FormField,
    exterior_derivative,
    integrate,
    omega_form,
    top_ratio,
    wedge,
)
from .frame import (  # noqa: F401
    LocalGeometry,
    build_frame,
    deformation_at,
    hermitian_at,
    nijenhuis_max_norm,
    tau_at,
)
from .cy_operator import (  # noqa: F401
    F_components,
    F_total,
    Potential,
    analyze_potential,
    deformation_form,
    positivity_amplitude,
    project_zero_mean,
    taming_margin,
)
from .boundary import (  # noqa: F401
    BoundaryReport,
    BumpField,
    boundary_potential,
    search_R,
    select_seed,
    witness_density,
)
from .solver import (  # noqa: F401
    SolveReport,
    continuity_solve,
    kernel_check,
    make_handle,
    newton_solve,
)
from .potentials import AnalyticPotential, default_candidates, random_potential  # noqa: F401
from .serialize import read_field, write_field, write_report  # noqa: F401
