"""Adaptive truncated hierarchical B-splines on macro-element (q-box) meshes.

The package provides, bottom up:

- :mod:`thbox.splinecore` -- univariate/tensor B-spline bases, two-scale
  refinement, quadrature;
- :mod:`thbox.hierarchy` -- domain hierarchies and (truncated) hierarchical
  bases with element extraction;
- :mod:`thbox.qbox` -- macro-element classification (border / well-behaved /
  regular boxes), admissibility-controlled refinement and coarsening;
- :mod:`thbox.bezier` -- local least-squares projection onto the
  hierarchical space via macro-element solves and smoothing weights;
- :mod:`thbox.derham` -- hierarchical spline de Rham complexes and
  cohomology-dimension verification;
- :mod:`thbox.adaptive` -- marking strategies and adaptive projection /
  Poisson loops;
- :mod:`thbox.cli` -- the ``thbox`` command-line driver, which the package
  does not import (``python -m thbox.cli`` runs it once).
"""

from .splinecore import (
    KnotVector,
    TensorSpace,
    gauss_rule,
    uniform_knot_vector,
    uniform_space,
)
from .hierarchy import (
    DomainHierarchy,
    LevelSequence,
    ThbSpace,
    admissibility_class,
    build_hb,
    build_thb,
    hierarchy_from_json,
    hierarchy_to_json,
)
from .qbox import (
    AdmissibilityPolicy,
    QBoxMesh,
    RefinementLimitError,
    coarsen_qboxes,
    refine_qboxes,
)
from .bezier import (
    ErrorReport,
    ProjectionResult,
    ProjectorPartition,
    bezier_project,
    error_report,
)
from .derham import (
    AssumptionVerdict,
    ComplexSpaces,
    ExactnessReport,
    RankCheckLimitError,
    build_complex,
    check_assumption_3a,
    check_assumption_3b,
    exactness_report,
    interior_functions,
)
from .adaptive import (
    AdaptiveConfig,
    AdaptiveTrace,
    TraceStep,
    adapt_loop,
    adapt_poisson,
    adapt_project,
    dorfler_mark,
    poisson_solve,
    residual_estimator,
)

__version__ = "0.1.0"

__all__ = [
    "KnotVector",
    "TensorSpace",
    "gauss_rule",
    "uniform_knot_vector",
    "uniform_space",
    "DomainHierarchy",
    "LevelSequence",
    "ThbSpace",
    "admissibility_class",
    "build_hb",
    "build_thb",
    "hierarchy_from_json",
    "hierarchy_to_json",
    "AdmissibilityPolicy",
    "QBoxMesh",
    "RefinementLimitError",
    "coarsen_qboxes",
    "refine_qboxes",
    "ErrorReport",
    "ProjectionResult",
    "ProjectorPartition",
    "bezier_project",
    "error_report",
    "AssumptionVerdict",
    "ComplexSpaces",
    "ExactnessReport",
    "RankCheckLimitError",
    "build_complex",
    "check_assumption_3a",
    "check_assumption_3b",
    "exactness_report",
    "interior_functions",
    "AdaptiveConfig",
    "AdaptiveTrace",
    "TraceStep",
    "adapt_loop",
    "adapt_poisson",
    "adapt_project",
    "dorfler_mark",
    "poisson_solve",
    "residual_estimator",
    "__version__",
]
