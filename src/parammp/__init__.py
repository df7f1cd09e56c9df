"""parammp: collision-free motion planning for point robots among stationary
point obstacles in R^d.

The planner classifies each query by the coincidence pattern of projections
onto an oriented line, synthesizes an exact piecewise path (straight segments
and circular arcs) that is collision-free for the whole motion, and reports
the continuity-domain index the query fell into.  Verification utilities
certify separation along emitted paths and cross-check the classification
with exact rational arithmetic.
"""

from .errors import (
    InternalConsistencyError,
    InvalidOrderingPairError,
    ModeUnsupportedError,
    NotGenericError,
    ParammpError,
    PreconditionError,
    QueryValidationError,
    RegionCrossingError,
)
from .geometry import (
    ConfigurationQuery,
    Frame,
    FrameMode,
    OrderingPair,
    RegionLabel,
    Side,
    classify,
    component_count,
    make_frame,
    orderings,
)
from .paths import PiecewisePath, arc_row, line_row
from .deformations import desingularize
from .planner import (
    CaseASwap,
    CaseBSwap,
    PlanResult,
    default_mode,
    plan,
    transposition_sequence,
)
from .verification import (
    PairSeparation,
    PartitionReport,
    QueryPerturbation,
    SeparationCertificate,
    certify_separation,
    check_partition,
    classify_oracle,
    continuity_probe,
    degenerate_query,
    random_query,
    random_rational_query,
)
from .formats import (
    FORMAT_VERSION,
    ProblemDocument,
    ProblemOptions,
    parse_problem,
    render_svg,
    sample_csv,
    serialize_plan,
)

__version__ = "0.1.0"
