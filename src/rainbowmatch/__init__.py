"""Rainbow matchings in properly colored bipartite multigraphs.

Implements the shifting rewrite, reduction to normal form and the inductive
matching construction, together with an exact oracle and a property-testing
harness for the hypotheses the construction rests on.
"""

from .construct import (
    ConstructionOutcome,
    ConstructStatus,
    FailReason,
    PeelStrategy,
    construct,
)
from .generators import GenKind, GenSpec, enumerate_instances, gen_latin, gen_random, instances_for
from .graph import (
    ColoredMultigraph,
    Edge,
    Matching,
    Side,
    canonical_digest,
    from_dict,
    from_json,
    is_rainbow_matching,
    to_canonical_json,
    to_dict,
    validate,
)
from .harness import (
    EvalOptions,
    H1Mode,
    Hypothesis,
    Verdict,
    evaluate,
    minimize,
    replay,
    run_campaign,
    violation_predicate,
)
from .oracle import OracleResult, max_rainbow
from .reduction import (
    PivotDonorPolicy,
    ReductionOutcome,
    ReductionStatus,
    reduce_to_normal_form,
)
from .shifting import RewriteKind, ShiftOutcome, shift

__version__ = "0.1.0"
