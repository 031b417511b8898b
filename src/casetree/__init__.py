"""Anytime case retrieval over prefix-sharing case trees.

A heterogeneous base of generic cases is compiled once into a tree whose
branches share high-priority perception prefixes. Retrieval scans the tree
under a hard interruption budget, breadth first to rank every case or best
first to answer the most similar one, so a best-so-far case with a
principled partial score is available at any moment; a classic linear
scan is included as the exactness baseline, plus a benchmark harness for
recall/precision and memory experiments.
"""

from .cases import (
    CaseError,
    GenericCase,
    Perception,
    Substitution,
    TargetCase,
    Value,
    ME,
    case_equivalent,
    concrete,
    const,
    generalize,
    generic,
    parse_case,
    parse_case_base,
    serialize_case_base,
    unify,
)
from .context import (
    BOOLEAN,
    Context,
    ContextError,
    FOOTBALL_PRIORITY,
    PredicateSchema,
    ValueSort,
    football_context,
    parse_context,
    qualitative,
    quantize_distance,
    serialize_context,
    validate_perception,
)
from .evaluation import (
    MetricRow,
    format_ground_truth,
    format_memory_csv,
    format_metric_csv,
    format_retrieve_csv,
    load_ground_truth,
    memory_curve,
    metrics,
    retrieve_set,
    sweep_alpha,
    sweep_budget,
)
from .retrieval import (
    CaseTree,
    CaseOutcome,
    RetrievalError,
    RetrievalResult,
    ScanBudget,
    TargetOracle,
    TreeError,
    UNBOUNDED,
    build_tree,
    linear_perception_count,
    scan_linear,
    scan_tree,
)
from .similarity import (
    SimilarityParams,
    similarity,
)
from .world import (
    Player,
    WorldSnapshot,
    dump_snapshot,
    elaborate,
    generate_world,
    load_snapshot,
)

__version__ = "0.1.0"
