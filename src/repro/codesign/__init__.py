"""Algorithm-hardware co-design search (paper Section V-C)."""

from .oracle import (
    TASK_ACCURACY_CEILING,
    TASK_TRANSFORMER_ACCURACY,
    AccuracyOracle,
    SurrogateAccuracyOracle,
    TrainedAccuracyOracle,
)
from .search import (
    DesignPoint,
    SearchResult,
    design_space_spread,
    pareto_front,
    run_codesign,
)
from .space import DesignSpace

__all__ = [
    "AccuracyOracle",
    "DesignPoint",
    "DesignSpace",
    "SearchResult",
    "SurrogateAccuracyOracle",
    "TASK_ACCURACY_CEILING",
    "TASK_TRANSFORMER_ACCURACY",
    "TrainedAccuracyOracle",
    "design_space_spread",
    "pareto_front",
    "run_codesign",
]
