"""Rank-phase QAOA workbench for 3-SAT/MaxSAT.

Layers: cnf (instances and scoring), qsim (exact product-state circuit
simulation), shaping (quantile-shaped objective), evolve (GA angle search),
oracle (exact enumeration references), harness/cli (runs and reporting).
"""

__version__ = "0.1.0"

from .cnf import (
    Clause,
    CnfFormula,
    CostParams,
    DimacsError,
    Literal,
    default_params,
    h_count,
    parse_dimacs,
    parse_dimacs_file,
    parse_json_instance,
)
from .qsim import (
    AngleVector,
    QuantumState,
    prepare_state,
    sample,
)
from .shaping import (
    CostHistogram,
    QuantileSet,
    cost_histogram,
    h_histogram,
    shaped_cost,
)
from .evolve import GaConfig, evaluate_fitness, optimize
from .oracle import (
    GuardError,
    enumerate_h,
    exact_h_distribution,
    exact_shaped_cost,
    list_solutions,
)

__all__ = [
    "__version__",
    "Literal", "Clause", "CnfFormula", "CostParams", "DimacsError",
    "parse_dimacs", "parse_dimacs_file", "parse_json_instance",
    "h_count",
    "default_params",
    "AngleVector", "QuantumState",
    "prepare_state", "sample",
    "CostHistogram", "QuantileSet",
    "cost_histogram", "h_histogram", "shaped_cost",
    "GaConfig", "evaluate_fitness", "optimize",
    "GuardError",
    "enumerate_h", "list_solutions", "exact_h_distribution", "exact_shaped_cost",
]
