"""Multi-agent combinatorial contracts: reward oracles, exact equilibrium
verification, contract transformations, and rational LP benchmarks."""

from .core import (
    CapacityError,
    Contract,
    Instance,
    Scalar,
    agent_utility,
    make_instance,
    potential,
    principal_utility,
    welfare,
)
from .equilibria import (
    JointDistribution,
    ProductDistribution,
    Verdict,
    best_response_dynamics,
    is_cce,
    is_ce,
    is_dropout_stable,
    is_mne,
    is_pne,
    potential_maximizer_pne,
)
from .rewards import (
    AdditiveReward,
    CountReward,
    CoverageReward,
    FormulaReward,
    RewardFunction,
    TableReward,
    XosReward,
    classify,
    demand,
)
from .solvers import (
    GapReport,
    LinearProgram,
    LpResult,
    best_cce,
    best_ce,
    best_pne,
    best_pne_binary,
    enumerate_pne,
    grid_search,
    solve_lp,
    worst_cce,
)
from .transforms import (
    AgentPartition,
    LiftResult,
    ScalingParams,
    cce_to_pne_supermodular_binary,
    ce_to_pne_supermodular,
    lift_subadditive,
    lift_xos,
    partition_agents,
    robustify_submodular,
    scale_for_existence,
    scale_for_existence_subadditive,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
