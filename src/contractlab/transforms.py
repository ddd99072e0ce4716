"""Contract transformations: scaling a dropout-stable distribution into a PNE,
lifting a CCE to a PNE with constant (XOS) or O(n) (subadditive) loss,
robustifying a PNE so every CCE stays good, and the supermodular CCE/CE to PNE
constructions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Contract, Instance, ONE, ZERO, as_fraction
from .equilibria import (
    JointDistribution,
    best_response_dynamics,
    is_cce,
    is_ce,
    is_dropout_stable,
    is_pne,
    potential_maximizer_pne,
    require_pne,
)

THREE_QUARTERS = Fraction(3, 4)


@dataclass(frozen=True)
class ScalingParams:
    """gamma > 1, the agent subset kept active, and an optional uniform bump.

    gamma and epsilon are read with ``as_fraction``: an int or a string
    becomes a ``Fraction``, and a float is refused with TypeError.
    """

    gamma: Fraction
    subset: frozenset
    epsilon: Fraction = ZERO

    def __post_init__(self):
        object.__setattr__(self, "gamma", as_fraction(self.gamma))
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


@dataclass(frozen=True)
class AgentPartition:
    b1: frozenset
    b2: frozenset


@dataclass(frozen=True)
class LiftResult:
    contract: Contract
    pne: int
    case_tag: str
    claimed_ratio: Fraction


def scaled_contract(inst: Instance, a: Contract, params: ScalingParams) -> Contract:
    """gamma * a_i + epsilon on the subset, epsilon elsewhere; must stay in [0,1].

    Every id in the subset must be an agent, an int in range(n): ValueError
    names the first that is not, the smallest by ``repr``.
    """
    inst.check_contract(a)
    strays = [i for i in params.subset if not (isinstance(i, int) and 0 <= i < inst.n)]
    if strays:
        raise ValueError(f"scaling subset id {min(strays, key=repr)!r} "
                         f"is not an agent in range({inst.n})")
    shares = []
    for i in range(inst.n):
        v = params.gamma * a[i] + params.epsilon if i in params.subset else params.epsilon
        if v > 1:
            raise ValueError(f"scaled share {v} for agent {i} leaves [0, 1]")
        shares.append(v)
    return Contract(tuple(shares))


def scale_for_existence(inst: Instance, a: Contract, D: JointDistribution,
                        params: ScalingParams):
    """Scale the subset's shares by gamma and take the potential maximizer.

    For XOS rewards the result (a', S') is a PNE of a' with
    f(S') >= (1 - 1/gamma) * E_D[f(union of subset slices)].
    """
    if params.epsilon != 0:
        raise ValueError("existence-side scaling takes no epsilon bump")
    if not is_dropout_stable(inst, D, a):
        raise ValueError("distribution is not dropout-stable for the contract")
    scaled = scaled_contract(inst, a, params)
    S = potential_maximizer_pne(inst, scaled, inst.full_mask)
    return scaled, S


def _require(verdict, what: str) -> None:
    """Raise ValueError naming the input and the verdict's witness on failure."""
    if not verdict:
        witness = (f"deviation {verdict.deviation:#x}"
                   if verdict.recommendation is None
                   else f"recommendation {verdict.recommendation:#x}")
        raise ValueError(f"input {what} (agent {verdict.agent}, {witness})")


def _top(inst: Instance, a: Contract) -> int:
    """The agent with the largest share, the lowest id on ties."""
    return max(range(inst.n), key=lambda i: (a[i], -i))


def _richer_bundle(inst: Instance, part: AgentPartition,
                   D: JointDistribution) -> frozenset:
    """The bundle whose members' slices are worth more under D; b1 on ties."""
    def bundle_reward(members):
        masks = 0
        for i in members:
            masks |= inst.agent_mask(i)
        return D.expectation(lambda S: inst.reward.value(S & masks))
    return part.b1 if bundle_reward(part.b1) >= bundle_reward(part.b2) else part.b2


def _lift_start(inst: Instance, a_star: Contract, D_star: JointDistribution):
    """What both CCE-to-PNE lifts begin with: check the CCE, then Case A.

    Case A: a significant agent is paid (1 + share)/2 and works alone.
    Returns (the Case A result or None, the top agent, per-agent E[f(S_i)]).
    """
    _require(is_cce(inst, D_star, a_star), "distribution is not a CCE")
    own = []
    for i in range(inst.n):
        mask = inst.agent_mask(i)
        own.append(D_star.expectation(lambda S: inst.reward.value(S & mask)))
    top = _top(inst, a_star)
    rest = ~inst.agent_mask(top)
    if (a_star[top] > THREE_QUARTERS and (ONE - a_star[top]) * own[top]
            >= 4 * D_star.expectation(lambda S: inst.reward.value(S & rest))):
        share = (ONE + a_star[top]) / 2
        contract = Contract.zero(inst.n).replace(top, share)
        S = potential_maximizer_pne(inst, contract, inst.agent_mask(top))
        return LiftResult(contract, S, "A", Fraction(4, 17)), top, own
    return None, top, own


def partition_agents(a_star: Contract) -> AgentPartition:
    """Split agents into two bundles with share sums <= 3/4 each.

    Starts from singletons and repeatedly merges the two smallest-sum bundles
    (ties by smallest member id) until two remain. b1 is the bundle holding
    the smallest agent id.
    """
    n = len(a_star)
    for i in range(n):
        if a_star[i] > THREE_QUARTERS:
            raise ValueError(f"agent {i} holds a share above 3/4")
    if a_star.total() > 1:
        raise ValueError("shares sum to more than 1")
    bundles = [(a_star[i], frozenset([i])) for i in range(n)]
    while len(bundles) > 2:
        bundles.sort(key=lambda b: (b[0], min(b[1])))
        (s1, m1), (s2, m2) = bundles[0], bundles[1]
        bundles = [(s1 + s2, m1 | m2)] + bundles[2:]
    bundles.sort(key=lambda b: min(b[1]))
    for total, members in bundles:
        if total > THREE_QUARTERS:
            raise RuntimeError(f"bundle {set(members)} sums to {total} > 3/4")
    if len(bundles) == 1:
        return AgentPartition(b1=bundles[0][1], b2=frozenset())
    return AgentPartition(b1=bundles[0][1], b2=bundles[1][1])


def lift_xos(inst: Instance, a_star: Contract, D_star: JointDistribution) -> LiftResult:
    """Turn a CCE into a PNE losing at most a constant factor (XOS rewards).

    Case A: a significant agent is paid (1 + share)/2 and works alone.
    Case B: drop the dominant agent, scale the rest by 2.
    Case C: partition into two bundles, scale the better one by 7/6.
    """
    case_a, top, _ = _lift_start(inst, a_star, D_star)
    if case_a is not None:
        return case_a
    if a_star[top] > THREE_QUARTERS:
        params = ScalingParams(gamma=Fraction(2),
                               subset=frozenset(range(inst.n)) - {top})
        contract, S = scale_for_existence(inst, a_star, D_star, params)
        return LiftResult(contract, S, "B", Fraction(1, 20))
    chosen = _richer_bundle(inst, partition_agents(a_star), D_star)
    params = ScalingParams(gamma=Fraction(7, 6), subset=chosen)
    contract, S = scale_for_existence(inst, a_star, D_star, params)
    return LiftResult(contract, S, "C", Fraction(1, 112))


def robustify_case(inst: Instance, a_star: Contract, S_star: int) -> str:
    """Which branch the robustification takes: A, B, C, or D."""
    inst.check_contract(a_star)
    zero_cost = 0
    for j in range(inst.m):
        if inst.costs[j] == 0:
            zero_cost |= 1 << j
    threshold = Fraction(2, 17) * (ONE - a_star.total()) * inst.reward.value(S_star)
    if inst.reward.value(zero_cost) >= threshold:
        return "A"
    top = _top(inst, a_star)
    if a_star[top] > THREE_QUARTERS:
        f_own = inst.reward.value(S_star & inst.agent_mask(top))
        f_others = inst.reward.value(S_star & ~inst.agent_mask(top))
        return "B" if (ONE - a_star[top]) * f_own >= 4 * f_others else "C"
    return "D"


def robustify_submodular(inst: Instance, a_star: Contract, S_star: int) -> Contract:
    """Contract under which every CCE keeps >= 1/224 of the input utility.

    Case A: zero-cost actions already carry enough reward; pay everyone 1/(2n).
    Case B: significant agent; pay them (1 + share)/2, others 0.
    Case C: dominant but insignificant agent; zero them, double the rest.
    Case D: partition, 7/6 on the bundle whose slice of S* is worth more.
    """
    _require(is_pne(inst, S_star, a_star), "profile is not a PNE")
    case = robustify_case(inst, a_star, S_star)
    if case == "A":
        eps = Fraction(1, 2 * inst.n)
        return Contract((eps,) * inst.n)
    top = _top(inst, a_star)
    if case == "B":
        return Contract.zero(inst.n).replace(top, (ONE + a_star[top]) / 2)
    if case == "C":
        shares = [2 * a_star[i] if i != top else ZERO for i in range(inst.n)]
        for i, v in enumerate(shares):
            if v > 1:
                raise ValueError(f"doubled share {v} for agent {i} leaves [0, 1]")
        return Contract(tuple(shares))
    chosen = _richer_bundle(inst, partition_agents(a_star),
                            JointDistribution.point(S_star))
    return Contract(tuple(
        Fraction(7, 6) * a_star[i] if i in chosen else ZERO
        for i in range(inst.n)))


def scale_for_existence_subadditive(inst: Instance, a: Contract,
                                    D: JointDistribution, i: int, gamma: Fraction):
    """Single-agent scaling for subadditive rewards.

    Returns (a', S') with a' paying only agent i (gamma * a_i) and S' the
    potential maximizer over A_i; f(S') >= (1 - 1/gamma) * E_D[f(S_i)].
    """
    if not 0 <= i < inst.n:
        raise ValueError(f"invalid agent id {i}")
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")
    if not is_dropout_stable(inst, D, a):
        raise ValueError("distribution is not dropout-stable for the contract")
    scaled = gamma * a[i]
    if scaled > 1:
        raise ValueError(f"scaled share {scaled} leaves [0, 1]")
    contract = Contract.zero(inst.n).replace(i, scaled)
    S = potential_maximizer_pne(inst, contract, inst.agent_mask(i))
    return contract, S


def lift_subadditive(inst: Instance, a_star: Contract,
                     D_star: JointDistribution) -> LiftResult:
    """CCE to PNE for subadditive rewards, losing at most an O(n) factor."""
    case_a, top, own = _lift_start(inst, a_star, D_star)
    if case_a is not None:
        return case_a
    if a_star[top] > THREE_QUARTERS:
        star = max((i for i in range(inst.n) if i != top),
                   key=lambda i: (own[i], -i))
        contract, S = scale_for_existence_subadditive(
            inst, a_star, D_star, star, Fraction(2))
        return LiftResult(contract, S, "B", Fraction(1, 20 * inst.n))
    star = max(range(inst.n), key=lambda i: (own[i], -i))
    contract, S = scale_for_existence_subadditive(
        inst, a_star, D_star, star, Fraction(7, 6))
    return LiftResult(contract, S, "C", Fraction(1, 56 * inst.n))


def cce_to_pne_supermodular_binary(inst: Instance, a: Contract,
                                   D: JointDistribution):
    """Union of the support is a PNE once agents outside it are zeroed."""
    if not inst.binary:
        raise ValueError("construction needs binary actions")
    _require(is_cce(inst, D, a), "distribution is not a CCE")
    union = 0
    for S, _ in D.support:
        union |= S
    contract = Contract(tuple(
        a[i] if union >> i & 1 else ZERO for i in range(inst.n)))
    require_pne(inst, union, contract, "support union")
    return contract, union


def ce_to_pne_supermodular(inst: Instance, a: Contract, D: JointDistribution):
    """Best-response dynamics from the support union, never shedding it.

    For supermodular rewards some best response always contains the agent's
    slice of the union, so the forced floor is without loss and the dynamics
    lands on a PNE of the same contract with at least the CE's utility.
    """
    _require(is_ce(inst, D, a), "distribution is not a CE")
    union = 0
    for S, _ in D.support:
        union |= S
    floors = [union & inst.agent_mask(i) for i in range(inst.n)]
    S = best_response_dynamics(inst, union, a, forced_floor=floors)
    require_pne(inst, S, a, "floor-restricted dynamics end")
    return a, S
