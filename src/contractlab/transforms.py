"""Contract transformations: scaling a dropout-stable distribution into a PNE,
lifting a CCE to a PNE with constant (XOS) or O(n) (subadditive) loss,
robustifying a PNE so every CCE stays good, and the supermodular CCE/CE to PNE
constructions. Lifting and robustification share one case split, ``_split``:
lifting's Cases A-C are robustification's B-D over the point mass on S*.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Contract, Instance, ONE, ZERO, as_fraction, mask_of, principal_utility
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

    The one scaling rule: the lifts' and robustification's scaled cases
    and both scale-for-existence steps build their contracts here.
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
    return _scaled_pne(inst, a, D, params, None)


def _scaled_pne(inst: Instance, a: Contract, D: JointDistribution,
                params: ScalingParams, agent: int | None):
    """Both scale-for-existence steps: ``scaled_contract`` first, then D's
    dropout stability for a, then the potential maximizer of the scaled
    contract over agent's actions (every action when agent is None)."""
    scaled = scaled_contract(inst, a, params)
    if not is_dropout_stable(inst, D, a):
        raise ValueError("distribution is not dropout-stable for the contract")
    within = inst.full_mask if agent is None else inst.agent_mask(agent)
    return scaled, potential_maximizer_pne(inst, scaled, within)


def _require(verdict, what: str) -> None:
    """Raise ValueError naming the input and the verdict's witness on failure."""
    if not verdict:
        witness = (f"deviation {verdict.deviation:#x}"
                   if verdict.recommendation is None
                   else f"recommendation {verdict.recommendation:#x}")
        raise ValueError(f"input {what} (agent {verdict.agent}, {witness})")


def _expected_reward(inst: Instance, D: JointDistribution, mask: int) -> Fraction:
    """E_D[f(S & mask)]."""
    return D.expectation(lambda S: inst.reward.value(S & mask))


def _split(inst: Instance, a_star: Contract, D: JointDistribution):
    """The case split: (top, dominant, significant). The top agent has the
    largest share (lowest id on ties), is dominant when it is above 3/4, and
    significant when also (1 - share) E_D[f(S_top)] >= 4 E_D[f(S_-top)]."""
    top = max(range(inst.n), key=lambda i: (a_star[i], -i))
    share, mask = a_star[top], inst.agent_mask(top)
    dominant = share > THREE_QUARTERS
    significant = dominant and ((ONE - share) * _expected_reward(inst, D, mask)
                                >= 4 * _expected_reward(inst, D, ~mask))
    return top, dominant, significant


def _top_alone(inst: Instance, a_star: Contract, top: int) -> Contract:
    """Lifting's Case A, robustification's B: (1 + share)/2 to the top agent alone."""
    return Contract.zero(inst.n).replace(top, (ONE + a_star[top]) / 2)


def _scaling(inst: Instance, a_star: Contract, D: JointDistribution,
             top: int, dominant: bool) -> ScalingParams:
    """Lifting's Cases B and C, robustification's C and D: double all but a
    dominant top agent, or else 7/6 on the bundle worth more under D (b1 on ties)."""
    if dominant:
        return ScalingParams(gamma=Fraction(2),
                             subset=frozenset(range(inst.n)) - {top})
    part = partition_agents(a_star)
    worth = [_expected_reward(inst, D, mask_of(
                 j for j in range(inst.m) if inst.owners[j] in members))
             for members in (part.b1, part.b2)]
    return ScalingParams(gamma=Fraction(7, 6),
                         subset=part.b1 if worth[0] >= worth[1] else part.b2)


def _work_alone(inst: Instance, a_star: Contract, top: int) -> LiftResult:
    """Both lifts' Case A: the top agent, paid alone, works alone."""
    contract = _top_alone(inst, a_star, top)
    S = potential_maximizer_pne(inst, contract, inst.agent_mask(top))
    return LiftResult(contract, S, "A", Fraction(4, 17))


def partition_agents(a_star: Contract) -> AgentPartition:
    """Split agents into two bundles with share sums <= 3/4 each.

    Starts from singletons and repeatedly merges the two smallest-sum bundles
    (ties by smallest member id) until two remain. b1 is the bundle holding
    the smallest agent id.
    """
    n = len(a_star)
    if n == 0:
        raise ValueError("the empty contract has no agents to partition")
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
    _require(is_cce(inst, D_star, a_star), "distribution is not a CCE")
    top, dominant, significant = _split(inst, a_star, D_star)
    if significant:
        return _work_alone(inst, a_star, top)
    contract, S = scale_for_existence(
        inst, a_star, D_star, _scaling(inst, a_star, D_star, top, dominant))
    tag, loss = ("B", 20) if dominant else ("C", 112)
    return LiftResult(contract, S, tag, Fraction(1, loss))


def _robust_split(inst: Instance, a_star: Contract, S_star: int):
    """Robustification's case and the split's top agent (None in Case A)."""
    threshold = Fraction(2, 17) * principal_utility(inst, S_star, a_star)
    zero_cost = mask_of(j for j in range(inst.m) if inst.costs[j] == 0)
    if inst.reward.value(zero_cost) >= threshold:
        return "A", None
    top, dominant, significant = _split(inst, a_star, JointDistribution.point(S_star))
    return ("B" if significant else "C" if dominant else "D"), top


def robustify_case(inst: Instance, a_star: Contract, S_star: int) -> str:
    """Which branch the robustification takes: A, B, C, or D."""
    return _robust_split(inst, a_star, S_star)[0]


def robustify_submodular(inst: Instance, a_star: Contract, S_star: int) -> Contract:
    """Contract under which every CCE keeps >= 1/224 of the input utility.

    Case A: zero-cost actions already carry enough reward; pay everyone 1/(2n).
    Cases B, C and D are ``lift_xos``'s A, B and C over the point mass on S*.
    """
    return _robustify(inst, a_star, S_star)[1]


def _robustify(inst: Instance, a_star: Contract, S_star: int):
    """``robustify_submodular``'s case and contract, from one case split."""
    _require(is_pne(inst, S_star, a_star), "profile is not a PNE")
    case, top = _robust_split(inst, a_star, S_star)
    if case == "A":
        eps = Fraction(1, 2 * inst.n)
        return case, Contract((eps,) * inst.n)
    if case == "B":
        return case, _top_alone(inst, a_star, top)
    return case, scaled_contract(inst, a_star, _scaling(
        inst, a_star, JointDistribution.point(S_star), top, case == "C"))


def scale_for_existence_subadditive(inst: Instance, a: Contract,
                                    D: JointDistribution, i: int, gamma: Fraction):
    """Single-agent scaling for subadditive rewards.

    Returns (a', S'): a' pays only agent i (gamma * a_i) and S' is the
    potential maximizer over A_i; f(S') >= (1 - 1/gamma) * E_D[f(S_i)].
    """
    return _scaled_pne(inst, a, D, ScalingParams(gamma, frozenset({i})), i)


def lift_subadditive(inst: Instance, a_star: Contract,
                     D_star: JointDistribution) -> LiftResult:
    """CCE to PNE for subadditive rewards, losing at most an O(n) factor."""
    _require(is_cce(inst, D_star, a_star), "distribution is not a CCE")
    top, dominant, significant = _split(inst, a_star, D_star)
    if significant:
        return _work_alone(inst, a_star, top)
    star = max((i for i in range(inst.n) if not (dominant and i == top)),
               key=lambda i: (_expected_reward(inst, D_star, inst.agent_mask(i)), -i),
               default=None)
    if star is None:
        raise ValueError("Case B needs an agent other than the top one, "
                         f"agent {top}")
    gamma, tag, loss = (Fraction(2), "B", 20) if dominant else (Fraction(7, 6), "C", 56)
    contract, S = scale_for_existence_subadditive(inst, a_star, D_star, star, gamma)
    return LiftResult(contract, S, tag, Fraction(1, loss * inst.n))


def _support_union(D: JointDistribution) -> int:
    """Every action that some profile in D's support plays."""
    union = 0
    for S, _ in D.support:
        union |= S
    return union


def cce_to_pne_supermodular_binary(inst: Instance, a: Contract,
                                   D: JointDistribution):
    """Union of the support is a PNE once agents outside it are zeroed."""
    if not inst.binary:
        raise ValueError("construction needs binary actions")
    _require(is_cce(inst, D, a), "distribution is not a CCE")
    union = _support_union(D)
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
    union = _support_union(D)
    floors = [union & inst.agent_mask(i) for i in range(inst.n)]
    S = best_response_dynamics(inst, union, a, forced_floor=floors)
    require_pne(inst, S, a, "floor-restricted dynamics end")
    return a, S
