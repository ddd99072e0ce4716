"""Distribution types, exact equilibrium verifiers, and best-response dynamics.

Each of CE, CCE and dropout stability is one family of linear regret rows,
written once in ``regret_rows`` in integers, one positive scale per group of
rows: the verifiers evaluate those rows on a support, and the LP benchmarks
and samplers take them as constraints. A PNE is the point-mass case:
``is_pne`` reads the CE rows of the point mass. ``regret_rows`` reads f as
integer pairs (numerator, denominator): the LPs hand it the reward's
``table()`` over all 2^m profiles, each profile its own position in it, and
the verifiers read the value oracle (``value_pairs``) on a support's
profiles and their deviations, placed through a dict.

All verifiers use weak inequalities decided exactly, in integers over the
rows' scale and the probabilities' common denominator. The optional ``tol``
argument (a ``Fraction`` or ``int`` >= 0) exists only for fixtures built from
rational approximations of irrational constants; by default comparisons are
exact.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Callable, Optional, Sequence

from .core import (
    Contract,
    Instance,
    ONE,
    ZERO,
    agent_utility,
    bits_of,
    check_enum_bits,
    check_profile_count,
    enum_cap_bits,
    over_common_denominator,
    principal_utility,
    submasks,
)
from .rewards import demand


@dataclass(frozen=True)
class JointDistribution:
    """Finitely supported distribution over action profiles, exact rationals."""

    support: tuple  # ((profile mask, probability), ...)

    def __post_init__(self):
        if not self.support:
            raise ValueError("empty support")
        seen = set()
        total = ZERO
        for S, p in self.support:
            if S in seen:
                raise ValueError("duplicate profile in support")
            seen.add(S)
            if not isinstance(p, Fraction) or p <= 0:
                raise ValueError("probabilities must be positive rationals")
            total += p
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "support",
                           tuple(sorted(self.support, key=lambda e: e[0])))

    @classmethod
    def point(cls, S: int) -> "JointDistribution":
        return cls(((S, ONE),))

    def expectation(self, fn: Callable[[int], Fraction]) -> Fraction:
        return sum((p * fn(S) for S, p in self.support), ZERO)

    def expected_reward(self, inst: Instance) -> Fraction:
        return self.expectation(inst.reward.value)

    def principal_utility(self, inst: Instance, a: Contract) -> Fraction:
        return self.expectation(lambda S: principal_utility(inst, S, a))


@dataclass(frozen=True)
class ProductDistribution:
    """Independent per-agent mixtures over slices of that agent's actions."""

    per_agent: tuple  # per agent: ((slice mask, probability), ...)

    def __post_init__(self):
        for entries in self.per_agent:
            if not entries:
                raise ValueError("each agent needs at least one slice")
            seen = set()
            total = ZERO
            for mask, p in entries:
                if mask in seen:
                    raise ValueError("duplicate slice for an agent")
                seen.add(mask)
                if not isinstance(p, Fraction) or p <= 0:
                    raise ValueError("probabilities must be positive rationals")
                total += p
            if total != 1:
                raise ValueError(f"agent probabilities sum to {total}, not 1")

    def to_joint(self, inst: Instance) -> JointDistribution:
        if len(self.per_agent) != inst.n:
            raise ValueError("agent count mismatch")
        for i, entries in enumerate(self.per_agent):
            for mask, _ in entries:
                if mask & ~inst.agent_mask(i):
                    raise ValueError(f"slice {mask:#x} not owned by agent {i}")
        check_profile_count(prod(len(entries) for entries in self.per_agent),
                            "product distribution")
        combos = [(0, ONE)]
        for entries in self.per_agent:
            if len(entries) == 1:
                mask = entries[0][0]
                combos = [(S | mask, p) for S, p in combos]
            else:
                combos = [(S | mask, p * q) for S, p in combos for mask, q in entries]
        return JointDistribution(tuple(combos))


@dataclass(frozen=True)
class Verdict:
    """Outcome of an equilibrium check, with a witness on failure."""

    ok: bool
    agent: Optional[int] = None
    deviation: Optional[int] = None
    recommendation: Optional[int] = None
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None

    def __bool__(self) -> bool:
        return self.ok


OK = Verdict(True)


def _tol(tol):
    """The verifiers' tolerance: 0 by default, else an exact rational >= 0."""
    if tol is None:
        return 0
    if not isinstance(tol, (Fraction, int)) or tol < 0:
        raise ValueError(f"tolerance must be a Fraction or int >= 0, not {tol!r}")
    return tol


def is_pne(inst: Instance, S: int, a: Contract, tol=None) -> Verdict:
    """No agent gains by a unilateral switch of its own slice.

    These are the CE rows of the point mass on S: one group per agent,
    recommending S_i, against every other slice T.
    """
    inst.check_profile(S)
    verdict = _violation(inst, ((S, ONE),), a, "ce", tol)
    return verdict if verdict else replace(verdict, recommendation=None)


def regret_rows(inst: Instance, a: Contract, concept: str, profiles: Sequence[int],
                f: Callable[[int], tuple]):
    """The regret rows of ``concept`` ("ce", "cce" or "dropout") over ``profiles``,
    in integers.

    Yields (agent, recommendation, deviation T, follow, deviate, scale):
    follow[k] / scale is the agent's utility a_i f(S) - c(S_i) at
    S = profiles[k], deviate[k] / scale its utility a_i f(S_-i | T) - c(T)
    after switching its slice to T, both 0 outside the recommendation's
    group. A distribution p satisfies the row when
    sum p * follow >= sum p * deviate. CE groups profiles by the agent's
    slice R, in order of first appearance, and skips T == R; CCE has one group
    per agent (None); dropout is CCE with T = 0 only. Agents come in order,
    deviations in ``submasks`` order, and a group's rows share one follow list
    and one scale.

    ``f(S)`` is f at profile S as an integer pair (numerator, denominator),
    the denominator positive and the pair not necessarily in lowest terms: a
    reward's ``table()`` read by index, or ``value_pairs(reward)``. The
    scale is q_i * cost_den * the lcm of the denominators of the pairs the
    group reads, for a_i = p_i / q_i, so every entry is an exact integer.
    f is read once per distinct profile, into a list, in one of two position
    modes. When ``profiles`` is ``range(2**m)``, as the LP benchmarks pass
    it, each profile is its own position, so a deviation S_-i | T indexes
    the list directly; every group then reads every profile (its members and
    their deviations over all of the agent's slices T are all 2^m), and its
    lcm is the whole list's. Otherwise, as the verifiers pass a support, a
    dict gives each profile its position in order of first read: the
    profiles' own values first, then each deviation when a group first needs
    it; a member that deviates to its own slice reads its own position. The
    scaled values a_i f(S) * scale are kept per agent while the lcm stays
    the same, so the full-width groups of an agent scale each value once,
    and a full-width group (CCE, dropout) builds each row as a list
    comprehension over its positions. Slice costs come from
    ``Instance.cost_numerator``.
    """
    if concept not in ("ce", "cce", "dropout"):
        raise ValueError(f"unknown concept {concept!r}")
    inst.check_contract(a)
    width = len(profiles)
    full = range(width)
    if profiles == range(1 << inst.m):
        where = None  # each profile is its own position in pairs
        pairs = list(map(f, profiles))
        own_f = profiles
        every_den = lcm(*{d for _, d in pairs})
    else:
        where: dict = {}  # profile -> its position in pairs
        pairs = []  # f of every profile read, as (numerator, denominator)
        claim = where.setdefault  # a new profile gets the next position
        own_f = [claim(S, len(where)) for S in profiles]
        for S, at in zip(profiles, own_f):
            if at == len(pairs):
                pairs.append(f(S))
    # read once, as it is parsed from the environment; dropout rows skip it
    cap = None if concept == "dropout" else enum_cap_bits()
    for i in range(inst.n):
        mask = inst.agent_mask(i)
        if concept == "dropout":
            targets = (0,)
        else:
            if mask.bit_count() > cap:
                check_enum_bits(mask.bit_count(), f"{concept} rows agent {i}")
            targets = list(submasks(mask))
        costs = {T: inst.cost_numerator(T) for T in targets}
        owns = [S & mask for S in profiles]
        rests = [S ^ own for S, own in zip(profiles, owns)]
        if concept == "ce":
            groups: dict = {}
            for k, own in enumerate(owns):
                groups.setdefault(own, []).append(k)
            groups = groups.items()
        else:
            groups = ((None, full),)
        top, q = a[i].numerator * inst.cost_den, a[i].denominator
        value, value_den = None, None  # position -> a_i f(S) * scale, for the last lcm
        for rec, members in groups:
            deviations = [T for T in targets if T != rec]
            if where is None:
                # the group's members and their deviations S_-i | T, over
                # all of the agent's slices T, read every profile
                away = rests if members is full else [rests[k] for k in members]
                reads = [[rest | T for rest in away] for T in deviations]
                den = every_den
                if value is None:
                    value = [top * num * (den // d) for num, d in pairs]
            else:
                reads = []  # per deviation, the position of each member's f
                for T in deviations:
                    row = [own_f[k] if owns[k] == T else claim(rests[k] | T, len(where))
                           for k in members]
                    if len(where) > len(pairs):  # new profiles, in order of position
                        for k, at in zip(members, row):
                            if at == len(pairs):
                                pairs.append(f(rests[k] | T))
                    reads.append(row)
                needed = {own_f[k] for k in members}
                needed.update(*reads)
                den = lcm(*{pairs[at][1] for at in needed})
                if den != value_den:
                    value, value_den = {}, den
                for at in needed:
                    if at not in value:
                        num, d = pairs[at]
                        value[at] = top * num * (den // d)
            base = q * den
            follow = [0] * width
            for k in members:
                own = owns[k]
                if own not in costs:
                    costs[own] = inst.cost_numerator(own)
                follow[k] = value[own_f[k]] - costs[own] * base
            scale = base * inst.cost_den
            for T, row in zip(deviations, reads):
                cost_T = costs[T] * base
                if members is full:
                    deviate = [value[at] - cost_T for at in row]
                else:
                    deviate = [0] * width
                    for k, at in zip(members, row):
                        deviate[k] = value[at] - cost_T
                yield i, rec, T, follow, deviate, scale


def value_pairs(reward) -> Callable[[int], tuple]:
    """f read from ``reward.value`` as the integer pairs ``regret_rows``
    takes, for profiles that are not worth a whole table."""
    value = reward.value

    def pair(S: int) -> tuple:
        return value(S).as_integer_ratio()
    return pair


def _violation(inst: Instance, support, a: Contract, concept: str,
               tol) -> Verdict:
    """The first regret row of ``concept`` that ``support`` violates, as a
    witness.

    The probabilities are put over their lcm ``den``, so a row of the group
    with scale s holds when rhs - lhs <= eps * s * den, all in integers.
    """
    eps = _tol(tol)
    profiles, probs = zip(*support)
    weights, den = over_common_denominator(probs)
    group = None
    for i, rec, T, follow, deviate, scale in regret_rows(inst, a, concept, profiles,
                                                         value_pairs(inst.reward)):
        if follow is not group:
            group = follow
            lhs = sum(map(mul, weights, follow))
            slack = eps.numerator * scale * den
        rhs = sum(map(mul, weights, deviate))
        if (rhs - lhs) * eps.denominator > slack:
            total = scale * den
            return Verdict(False, agent=i, deviation=T, recommendation=rec,
                           lhs=Fraction(lhs, total), rhs=Fraction(rhs, total))
    return OK


def is_cce(inst: Instance, D: JointDistribution, a: Contract, tol=None) -> Verdict:
    """No agent gains in expectation by committing to a fixed slice."""
    return _violation(inst, D.support, a, "cce", tol)


def is_ce(inst: Instance, D: JointDistribution, a: Contract, tol=None) -> Verdict:
    """No agent gains by re-mapping any recommended slice to another slice."""
    return _violation(inst, D.support, a, "ce", tol)


def is_mne(inst: Instance, P: ProductDistribution, a: Contract, tol=None) -> Verdict:
    """Product distribution satisfying the CCE inequality against pure slices."""
    return is_cce(inst, P.to_joint(inst), a, tol=tol)


def is_dropout_stable(inst: Instance, D: JointDistribution, a: Contract,
                      tol=None) -> Verdict:
    """No agent gains in expectation by switching to taking no action."""
    return _violation(inst, D.support, a, "dropout", tol)


def best_response_dynamics(inst: Instance, start: int, a: Contract,
                           forced_floor: Optional[Sequence[int]] = None) -> int:
    """Round-robin strict best responses until no agent can improve.

    With ``forced_floor``, agent i only considers responses containing
    floor_i; the start profile must contain the floor.
    """
    inst.check_profile(start)
    floors = [0] * inst.n if forced_floor is None else list(forced_floor)
    for i, fl in enumerate(floors):
        if fl & ~inst.agent_mask(i):
            raise ValueError(f"floor for agent {i} not owned by the agent")
        if fl & ~start:
            raise ValueError("start profile does not contain the floor")
    S = start
    while True:
        improved = False
        for i in range(inst.n):
            mask = inst.agent_mask(i)
            check_enum_bits(mask.bit_count(), f"best response agent {i}")
            rest = S & ~mask
            best_T, best_u = S & mask, agent_utility(inst, S, a, i)
            for T in submasks(mask):
                if floors[i] & ~T:
                    continue
                u = a[i] * inst.reward.value(rest | T) - inst.cost(T)
                if u > best_u:
                    best_T, best_u = T, u
            if best_T != S & mask:
                S = rest | best_T
                improved = True
        if not improved:
            return S


def potential_maximizer_pne(inst: Instance, a: Contract, restrict: int) -> int:
    """Global potential maximizer over restrict, found by one demand query.

    Action j is priced c_j / alpha_owner(j), or 0 when free; a costly action
    whose owner's share is 0 would make the potential -infinity, so it is
    left out of the query. restrict must be a union of agents' action sets
    (ValueError otherwise); the result is a PNE of the contract equal to
    ``a`` on those agents and zero elsewhere, verified before returning
    (RuntimeError if not).
    """
    inst.check_profile(restrict)
    for i in range(inst.n):
        if restrict & inst.agent_mask(i) not in (0, inst.agent_mask(i)):
            raise ValueError(f"restrict {restrict:#x} splits agent {i}'s actions")
    prices = [ZERO] * inst.m
    query = 0
    for j in bits_of(restrict):
        cost, alpha = inst.costs[j], a[inst.owners[j]]
        if cost == 0:
            query |= 1 << j
        elif alpha:
            prices[j] = cost / alpha
            query |= 1 << j
    S = demand(inst.reward, prices, query)
    zeroed = Contract(tuple(
        a[i] if inst.agent_mask(i) & restrict else ZERO for i in range(inst.n)))
    require_pne(inst, S, zeroed, "potential maximizer")
    return S


def require_pne(inst: Instance, S: int, a: Contract, what: str) -> None:
    """Raise RuntimeError unless S is a PNE of ``a``: the one post-check of
    the constructions that return a PNE. The message names S, described by
    ``what``, the agent that gains and its deviation."""
    verdict = is_pne(inst, S, a)
    if not verdict:
        raise RuntimeError(
            f"{what} {S:#x} failed the equilibrium post-check "
            f"(agent {verdict.agent}, deviation {verdict.deviation:#x})")
