"""Distribution types, exact equilibrium verifiers, and best-response dynamics.

Each of CE, CCE and dropout stability is one family of linear regret rows,
written once in ``regret_rows`` in integers, one positive scale per group of
rows: the verifiers evaluate those rows on a support, and the LP benchmarks
and samplers take them as constraints. A PNE is the point-mass case:
``is_pne`` reads the CE rows of the point mass. The rows are sparse: each
carries the positions of its group's profiles (one recommendation's for CE,
every profile for CCE and dropout) and its values there only, so a verifier
sums over the members, and only ``solvers.equilibrium_lp`` writes a row out
over every profile. ``regret_rows`` reads f by profile, as integer pairs
(numerator, denominator); no ``Fraction`` is built per read. The LPs hand
it the reward's ``table()`` over all 2^m profiles, which a deviation
S_-i | T indexes directly. The verifiers hand it the reward's integer value
oracle (``RewardFunction.value_pair``), kept in a dict keyed by profile and
seeded with a support's profiles; a deviation is read when a group first
needs it, so f is read once per distinct profile. An agent with one slice R
on every (distinct) profile reads only its deviations T != R, straight into
a list: such a profile has T on the agent's actions where every other read
has R, so it is read only there. Such agents with the same share, c(R) and
lcm get one follow list, so a verifier sums that side once for all of them.

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
        pure = 0  # the slices of the agents with one slice, applied once
        for entries in self.per_agent:
            if len(entries) == 1:
                pure |= entries[0][0]
            else:
                combos = [(S | mask, p * q) for S, p in combos for mask, q in entries]
        return JointDistribution(tuple((S | pure, p) for S, p in combos))


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

    Yields (agent, recommendation, deviation T, members, follow, deviate,
    scale). ``members`` holds the positions in ``profiles`` of the row's
    group, in increasing order; it is ``range(len(profiles))`` when the
    group holds every profile. For S = profiles[members[x]], follow[x] /
    scale is the agent's utility a_i f(S) - c(S_i), and deviate[x] / scale
    its utility a_i f(S_-i | T) - c(T) after switching its slice to T. A
    distribution p satisfies the row when, summed over the members,
    p * follow >= p * deviate. CE groups profiles by the agent's slice R, in
    order of first appearance, and skips T == R; CCE has one group per agent
    (None) that holds every profile; dropout is CCE with T = 0 only. Agents
    come in order, deviations in ``submasks`` order, and a group's rows
    share one members object, one follow list and one scale; the fixed
    agents (below) share one follow list per (a_i, c(R), lcm) of the call.

    ``f(S)`` is f at profile S as an integer pair (numerator, denominator),
    the denominator positive and the pair not necessarily in lowest terms: a
    reward's ``table()`` read by index, or its ``value_pair``. The scale is
    q_i * cost_den * the lcm of the denominators of the pairs the group
    reads, for a_i = p_i / q_i, so every entry is an exact integer. The
    profiles must be distinct (ValueError otherwise), as
    ``JointDistribution`` guarantees. A row reads f by profile, and f is
    read once per distinct profile. When ``profiles`` is ``range(2**m)``, as
    the LP benchmarks pass it, f over the profiles is a list that a
    deviation S_-i | T indexes directly; every group then reads every
    profile (its members and their deviations over all of the agent's
    slices T are all 2^m), and its lcm is the whole list's. Otherwise, as
    the verifiers pass a support, f is kept in a dict keyed by profile,
    seeded with the profiles' reads, and a group reads each deviation
    S_-i | T that is not there yet. The scaled values a_i f(S) * scale are
    kept per agent, by profile, while the lcm stays the same, so the
    full-width groups of an agent scale each value once.
    Slice costs come from ``Instance.slice_costs``, kept per instance.

    On a non-empty ``profiles``, an agent that owns none of the actions on
    which the profiles differ is fixed: it plays one slice R on every
    profile (every agent of a point mass, every pure agent of a product, an
    agent with no actions). Its one group holds every profile, and it reads
    only its deviations: f(S_-i | T) once per member for each T != R, into
    a list with no dict; T == R reads nothing. No other read of the call can
    equal such a read: it has slice T on A_i, and every profile and every
    other read has R there. So f is read once per distinct profile. Its lcm is
    the profiles' own, worked out once per call, with the denominators of
    those reads, and its follow list depends only on (a_i, c(R), lcm).
    """
    if concept not in ("ce", "cce", "dropout"):
        raise ValueError(f"unknown concept {concept!r}")
    inst.check_contract(a)
    full = range(len(profiles))
    pairs = list(map(f, profiles))  # f as (numerator, denominator), profile k at k
    own_den = lcm(*{d for _, d in pairs})  # the profiles' lcm
    # the actions on which the profiles differ; None on an empty support,
    # where no agent is fixed
    varying = None
    if profiles == range(1 << inst.m):
        read = None  # pairs is f by profile
        varying = (1 << inst.m) - 1
    else:
        read = dict(zip(profiles, pairs))  # f by profile, deviations added
        if len(read) < len(full):
            raise ValueError("regret_rows needs distinct profiles")
        if full:
            varying = 0
            for S in profiles:
                varying |= S ^ profiles[0]
    follows = {}  # (top, q, den, c(R)) -> the follow list of fixed agents
    # read once, as it is parsed from the environment; dropout rows are not
    # held to it, as they price only 0 and the agent's own slices
    cap = enum_cap_bits()
    for i in range(inst.n):
        mask = inst.agent_mask(i)
        bits = mask.bit_count()
        if concept == "dropout":
            targets = (0,)
        else:
            if bits > cap:
                check_enum_bits(bits, f"{concept} rows agent {i}")
            targets = list(submasks(mask))
        top, q = a[i].numerator * inst.cost_den, a[i].denominator
        # each slice's cost, from the instance's slice costs; a dropout agent
        # past the cap prices its own slices from their actions (c(0) = 0)
        if bits <= cap:
            shift, cost = inst.slice_costs(i)
            price = cost.__getitem__
        else:
            shift, cost, price = 0, (0,), inst.cost_numerator
        if varying is not None and not mask & varying:
            # fixed: one group of every profile, following R; each deviation
            # T != R reads f(S_-i | T) fresh, T == R reads nothing
            R = profiles[0] & mask
            rec = R if concept == "ce" else None
            deviations = [T for T in targets if T != rec]
            fresh = [None if T == R else [f((S ^ R) | T) for S in profiles]
                     for T in deviations]
            den = lcm(own_den, *{d for got in fresh if got for _, d in got})
            base = q * den
            cost_R = price(R >> shift)
            follow = follows.get((top, q, den, cost_R))
            if follow is None:
                follow = _scaled(pairs, top, den, cost_R * base)
                follows[top, q, den, cost_R] = follow
            scale = base * inst.cost_den
            for T, got in zip(deviations, fresh):
                deviate = (list(follow) if got is None
                           else _scaled(got, top, den, cost[T >> shift] * base))
                yield i, rec, T, full, follow, deviate, scale
            continue
        owns = [S & mask for S in profiles]
        rests = [S ^ own for S, own in zip(profiles, owns)]
        paid = [price(own >> shift) for own in owns]
        if concept == "ce":
            groups: dict = {}
            for k, own in enumerate(owns):
                groups.setdefault(own, []).append(k)
            groups = groups.items()
        else:
            groups = ((None, full),)
        value, value_den = None, None  # profile -> a_i f(S) * scale, for the last lcm
        for rec, members in groups:
            deviations = [T for T in targets if T != rec]
            away = [rests[k] for k in members]
            reads = [[rest | T for rest in away] for T in deviations]
            if read is None:
                # the group's members and their deviations S_-i | T, over
                # all of the agent's slices T, read every profile
                den = own_den
                if value is None:
                    value = _scaled(pairs, top, den)
                at = members  # each profile is its own position
            else:
                at = [profiles[k] for k in members]  # the members' profiles
                needed = set(at).union(*reads)
                # the deviations no earlier group has read
                read.update((S, f(S)) for S in needed - read.keys())
                den = lcm(*{read[S][1] for S in needed})
                if den != value_den:
                    value, value_den = {}, den
                new = list(needed - value.keys())
                value.update(zip(new, _scaled([read[S] for S in new], top, den)))
            base = q * den
            follow = [value[S] - paid[k] * base for S, k in zip(at, members)]
            scale = base * inst.cost_den
            for T, row in zip(deviations, reads):
                cost_T = cost[T >> shift] * base
                deviate = [value[S] - cost_T for S in row]
                yield i, rec, T, members, follow, deviate, scale


def _scaled(pairs, top: int, den: int, paid: int = 0) -> list:
    """top * f(S) * den - paid for each pair (numerator, denominator) of f(S),
    den a multiple of every pair's denominator: the agents' a_i f(S) less a
    cost, over a scale."""
    return [top * num * (den // d) - paid for num, d in pairs]


def _violation(inst: Instance, support, a: Contract, concept: str,
               tol) -> Verdict:
    """The first regret row of ``concept`` that ``support`` violates, as a
    witness.

    The probabilities are put over their lcm ``den``, and each side sums
    over the row's members, so a row of the group with scale s holds when
    rhs - lhs <= eps * s * den, all in integers.
    """
    eps = _tol(tol)
    profiles, probs = zip(*support)
    weights, den = over_common_denominator(probs)
    group = None
    for i, rec, T, members, follow, deviate, scale in regret_rows(
            inst, a, concept, profiles, inst.reward.value_pair):
        if follow is not group:
            group = follow
            # the members' weights; a group of every profile takes them all
            held = (weights if len(members) == len(weights)
                    else [weights[k] for k in members])
            lhs = sum(map(mul, held, follow))
            slack = eps.numerator * scale * den
        rhs = sum(map(mul, held, deviate))
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

    With ``forced_floor``, one entry per agent, agent i only considers
    responses containing floor_i; the start profile must contain the floor.
    Each agent's slices are checked against the enumeration cap once, in
    index order, before the first sweep.
    """
    inst.check_contract(a)
    inst.check_profile(start)
    floors = [0] * inst.n if forced_floor is None else list(forced_floor)
    if len(floors) != inst.n:
        raise ValueError(f"forced_floor has {len(floors)} entries for {inst.n} agents")
    for i, fl in enumerate(floors):
        if fl & ~inst.agent_mask(i):
            raise ValueError(f"floor for agent {i} not owned by the agent")
        if fl & ~start:
            raise ValueError("start profile does not contain the floor")
    for i in range(inst.n):
        check_enum_bits(inst.agent_mask(i).bit_count(), f"best response agent {i}")
    S = start
    while True:
        improved = False
        for i in range(inst.n):
            mask = inst.agent_mask(i)
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
    inst.check_contract(a)
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
