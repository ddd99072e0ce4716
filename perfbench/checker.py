"""Exact equilibrium checks written independently of contractlab's verifiers.

The checker reads only instance data (``n``, ``owners``, ``costs`` and
``reward.value``), contract shares and distribution supports. Every regret
sum, pure-equilibrium set, weighted potential and class test here is
recomputed from those, never taken from ``is_*``, ``agent_utility``,
``Instance.cost``, ``submasks`` or ``classify``.
"""
from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class CheckError(Exception):
    """A library output disagrees with the independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def subsets(mask: int):
    """Every subset of ``mask``, largest first, ending with the empty set."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def expand(per_agent) -> tuple:
    """Joint support of a product of per-agent slice mixtures."""
    joint = [(0, ONE)]
    for entries in per_agent:
        joint = [(S | mask, p * q) for S, p in joint for mask, q in entries]
    return tuple(joint)


class Game:
    """The checker's own view of an instance, with a memo of f."""

    def __init__(self, inst):
        self.n = inst.n
        self.m = len(inst.costs)
        self.masks = [0] * self.n
        for j, owner in enumerate(inst.owners):
            self.masks[owner] |= 1 << j
        self.costs = tuple(inst.costs)
        self._value = inst.reward.value
        self._f = {}

    def f(self, S: int) -> Fraction:
        v = self._f.get(S)
        if v is None:
            v = self._f[S] = self._value(S)
        return v

    def cost(self, mask: int) -> Fraction:
        total = ZERO
        while mask:
            low = mask & -mask
            total += self.costs[low.bit_length() - 1]
            mask ^= low
        return total


# ---------------------------------------------------------------------------
# regret sums

def regret(g: Game, support, alpha, i: int, T: int, rec=None):
    """(utility following, utility deviating to T) of agent i, summed over the
    support; with ``rec`` only over profiles recommending slice rec to i."""
    mask = g.masks[i]
    share = alpha[i]
    follow = deviate = ZERO
    cT = g.cost(T)
    for S, p in support:
        if rec is not None and S & mask != rec:
            continue
        follow += p * (share * g.f(S) - g.cost(S & mask))
        deviate += p * (share * g.f((S & ~mask) | T) - cT)
    return follow, deviate


def cce_violation(g: Game, support, alpha):
    """First (agent, deviation, None, follow, deviate) with a gain, or None."""
    for i in range(g.n):
        for T in subsets(g.masks[i]):
            follow, deviate = regret(g, support, alpha, i, T)
            if deviate > follow:
                return i, T, None, follow, deviate
    return None


def ce_violation(g: Game, support, alpha):
    """First (agent, deviation, recommendation, follow, deviate), or None."""
    for i in range(g.n):
        recs = sorted({S & g.masks[i] for S, _ in support})
        for rec in recs:
            for T in subsets(g.masks[i]):
                if T == rec:
                    continue
                follow, deviate = regret(g, support, alpha, i, T, rec)
                if deviate > follow:
                    return i, T, rec, follow, deviate
    return None


def dropout_violation(g: Game, support, alpha):
    for i in range(g.n):
        follow, deviate = regret(g, support, alpha, i, 0)
        if deviate > follow:
            return i, 0, None, follow, deviate
    return None


def pne_violation(g: Game, S: int, alpha):
    return ce_violation(g, ((S, ONE),), alpha)


def expect_witness(g: Game, support, alpha, verdict, conditional=False) -> None:
    """A failed library verdict must name a real, exactly valued violation."""
    rec = verdict.recommendation if conditional else None
    follow, deviate = regret(g, support, alpha, verdict.agent,
                             verdict.deviation, rec)
    expect(follow == verdict.lhs and deviate == verdict.rhs,
           f"witness values ({verdict.lhs}, {verdict.rhs}) != "
           f"checker ({follow}, {deviate})")
    expect(deviate > follow, "witness shows no gain")


def pne_set(g: Game, alpha) -> list:
    """Every pure equilibrium by brute force, lowest mask first."""
    return [S for S in range(1 << g.m) if pne_violation(g, S, alpha) is None]


# ---------------------------------------------------------------------------
# principal values, potential and the exact binary optimum

def principal(g: Game, support, alpha) -> Fraction:
    """(1 - sum of shares) * E[f]."""
    return (ONE - sum(alpha, ZERO)) * sum((p * g.f(S) for S, p in support), ZERO)


def expected_reward(g: Game, support) -> Fraction:
    return sum((p * g.f(S) for S, p in support), ZERO)


def potential(g: Game, S: int, alpha):
    """f(S) - sum_i c(S_i)/alpha_i; None stands for minus infinity."""
    total = g.f(S)
    for i in range(g.n):
        c = g.cost(S & g.masks[i])
        if c == 0:
            continue
        if alpha[i] == 0:
            return None
        total -= c / alpha[i]
    return total


def inducing_shares(g: Game, S: int):
    """Cheapest contract making the binary profile S a PNE, or None.

    Agent j in S needs a_j * (f(S) - f(S - j)) >= c_j; agents outside S stay
    out at share 0. A share above 1 cannot be paid.
    """
    fS = g.f(S)
    shares = [ZERO] * g.n
    for j in range(g.n):
        if not S >> j & 1:
            continue
        marginal = fS - g.f(S & ~(1 << j))
        c = g.costs[j]
        if c == 0:
            continue
        if marginal <= 0:
            return None
        shares[j] = c / marginal
        if shares[j] > 1:
            return None
    return shares


def best_pne_binary_exact(g: Game) -> Fraction:
    """max over inducible S of (1 - sum of the cheapest shares) * f(S)."""
    best = None
    for S in range(1 << g.m):
        shares = inducing_shares(g, S)
        if shares is None:
            continue
        value = (ONE - sum(shares, ZERO)) * g.f(S)
        if best is None or value > best:
            best = value
    return best


# ---------------------------------------------------------------------------
# reward classes

def class_truths(g: Game) -> dict:
    """Exhaustive membership for every class the checker can decide exactly.

    XOS is not decided here: it maps to False when a necessary condition
    (normalized, nonnegative, monotone, subadditive) fails and to None
    otherwise.
    """
    m = g.m
    table = [g.f(S) for S in range(1 << m)]
    normalized = table[0] == 0
    nonnegative = all(v >= 0 for v in table)
    monotone = all(table[S | 1 << j] >= table[S]
                   for S in range(1 << m) for j in range(m))
    additive = normalized and all(
        table[S] == sum((table[1 << j] for j in range(m) if S >> j & 1), ZERO)
        for S in range(1 << m))
    submodular = supermodular = True
    for S in range(1 << m):
        for j in range(m):
            for k in range(j + 1, m):
                if (S >> j | S >> k) & 1:
                    continue
                lhs = table[S | 1 << j] - table[S]
                rhs = table[S | 1 << j | 1 << k] - table[S | 1 << k]
                submodular = submodular and lhs >= rhs
                supermodular = supermodular and lhs <= rhs
    subadditive = all(table[S] + table[T] >= table[S | T]
                      for S in range(1 << m) for T in range(1 << m))
    xos = None if (normalized and nonnegative and monotone and subadditive) \
        else False
    return {"monotone": monotone, "normalized": normalized,
            "additive": additive, "submodular": submodular,
            "supermodular": supermodular, "subadditive": subadditive,
            "xos": xos}

