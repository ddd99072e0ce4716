"""Named benchmark instances and seeded random generators.

The named constructors realize the recurring worked examples exactly; the
random generators produce class-certified instances for property tests.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache

from .core import (
    Contract,
    Instance,
    ONE,
    ZERO,
    bits_of,
    check_enum_bits,
    make_instance,
    mask_of,
)
from .equilibria import JointDistribution, ProductDistribution
from .rewards import (
    AdditiveReward,
    CoverageReward,
    FormulaReward,
    TableReward,
    XosReward,
    _subset_sums,
)
from .solvers import equilibrium_lp

HALF = Fraction(1, 2)


def separation_example() -> Instance:
    """Two unit-cost agents, one action each; f = 0 / 180 / 180 / 200.

    The best pure equilibrium pays the principal 180, while a mixed
    equilibrium at shares (1/36, 1/36) pays 183.6.
    """
    reward = TableReward([0, 180, 180, 200])
    return make_instance([[1], [1]], reward)


def separation_mne() -> tuple:
    """The contract (1/36, 1/36) and the each-agent-works-with-prob-9/10 mix."""
    a = Contract.of([Fraction(1, 36), Fraction(1, 36)])
    nine = Fraction(9, 10)
    P = ProductDistribution((
        ((1, nine), (0, ONE - nine)),
        ((2, nine), (0, ONE - nine)),
    ))
    return a, P


# ---------------------------------------------------------------------------
# subadditive gap family

def _square_root(n: int) -> int:
    root = math.isqrt(n)
    if root * root != n:
        raise ValueError(f"n must be a perfect square, got {n}")
    return root


def subadditive_gap_actions(n: int) -> int:
    """The action count m = 2n + 2 of ``subadditive_gap_instance(n)``."""
    return 2 * n + 2


def subadditive_gap_instance(n: int) -> Instance:
    """2n+2 binary agents: two free agents x, y plus 2n agents at cost 2/(3n).

    Action ids: 0 = x, 1 = y, 2..n+1 the distinguished first half of [2n],
    n+2..2n+1 the rest. The value of S depends on |S n {x,y}|, |S n [2n]|,
    and, when exactly one of [2n] is missing, on which half it came from.
    """
    root = _square_root(n)
    m = subadditive_gap_actions(n)
    first_half = mask_of(range(2, n + 2))
    group = mask_of(range(2, m))

    @cache
    def level(k: int, i: int, half: bool) -> Fraction:
        """f at k = |S n {x, y}| and i = |S n [2n]|; ``half`` says that the
        one missing member of [2n] (i = 2n - 1) left the first half full."""
        if i == 0:
            return Fraction((0, 4, 5)[k])
        # base + min(i, 2n - 1) / root, as one fraction
        if i < 2 * n - 1:
            return Fraction((2, 4, 5)[k] * root + i, root)
        if i == 2 * n:
            base = (4, 6, 7)[k]
        elif half:
            base = (2, 5, 5)[k]
        else:
            base = (3, 4, 6)[k]
        return Fraction(base * root + 2 * n - 1, root)

    def value(S: int) -> Fraction:
        i = (S & group).bit_count()
        return level((S & 3).bit_count(), i,
                     i == 2 * n - 1 and S & first_half == first_half)

    reward = FormulaReward(m, value)
    cost = Fraction(2, 3 * n)
    return make_instance([[0], [0]] + [[cost]] * (2 * n), reward)


def claim_c3_mne(inst: Instance, n: int) -> tuple:
    """Contract 4/(9n) on [2n] (x, y free) and the half-half mix of x and y."""
    share = Fraction(4, 9 * n)
    a = Contract.of([0, 0] + [share] * (2 * n))
    per_agent = [((1, HALF), (0, HALF)), ((2, HALF), (0, HALF))]
    for i in range(2, inst.n):
        per_agent.append(((inst.agent_mask(i), ONE),))
    return a, ProductDistribution(tuple(per_agent))


def claim_c3_expected_utility(n: int) -> Fraction:
    """(1/9) * (23/4 + (2n-1)/sqrt(n)); n must be a perfect square."""
    root = _square_root(n)
    return (Fraction(23, 4) + Fraction(2 * n - 1, root)) / 9


# ---------------------------------------------------------------------------
# supermodular gap instance

def supermodular_cce_gap_instance() -> Instance:
    """A_1 = {1, 2}, A_2 = {3}; only the full set has positive welfare."""
    reward = TableReward([0, 0, 1, "11/2", 0, 1, 1, 10])
    return make_instance([["3/4", "17/2"], ["1/4"]], reward)


def supermodular_gap_cce() -> tuple:
    """Contract (0.925, 1/18) with the 4/5-on-everything, 1/5-on-nothing mix."""
    a = Contract.of(["37/40", "1/18"])
    D = JointDistribution(((7, Fraction(4, 5)), (0, Fraction(1, 5))))
    return a, D


# ---------------------------------------------------------------------------
# golden-ratio instance

def golden_ratio_approx(digits: int) -> Fraction:
    """(1 + sqrt(5)) / 2 truncated to the given decimal digits, as a rational."""
    if digits < 20:
        raise ValueError("need at least 20 digits of precision")
    scale = 10 ** digits
    return Fraction(scale + math.isqrt(5 * scale * scale), 2 * scale)


def golden_ratio_instance(digits: int = 50) -> Instance:
    """Four binary agents; neither subadditive nor supermodular.

    f is the monotone closure of {1,2} -> 2, {1,3} -> 1, {2,4} -> 1,
    {1,2,3} -> phi+1, {1,2,4} -> phi+1 with phi the golden ratio, here a
    rational truncation. Costs (1, 1, 0, 0). At the exact phi every
    inducible set yields the principal zero or less.
    """
    phi = golden_ratio_approx(digits)
    seeds = {0b0011: Fraction(2), 0b0101: ONE, 0b1010: ONE,
             0b0111: phi + 1, 0b1011: phi + 1}
    table = []
    for S in range(16):
        table.append(max((v for T, v in seeds.items() if T & ~S == 0),
                         default=ZERO))
    return make_instance([[1], [1], [0], [0]], TableReward(table))


def golden_ratio_mne(digits: int = 50) -> tuple:
    """Shares 4/(5 phi) on agents 1, 2; agents 3, 4 work with prob 1 - phi/2."""
    phi = golden_ratio_approx(digits)
    share = Fraction(4) / (5 * phi)
    p = ONE - phi / 2
    a = Contract.of([share, share, 0, 0])
    P = ProductDistribution((
        ((1, ONE),),
        ((2, ONE),),
        ((4, p), (0, ONE - p)),
        ((8, p), (0, ONE - p)),
    ))
    return a, P


# ---------------------------------------------------------------------------
# random generators

def _random_costs(rng: random.Random, count: int) -> list:
    return [Fraction(rng.randint(0, 8), 4) for _ in range(count)]


def _split_actions(n: int, sizes) -> list:
    """Per-agent action counts from one count or a list of n; ValueError,
    naming the agent, for a count that is negative or not an int (a bool
    included). A count of 0 is an agent without actions."""
    try:
        counts = list(sizes)
    except TypeError:  # one count for every agent
        counts = [sizes] * n
    if len(counts) != n:
        raise ValueError("sizes length must match agent count")
    for i, count in enumerate(counts):
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ValueError(
                f"agent {i}: action count must be a non-negative int, got {count!r}")
    return counts


def random_instance(kind: str, seed: int, n: int, sizes) -> Instance:
    """Seeded instance with a class-certified reward.

    kinds: additive, coverage (submodular), xos, supermodular (square of an
    additive load), table (random monotone). sizes is one int or a per-agent
    list of action counts.

    The two table kinds are built in ints and handed to ``TableReward``,
    which stores them as ``Fraction``s: supermodular squares the subset sums
    of its integer loads, filled by doubling (``rewards._subset_sums``);
    table draws one increment per profile, in increasing bitmask order, on
    top of the largest value among the profile's one-action-smaller subsets.
    """
    rng = random.Random(seed)
    counts = _split_actions(n, sizes)
    m = sum(counts)
    if kind in ("supermodular", "table"):
        check_enum_bits(m, f"random {kind} instance")
    if kind == "additive":
        reward = AdditiveReward([Fraction(rng.randint(0, 20)) for _ in range(m)])
    elif kind == "coverage":
        universe = m + 2
        weights = [Fraction(rng.randint(0, 5)) for _ in range(universe)]
        covers = [rng.randint(1, (1 << universe) - 1) for _ in range(m)]
        reward = CoverageReward(weights, covers)
    elif kind == "xos":
        clauses = [[Fraction(rng.randint(0, 10)) for _ in range(m)]
                   for _ in range(rng.randint(2, 4))]
        reward = XosReward(clauses)
    elif kind == "supermodular":
        loads = [rng.randint(0, 4) for _ in range(m)]
        reward = TableReward([s * s for s in _subset_sums(loads)])
    elif kind == "table":
        table = [0] * (1 << m)
        for S in range(1, 1 << m):
            floor = max(table[S ^ (1 << j)] for j in bits_of(S))
            table[S] = floor + rng.randint(0, 5)
        reward = TableReward(table)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    agents = [_random_costs(rng, count) for count in counts]
    return make_instance(agents, reward)


def _random_objective(rng: random.Random):
    return lambda S: rng.randint(-5, 10)


def sample_dropout_stable(inst: Instance, a: Contract,
                          rng: random.Random) -> JointDistribution:
    """A vertex of the dropout-stability polytope under a random objective.

    The polytope is never empty: the point mass on the empty profile always
    qualifies.
    """
    return equilibrium_lp(inst, a, "dropout", objective=_random_objective(rng))[0]


def sample_cce(inst: Instance, a: Contract, rng: random.Random) -> JointDistribution:
    """A vertex of the CCE polytope under a random objective."""
    return equilibrium_lp(inst, a, "cce", objective=_random_objective(rng))[0]


def sample_ce(inst: Instance, a: Contract, rng: random.Random) -> JointDistribution:
    """A vertex of the CE polytope under a random objective."""
    return equilibrium_lp(inst, a, "ce", objective=_random_objective(rng))[0]


def random_contract(n: int, rng: random.Random, denominator: int = 12,
                    budget: Fraction = ONE) -> Contract:
    """Random shares on a 1/denominator grid keeping the total within budget."""
    shares = []
    left = budget
    for _ in range(n):
        cap = min(int(left * denominator), denominator)
        v = Fraction(rng.randint(0, cap), denominator)
        shares.append(v)
        left -= v
    return Contract(tuple(shares))
