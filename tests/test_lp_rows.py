"""The rows an equilibrium LP hands to ``solve_lp``: regret rows that every
p >= 0 meets are left out without changing a pivot or a result, integer rows
enter the tableau unscaled, and the sampled equilibria lie between the LP
optima of their concepts."""
import random
from fractions import Fraction as F
from math import gcd

import pytest

from contractlab import solvers
from contractlab.core import over_common_denominator
from contractlab.equilibria import regret_rows
from contractlab.fixtures import (
    random_contract,
    random_instance,
    sample_ce,
    sample_cce,
)
from contractlab.solvers import (
    LinearProgram,
    best_ce,
    best_cce,
    equilibrium_lp,
    worst_cce,
)

KINDS = ("additive", "coverage", "xos", "supermodular", "table")
SIZES = ([2, 2], [1, 1, 1, 1], [2, 2, 1])


def every_regret_row(inst, a, concept):
    """The LP's rows before any is left out: each regret row as
    follow - deviate over the gcd of its entries, then sum p = 1."""
    table = [F(n, d) for n, d in inst.reward.table()]
    rows = []
    for *_, follow, deviate, _ in regret_rows(inst, a, concept,
                                              range(1 << inst.m), table.__getitem__):
        row = [x - y for x, y in zip(follow, deviate)]
        g = gcd(*row)
        rows.append((tuple(v // g for v in row) if g > 1 else tuple(row), ">=", 0))
    rows.append(((1,) * (1 << inst.m), "=", 1))
    return tuple(rows)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sizes", SIZES, ids=str)
def test_rows_met_by_every_distribution_change_nothing(monkeypatch, kind, sizes):
    """Every equilibrium LP, for CCE, CE and dropout rows, max and min, f and
    random objectives, reaches solve_lp without the regret rows whose entries
    are all >= 0; with them put back in place it gives the same result in
    the same number of pivots."""
    real_solve, real_pivot = solvers.solve_lp, solvers._pivot
    solved, pivots = [], [0]

    def solve(prog):
        solved.append(prog)
        return real_solve(prog)

    def pivot(*args):
        pivots[0] += 1
        return real_pivot(*args)

    monkeypatch.setattr(solvers, "solve_lp", solve)
    monkeypatch.setattr(solvers, "_pivot", pivot)
    inst = random_instance(kind, 1500 + sum(sizes), len(sizes), sizes)
    rng = random.Random(len(sizes) * 10 + sum(sizes))
    dropped = 0
    for concept in ("cce", "ce", "dropout"):
        for sense in ("max", "min"):
            weights = [F(rng.randint(-5, 10)) for _ in range(1 << inst.m)]
            for objective in (None, weights.__getitem__):
                a = random_contract(inst.n, rng)
                solved.clear()
                equilibrium_lp(inst, a, concept, sense, objective)
                (prog,) = solved
                *regret, last = prog.rows
                assert last == ((1,) * (1 << inst.m), "=", 1)
                assert all(min(coeffs) < 0 for coeffs, _, _ in regret)
                rows = every_regret_row(inst, a, concept)
                assert prog.rows == tuple(r for r in rows
                                          if r is rows[-1] or min(r[0]) < 0)
                dropped += len(rows) - len(prog.rows)
                pivots[0] = 0
                kept = real_solve(prog)
                kept_pivots, pivots[0] = pivots[0], 0
                full = real_solve(LinearProgram(objective=prog.objective,
                                                sense=sense, rows=rows))
                assert (full, pivots[0]) == (kept, kept_pivots)
    assert dropped > 0


def test_integer_rows_pass_through_unscaled():
    ints = [3, -4, 0, 12]
    scaled, den = over_common_denominator(ints)
    assert scaled is ints and den == 1
    assert over_common_denominator((1, 2)) == ((1, 2), 1)
    assert over_common_denominator([1, F(1, 2), F(-2, 3)]) == ([6, 3, -4], 6)
    assert over_common_denominator([F(2), F(4)]) == ([2, 4], 1)
    for bad in ([1, 0.5], [0.5, 1], [F(1, 2), 2.0]):
        with pytest.raises(TypeError, match="inexact float"):
            over_common_denominator(bad)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sizes", SIZES, ids=str)
def test_sampled_equilibria_lie_between_the_optima(kind, sizes):
    """worst_cce <= sample_cce <= best_cce and sample_ce <= best_ce <=
    best_cce, in principal utility. Each contract pays at most 1/2 in total,
    so the principal's share is positive and the LP of the best expected
    reward is the LP of the best utility."""
    rng = random.Random(f"between/{kind}/{sizes}")
    for _ in range(4):
        inst = random_instance(kind, rng.randrange(1 << 30), len(sizes), sizes)
        a = random_contract(inst.n, rng, budget=F(1, 2))
        lo, hi = worst_cce(inst, a)[1], best_cce(inst, a)[1]
        ce_hi = best_ce(inst, a)[1]
        assert lo <= ce_hi <= hi
        for _ in range(3):
            cce = sample_cce(inst, a, random.Random(rng.randrange(1 << 30)))
            assert lo <= cce.principal_utility(inst, a) <= hi
            ce = sample_ce(inst, a, random.Random(rng.randrange(1 << 30)))
            assert lo <= ce.principal_utility(inst, a) <= ce_hi
