"""The rows an equilibrium LP hands to ``solve_lp``: every regret row, of
which those that every p >= 0 meets stay out of the tableau without
changing a pivot or a result; integer rows are taken over 1; and the sampled
equilibria lie between the LP optima of their concepts."""
import random
from fractions import Fraction as F
from operator import sub

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
    best_ce,
    best_cce,
    equilibrium_lp,
    worst_cce,
)
from padded_rows import padded
from test_lp_presolve import (
    REAL_PRESOLVE,
    expected_start,
    forcing_rows,
    keep_met_rows,
    met_rows,
    record_start_tableaus,
)

KINDS = ("additive", "coverage", "xos", "supermodular", "table")
SIZES = ([2, 2], [1, 1, 1, 1], [2, 2, 1])


def every_regret_row(inst, a, concept):
    """The LP's rows: each regret row as follow - deviate >= 0, then
    sum p = 1."""
    table = inst.reward.table()
    rows = [(tuple(map(sub, follow, deviate)), ">=", 0)
            for *_, follow, deviate, _ in padded(regret_rows(
                inst, a, concept, range(1 << inst.m), table.__getitem__), 1 << inst.m)]
    rows.append(((1,) * (1 << inst.m), "=", 1))
    return tuple(rows)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sizes", SIZES, ids=str)
def test_rows_met_by_every_distribution_change_nothing(monkeypatch, kind, sizes):
    """Every equilibrium LP, for CCE, CE and dropout rows, max and min, f and
    random objectives, hands every regret row to solve_lp and to _certify;
    no row whose entries are all >= 0 reaches the tableau, and with the met
    rule off the LP gives the same result in the same number of pivots."""
    real_solve, real_pivot = solvers.solve_lp, solvers._pivot
    real_iterate, real_certify = solvers._iterate, solvers._certify
    solved, pivots, tableau_rows, certified = [], [0], [], []

    def solve(prog, region=None):
        solved.append(prog)
        return real_solve(prog, region)

    def pivot(*args):
        pivots[0] += 1
        return real_pivot(*args)

    def iterate(tab, basis, d, allowed_cols):
        tableau_rows.append(len(basis))
        return real_iterate(tab, basis, d, allowed_cols)

    def certify(lp, rows, *args):
        certified.append(len(rows))
        return real_certify(lp, rows, *args)

    for name, spy in (("solve_lp", solve), ("_pivot", pivot), ("_iterate", iterate),
                      ("_certify", certify)):
        monkeypatch.setattr(solvers, name, spy)
    inst = random_instance(kind, 1500 + sum(sizes), len(sizes), sizes)
    rng = random.Random(len(sizes) * 10 + sum(sizes))
    met_total = 0
    for concept in ("cce", "ce", "dropout"):
        for sense in ("max", "min"):
            weights = [F(rng.randint(-5, 10)) for _ in range(1 << inst.m)]
            for objective in (None, weights.__getitem__):
                a = random_contract(inst.n, rng)
                solved.clear()
                equilibrium_lp(inst, a, concept, sense, objective)
                (prog,) = solved
                assert prog.rows == every_regret_row(inst, a, concept)
                met = len(met_rows(prog.rows))
                forcing = len(forcing_rows(prog.rows)[0])
                met_total += met
                runs = []
                for presolve in (REAL_PRESOLVE, keep_met_rows):
                    monkeypatch.setattr(solvers, "_presolve", presolve)
                    pivots[0] = 0
                    tableau_rows.clear()
                    certified.clear()
                    result = real_solve(prog)
                    # phase 1 never runs: the one simplex call is phase 2
                    (n_rows,) = tableau_rows
                    assert certified == [len(prog.rows)]
                    runs.append((result, pivots[0], n_rows))
                (result, n_pivots, n_rows), off = runs
                assert n_rows == len(prog.rows) - met - forcing
                assert off == (result, n_pivots, n_rows + met)
    assert met_total > 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sizes", SIZES, ids=str)
def test_tableau_starts_from_every_regret_row(monkeypatch, kind, sizes):
    """For CCE, CE and dropout rows the initial tableau is the rows
    follow - deviate over their gcd, built here from ``regret_rows``, less
    the met and the forcing rows and the profiles they force."""
    log = record_start_tableaus(monkeypatch)
    inst = random_instance(kind, 1700 + sum(sizes), len(sizes), sizes)
    rng = random.Random(len(sizes) * 1000 + sum(sizes))
    for concept in ("cce", "ce", "dropout"):
        for sense in ("max", "min"):
            a = random_contract(inst.n, rng)
            log.clear()
            equilibrium_lp(inst, a, concept, sense)
            ((_, _, start),) = log
            assert start == expected_start(every_regret_row(inst, a, concept))


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
