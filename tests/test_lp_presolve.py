"""The row presolve of ``solve_lp``: a homogeneous row that every x >= 0
meets leaves the tableau without changing a pivot, one whose entries x >= 0
can only meet at a . x = 0 leaves it with every column it is nonzero on, the
tableau copies the other rows over their gcd, and the certificate still
proves the full program, with a dual for each forcing row."""
import random
from fractions import Fraction as F
from math import gcd

import pytest

from contractlab import solvers
from contractlab.core import over_common_denominator
from contractlab.fixtures import random_contract, random_instance
from contractlab.solvers import LinearProgram, best_cce, best_ce, solve_lp, worst_cce
from test_lp_crash import (
    _fraction_certificate,
    _rescaled,
    brute_force,
    lp,
    random_bounded_lp,
)

KINDS = ("additive", "coverage", "xos", "supermodular", "table")
SIZES = ([2, 2], [1, 1, 1, 1], [2, 2, 1])


def forcing_rows(rows):
    """The indices of the forcing rows among ``rows`` and the columns they
    force: rhs 0 and a ">=" row with every entry <= 0 or a "<=" row with
    every entry >= 0, some entry nonzero."""
    forcing, forced = [], set()
    for r, (coeffs, rel, rhs) in enumerate(rows):
        if rhs == 0 and any(coeffs) and (
                (rel == ">=" and max(coeffs) <= 0) or (rel == "<=" and min(coeffs) >= 0)):
            forcing.append(r)
            forced.update(j for j, v in enumerate(coeffs) if v)
    return forcing, forced


def met_rows(rows):
    """The indices of the rows among ``rows`` that every x >= 0 meets: rhs 0
    and a ">=" row with every entry >= 0 or a "<=" row with every entry
    <= 0, all-0 rows included."""
    return [r for r, (coeffs, rel, rhs) in enumerate(rows)
            if rhs == 0 and ((rel == ">=" and min(coeffs) >= 0)
                             or (rel == "<=" and max(coeffs) <= 0))]


def over_gcd(values):
    """``values`` divided by the gcd of its entries (as they are if it is 0)."""
    g = gcd(*values)
    return [v // g for v in values] if g else list(values)


REAL_PRESOLVE = solvers._presolve


def keep_met_rows(row, rel):
    """``solvers._presolve`` with the met rule off: a met row is kept."""
    kind = REAL_PRESOLVE(row, rel)
    return "kept" if kind == "met" else kind


def with_one_signed_rows(prog, rng):
    """``prog`` with 1-3 rhs-0 rows added at random places. Each is one-signed
    on a random set of columns; most are forcing rows, the rest an "=" row
    or a row with one entry of the other sign, which are not."""
    n = len(prog.objective)
    rows = list(prog.rows)
    for _ in range(rng.randint(1, 3)):
        support = rng.sample(range(n), rng.randint(1, n - 1))
        kind = rng.choice([">=", ">=", "<=", "<=", "=", "mixed"])
        sign = -1 if kind in (">=", "mixed") else 1
        coeffs = [F(sign * rng.randint(1, 3)) if j in support else F(0) for j in range(n)]
        rel = kind
        if kind == "mixed":
            rel = ">="
            coeffs[rng.choice([j for j in range(n) if j not in support])] = F(1)
        rows.insert(rng.randint(0, len(rows)), (tuple(coeffs), rel, F(0)))
    return LinearProgram(objective=prog.objective, sense=prog.sense, rows=tuple(rows))


def with_met_rows(prog, rng):
    """``prog`` with 1-3 rows added at random places. Most are met rows: rhs 0
    and a ">=" row with entries >= 0, a "<=" row with entries <= 0, or an
    all-0 row. The rest are near misses that must stay in: the same entries
    on an "=" row, one entry of the other sign, or a rhs other than 0."""
    n = len(prog.objective)
    rows = list(prog.rows)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice([">=", ">=", "<=", "<=", "zero", "=", "mixed", "rhs"])
        support = rng.sample(range(n), rng.randint(1, n))
        rel = rng.choice([">=", "<="]) if kind in ("zero", "rhs") else kind
        rel = ">=" if kind == "mixed" else rel
        sign = -1 if rel == "<=" else 1
        coeffs = [F(sign * rng.randint(1, 3)) if j in support and kind != "zero"
                  else F(0) for j in range(n)]
        if kind == "mixed":
            coeffs[rng.randrange(n)] = F(-sign * rng.randint(1, 3))
        rhs = F(rng.choice([-2, -1, 1, 2])) if kind == "rhs" else F(0)
        rows.insert(rng.randint(0, len(rows)), (tuple(coeffs), rel, rhs))
    return LinearProgram(objective=prog.objective, sense=prog.sense, rows=tuple(rows))


@pytest.fixture
def tableau(monkeypatch):
    """Per ``_iterate`` call: (rows in the basis, columns it may enter)."""
    log = []
    real_iterate = solvers._iterate

    def iterate(tab, basis, d, allowed_cols):
        log.append((len(basis), allowed_cols))
        return real_iterate(tab, basis, d, allowed_cols)

    monkeypatch.setattr(solvers, "_iterate", iterate)
    return log


def test_one_signed_rows_match_vertex_enumeration(tableau):
    """With forcing rows and near misses added, ``solve_lp`` agrees with
    vertex enumeration; the tableau carries every row but the forcing and
    met ones and one column for each unforced variable, and x is 0 where
    forced."""
    rng = random.Random(16)
    statuses, presolved = set(), 0
    for _ in range(150):
        prog = with_one_signed_rows(random_bounded_lp(rng), rng)
        forcing, forced = forcing_rows(prog.rows)
        skip = set(forcing + met_rows(prog.rows))
        tableau.clear()
        r = solve_lp(prog)
        assert (r.status, r.value) == brute_force(prog), prog
        statuses.add(r.status)
        # the first simplex call sees every tableau row, none dropped yet
        kept = [rel for k, (_, rel, _) in enumerate(prog.rows) if k not in skip]
        assert tableau[0][0] == len(kept)
        if r.status == "optimal":
            # phase 2 may enter the structural and slack columns
            slacks = sum(rel != "=" for rel in kept)
            assert tableau[-1][1] == len(prog.objective) - len(forced) + slacks
            assert all(r.x[j] == 0 for j in forced)
        presolved += bool(forced)
    assert statuses == {"optimal", "infeasible"} and presolved > 100


def test_met_rows_match_vertex_enumeration_and_change_no_pivot(tableau, monkeypatch):
    """With met rows, forcing rows and near misses of both added, ``solve_lp``
    agrees with vertex enumeration; the tableau leaves out the met rows, and
    with the met rule off the LP comes back the same in the same number of
    pivots."""
    real_pivot, pivots = solvers._pivot, [0]

    def pivot(*args):
        pivots[0] += 1
        return real_pivot(*args)

    monkeypatch.setattr(solvers, "_pivot", pivot)
    rng = random.Random(17)
    statuses, met_total = set(), 0
    for _ in range(150):
        prog = with_met_rows(random_bounded_lp(rng), rng)
        if rng.random() < 0.5:
            prog = with_one_signed_rows(prog, rng)
        met, (forcing, _) = met_rows(prog.rows), forcing_rows(prog.rows)
        runs = []
        for presolve in (REAL_PRESOLVE, keep_met_rows):
            monkeypatch.setattr(solvers, "_presolve", presolve)
            tableau.clear()
            pivots[0] = 0
            runs.append((solve_lp(prog), pivots[0], tableau[0][0]))
        (r, n_pivots, n_rows), off = runs
        assert (r.status, r.value) == brute_force(prog), prog
        assert n_rows == len(prog.rows) - len(forcing) - len(met)
        assert off == (r, n_pivots, n_rows + len(met))
        statuses.add(r.status)
        met_total += len(met)
    assert statuses == {"optimal", "infeasible"} and met_total > 150


def test_certificate_reads_kept_rows_over_their_gcd(monkeypatch):
    """``_certify`` gets every row of the program, each scaled to integers
    over the lcm of its denominators; a row the tableau copies is also
    divided by its gcd, a met or forcing row is not."""
    real_certify, calls = solvers._certify, []

    def spy(*args):
        calls.append(args)
        return real_certify(*args)

    monkeypatch.setattr(solvers, "_certify", spy)
    rng = random.Random(1996)
    optima = divided = undivided = 0
    for _ in range(500):
        prog = with_one_signed_rows(with_met_rows(random_bounded_lp(rng), rng), rng)
        # each row times its own k / q, so its integer form has an lcm scale
        # and a gcd above 1 in turn
        rows = [(tuple(v * k for v in coeffs), rel, rhs * k)
                for coeffs, rel, rhs in prog.rows
                for k in [F(rng.randint(1, 4), rng.randint(1, 4))]]
        prog = LinearProgram(objective=prog.objective, sense=prog.sense, rows=tuple(rows))
        calls.clear()
        if solve_lp(prog).status != "optimal":
            continue
        optima += 1
        (_, rows, _, x, d, w), = calls
        skip = set(met_rows(prog.rows) + forcing_rows(prog.rows)[0])
        for r, (coeffs, _, rhs) in enumerate(prog.rows):
            ints = list(over_common_denominator([*coeffs, rhs])[0])
            expected = ints if r in skip else over_gcd(ints)
            assert list(rows[r]) == expected, (prog, r)
            divided += expected != ints
            undivided += r in skip and over_gcd(ints) != ints
        assert _fraction_certificate(prog, rows, x, d, w)
    assert optima > 100 and divided > 150 and undivided > 150


def test_certificate_with_forcing_duals_matches_a_fraction_check(monkeypatch):
    """Every single-entry tampering of x and of every dual, the forcing rows'
    duals included, is rejected by ``_certify`` exactly when the Fraction
    check on the full program rejects it."""
    real_certify, calls = solvers._certify, []

    def spy(*args):
        calls.append(args)
        return real_certify(*args)

    monkeypatch.setattr(solvers, "_certify", spy)
    rng = random.Random(1995)
    optima = verdicts = forcing_duals = 0
    for _ in range(500):
        prog = _rescaled(with_one_signed_rows(random_bounded_lp(rng), rng), rng)
        calls.clear()
        if solve_lp(prog).status != "optimal":
            continue
        optima += 1
        (_, rows, objective, x, d, w), = calls
        assert _fraction_certificate(prog, rows, x, d, w)
        forcing, _ = forcing_rows(prog.rows)
        forcing_duals += sum(w[r] != 0 for r in forcing)
        tampered = [([*x[:j], x[j] + e, *x[j + 1:]], w)
                    for j in range(len(x)) for e in (1, -1)]
        tampered += [(x, [*w[:r], v, *w[r + 1:]])
                     for r in range(len(w)) for v in (w[r] + 1, w[r] - 1, -w[r], 0)]
        for bad_x, bad_w in tampered:
            try:
                real_certify(prog, rows, objective, bad_x, d, bad_w)
                accepted = True
            except RuntimeError:
                accepted = False
            assert accepted == _fraction_certificate(prog, rows, bad_x, d, bad_w), \
                (prog, bad_x, d, bad_w)
            verdicts += not accepted
    assert optima > 100 and verdicts > 1000 and forcing_duals > 20


def test_an_optimum_that_needs_a_forcing_dual(monkeypatch):
    """max x1 + x2 s.t. -x1 >= 0, x2 <= 1: x1 is forced to 0, and only the
    forcing row's dual y_1 <= 0 covers c_1 = 1 in A^T y >= c."""
    real_certify, calls = solvers._certify, []

    def spy(*args):
        calls.append(args)
        return real_certify(*args)

    monkeypatch.setattr(solvers, "_certify", spy)
    prog = lp([1, 1], "max", [([-1, 0], ">=", 0), ([0, 1], "<=", 1)])
    r = solve_lp(prog)
    assert (r.status, r.x, r.value) == ("optimal", (0, 1), 1)
    (_, rows, objective, x, d, w), = calls
    assert w == [-d, d]  # y = (-1, 1)
    assert _fraction_certificate(prog, rows, x, d, w)
    with pytest.raises(RuntimeError, match="A\\^T y >= c"):
        real_certify(prog, rows, objective, x, d, [0, d])


LPS = (best_cce, worst_cce, best_ce)


def record_start_tableaus(monkeypatch):
    """Spy on ``solve_lp``: the list returned gets (program, result, the
    tableau the first pivot sees) for each call."""
    real_solve, real_pivot = solvers.solve_lp, solvers._pivot
    log, start = [], []

    def pivot(tab, basis, d, r, c):
        if not start:
            start.append([row[:] for row in tab])
        return real_pivot(tab, basis, d, r, c)

    def solve(prog, region=None):
        start.clear()
        result = real_solve(prog, region)
        log.append((prog, result, start[0]))
        return result

    monkeypatch.setattr(solvers, "_pivot", pivot)
    monkeypatch.setattr(solvers, "solve_lp", solve)
    return log


def expected_start(rows):
    """The tableau an equilibrium LP with ``rows`` (homogeneous ">=" regret
    rows, then sum p = 1) starts from: the regret rows that are neither met
    nor forcing, over their gcd and negated into "<=" rows on their
    slacks, and sum p = 1 on its artificial, each on the unforced profiles
    only."""
    forcing, forced = forcing_rows(rows)
    skip = set(forcing + met_rows(rows))
    *regret, total = [row for r, row in enumerate(rows) if r not in skip]
    width = len(total[0])
    assert total == ((1,) * width, "=", 1)
    kept = [j for j in range(width) if j not in forced]
    k = len(regret)
    tab = [[-over_gcd(coeffs)[j] for j in kept] + [int(s == i) for s in range(k)] + [0, 0]
           for i, (coeffs, _, _) in enumerate(regret)]
    tab.append([1] * len(kept) + [0] * k + [1, 1])
    return tab


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sizes", SIZES, ids=str)
def test_forced_profiles_stay_out_of_the_tableau(monkeypatch, kind, sizes):
    """On every equilibrium LP the tableau starts as the regret rows that are
    neither forcing nor met, over their gcd and negated into "<=" rows on
    their slacks, and sum p = 1 on its artificial, each over the unforced
    profiles only; every forced profile gets p = 0."""
    log = record_start_tableaus(monkeypatch)
    inst = random_instance(kind, 1600 + sum(sizes), len(sizes), sizes)
    rng = random.Random(len(sizes) * 100 + sum(sizes))
    forced_total = 0
    for solver in LPS:
        for _ in range(2):
            solver(inst, random_contract(inst.n, rng))
    assert len(log) == 2 * len(LPS)
    for prog, result, start in log:
        _, forced = forcing_rows(prog.rows)
        assert start == expected_start(prog.rows)
        assert all(result.x[j] == 0 for j in forced)
        forced_total += len(forced)
    assert forced_total > 0
