"""The forcing-row presolve of ``solve_lp``: a homogeneous row whose entries
x >= 0 can only meet at a . x = 0 leaves the tableau with every column it is
nonzero on, and the certificate still proves the full program, with a dual
for each forcing row."""
import random
from fractions import Fraction as F

import pytest

from contractlab import solvers
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


def forcing_rows(prog):
    """The indices of the forcing rows of ``prog`` and the columns they force:
    rhs 0 and a ">=" row with every entry <= 0 or a "<=" row with every entry
    >= 0, some entry nonzero."""
    rows, forced = [], set()
    for r, (coeffs, rel, rhs) in enumerate(prog.rows):
        if rhs == 0 and any(coeffs) and (
                (rel == ">=" and max(coeffs) <= 0) or (rel == "<=" and min(coeffs) >= 0)):
            rows.append(r)
            forced.update(j for j, v in enumerate(coeffs) if v)
    return rows, forced


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
    vertex enumeration; the tableau carries every row but the forcing ones
    and one column for each unforced variable, and x is 0 where forced."""
    rng = random.Random(16)
    statuses, presolved = set(), 0
    for _ in range(150):
        prog = with_one_signed_rows(random_bounded_lp(rng), rng)
        forcing, forced = forcing_rows(prog)
        tableau.clear()
        r = solve_lp(prog)
        assert (r.status, r.value) == brute_force(prog), prog
        statuses.add(r.status)
        # the first simplex call sees every tableau row, none dropped yet
        kept = [rel for k, (_, rel, _) in enumerate(prog.rows) if k not in forcing]
        assert tableau[0][0] == len(kept)
        if r.status == "optimal":
            # phase 2 may enter the structural and slack columns
            slacks = sum(rel != "=" for rel in kept)
            assert tableau[-1][1] == len(prog.objective) - len(forced) + slacks
            assert all(r.x[j] == 0 for j in forced)
        presolved += bool(forced)
    assert statuses == {"optimal", "infeasible"} and presolved > 100


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
        assert _fraction_certificate(prog, x, d, w)
        forcing, _ = forcing_rows(prog)
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
            assert accepted == _fraction_certificate(prog, bad_x, d, bad_w), \
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
    assert _fraction_certificate(prog, x, d, w)
    with pytest.raises(RuntimeError, match="A\\^T y >= c"):
        real_certify(prog, rows, objective, x, d, [0, d])


LPS = (best_cce, worst_cce, best_ce)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sizes", SIZES, ids=str)
def test_forced_profiles_stay_out_of_the_tableau(monkeypatch, kind, sizes):
    """On every equilibrium LP the tableau starts as the regret rows that are
    not forcing, negated into "<=" rows on their slacks, and sum p = 1 on its
    artificial, each over the unforced profiles only; every forced profile
    gets p = 0."""
    real_solve, real_pivot = solvers.solve_lp, solvers._pivot
    starts, results = [], []

    def pivot(tab, basis, d, r, c):
        if len(starts) == len(results):  # the first pivot of this LP
            starts.append([row[:] for row in tab])
        return real_pivot(tab, basis, d, r, c)

    def solve(prog):
        results.append((prog, real_solve(prog)))
        return results[-1][1]

    monkeypatch.setattr(solvers, "_pivot", pivot)
    monkeypatch.setattr(solvers, "solve_lp", solve)
    inst = random_instance(kind, 1600 + sum(sizes), len(sizes), sizes)
    rng = random.Random(len(sizes) * 100 + sum(sizes))
    forced_total = 0
    for solver in LPS:
        for _ in range(2):
            solver(inst, random_contract(inst.n, rng))
    assert len(starts) == len(results) == 2 * len(LPS)
    for start, (prog, result) in zip(starts, results):
        forcing, forced = forcing_rows(prog)
        kept = [j for j in range(len(prog.objective)) if j not in forced]
        *regret, total = [row for r, row in enumerate(prog.rows) if r not in forcing]
        k = len(regret)
        expected = [[-row[0][j] for j in kept] + [int(s == i) for s in range(k)] + [0, 0]
                    for i, row in enumerate(regret)]
        expected.append([1] * len(kept) + [0] * k + [1, 1])
        assert total == ((1,) * len(prog.objective), "=", 1)
        assert start == expected
        assert all(result.x[j] == 0 for j in forced)
        forced_total += len(forced)
    assert forced_total > 0
