"""The crash start of ``solve_lp``: a differential check against vertex
enumeration, the integer certificate against a ``Fraction`` check, the
equilibrium LPs starting at a PNE's point mass without phase 1, pinned
sampler outputs, and the refusal of floats."""
import random
from fractions import Fraction as F
from itertools import combinations
from math import lcm

import pytest

from contractlab import solvers
from contractlab.core import Contract
from contractlab.equilibria import JointDistribution, is_dropout_stable, is_pne
from contractlab.fixtures import (
    random_contract,
    random_instance,
    sample_ce,
    sample_cce,
    sample_dropout_stable,
)
from contractlab.solvers import LinearProgram, best_cce, best_ce, solve_lp, worst_cce


def lp(objective, sense, rows):
    return LinearProgram(objective=tuple(F(c) for c in objective), sense=sense,
                         rows=tuple((tuple(F(c) for c in coeffs), rel, F(rhs))
                                    for coeffs, rel, rhs in rows))


def _solve_square(A, b):
    """x with A x = b by Gauss-Jordan in Fractions; None if A is singular."""
    n = len(A)
    M = [list(row) + [v] for row, v in zip(A, b)]
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c] != 0), None)
        if p is None:
            return None
        M[c], M[p] = M[p], M[c]
        for r in range(n):
            if r != c and M[r][c] != 0:
                q = M[r][c] / M[c][c]
                M[r] = [x - q * y for x, y in zip(M[r], M[c])]
    return [M[i][-1] / M[i][i] for i in range(n)]


def _meets(lhs, rel, rhs):
    return lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs


def brute_force(prog):
    """(status, value) of a bounded LP from its vertices: every point where n
    of its constraints (rows and x >= 0) are tight and that meets them all."""
    n = len(prog.objective)
    cons = list(prog.rows) + [(tuple(F(int(i == j)) for j in range(n)), ">=", F(0))
                              for i in range(n)]
    best = None
    for tight in combinations(cons, n):
        x = _solve_square([c for c, _, _ in tight], [b for _, _, b in tight])
        if x is None:
            continue
        if all(_meets(sum(map(F.__mul__, c, x)), rel, b) for c, rel, b in cons):
            v = sum(map(F.__mul__, prog.objective, x))
            if best is None or (v > best if prog.sense == "max" else v < best):
                best = v
    return ("infeasible", None) if best is None else ("optimal", best)


def random_bounded_lp(rng):
    """2-4 variables, 1-4 rows of every relation with rhs of every sign, and
    the box sum x <= K, so the LP is never unbounded."""
    n = rng.randint(2, 4)
    rows = [(tuple(F(rng.randint(-3, 3)) for _ in range(n)),
             rng.choice(["<=", "=", ">="]), F(rng.randint(-4, 6)))
            for _ in range(rng.randint(1, 4))]
    rows.append(((F(1),) * n, "<=", F(rng.randint(1, 8))))
    rng.shuffle(rows)
    return LinearProgram(objective=tuple(F(rng.randint(-3, 3)) for _ in range(n)),
                         sense=rng.choice(["max", "min"]), rows=tuple(rows))


def test_brute_force_reference():
    assert brute_force(lp([1, 1], "max", [([1, 2], "<=", 4), ([3, 1], "<=", 6)])) \
        == ("optimal", F(14, 5))
    assert brute_force(lp([1, 0], "min", [([1, 1], ">=", 3), ([1, 1], "<=", 2)])) \
        == ("infeasible", None)


def test_solve_lp_matches_vertex_enumeration():
    rng = random.Random(1)
    statuses = set()
    for _ in range(400):
        prog = random_bounded_lp(rng)
        r = solve_lp(prog)
        assert (r.status, r.value) == brute_force(prog), prog
        statuses.add(r.status)
    assert statuses == {"optimal", "infeasible"}


def _rescaled(prog, rng):
    """``prog`` with each row and the objective divided by its own 1-4, so
    the integer rows and objective have scales above 1."""
    rows = []
    for coeffs, rel, rhs in prog.rows:
        k = rng.randint(1, 4)
        rows.append((tuple(v / k for v in coeffs), rel, rhs / k))
    k = rng.randint(1, 4)
    return LinearProgram(objective=tuple(c / k for c in prog.objective),
                         sense=prog.sense, rows=tuple(rows))


def _row_scale(row, coeffs, rhs):
    """The s > 0 with ``row`` = s * (coeffs, rhs); 1 for an all-0 row. Fails
    unless the integer row is a positive multiple of the program's row."""
    pairs = [(v, F(u)) for v, u in zip(row, (*coeffs, rhs))]
    s = next((F(v) / u for v, u in pairs if u), F(1))
    assert s > 0 and all(v == s * u for v, u in pairs), (row, coeffs, rhs)
    return s


def _fraction_certificate(prog, rows, x, d, w):
    """Does x / d with the dual y_r = w_r s_r / (d s_c) pass the primal, dual
    and value checks, in Fractions on ``prog`` as given? s_r is the scale of
    the integer row ``rows[r]`` that ``_certify`` reads, a positive multiple
    of row r of ``prog``, and s_c the lcm of the objective's denominators."""
    s_c = lcm(*(c.denominator for c in prog.objective))
    xs = [F(v, d) for v in x]
    ys = [F(w_r) * _row_scale(row, coeffs, rhs) / (d * s_c)
          for w_r, row, (coeffs, _, rhs) in zip(w, rows, prog.rows)]
    c = [v if prog.sense == "max" else -v for v in prog.objective]
    return (all(v >= 0 for v in xs)
            and all(_meets(sum(map(F.__mul__, coeffs, xs)), rel, rhs)
                    for coeffs, rel, rhs in prog.rows)
            and all(y >= 0 if rel == "<=" else y <= 0 if rel == ">=" else True
                    for y, (_, rel, _) in zip(ys, prog.rows))
            and all(sum(y * coeffs[j] for y, (coeffs, _, _) in zip(ys, prog.rows))
                    >= c[j] for j in range(len(c)))
            and sum(y * rhs for y, (_, _, rhs) in zip(ys, prog.rows))
            == sum(map(F.__mul__, c, xs)))


def test_certificate_matches_a_fraction_check(monkeypatch):
    """For every optimum, the integers ``solve_lp`` certifies and each
    single-entry tampering (x_j +- 1, w_r +- 1, -w_r) are rejected by
    ``_certify`` exactly when the Fraction check rejects them."""
    real_certify, calls = solvers._certify, []

    def spy(*args):
        calls.append(args)
        return real_certify(*args)

    monkeypatch.setattr(solvers, "_certify", spy)
    rng = random.Random(14)
    optima = verdicts = 0
    for _ in range(250):
        prog = _rescaled(random_bounded_lp(rng), rng)
        calls.clear()
        if solve_lp(prog).status != "optimal":
            continue
        optima += 1
        (_, rows, objective, x, d, w), = calls
        assert _fraction_certificate(prog, rows, x, d, w)
        tampered = [([*x[:j], x[j] + e, *x[j + 1:]], w)
                    for j in range(len(x)) for e in (1, -1)]
        tampered += [(x, [*w[:r], v, *w[r + 1:]])
                     for r in range(len(w)) for v in (w[r] + 1, w[r] - 1, -w[r])]
        for bad_x, bad_w in tampered:
            try:
                real_certify(prog, rows, objective, bad_x, d, bad_w)
                accepted = True
            except RuntimeError:
                accepted = False
            assert accepted == _fraction_certificate(prog, rows, bad_x, d, bad_w), \
                (prog, bad_x, d, bad_w)
            verdicts += not accepted
    assert optima > 100 and verdicts > 1000


@pytest.fixture
def trace(monkeypatch):
    """Log of ("pivot", entry, denominator, column) and ("iterate",) events."""
    log = []
    real_pivot, real_iterate = solvers._pivot, solvers._iterate

    def pivot(tab, basis, d, r, c):
        log.append(("pivot", tab[r][c], d, c))
        return real_pivot(tab, basis, d, r, c)

    def iterate(*args):
        log.append(("iterate",))
        return real_iterate(*args)

    monkeypatch.setattr(solvers, "_pivot", pivot)
    monkeypatch.setattr(solvers, "_iterate", iterate)
    return log


def crash_pivots(log):
    """The pivots before the first simplex iteration."""
    first = next(k for k, event in enumerate(log) if event[0] == "iterate")
    return [event[1:] for event in log[:first]]


@pytest.mark.parametrize("rows, objective, sense, expected", [
    # the crash takes x1 in the third row on the entry 3; the first two rows
    # keep their artificials, and phase 1 runs
    ([([2, 0], ">=", 6), ([1, -1], "=", 5), ([3, -3], ">=", 5), ([1, 1], "<=", 8)],
     [-2, 0], "min", ("optimal", F(-13))),
    # the first row, negated, crashes on the entry 3; phase 1 then finds the
    # second row unreachable. Built over -1 instead of -d, phase 1's objective
    # row fails the certificate here
    ([([-3, 0, -2, -2], "=", -1), ([-1, 1, -1, 2], "=", 3), ([1, 1, 1, 1], "<=", 2)],
     [0, 0, 3, 0], "max", ("infeasible", None)),
])
def test_crash_on_a_non_unit_entry_then_phase_one(trace, rows, objective, sense,
                                                  expected):
    prog = lp(objective, sense, rows)
    r = solve_lp(prog)
    assert (r.status, r.value) == expected == brute_force(prog)
    assert [(entry, d) for entry, d, _ in crash_pivots(trace)] == [(3, 1)]
    phases = trace.count(("iterate",))
    assert phases == (2 if r.status == "optimal" else 1)  # phase 1 ran


KINDS = ("additive", "coverage", "xos", "supermodular", "table")
SIZES = ([2, 2], [1, 1, 1, 1], [2, 2, 1])
LPS = {
    "best_cce": ("cce", best_cce),
    "worst_cce": ("cce", worst_cce),
    "best_ce": ("ce", best_ce),
    "sample_cce": ("cce", lambda inst, a: sample_cce(inst, a, random.Random(5))),
    "sample_ce": ("ce", lambda inst, a: sample_ce(inst, a, random.Random(6))),
    "sample_dropout_stable": ("dropout", lambda inst, a: sample_dropout_stable(
        inst, a, random.Random(7))),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sizes", SIZES, ids=str)
def test_equilibrium_lps_skip_phase_one(trace, monkeypatch, kind, sizes):
    calls = []
    real_solve = solvers.solve_lp

    def solve(prog, region=None):
        start = len(trace)
        result = real_solve(prog, region)
        # the profiles a homogeneous ">=" row with entries <= 0 forces to 0
        # leave the tableau; column k of the tableau is profile kept[k]
        forced = {S for coeffs, rel, rhs in prog.rows
                  if rel == ">=" and rhs == 0 and max(coeffs) <= 0 and min(coeffs) < 0
                  for S, v in enumerate(coeffs) if v}
        kept = [S for S in range(len(prog.objective)) if S not in forced]
        calls.append((trace[start:], kept))
        return result

    monkeypatch.setattr(solvers, "solve_lp", solve)
    inst = random_instance(kind, 1400 + len(sizes), len(sizes), sizes)
    rng = random.Random(sum(sizes))
    for name, (concept, solver) in LPS.items():
        a = random_contract(inst.n, rng)
        calls.clear()
        solver(inst, a)
        ((log, kept),) = calls
        assert log.count(("iterate",)) == 1, name  # phase 2 only
        (crash,) = crash_pivots(log)
        S = kept[crash[2]]
        if concept == "dropout":
            # every agent already plays the empty slice at profile 0
            assert S == 0
            assert is_dropout_stable(inst, JointDistribution(((0, F(1)),)), a)
        else:
            assert is_pne(inst, S, a), name


def test_roadmap_case_pivot_counts(trace):
    # coverage 6 x 2, seed 7, every share 1/12: without the crash start
    # these LPs took 32 and 53 Bland pivots
    inst = random_instance("coverage", 7, 6, 2)
    a = Contract((F(1, 12),) * 6)
    for solver, value in ((best_cce, 13), (best_ce, 13)):
        trace.clear()
        _, utility = solver(inst, a)
        assert utility == value
        assert sum(event[0] == "pivot" for event in trace) == 1


# recorded before the crash start was added; the samplers' LPs must keep
# their vertices
PINNED = [
    ("coverage", 1300, [2, 2], [
        "((2, Fraction(1, 25)), (5, Fraction(7, 425)), (8, Fraction(1, 20)), "
        "(9, Fraction(241, 850)), (10, Fraction(61, 100)))",
        "((2, Fraction(13, 493)), (9, Fraction(168, 493)), (10, Fraction(312, 493)))",
        "((8, Fraction(7, 20)), (10, Fraction(13, 20)))"]),
    ("table", 1300, [2, 2, 1], [
        "((5, Fraction(31, 46)), (8, Fraction(4, 23)), (15, Fraction(7, 46)))",
        "((15, Fraction(3, 5)), (28, Fraction(2, 5)))",
        "((5, Fraction(24, 35)), (10, Fraction(11, 35)))"]),
    ("table", 1328, [2, 2, 1], [
        "((6, Fraction(1, 5)), (9, Fraction(1, 5)), (15, Fraction(3, 5)))",
        "((6, Fraction(29, 35)), (7, Fraction(1, 35)), (15, Fraction(1, 7)))",
        "((2, Fraction(1, 5)), (7, Fraction(4, 5)))"]),
    ("coverage", 1347, [2, 2], [
        "((3, Fraction(1, 13)), (6, Fraction(12, 13)))",
        "((2, Fraction(1, 35)), (3, Fraction(4, 35)), (6, Fraction(6, 35)), "
        "(7, Fraction(24, 35)))",
        "((6, Fraction(3, 4)), (9, Fraction(1, 4)))"]),
    ("table", 1367, [2, 2, 1], [
        "((1, Fraction(52, 109)), (7, Fraction(37, 218)), (8, Fraction(28, 109)), "
        "(23, Fraction(21, 218)))",
        "((1, Fraction(135, 211)), (7, Fraction(17, 422)), (17, Fraction(54, 211)), "
        "(21, Fraction(9, 211)), (23, Fraction(9, 422)))",
        "((1, Fraction(36, 47)), (8, Fraction(8, 47)), (23, Fraction(3, 47)))"]),
    ("xos", 1302, [1, 1, 1, 1], ["((5, Fraction(1, 1)),)", "((5, Fraction(1, 1)),)",
                                 "((0, Fraction(1, 1)),)"]),
    ("supermodular", 1304, [2, 2], ["((15, Fraction(1, 1)),)", "((15, Fraction(1, 1)),)",
                                    "((4, Fraction(1, 1)),)"]),
    ("additive", 1305, [2, 1], ["((6, Fraction(1, 1)),)", "((6, Fraction(1, 1)),)",
                                "((4, Fraction(1, 1)),)"]),
]


@pytest.mark.parametrize("kind, seed, sizes, supports", PINNED,
                         ids=[f"{k}-{s}" for k, s, _, _ in PINNED])
def test_sampler_outputs_pinned(kind, seed, sizes, supports):
    inst = random_instance(kind, seed, len(sizes), sizes)
    a = random_contract(inst.n, random.Random(seed))
    for sampler, support in zip((sample_cce, sample_ce, sample_dropout_stable),
                                supports):
        D = sampler(inst, a, random.Random(seed + 7))
        assert repr(D) == f"JointDistribution(support={support})"


@pytest.mark.parametrize("where", ["objective", "coefficient", "rhs"])
def test_float_in_a_linear_program_is_a_type_error(where):
    half = F(1, 2)
    objective = (0.5 if where == "objective" else half, half)
    coeffs = (0.5 if where == "coefficient" else half, half)
    rhs = 1.0 if where == "rhs" else F(1)
    prog = LinearProgram(objective=objective, sense="max",
                         rows=((coeffs, "<=", rhs),))
    with pytest.raises(TypeError, match="inexact float"):
        solve_lp(prog)
