import random
from fractions import Fraction as F

import pytest

from contractlab import solvers
from contractlab.core import Contract, ZERO, make_instance
from contractlab.equilibria import is_cce, is_ce, is_pne
from contractlab.solvers import (
    LinearProgram,
    _certify,
    best_cce,
    best_ce,
    best_pne_binary,
    enumerate_pne,
    grid_search,
    solve_lp,
    worst_cce,
)
from contractlab.rewards import TableReward
from contractlab.fixtures import (
    golden_ratio_instance,
    random_contract,
    random_instance,
    sample_cce,
    sample_ce,
    separation_example,
    subadditive_gap_instance,
    supermodular_cce_gap_instance,
)


def lp(objective, sense, rows):
    return LinearProgram(objective=tuple(F(c) for c in objective), sense=sense,
                         rows=tuple((tuple(F(c) for c in coeffs), rel, F(rhs))
                                    for coeffs, rel, rhs in rows))


def test_solve_lp_basic():
    r = solve_lp(lp([1], "max", [([1], "<=", 3)]))
    assert r.status == "optimal" and r.value == 3 and r.x == (F(3),)

    r = solve_lp(lp([1, 1], "max", [([1, 1], "<=", 1)]))
    assert r.status == "optimal" and r.value == 1

    r = solve_lp(lp([1], "max", []))
    assert r.status == "unbounded"

    r = solve_lp(lp([1], "min", [([1], ">=", 2)]))
    assert r.status == "optimal" and r.value == 2

    r = solve_lp(lp([1], "max", [([1], ">=", 2), ([1], "<=", 1)]))
    assert r.status == "infeasible"


def test_solve_lp_equalities_and_degeneracy():
    r = solve_lp(lp([2, 3], "max", [([1, 1], "=", 4), ([1, 0], "<=", 2),
                                    ([0, 1], "<=", 3)]))
    assert r.status == "optimal" and r.value == 11 and r.x == (F(1), F(3))
    # redundant equality row must not break phase one
    r = solve_lp(lp([1, 1], "max", [([1, 1], "=", 2), ([2, 2], "=", 4),
                                    ([1, 0], "<=", 1)]))
    assert r.status == "optimal" and r.value == 2


def test_solve_lp_solution_feasible():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = [F(rng.randint(-3, 3)) for _ in range(n)]
            rel = rng.choice(["<=", "=", ">="])
            rows.append((coeffs, rel, F(rng.randint(0, 6))))
        rows.append(([F(1)] * n, "<=", F(10)))  # keep it bounded
        prog = lp([rng.randint(-3, 3) for _ in range(n)], "max", rows)
        r = solve_lp(prog)
        if r.status != "optimal":
            continue
        assert sum(c * x for c, x in zip(prog.objective, r.x)) == r.value
        for coeffs, rel, rhs in prog.rows:
            lhs = sum(c * x for c, x in zip(coeffs, r.x))
            assert (lhs <= rhs if rel == "<=" else
                    lhs >= rhs if rel == ">=" else lhs == rhs)


def test_best_cce_separation():
    inst = separation_example()
    D, utility = best_cce(inst, Contract.of(["1/36", "1/36"]))
    assert is_cce(inst, D, Contract.of(["1/36", "1/36"]))
    assert utility >= F(918, 5)  # at least the mixed equilibrium


def test_worst_cce_separation():
    inst = separation_example()
    a = Contract.of(["7/120", F(0)])
    D, utility = worst_cce(inst, a)
    assert utility == F(339, 2)
    assert is_cce(inst, D, a)
    assert D.expected_reward(inst) == 180


def test_best_cce_supermodular_gap():
    inst = supermodular_cce_gap_instance()
    a = Contract.of(["0.925", "1/18"])
    _, cce_utility = best_cce(inst, a)
    assert cce_utility >= F(7, 45)
    _, ce_utility = best_ce(inst, a)
    assert ce_utility <= cce_utility
    # share total 1 leaves the principal nothing
    _, zero = best_cce(inst, Contract.of(["1/2", "1/2"]))
    assert zero == 0


def test_best_ce_verifies():
    rng = random.Random(22)
    for trial in range(8):
        inst = random_instance("table", 900 + trial, 2, 2)
        a = random_contract(inst.n, rng)
        D, _ = best_ce(inst, a)
        assert is_ce(inst, D, a)


def test_enumerate_pne():
    inst = separation_example()
    pnes = enumerate_pne(inst, Contract.of(["1/20", "1/20"]))
    assert (0b11, F(180)) in pnes
    assert pnes[0][1] == 180
    only = enumerate_pne(inst, Contract.zero(2))
    assert only == [(0, ZERO)]


def test_best_pne_binary():
    inst = separation_example()
    S, a, utility = best_pne_binary(inst)
    assert (S, utility) == (0b11, F(180))
    assert a.alpha == (F(1, 20), F(1, 20))
    assert is_pne(inst, S, a)
    # the inducing contract keeps S among its equilibria
    assert any(p == S for p, _ in enumerate_pne(inst, a))

    _, _, g = best_pne_binary(golden_ratio_instance(20))
    assert abs(g) <= F(1, 10 ** 18)

    _, _, g1 = best_pne_binary(subadditive_gap_instance(1))
    assert g1 <= F(13, 2)

    with pytest.raises(ValueError):
        best_pne_binary(supermodular_cce_gap_instance())


def test_grid_search_separation():
    inst = separation_example()
    report = grid_search(inst, 20, "best_pne")
    assert report.best_value == 180
    assert report.best_contract.alpha == (F(1, 20), F(1, 20))
    tiny = grid_search(inst, 1, "best_pne")
    assert tiny.best_value == 0


def test_grid_search_explicit_cells():
    inst = supermodular_cce_gap_instance()
    cells = [Contract.of(["0.925", "1/18"])]
    report = grid_search(inst, 2, "best_cce", explicit_cells=cells)
    assert report.best_value >= F(7, 45)
    pne = grid_search(inst, 2, "best_pne", explicit_cells=cells)
    assert pne.best_value <= 0 or pne.best_value < report.best_value


def test_chain_of_benchmarks():
    rng = random.Random(23)
    for trial in range(6):
        inst = random_instance("coverage", 950 + trial, 2, 2)
        a = random_contract(inst.n, rng)
        _, v_cce = best_cce(inst, a)
        _, v_ce = best_ce(inst, a)
        pnes = enumerate_pne(inst, a)
        v_pne = pnes[0][1] if pnes else None
        assert v_cce >= v_ce
        if v_pne is not None:
            assert v_ce >= v_pne


def test_solve_lp_homogeneous_rows_only():
    # x1 >= x2 >= x3 with sum 1: the optimum spreads evenly
    r = solve_lp(lp([1, 2, 4], "max", [([1, -1, 0], ">=", 0), ([0, 1, -1], ">=", 0),
                                       ([1, 1, 1], "=", 1)]))
    assert r.status == "optimal" and r.value == F(7, 3)
    assert r.x == (F(1, 3), F(1, 3), F(1, 3))
    r = solve_lp(lp([-1, 0], "max", [([1, -1], ">=", 0)]))
    assert r.status == "optimal" and r.value == 0 and r.x == (0, 0)
    r = solve_lp(lp([1, 1], "min", [([F(1, 2), F(-1, 3)], ">=", 0),
                                    ([F(-1, 4), 1], ">=", 0)]))
    assert r.status == "optimal" and r.value == 0
    r = solve_lp(lp([1, 0], "max", [([1, -1], ">=", 0)]))
    assert r.status == "unbounded"


def test_solve_lp_redundant_equalities_negative_pivot(monkeypatch):
    # row 3 is row 1 plus row 2: one artificial stays basic at zero after
    # phase one and leaves on a negative entry, and one row is dropped
    pivots = []
    real_pivot = solvers._pivot

    def spy(tab, basis, d, r, c):
        pivots.append((tab[r][c], len(basis)))
        return real_pivot(tab, basis, d, r, c)

    monkeypatch.setattr(solvers, "_pivot", spy)
    r = solve_lp(lp([-1, 2, 1], "max", [([1, 0, 0], "=", 0), ([1, -1, 0], "=", 0),
                                        ([2, -1, 0], "=", 0), ([1, 1, 1], "<=", 3)]))
    assert r.status == "optimal" and r.value == 3 and r.x == (0, 0, 3)
    assert any(p < 0 for p, _ in pivots)
    assert pivots[-1][1] == 3


def test_solve_lp_infeasible_and_unbounded():
    assert solve_lp(lp([1, 1], "max", [([1, 1], "=", 1), ([1, 1], "=", 2)])).status \
        == "infeasible"
    # x1 >= x2 and x2 >= x1 + 1
    assert solve_lp(lp([1, 1], "max", [([1, -1], ">=", 0), ([-1, 1], ">=", 1)])).status \
        == "infeasible"
    assert solve_lp(lp([1, 1], "min", [([1, 1], "<=", -1)])).status == "infeasible"
    assert solve_lp(lp([1, -1], "max", [([1, -1], "<=", 1), ([0, 1], ">=", 1)])).status \
        == "optimal"
    assert solve_lp(lp([1, 0], "max", [([1, -1], "<=", 1), ([0, 1], ">=", 1)])).status \
        == "unbounded"
    assert solve_lp(lp([-1, -1], "min", [([1, 1], "=", 1), ([1, -2], "<=", 0)])).value \
        == -1
    assert solve_lp(lp([0, -1], "min", [([1, -1], "=", 0)])).status == "unbounded"


def test_certificate_rejects_tampered_results(monkeypatch):
    prog = lp([1, 1], "max", [([1, 2], "<=", 4), ([3, 1], "<=", 6)])
    x, y = (F(8, 5), F(6, 5)), (F(2, 5), F(1, 5))
    assert _certify(prog, x, y) == F(14, 5)
    for bad_x, bad_y in [((F(2), F(1)), y),            # violates row 2
                         ((F(-1), F(2)), y),           # negative entry
                         (x, (F(2, 5), F(-1, 5))),     # dual sign
                         (x, (F(1, 5), F(1, 5))),      # A^T y < c
                         ((ZERO, ZERO), y),            # values differ
                         (x, (F(1), ZERO))]:
        with pytest.raises(RuntimeError):
            _certify(prog, bad_x, bad_y)
    # the ">=" form of the same program needs nonpositive duals
    flipped = lp([1, 1], "max", [([-1, -2], ">=", -4), ([-3, -1], ">=", -6)])
    assert _certify(flipped, x, (F(-2, 5), F(-1, 5))) == F(14, 5)
    with pytest.raises(RuntimeError):
        _certify(flipped, x, y)

    real_pivot = solvers._pivot

    def off_by_one(tab, basis, d, r, c):
        d = real_pivot(tab, basis, d, r, c)
        tab[r][-1] += 1
        return d

    monkeypatch.setattr(solvers, "_pivot", off_by_one)
    with pytest.raises(RuntimeError):
        solve_lp(prog)


def test_lp_benchmarks_ordered_on_random_instances():
    rng = random.Random(24)
    for trial, kind in enumerate(["additive", "coverage", "xos", "supermodular",
                                  "table"] * 2):
        inst = random_instance(kind, 970 + trial, 2, [2, 1])
        a = random_contract(inst.n, rng)
        _, lo = worst_cce(inst, a)
        _, mid = best_ce(inst, a)
        _, hi = best_cce(inst, a)
        for _, v in enumerate_pne(inst, a):
            assert lo <= v <= mid
        assert lo <= mid <= hi
        for sampler, top in ((sample_cce, hi), (sample_ce, mid)):
            D = sampler(inst, a, random.Random(trial))
            value = (1 - a.total()) * D.expected_reward(inst)
            assert lo <= value <= top


def test_best_pne_binary_non_monotone():
    # agent 0 joining agent 1 lowers f: {0, 1} cannot be induced
    inst = make_instance([[1], [1]], TableReward([0, 10, 10, 9]))
    S, a, utility = best_pne_binary(inst)
    assert (S, a.alpha, utility) == (1, (F(1, 10), ZERO), 9)
    assert is_pne(inst, S, a)
    # a free action needs no share, whatever its marginal
    free = make_instance([[0], [1]], TableReward([0, 10, 10, 9]))
    S, a, utility = best_pne_binary(free)
    assert (S, a.alpha, utility) == (1, (ZERO, ZERO), 10)
    assert is_pne(free, S, a)
