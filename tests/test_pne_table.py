"""The tabulated PNE search (enumerate_pne, grid_search best_pne cells,
evaluate_cell) against profiles filtered one by one with is_pne, the exact
best PNE (best_pne) against the best_pne grid, the profile cap of the table,
and the contract-length check shared by the PNE and regret-row entry
points."""
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from contractlab.core import CapacityError, Contract, ONE, principal_utility
from contractlab.equilibria import is_pne, regret_rows
from contractlab.fixtures import random_instance
from contractlab.solvers import (
    best_pne,
    best_pne_binary,
    enumerate_pne,
    evaluate_cell,
    grid_search,
)

KINDS = ("additive", "coverage", "xos", "supermodular", "table")
SIZES = ([2, 1], [2, 2], [1, 1, 1], [2, 1, 1])

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=10)
every_instance = pytest.mark.parametrize(
    "kind,sizes", [(kind, sizes) for kind in KINDS for sizes in SIZES])
seeds = st.integers(0, 2 ** 30)
shares = st.fractions(min_value=0, max_value=1, max_denominator=24)


def contracts(n):
    return st.one_of(
        st.just(Contract((F(0),) * n)),
        st.just(Contract((ONE,) * n)),
        st.lists(shares, min_size=n, max_size=n).map(lambda v: Contract(tuple(v))))


def reference_pnes(inst, a):
    """Every PNE of ``a`` by is_pne, with its utility, best first."""
    found = [(S, principal_utility(inst, S, a))
             for S in range(1 << inst.m) if is_pne(inst, S, a)]
    return sorted(found, key=lambda e: (-e[1], e[0]))


@every_instance
@PROPERTY
@given(data=st.data(), seed=seeds)
def test_enumerate_pne_matches_is_pne(kind, sizes, data, seed):
    inst = random_instance(kind, seed, len(sizes), sizes)
    a = data.draw(contracts(inst.n))
    assert enumerate_pne(inst, a) == reference_pnes(inst, a)


def grid_cells(n, r):
    """{0, 1/r, ..., 1}^n with sum <= 1, row-major."""
    return [Contract(tuple(F(k, r) for k in ks))
            for ks in product(range(r + 1), repeat=n) if sum(ks) <= r]


@every_instance
@settings(PROPERTY, max_examples=4)
@given(data=st.data(), seed=seeds, r=st.integers(1, 3))
def test_grid_best_pne_matches_is_pne(kind, sizes, data, seed, r):
    inst = random_instance(kind, seed, len(sizes), sizes)
    n = inst.n
    # shares summing to exactly 1 (every PNE is worth 0, so the smallest
    # wins) and to more than 1 (the PNE of lowest f wins)
    explicit = [Contract((F(1, n),) * n), Contract((ONE,) + (F(0),) * (n - 1)),
                Contract((ONE,) * n), data.draw(contracts(n))]
    report = grid_search(inst, r, "best_pne", explicit_cells=explicit)
    assert [a for a, _ in report.cells] == grid_cells(n, r) + explicit
    best = None
    for a, value in report.cells:
        ref_S, ref_value = reference_pnes(inst, a)[0]
        assert value == ref_value
        assert evaluate_cell(inst, a, "best_pne") == (ref_value, ref_S)
        if best is None or ref_value > best[1]:
            best = (a, ref_value, ref_S)
    assert (report.best_contract, report.best_value, report.witness) == best


@every_instance
@PROPERTY
@given(seed=seeds)
def test_best_pne_bounds_every_grid(kind, sizes, seed):
    inst = random_instance(kind, seed, len(sizes), sizes)
    S, a, value = best_pne(inst)
    assert is_pne(inst, S, a)
    assert a.total() <= 1
    assert value == principal_utility(inst, S, a)
    for r in (1, 2, 3):
        report = grid_search(inst, r, "best_pne")
        assert all(value >= cell for _, cell in report.cells)
        # a contract on the grid is one of its cells
        if all((share * r).denominator == 1 for share in a.alpha):
            assert value == report.best_value


def test_pne_table_respects_profile_cap(monkeypatch):
    inst = random_instance("additive", 8, 5, 1)
    a = Contract.zero(5)
    monkeypatch.setenv("CONTRACTLAB_CAP", "24,16")
    searches = [lambda: enumerate_pne(inst, a),
                lambda: evaluate_cell(inst, a, "best_pne"),
                lambda: grid_search(inst, 1, "best_pne"),
                lambda: best_pne(inst),
                lambda: best_pne_binary(inst)]
    for search in searches:
        with pytest.raises(CapacityError, match="PNE table: 32 profiles"):
            search()


@pytest.mark.parametrize("count", [2, 4])
def test_contract_length_must_match_agents(count):
    inst = random_instance("table", 3, 3, 1)
    a = Contract((F(1, 4),) * count)
    ok = Contract((F(1, 4),) * 3)
    with pytest.raises(ValueError, match=f"{count} shares for 3 agents"):
        enumerate_pne(inst, a)
    with pytest.raises(ValueError, match="for 3 agents"):
        evaluate_cell(inst, a, "best_pne")
    for objective in ("best_pne", "best_cce"):
        with pytest.raises(ValueError, match="for 3 agents"):
            grid_search(inst, 2, objective, explicit_cells=[ok, a])
    with pytest.raises(ValueError, match="for 3 agents"):
        is_pne(inst, 0, a)
    for concept in ("ce", "cce", "dropout"):
        with pytest.raises(ValueError, match="for 3 agents"):
            list(regret_rows(inst, a, concept, [0, 1], inst.reward.value))
