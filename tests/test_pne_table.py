"""The tabulated PNE search (enumerate_pne, grid_search best_pne cells,
evaluate_cell) against profiles filtered one by one with is_pne, the exact
best PNE (best_pne) against the best_pne grid and against a brute-force
sweep, the closed ends of the share intervals, the profile cap of the
table, and the contract-length check shared by the PNE and regret-row entry
points."""
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from contractlab import solvers
from contractlab.core import (
    CapacityError,
    Contract,
    ONE,
    make_instance,
    principal_utility,
    submasks,
)
from contractlab.equilibria import is_pne, regret_rows
from contractlab.fixtures import random_instance
from contractlab.rewards import TableReward
from contractlab.solvers import (
    _pne_bounds,
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


def interval_ends(inst):
    """(S, contract) on the ends of S's share intervals: best_pne's own
    contract, on every lower end, and for each row the lower ends with one
    agent moved to its finite upper end."""
    S, a, _ = best_pne(inst)
    yield S, a
    for T, _, bounds in _pne_bounds(inst):
        lows = [F(0)] * inst.n
        for i, lo, _ in bounds:
            if lo:
                lows[i] = F(*lo)
        for i, _, hi in bounds:
            if hi:
                yield T, Contract(tuple(lows[:i] + [F(*hi)] + lows[i + 1:]))


@every_instance
@PROPERTY
@given(data=st.data(), seed=seeds)
def test_enumerate_pne_matches_is_pne(kind, sizes, data, seed):
    inst = random_instance(kind, seed, len(sizes), sizes)
    a = data.draw(contracts(inst.n))
    assert enumerate_pne(inst, a) == reference_pnes(inst, a)
    # the intervals are closed: a contract on their ends keeps S a PNE
    for S, c in interval_ends(inst):
        assert is_pne(inst, S, c)
        assert S in [T for T, _ in enumerate_pne(inst, c)]


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


def reference_best_pne(inst):
    """The best PNE over all contracts by brute force: at each S, every agent
    gets the largest (c(S_i) - c(T)) / (f(S) - f(S_-i | T)) over positive
    gains (0 if none), and S counts when those shares sum to at most 1 and
    is_pne accepts S under them; the smallest S wins a tie."""
    f = inst.reward.value
    best = None
    for S in range(1 << inst.m):
        shares = []
        for i in range(inst.n):
            mask = inst.agent_mask(i)
            own, rest = S & mask, S & ~mask
            shares.append(max([F(0)] + [
                (inst.cost(own) - inst.cost(T)) / (f(S) - f(rest | T))
                for T in submasks(mask) if f(S) > f(rest | T)]))
        if sum(shares) > 1:
            continue
        a = Contract(tuple(shares))
        if not is_pne(inst, S, a):
            continue
        value = principal_utility(inst, S, a)
        if best is None or value > best[2]:
            best = (S, a, value)
    return best


@every_instance
@PROPERTY
@given(seed=seeds)
def test_best_pne_bounds_every_grid(kind, sizes, seed):
    inst = random_instance(kind, seed, len(sizes), sizes)
    S, a, value = best_pne(inst)
    assert (S, a, value) == reference_best_pne(inst)
    assert is_pne(inst, S, a)
    assert a.total() <= 1
    assert value == principal_utility(inst, S, a)
    for r in (1, 2, 3):
        report = grid_search(inst, r, "best_pne")
        assert all(value >= cell for _, cell in report.cells)
        # a contract on the grid is one of its cells
        if all((share * r).denominator == 1 for share in a.alpha):
            assert value == report.best_value


TABLE_SHAPES = ([1], [2], [1, 1], [2, 1], [1, 2], [2, 2], [1, 1, 1],
                [2, 1, 1], [1, 1, 1, 1], [1] * 5)


@pytest.mark.parametrize("values,empty_zero", [
    (range(4), True),     # ties everywhere
    (range(21), False),   # not monotone
])
@settings(PROPERTY, max_examples=500)
@given(seed=seeds)
def test_best_pne_matches_brute_force_on_tables(values, empty_zero, seed):
    """1-5 agents with 1-2 actions each, a table reward drawn from ``values``
    and costs that are often zero."""
    rng = random.Random(seed)
    sizes = rng.choice(TABLE_SHAPES)
    table = [rng.choice(values) for _ in range(1 << sum(sizes))]
    if empty_zero:
        table[0] = 0
    costs = [[rng.choice([F(0), F(0), F(1, 2), F(1), F(2)]) for _ in range(k)]
             for k in sizes]
    inst = make_instance(costs, TableReward(table))
    assert best_pne(inst) == reference_best_pne(inst)


def test_best_pne_rejects_negative_rewards():
    inst = make_instance([[1], [1]], TableReward([0, 3, -1, 4]))
    for search in (best_pne, best_pne_binary):
        with pytest.raises(ValueError, match=r"f >= 0, but f\(2\) = -1"):
            search(inst)


def test_best_pne_rejects_a_negative_reward_past_the_best_so_far():
    """f(2) = -1 is below the best value found at profiles 0 and 1, so the
    sweep skips profile 2 as a candidate; the f >= 0 check must not."""
    inst = make_instance([[1], [1]], TableReward([0, 5, -1, 6]))
    for search in (best_pne, best_pne_binary):
        with pytest.raises(ValueError, match=r"f >= 0, but f\(2\) = -1"):
            search(inst)


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
            list(regret_rows(inst, a, concept, [0, 1], inst.reward.value_pair))


def test_best_pne_never_asks_an_idle_agent(monkeypatch):
    """An agent with no action in S keeps its empty slice under every share
    (costs are >= 0), so best_pne never asks for its interval. Tables with
    zero-cost actions, ties and multi-action agents; the answers still match
    the brute force."""
    asked = []
    real_table = solvers._pne_table

    def table(inst):
        fracs, slices, interval = real_table(inst)

        def spy(S, mask, subs):
            asked.append(S & mask)
            return interval(S, mask, subs)
        return fracs, slices, spy

    monkeypatch.setattr(solvers, "_pne_table", table)
    rng = random.Random(15)
    total = 0
    for _ in range(300):
        sizes = rng.choice(TABLE_SHAPES[2:])
        table_values = [rng.choice(range(4)) for _ in range(1 << sum(sizes))]
        costs = [[rng.choice([F(0), F(0), F(1, 2), F(1)]) for _ in range(k)]
                 for k in sizes]
        inst = make_instance(costs, TableReward(table_values))
        asked.clear()
        assert best_pne(inst) == reference_best_pne(inst)
        assert all(asked)
        total += len(asked)
    assert total > 1000


def test_best_pne_certifies_its_contract(monkeypatch):
    """best_pne checks its answer with is_pne: a lower interval end that is
    wrong (halved, here, on the best profile only) makes the returned
    contract fail to induce S, and the search raises RuntimeError instead of
    returning it."""
    inst = random_instance("additive", 21, 3, [2, 1, 1])
    best_S, a, _ = best_pne(inst)
    assert any(a.alpha)
    real_table = solvers._pne_table

    def table(inst):
        fracs, slices, interval = real_table(inst)

        def halved(S, mask, subs):
            bound = interval(S, mask, subs)
            if S != best_S or bound is None:
                return bound
            lo_n, lo_d, hi_n, hi_d = bound
            return lo_n, 2 * lo_d, hi_n, hi_d
        return fracs, slices, halved

    monkeypatch.setattr(solvers, "_pne_table", table)
    with pytest.raises(RuntimeError, match=f"best PNE {best_S:#x} failed"):
        best_pne(inst)
