"""The integer reward tables (``RewardFunction.table``) against the value
oracle, the PNE searches reading them without an oracle call, and the
integer grid cells against profiles filtered one by one with is_pne."""
import random
from fractions import Fraction as F

import pytest

from contractlab import rewards
from contractlab.core import Contract, ONE, make_instance, mask_of, principal_utility, submasks
from contractlab.equilibria import is_pne
from contractlab.fixtures import (
    golden_ratio_instance,
    random_instance,
    separation_example,
    subadditive_gap_instance,
    supermodular_cce_gap_instance,
)
from contractlab.rewards import (
    AdditiveReward,
    CoverageReward,
    FormulaReward,
    TableReward,
    XosReward,
)
from contractlab.solvers import (
    _pne_table,
    best_cce,
    best_pne,
    best_pne_binary,
    enumerate_pne,
    evaluate_cell,
    grid_search,
)

KINDS = ("additive", "coverage", "xos", "supermodular", "table")
REWARD_CLASSES = (TableReward, AdditiveReward, XosReward, CoverageReward,
                  FormulaReward)


def assert_table_matches_value(f):
    pairs = f.table()
    assert len(pairs) == 1 << f.m
    for S, (n, d) in enumerate(pairs):
        assert isinstance(n, int) and isinstance(d, int) and d > 0
        assert F(n, d) == f.value(S), (S, n, d)


def big(rng):
    """A weight with a 9-digit denominator."""
    return F(rng.randint(0, 10 ** 9), rng.randint(10 ** 8, 10 ** 9 - 1))


def rewards_of_width(rng, m):
    yield AdditiveReward([rng.randint(0, 9) for _ in range(m)])
    yield AdditiveReward([big(rng) for _ in range(m)])
    yield AdditiveReward([0] * m)
    u = rng.randint(0, m + 2)
    # empty covers, zero weights and 9-digit denominators
    weights = [rng.choice([0, 1, 3, big(rng)]) for _ in range(u)]
    covers = [rng.choice([0, rng.randrange(1 << u)]) for _ in range(m)]
    yield CoverageReward(weights, covers)
    yield CoverageReward([F(1, 3)] * u, [(1 << u) - 1] * m)
    # small integer weights tie across clauses
    yield XosReward([[rng.randint(0, 2) for _ in range(m)] for _ in range(3)])
    yield XosReward([[big(rng) for _ in range(m)] for _ in range(2)])
    yield XosReward([[F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(m)]])
    yield TableReward([big(rng) - 1 for _ in range(1 << m)])
    yield FormulaReward(m, lambda S: F(S.bit_count(), 1 + S % 3))


@pytest.mark.parametrize("m", range(11))
def test_table_equals_value_on_every_profile(m):
    rng = random.Random(1000 + m)
    for f in rewards_of_width(rng, m):
        assert_table_matches_value(f)


def test_table_on_fixture_and_generated_rewards():
    fixtures = [separation_example(), supermodular_cce_gap_instance(),
                golden_ratio_instance(20), subadditive_gap_instance(1),
                subadditive_gap_instance(4)]
    for inst in fixtures:
        assert_table_matches_value(inst.reward)
    rng = random.Random(1011)
    for kind in KINDS:
        for m in range(1, 9):
            sizes = [s for s in (m - m // 2, m // 2) if s]
            inst = random_instance(kind, rng.randrange(1 << 30), len(sizes), sizes)
            assert_table_matches_value(inst.reward)


@pytest.mark.parametrize("m", range(8))
def test_subcube_table_equals_value(m):
    """table(mask, base) is f(base | T) for T in submasks(mask), in that order,
    for every reward class, and table() is the subcube of all m actions."""
    rng = random.Random(2000 + m)
    for f in rewards_of_width(rng, m):
        assert f.table((1 << m) - 1, 0) == f.table()
        for _ in range(6):
            mask = rng.randrange(1 << m)
            base = rng.randrange(1 << m) & ~mask
            pairs = f.table(mask, base)
            profiles = [base | T for T in submasks(mask)]
            assert len(pairs) == len(profiles)
            for S, (n, d) in zip(profiles, pairs):
                assert isinstance(n, int) and isinstance(d, int) and d > 0
                assert F(n, d) == f.value(S), (type(f).__name__, mask, base, S)


def test_subcube_table_of_a_wide_formula_reads_only_the_subcube():
    inst = subadditive_gap_instance(729)  # 1460 actions
    mask, base = mask_of([3, 700, 1459]), mask_of(range(4, 20))
    assert inst.reward.table(mask, base) == [
        (v.numerator, v.denominator)
        for v in (inst.reward.value(base | T) for T in submasks(mask))]


@pytest.mark.parametrize("mask, base", [(0b11, 0b10), (0b100, 0), (0, 0b100), (-1, 0)])
def test_subcube_table_rejects_overlaps_and_outside_bits(mask, base):
    for f in (AdditiveReward([1, 2]), TableReward([0, 1, 2, 3]),
              XosReward([[1, 2]]), CoverageReward([1], [1, 1]),
              FormulaReward(2, lambda S: F(S))):
        with pytest.raises(ValueError):
            f.table(mask, base)


def test_xos_table_takes_the_max_over_tied_clauses():
    f = XosReward([[2, 0, 1], [0, 2, 1], [1, 1, 1]])
    assert [F(n, d) for n, d in f.table()] == [0, 2, 2, 2, 1, 3, 3, 3]


def test_value_rejects_profiles_outside_the_actions():
    wide = subadditive_gap_instance(729).reward  # 1460 actions
    for f in (wide, AdditiveReward([1, 2]), TableReward([0, 1])):
        for S in (-1, 1 << f.m, (1 << f.m) | 1):
            with pytest.raises(ValueError, match=(
                    f"profile {S:#x} has bits outside the {f.m} actions")):
                f.value(S)


# ---------------------------------------------------------------------------
# the PNE searches read the table, not the oracle

def _refuse(self, S):
    raise AssertionError("the value oracle was called")


@pytest.mark.parametrize("kind", KINDS)
def test_pne_searches_make_no_value_call(monkeypatch, kind):
    inst = random_instance(kind, 7, 3, [2, 1, 1])
    a = Contract((F(1, 4), F(1, 3), F(1, 2)))
    for cls in REWARD_CLASSES:
        monkeypatch.setattr(cls, "value", _refuse)
    _pne_table(inst)
    best_pne(inst)
    enumerate_pne(inst, a)
    evaluate_cell(inst, a, "best_pne")
    grid_search(inst, 3, "best_pne", explicit_cells=[a])
    best_cce(inst, a)


def test_binary_search_makes_no_value_call(monkeypatch):
    inst = random_instance("coverage", 8, 5, 1)
    monkeypatch.setattr(CoverageReward, "value", _refuse)
    best_pne_binary(inst)


# ---------------------------------------------------------------------------
# integer grid cells against is_pne

def reference_best(inst, a):
    """The best PNE of ``a`` by is_pne: (utility, profile), smallest first
    on a tie."""
    best = None
    for S in range(1 << inst.m):
        if is_pne(inst, S, a):
            value = principal_utility(inst, S, a)
            if best is None or value > best[0]:
                best = (value, S)
    return best


def signed_instances():
    """Instances whose f has 9-digit denominators, is negative somewhere or
    both, besides the generated kinds."""
    rng = random.Random(1012)
    for sizes in ([1, 1], [2, 1], [1, 1, 1], [1, 2]):
        m = sum(sizes)
        costs = [[F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(k)]
                 for k in sizes]
        yield make_instance(costs, TableReward([big(rng) for _ in range(1 << m)]))
        yield make_instance(costs, TableReward(
            [F(rng.randint(-6, 9), rng.randint(1, 3)) for _ in range(1 << m)]))
        yield make_instance(costs, XosReward([[big(rng) for _ in range(m)]] * 2))
    for kind in KINDS:
        for sizes in ([2, 1], [1, 1, 1]):
            yield random_instance(kind, rng.randrange(1 << 30), len(sizes), sizes)


@pytest.mark.parametrize("inst", list(signed_instances()))
def test_grid_cells_match_is_pne(inst):
    n = inst.n
    # the principal's share is positive, zero and negative among these
    explicit = [Contract((ONE,) * n), Contract((F(2, 3),) * n),
                Contract((F(1, n),) * n), Contract((F(1, 7),) + (F(0),) * (n - 1)),
                Contract((F(123456789, 987654321),) * n)]
    assert sum(explicit[0].alpha) > 1 and sum(explicit[1].alpha) > 1
    report = grid_search(inst, 3, "best_pne", explicit_cells=explicit)
    best = None
    for a, value in report.cells:
        ref = reference_best(inst, a)
        assert value == ref[0]
        assert evaluate_cell(inst, a, "best_pne") == ref
        found = enumerate_pne(inst, a)
        assert found[0] == (ref[1], ref[0])
        assert sorted(S for S, _ in found) == [
            S for S in range(1 << inst.m) if is_pne(inst, S, a)]
        assert all(v == principal_utility(inst, S, a) for S, v in found)
        if best is None or value > best[1]:
            best = (a, value, ref[1])
    assert (report.best_contract, report.best_value, report.witness) == best


def test_the_sign_of_the_principal_share_picks_the_pne():
    # free agents keep a profile that no switch of their own raises f from;
    # the PNEs are 0 (f = 3) and 3 (f = 5) whenever both shares are positive
    inst = make_instance([[0], [0]], TableReward([3, 1, 1, 5]))
    cases = [((F(1, 4), F(1, 4)), (F(5, 2), 3)),  # keeps 1/2: the largest f
             ((ONE, F(1, 2)), (F(-3, 2), 0)),     # keeps -1/2: the smallest f
             ((ONE, F(0)), (F(0), 0))]            # keeps 0: the first PNE
    for shares, expected in cases:
        assert evaluate_cell(inst, Contract(shares), "best_pne") == expected
    assert enumerate_pne(inst, Contract((ONE, F(1, 2)))) == [(0, F(-3, 2)),
                                                            (3, F(-5, 2))]


def test_best_pne_error_text_on_negative_tables():
    inst = make_instance([[1], [1]], TableReward([0, 3, F(-2, 6), 4]))
    for search in (best_pne, best_pne_binary):
        with pytest.raises(ValueError, match=r"f >= 0, but f\(2\) = -1/3$"):
            search(inst)


def test_contract_bounds_in_integers():
    for bad in (F(-1, 2), F(3, 2), F(10 ** 9 + 1, 10 ** 9)):
        with pytest.raises(ValueError, match="outside"):
            Contract((bad,))
    assert Contract((F(0), ONE, F(10 ** 9, 10 ** 9 + 1))).total() > 1


def test_classify_reads_the_table(monkeypatch):
    inst = random_instance("coverage", 9, 3, 2)
    expected = rewards.classify(inst.reward)
    monkeypatch.setattr(CoverageReward, "value", _refuse)
    assert rewards.classify(inst.reward) == expected


@pytest.mark.parametrize("values, explicit, sign", [
    ([3, 1, 1, 5], [], 1),  # f > 0: a positive principal's share wins
    ([-3, -2, -1, -5], [], 0),  # f < 0: a zero share (value 0) wins
    ([-3, -2, -1, -5], [Contract((ONE, ONE))], -1),  # -f > 0 above 1
])
def test_grid_cell_evaluate_cell_and_enumerate_agree(values, explicit, sign):
    # two free agents; the best cell has at least two PNEs (at the zero
    # share, profile 1 comes before profile 2, whose f is larger), and the
    # grid's witness, evaluate_cell and enumerate_pne's first entry agree
    inst = make_instance([[0], [0]], TableReward(values))
    report = grid_search(inst, 2, "best_pne", explicit_cells=explicit)
    a = report.best_contract
    share = 1 - sum(a.alpha)
    assert (share > 0) - (share < 0) == sign
    found = enumerate_pne(inst, a)
    assert len(found) > 1
    S, value = found[0]
    assert (report.witness, report.best_value) == (S, value)
    assert evaluate_cell(inst, a, "best_pne") == (value, S)
