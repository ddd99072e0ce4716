import math
import random
from fractions import Fraction as F

import pytest

from contractlab.core import CapacityError
from contractlab.equilibria import is_mne
from contractlab.rewards import classify
from contractlab.fixtures import (
    claim_c3_expected_utility,
    claim_c3_mne,
    golden_ratio_approx,
    golden_ratio_instance,
    golden_ratio_mne,
    random_contract,
    random_instance,
    separation_example,
    separation_mne,
    subadditive_gap_actions,
    subadditive_gap_instance,
    supermodular_cce_gap_instance,
    supermodular_gap_cce,
)


def test_separation_values():
    inst = separation_example()
    assert inst.n == 2 and inst.m == 2
    assert [inst.reward.value(S) for S in range(4)] == [0, 180, 180, 200]
    assert inst.costs == (F(1), F(1))
    a, P = separation_mne()
    assert is_mne(inst, P, a)


def test_subadditive_family_shape():
    inst = subadditive_gap_instance(4)
    assert inst.n == 10 and inst.m == 10
    assert inst.costs[:2] == (F(0), F(0))
    assert all(c == F(1, 6) for c in inst.costs[2:])
    with pytest.raises(ValueError):
        subadditive_gap_instance(2)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_subadditive_gap_actions_is_the_instances_size(n):
    assert subadditive_gap_actions(n) == subadditive_gap_instance(n).m == 2 * n + 2


def _expected_xy_marginal(n, root, k, i, first_complete):
    # |S n {x,y}| = k before adding, i = |S n [2n]|
    if i == 0:
        return (F(4), F(1))[k]
    if i < 2 * n - 1:
        return (F(2), F(1))[k]
    if i == 2 * n - 1:
        return (F(3), F(0))[k] if first_complete else (F(1), F(2))[k]
    return (F(2), F(1))[k]


def _expected_group_marginal(n, root, k, i, first_minus_j_complete, j_in_first):
    if i == 0:
        return (2 + 1 / root, 1 / root, 1 / root)[k]
    if i < 2 * n - 2:
        return 1 / root
    if i == 2 * n - 2:
        if first_minus_j_complete:
            return (1 / root, 1 + 1 / root, 1 / root)[k]
        return (1 + 1 / root, 1 / root, 1 + 1 / root)[k]
    if j_in_first:
        return (F(1), F(2), F(1))[k]
    return (F(2), F(1), F(2))[k]


def test_subadditive_marginals_cell_by_cell():
    # every single-action marginal matches the piecewise closed form, n = 4
    n = 4
    root = F(2)
    inst = subadditive_gap_instance(n)
    f = inst.reward.value
    xy = 0b11
    first = sum(1 << j for j in range(2, n + 2))
    group = sum(1 << j for j in range(2, 2 * n + 2))
    for S in range(1 << inst.m):
        k = (S & xy).bit_count()
        i = (S & group).bit_count()
        for j in range(inst.m):
            if S >> j & 1:
                continue
            got = f(S | 1 << j) - f(S)
            if j < 2:
                want = _expected_xy_marginal(
                    n, root, k, i, S & first == first)
            else:
                minus_j = first & ~(1 << j)
                want = _expected_group_marginal(
                    n, root, k, i, S & minus_j == minus_j, j < n + 2)
            assert got == want, (S, j, got, want)


def test_subadditive_sandwich_bounds():
    inst = subadditive_gap_instance(4)
    root = F(2)
    group = sum(1 << j for j in range(2, inst.m))
    for S in range(1, 1 << inst.m):
        k = (S & 0b11).bit_count()
        base = 2 * (k >= 1) + (k >= 2) + (S & group).bit_count() / root
        assert 2 + base <= inst.reward.value(S) <= 4 + base


def _gap_value_formula(n, S):
    """f of the subadditive gap family, written out case by case."""
    root = math.isqrt(n)
    first_half = sum(1 << j for j in range(2, n + 2))
    group = sum(1 << j for j in range(2, 2 * n + 2))
    k = (S & 3).bit_count()
    i = (S & group).bit_count()
    if i == 0:
        return F((0, 4, 5)[k])
    if i < 2 * n - 1:
        return F((2, 4, 5)[k] * root + i, root)
    if i == 2 * n:
        base = (4, 6, 7)[k]
    elif S & first_half == first_half:
        base = (2, 5, 5)[k]
    else:
        base = (3, 4, 6)[k]
    return F(base * root + 2 * n - 1, root)


@pytest.mark.parametrize("n", [1, 4, 9, 25, 729])
def test_subadditive_values_match_the_formula(n):
    """The tabulated levels of f agree with the case-by-case formula on
    random profiles and on every profile kind near a full [2n]."""
    rng = random.Random(n)
    m = 2 * n + 2
    group = ((1 << m) - 1) & ~3
    profiles = [rng.getrandbits(m) for _ in range(300)]
    profiles += [rng.getrandbits(2) | (group & ~(1 << j))
                 for j in rng.sample(range(2, m), min(m - 2, 300))]
    profiles += [xy | group for xy in range(4)] + list(range(4))
    # i = 2n - 2 and i just below it
    profiles += [rng.getrandbits(2) | (group & ~(1 << rng.randrange(2, m))
                                       & ~(1 << rng.randrange(2, m))) for _ in range(50)]
    f = subadditive_gap_instance(n).reward.value
    for S in profiles:
        assert f(S) == _gap_value_formula(n, S), S


def test_claim_c3_mne():
    for n in (1, 4):
        inst = subadditive_gap_instance(n)
        a, P = claim_c3_mne(inst, n)
        assert a[2] == F(4, 9 * n)
        assert is_mne(inst, P, a)
        D = P.to_joint(inst)
        assert D.principal_utility(inst, a) == claim_c3_expected_utility(n)
    assert claim_c3_expected_utility(4) == (F(23, 4) + F(7, 2)) / 9


def test_supermodular_gap_fixture():
    inst = supermodular_cce_gap_instance()
    assert inst.owners == (0, 0, 1)
    assert inst.reward.value(0b111) == 10
    assert inst.reward.value(0b011) == F(11, 2)
    a, D = supermodular_gap_cce()
    assert a.alpha == (F(37, 40), F(1, 18))
    assert D.principal_utility(inst, a) == F(7, 45)


def test_golden_ratio_approx():
    phi = golden_ratio_approx(30)
    assert abs(phi * phi - phi - 1) < F(1, 10 ** 29)
    assert phi < F(1618034, 10 ** 6) + F(1, 10 ** 6)
    with pytest.raises(ValueError):
        golden_ratio_approx(10)


def test_golden_ratio_instance_values():
    inst = golden_ratio_instance(20)
    phi = golden_ratio_approx(20)
    f = inst.reward.value
    assert f(0b0011) == 2
    assert f(0b0101) == 1
    assert f(0b1010) == 1
    assert f(0b0111) == phi + 1
    assert f(0b1011) == phi + 1
    assert f(0b1111) == phi + 1  # closure
    assert f(0b0100) == 0
    assert inst.costs == (F(1), F(1), F(0), F(0))
    rep = classify(inst.reward)
    assert rep.monotone and not rep.subadditive and not rep.supermodular


def test_golden_ratio_mne():
    inst = golden_ratio_instance(30)
    a, P = golden_ratio_mne(30)
    phi = golden_ratio_approx(30)
    assert a[0] == F(4) / (5 * phi)
    assert is_mne(inst, P, a, tol=F(1, 10 ** 25))


def test_random_instance_determinism():
    a = random_instance("coverage", 77, 2, 2)
    b = random_instance("coverage", 77, 2, 2)
    assert a.costs == b.costs
    assert all(a.reward.value(S) == b.reward.value(S) for S in range(1 << a.m))
    with pytest.raises(ValueError):
        random_instance("nope", 1, 2, 2)
    with pytest.raises(ValueError):
        random_instance("table", 1, 2, [1])


def test_random_instance_monotone():
    for kind in ("additive", "coverage", "xos", "supermodular", "table"):
        inst = random_instance(kind, 55, 2, 2)
        f = inst.reward.value
        assert f(0) == 0
        for S in range(1 << inst.m):
            for j in range(inst.m):
                assert f(S | 1 << j) >= f(S)


def test_random_contract_budget():
    rng = random.Random(44)
    for _ in range(50):
        a = random_contract(3, rng, denominator=8, budget=F(1, 2))
        assert a.total() <= F(1, 2)
        assert all(v.denominator <= 8 for v in a.alpha)


def test_random_table_instances_respect_enumeration_cap():
    # 2^30 table entries would be built before any other check
    for kind in ("table", "supermodular"):
        with pytest.raises(CapacityError):
            random_instance(kind, 0, 30, 1)


def reference_instance(kind, seed, n, sizes):
    """(costs, f over every profile) of ``random_instance(kind, seed, n,
    sizes)``: the generator's draws in its order, each f value by its
    formula over ``Fraction``s, one profile at a time."""
    rng = random.Random(seed)
    counts = [sizes] * n if isinstance(sizes, int) else list(sizes)
    m = sum(counts)

    def members(S):
        return [j for j in range(m) if S >> j & 1]

    if kind == "additive":
        weights = [F(rng.randint(0, 20)) for _ in range(m)]
        f = [sum((weights[j] for j in members(S)), F(0)) for S in range(1 << m)]
    elif kind == "coverage":
        universe = m + 2
        weights = [F(rng.randint(0, 5)) for _ in range(universe)]
        covers = [rng.randint(1, (1 << universe) - 1) for _ in range(m)]
        f = []
        for S in range(1 << m):
            covered = 0
            for j in members(S):
                covered |= covers[j]
            f.append(sum((weights[e] for e in range(universe) if covered >> e & 1),
                         F(0)))
    elif kind == "xos":
        count = rng.randint(2, 4)
        clauses = [[F(rng.randint(0, 10)) for _ in range(m)] for _ in range(count)]
        f = [max(sum((clause[j] for j in members(S)), F(0)) for clause in clauses)
             for S in range(1 << m)]
    elif kind == "supermodular":
        loads = [F(rng.randint(0, 4)) for _ in range(m)]
        f = [sum((loads[j] for j in members(S)), F(0)) ** 2 for S in range(1 << m)]
    else:
        f = [F(0)] * (1 << m)
        for S in range(1, 1 << m):
            f[S] = max(f[S - (1 << j)] for j in members(S)) + F(rng.randint(0, 5))
    costs = tuple(F(rng.randint(0, 8), 4) for count in counts for _ in range(count))
    return costs, f


PINNED_SIZES = [(1, 2, 2), (2, 3, [2, 1, 1]), (3, 1, 5), (4, 3, [2, 0, 3]),
                (5, 10, 1), (6, 12, 1)]


@pytest.mark.parametrize("kind", ["additive", "coverage", "xos", "supermodular",
                                  "table"])
def test_random_instance_matches_the_fraction_reference(kind):
    # pins every draw and value: a change of draw order, count or formula fails
    for seed, n, sizes in PINNED_SIZES:
        for seed in (seed, 100 + seed, 7919 * seed):
            inst = random_instance(kind, seed, n, sizes)
            costs, f = reference_instance(kind, seed, n, sizes)
            assert inst.costs == costs
            assert all(type(c) is F for c in inst.costs)
            value = inst.reward.value
            assert [value(S) for S in range(1 << inst.m)] == f
            assert all(type(value(S)) is F for S in range(1 << inst.m))


@pytest.mark.parametrize("kind", ["additive", "table", "supermodular"])
@pytest.mark.parametrize("sizes, agent", [
    (-1, 0), ([-3, 1], 0), ([2, -1], 1), (True, 0), (2.0, 0), ([1, False], 1),
    ([1, 2.0], 1), ([F(1), 1], 0), (["2", 1], 0)])
def test_random_instance_refuses_bad_action_counts(kind, sizes, agent):
    with pytest.raises(ValueError, match=f"^agent {agent}: action count"):
        random_instance(kind, 1, 2, sizes)


def test_random_instance_takes_agents_without_actions():
    assert random_instance("table", 1, 2, 0).m == 0
    inst = random_instance("supermodular", 1, 3, [0, 2, 0])
    assert inst.n == 3 and inst.owners == (1, 1)
