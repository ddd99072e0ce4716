"""Acceptance criteria, one test per criterion.

Each test asserts the exact numeric claims (and the stated runtime budget
where one applies), so `pytest -v` yields one pass/fail line per criterion.
"""
import random
import time
from fractions import Fraction as F

from contractlab import claims
from contractlab.core import (
    Contract,
    ONE,
    ZERO,
    agent_utility,
    potential,
    principal_utility,
    submasks,
)
from contractlab.equilibria import (
    JointDistribution,
    ProductDistribution,
    is_cce,
    is_ce,
    is_dropout_stable,
    is_mne,
    is_pne,
)
from contractlab.solvers import (
    best_pne_binary,
    enumerate_pne,
    grid_search,
    worst_cce,
)
from contractlab.transforms import (
    ScalingParams,
    ce_to_pne_supermodular,
    cce_to_pne_supermodular_binary,
    lift_xos,
    robustify_submodular,
)
from contractlab.fixtures import (
    claim_c3_expected_utility,
    claim_c3_mne,
    golden_ratio_instance,
    random_contract,
    random_instance,
    sample_cce,
    sample_ce,
    sample_dropout_stable,
    separation_example,
    subadditive_gap_instance,
    supermodular_cce_gap_instance,
)


def computed(claim):
    """The computed values of a ``reproduce`` claim's records, in order."""
    return [record[2] for record in claims.REPRODUCE[claim]()]


def test_criterion_01_pure_vs_mixed_separation():
    start = time.perf_counter()
    inst = separation_example()
    S, contract, utility = best_pne_binary(inst)
    assert utility == 180
    assert contract.alpha == (F(1, 20), F(1, 20))
    assert is_pne(inst, S, contract)
    verifies, mixed = computed("A1-mne-183.6")
    assert verifies is True
    assert mixed == F(918, 5)
    assert F(mixed, 1) / utility == F(51, 50)  # ratio 1.02 > 1
    assert time.perf_counter() - start < 1.0


def test_criterion_02_supermodular_cce_beats_every_pne():
    start = time.perf_counter()
    assert computed("P54-cce-7/45") == [True, F(7, 45)]
    inst = supermodular_cce_gap_instance()
    explicit = [
        Contract.of(["17/18", "1/18"]),
        Contract.of(["37/40", "1/18"]),
        Contract.of(["1", "0"]),
        Contract.of(["0", "1"]),
        Contract.of(["3/4", "1/4"]),
        Contract.zero(2),
    ]
    for contract in explicit:
        for S, value in enumerate_pne(inst, contract):
            assert value <= 0, (contract, S, value)
    report = grid_search(inst, 40, "best_pne", explicit_cells=explicit)
    assert report.best_value <= 0
    assert time.perf_counter() - start < 10.0


def _g_value(inst, S):
    """Closed-form inducing utility; None when S is redundant."""
    f = inst.reward.value
    fS = f(S)
    total = ZERO
    for i in range(inst.n):
        if not S >> i & 1:
            continue
        marginal = fS - f(S & ~(1 << i))
        if marginal == 0:
            if inst.costs[i] > 0:
                return None
            continue
        total += inst.costs[i] / marginal
    return fS * (ONE - total)


def test_criterion_03_golden_ratio_knife_edge():
    start = time.perf_counter()
    inst = golden_ratio_instance(50)
    eps = F(1, 10 ** 40)
    for S in range(1 << inst.m):
        g = _g_value(inst, S)
        if g is None:
            continue
        assert g <= eps, (S, g)
        assert g >= -eps or g < 0, (S, g)
    verifies, utility = computed("P61-golden-mne-positive")
    assert verifies is True
    assert utility > F(1, 50)
    assert time.perf_counter() - start < 1.0


def test_criterion_04_subadditive_family_gap():
    start = time.perf_counter()
    assert computed("C3-mne-valid") == [
        value for n in (4, 9, 25) for value in (True, claim_c3_expected_utility(n))]
    _, _, g1 = best_pne_binary(subadditive_gap_instance(1))
    assert g1 <= F(13, 2)
    big = subadditive_gap_instance(729)
    assert big.n == 1460
    a, P = claim_c3_mne(big, 729)
    assert is_mne(big, P, a)
    assert P.to_joint(big).principal_utility(big, a) > F(13, 2)
    assert time.perf_counter() - start < 60.0


def test_criterion_05_scaling_for_existence_suite():
    rng = random.Random(105)
    gammas = (F(7, 6), F(2), F(4))
    for trial in range(200):
        gamma = gammas[trial % 3]
        n = rng.randint(2, 3)
        inst = random_instance("xos", 10500 + trial, n, rng.randint(1, 2))
        a = random_contract(inst.n, rng, budget=ONE / gamma)
        D = sample_dropout_stable(inst, a, rng)
        assert D is not None
        subset = frozenset(i for i in range(inst.n) if rng.random() < 0.7)
        if not subset:
            subset = frozenset({rng.randrange(inst.n)})
        contract, S, value, bound = claims.scaling_sides(
            inst, a, D, ScalingParams(gamma=gamma, subset=subset))
        assert is_pne(inst, S, contract)
        assert value >= bound


def test_criterion_06_lift_cce_to_pne_xos():
    rng = random.Random(106)
    constants = {"A": F(4, 17), "B": F(1, 20), "C": F(1, 112)}
    seen = set()
    for trial in range(100):
        n = rng.randint(2, 3)
        inst = random_instance("xos", 10600 + trial, n, rng.randint(1, 2))
        a_star = random_contract(inst.n, rng)
        D = sample_cce(inst, a_star, rng)
        assert D is not None
        res = lift_xos(inst, a_star, D)
        assert is_pne(inst, res.pne, res.contract)
        assert res.claimed_ratio == constants[res.case_tag]
        achieved = principal_utility(inst, res.pne, res.contract)
        reference = D.principal_utility(inst, a_star)
        assert achieved >= constants[res.case_tag] * reference
        assert achieved >= F(1, 112) * reference
        seen.add(res.case_tag)
    assert "C" in seen


def test_criterion_07_robustify_pne_submodular():
    rng = random.Random(107)
    for trial in range(100):
        n = rng.randint(2, 3)
        inst = random_instance("coverage", 10700 + trial, n, rng.randint(1, 2))
        report = grid_search(inst, 4, "best_pne")
        a_star, S_star = report.best_contract, report.witness
        assert is_pne(inst, S_star, a_star)
        contract = robustify_submodular(inst, a_star, S_star)
        _, worst_utility = worst_cce(inst, contract)
        assert worst_utility >= report.best_value / 224


def test_criterion_08_robust_scaling_reward_floor():
    rng = random.Random(108)
    for trial in range(100):
        n = rng.randint(2, 3)
        inst = random_instance("coverage", 10800 + trial, n, rng.randint(1, 2))
        a = random_contract(inst.n, rng, budget=F(1, 4))
        D = sample_dropout_stable(inst, a, rng)
        assert D is not None
        reward, floor = claims.robust_scaling_sides(inst, a, D)
        assert reward >= floor


def test_criterion_09_supermodular_constructions():
    rng = random.Random(109)
    for trial in range(50):
        inst = random_instance("supermodular", 10900 + trial, 3, 1)
        a = random_contract(inst.n, rng)
        D = sample_cce(inst, a, rng)
        assert D is not None
        contract, S, utility, reference = claims.construction_sides(
            cce_to_pne_supermodular_binary, inst, a, D)
        assert is_pne(inst, S, contract)
        assert utility >= reference
        if trial % 5 == 0:
            cce = grid_search(inst, 3, "best_cce")
            pne = grid_search(inst, 3, "best_pne")
            assert cce.best_value == pne.best_value
    for trial in range(50):
        inst = random_instance("supermodular", 10950 + trial, 2, [2, 1])
        a = random_contract(inst.n, rng)
        D = sample_ce(inst, a, rng)
        assert D is not None
        contract, S, utility, reference = claims.construction_sides(
            ce_to_pne_supermodular, inst, a, D)
        assert is_pne(inst, S, contract)
        assert utility >= reference


def test_criterion_10_containment_and_potential():
    rng = random.Random(110)
    kinds = ("additive", "coverage", "xos", "supermodular", "table")
    for trial in range(500):
        inst = random_instance(kinds[trial % 5], 11000 + trial, 2,
                               rng.randint(1, 2))
        a = random_contract(inst.n, rng)
        for S, _ in enumerate_pne(inst, a)[:3]:
            P = ProductDistribution(tuple(
                ((S & inst.agent_mask(i), ONE),) for i in range(inst.n)))
            assert is_mne(inst, P, a)
            point = JointDistribution.point(S)
            assert is_ce(inst, point, a)
            assert is_cce(inst, point, a)
            assert is_dropout_stable(inst, point, a)
        if trial % 5 == 0:
            ce = sample_ce(inst, a, rng)
            assert ce is not None
            assert is_cce(inst, ce, a)
            assert is_dropout_stable(inst, ce, a)
            cce = sample_cce(inst, a, rng)
            assert cce is not None
            assert is_dropout_stable(inst, cce, a)
        # weighted potential: du_i = alpha_i * dPhi on every unilateral move
        for i in range(inst.n):
            mask = inst.agent_mask(i)
            for S in range(1 << inst.m):
                for T in submasks(mask):
                    S2 = (S & ~mask) | T
                    du = agent_utility(inst, S2, a, i) - \
                        agent_utility(inst, S, a, i)
                    phi1, phi2 = potential(inst, S, a), potential(inst, S2, a)
                    if phi1 == phi2:
                        continue
                    if isinstance(phi1, F) and isinstance(phi2, F):
                        assert du == a[i] * (phi2 - phi1)
                    else:
                        # a minus-infinity flip comes from the mover's own
                        # costly slice at a zero share
                        assert a[i] == 0
