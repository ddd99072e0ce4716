"""The paper's worked claims, which ``contractlab reproduce`` prints, and the
lemma checks that they share with the acceptance criteria: each lemma
function takes one input and returns both sides of its inequality. A claim
yields records (label, expected, computed[, ok]); ok defaults to computed ==
expected. Library functions are called through their modules, where the
benchmark's traced run wraps them.
"""
from __future__ import annotations

import random
from fractions import Fraction

from . import equilibria, fixtures, solvers, transforms
from .core import ONE, ZERO, fraction_str, mask_of, principal_utility, profile_str


def scaling_sides(inst, a, D, params):
    """Lemma 3.2 for the dropout-stable D: ``scale_for_existence``'s
    (contract, S), f(S), and (1 - 1/gamma) E_D[f] over the subset's actions."""
    contract, S = transforms.scale_for_existence(inst, a, D, params)
    union = mask_of(j for j in range(inst.m) if inst.owners[j] in params.subset)
    bound = (ONE - 1 / params.gamma) * D.expectation(
        lambda P: inst.reward.value(P & union))
    return contract, S, inst.reward.value(S), bound


def robust_scaling_sides(inst, a, D):
    """Lemma 3.6 for the dropout-stable D: E[f] of the worst CCE once every
    share is doubled and bumped by 1/(2n), and 1/4 of E_D[f]."""
    scaled = transforms.scaled_contract(inst, a, transforms.ScalingParams(
        gamma=Fraction(2), subset=frozenset(range(inst.n)),
        epsilon=Fraction(1, 2 * inst.n)))
    worst, _ = solvers.worst_cce(inst, scaled)
    return worst.expected_reward(inst), Fraction(1, 4) * D.expected_reward(inst)


def construction_sides(construction, inst, a, D):
    """Theorems 5.1 and 5.2: the supermodular ``construction``'s (contract,
    S), the principal's utility at S, and D's under a."""
    contract, S = construction(inst, a, D)
    return (contract, S, principal_utility(inst, S, contract),
            D.principal_utility(inst, a))


def _trials(seed: int, count: int, kind: str, n: int, sizes, budget=ONE):
    """(trial, instance, contract, rng) of a seeded claim: instance seed
    10 * seed + trial, the contract drawn from rng within ``budget``."""
    rng = random.Random(seed)
    for trial in range(count):
        inst = fixtures.random_instance(kind, 10 * seed + trial, n, sizes)
        yield trial, inst, fixtures.random_contract(inst.n, rng, budget=budget), rng


def _a1_pne():
    inst = fixtures.separation_example()
    S, _, utility = solvers.best_pne(inst)
    yield "best pure-equilibrium utility", Fraction(180), utility
    yield "inducing profile", "{0,1}", profile_str(S)


def _a1_mne():
    inst = fixtures.separation_example()
    a, P = fixtures.separation_mne()
    yield "mixed equilibrium verifies", True, bool(equilibria.is_mne(inst, P, a))
    yield ("principal utility", Fraction(918, 5),
           P.to_joint(inst).principal_utility(inst, a))


def _p54_cce():
    inst = fixtures.supermodular_cce_gap_instance()
    a, D = fixtures.supermodular_gap_cce()
    yield "distribution verifies as cce", True, bool(equilibria.is_cce(inst, D, a))
    yield "principal utility", Fraction(7, 45), D.principal_utility(inst, a)


def _p54_pne():
    _, _, utility = solvers.best_pne(fixtures.supermodular_cce_gap_instance())
    yield "best pure-equilibrium utility over all contracts", ZERO, utility, utility <= 0


def _p61_pne():
    _, _, g = solvers.best_pne(fixtures.golden_ratio_instance(50))
    yield ("max inducible utility", "within 1e-18 of 0", g,
           abs(g) <= Fraction(1, 10 ** 18))


def _p61_mne():
    inst = fixtures.golden_ratio_instance(50)
    a, P = fixtures.golden_ratio_mne(50)
    yield ("mixed equilibrium verifies (tolerance 1e-40)", True,
           bool(equilibria.is_mne(inst, P, a, tol=Fraction(1, 10 ** 40))))
    utility = P.to_joint(inst).principal_utility(inst, a)
    yield "principal utility exceeds 1/50", "> 1/50", utility, utility > Fraction(1, 50)


def _c2():
    _, _, g = solvers.best_pne(fixtures.subadditive_gap_instance(1))
    yield "best pure-equilibrium utility (n=1)", "<= 13/2", g, g <= Fraction(13, 2)


def _c3():
    for n in (4, 9, 25):
        inst = fixtures.subadditive_gap_instance(n)
        a, P = fixtures.claim_c3_mne(inst, n)
        yield (f"n={n} mixed equilibrium verifies", True,
               bool(equilibria.is_mne(inst, P, a)))
        yield (f"n={n} principal utility", fixtures.claim_c3_expected_utility(n),
               P.to_joint(inst).principal_utility(inst, a))


def _t51():
    for trial, inst, a, _ in _trials(51, 5, "supermodular", 3, 1):
        D, _ = solvers.best_cce(inst, a)
        _, _, utility, cce_utility = construction_sides(
            transforms.cce_to_pne_supermodular_binary, inst, a, D)
        yield (f"trial {trial} construction utility", ">= cce utility",
               utility, utility >= cce_utility)


def _t52():
    for trial, inst, a, _ in _trials(52, 5, "supermodular", 2, [2, 1]):
        D, _ = solvers.best_ce(inst, a)
        _, _, utility, ce_utility = construction_sides(
            transforms.ce_to_pne_supermodular, inst, a, D)
        yield (f"trial {trial} dynamics utility", ">= ce utility", utility,
               utility >= ce_utility)


def _l32():
    for trial, inst, a, rng in _trials(32, 10, "xos", 2, [2, 1], Fraction(1, 2)):
        D = fixtures.sample_dropout_stable(inst, a, rng)
        _, _, value, target = scaling_sides(inst, a, D, transforms.ScalingParams(
            gamma=Fraction(2), subset=frozenset(range(inst.n))))
        yield (f"trial {trial} scaled reward bound", f">= {fraction_str(target)}",
               value, value >= target)


def _l36():
    for trial, inst, a, rng in _trials(36, 10, "coverage", 2, [2, 1], Fraction(1, 4)):
        reward, target = robust_scaling_sides(
            inst, a, fixtures.sample_dropout_stable(inst, a, rng))
        yield (f"trial {trial} worst-cce reward", f">= {fraction_str(target)}",
               reward, reward >= target)


REPRODUCE = {
    "A1-pne-180": _a1_pne,
    "A1-mne-183.6": _a1_mne,
    "P54-cce-7/45": _p54_cce,
    "P54-pne-nonpositive": _p54_pne,
    "P61-golden-pne-zero": _p61_pne,
    "P61-golden-mne-positive": _p61_mne,
    "C2-small-n-pne": _c2,
    "C3-mne-valid": _c3,
    "T51-binary-construction": _t51,
    "T52-ce-construction": _t52,
    "L32-property": _l32,
    "L36-property": _l36,
}
