"""Tests of the benchmark's independent checker.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checker.py
"""
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checker as ck  # noqa: E402
from contractlab.fixtures import (  # noqa: E402
    separation_example,
    separation_mne,
    supermodular_cce_gap_instance,
    supermodular_gap_cce,
)

ONE = F(1)


def test_perturbed_cce_is_rejected():
    inst = supermodular_cce_gap_instance()
    a, D = supermodular_gap_cce()
    g = ck.Game(inst)
    assert ck.cce_violation(g, D.support, a.alpha) is None
    # moving mass from "everyone works" to "agent 2 works alone" breaks it
    perturbed = ((0, F(1, 5)), (4, F(1, 10)), (7, F(7, 10)))
    found = ck.cce_violation(g, perturbed, a.alpha)
    assert found is not None
    i, T, _, follow, deviate = found
    assert deviate > follow
    assert ck.regret(g, perturbed, a.alpha, i, T) == (follow, deviate)


def test_non_pne_profile_is_rejected():
    inst = separation_example()
    g = ck.Game(inst)
    alpha = (F(1, 10), F(1, 10))
    assert ck.pne_violation(g, 0b11, alpha) is None
    # {0} is not an equilibrium: agent 1 joining earns 200/10 - 1 > 180/10
    found = ck.pne_violation(g, 0b01, alpha)
    assert found is not None and found[0] == 1 and found[1] == 0b10
    assert 0b01 not in ck.pne_set(g, alpha)


def test_paper_constant_180_is_accepted():
    g = ck.Game(separation_example())
    assert ck.best_pne_binary_exact(g) == 180
    shares = ck.inducing_shares(g, 0b11)
    assert shares == [F(1, 20), F(1, 20)]
    assert ck.pne_violation(g, 0b11, shares) is None
    assert ck.principal(g, ((0b11, ONE),), shares) == 180


def test_paper_constant_918_over_5_is_accepted():
    inst = separation_example()
    a, P = separation_mne()
    g = ck.Game(inst)
    support = ck.expand(P.per_agent)
    assert ck.cce_violation(g, support, a.alpha) is None
    assert ck.principal(g, support, a.alpha) == F(918, 5)


def test_paper_constant_7_over_45_is_accepted():
    inst = supermodular_cce_gap_instance()
    a, D = supermodular_gap_cce()
    g = ck.Game(inst)
    assert ck.cce_violation(g, D.support, a.alpha) is None
    assert ck.principal(g, D.support, a.alpha) == F(7, 45)
    # and no contract on a fine grid has a PNE paying the principal more than 0
    for k in range(41):
        for l in range(41 - k):
            alpha = (F(k, 40), F(l, 40))
            for S in ck.pne_set(g, alpha):
                assert ck.principal(g, ((S, ONE),), alpha) <= 0


def test_class_truths_and_potential():
    g = ck.Game(separation_example())
    truths = ck.class_truths(g)
    assert truths["monotone"] and truths["submodular"] and truths["subadditive"]
    assert not truths["additive"] and not truths["supermodular"]
    assert truths["xos"] is None
    assert ck.potential(g, 0b11, (F(1, 20), F(1, 20))) == 200 - 40
    assert ck.potential(g, 0b01, (F(0), F(1, 2))) is None
