import random
from fractions import Fraction as F

import pytest

from contractlab.core import Contract, make_instance, principal_utility
from contractlab import equilibria
from contractlab.equilibria import (
    JointDistribution,
    Verdict,
    is_pne,
    potential_maximizer_pne,
)
from contractlab.rewards import AdditiveReward, TableReward
from contractlab.solvers import enumerate_pne, worst_cce
from contractlab.transforms import (
    ScalingParams,
    ce_to_pne_supermodular,
    cce_to_pne_supermodular_binary,
    lift_subadditive,
    lift_xos,
    partition_agents,
    robustify_case,
    robustify_submodular,
    scale_for_existence,
    scale_for_existence_subadditive,
    scaled_contract,
)
from contractlab.fixtures import (
    random_contract,
    random_instance,
    sample_cce,
    sample_ce,
    separation_example,
    separation_mne,
    supermodular_cce_gap_instance,
)


def test_scaling_params_validation():
    with pytest.raises(ValueError):
        ScalingParams(gamma=F(1), subset=frozenset())
    with pytest.raises(ValueError):
        ScalingParams(gamma=F(2), subset=frozenset(), epsilon=F(-1))


def test_scaling_params_refuse_floats():
    for kwargs in ({"gamma": 2.0}, {"gamma": F(2), "epsilon": 0.25}):
        with pytest.raises(TypeError, match="inexact float"):
            ScalingParams(subset=frozenset({0, 1}), **kwargs)
    # ints are exact: they become Fractions, and scaling runs as with F(2)
    params = ScalingParams(gamma=2, subset=frozenset({0, 1}), epsilon=0)
    assert (params.gamma, params.epsilon) == (F(2), F(0))
    assert type(params.gamma) is F and type(params.epsilon) is F
    inst = separation_example()
    a, P = separation_mne()
    D = P.to_joint(inst)
    assert scale_for_existence(inst, a, D, params) == scale_for_existence(
        inst, a, D, ScalingParams(gamma=F(2), subset=frozenset({0, 1})))


def test_scaled_contract():
    inst = separation_example()
    a = Contract.of(["1/36", "1/36"])
    params = ScalingParams(gamma=F(2), subset=frozenset({0}), epsilon=F(1, 100))
    out = scaled_contract(inst, a, params)
    assert out.alpha == (F(1, 18) + F(1, 100), F(1, 100))
    with pytest.raises(ValueError):
        scaled_contract(inst, Contract.of(["3/4", "0"]),
                        ScalingParams(gamma=F(2), subset=frozenset({0})))


@pytest.mark.parametrize("subset,named", [
    (frozenset({5}), "5"), (frozenset({"0", "1"}), "'0'"), (frozenset({-1}), "-1")])
def test_scaled_contract_rejects_ids_that_name_no_agent(subset, named):
    """A subset id that is not an agent would otherwise leave every share at
    epsilon: the zero contract, with no error."""
    inst = random_instance("xos", 3, 3, 1)
    a = Contract.of(["1/8", "1/8", "1/8"])
    params = ScalingParams(gamma=F(2), subset=subset)
    with pytest.raises(ValueError, match=rf"scaling subset id {named} is not an agent"):
        scaled_contract(inst, a, params)
    D = JointDistribution.point(0)
    with pytest.raises(ValueError, match="is not an agent"):
        scale_for_existence(inst, a, D, params)
    # the callers' subsets, every agent or all but the top one, still scale
    for kept in (frozenset(range(3)), frozenset({0, 2})):
        out = scaled_contract(inst, a, ScalingParams(gamma=F(2), subset=kept))
        assert out.alpha == tuple(F(1, 4) if i in kept else F(0) for i in range(3))


@pytest.mark.parametrize("subset,a,error", [
    (frozenset({5}), ["1/8", "1/8", "1/8"], "scaling subset id 5 is not an agent"),
    (frozenset({0, 2}), ["3/4", "1/8", "1/8"], "scaled share 3/2 for agent 0 leaves"),
])
def test_scale_for_existence_checks_the_scaling_first(subset, a, error):
    """The scaling's own errors win over D's dropout stability, as in
    ``scale_for_existence_subadditive``; a scaling that is fine still meets
    the dropout check."""
    inst = random_instance("xos", 3, 3, 1)
    a = Contract.of(a)
    D = JointDistribution.point(0b100)  # agent 2 earns 7/8 at a cost of 7/4
    assert not equilibria.is_dropout_stable(inst, D, a)
    with pytest.raises(ValueError, match=error):
        scale_for_existence(inst, a, D, ScalingParams(gamma=F(2), subset=subset))
    with pytest.raises(ValueError, match="not dropout-stable"):
        scale_for_existence(inst, Contract.of(["1/8"] * 3), D,
                            ScalingParams(gamma=F(2), subset=frozenset({0, 2})))


def test_scale_for_existence_separation():
    inst = separation_example()
    a, P = separation_mne()
    D = P.to_joint(inst)
    params = ScalingParams(gamma=F(2), subset=frozenset({0, 1}))
    scaled, S = scale_for_existence(inst, a, D, params)
    assert scaled.alpha == (F(1, 18), F(1, 18))
    assert S == 0b11
    assert is_pne(inst, S, scaled)
    # guarantee: f(S) >= (1 - 1/gamma) * E[f]
    assert inst.reward.value(S) >= F(1, 2) * D.expected_reward(inst)


def test_scale_for_existence_rejects():
    inst = separation_example()
    a, P = separation_mne()
    D = P.to_joint(inst)
    with pytest.raises(ValueError):
        scale_for_existence(inst, a, D, ScalingParams(
            gamma=F(2), subset=frozenset({0, 1}), epsilon=F(1, 10)))
    with pytest.raises(ValueError):
        scale_for_existence(inst, Contract.zero(2),
                            JointDistribution.point(0b11),
                            ScalingParams(gamma=F(2), subset=frozenset({0, 1})))


def test_partition_traces():
    p = partition_agents(Contract.of(["0.7", "0.2", "0.1"]))
    assert (p.b1, p.b2) == (frozenset({0}), frozenset({1, 2}))
    p = partition_agents(Contract.of(["1/4"] * 4))
    assert (p.b1, p.b2) == (frozenset({0, 1}), frozenset({2, 3}))
    p = partition_agents(Contract.of(["1/2"]))
    assert (p.b1, p.b2) == (frozenset({0}), frozenset())
    with pytest.raises(ValueError):
        partition_agents(Contract.of(["4/5", "1/5"]))
    with pytest.raises(ValueError):
        partition_agents(Contract.of(["3/4", "3/4"]))


def test_partition_agents_refuses_the_empty_contract():
    with pytest.raises(ValueError, match="the empty contract has no agents"):
        partition_agents(Contract(()))


def test_partition_bounds_random():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(1, 6)
        a = random_contract(n, rng, denominator=16, budget=F(1))
        if any(v > F(3, 4) for v in a.alpha):
            continue
        p = partition_agents(a)
        assert p.b1 | p.b2 == frozenset(range(n))
        assert not (p.b1 & p.b2)
        for bundle in (p.b1, p.b2):
            assert sum((a[i] for i in bundle), F(0)) <= F(3, 4)


def test_lift_xos_case_c_separation():
    inst = separation_example()
    a, P = separation_mne()
    D = P.to_joint(inst)
    res = lift_xos(inst, a, D)
    assert res.case_tag == "C"
    assert res.contract.alpha == (F(7, 216), F(0))
    assert res.pne == 0b01
    assert is_pne(inst, res.pne, res.contract)
    achieved = principal_utility(inst, res.pne, res.contract)
    reference = D.principal_utility(inst, a)
    assert achieved == F(1045, 6)
    assert achieved >= res.claimed_ratio * reference
    assert F(achieved, 1) / reference == F(5225, 5508)


def test_lift_xos_case_a():
    inst = make_instance([[1]], AdditiveReward([F(10)]))
    res = lift_xos(inst, Contract.of(["4/5"]), JointDistribution.point(0b1))
    assert res.case_tag == "A"
    assert res.contract.alpha == (F(9, 10),)
    assert res.pne == 0b1
    assert principal_utility(inst, res.pne, res.contract) >= \
        res.claimed_ratio * F(1, 5) * 10


def test_lift_xos_case_b():
    inst = make_instance([[0], [1]], AdditiveReward([F(1), F(100)]))
    a = Contract.of(["4/5", "1/10"])
    res = lift_xos(inst, a, JointDistribution.point(0b11))
    assert res.case_tag == "B"
    assert res.contract.alpha == (F(0), F(1, 5))
    assert is_pne(inst, res.pne, res.contract)
    assert principal_utility(inst, res.pne, res.contract) >= \
        res.claimed_ratio * JointDistribution.point(0b11).principal_utility(inst, a)


def test_lift_rejects_non_cce():
    inst = separation_example()
    with pytest.raises(ValueError):
        lift_xos(inst, Contract.of(["1/36", "1/36"]),
                 JointDistribution.point(0b11))


def test_robustify_separation_case_d():
    inst = separation_example()
    a_star = Contract.of(["1/20", "1/20"])
    assert robustify_case(inst, a_star, 0b11) == "D"
    out = robustify_submodular(inst, a_star, 0b11)
    assert out.alpha == (F(7, 120), F(0))
    _, worst = worst_cce(inst, out)
    assert worst == F(339, 2)
    reference = principal_utility(inst, 0b11, a_star)
    assert F(worst, 1) / reference == F(113, 120)
    assert worst >= reference / 224


def test_robustify_case_a():
    inst = make_instance([[0], [1]], AdditiveReward([F(10), F(1)]))
    a_star = Contract.zero(2)
    assert robustify_case(inst, a_star, 0b01) == "A"
    out = robustify_submodular(inst, a_star, 0b01)
    assert out.alpha == (F(1, 4), F(1, 4))
    _, worst = worst_cce(inst, out)
    assert worst >= principal_utility(inst, 0b01, a_star) / 68


def test_robustify_case_b():
    inst = make_instance([[1]], AdditiveReward([F(10)]))
    a_star = Contract.of(["4/5"])
    assert robustify_case(inst, a_star, 0b1) == "B"
    out = robustify_submodular(inst, a_star, 0b1)
    assert out.alpha == (F(9, 10),)
    _, worst = worst_cce(inst, out)
    assert worst >= F(2, 17) * principal_utility(inst, 0b1, a_star)


def test_robustify_case_c():
    inst = make_instance([["1/100"], [1]], AdditiveReward([F(1), F(100)]))
    a_star = Contract.of(["4/5", "1/10"])
    assert robustify_case(inst, a_star, 0b11) == "C"
    out = robustify_submodular(inst, a_star, 0b11)
    assert out.alpha == (F(0), F(1, 5))
    _, worst = worst_cce(inst, out)
    assert worst >= principal_utility(inst, 0b11, a_star) / 40


def point_mass_cases():
    """Seeded coverage, XOS and additive instances with S* among a*'s first
    two PNEs, then the Case B and Case C inputs above: random draws reach
    Cases A, B and D but not C."""
    rng = random.Random(2801)
    for trial in range(90):
        kind = ("coverage", "xos", "additive")[trial % 3]
        inst = random_instance(kind, 28010 + trial, rng.randint(2, 3), rng.randint(1, 2))
        a_star = random_contract(inst.n, rng)
        for S_star, _ in enumerate_pne(inst, a_star)[:2]:
            yield inst, a_star, S_star
    yield make_instance([[1]], AdditiveReward([F(10)])), Contract.of(["4/5"]), 0b1
    yield (make_instance([["1/100"], [1]], AdditiveReward([F(1), F(100)])),
           Contract.of(["4/5", "1/10"]), 0b11)


def test_lifting_a_point_mass_agrees_with_robustification():
    """Outside Case A, robustification's Cases B, C and D are lift_xos's A, B
    and C on the point mass on S*, and pay the same contract."""
    seen = {}
    for inst, a_star, S_star in point_mass_cases():
        case = robustify_case(inst, a_star, S_star)
        seen[case] = seen.get(case, 0) + 1
        if case == "A":
            continue
        lift = lift_xos(inst, a_star, JointDistribution.point(S_star))
        assert "ABC".index(lift.case_tag) == "BCD".index(case)
        assert lift.contract == robustify_submodular(inst, a_star, S_star)
    assert set(seen) == {"A", "B", "C", "D"}, seen


def test_robustify_case_c_keeps_doubled_shares_in_range():
    """With negative rewards Case C can double a share past 1: agent 1's
    17/20 would become 17/10, which is refused."""
    inst = make_instance([[3], [3]], TableReward([-2, -4, 2, -3]))
    a_star = Contract.of(["1", "17/20"])
    assert robustify_case(inst, a_star, 0b10) == "C"
    with pytest.raises(ValueError, match="17/10"):
        robustify_submodular(inst, a_star, 0b10)


@pytest.mark.parametrize("weights, costs, shares, case, lift_case", [
    # f of the zero-cost action, 1, is exactly 2/17 of the principal's 17/2
    (["1", "16"], ["0", "1"], ["0", "1/2"], "A", None),
    # 3/4 falls short of 2/17 of 67/8, which is 67/68
    (["3/4", "16"], ["0", "1"], ["0", "1/2"], "D", None),
    # the top agent's (1 - 4/5) * 20 is exactly 4 times the other's reward, 1
    (["20", "1"], ["1", "1/10"], ["4/5", "1/10"], "B", "A"),
    # (1 - 4/5) * 18 = 18/5 falls short of 4
    (["18", "1"], ["1", "1/10"], ["4/5", "1/10"], "C", "B"),
], ids=["threshold-met", "threshold-missed", "significance-met",
        "significance-missed"])
def test_cases_at_each_boundary(weights, costs, shares, case, lift_case):
    """Binary additive instances at S* = {0, 1} on robustification's 2/17
    threshold or just below it, and on the split's significance test
    (1 - share) E[f(S_top)] >= 4 E[f(S_-top)] or just below it."""
    inst = make_instance([[c] for c in costs], AdditiveReward([F(w) for w in weights]))
    a_star = Contract.of(shares)
    assert is_pne(inst, 0b11, a_star)
    assert robustify_case(inst, a_star, 0b11) == case
    if lift_case is not None:
        lift = lift_xos(inst, a_star, JointDistribution.point(0b11))
        assert lift.case_tag == lift_case


def test_robustify_rejects_non_pne():
    inst = separation_example()
    with pytest.raises(ValueError):
        robustify_submodular(inst, Contract.zero(2), 0b11)


def test_subadditive_scaling_single_agent():
    inst = separation_example()
    a, P = separation_mne()
    D = P.to_joint(inst)
    contract, S = scale_for_existence_subadditive(inst, a, D, 0, F(2))
    assert contract.alpha == (F(1, 18), F(0))
    assert is_pne(inst, S, contract)
    own = D.expectation(lambda S2: inst.reward.value(S2 & inst.agent_mask(0)))
    assert inst.reward.value(S) >= F(1, 2) * own
    with pytest.raises(ValueError):
        scale_for_existence_subadditive(inst, a, D, 5, F(2))
    with pytest.raises(ValueError):
        scale_for_existence_subadditive(inst, a, D, 0, F(1))


def test_lift_subadditive_cases():
    inst = separation_example()
    a, P = separation_mne()
    D = P.to_joint(inst)
    res = lift_subadditive(inst, a, D)
    assert res.case_tag == "C"
    assert res.claimed_ratio == F(1, 56 * 2)
    assert is_pne(inst, res.pne, res.contract)
    assert principal_utility(inst, res.pne, res.contract) >= \
        res.claimed_ratio * D.principal_utility(inst, a)

    single = make_instance([[1]], AdditiveReward([F(10)]))
    res = lift_subadditive(single, Contract.of(["4/5"]),
                           JointDistribution.point(0b1))
    assert res.case_tag == "A" and res.claimed_ratio == F(4, 17)

    pair = make_instance([[0], [1]], AdditiveReward([F(1), F(100)]))
    res = lift_subadditive(pair, Contract.of(["4/5", "1/10"]),
                           JointDistribution.point(0b11))
    assert res.case_tag == "B" and res.claimed_ratio == F(1, 40)
    assert is_pne(pair, res.pne, res.contract)


def test_lift_subadditive_case_b_needs_a_second_agent():
    """One agent above 3/4 that fails Case A's test: Case B scales the
    richest other agent, and there is none. ``lift_xos`` scales the empty
    set of others instead, which pays no one."""
    inst = make_instance([[0]], TableReward([F(1), F(2)]))
    a, D = Contract.of(["4/5"]), JointDistribution.point(0b1)
    with pytest.raises(ValueError,
                       match="Case B needs an agent other than the top one, agent 0"):
        lift_subadditive(inst, a, D)
    res = lift_xos(inst, a, D)
    assert res.case_tag == "B" and res.contract == Contract.zero(1)


def test_cce_to_pne_binary_supermodular():
    rng = random.Random(32)
    done = 0
    for trial in range(12):
        inst = random_instance("supermodular", 1000 + trial, 3, 1)
        a = random_contract(inst.n, rng)
        D = sample_cce(inst, a, rng)
        if D is None:
            continue
        contract, S = cce_to_pne_supermodular_binary(inst, a, D)
        assert is_pne(inst, S, contract)
        assert principal_utility(inst, S, contract) >= D.principal_utility(inst, a)
        for i in range(inst.n):
            assert contract[i] in (F(0), a[i])
        done += 1
    assert done >= 8


def test_cce_to_pne_needs_binary():
    inst = supermodular_cce_gap_instance()
    with pytest.raises(ValueError):
        cce_to_pne_supermodular_binary(inst, Contract.zero(2),
                                       JointDistribution.point(0))


def test_ce_to_pne_supermodular():
    inst = supermodular_cce_gap_instance()
    a = Contract.of(["17/18", "1/18"])
    contract, S = ce_to_pne_supermodular(inst, a, JointDistribution.point(0b111))
    assert contract is a and S == 0b111

    rng = random.Random(33)
    done = 0
    for trial in range(12):
        rand = random_instance("supermodular", 1100 + trial, 2, 2)
        b = random_contract(rand.n, rng)
        D = sample_ce(rand, b, rng)
        if D is None:
            continue
        out, S = ce_to_pne_supermodular(rand, b, D)
        assert out is b
        assert is_pne(rand, S, b)
        assert principal_utility(rand, S, b) >= D.principal_utility(rand, b)
        done += 1
    assert done >= 8


def test_ce_to_pne_rejects_non_ce():
    inst = separation_example()
    with pytest.raises(ValueError):
        ce_to_pne_supermodular(inst, Contract.zero(2),
                               JointDistribution.point(0b11))


def test_pne_post_checks_name_the_witness(monkeypatch):
    """potential_maximizer_pne and both supermodular constructions share one
    post-check; when is_pne fails it, each raises RuntimeError naming the
    profile, the agent and the deviation."""
    failing = Verdict(False, agent=1, deviation=0b10)
    monkeypatch.setattr(equilibria, "is_pne", lambda inst, S, a, tol=None: failing)
    rng = random.Random(14)
    binary = random_instance("supermodular", 1401, 3, 1)
    a = random_contract(binary.n, rng)
    grouped = random_instance("supermodular", 1402, 2, [2, 1])
    b = random_contract(grouped.n, rng)
    runs = {
        "potential maximizer": lambda: potential_maximizer_pne(
            separation_example(), Contract.of(["1/18", "1/18"]), 0b11),
        "support union": lambda: cce_to_pne_supermodular_binary(
            binary, a, sample_cce(binary, a, rng)),
        "floor-restricted dynamics end": lambda: ce_to_pne_supermodular(
            grouped, b, sample_ce(grouped, b, rng)),
    }
    for what, run in runs.items():
        with pytest.raises(RuntimeError, match=rf"^{what} 0x[0-9a-f]+ failed the "
                           r"equilibrium post-check \(agent 1, deviation 0x2\)$"):
            run()


def wrong_length_cases():
    """Calls on the two-agent separation example that read a contract's
    shares or floors, each given one or three of them."""
    for k in (1, 3):
        a = Contract((F(1, 4),) * k)
        reads = {
            "best_response_dynamics":
                lambda inst, a=a: equilibria.best_response_dynamics(inst, 0, a),
            "potential_maximizer_pne":
                lambda inst, a=a: potential_maximizer_pne(inst, a, 0b11),
            "scaled_contract": lambda inst, a=a: scaled_contract(
                inst, a, ScalingParams(gamma=F(2), subset=frozenset())),
            "robustify_case": lambda inst, a=a: robustify_case(inst, a, 0b11),
        }
        for name, call in reads.items():
            yield pytest.param(call, f"contract has {k} shares for 2 agents",
                               id=f"{name}-{k}-shares")
        floors = [0] * k
        yield pytest.param(
            lambda inst, floors=floors: equilibria.best_response_dynamics(
                inst, 0, Contract.zero(2), forced_floor=floors),
            f"forced_floor has {k} entries for 2 agents", id=f"forced_floor-{k}")


@pytest.mark.parametrize("call, message", wrong_length_cases())
def test_a_wrong_length_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call(separation_example())
