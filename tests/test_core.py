import importlib
import pkgutil
import random
from decimal import Decimal
from fractions import Fraction as F

import pytest

import contractlab

from contractlab.core import (
    Contract,
    agent_utility,
    as_fraction,
    bits_of,
    enum_cap_bits,
    mask_of,
    make_instance,
    over_common_denominator,
    potential,
    principal_utility,
    profile_cap,
    submasks,
    welfare,
)
from contractlab.rewards import AdditiveReward
from contractlab.fixtures import (
    random_instance,
    separation_example,
    supermodular_cce_gap_instance,
)


def test_as_fraction_parses_decimals_exactly():
    assert as_fraction("0.925") == F(37, 40)
    assert as_fraction("1/3") == F(1, 3)
    assert as_fraction(7) == F(7)
    with pytest.raises(TypeError):
        as_fraction(0.1)


@pytest.mark.parametrize("text", ["1e5000", "1E-5000", "2.5e+0_4301", "1e999999999"])
def test_exponent_past_the_digit_limit_is_refused(text):
    """Fraction would build 10**exp for these, in time and memory that grow
    faster than the exponent."""
    for parse in (as_fraction, lambda t: Contract.of([t]),
                  lambda t: make_instance([[t]], AdditiveReward([1]))):
        with pytest.raises(ValueError, match="integer-digit limit 4300"):
            parse(text)


def test_exponent_within_the_digit_limit_parses(monkeypatch):
    assert as_fraction("1e3") == 1000
    assert as_fraction("2.5E-2") == F(1, 40)
    assert as_fraction("1E-4300") == F(1, 10 ** 4300)
    monkeypatch.setattr("sys.get_int_max_str_digits", lambda: 0)  # no limit
    assert as_fraction("1e5000") == 10 ** 5000


def test_no_digit_limit_function_means_no_limit(monkeypatch):
    """Pythons before 3.10.7 have no ``sys.get_int_max_str_digits``, and no
    limit."""
    monkeypatch.delattr("sys.get_int_max_str_digits")
    assert as_fraction("1/2") == F(1, 2)
    assert as_fraction("1e5") == 100000
    assert as_fraction("2.5E-2") == F(1, 40)


def test_submasks_ascending():
    assert list(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert list(submasks(0)) == [0]


def brute_submasks(mask):
    """Every bitmask within ``mask``, built from its bits and sorted."""
    positions = list(bits_of(mask))
    return sorted(sum(1 << j for t, j in enumerate(positions) if k >> t & 1)
                  for k in range(1 << len(positions)))


@pytest.mark.parametrize("mask", [
    0,
    1,
    1 << 5,
    1 << 1459,
    (1 << 12) - 1,
    ((1 << 12) - 1) << 700,
    mask_of([1401, 1403, 1430, 1459]),
    mask_of([0, 1402, 1417, 1450, 1459]),
])
def test_submasks_matches_brute_force(mask):
    subs = submasks(mask)
    assert iter(subs) is subs  # a generator, not a list
    assert list(subs) == brute_submasks(mask)


def test_mask_roundtrip():
    assert mask_of(bits_of(0b1011)) == 0b1011


def test_bits_of_and_cost_on_sparse_wide_masks():
    rng = random.Random(12)
    costs = [F(rng.randint(0, 9), rng.randint(1, 7)) for _ in range(300)]
    inst = make_instance([[c] for c in costs], AdditiveReward([F(0)] * 300))
    for _ in range(50):
        picked = sorted(rng.sample(range(300), rng.randint(0, 5)))
        mask = mask_of(picked)
        assert list(bits_of(mask)) == picked
        assert inst.cost(mask) == sum((costs[j] for j in picked), F(0))


def test_instance_rejects_out_of_order_owners():
    reward = separation_example().reward
    with pytest.raises(ValueError):
        make_instance([[1], []], reward)  # arity mismatch
    from contractlab.core import Instance
    with pytest.raises(ValueError):
        Instance(n=2, owners=(1, 0), costs=(F(1), F(1)), reward=reward)


def test_contract_bounds():
    with pytest.raises(ValueError):
        Contract((F(3, 2),))
    a = Contract.of(["1/2", "1/2", "1/2"])
    assert a.total() == F(3, 2)  # totals above 1 are allowed
    assert a.replace(0, F(0)).total() == F(1)


def test_contract_names_the_type_of_a_share_that_is_not_a_fraction():
    for bad, kind in ((0.25, "float"), (1, "int"), ("1/2", "str"), (None, "NoneType")):
        with pytest.raises(TypeError, match=f"^share .* is a {kind}, not a Fraction"):
            Contract((F(1, 2), bad))
    for bad in (F(5, 4), F(-1, 4)):
        with pytest.raises(ValueError, match="outside"):
            Contract((bad,))
    assert Contract.of([1, "1/4"]).alpha == (F(1), F(1, 4))


def test_over_common_denominator_counts_ints_at_c_speed():
    """All ints come back as they are; a bool is not an int here and comes
    back as 0 or 1 in a new list; a float or a non-rational is refused."""
    for ints in ([3, -4, 0], (7,), [], [10 ** 40, -1]):
        scaled, den = over_common_denominator(ints)
        assert scaled is ints and den == 1
    flags = [True, 2, False]
    scaled, den = over_common_denominator(flags)
    assert (scaled, den) == ([1, 2, 0], 1) and scaled is not flags
    assert [type(v) for v in scaled] == [int, int, int]
    assert over_common_denominator([True, F(1, 2)]) == ([2, 1], 2)
    assert over_common_denominator((F(2, 3), -1)) == ([2, -3], 3)
    for bad in ([1, 2.5], [2.0], [F(1, 2), 0.5], [True, 1.0]):
        with pytest.raises(TypeError, match="inexact float"):
            over_common_denominator(bad)
    for bad in ([1, "2"], [Decimal(1)], [F(1, 3), None], [1j]):
        with pytest.raises(TypeError, match="non-rational"):
            over_common_denominator(bad)


def test_agent_utility_separation():
    inst = separation_example()
    a = Contract.of(["1/36", "1/36"])
    assert agent_utility(inst, 0b11, a, 1) == F(41, 9)
    assert agent_utility(inst, 0, a, 0) == 0
    with pytest.raises(ValueError):
        agent_utility(inst, 0b11, a, 2)


def test_agent_utility_supermodular_gap():
    inst = supermodular_cce_gap_instance()
    a = Contract.of(["0.925", "1/18"])
    assert agent_utility(inst, 0b111, a, 1) == F(11, 36)


def test_principal_utility():
    inst = separation_example()
    assert principal_utility(inst, 0b11, Contract.of(["1/20", "1/20"])) == 180
    assert principal_utility(inst, 0b11, Contract.of(["1/2", "1/2"])) == 0
    sup = supermodular_cce_gap_instance()
    assert principal_utility(sup, 0b111, Contract.of(["0.925", "1/18"])) == F(7, 36)


def test_welfare():
    sup = supermodular_cce_gap_instance()
    assert welfare(sup, 0b111) == F(1, 2)
    assert welfare(sup, 0) == 0
    assert welfare(sup, 0b011) == F(-15, 4)


def test_potential():
    inst = separation_example()
    a = Contract.of(["1/18", "1/18"])
    assert potential(inst, 0b11, a) == 164
    assert potential(inst, 0, a) == 0
    # costly slice at a zero share sinks the whole potential
    assert potential(inst, 0b01, Contract.of([0, "1/18"])) is None
    # zero-cost slice at zero share contributes nothing
    sup = supermodular_cce_gap_instance()
    free = make_instance([[0], [0]], separation_example().reward)
    assert potential(free, 0b11, Contract.zero(2)) == 200
    del sup


def test_accounting_identity():
    # principal + agents = welfare, on random instances
    rng = random.Random(5)
    for trial in range(10):
        inst = random_instance("table", 100 + trial, 2, 2)
        a = Contract.of([F(rng.randint(0, 4), 4) for _ in range(inst.n)])
        for S in range(1 << inst.m):
            total = principal_utility(inst, S, a) + sum(
                agent_utility(inst, S, a, i) for i in range(inst.n))
            assert total == welfare(inst, S)


def test_potential_law_exhaustive():
    # unilateral utility change = alpha_i * potential change when alpha_i > 0
    rng = random.Random(6)
    for trial in range(10):
        inst = random_instance("coverage", 200 + trial, 2, 2)
        a = Contract.of([F(rng.randint(1, 4), 4) for _ in range(inst.n)])
        for S in range(1 << inst.m):
            for i in range(inst.n):
                mask = inst.agent_mask(i)
                for T in submasks(mask):
                    S2 = (S & ~mask) | T
                    du = agent_utility(inst, S2, a, i) - agent_utility(inst, S, a, i)
                    dphi = potential(inst, S2, a) - potential(inst, S, a)
                    assert du == a[i] * dphi


@pytest.mark.parametrize("raw", ["abc", "24,", "24,16,8", "-1", "1.5"])
def test_malformed_cap_is_a_clear_error(monkeypatch, raw):
    monkeypatch.setenv("CONTRACTLAB_CAP", raw)
    for read in (enum_cap_bits, profile_cap):
        with pytest.raises(ValueError, match="CONTRACTLAB_CAP"):
            read()
    monkeypatch.setenv("CONTRACTLAB_CAP", " 20 , 100 ")
    assert (enum_cap_bits(), profile_cap()) == (20, 100)


def test_no_module_holds_a_float():
    """No float constant (such as an infinity sentinel) lives in the library."""
    for info in pkgutil.iter_modules(contractlab.__path__):
        module = importlib.import_module(f"contractlab.{info.name}")
        floats = [k for k, v in vars(module).items() if isinstance(v, float)]
        assert not floats, (info.name, floats)
