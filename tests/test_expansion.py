"""Tests for first-order asymptotic expansions and the delta method.

Expected values for the worked examples were computed by hand from the
sum, product, quotient and chain rules before the implementation existed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import empcalc as ec
from empcalc.expansion import AsymptoticExpansion, constant_expansion, from_mean


def infl_values(e, pts):
    return np.array([e.influence(x, y) for x, y in pts])


GRID = [(x, y) for x in (-1.5, 0.0, 0.7, 2.0) for y in (-2.0, 0.3, 1.0)]


def test_from_mean_carries_function_as_influence():
    e = from_mean(ec.pi1, 1.5)
    assert e.value == 1.5
    assert e.influence(3.0, 0.0) == 3.0


def test_constant_expansion_has_zero_influence():
    e = constant_expansion(4.0)
    assert e.value == 4.0
    assert all(e.influence(x, y) == 0.0 for x, y in GRID)


def test_add_combinator():
    # (2, pi1) + (3, pi2) = (5, pi1 + pi2)
    e = from_mean(ec.pi1, 2.0) + from_mean(ec.pi2, 3.0)
    assert e.value == 5.0
    assert e.influence(1.0, 10.0) == 11.0


def test_mul_combinator():
    # (2, pi1) * (3, pi2) -> value 6, influence 3*pi1 + 2*pi2
    e = from_mean(ec.pi1, 2.0) * from_mean(ec.pi2, 3.0)
    assert e.value == 6.0
    assert e.influence(1.0, 1.0) == pytest.approx(5.0)
    assert e.influence(2.0, -1.0) == pytest.approx(3.0 * 2.0 + 2.0 * -1.0)


def test_div_combinator():
    # (6, pi1) / (2, pi2) -> value 3, influence pi1/2 - (3/2) pi2
    e = from_mean(ec.pi1, 6.0) / from_mean(ec.pi2, 2.0)
    assert e.value == 3.0
    assert e.influence(4.0, 2.0) == pytest.approx(4.0 / 2.0 - 1.5 * 2.0)


def test_div_rejects_degenerate_denominator():
    num = from_mean(ec.pi1, 1.0)
    for b in (0.0, 5e-13, -5e-13):
        with pytest.raises(ec.ExpansionError, match="asymptotically degenerate"):
            num / from_mean(ec.pi2, b)


def sqrt_grad(t):
    return (0.5 / math.sqrt(t),)


def test_delta_one_argument_square_root():
    # sqrt at 4: value 2, influence scaled by 1/(2*sqrt(4)) = 0.25
    e = ec.delta(math.sqrt, sqrt_grad, from_mean(ec.pi1, 4.0))
    assert e.value == 2.0
    assert e.influence(8.0, 0.0) == pytest.approx(2.0)


def test_delta_one_argument_inapplicable_point():
    e0 = from_mean(ec.pi1, 0.0)
    with pytest.raises(ec.ExpansionError, match="delta method inapplicable"):
        ec.delta(math.sqrt, sqrt_grad, e0)
    neg = from_mean(ec.pi1, -1.0)
    with pytest.raises(ec.ExpansionError, match="delta method inapplicable"):
        ec.delta(math.sqrt, sqrt_grad, neg)


def test_delta_five_arguments():
    # g = a b + c - d e at (1, 2, 3, 4, 5): value 1*2 + 3 - 4*5 = -15,
    # gradient (b, a, 1, -e, -d) = (2, 1, 1, -5, -4)
    fs = [ec.pi1, ec.pi2, ec.p, ec.pi1 ** 2, ec.pi2 ** 2]
    es = [from_mean(f, v) for f, v in zip(fs, (1.0, 2.0, 3.0, 4.0, 5.0))]
    e = ec.delta(lambda a, b, c, d, e: a * b + c - d * e,
              lambda a, b, c, d, e: (b, a, 1.0, -e, -d), *es)
    assert e.value == -15.0
    assert e.influence.poly == {(1, 0): 2.0, (0, 1): 1.0, (1, 1): 1.0, (2, 0): -5.0, (0, 2): -4.0}
    for x, y in GRID:
        assert e.influence(x, y) == pytest.approx(2 * x + y + x * y - 5 * x * x - 4 * y * y)


@pytest.mark.parametrize("grad", [lambda a, b: (1.0,), lambda a, b: (1.0, 1.0, 1.0),
                                  lambda a, b: ()])
def test_delta_rejects_wrong_length_gradient(grad):
    a = from_mean(ec.pi1, 2.0)
    b = from_mean(ec.pi2, 3.0)
    with pytest.raises(ec.ExpansionError, match="partials for 2 expansions"):
        ec.delta(lambda s, t: s + t, grad, a, b)


def test_delta_rejects_non_finite_gradient_and_no_arguments():
    e = from_mean(ec.pi1, 2.0)
    with pytest.raises(ec.ExpansionError, match="delta method inapplicable"):
        ec.delta(lambda t: t, lambda t: (math.inf,), e)
    with pytest.raises(ec.ExpansionError, match="at least one expansion"):
        ec.delta(lambda: 0.0, lambda: ())


def test_operators_give_the_hand_rules_coefficients_bit_for_bit():
    a = AsymptoticExpansion(2.0, ec.p + 0.5 * ec.pi1)
    b = AsymptoticExpansion(3.0, ec.pi2 ** 2 - ec.pi1)
    L, H = a.influence, b.influence
    for via_op, hand in [
        (a + b, L + H),
        (a - b, L + (-H)),
        (-a, -L),
        (a * b, 3.0 * L + 2.0 * H),
        (a / b, (1.0 / 3.0) * L - (2.0 / 3.0 ** 2) * H),
    ]:
        assert via_op.influence.poly == hand.poly
        for x, y in GRID:
            assert via_op.influence(x, y) == hand(x, y)


def test_delta_applies_the_chain_rule_to_the_terms():
    # (a * b) + a: a's base function gets the slope b + 1, in first-seen order
    a = from_mean(ec.pi1, 2.0)
    b = from_mean(ec.pi2, 3.0)
    e = (a * b) + a
    assert e.terms == ((4.0, ec.pi1), (2.0, ec.pi2))
    # a nested map multiplies the slopes: d/dt (t^2) at 6 is 12
    sq = ec.delta(lambda t: t * t, lambda t: (2.0 * t,), a * b)
    assert sq.value == 36.0
    assert sq.terms == ((36.0, ec.pi1), (24.0, ec.pi2))


def test_influence_is_built_once_when_first_read():
    f = ec.p + 0.5 * ec.pi1
    assert AsymptoticExpansion(2.0, f).influence is f
    assert AsymptoticExpansion(2.0, f).terms == ((1.0, f),)
    e = from_mean(ec.pi1, 2.0) * from_mean(ec.pi2, 3.0)
    assert "influence" not in vars(e)
    h = e.influence
    assert e.influence is h
    assert h.poly == (3.0 * ec.pi1 + 2.0 * ec.pi2).poly
    assert e.with_label("named").influence.label == "named"


def test_value_must_be_finite():
    with pytest.raises(ec.ExpansionError):
        AsymptoticExpansion(float("nan"), ec.pi1)
    with pytest.raises(ec.ExpansionError):
        AsymptoticExpansion(float("inf"), ec.pi1)
    with pytest.raises(ec.ExpansionError, match=r"^non-finite mean for pi1: nan$"):
        from_mean(ec.pi1, float("nan"))


def test_influence_must_be_a_stat_function():
    with pytest.raises(ec.ExpansionError, match=r"^influence must be a StatFunction$"):
        AsymptoticExpansion(0.0, "h")


def test_operator_sugar_matches_combinators():
    a = from_mean(ec.pi1, 2.0)
    b = from_mean(ec.pi2, 3.0)
    for via_op, via_fn in [
        (a + b, ec.delta(lambda s, t: s + t, lambda s, t: (1.0, 1.0), a, b)),
        (a * b, ec.delta(lambda s, t: s * t, lambda s, t: (t, s), a, b)),
        (a / b, ec.delta(lambda s, t: s / t, lambda s, t: (1.0 / t, -s / t ** 2), a, b)),
    ]:
        assert via_op.value == via_fn.value
        np.testing.assert_allclose(
            infl_values(via_op, GRID), infl_values(via_fn, GRID), rtol=1e-15
        )
    # a number on either side is a constant expansion: only the value moves
    e = from_mean(ec.pi1, 0.0)
    law = ec.GaussianLaw(0.5)
    for via_op, value in [(2.0 - e, 2.0), (e + 1.0, 1.0), (1.0 + e, 1.0)]:
        assert via_op.value == value
        assert ec.asymptotic_variance(via_op, law) == pytest.approx(1.0, rel=1e-14)


means = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
safe_denoms = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)


@given(means, means)
def test_add_is_linear_in_both_slots(a, b):
    e = from_mean(ec.pi1, a) + from_mean(ec.pi2, b)
    assert e.value == a + b
    for x, y in GRID:
        assert e.influence(x, y) == pytest.approx(x + y, abs=1e-12)


@given(means, safe_denoms)
def test_div_equals_mul_by_reciprocal(a, b):
    """x/y and x * (1/y) must produce identical expansions.

    The reciprocal is built with the delta method applied to t -> 1/t.
    """
    num = from_mean(ec.pi1, a)
    den = from_mean(ec.pi2, b)
    direct = num / den
    recip = ec.delta(lambda t: 1.0 / t, lambda t: (-1.0 / (t * t),), den)
    composed = num * recip
    assert direct.value == pytest.approx(composed.value, rel=1e-12)
    np.testing.assert_allclose(
        infl_values(direct, GRID), infl_values(composed, GRID), rtol=1e-9, atol=1e-9
    )


@given(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
def test_mul_self_equals_smooth_square(a):
    e = from_mean(ec.pi1, a)
    squared = e * e
    mapped = ec.delta(lambda t: t * t, lambda t: (2.0 * t,), e)
    assert squared.value == pytest.approx(mapped.value, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(
        infl_values(squared, GRID), infl_values(mapped, GRID), rtol=1e-9, atol=1e-9
    )
