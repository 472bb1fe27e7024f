"""Tests for the paired-observation function algebra."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import empcalc as ec
from empcalc.functions import StatFunction, constant


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_coordinate_projections():
    assert ec.pi1(2.0, 3.0) == 2.0
    assert ec.pi2(2.0, 3.0) == 3.0
    assert ec.p(2.0, 3.0) == 6.0


def test_vectorized_evaluation():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([4.0, 5.0, 6.0])
    np.testing.assert_array_equal(ec.pi1(x, y), x)
    np.testing.assert_array_equal(ec.p(x, y), x * y)


def test_constant_broadcasts():
    c = constant(2.5)
    x = np.linspace(-1, 1, 7)
    out = c(x, x)
    assert out.shape == x.shape
    np.testing.assert_array_equal(out, np.full(7, 2.5))


def test_call_checks_the_broadcast_shape():
    x = np.array([1.0, 2.0, 3.0])
    assert ec.pi2(2.0, x).shape == (3,)
    assert ec.p(np.array([2.0]), x).shape == (3,)
    first = StatFunction(lambda x, y: x, "first")
    assert first(np.array([2.0]), x).tolist() == [2.0, 2.0, 2.0]
    one = StatFunction(lambda x, y: 1.0, "one")
    assert one(2.0, 3.0) == 1.0
    with pytest.raises(ec.EvaluationError, match=r"^one returned shape \(\), expected \(3,\)$"):
        one(x, x)

def test_arithmetic_on_functions():
    f = ec.pi1 + ec.pi2
    g = ec.pi1 * ec.pi2
    h = ec.pi1 - ec.pi2
    assert f(2.0, 3.0) == 5.0
    assert g(2.0, 3.0) == 6.0
    assert h(2.0, 3.0) == -1.0
    # scalar mixing on both sides
    assert (2.0 * ec.pi1)(3.0, 0.0) == 6.0
    assert (ec.pi1 * 2.0)(3.0, 0.0) == 6.0
    assert (ec.pi1 + 1.0)(3.0, 0.0) == 4.0
    assert (1.0 - ec.pi1)(3.0, 0.0) == -2.0
    assert (-ec.pi1)(3.0, 0.0) == -3.0
    half = ec.pi1 / 2
    assert (half.label, half.poly) == ("0.5*pi1", {(1, 0): 0.5})


def test_power_of_projection():
    sq = ec.pi1**2
    assert sq(3.0, 100.0) == 9.0
    assert sq.poly == {(2, 0): 1.0}


@pytest.mark.parametrize("f", [ec.pi1, ec.p - ec.pi2 ** 2, 0.5 * ec.pi1 - 2.0 * ec.pi2 + 3.0,
                               (ec.pi1 + 1e-3) * (ec.pi2 - 7.0)], ids=repr)
def test_power_is_the_repeated_product_bit_for_bit(f):
    # f^k starts from f itself: the poly of f * f * ... * f, keys in its order and
    # coefficients in its bits, with f^0 the constant 1 and the labels unchanged
    product = ec.constant(1.0)
    for k in range(5):
        power = f ** k
        want = {(0, 0): 1.0} if k == 0 else product.poly
        assert list(power.poly.items()) == list(want.items())
        assert [v.hex() for v in power.poly.values()] == [v.hex() for v in want.values()]
        la = f"({f.label})" if " + " in f.label or " - " in f.label else f.label
        assert power.label == f"{la}^{k}"
        product = f if k == 0 else product * f


@pytest.mark.parametrize("k", [-1, 2.0, np.int64(-2), np.float64(2.0), "2"])
def test_power_rejects_a_negative_or_non_integer_exponent(k):
    with pytest.raises(ec.EvaluationError, match="^only nonnegative integer powers are supported$"):
        ec.pi1 ** k


def test_power_takes_any_integer_type_as_its_int():
    # numpy integers and bools are integers by operator.index, as ExperimentConfig takes them
    for k, want in ((np.int64(2), 2), (np.uint8(3), 3), (True, 1), (False, 0)):
        got, ref = ec.pi1 ** k, ec.pi1 ** want
        assert (got.label, got.poly) == (ref.label, ref.poly)
        assert got(np.array([1.5, -2.0]), np.zeros(2)).tolist() == [1.5 ** want, (-2.0) ** want]


def test_labels_are_informative():
    f = ec.pi1 * ec.pi2
    assert "pi1" in f.label and "pi2" in f.label
    g = f.with_label("xy")
    assert g.label == "xy"
    assert g(2.0, 5.0) == 10.0


def test_polynomial_tracking_through_algebra():
    # (pi1 + pi2)**2 = pi1^2 + 2 pi1 pi2 + pi2^2
    f = (ec.pi1 + ec.pi2) ** 2
    assert f.poly == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}


def test_polynomial_tracking_drops_for_opaque_callables():
    f = StatFunction(lambda x, y: np.sin(np.asarray(x)), label="sin(x)")
    assert f.poly is None
    assert (f + ec.pi1).poly is None
    assert (f * ec.pi2).poly is None


def test_poly_agrees_with_callable_on_grid():
    f = (ec.pi1 - 2.0 * ec.pi2) * (ec.p + 1.0) + ec.pi2**3
    xs = np.linspace(-2, 2, 9)
    for x in xs:
        for y in xs:
            direct = f(x, y)
            via_poly = sum(c * x**i * y**j for (i, j), c in f.poly.items())
            assert direct == pytest.approx(via_poly, rel=1e-12, abs=1e-12)


@given(finite, finite)
def test_builtin_functions_total_on_finite_inputs(x, y):
    for f in (ec.pi1, ec.pi2, ec.p, ec.pi1 + ec.pi2, ec.pi1 * ec.pi2 - 3.0):
        assert np.isfinite(f(x, y))


@given(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_algebra_is_pointwise(x, y, a):
    f, g = ec.pi1, ec.pi2
    assert (f + g)(x, y) == f(x, y) + g(x, y)
    assert (f * g)(x, y) == f(x, y) * g(x, y)
    assert (a * f)(x, y) == a * f(x, y)


@pytest.mark.parametrize("c", [0.5, -0.5, 0.0, 1e6, 3])
@pytest.mark.parametrize("f", [ec.pi1, ec.p - ec.pi2 ** 2,
                               StatFunction(lambda x, y: np.sin(np.asarray(x)), "sin(x)")])
def test_adding_a_number_matches_its_constant_function(f, c):
    # f + c, f - c and c - f skip the constant's broadcast but keep its poly and
    # label; f - c is f plus the constant -c, so a negative c shows no doubled sign
    grid = np.meshgrid(np.linspace(-2.0, 2.0, 9), np.linspace(-3.0, 1.0, 5))
    for fast, via_constant in ((f + c, f + constant(c)), (c + f, f + constant(c)),
                               (f - c, f + constant(-c)), (c - f, constant(c) + -f)):
        assert fast.label == via_constant.label
        assert fast.poly == via_constant.poly
        assert fast(*grid).tobytes() == via_constant(*grid).tobytes()
    assert (ec.pi1 - 0.5).label == "pi1 + -0.5"
    assert (1.0 - ec.pi1).label == "1 + -pi1"


@pytest.mark.parametrize("f, label", [
    (ec.pi1 - (-2.0), "pi1 + 2"),
    (ec.pi1 - 2.0, "pi1 + -2"),
    (ec.pi1 - 0.0, "pi1 + -0"),
    (3.0 - (-ec.pi1), "3 + -(-pi1)"),
    (-(-ec.pi1), "-(-pi1)"),
    (-(ec.pi1 + ec.pi2), "-(pi1 + pi2)"),
    (-(2.0 * ec.pi1), "-2*pi1"),
    (-(-2.0 * ec.pi1), "-(-2*pi1)"),
    ((ec.pi1 - (-1e79)) * (ec.pi1 - (-1e79)), "(pi1 + 1e+79)*(pi1 + 1e+79)"),
])
def test_labels_carry_no_doubled_sign(f, label):
    assert f.label == label


_INPUTS = [1.5, 2, True, np.array([3]), np.array([-0.5]), np.arange(4) - 1,
           np.array([True, False, True, True]), np.linspace(-1.0, 1.0, 4)]


@pytest.mark.parametrize("f", [ec.pi1, ec.pi2, ec.p, constant(2.5), (ec.pi1 - 0.3) * (ec.pi2 + 0.2),
                               1.0 - 2.0 * ec.pi1 ** 3 + ec.p / 4, ec.pi1 - ec.pi2,
                               StatFunction(lambda x, y: np.cos(x), "cos(pi1)"),
                               StatFunction(lambda x, y: x > y, "1{pi1 > pi2}")], ids=repr)
def test_any_inputs_give_the_bits_of_explicitly_broadcast_float64_arrays(f):
    # __call__ takes scalars, (1,)- and (n,)-shaped inputs, ints and bools to float64
    # arrays of their broadcast shape, so no function broadcasts or casts for itself
    for x in _INPUTS:
        for y in _INPUTS:
            shape = np.broadcast_shapes(np.shape(x), np.shape(y))
            xb, yb = (np.array(np.broadcast_to(np.asarray(v, dtype=float), shape)) for v in (x, y))
            got, want = f(x, y), f(xb, yb)
            assert (got.dtype, got.shape) == (np.float64, shape)
            assert got.tobytes() == want.tobytes(), (x, y)


def test_an_indicator_integrates_on_a_discrete_law_as_its_float64_values():
    law = ec.DiscreteLaw([0.1, 1.3, -0.7, 2.2, 0.5], [1.0, -0.4, 0.3, 0.9, -1.1],
                         [0.1, 0.2, 0.3, 0.25, 0.15])
    above = StatFunction(lambda x, y: x > 0.3, "1{pi1 > 0.3}")
    as_float = StatFunction(lambda x, y: np.where(x > 0.3, 1.0, 0.0), "1{pi1 > 0.3}")
    assert law.expectation(above) == law.expectation(as_float) == pytest.approx(0.6, abs=1e-15)
    got, want = (ec.gamma_matrix([f, ec.pi2], law) for f in (above, as_float))
    assert got.entries.tobytes() == want.entries.tobytes()
    assert got.entries[0, 0] == pytest.approx(0.24, abs=1e-15)


def test_a_call_never_hands_back_an_input_array():
    x, y = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
    for f, arg in ((ec.pi1, x), (ec.pi2, y), (ec.pi1.with_label("x"), x),
                   (StatFunction(lambda x, y: y, "second"), y)):
        out = f(x, y)
        assert out is not arg
        out[0] = -1.0
        assert x.tolist() == [1.0, 2.0, 3.0] and y.tolist() == [4.0, 5.0, 6.0]


@pytest.mark.parametrize("make, error, message", [
    (lambda: ec.pi1 / ec.pi2, ec.EvaluationError,
     r"^pi1 / pi2: division by a function is not supported$"),
    (lambda: 1.0 / ec.pi1, ec.EvaluationError,
     r"^1\.0 / pi1: division by a function is not supported$"),
    (lambda: ec.pi1 / 0, ec.EvaluationError, r"^pi1 / 0: division by zero$"),
    (lambda: ec.pi1 * None, ec.EvaluationError, r"^pi1 \* None: the operand is not a number$"),
    (lambda: ec.pi1(np.ones(2), np.ones(3)), ec.EvaluationError, r"^pi1: shape mismatch"),
    (lambda: ec.from_mean(ec.pi1, "a"), ec.ExpansionError, r"^the mean of pi1 is not a number: 'a'$"),
    (lambda: ec.gn_eval(ec.PairedSample([0.0, 1.0], [1.0, 2.0]), ec.pi1, None), ec.EvaluationError,
     r"^the mean of pi1 is not a number: None$"),
], ids=["function/function", "number/function", "function/0", "function*None",
        "unbroadcastable", "from_mean", "gn_eval"])
def test_a_bad_operand_is_a_typed_error_that_names_it(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_a_huge_power_takes_about_two_products_a_bit(monkeypatch):
    import empcalc.functions as functions
    calls = []
    mul = functions._poly_mul

    def counted(a, b):  # fails at once, where k - 1 products would never return
        calls.append(1)
        assert len(calls) <= 2 * 71, "more than two products a bit of k"
        return mul(a, b)

    monkeypatch.setattr(functions, "_poly_mul", counted)
    for k in (2 ** 70, 2 ** 70 - 1):
        calls.clear()
        assert (ec.pi1 ** k).poly == {(k, 0): 1.0}


@pytest.mark.parametrize("f", [ec.pi1 + 2 * ec.pi2 - 0.5, 0.3 * ec.pi1 - 0.7 * ec.pi2 + 0.1,
                               (ec.pi1 + 1e-3) * (ec.pi2 - 7.0)], ids=repr)
def test_a_power_by_squaring_is_the_repeated_product(f):
    product = f
    for k in range(2, 9):
        product = product * f
        power, want = (f ** k).poly, product.poly
        assert power.keys() == want.keys()
        for key, v in want.items():
            assert abs(power[key] - v) <= 1e-15 * abs(v), (k, key)
