"""Truncated power series solved order by order: known series, given
coefficients, quotients by a leading power of t, and the refusals."""

import math

import numpy as np
import pytest

from ricciwarp.taylor import Series, solve


def _orders(leaves, equations, last, given=None):
    """Run :func:`solve` through order ``last``."""
    for order in solve(leaves, equations, given):
        if order == last:
            return


def _sin_cos():
    """sin = t (1 - t^2/6 + ...) and cos = 1 - t^2/2 + ..., two leaves of
    one tape, and their equations sin' - cos = 0 at t^(2K) and cos' + sin
    = 0 at t^(2K-1): two unknowns per order."""
    tape = []
    sin, cos = Series(tape, 1, [1.0]), Series(tape, 0, [1.0])
    return sin, cos, [(sin.derivative() - cos, 0),
                      (cos.derivative() + sin, -1)]


def _cosh():
    """cosh = 1 + t^2/2 + ..., one leaf, and y'' - y = 0 at t^(2K-2)."""
    tape = []
    y = Series(tape, 0, [1.0])
    return y, [(y.derivative().derivative() - y, -2)]


# the coefficients of t^(2i) of cosh and cos and of t^(2i+1) of sin
COSH = [1 / math.factorial(2 * i) for i in range(9)]
COS = [(-1) ** i / math.factorial(2 * i) for i in range(9)]
SIN = [(-1) ** i / math.factorial(2 * i + 1) for i in range(9)]


def test_cosh_one_unknown_per_order():
    y, equations = _cosh()
    _orders([(y, 0)], equations, 8)
    np.testing.assert_allclose(y.c, COSH, rtol=1e-15)


def test_sin_cos_two_unknowns_per_order():
    sin, cos, equations = _sin_cos()
    _orders([(sin, 0), (cos, 0)], equations, 8)
    np.testing.assert_allclose(sin.c, SIN, rtol=1e-15)
    np.testing.assert_allclose(cos.c, COS, rtol=1e-15)


def test_given_values():
    # a given coefficient is no unknown: cos's first order is given, so
    # that order solves sin alone from the first equation
    sin, cos, equations = _sin_cos()
    _orders([(sin, 0), (cos, 0)], equations, 8, given={(1, 1): -0.5})
    np.testing.assert_allclose(sin.c, SIN, rtol=1e-15)
    np.testing.assert_allclose(cos.c, COS, rtol=1e-15)
    # an order whose every coefficient is given solves nothing; the next
    # orders go on from the given one
    y, equations = _cosh()
    _orders([(y, 0)], equations, 8, given={(1, 0): 0.5})
    np.testing.assert_allclose(y.c, COSH, rtol=1e-15)
    y, equations = _cosh()
    _orders([(y, 0)], equations, 3, given={(1, 0): 1.0})
    np.testing.assert_allclose(y.c, [1.0, 1.0, 1 / 12, 1 / 360], rtol=1e-15)


def test_quotient_by_a_leading_power_of_t():
    # (1 - cos^2) / sin^2 = 1 is t^-2 (0 + t^2 + 0 t^4 + ...): a divisor
    # of power 2 gives a quotient of power -2, and its coefficients are
    # solved with sin and cos through a third leaf r = the quotient
    sin, cos, equations = _sin_cos()
    q = (1 - cos * cos) / (sin * sin)
    r = Series(sin.tape, -2, [0.0])
    _orders([(sin, 0), (cos, 0), (r, 0)], equations + [(r - q, -2)], 6)
    assert q.p == r.p == -2
    assert q.c[0] == 0.0
    np.testing.assert_allclose(r.c, [0.0, 1.0] + [0.0] * 5, atol=1e-15)
    np.testing.assert_allclose(q.c[:7], r.c, atol=1e-15)


def test_parity_refused():
    tape = []
    odd, even = Series(tape, 1, [1.0]), Series(tape, 0, [1.0])
    with pytest.raises(ValueError, match="a sum of an odd and an even"):
        odd + even
    with pytest.raises(ValueError, match="a sum of an odd series and a num"):
        odd + 1.0
    with pytest.raises(ValueError, match="a sum of an odd series and a num"):
        1.0 - odd


def test_equation_read_past_itself_refused():
    # the second equation reads the first's series one index past it
    y, [(e, power)] = _cosh()
    with pytest.raises(ValueError, match="read past its equation"):
        next(solve([(y, 0)], [(e, power), (e * y, 0)]))


def test_leaf_read_past_its_unknown_refused():
    # y'' - y at t^(2K) reads y at order K + 1
    y, [(e, _)] = _cosh()
    with pytest.raises(ValueError, match="a leaf past its unknown"):
        next(solve([(y, 0)], [(e, 0)]))


def test_singular_order():
    # one unknown whose equation does not move with it
    tape = []
    y = Series(tape, 0, [1.0])
    with pytest.raises(ZeroDivisionError):
        next(solve([(y, 0)], [(0.0 * y.derivative().derivative() - y, -2)]))
    # two unknowns and two proportional equations
    tape = []
    y, z = Series(tape, 0, [1.0]), Series(tape, 0, [1.0])
    e = y.derivative().derivative() - y
    with pytest.raises(ZeroDivisionError):
        next(solve([(y, 0), (z, 0)], [(e, -2), (2.0 * e, -2)]))


def test_zero_leading_divisor():
    tape = []
    y, d = Series(tape, 0, [1.0]), Series(tape, 0, [0.0])
    with pytest.raises(ZeroDivisionError):
        next(solve([(y, 0), (d, 0)],
                   [(y.derivative().derivative() - y / d, -2),
                    (d.derivative().derivative() - d, -2)]))
