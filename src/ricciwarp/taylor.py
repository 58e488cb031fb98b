"""Truncated power series, solved order by order (Taylor mode).

A :class:`Series` stands for ``t^p (c[0] + c[1] s + c[2] s^2 + ...)`` in
``s = t^2``, with an integer ``p``, so that an odd or even series keeps
only the coefficients that can be nonzero.  Its arithmetic is plain: +,
-, * and / with another series or a number, and :meth:`Series.derivative`,
so a function written for floats runs on series unchanged.  Division
needs no special case for a leading factor of t: it subtracts the powers
``p``, so ``(1 - a'^2) / a^2`` with ``a = t (1 + ...)`` is a series of
power -2 whose first coefficient is 0.  Each operation is a node of a tape
that computes one more coefficient per order from its inputs'
coefficients (Taylor mode: A. Griewank and A. Walther, *Evaluating
Derivatives*, SIAM, 2008, ch. 13; A. Jorba and M. Zou, Exp. Math., 2005).

:func:`solve` finds the coefficients of the leaf series order by order.
The coefficients that an order adds to the leaves are its unknowns, and
every node's new coefficient is affine in them: each node carries its
derivative in the unknowns (its tangent, one lane per unknown), so an
order costs one pass over the tape, a linear solve of at most three
unknowns and an update of each new coefficient.

The module knows nothing of the rows whose series it solves and imports
nothing of the package.  Its ``__all__`` is empty.
"""

from __future__ import annotations

from operator import mul

__all__ = []

_NO_LANES = (0.0, 0.0, 0.0)   # the tangent of a coefficient no unknown moves
_LANES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


class Series:
    """``t^p (c[0] + c[1] s + ...)``, ``s = t^2``: a leaf, whose
    coefficients the caller extends, or a node of its ``tape``.

    A node's ``step`` appends its next coefficient ``c[i]``, computed with
    the inputs' coefficients as they stand, and sets ``d`` to its tangent:
    the part of ``c[i]`` that moves with the order's unknowns, which enter
    only through the last coefficient of each input (its top).  An input
    whose top is not the coefficient that ``c[i]`` reads adds nothing.
    ``inputs`` pairs each input with the shift of its index, and ``need``
    (set by :func:`solve`) is the index, less the order, of the last
    coefficient the equations read.
    """

    __slots__ = ("tape", "p", "c", "d", "inputs", "need", "step")

    def __init__(self, tape: list, p: int, c=None):
        self.tape, self.p = tape, p
        self.c = [] if c is None else c
        self.d, self.inputs, self.need, self.step = _NO_LANES, (), None, None
        tape.append(self)

    def _sum(self, v, sign):
        u = self
        if (u.p - v.p) % 2:
            raise ValueError("a sum of an odd and an even series")
        p = min(u.p, v.p)
        su, sv = (u.p - p) // 2, (v.p - p) // 2
        w = Series(u.tape, p)
        uc, vc, c = u.c, v.c, w.c

        def step():
            i = len(c)
            c.append((uc[i - su] if i >= su else 0.0)
                     + sign * (vc[i - sv] if i >= sv else 0.0))
            du = u.d if len(uc) - 1 == i - su else _NO_LANES
            dv = v.d if len(vc) - 1 == i - sv else _NO_LANES
            if dv is _NO_LANES:
                w.d = du
            else:
                w.d = (du[0] + sign * dv[0], du[1] + sign * dv[1],
                       du[2] + sign * dv[2])

        w.inputs, w.step = ((u, su), (v, sv)), step
        return w

    def _plus(self, x, sign):
        """``x + sign * self`` for a number ``x``."""
        u = self
        if u.p % 2:
            raise ValueError("a sum of an odd series and a number")
        p = min(u.p, 0)
        su, at = (u.p - p) // 2, -p // 2   # x is the coefficient of t^0
        w = Series(u.tape, p)
        uc, c = u.c, w.c

        def step():
            i = len(c)
            y = sign * uc[i - su] if i >= su else 0.0
            c.append(y + x if i == at else y)
            du = u.d if len(uc) - 1 == i - su else _NO_LANES
            w.d = (du if sign > 0 or du is _NO_LANES
                   else (-du[0], -du[1], -du[2]))

        w.inputs, w.step = ((u, su),), step
        return w

    def _scale(self, x):
        u = self
        w = Series(u.tape, u.p)
        uc, c = u.c, w.c

        def step():
            i = len(c)
            c.append(x * uc[i])
            du = u.d
            w.d = (_NO_LANES if du is _NO_LANES or len(uc) - 1 != i
                   else (x * du[0], x * du[1], x * du[2]))

        w.inputs, w.step = ((u, 0),), step
        return w

    def _product(self, v):
        u = self
        w = Series(u.tape, u.p + v.p)
        uc, vc, c = u.c, v.c, w.c

        def step():
            i = len(c)
            c.append(sum(map(mul, uc[:i + 1], vc[i::-1])))
            du = u.d if len(uc) - 1 == i else _NO_LANES
            dv = v.d if len(vc) - 1 == i else _NO_LANES
            if du is _NO_LANES and dv is _NO_LANES:
                w.d = _NO_LANES
            else:
                x, y = vc[0], uc[0]
                w.d = (du[0] * x + dv[0] * y, du[1] * x + dv[1] * y,
                       du[2] * x + dv[2] * y)

        w.inputs, w.step = ((u, 0), (v, 0)), step
        return w

    def _quotient(self, v):
        u = self
        w = Series(u.tape, u.p - v.p)
        uc, vc, c = u.c, v.c, w.c

        def step():
            i = len(c)
            y = vc[0]
            c.append((uc[i] - sum(map(mul, vc[1:i + 1], c[::-1]))) / y)
            du = u.d if len(uc) - 1 == i else _NO_LANES
            dv = v.d if len(vc) - 1 == i else _NO_LANES
            if du is _NO_LANES and dv is _NO_LANES:
                w.d = _NO_LANES
            else:
                q = c[0]
                w.d = ((du[0] - dv[0] * q) / y, (du[1] - dv[1] * q) / y,
                       (du[2] - dv[2] * q) / y)

        w.inputs, w.step = ((u, 0), (v, 0)), step
        return w

    def derivative(self) -> "Series":
        """d/dt: ``t^(p-1)`` with the coefficients ``(p + 2 i) c[i]``."""
        u = self
        w = Series(u.tape, u.p - 1)
        uc, c, p = u.c, w.c, u.p

        def step():
            i = len(c)
            f = p + 2 * i
            c.append(f * uc[i])
            du = u.d
            w.d = (_NO_LANES if du is _NO_LANES or len(uc) - 1 != i
                   else (f * du[0], f * du[1], f * du[2]))

        w.inputs, w.step = ((u, 0),), step
        return w

    def __add__(self, other):
        if isinstance(other, Series):
            return self._sum(other, 1.0)
        return self._plus(float(other), 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Series):
            return self._sum(other, -1.0)
        return self._plus(-float(other), 1.0)

    def __rsub__(self, other):
        return self._plus(float(other), -1.0)

    def __mul__(self, other):
        if isinstance(other, Series):
            return self._product(other)
        return self._scale(float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._quotient(other)


def _solve(J, e):
    """``x`` with ``J x + e = 0`` for 2 or 3 unknowns, by Cramer's rule."""
    if len(e) == 2:
        (a, b), (c, d) = J
        det = a * d - b * c
        return [(b * e[1] - d * e[0]) / det, (c * e[0] - a * e[1]) / det]
    (a, b, c), (d, f, g), (h, i, j) = J
    cof = (f * j - g * i, g * h - d * j, d * i - f * h)
    det = a * cof[0] + b * cof[1] + c * cof[2]
    adj = (cof,
           (c * i - b * j, a * j - c * h, b * h - a * i),
           (b * g - c * f, c * d - a * g, a * f - b * d))
    return [-(x * e[0] + y * e[1] + z * e[2]) / det for x, y, z in zip(*adj)]


def solve(leaves, equations, given=None):
    """Extend the coefficients of the ``leaves`` order by order, yielding
    each order K = 1, 2, ... once it is solved.

    ``leaves`` are ``(series, top)`` pairs: at order K the coefficient
    ``K + top`` of each leaf series is one unknown, unless ``given`` (a
    dict) maps ``(K, leaf index)`` to its value.  Each equation ``(e,
    power)`` says that the coefficient of ``t^(2K + power)`` of the series
    ``e`` vanishes at every order K >= 1.  An order with n unknowns solves
    them from its first n equations, whose tangents there must be
    nonsingular.  Order 0 is the coefficients that the leaves hold: every
    node computes what those fix before order 1.

    Raises ``ValueError`` if the equations read a leaf coefficient past the
    order's unknowns, or an equation's series past its equation (they do
    not fix the series order by order), and ``ZeroDivisionError`` on a zero
    leading coefficient of a divisor or a singular order.
    """
    given = given or {}
    tape = leaves[0][0].tape
    for e, power in equations:
        e.need = (power - e.p) // 2
    for w in reversed(tape):   # the tape is in creation order: inputs first
        if w.need is not None:
            for u, shift in w.inputs:
                if u.need is None or u.need < w.need - shift:
                    u.need = w.need - shift
    if any(e.need != (power - e.p) // 2 for e, power in equations):
        raise ValueError("an equation's series is read past its equation")
    for leaf, top in leaves:
        if leaf.need is not None and leaf.need > top:
            raise ValueError("the equations read a leaf past its unknown")
        leaf.need = top
    nodes = [w for w in tape if w.step is not None and w.need is not None]
    for w in nodes:
        while len(w.c) <= w.need:
            w.step()
    # the nodes that order K extends: those it reads at an index >= 0
    first = max(0, -min(w.need for w in nodes))
    extend = [[w for w in nodes if order + w.need >= 0]
              for order in range(first + 1)]
    order = 0
    while True:
        order += 1
        unknowns = []
        for j, (leaf, _) in enumerate(leaves):
            if (order, j) in given:
                leaf.c.append(given[order, j])
            else:
                leaf.c.append(0.0)
                leaf.d = _LANES[len(unknowns)]
                unknowns.append(leaf)
        extended = extend[min(order, first)]
        for w in extended:
            w.step()
        n = len(unknowns)
        x0, x1, x2 = _solve([e.d[:n] for e, _ in equations[:n]],
                            [e.c[-1] for e, _ in equations[:n]]
                            ) + [0.0] * (3 - n)
        for w in extended:
            d = w.d
            if d is not _NO_LANES:
                w.c[-1] += d[0] * x0 + d[1] * x1 + d[2] * x2
        for leaf, value in zip(unknowns, (x0, x1, x2)):
            leaf.c[-1], leaf.d = value, _NO_LANES
        yield order
