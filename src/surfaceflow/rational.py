"""Exact rational arithmetic used throughout the package.

All flow values and potentials are rationals; floats only ever appear
inside the LP warm-start heuristic, and the exact LP engine works on
integers.  ``QQ`` is ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

QQ = Fraction
ZERO = QQ(0)
ONE = QQ(1)


def rat(value) -> QQ:
    """Coerce ints, Fractions or ``"p/q"`` strings to QQ; bools and floats
    are refused."""
    if isinstance(value, str):
        return QQ(value)
    if isinstance(value, (bool, float)):
        raise TypeError("%s is not accepted as an exact rational: %r"
                        % (type(value).__name__, value))
    return QQ(value)


def rat_str(value) -> str:
    """Serialize a rational as ``"p/q"`` (always with the slash, e.g. ``"3/1"``)."""
    f = Fraction(value)
    return "%d/%d" % (f.numerator, f.denominator)


def numerators_over(values, denom: int) -> list:
    """Numerators of ``values`` over ``denom``, a common multiple of their
    denominators, as Python ints."""
    return [v.numerator * (denom // v.denominator) for v in values]


def floor_rat(value):
    """Floor of a rational, as a plain int."""
    f = Fraction(value)
    return f.numerator // f.denominator
