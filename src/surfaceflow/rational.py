"""Exact rational arithmetic used throughout the package.

All flow values and potentials are rationals; floats only ever appear
inside the LP warm-start heuristic.  The LP layer works on integers: its
answer is int numerators over one denominator per vector, and a ``QQ`` is
made only where a value leaves it.  ``QQ`` is ``fractions.Fraction``.
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


def floor_rat(value):
    """Floor of a rational, as a plain int."""
    f = Fraction(value)
    return f.numerator // f.denominator
