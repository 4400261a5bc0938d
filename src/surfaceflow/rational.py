"""Exact rational arithmetic used throughout the package.

All flow values and potentials are rationals; floats only ever appear
inside the LP warm-start heuristic.  The package computes on integers: the
LP answers int numerators over one denominator per vector
(``lp.LPResult``), and a multiflow holds int numerators over one
denominator (``flows.Multiflow``).  A ``QQ`` is made only where a value
leaves that form: the LP's snap and its objective value, the multicut's
cost, ``Multiflow.value``, and ``rat``'s parse of outside input.
``rat_str`` writes a value from its ints and makes none.  ``QQ`` is
``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

QQ = Fraction
ZERO = QQ(0)


def rat(value) -> QQ:
    """Coerce ints, Fractions or ``"p/q"`` and decimal strings to QQ.

    Bools and floats are refused, and so are exponent strings such as
    ``"1e5000"``: ``rat_str`` never writes one, and a short exponent can
    ask for an integer of any size.
    """
    if type(value) is QQ:
        return value
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError("exponent notation is not accepted: %r"
                             % (value,))
        return QQ(value)
    if isinstance(value, (bool, float)):
        raise TypeError("%s is not accepted as an exact rational: %r"
                        % (type(value).__name__, value))
    return QQ(value)


def rat_str(value, denom: int = 1) -> str:
    """Serialize ``value / denom`` as a reduced ``"p/q"``, always with the
    slash (``"3/1"``); ``value`` is an int or a ``QQ``, ``denom`` a
    positive int."""
    num, den = value.numerator, value.denominator * denom
    g = gcd(num, den)
    return "%d/%d" % (num // g, den // g)


def floor_rat(value) -> int:
    """Floor of an int or a ``QQ``, as a plain int."""
    return value.numerator // value.denominator
