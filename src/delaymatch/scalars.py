"""Numeric modes shared by every layer.

Instances run either in exact mode (every scalar is an ``int`` or a
``fractions.Fraction``, every comparison is exact) or in float mode (an ``int``
or a ``float`` that binary64 holds as a finite value: no NaN, no infinity, no
int beyond ``sys.float_info.max``); a bool is never a scalar.  ``is_scalar``
is the one statement of this rule; every door of an instance or a trace asks
it.  Values are immutable and safe to share between threads.

Float mode has one tolerance, ``tol(c)``: ``EPS_TIGHT * c`` above magnitude
1 and ``EPS_TIGHT`` below it, so it means the same at any coordinate scale.
Every float comparison in the package reads it, in one of two forms:

* two values ``a`` and ``b`` take the larger magnitude, ``M = max(|a|,
  |b|)``: ``leq`` is ``a <= b + tol(M)`` and ``eq`` is ``|a - b| <= tol(M)``;
* a pair's value ``x`` against its budget ``c`` (distance plus arrival gap)
  takes the budget as the magnitude: the pair is tight when ``c - tol(c) <=
  x``, within budget when ``x <= c + tol(c)``, and a value in both is tight
  at its budget.

The budget is the magnitude because it is fixed while the value rises:
the engine's tightness test and the certifier's tightness and feasibility
tests then compute the same edges, ``c - tol(c)`` and ``c + tol(c)``,
whatever value a run reaches, so a pair the engine logs tight is tight to
the certifier unless it is over budget.  Exact mode has no tolerance: ``leq`` and ``eq`` compare
exactly, a pair is tight when ``x == c`` and within budget when ``x <= c``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd
from typing import Union

Scalar = Union[Fraction, int, float]

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)

# The float tolerance's relative factor; below magnitude 1 it is absolute (``tol``).
EPS_TIGHT = 1e-9

# Types are matched exactly, so a bool (an int subclass) is never a scalar.
_EXACT_TYPES = frozenset((int, Fraction))
_FLOAT_TYPES = frozenset((int, float))
_FLOAT_MAX = sys.float_info.max


def is_scalar(x, mode: str) -> bool:
    """Whether ``x`` is a scalar of ``mode`` (see above).  The float range
    test is False for NaN, the infinities and ints binary64 cannot hold."""
    if mode == EXACT:
        return type(x) in _EXACT_TYPES
    return type(x) in _FLOAT_TYPES and abs(x) <= _FLOAT_MAX


# A strict "p/q" literal: its numerator and denominator as ASCII digit strings.
_RATIO = re.compile(r"(-?[0-9]+)/([0-9]+)").fullmatch


class ScalarError(ValueError):
    """A JSON value does not encode a scalar valid for the numeric mode."""


def parse_scalar(value, mode: str) -> Scalar:
    """Decode a JSON value into the mode's representation.

    A ``"p/q"`` string is read as a rational (JSON doubles cannot carry exact
    rationals); any other value must be a scalar of the mode as it stands.
    Exact mode returns a ``Fraction``, float mode a finite ``float``.  A
    string of ASCII digits, an optional leading minus, a slash and a nonzero
    ASCII denominator is read from its two ints; every other string goes
    through ``Fraction(str)``, which gives such a string the same value.
    """
    if mode not in MODES:
        raise ScalarError(f"unknown numeric mode {mode!r}")
    if isinstance(value, str):
        try:
            ratio = _RATIO(value)
            if ratio is not None and (q := int(ratio[2])):
                frac = Fraction(int(ratio[1]), q)
            else:
                frac = Fraction(value)
            return frac if mode == EXACT else float(frac)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ScalarError(f"bad rational literal {value!r}: {exc}") from None
    if not is_scalar(value, mode):
        if mode == EXACT:
            raise ScalarError(f"exact mode requires an integer or 'p/q' string, got {value!r}")
        raise ScalarError(f"float mode requires a finite JSON number, got {value!r}")
    return Fraction(value) if mode == EXACT else float(value)


def dump_scalar(value: Scalar, mode: str):
    """Encode a scalar for JSON.  Integral rationals become plain ints."""
    if mode == EXACT:
        frac = value if type(value) is Fraction else Fraction(value)
        if frac.denominator == 1:
            return int(frac)
        return f"{frac.numerator}/{frac.denominator}"
    return float(value)


def dump_ratio(num: int, den: int):
    """``dump_scalar`` of the exact value ``num / den`` for ints ``num`` and
    ``den > 0``, without building a Fraction."""
    g = gcd(num, den)
    if g == den:
        return num // den
    return f"{num // g}/{den // g}"


def tol(c: float) -> float:
    """The float tolerance at magnitude ``c`` (see above)."""
    return EPS_TIGHT * c if c > 1.0 else EPS_TIGHT


def leq(a: Scalar, b: Scalar, mode: str) -> bool:
    """``a <= b`` up to the mode's tolerance."""
    if mode == EXACT:
        return a <= b
    return a <= b + tol(max(abs(a), abs(b)))


def eq(a: Scalar, b: Scalar, mode: str) -> bool:
    """``a == b`` up to the mode's tolerance."""
    if mode == EXACT:
        return a == b
    return abs(a - b) <= tol(max(abs(a), abs(b)))
