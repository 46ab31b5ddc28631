"""Numeric modes shared by every layer.

Instances run either in exact mode (every scalar is an ``int`` or a
``fractions.Fraction``, every comparison is exact) or in float mode (an ``int``
or a ``float`` that binary64 holds as a finite value: no NaN, no infinity, no
int beyond ``sys.float_info.max``); a bool is never a scalar.  ``is_scalar``
is the one statement of this rule; every door of an instance or a trace asks
it.  Float mode has one tolerance rule, relative so that it means the same at
any coordinate scale:
``a`` and ``b`` count as equal when ``|a - b| <= EPS_TIGHT * max(1, |a|, |b|)``.
``leq`` and ``eq`` apply it; the engine's tight-pair scan inlines it.  Values
are immutable and safe to share between threads.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int, float]

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)

# Relative tolerance of float-mode comparisons; below magnitude 1 it is absolute.
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


class ScalarError(ValueError):
    """A JSON value does not encode a scalar valid for the numeric mode."""


def parse_scalar(value, mode: str) -> Scalar:
    """Decode a JSON value into the mode's representation.

    A ``"p/q"`` string is read as a rational (JSON doubles cannot carry exact
    rationals); any other value must be a scalar of the mode as it stands.
    Exact mode returns a ``Fraction``, float mode a finite ``float``.
    """
    if mode not in MODES:
        raise ScalarError(f"unknown numeric mode {mode!r}")
    if isinstance(value, str):
        try:
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


def leq(a: Scalar, b: Scalar, mode: str) -> bool:
    """``a <= b`` up to the mode's tolerance."""
    if mode == EXACT:
        return a <= b
    return a <= b + EPS_TIGHT * max(1.0, abs(a), abs(b))


def eq(a: Scalar, b: Scalar, mode: str) -> bool:
    """``a == b`` up to the mode's tolerance."""
    if mode == EXACT:
        return a == b
    return abs(a - b) <= EPS_TIGHT * max(1.0, abs(a), abs(b))
