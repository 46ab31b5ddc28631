"""Numeric modes shared by every layer.

Instances run either in exact mode (every scalar is an ``int`` or a
``fractions.Fraction``, every comparison is exact) or in float mode (an ``int``
or a binary64 ``float``); a bool is never a scalar.  Float mode has one
tolerance rule, relative so that it means the same at any coordinate scale:
``a`` and ``b`` count as equal when ``|a - b| <= EPS_TIGHT * max(1, |a|, |b|)``.
``leq`` and ``eq`` apply it; the engine's tight-pair scan inlines it.  Values
are immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int, float]

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)

# Relative tolerance of float-mode comparisons; below magnitude 1 it is absolute.
EPS_TIGHT = 1e-9


def is_scalar(x, mode: str) -> bool:
    """Whether ``x`` is a scalar of ``mode`` (see above)."""
    return isinstance(x, (int, Fraction) if mode == EXACT else (int, float)) and not isinstance(x, bool)


class ScalarError(ValueError):
    """A JSON value does not encode a scalar valid for the numeric mode."""


def parse_scalar(value, mode: str) -> Scalar:
    """Decode a JSON number into the mode's representation.

    Exact mode accepts integers and ``"p/q"`` strings (JSON doubles cannot
    carry exact rationals); float mode accepts any JSON number and, for
    compatibility with exact documents, rational strings.
    """
    if isinstance(value, bool):
        raise ScalarError(f"not a scalar: {value!r}")
    if mode == EXACT:
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ScalarError(f"bad rational literal {value!r}: {exc}") from None
        raise ScalarError(
            f"exact mode requires an integer or 'p/q' string, got {value!r}"
        )
    if mode == FLOAT:
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(Fraction(value))
            except (ValueError, ZeroDivisionError) as exc:
                raise ScalarError(f"bad rational literal {value!r}: {exc}") from None
        raise ScalarError(f"float mode requires a JSON number, got {value!r}")
    raise ScalarError(f"unknown numeric mode {mode!r}")


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
