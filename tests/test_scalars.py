import json
import sys
from fractions import Fraction
from math import inf, nan, nextafter

import pytest

from delaymatch.scalars import (
    EPS_TIGHT,
    EXACT,
    FLOAT,
    ScalarError,
    dump_ratio,
    dump_scalar,
    eq,
    is_scalar,
    leq,
    parse_scalar,
    tol,
)


def test_exact_parses_ints_and_rational_strings():
    assert parse_scalar(7, EXACT) == Fraction(7)
    assert parse_scalar("3/4", EXACT) == Fraction(3, 4)
    assert parse_scalar("-11/2", EXACT) == Fraction(-11, 2)
    assert isinstance(parse_scalar(0, EXACT), Fraction)


def test_exact_rejects_floats_bools_and_garbage():
    with pytest.raises(ScalarError):
        parse_scalar(0.5, EXACT)
    with pytest.raises(ScalarError):
        parse_scalar(True, EXACT)
    with pytest.raises(ScalarError):
        parse_scalar("3/0", EXACT)
    with pytest.raises(ScalarError):
        parse_scalar("pi", EXACT)
    with pytest.raises(ScalarError):
        parse_scalar(None, EXACT)


def test_float_parses_numbers_and_rational_strings():
    assert parse_scalar(2, FLOAT) == 2.0
    assert parse_scalar(0.25, FLOAT) == 0.25
    assert parse_scalar("1/2", FLOAT) == 0.5
    assert isinstance(parse_scalar(2, FLOAT), float)
    with pytest.raises(ScalarError):
        parse_scalar(True, FLOAT)
    with pytest.raises(ScalarError):
        parse_scalar([1], FLOAT)
    # Only finite binary64 values: no NaN, no infinity, nothing out of range.
    for value in (nan, inf, -inf, 10**400, -(10**400), "1e400", "-1e400"):
        with pytest.raises(ScalarError):
            parse_scalar(value, FLOAT)
    assert parse_scalar("1e400", EXACT) == 10**400  # exact mode has no range


def test_float_scalars_end_at_the_largest_finite_double():
    top = sys.float_info.max
    assert is_scalar(top, FLOAT) and is_scalar(-top, FLOAT) and is_scalar(int(top), FLOAT)
    assert not is_scalar(int(top) + 1, FLOAT) and not is_scalar(-int(top) - 1, FLOAT)
    assert parse_scalar(int(top), FLOAT) == top


def test_unknown_mode_rejected():
    with pytest.raises(ScalarError):
        parse_scalar(1, "decimal")


def test_dump_integral_rationals_as_ints():
    assert dump_scalar(Fraction(6, 2), EXACT) == 3
    assert dump_scalar(Fraction(1, 3), EXACT) == "1/3"
    assert dump_scalar(0.5, FLOAT) == 0.5


def test_dump_ratio_is_dump_scalar_of_the_fraction():
    for num in range(-13, 14):
        for den in (1, 2, 3, 6, 12, 35):
            assert dump_ratio(num, den) == dump_scalar(Fraction(num, den), EXACT), (num, den)
    assert dump_ratio(-(10**30), 4 * 10**20) == -2500000000
    assert dump_ratio(10**30 + 1, 10**20) == f"{10**30 + 1}/{10**20}"


def test_dump_parse_round_trip_exact():
    for value in [Fraction(0), Fraction(5), Fraction(-7, 3), Fraction(123456, 789)]:
        assert parse_scalar(dump_scalar(value, EXACT), EXACT) == value


def test_tightness_is_exact_in_exact_mode():
    # A constraint is tight when its value reaches the budget: leq(budget, value).
    assert leq(Fraction(3), Fraction(3), EXACT)
    assert not leq(Fraction(3), Fraction(3) - Fraction(1, 10**12), EXACT)


def test_tightness_tolerates_eps_in_float_mode():
    assert leq(3.0, 3.0 - EPS_TIGHT / 2, FLOAT)
    assert not leq(3.0, 3.0 - 10 * EPS_TIGHT, FLOAT)


def test_comparisons_follow_mode():
    assert leq(Fraction(1), Fraction(1), EXACT)
    assert not leq(Fraction(1) + Fraction(1, 10**12), Fraction(1), EXACT)
    assert leq(1.0 + EPS_TIGHT / 2, 1.0, FLOAT)
    assert eq(1.0 + EPS_TIGHT / 2, 1.0, FLOAT)
    assert not eq(1.0 + 1e-6, 1.0, FLOAT)


def test_float_tolerance_is_relative_above_magnitude_one():
    assert leq(1e12, 1e12 - 100.0, FLOAT)
    assert not leq(1e12, 1e12 - 1e4, FLOAT)
    assert eq(1e12 + 100.0, 1e12, FLOAT)
    assert not eq(1e-3 + 1e-8, 1e-3, FLOAT)  # absolute below magnitude 1
    assert leq(1e12 + 100.0, 1e12, FLOAT)
    assert not leq(1e12 + 1e4, 1e12, FLOAT)


def test_tol_is_absolute_up_to_one_and_relative_above():
    assert tol(0.0) == tol(1e-300) == tol(1.0) == EPS_TIGHT
    assert tol(2.0) == 2 * EPS_TIGHT
    assert tol(1e308) == EPS_TIGHT * 1e308


@pytest.mark.parametrize("magnitude", [1.0, 1e-300, 1e308], ids=["1", "1e-300", "1e308"])
def test_leq_and_eq_keep_the_larger_magnitude_formula(magnitude):
    # The value-pair forms read ``tol`` at max(|a|, |b|), which is the
    # formula EPS_TIGHT * max(1, |a|, |b|) bit for bit, at each edge.
    def near(x):
        return [x, nextafter(x, 0.0), nextafter(x, inf), -x]

    base = near(magnitude)
    values = {0.0, *base}
    for x in base:
        for d in (x * EPS_TIGHT, EPS_TIGHT):
            values.update(near(x + d) + near(x - d) + near(x * (1 + EPS_TIGHT)))
    values = [v for v in values if abs(v) <= sys.float_info.max]
    for a in values:
        for b in values:
            bound = EPS_TIGHT * max(1.0, abs(a), abs(b))
            assert leq(a, b, FLOAT) == (a <= b + bound), (a, b)
            assert eq(a, b, FLOAT) == (abs(a - b) <= bound), (a, b)


def _through_fraction(value, mode):
    """``parse_scalar`` of a string as it reads every string it has no int
    path for: through ``Fraction(str)``."""
    try:
        frac = Fraction(value)
        return frac if mode == EXACT else float(frac)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ScalarError(f"bad rational literal {value!r}: {exc}") from None


def _outcome(parse, value, mode):
    """The type and repr of what ``parse`` returns (repr keeps -0.0 apart
    from 0.0), or its error message."""
    try:
        x = parse(value, mode)
    except ScalarError as exc:
        return ScalarError, str(exc)
    return type(x), repr(x)


def _string_tokens(doc, out):
    """Add to ``out`` every string value in a JSON document but the names
    of a variant, a mode or a kind."""
    if isinstance(doc, str):
        out.add(doc)
    elif isinstance(doc, list):
        for x in doc:
            _string_tokens(x, out)
    elif isinstance(doc, dict):
        for key, x in doc.items():
            if key not in ("variant", "mode", "kind"):
                _string_tokens(x, out)


EDGE_TOKENS = (
    "0/0", "+1/2", " 1/2", "1/2 ", "1/2\n", "1/-2", "-1/-2", "1_0/3", "10/3_0", "١/٢", "1/２",
    "1.5", "1e3", "-0/5", "0/7", "007/014", "-12/8", "3/0", "-3/00", "1/", "/2", "-/2", "--1/2", "1//2", "1/2/3",
    "5", "-5", "", "/", "pi", "1e400", "9" * 5000 + "/7", "7/" + "9" * 5000, "1/" + "0" * 5000,
)


def test_ratio_strings_parse_as_through_fraction():
    """Every string time and position token of the benchmark's three
    corpora at seeds 1 and 2 (instances and traces), and edge cases, parse
    in both modes to the value and type, or the error message, that
    ``Fraction(str)`` gives."""
    from delaymatch.engine import events_to_jsonl, run
    from delaymatch.instance import instance_json
    from test_engine import perfbench_instances

    tokens = set()
    for seed in (1, 2):
        for inst in perfbench_instances(seed):
            _string_tokens(json.loads(instance_json(inst)), tokens)
            for line in events_to_jsonl(run(inst)).splitlines():
                _string_tokens(json.loads(line), tokens)
    assert len(tokens) > 500 and all("/" in t for t in tokens)
    for token in (*sorted(tokens), *EDGE_TOKENS):
        for mode in (EXACT, FLOAT):
            assert _outcome(parse_scalar, token, mode) == _outcome(_through_fraction, token, mode), (token, mode)
