"""Exact rational arithmetic helpers and the package's argument checks.

Every utility, weight, share and factor this package takes is exact, an
int or a `fractions.Fraction`, and every value it reports is a Fraction;
the kernels in between work on the same values scaled to ints by their
common denominator (see `scg.model`).  Positive infinity (used for the
relationship-imbalance parameter and for improvement factors over a zero
baseline) is `math.inf`, which orders correctly against Fraction values,
so no wrapper type is needed.

The argument checks live here: `_exact_alpha` and `_int` refuse a float,
a bool or a str where an exact value or an int belongs, naming the field.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

INF = math.inf

#: Rational stand-in for sqrt(2) used by the 3-player cyclic instance.
SQRT2_APPROX = Fraction(14142135, 10**7)

#: Rational stand-in for the golden ratio (lower end of the hybrid range).
PHI_APPROX = Fraction(1618, 1000)


class ParseError(ValueError):
    """Malformed instance text; the message names the offending field."""


#: The value types exact arithmetic takes, matched by exact type (a set
#: lookup, cheap enough for every entry of a large instance); bool is
#: left out, as it is an int to Python but never a payoff.
_EXACT = frozenset((int, Fraction))


def _inexact(where, value):
    return ValueError(f"{where}: expected an int or Fraction, "
                      f"got {type(value).__name__}")


def _not_int(where, value):
    return ValueError(f"{where}: expected an int, got {type(value).__name__}")


def _exact_alpha(alpha, name="alpha"):
    """alpha as a Fraction, or an error naming `name` if it is inexact."""
    if type(alpha) not in _EXACT:
        raise _inexact(name, alpha)
    return alpha if type(alpha) is Fraction else Fraction(alpha)


def _int(value, name):
    """value if it is an int (not a bool), else an error naming `name`."""
    if type(value) is not int:
        raise _not_int(name, value)
    return value


#: The wire grammar, ASCII only: `int()` alone would also take "1_0", " 7 ",
#: "+3" and digits such as "٣".
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_int(text):
    """`int(text)` for text matching -?[0-9]+, else a ValueError."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_rational(text, field="value"):
    """Parse an int (not a bool), or a string "p" or "p/q" of ASCII digits
    with an optional minus on p, exactly."""
    if type(text) is int:
        return Fraction(text)
    if not isinstance(text, str):
        raise ParseError(f"{field}: expected rational string, got {type(text).__name__}")
    match = _RATIONAL.fullmatch(text)
    if match:
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError):  # too many digits, or q = 0
            pass
    raise ParseError(f"{field}: not a rational: {text!r}")


def rational_reader(pairs=None):
    """A `parse_rational` for one file that keeps each good string's value,
    so it parses each once; given a dict `pairs`, as int pairs kept there."""
    memo = {} if pairs is None else pairs

    def read(text, field):
        if type(text) is str and text in memo:
            return memo[text]
        value = parse_rational(text, field)
        value = value if pairs is None else value.as_integer_ratio()
        if type(text) is str:
            memo[text] = value
        return value
    return read


def _decode(text, prefix=""):
    """`json.loads(text)`; malformed text raises a ParseError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting
        raise ParseError(f"{prefix}malformed JSON: {exc}") from exc


def load_object(text, fields):
    """Decode JSON text that must be an object holding every one of
    `fields`; a ParseError names what is wrong."""
    data = _decode(text)
    if not isinstance(data, dict):
        raise ParseError("top level: expected object")
    for key in fields:
        if key not in data:
            raise ParseError(f"{key}: missing field")
    return data


def _as_list(value, field):
    """`value` if it is a JSON list, else a ParseError naming `field`."""
    if not isinstance(value, list):
        raise ParseError(f"{field}: expected a list")
    return value


def load_list(text, field):
    """Decode JSON text that must be a list; a ParseError names `field`."""
    return _as_list(_decode(text, f"{field}: "), field)


def _construct(game_type, *args, **fields):
    """`game_type(*args, **fields)`; a rejection is raised as a ParseError."""
    try:
        return game_type(*args, **fields)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from exc


def format_rational(x):
    """Render a Fraction (or inf) as the wire form "p/q" / "p" / "inf"."""
    if x == INF:
        return "inf"
    num, den = x.as_integer_ratio()
    return str(num) if den == 1 else f"{num}/{den}"


def rational_writer():
    """A `format_rational` for one file's exact values or reduced int pairs,
    formatting each once, keyed on the pair: a Fraction hashes slowly."""
    memo = {}

    def write(x):
        key = x if type(x) is tuple else x.as_integer_ratio()
        if key not in memo:
            memo[key] = str(key[0]) if key[1] == 1 else "%d/%d" % key
        return memo[key]
    return write


def at_least_sqrt2_times(x, y):
    """Exact test of ``x >= sqrt(2) * y`` for nonnegative x, y.

    Decided by comparing squares, so no rational approximation of sqrt(2)
    ever enters the comparison.
    """
    if x < 0 or y < 0:
        raise ValueError("squared comparison requires nonnegative operands")
    return x * x >= 2 * y * y


def supermodular_alpha(r):
    """Smallest rational p/10**6 >= (r + sqrt(r*(r+4))) / 2, exactly.

    For r = a/b the bound reads 2bp - 10**6 a >= sqrt(D) with D =
    10**12 a(a + 4b); its left side is an int, so it holds iff it reaches
    ceil(sqrt(D)), and p is the ceiling of (10**6 a + ceil(sqrt(D))) / 2b.
    """
    if _exact_alpha(r, "supermodularity degree") < 1:
        raise ValueError("supermodularity degree must be >= 1")
    a, b = r.as_integer_ratio()
    den = 10**6
    root = math.isqrt(den * den * a * (a + 4 * b) - 1) + 1  # D > 0: r >= 1
    return Fraction(-(-(den * a + root) // (2 * b)), den)
