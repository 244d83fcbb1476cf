"""Exact rational arithmetic helpers.

Every utility, weight, share and factor this package takes is exact, an
int or a `fractions.Fraction`, and every value it reports is a Fraction;
the kernels in between work on the same values scaled to ints by their
common denominator (see `scg.model`).  Positive infinity (used for the
relationship-imbalance parameter and for improvement factors over a zero
baseline) is `math.inf`, which orders correctly against Fraction values,
so no wrapper type is needed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

INF = math.inf

#: Rational stand-in for sqrt(2) used by the 3-player cyclic instance.
SQRT2_APPROX = Fraction(14142135, 10**7)

#: Rational stand-in for the golden ratio (lower end of the hybrid range).
PHI_APPROX = Fraction(1618, 1000)


class ParseError(ValueError):
    """Malformed instance text; the message names the offending field."""


def parse_rational(text, field="value"):
    """Parse "p/q" or a plain integer string into an exact Fraction."""
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ParseError(f"{field}: expected rational string, got {type(text).__name__}")
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{field}: not a rational: {text!r}") from exc


def rational_reader():
    """A `parse_rational` for one file, parsing each distinct string once.
    A bad string is never kept, so it names the first field holding it."""
    memo = {}

    def read(text, field):
        if type(text) is not str:
            return parse_rational(text, field)
        if text not in memo:
            memo[text] = parse_rational(text, field)
        return memo[text]
    return read


def load_object(text, fields):
    """Decode JSON text that must be an object holding every one of
    `fields`; a ParseError names what is wrong."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
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


def format_rational(x):
    """Render a Fraction (or inf) as the wire form "p/q" / "p" / "inf"."""
    if x == INF:
        return "inf"
    num, den = x.as_integer_ratio()
    return str(num) if den == 1 else f"{num}/{den}"


def rational_writer():
    """A `format_rational` for one file's exact values, formatting each once,
    keyed on the (numerator, denominator) pair: a Fraction hashes slowly."""
    memo = {}

    def write(x):
        key = x.as_integer_ratio()
        if key not in memo:
            memo[key] = format_rational(x)
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


def supermodular_alpha(r, denominator=10**6):
    """Smallest rational p/denominator >= (r + sqrt(r*(r+4))) / 2.

    The exact threshold is irrational for most r; the result is verified by
    exact squared comparison, so the returned rational is the true ceiling
    at the given denominator.
    """
    r = Fraction(r)
    if r < 1:
        raise ValueError("supermodularity degree must be >= 1")
    disc = r * (r + 4)

    def is_upper(p):
        # p/denominator >= (r + sqrt(disc))/2  <=>  (2p/den - r)^2 >= disc
        lhs = 2 * Fraction(p, denominator) - r
        return lhs >= 0 and lhs * lhs >= disc

    # denominator * (r + sqrt(disc)) / 2 for r = a/b, less at most two
    # units, computed in integers: a float guess overflows for huge r
    a, b = r.numerator, r.denominator
    p = (denominator * a
         + math.isqrt(a * (a + 4 * b) * denominator * denominator)) // (2 * b)
    while not is_upper(p):
        p += 1
    while p > 0 and is_upper(p - 1):
        p -= 1
    return Fraction(p, denominator)
