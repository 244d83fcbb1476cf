import math
from fractions import Fraction

import pytest

from scg.generalized import parse_generalized, parse_hypergraph, parse_omega
from scg.model import parse_instance
from scg.potentials import PotentialCertificate
from scg.rationals import (INF, ParseError, _construct, at_least_sqrt2_times,
                           format_rational, load_list, load_object, parse_int,
                           parse_rational, rational_reader, rational_writer,
                           supermodular_alpha)

PARSERS = [parse_instance, parse_generalized, parse_hypergraph, parse_omega,
           PotentialCertificate.from_json]


def test_parse_plain_and_fraction():
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational(4) == Fraction(4)


# after the first eight, strings int() reads as integers ("1_0", " 7 ", "+3"
# and the Arabic-Indic digit three among them) and other near misses
@pytest.mark.parametrize("bad", ["", "1/0", "x", "1.5", None, [1], True,
                                 False, "1_0", " 7 ", "7\n", "+3", "+3/ 4",
                                 "3/+4", "3/-4", "\u0663", "\u00b2",
                                 "1/\u0663", "-", "1/"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_rational(bad, "w")


@pytest.mark.parametrize("bad", ["", "1_0", " 7", "7\n", "+3", "\u0663",
                                 "\u00b2", "1.0", "3/4", "-", "--1"])
def test_parse_int_takes_only_ascii_digits_and_one_minus(bad):
    with pytest.raises(ValueError, match="^not an integer: "):
        parse_int(bad)


def test_grammar_keeps_every_wire_form():
    for text, x in (("0", 0), ("-0", 0), ("007", 7), ("10/01", 10),
                    ("-12/8", Fraction(-3, 2)), ("3/4", Fraction(3, 4))):
        assert parse_rational(text) == x
    for text in ("0", "-0", "007", "-12", "98765432109876543210"):
        assert parse_int(text) == int(text)


def test_parse_error_names_field():
    with pytest.raises(ParseError, match="edges\\[0\\]\\.w"):
        parse_rational("nope", "edges[0].w")


@pytest.mark.parametrize("text,message", [
    ("{", "^malformed JSON"),
    ("[1]", "^top level: expected object"),
    ('"n"', "^top level: expected object"),
    ('{"n": 1}', "^m: missing field"),
])
def test_load_object_names_what_is_wrong(text, message):
    with pytest.raises(ParseError, match=message):
        load_object(text, ("n", "m"))
    assert load_object('{"n": 1, "m": 2, "x": 3}', ("n", "m"))["x"] == 3


# json.loads raises RecursionError on nesting this deep
DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("parse", PARSERS + [
    lambda text: load_object(text, ("n",)),
    lambda text: load_list(text, "gamma")])
def test_deep_nesting_is_malformed_json(parse):
    with pytest.raises(ParseError, match="^(gamma: )?malformed JSON: "
                                         "maximum recursion depth"):
        parse(DEEP)


@pytest.mark.parametrize("parse,text", [
    (parse_instance, '{"n": 1, "m": 0, "intrinsic": [[]], "edges": []}'),
    (parse_generalized, '{"n": 1, "m": 0, "tables": [[]]}'),
    (parse_hypergraph, '{"n": 1, "m": 0, "edges": []}'),
    (parse_omega, '{"n": 1, "m": 0, "a": ["1"], "b": ["1"], '
                  '"labels": [["zero"]], "omega": "1"}'),
])
def test_parsers_raise_the_constructors_message(parse, text):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == "need n >= 0 players and m >= 1 strategies"


@pytest.mark.parametrize("error", [ValueError, TypeError])
def test_construct_raises_a_rejection_as_a_parse_error(error):
    def reject(**fields):
        raise error(f"n: got {fields['n']}")

    with pytest.raises(ParseError, match="^n: got 3$"):
        _construct(reject, n=3)
    assert _construct(dict, n=3) == {"n": 3}


def test_format_round_trip():
    for x in (Fraction(7, 3), Fraction(5), Fraction(0), Fraction(-2, 9)):
        assert parse_rational(format_rational(x)) == x
    assert format_rational(INF) == "inf"


def test_format_and_its_writer_give_the_wire_strings():
    cases = {7: "7", -5: "-5", 0: "0", Fraction(6, 3): "2",
             Fraction(-3, 4): "-3/4", Fraction(7, 3): "7/3", 0.5: "1/2"}
    write = rational_writer()
    for x, text in [*cases.items(), *cases.items()]:
        assert format_rational(x) == write(x) == text
    # equal values of different types share one wire form
    assert write(Fraction(7)) == write(7) == "7"
    assert format_rational(INF) == "inf"


def test_reader_parses_each_string_once_and_keeps_no_failure():
    read = rational_reader()
    first = read("3/6", "a")
    assert first == Fraction(1, 2) and read("3/6", "b") is first
    assert read(4, "c") == Fraction(4) and read("4", "d") == 4
    for bad, field in (("x", "e"), ("x", "f"), (1.0, "g"), ([1], "h")):
        with pytest.raises(ParseError, match=f"^{field}: "):
            read(bad, field)
    assert read(1, "i") == 1
    with pytest.raises(ParseError, match="^j: "):
        read(1.0, "j")


def test_sqrt2_comparison_is_exact():
    # 14142136/10^7 is just above sqrt(2); 14142135/10^7 just below
    assert at_least_sqrt2_times(Fraction(14142136, 10**7), 1)
    assert not at_least_sqrt2_times(Fraction(14142135, 10**7), 1)
    assert at_least_sqrt2_times(Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        at_least_sqrt2_times(Fraction(-1), Fraction(1))


def test_gate_for_degree_one_is_golden_ratio_ceiling():
    a = supermodular_alpha(1)
    assert a == Fraction(1618034, 10**6)
    # exact: a is an upper bound, a - 1/10^6 is not
    assert (2 * a - 1) ** 2 >= 5
    assert (2 * (a - Fraction(1, 10**6)) - 1) ** 2 < 5


def test_gate_for_degree_two():
    a = supermodular_alpha(2)
    # threshold is 1 + sqrt(3)
    assert (a - 1) ** 2 >= 3
    assert (a - Fraction(1, 10**6) - 1) ** 2 < 3
    assert a < 3


def test_gate_exact_when_threshold_rational():
    # degree 4/... pick r where r(r+4) is a perfect square of a rational:
    # r = 9/2: disc = 9/2 * 17/2 -- not square; use r such that threshold rational:
    # threshold t satisfies t^2 = r(t+1); choose t = 3 -> r = 9/4
    a = supermodular_alpha(Fraction(9, 4))
    assert a == 3


@pytest.mark.parametrize("r", [0, Fraction(99, 100), -5])
def test_gate_refuses_a_degree_below_one(r):
    with pytest.raises(ValueError,
                       match="^supermodularity degree must be >= 1$"):
        supermodular_alpha(r)


@pytest.mark.parametrize("r,kind", [(0.1 + 1, "float"), (True, "bool"),
                                    ("7/3", "str")])
def test_gate_refuses_an_inexact_degree(r, kind):
    """A float, a bool or a string is refused by type, not read as the
    float's binary value, as 1 or as the rational it spells."""
    with pytest.raises(ValueError, match=(
            f"^supermodularity degree: expected an int or Fraction, "
            f"got {kind}$")):
        supermodular_alpha(r)


def test_gate_for_huge_degree_does_not_overflow():
    r = 10**400
    a = supermodular_alpha(r)
    # the threshold lies just below r + 1; a is its ceiling at 10^-6
    assert r < a <= r + 1
    assert (2 * a - r) ** 2 >= r * (r + 4)
    assert (2 * (a - Fraction(1, 10**6)) - r) ** 2 < r * (r + 4)


def test_gates_for_small_degrees_are_unchanged():
    numerators = (1618034, 2732051, 3791288, 4828428, 5854102, 6872984,
                  7887483, 8898980, 9908327, 10916080, 11922617, 12928204,
                  13933035, 14937254, 15940972, 16944272, 17947222, 18949875,
                  19952273, 20954452)
    for r, p in enumerate(numerators, 1):
        assert supermodular_alpha(r) == Fraction(p, 10**6)
