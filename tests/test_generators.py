import re
from fractions import Fraction

import pytest

from scg.analysis import brute_force_optimum, equilibrium_census
from scg.generalized import triangle_game
from scg.generators import (example1, prop5, random_cc, random_hypergraph_cc,
                            random_instance, random_omega, random_supermodular,
                            random_symmetric, symmetric_pos_tight)
from scg.model import instance_stats, serialize_instance, welfare_total
from scg.potentials import PotentialCertificate, cc_recover
from scg.rationals import SQRT2_APPROX


def test_cyclic_instance_shape():
    g = example1(1)
    assert (g.n, g.m) == (3, 3)
    for i in range(3):
        assert g.intrinsic[i][i] == SQRT2_APPROX
        assert g.intrinsic[i][(i + 1) % 3] == 1
    assert all(e.share_ij == 1 and e.w == 1 for e in g.edges)
    g2 = example1(Fraction(5, 2))
    assert g2.intrinsic[0][0] == SQRT2_APPROX * Fraction(5, 2)
    with pytest.raises(ValueError):
        example1(0)


@pytest.mark.parametrize("value", [0.1, True, "1/2"])
def test_family_parameters_refuse_an_inexact_value(value):
    """A float would become its binary fraction: example1(0.1) would weigh
    3602879701896397/36028797018963968."""
    for name, build in (("r", lambda: example1(value)),
                        ("r", lambda: prop5(3, value)),
                        ("eps", lambda: prop5(3, 1, value)),
                        ("r", lambda: symmetric_pos_tight(3, value)),
                        ("eps", lambda: symmetric_pos_tight(3, 1, value)),
                        ("omega", lambda: random_omega(3, 2, 0, omega=value)),
                        ("c", lambda: triangle_game(value))):
        with pytest.raises(ValueError, match=(
                f"^{name}: expected an int or Fraction, "
                f"got {type(value).__name__}$")):
            build()


PAIRWISE_SIZE = "need n >= 1 and m >= 1"


@pytest.mark.parametrize("call,message", [
    (lambda: symmetric_pos_tight(1), "need m >= 2, r > 0, eps > 0"),
    (lambda: random_instance(0, 2, 0), PAIRWISE_SIZE),
    (lambda: random_cc(2, 0, 0), PAIRWISE_SIZE),
    (lambda: random_symmetric(-1, 2, 0), PAIRWISE_SIZE),
    (lambda: random_supermodular(9, 2, 1, 0),
     "n must be in 1..8 (tables are exponential in n)"),
    (lambda: random_supermodular(0, 2, 2, 0),
     "n must be in 1..8 (tables are exponential in n)"),
    (lambda: random_omega(2, 0, 0), PAIRWISE_SIZE),
    (lambda: random_hypergraph_cc(1, 2, 0), "need n >= 2 and m >= 1"),
], ids=["symmetric-pos-tight", "random-instance", "random-cc",
        "random-symmetric", "supermodular-n-9", "supermodular-n-0",
        "random-omega", "random-hypergraph"])
def test_size_checks_give_their_exact_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_star_family_shape():
    g = prop5(4, 1, Fraction(1, 100))
    assert (g.n, g.m) == (4, 4)
    assert g.intrinsic[0] == (1, 1, 1, 1)
    assert g.intrinsic[2][2] == Fraction(2, 100)
    for e in g.edges:
        assert e.i == 0 and e.w == 1 + Fraction(1, 100)
        assert e.share_ij == Fraction(1) / (1 + Fraction(1, 100))
    with pytest.raises(ValueError):
        prop5(1, 1, Fraction(1, 100))


def test_even_split_star_optimum():
    for m in (3, 4):
        eps = Fraction(1, 10_000)
        g = symmetric_pos_tight(m, 1, eps)
        _, opt = brute_force_optimum(g)
        assert opt == (2 * m - 1) + eps  # everyone gathered with the hub


def test_even_split_star_stability_gap():
    m = 4
    g = symmetric_pos_tight(m, 1, Fraction(1, 10_000))
    c = equilibrium_census(g, Fraction(1))
    assert c.exists
    assert float(c.pos) > 2 - Fraction(1, m) - Fraction(1, 100)
    assert c.pos <= 2 - Fraction(1, m)


def test_generation_is_deterministic():
    a = serialize_instance(random_instance(6, 3, 123))
    b = serialize_instance(random_instance(6, 3, 123))
    assert a == b
    assert a != serialize_instance(random_instance(6, 3, 124))
    g1, gam1 = random_cc(5, 3, 7)
    g2, gam2 = random_cc(5, 3, 7)
    assert serialize_instance(g1) == serialize_instance(g2) and gam1 == gam2


def test_random_instances_have_finite_imbalance():
    import math
    for seed in range(20):
        g = random_instance(6, 3, seed)
        assert instance_stats(g).mri != math.inf


def test_generated_splits_are_recoverable():
    for seed in range(20):
        g, _ = random_cc(6, 3, seed)
        assert isinstance(cc_recover(g), PotentialCertificate)


def test_symmetric_generator_uses_even_splits():
    g = random_symmetric(6, 3, 5)
    assert all(e.share_ij == Fraction(1, 2) for e in g.edges)


def test_supermodular_generator_respects_bound():
    from scg.generalized import supermodularity_degree
    for seed in range(10):
        assert supermodularity_degree(random_supermodular(4, 2, 1, seed)) == 1
        assert supermodularity_degree(random_supermodular(4, 2, 2, seed)) <= 2
    with pytest.raises(ValueError):
        random_supermodular(4, 2, 3, 0)


def test_omega_generator_always_has_a_feasible_state():
    for seed in range(30):
        og = random_omega(5, 2, seed)
        found = False
        import itertools
        for p in itertools.product((1, 2), repeat=5):
            if og.feasible(p):
                found = True
                break
        assert found


def test_hypergraph_generator_shares_sum_to_one():
    hg, gamma = random_hypergraph_cc(5, 3, 3)
    for e in hg.edges:
        assert sum(e.shares) == 1
        total = sum(gamma[i] for i in e.players)
        assert e.shares == tuple(gamma[i] / total for i in e.players)


#: Each generator's int arguments, as (generator, valid arguments, the
#: position and the name of one int argument)
INT_ARGUMENTS = [
    (prop5, (3,), 0, "m"),
    (symmetric_pos_tight, (3,), 0, "m"),
    *[(gen, (3, 2, 1), pos, name)
      for gen in (random_instance, random_cc, random_symmetric, random_omega,
                  random_hypergraph_cc)
      for pos, name in enumerate(("n", "m", "seed"))],
    *[(random_supermodular, (3, 2, 1, 1), pos, name)
      for pos, name in enumerate(("n", "m", "r", "seed"))],
]


@pytest.mark.parametrize("value", [1.0, True, "1"],
                         ids=["float", "bool", "str"])
@pytest.mark.parametrize(
    "gen,args,pos,name", INT_ARGUMENTS,
    ids=[f"{gen.__name__}-{name}" for gen, _, _, name in INT_ARGUMENTS])
def test_generators_refuse_a_non_int_size_seed_or_bound(gen, args, pos, name,
                                                        value):
    """A float, a bool or a str where an int belongs is refused by name,
    not drawn from, multiplied or counted as it came."""
    gen(*args)
    with pytest.raises(ValueError, match=(
            f"^{name}: expected an int, got {type(value).__name__}$")):
        gen(*args[:pos], value, *args[pos + 1:])


@pytest.mark.parametrize("n,seed", [(2, 0), (6, 3), (9, 11)])
def test_a_float_edge_probability_draws_as_its_exact_fraction(n, seed):
    """0.5 is exactly 1/2, so it keeps the same pairs as the default."""
    assert (random_instance(n, 3, seed, edge_prob=0.5)
            == random_instance(n, 3, seed))
