import itertools
import math
import re
from fractions import Fraction

import pytest

from scg.generators import (example1, random_hypergraph_cc, random_instance,
                            random_omega, random_supermodular)
from scg.generalized import Hyperedge, HypergraphGame
from scg.model import (Edge, GameInstance, InstanceStats, instance_stats,
                       parse_instance, player_utility, serialize_instance,
                       welfare, welfare_total)
from scg.rationals import ParseError, SQRT2_APPROX

R2 = SQRT2_APPROX


def two_player(w1=4, w2=5, edge_w=6, share=Fraction(1, 2)):
    return GameInstance(
        n=2, m=2,
        intrinsic=((Fraction(w1), Fraction(0)), (Fraction(0), Fraction(w2))),
        edges=(Edge(0, 1, Fraction(edge_w), share),))


def test_cyclic_instance_utilities():
    g = example1(1)
    u0 = player_utility(g, (2, 2, 3), 0)
    assert u0[0] == 2  # intrinsic 1 at strategy 2 plus full edge with player 1
    assert player_utility(g, (2, 2, 3), 1)[0] == R2
    assert player_utility(g, (2, 2, 3), 2)[0] == R2
    w = welfare(g, (2, 2, 3))
    assert w.total == 2 + 2 * R2
    assert abs(float(w.total) - 4.8284) < 1e-3


def test_cyclic_instance_all_together():
    g = example1(1)
    w = welfare(g, (1, 1, 1))
    assert w.intrinsic_total == R2 + 1
    assert w.coordination_total == 3
    assert abs(float(w.total) - 5.4142) < 1e-3


def test_welfare_identities_on_random_instances():
    for seed in range(20):
        g = random_instance(5, 3, seed)
        for profile in itertools.product((1, 2, 3), repeat=5):
            b = welfare(g, profile)
            assert b.total == sum(b.per_player)
            assert b.total == b.intrinsic_total + b.coordination_total
            assert b.total == welfare_total(g, profile)


@pytest.mark.parametrize("family", ["omega", "hypergraph", "table"])
def test_welfare_total_answers_on_every_family(family):
    """Beyond pairwise games, `welfare_total` sums the players' utilities,
    as `welfare` does."""
    for seed in range(1, 6):
        g = {"omega": lambda: random_omega(4, 2, seed),
             "hypergraph": lambda: random_hypergraph_cc(5, 2, seed)[0],
             "table": lambda: random_supermodular(4, 2, 1, seed),
             }[family]()
        for profile in itertools.product(range(1, g.m + 1), repeat=g.n):
            total = welfare_total(g, profile)
            assert type(total) is Fraction
            assert total == welfare(g, profile).total


def test_totals_dominate_every_profile():
    for seed in range(10):
        g = random_instance(4, 3, seed + 100)
        stats = instance_stats(g)
        for profile in itertools.product((1, 2, 3), repeat=4):
            b = welfare(g, profile)
            assert b.intrinsic_total <= stats.a_total
            assert b.coordination_total <= stats.p_total


def test_joining_never_hurts_others():
    for seed in range(10):
        g = random_instance(4, 3, seed + 200)
        for profile in itertools.product((1, 2, 3), repeat=4):
            for i in range(4):
                for k in range(1, 4):
                    moved = profile[:i] + (k,) + profile[i + 1:]
                    for j in range(4):
                        if j == i or profile[j] != k:
                            continue
                        assert (player_utility(g, moved, j)[0]
                                >= player_utility(g, profile, j)[0])


def test_stats_on_cyclic_instance():
    g = example1(1)
    stats = instance_stats(g)
    assert stats.k_star == 1  # per-strategy sums tie; lowest index wins
    assert stats.mri == math.inf  # one-sided splits
    assert stats.a_total == 3 * R2
    assert stats.p_total == 3


def test_mri_values():
    g = two_player(share=Fraction(2, 3))
    assert instance_stats(g).mri == 2
    assert instance_stats(two_player()).mri == 1
    edge_free = GameInstance(n=2, m=2,
                             intrinsic=((Fraction(1), Fraction(0)),) * 2,
                             edges=())
    assert instance_stats(edge_free).mri == 1


def test_zero_weight_edge_share_ignored_in_mri():
    g = GameInstance(n=2, m=2,
                     intrinsic=((Fraction(1), Fraction(0)),) * 2,
                     edges=(Edge(0, 1, Fraction(0), Fraction(1)),))
    assert instance_stats(g).mri == 1


def test_stats_of_omega_games_and_pair_hypergraphs():
    # pairs (0,1), (0,2), (1,2) split 2:15 at omega 1/2, 8:3 and 20:1
    stats = instance_stats(random_omega(3, 2, 1))
    assert stats.best == (0, 0, 0) and stats.a_total == 0
    assert stats.p_total == Fraction(17, 2) + 11 + 21
    assert (stats.k_star, stats.mri) == (1, 20)
    hg = HypergraphGame(n=3, m=2, edges=(
        Hyperedge((0, 1), Fraction(2), (Fraction(1, 3), Fraction(2, 3))),
        Hyperedge((1, 2), Fraction(0), (Fraction(0), Fraction(1))),
        Hyperedge((2,), Fraction(5), (Fraction(1),), anchor=2)))
    assert instance_stats(hg) == InstanceStats(
        best=(0, 0, 5), a_total=5, p_total=2, k_star=2, mri=2)


@pytest.mark.parametrize("game", [random_supermodular(3, 2, 1, 1),
                                  random_hypergraph_cc(3, 2, 1)[0]],
                         ids=["table", "group-of-three"])
def test_stats_refuse_a_table_and_larger_groups(game):
    with pytest.raises(ValueError, match="^instance_stats: mri has no "
                                         "stated meaning on a table"):
        instance_stats(game)


def test_validation_rejects_bad_structure():
    row = ((Fraction(1), Fraction(0)),)
    with pytest.raises(ValueError, match="self-loop"):
        GameInstance(n=1, m=2, intrinsic=row,
                     edges=(Edge(0, 0, Fraction(1), Fraction(1, 2)),))
    with pytest.raises(ValueError, match="duplicate"):
        GameInstance(n=2, m=2, intrinsic=row * 2,
                     edges=(Edge(0, 1, Fraction(1), Fraction(1, 2)),
                            Edge(1, 0, Fraction(1), Fraction(1, 2))))
    with pytest.raises(ValueError, match="negative"):
        GameInstance(n=2, m=2, intrinsic=row * 2,
                     edges=(Edge(0, 1, Fraction(-1), Fraction(1, 2)),))


def test_serialize_parse_round_trip():
    for seed in range(10):
        g = random_instance(5, 3, seed + 300)
        assert parse_instance(serialize_instance(g)) == g
    g = example1(1)
    assert parse_instance(serialize_instance(g)) == g


def test_parse_errors_name_fields():
    with pytest.raises(ParseError, match="share out of range"):
        parse_instance('{"n":2,"m":1,"intrinsic":[["1"],["1"]],'
                       '"edges":[{"i":0,"j":1,"w":"1","share_ij":"3/2"}]}')
    # value rules are checked once, by GameInstance, whose messages name
    # the field
    with pytest.raises(ParseError,
                       match="^intrinsic\\[1\\]\\[0\\]: negative entry$"):
        parse_instance('{"n":2,"m":1,"intrinsic":[["1"],["-1"]],"edges":[]}')
    with pytest.raises(ParseError,
                       match="^edge \\(0,1\\)\\.w: negative weight$"):
        parse_instance('{"n":2,"m":1,"intrinsic":[["1"],["1"]],'
                       '"edges":[{"i":0,"j":1,"w":"-1","share_ij":"1/2"}]}')
    for share in ("3/2", "-1/2"):
        with pytest.raises(ParseError, match="^edge \\(0,1\\)\\.share_ij: "
                                             "share out of range$"):
            parse_instance('{"n":2,"m":1,"intrinsic":[["1"],["1"]],'
                           '"edges":[{"i":0,"j":1,"w":"1","share_ij":"'
                           + share + '"}]}')
    with pytest.raises(ParseError, match="malformed JSON"):
        parse_instance("{")
    with pytest.raises(ParseError, match="intrinsic"):
        parse_instance('{"n":2,"m":1,"intrinsic":[["1"]],"edges":[]}')
    with pytest.raises(ParseError, match="edges\\[0\\]\\.w"):
        parse_instance('{"n":2,"m":1,"intrinsic":[["1"],["1"]],'
                       '"edges":[{"i":0,"j":1,"w":"x","share_ij":"1/2"}]}')


def test_repeated_strings_decode_once_and_name_the_first_bad_field():
    # one bad string in four fields: the first of them, in file order, is
    # named, whichever the parser reaches through a parsed-string memo
    with pytest.raises(ParseError,
                       match="^intrinsic\\[0\\]\\[1\\]: not a rational: 'x'$"):
        parse_instance('{"n":2,"m":2,"intrinsic":[["1/2","x"],["x","1/2"]],'
                       '"edges":[{"i":0,"j":1,"w":"x","share_ij":"x"}]}')
    with pytest.raises(ParseError, match="^edges\\[0\\]\\.share_ij: "
                                         "not a rational: '2/0'$"):
        parse_instance('{"n":2,"m":1,"intrinsic":[["1"],["1"]],"edges":['
                       '{"i":0,"j":1,"w":"1","share_ij":"2/0"},'
                       '{"i":1,"j":0,"w":"2/0","share_ij":"1/2"}]}')
    # a JSON number is not a string: 1 decodes, 1.0 is refused by name
    with pytest.raises(ParseError, match="^intrinsic\\[1\\]\\[0\\]: expected"):
        parse_instance('{"n":2,"m":1,"intrinsic":[[1],[1.0]],"edges":[]}')
    g = parse_instance('{"n":2,"m":2,"intrinsic":[["2/4","1/2"],["3",3]],'
                       '"edges":[{"i":0,"j":1,"w":"1/2","share_ij":"1/2"}]}')
    half = Fraction(1, 2)
    assert g.intrinsic == ((half, half), (Fraction(3), Fraction(3)))
    assert g.edges == (Edge(0, 1, half, half),)
    assert all(type(v) is Fraction for row in g.intrinsic for v in row)


def test_exact_rational_round_trip():
    text = ('{"n":1,"m":1,"intrinsic":[["7/3"]],"edges":[]}')
    g = parse_instance(text)
    assert g.intrinsic[0][0] == Fraction(7, 3)
    assert parse_instance(serialize_instance(g)) == g


@pytest.mark.parametrize("endpoint", ['"0"', "true", "0.0", "null"])
def test_parse_rejects_non_integer_endpoints(endpoint):
    text = ('{"n":2,"m":1,"intrinsic":[["1"],["1"]],'
            '"edges":[{"i":' + endpoint + ',"j":1,"w":"1","share_ij":"1/2"}]}')
    with pytest.raises(ParseError, match="edges\\[0\\]\\.i"):
        parse_instance(text)


@pytest.mark.parametrize("bad,where", [
    (dict(intrinsic=((0.1, Fraction(0)),) * 2), "intrinsic\\[0\\]\\[0\\]"),
    (dict(intrinsic=((Fraction(1), True),) * 2), "intrinsic\\[0\\]\\[1\\]"),
    (dict(edges=(Edge(0, 1, 1.5, Fraction(1, 2)),)), "\\(0,1\\)\\.w"),
    (dict(edges=(Edge(0, 1, False, Fraction(1, 2)),)), "\\(0,1\\)\\.w"),
    (dict(edges=(Edge(0, 1, Fraction(1), 0.5),)), "share_ij"),
    (dict(n=2.0), "^n: expected an int"),
    (dict(m=True), "^m: expected an int"),
    (dict(edges=(Edge(0.0, 1, Fraction(1), Fraction(1, 2)),)), "\\.i: "),
    (dict(edges=(Edge(0, True, Fraction(1), Fraction(1, 2)),)), "\\.j: "),
])
def test_constructor_rejects_floats_and_bools(bad, where):
    fields = dict(n=2, m=2, intrinsic=((Fraction(1), Fraction(0)),) * 2,
                  edges=())
    fields.update(bad)
    with pytest.raises(ValueError, match=where):
        GameInstance(**fields)
    # plain ints stay exact values
    GameInstance(n=1, m=2, intrinsic=((3, 0),), edges=())


@pytest.mark.parametrize("call,error,message", [
    (lambda: parse_instance('{"n":2,"m":1,"intrinsic":[["1"],["1"]],'
                            '"edges":[5]}'),
     ParseError, "edges[0]: expected object"),
    (lambda: parse_instance('{"n":2,"m":1,"intrinsic":[["1"],["1"]],'
                            '"edges":[{"i":0,"w":"1","share_ij":"1/2"}]}'),
     ParseError, "edges[0]: missing endpoint"),
    (lambda: GameInstance(n=2, m=2, intrinsic=((1, 0), (1,)), edges=()),
     ValueError, "intrinsic[1]: expected m entries"),
    (lambda: GameInstance(n=2, m=1, intrinsic=((1,), (1,)),
                          edges=(Edge(0, 2, 1, Fraction(1, 2)),)),
     ValueError, "edge (0,2): player index out of range"),
    (lambda: two_player().validate_profile((1, 2, 1)),
     ValueError, "profile length must equal player count"),
    (lambda: player_utility(two_player(), (1, 2), 2),
     IndexError, "player index 2 out of range"),
    (lambda: player_utility(two_player(), (1, 2), 0, strategy=3),
     ValueError, "strategy 3 out of range 1..2"),
    (lambda: player_utility(two_player(), (1, 2), True),
     ValueError, "player index: expected an int, got bool"),
    (lambda: player_utility(two_player(), (1, 2), "0"),
     ValueError, "player index: expected an int, got str"),
    (lambda: player_utility(two_player(), (1, 2), 0, strategy=True),
     ValueError, "strategy: expected an int, got bool"),
    (lambda: player_utility(two_player(), (1, 2), 0, strategy="2"),
     ValueError, "strategy: expected an int, got str"),
    (lambda: player_utility(two_player(), (1, 2), 0, strategy=2.0),
     ValueError, "strategy: expected an int, got float"),
], ids=["edge-not-object", "edge-missing-endpoint", "short-intrinsic-row",
        "endpoint-out-of-range", "profile-length", "player-index",
        "deviation-strategy", "bool-player-index", "str-player-index",
        "bool-strategy", "str-strategy", "float-strategy"])
def test_rejections_give_their_exact_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("bad", [1.0, True, "1", None])
def test_profile_strategies_must_be_ints(bad):
    g = two_player()
    with pytest.raises(ValueError, match="profile\\[1\\]: expected an int"):
        g.validate_profile((1, bad))
    with pytest.raises(ValueError, match="profile\\[1\\]"):
        welfare(g, (2, bad))
    with pytest.raises(ValueError, match="profile\\[0\\]: strategy 3 out"):
        g.validate_profile((3, 1))
