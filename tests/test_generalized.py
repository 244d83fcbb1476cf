import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from scg import generalized
from scg.analysis import SizeError
from scg.dynamics import one_shot_alpha_br
from scg.generalized import (TABLE_ENUM_CAP, GeneralizedGame, Hyperedge, HypergraphGame,
                             OmegaGame, TableError, additive_tables,
                             hypergraph_br_dynamics, hypergraph_cc_recover,
                             hypergraph_potential,
                             lex_compare, lex_strong_eq, mass_vector,
                             one_shot_generalized, parse_generalized,
                             parse_hypergraph, parse_omega,
                             serialize_generalized, serialize_hypergraph,
                             serialize_omega, supermodularity_degree,
                             triangle_game, triangle_nonexistence_check,
                             verify_generalized, verify_omega_strong,
                             welfare_generalized)
from scg.generators import (random_hypergraph_cc, random_instance,
                            random_omega, random_supermodular)
from scg.potentials import PotentialCertificate, RecoveryFailure, cc_recover
from scg.rationals import ParseError, supermodular_alpha

H = Fraction(1, 2)


def pair_table():
    # player 0 quadruples by merging her lonely group (worth 1 at either
    # strategy) with player 1's group (worth 1 to her as a joiner)
    t = {
        (0, 1, frozenset()): Fraction(1),
        (0, 1, frozenset({1})): Fraction(4),
        (0, 2, frozenset()): Fraction(1),
        (0, 2, frozenset({1})): Fraction(1),
        (1, 1, frozenset()): Fraction(1),
        (1, 1, frozenset({0})): Fraction(1),
        (1, 2, frozenset()): Fraction(1),
        (1, 2, frozenset({0})): Fraction(1),
    }
    return GeneralizedGame(n=2, m=2, tables=t)


def test_degree_of_additive_tables_is_one():
    for seed in range(10):
        g = random_instance(4, 3, seed)
        assert supermodularity_degree(additive_tables(g)) == 1


def test_degree_single_ratio():
    assert supermodularity_degree(pair_table()) == 2


def test_degree_infinite_on_jump_from_nothing():
    t = {
        (0, 1, frozenset()): Fraction(0),
        (0, 1, frozenset({1})): Fraction(3),
        (0, 2, frozenset()): Fraction(0),
        (0, 2, frozenset({1})): Fraction(0),
        (1, 1, frozenset()): Fraction(0),
        (1, 1, frozenset({0})): Fraction(0),
        (1, 2, frozenset()): Fraction(0),
        (1, 2, frozenset({0})): Fraction(0),
    }
    g = GeneralizedGame(n=2, m=2, tables=t)
    import math
    assert supermodularity_degree(g) == math.inf


def test_triangle_family_degree_finite():
    import math
    for c in (Fraction(3, 2), 2, 3):
        assert supermodularity_degree(triangle_game(c)) != math.inf


def test_absent_entry_is_an_error():
    g = pair_table()
    with pytest.raises(TableError):
        g.utility(0, 1, frozenset({0, 1}))


def test_triangle_minmax_factor_equals_parameter():
    for c in (Fraction(3, 2), Fraction(2), Fraction(3)):
        assert triangle_nonexistence_check(c) == c


def test_triangle_tables_contain_the_stated_powers():
    g = triangle_game(2)
    assert (g.n, g.m) == (3, 3)
    # player 0 favors strategy 1 and benefits from player 1
    assert g.utility(0, 1, frozenset()) == 4
    assert g.utility(0, 1, frozenset({1})) == 8
    assert g.utility(0, 2, frozenset()) == 2
    assert g.utility(0, 2, frozenset({1})) == 8
    assert g.utility(0, 3, frozenset({1})) == 2
    # the third player's presence never matters
    assert g.utility(0, 1, frozenset({2})) == 4
    assert g.utility(0, 1, frozenset({1, 2})) == 8


def test_one_shot_matches_pairwise_oracle_on_additive_tables():
    alpha = supermodular_alpha(1)
    for seed in range(15):
        g = random_instance(4, 3, seed + 100)
        gg = additive_tables(g)
        p1, trace = one_shot_alpha_br(g, 1, alpha)
        p2, used, moves = one_shot_generalized(gg, 1, alpha=alpha)
        assert p1 == p2 and used == alpha
        assert [(m.player, m.to_strategy, m.old_utility, m.new_utility)
                for m in trace.moves] == list(moves)


def test_one_shot_factor_beats_degree_plus_one():
    for seed in range(30):
        for r in (1, 2):
            gg = random_supermodular(4 + seed % 3, 2, r, seed)
            d = supermodularity_degree(gg)
            assert d <= r
            profile, used, _ = one_shot_generalized(gg, 1)
            mf = verify_generalized(gg, profile).max_factor
            assert mf <= max(used, d * (1 + 1 / used))
            assert mf < r + 1


def test_one_shot_single_player():
    t = {(0, k, frozenset()): Fraction(v) for k, v in ((1, 2), (2, 5))}
    g = GeneralizedGame(n=1, m=2, tables=t)
    profile, used, _ = one_shot_generalized(g, 1)
    assert profile == (2,)
    assert verify_generalized(g, profile).max_factor == 1


def test_one_shot_rejects_unbounded_tables():
    t = {
        (0, 1, frozenset()): Fraction(0),
        (0, 1, frozenset({1})): Fraction(3),
        (0, 2, frozenset()): Fraction(0),
        (0, 2, frozenset({1})): Fraction(0),
        (1, 1, frozenset()): Fraction(0),
        (1, 1, frozenset({0})): Fraction(0),
        (1, 2, frozenset()): Fraction(0),
        (1, 2, frozenset({0})): Fraction(0),
    }
    g = GeneralizedGame(n=2, m=2, tables=t)
    with pytest.raises(ValueError, match="unbounded"):
        one_shot_generalized(g, 1)


def test_degree_cap_counts_entry_pairs():
    # one player, m entries: m^2 pairs against the cap
    def one_row(m):
        return GeneralizedGame(n=1, m=m, tables={
            (0, k, frozenset()): Fraction(k) for k in range(1, m + 1)})

    side = math.isqrt(TABLE_ENUM_CAP)
    assert side ** 2 <= TABLE_ENUM_CAP < (side + 1) ** 2
    assert supermodularity_degree(one_row(side)) == 1
    big = one_row(side + 1)
    for _ in range(2):  # a SizeError is not kept: every query raises it
        with pytest.raises(SizeError, match="pairs"):
            supermodularity_degree(big)
    with pytest.raises(SizeError, match="pairs"):
        one_shot_generalized(big, 1)


def test_degree_is_computed_once_per_game(monkeypatch):
    calls = []
    compute = generalized._supermodularity_degree
    monkeypatch.setattr(generalized, "_supermodularity_degree",
                        lambda gg: calls.append(gg) or compute(gg))
    gg = pair_table()
    assert supermodularity_degree(gg) == 2
    _, alpha, _ = one_shot_generalized(gg, 1)
    assert alpha == supermodular_alpha(Fraction(2))
    assert supermodularity_degree(gg) == 2
    assert calls == [gg]
    supermodularity_degree(pair_table())  # a new game computes its own
    assert len(calls) == 2


@pytest.mark.parametrize("value", [0.5, True])
def test_table_rejects_floats_and_bools(value):
    with pytest.raises(ValueError, match="table entry \\(0,1,"):
        GeneralizedGame(n=1, m=1, tables={(0, 1, frozenset()): value})


@pytest.mark.parametrize("entry,field", [
    ({"strategy": 1, "others": "1"}, "tables[0][1].others"),
    ({"strategy": 1, "others": [True]}, "tables[0][1].others"),
    ({"strategy": 1, "others": 1}, "tables[0][1].others"),
    ({"strategy": "1", "others": []}, "tables[0][1].strategy"),
    ({"strategy": False, "others": []}, "tables[0][1].strategy"),
])
def test_parse_names_strategy_and_others(entry, field):
    entry["u"] = "1"
    text = json.dumps({"n": 2, "m": 1, "tables": [
        [{"strategy": 1, "others": [], "u": "1"}, entry], []]})
    with pytest.raises(ParseError) as exc:
        parse_generalized(text)
    assert str(exc.value).startswith(field)


@pytest.mark.parametrize("tables,field", [
    ([5], "tables[0]"),
    ([{"strategy": 1, "others": [], "u": "1"}], "tables[0]"),
])
def test_parse_names_a_non_list_entry_list(tables, field):
    with pytest.raises(ParseError) as exc:
        parse_generalized(json.dumps({"n": 1, "m": 1, "tables": tables}))
    assert str(exc.value).startswith(f"{field}: expected a list")


def test_generalized_json_round_trip():
    for c in (Fraction(3, 2), 2):
        g = triangle_game(c)
        assert parse_generalized(serialize_generalized(g)).tables == g.tables
    gg = random_supermodular(4, 2, 2, 9)
    assert parse_generalized(serialize_generalized(gg)).tables == gg.tables


# --- hypergraphs -------------------------------------------------------------


def test_pair_edges_reduce_to_pairwise_recovery():
    from scg.generators import random_cc
    g, _ = random_cc(5, 3, 42)
    edges = tuple(Hyperedge(players=(e.i, e.j), weight=e.w,
                            shares=(e.share_ij, Fraction(1) - e.share_ij))
                  for e in g.edges)
    hg = HypergraphGame(n=5, m=3, edges=edges)
    assert hypergraph_cc_recover(hg).gamma == cc_recover(g).gamma


def test_three_member_shares_recover_ratios():
    hg = HypergraphGame(n=3, m=2, edges=(
        Hyperedge(players=(0, 1, 2), weight=Fraction(6),
                  shares=(Fraction(1, 6), Fraction(2, 6), Fraction(3, 6))),))
    cert = hypergraph_cc_recover(hg)
    assert cert.gamma == (Fraction(1), Fraction(2), Fraction(3))


def test_inconsistent_hypergraph_shares_fail():
    hg = HypergraphGame(n=3, m=2, edges=(
        Hyperedge(players=(0, 1), weight=Fraction(1), shares=(H, H)),
        Hyperedge(players=(1, 2), weight=Fraction(1), shares=(H, H)),
        Hyperedge(players=(0, 2), weight=Fraction(1),
                  shares=(Fraction(1, 3), Fraction(2, 3))),))
    assert isinstance(hypergraph_cc_recover(hg), RecoveryFailure)


def test_anchored_edges_pay_only_at_their_strategy():
    hg = HypergraphGame(n=2, m=2, edges=(
        Hyperedge(players=(0, 1), weight=Fraction(4), shares=(H, H), anchor=2),))
    assert hg.utilities((2, 2), 0)[2 - 1] == 2
    assert hg.utilities((1, 1), 0)[1 - 1] == 0


def test_hypergraph_potential_is_ordinal_and_dynamics_converge():
    for seed in range(15):
        hg, _ = random_hypergraph_cc(4, 3, seed)
        cert = hypergraph_cc_recover(hg)
        assert isinstance(cert, PotentialCertificate)
        rng = random.Random(seed)
        terminal, _, reason = hypergraph_br_dynamics(
            hg, tuple(rng.randint(1, 3) for _ in range(4)))
        assert reason == "converged"
        for _ in range(150):
            profile = tuple(rng.randint(1, 3) for _ in range(4))
            i = rng.randrange(4)
            k = rng.randint(1, 3)
            if k == profile[i]:
                continue
            moved = profile[:i] + (k,) + profile[i + 1:]
            du = (hg.utilities(profile, i)[k - 1]
                  - hg.utilities(profile, i)[profile[i] - 1])
            dphi = (hypergraph_potential(hg, moved, cert)
                    - hypergraph_potential(hg, profile, cert))
            assert ((du > 0) - (du < 0)) == ((dphi > 0) - (dphi < 0))


@pytest.mark.parametrize("edges,message", [
    pytest.param(5, "edges: expected a list", id="5-edges"),
    pytest.param([{"players": 0, "w": "1", "shares": ["1"]}],
                 "edges[0].players: expected a list",
                 id="edges1-edges[0].players"),
    pytest.param([{"players": [0], "w": "1", "shares": "1"}],
                 "edges[0].shares: expected a list",
                 id="edges2-edges[0].shares"),
    pytest.param([{"players": [0], "w": "1", "shares": ["1"], "anchor": "1"}],
                 "edges[0].anchor: expected an int, got str",
                 id="edges3-edges[0].anchor"),
    pytest.param([{"players": [0], "w": "1", "shares": ["1"], "anchor": 1.0}],
                 "edges[0].anchor: expected an int, got float",
                 id="edges4-edges[0].anchor"),
])
def test_parse_hypergraph_names_a_non_list_field(edges, message):
    with pytest.raises(ParseError) as exc:
        parse_hypergraph(json.dumps({"n": 1, "m": 1, "edges": edges}))
    assert str(exc.value).startswith(message)


def test_hypergraph_json_round_trip():
    hg, _ = random_hypergraph_cc(4, 3, 5)
    assert parse_hypergraph(serialize_hypergraph(hg)) == hg


# --- conflict-aware games ------------------------------------------------------


def unit_omega(n, m, omega, conflicts=()):
    labels = [["zero"] * n for _ in range(n)]
    for i, j in conflicts:
        labels[i][j] = labels[j][i] = "conflict"
    return OmegaGame(n=n, m=m, a=(Fraction(1),) * n, b=(Fraction(1),) * n,
                     labels=tuple(tuple(r) for r in labels),
                     omega=Fraction(omega))


def test_lex_order_compares_sorted_vectors():
    assert lex_compare((3, 0), (2, 1)) > 0
    assert lex_compare((0, 3), (3, 0)) == 0
    assert lex_compare((2, 1), (2, 2)) < 0


def test_mass_concentration_is_lex_maximal():
    og = unit_omega(3, 2, H)
    profile, pi = lex_strong_eq(og)
    assert sorted(pi, reverse=True) == [3, 0]
    assert profile == (1, 1, 1)  # smallest profile among the tied maxima
    assert verify_omega_strong(og, profile, 1 / og.omega) is None


def test_conflicted_players_are_separated():
    og = unit_omega(3, 2, H, conflicts=[(0, 1)])
    profile, pi = lex_strong_eq(og)
    assert profile[0] != profile[1]
    assert sorted(pi, reverse=True) == [2, 1]


def test_no_feasible_state_is_an_error():
    og = unit_omega(3, 2, H, conflicts=[(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValueError):
        lex_strong_eq(og)


def test_full_bonus_gives_exact_group_stability():
    for seed in range(20):
        og = random_omega(4, 2, seed, omega=Fraction(1))
        profile, _ = lex_strong_eq(og)
        assert verify_omega_strong(og, profile, Fraction(1)) is None


def test_group_stability_scales_with_bonus():
    for seed in range(20):
        for om in (H, Fraction(3, 4)):
            og = random_omega(4, 2, seed, omega=om)
            profile, pi = lex_strong_eq(og)
            assert verify_omega_strong(og, profile, 1 / om) is None
            # returned mass vector dominates every feasible state's
            for alt in itertools.product((1, 2), repeat=4):
                if og.feasible(alt):
                    assert lex_compare(mass_vector(og, alt), pi) <= 0


def test_omega_json_round_trip():
    og = random_omega(4, 3, 11, omega=Fraction(3, 4))
    assert parse_omega(serialize_omega(og)) == og


@pytest.mark.parametrize("field,value", [
    ("a", 5), ("b", "1"), ("labels", {}), ("labels", [["zero", "zero"], 7]),
])
def test_parse_omega_names_a_non_list_field(field, value):
    data = json.loads(serialize_omega(unit_omega(2, 2, H)))
    data[field] = value
    name = "labels[1]" if field == "labels" and value != {} else field
    with pytest.raises(ParseError) as exc:
        parse_omega(json.dumps(data))
    assert str(exc.value) == f"{name}: expected a list"


def test_omega_size_guard_reads_like_every_other():
    og = unit_omega(15, 3, H)  # 3^15 profiles
    for check in (lambda: lex_strong_eq(og),
                  lambda: verify_omega_strong(og, (1,) * 15, 2)):
        with pytest.raises(SizeError, match="^profile space 3\\^15 "
                                            "exceeds cap 10000000$"):
            check()


def test_omega_zero_baseline_follows_the_package_rule():
    # a lone player has utility 0 everywhere: 0 -> 0 is factor 1, which
    # exceeds alpha only below 1
    og = unit_omega(1, 2, H)
    assert verify_omega_strong(og, (1,), Fraction(1, 2)) == (2,)
    assert verify_omega_strong(og, (1,), Fraction(1)) is None


def _omega(**fields):
    base = dict(n=2, m=2, a=(1, 1), b=(1, 1),
                labels=(("zero", "zero"), ("zero", "zero")), omega=H)
    base.update(fields)
    return OmegaGame(**base)


def _hypergraph(n=2, m=2, **edge):
    fields = dict(players=(0, 1), weight=Fraction(1), shares=(H, H))
    fields.update(edge)
    return HypergraphGame(n=n, m=m, edges=(Hyperedge(**fields),))


@pytest.mark.parametrize("build,where", [
    pytest.param(lambda: HypergraphGame(n=2, m=0, edges=()),
                 "^need n >= 0 players", id="hypergraph-m-0"),
    pytest.param(lambda: HypergraphGame(n=2.0, m=2, edges=()),
                 "^n: expected an int", id="hypergraph-float-n"),
    pytest.param(lambda: GeneralizedGame(n=True, m=1, tables={}),
                 "^n: expected an int", id="tables-bool-n"),
    pytest.param(lambda: GeneralizedGame(n=1, m=False, tables={}),
                 "^m: expected an int", id="tables-bool-m"),
    pytest.param(lambda: _omega(m=True), "^m: expected an int",
                 id="omega-bool-m"),
    pytest.param(lambda: _omega(a=(0.5, 1)),
                 "^a\\[0\\]: expected an int or Fraction",
                 id="omega-float-a"),
    pytest.param(lambda: _omega(b=(1, True)),
                 "^b\\[1\\]: expected an int or Fraction",
                 id="omega-bool-b"),
    pytest.param(lambda: _omega(omega=0.5),
                 "^omega: expected an int or Fraction",
                 id="omega-float-omega"),
    pytest.param(lambda: _hypergraph(weight=1.5),
                 "^edges\\[0\\]\\.weight: expected",
                 id="hyperedge-float-weight"),
    pytest.param(lambda: _hypergraph(shares=(0.5, 0.5)),
                 "^edges\\[0\\]\\.shares\\[0\\]: expected",
                 id="hyperedge-float-share"),
    pytest.param(lambda: _hypergraph(players=(0, 1.0)),
                 "^edges\\[0\\]\\.players\\[1\\]: expected an int",
                 id="hyperedge-float-member"),
    pytest.param(lambda: _hypergraph(anchor=True),
                 "^edges\\[0\\]\\.anchor: expected an int, got bool",
                 id="hyperedge-bool-anchor"),
    pytest.param(lambda: _hypergraph(anchor=1.0),
                 "^edges\\[0\\]\\.anchor: expected an int, got float",
                 id="hyperedge-float-anchor"),
    pytest.param(lambda: GeneralizedGame(n=2, m=1, tables={
        (True, 1, frozenset()): 1, (0.0, 1, frozenset()): 2}),
                 "^table key \\(True,1,set\\(\\)\\): need an int player "
                 "in 0..1 not among the others", id="tables-bool-player"),
    pytest.param(lambda: GeneralizedGame(n=2, m=1, tables={
        (0.0, 1, frozenset()): 2}),
                 "^table key \\(0\\.0,1,set\\(\\)\\)", id="tables-float-player"),
    pytest.param(lambda: GeneralizedGame(n=2, m=2, tables={
        (0, 2.0, frozenset()): 2}),
                 "^table key \\(0,2\\.0,set\\(\\)\\)", id="tables-float-strategy"),
    pytest.param(lambda: GeneralizedGame(n=2, m=1, tables={
        (0, True, frozenset()): 2}),
                 "^table key \\(0,True,set\\(\\)\\)", id="tables-bool-strategy"),
    pytest.param(lambda: GeneralizedGame(n=2, m=1, tables={
        (0, 1, frozenset({True})): 2}),
                 "^table key \\(0,1,\\{True\\}\\)", id="tables-bool-other"),
])
def test_family_constructors_reject_floats_and_bools(build, where):
    with pytest.raises(ValueError, match=where):
        build()
    # plain ints stay exact values
    assert _omega().utilities((1, 1), 0) == [H, 0]
    assert _hypergraph(weight=2, shares=(1, 0)).utilities((1, 1), 0) == [2, 0]


def test_omega_validation():
    with pytest.raises(ValueError):
        unit_omega(2, 2, Fraction(1, 4))
    with pytest.raises(ValueError):
        OmegaGame(n=2, m=2, a=(Fraction(0), Fraction(1)),
                  b=(Fraction(1), Fraction(1)),
                  labels=(("zero", "zero"), ("zero", "zero")),
                  omega=Fraction(1, 2))
