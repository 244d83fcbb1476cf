"""Differential property tests: one Fraction reference per answer.

Every reference reads games through `reference_utilities`, which sums each
family's payoffs from its definition: a pairwise game's own values and
edges, a hypergraph's edges (anchors and groups of three or more
included), an omega game's labels, a, b and omega (a conflicted partner
pays nothing) and a table's `utility` lookups, which raise the table's
`TableError` at the first strategy with no entry.  One test per answer
compares every public entry point serving that answer with its reference,
on games drawn by `games()` from all five families:

==================  ============================  =============================
answer              reference                     entry points compared
==================  ============================  =============================
utilities, readers  reference_utilities           utilities, scaled_utilities,
                                                  scale, player_utility,
                                                  welfare, welfare_total,
                                                  best_response, mip_check,
                                                  additive_tables
                    reference_stats               instance_stats
                    reference_serialize           serialize_instance,
                    (from test_columns)           parse_instance
optimum, census     reference_census              brute_force_optimum,
                                                  equilibrium_census,
                                                  semi_smoothness_check
group check         reference_strong              verify_approx_strong,
                                                  verify_omega_strong,
                                                  lex_strong_eq
report, payments    reference_report              deviation_report,
                                                  verify_generalized,
                                                  payment_stabilize,
                                                  post_payment_deviation_report
gated dynamics      reference_dynamics            run_dynamics,
                                                  one_shot_alpha_br,
                                                  hypergraph_br_dynamics,
                                                  one_shot_generalized
sweeps              reference_algorithm1_two      algorithm1_two
                    reference_sqrt2_three         sqrt2_three
                    reference_strong_two          strong_two
hybrid              reference_hybrid              hybrid
weight recovery     reference_recover             cc_recover,
                                                  hypergraph_cc_recover,
                                                  certificate_shares_match
potential           reference_potential           potential_value,
                                                  hypergraph_potential,
                                                  potential_delta,
                                                  _potential_kernel
audit               reference_audit               ordinal_audit
degree              reference_degree              supermodularity_degree
gate                reference_supermodular_alpha  supermodular_alpha
generator draws     reference_pairwise            random_instance, random_cc,
                                                  random_symmetric
                    reference_supermodular        random_supermodular
==================  ============================  =============================

A new fast path joins the test of the answer it serves.  Beyond the
references, only stated contracts are pinned: the lexicographic witness and
order (the references scan profiles in that order), the `_sampled_deviations`
stream, the byte-identical generator draws, the `TableError` of the first
missing strategy, the flat census reading each vector once and the census
search cutting at all.  Instances mix fractional values, all-int values
(scale 1) and coprime denominators whose lcm exceeds 2**64.  Runs are
derandomized and small.  Fixed cases beside the drawn ones: every hole of a
complete table, every start and step cap of the cycling games, the additive
tables of generated games, and, in the last section, the instances of each
benchmark workload at its sizes, compared with the same references.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scg import analysis, generators
from scg.analysis import (DeviationReport, EquilibriumCensus, PaymentPlan,
                          StrongDeviationReport, brute_force_optimum,
                          deviation_report, equilibrium_census, mip_check,
                          payment_stabilize, post_payment_deviation_report,
                          semi_smoothness_check, verify_approx_strong)
from scg.dynamics import (DynamicsTrace, HybridReport, Move, MoveRule,
                          algorithm1_two, best_response, hybrid,
                          one_shot_alpha_br, run_dynamics, sqrt2_three,
                          strong_two)
from scg.generalized import (GeneralizedGame, Hyperedge, HypergraphGame,
                             OmegaGame, TableError, additive_tables,
                             hypergraph_br_dynamics, hypergraph_cc_recover,
                             hypergraph_potential, lex_strong_eq,
                             one_shot_generalized, supermodularity_degree,
                             triangle_game, verify_generalized,
                             verify_omega_strong)
from scg.generators import (example1, prop5, random_cc, random_hypergraph_cc,
                            random_instance, random_omega,
                            random_supermodular, random_symmetric)
from scg.model import (Edge, GameInstance, InstanceStats, UtilityBreakdown,
                       instance_stats, parse_instance, player_utility,
                       serialize_instance, welfare, welfare_total)
from scg.potentials import (AuditReport, PotentialCertificate,
                            RecoveryFailure, _potential_kernel,
                            _sampled_deviations, cc_recover,
                            certificate_shares_match, ordinal_audit,
                            potential_delta, potential_value)
from scg.rationals import supermodular_alpha
from test_columns import reference_serialize


def runs(count):
    """Derandomized runs of `count` examples, with no deadline and no
    example database.  A test drawing from all five families takes a few
    times the 60 examples a test of one family would; audits and
    recoveries take 200, as violations and failing cycles are rare in the
    small cases tried first."""
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=count)


# --- the one reader ----------------------------------------------------------


def reference_utilities(game, profile, i, own=False):
    """Player i's Fraction utility at each strategy 1..m against the others'
    strategies in `profile`, read from the game's definition; with `own`,
    only what i earns alone (its own values, or u_i(k, {}) of a table)."""
    m = game.m
    if isinstance(game, GeneralizedGame):
        return [game.utility(i, k, () if own else [
            j for j, s in enumerate(profile) if j != i and s == k])
            for k in range(1, m + 1)]
    us = [Fraction(0)] * m
    if isinstance(game, GameInstance):
        us = [Fraction(v) for v in game.intrinsic[i]]
        for e in () if own else game.edges:
            if i in (e.i, e.j):
                j, share = ((e.j, e.share_ij) if e.i == i
                            else (e.i, 1 - e.share_ij))
                us[profile[j] - 1] += share * e.w
    elif isinstance(game, HypergraphGame):
        for e in game.edges:
            if i in e.players and (len(e.players) == 1 or not own):
                for k in range(1, m + 1):
                    if e.anchor in (None, k) and all(
                            profile[j] == k for j in e.players if j != i):
                        us[k - 1] += e.shares[e.players.index(i)] * e.weight
    else:  # an omega game: no own values
        for j, label in enumerate(game.labels[i]):
            if not own and j != i and label != "conflict":
                full = game.a[i] * game.b[j]
                us[profile[j] - 1] += (full if label == "one"
                                       else game.omega * full)
    return us


def reference_groups(game):
    """(members, weight, shares, anchor) of every group of a pairwise game
    (an anchored singleton per own value, then a pair per edge), a
    hypergraph (its edges) or an omega game (a pair per unconflicted
    label, weighing a_i b_j + a_j b_i, times omega on "zero")."""
    if isinstance(game, HypergraphGame):
        return [(e.players, e.weight, e.shares, e.anchor) for e in game.edges]
    if isinstance(game, OmegaGame):
        groups = []
        for i, j in itertools.combinations(range(game.n), 2):
            label = game.labels[i][j]
            if label != "conflict":
                x = Fraction(game.a[i] * game.b[j])
                y = Fraction(game.a[j] * game.b[i])
                factor = 1 if label == "one" else game.omega
                groups.append(((i, j), (x + y) * factor,
                               (x / (x + y), y / (x + y)), None))
        return groups
    return ([((i,), Fraction(v), (Fraction(1),), k)
             for i, row in enumerate(game.intrinsic)
             for k, v in enumerate(row, 1)]
            + [((e.i, e.j), Fraction(e.w),
                (Fraction(e.share_ij), 1 - Fraction(e.share_ij)), None)
               for e in game.edges])


def outcome(run, *args):
    """What `run(*args)` returns, or the message of its `TableError`."""
    try:
        return run(*args)
    except TableError as exc:
        return "TableError", str(exc)


def table_error(result):
    """Whether an `outcome` is a `TableError`."""
    return type(result) is tuple and result[:1] == ("TableError",)


def raised(run, *args):
    """What `run(*args)` returns, or the type and message it raises."""
    try:
        return run(*args)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


def exact(*values):
    """Whether every value is a Fraction, or +inf (a factor from zero)."""
    return all(type(v) is Fraction or v == math.inf for v in values)


def profiles_of(game):
    return itertools.product(range(1, game.m + 1), repeat=game.n)


def first(case):
    return case[0]


# --- the games of all five families ------------------------------------------

# few distinct values, so that best-response ties are common
values = st.sampled_from((0, 1, 2, 3, Fraction(3, 2))).map(Fraction)
shares = st.sampled_from((0, 1, Fraction(1, 2), Fraction(1, 3))).map(Fraction)
# denominators 2**61 - 1, 10**9 + 7 and 2**31 - 1 are distinct primes, so
# an instance using two of them has a scale above 2**64
P61, P30, P31 = 2**61 - 1, 10**9 + 7, 2**31 - 1
VALUE_KINDS = {
    "fractions": (values, shares),
    "ints": (st.sampled_from((0, 1, 2, 3)), st.sampled_from((0, 1))),
    "coprime": (st.sampled_from((0, 1, Fraction(2 * P61 + 1, P61),
                                 Fraction(P30 + 2, P30))),
                st.sampled_from((0, Fraction(1, 2), Fraction(P31 - 1, P31)))),
}
alphas = st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2),
                          Fraction(3 * 10**20 + 1, 2 * 10**20),
                          Fraction(2**65 + 1, 2**64 + 1)))
# factors below 1 included, where no profile is an equilibrium
strong_alphas = st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1),
                                 Fraction(3, 2), Fraction(2)))
census_alphas = strong_alphas | alphas
seeds = st.integers(0, 10**6)


@st.composite
def instances(draw, ns=st.integers(1, 6), ms=st.integers(1, 3),
              kinds=tuple(VALUE_KINDS)):
    """A pairwise game: values of one kind, each pair an edge or not."""
    n, m = draw(ns), draw(ms)
    vals, shs = VALUE_KINDS[draw(st.sampled_from(kinds))]
    intrinsic = tuple(tuple(draw(vals) for _ in range(m)) for _ in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                i_, j_ = (i, j) if draw(st.booleans()) else (j, i)
                edges.append(Edge(i_, j_, draw(vals), draw(shs)))
    return GameInstance(n=n, m=m, intrinsic=intrinsic, edges=tuple(edges))


@st.composite
def pair_hypergraphs(draw, ns=st.integers(1, 4), ms=st.integers(1, 3)):
    """A hypergraph of singletons, anchored or not, and unanchored pairs,
    parallel pairs included, with any shares."""
    n, m = draw(ns), draw(ms)
    edges = []
    for _ in range(draw(st.integers(0, n + 3))):
        w = draw(values)
        if n < 2 or draw(st.booleans()):
            edges.append(Hyperedge((draw(st.integers(0, n - 1)),), w,
                                   (Fraction(1),),
                                   draw(st.none() | st.integers(1, m))))
        else:
            pair = tuple(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                       max_size=2, unique=True)))
            share = draw(shares)
            edges.append(Hyperedge(pair, w, (share, 1 - share)))
    return HypergraphGame(n=n, m=m, edges=tuple(edges))


weights = st.sampled_from((1, 2, 3, Fraction(1, 2), Fraction(5, 3))).map(
    Fraction)


def _perturbed(draw, gamma):
    """The certificate of the weights or, half the time, of the weights
    with one player's scaled, which can break the potential."""
    gamma = list(gamma)
    if draw(st.booleans()):
        gamma[draw(st.integers(0, len(gamma) - 1))] *= draw(
            st.sampled_from((5, 7, Fraction(1, 5))))
    return PotentialCertificate(gamma=tuple(gamma))


@st.composite
def certified_games(draw, ns, ms):
    """A pairwise game whose shares come from influence weights, with their
    certificate or a perturbed one."""
    n, m = draw(ns), draw(ms)
    gamma = [draw(weights) for _ in range(n)]
    intrinsic = tuple(tuple(draw(values) for _ in range(m)) for _ in range(n))
    edges = tuple(Edge(i, j, draw(values), gamma[i] / (gamma[i] + gamma[j]))
                  for i in range(n) for j in range(i + 1, n)
                  if draw(st.booleans()))
    game = GameInstance(n=n, m=m, intrinsic=intrinsic, edges=edges)
    return game, _perturbed(draw, gamma)


@st.composite
def certified_hypergraphs(draw, ns, ms):
    """A hypergraph whose shares come from influence weights, with their
    certificate or a perturbed one.  Edges have one to four members, any
    of `values` as weight (zero included) and an anchor or none, so
    unanchored and anchored singletons, pairs and larger groups occur."""
    n, m = draw(ns), draw(ms)
    gamma = [draw(weights) for _ in range(n)]
    edges = []
    for _ in range(draw(st.integers(0, n + 3))):
        players = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                      max_size=min(4, n), unique=True)))
        total = sum(gamma[i] for i in players)
        edges.append(Hyperedge(
            players=players, weight=draw(values),
            shares=tuple(gamma[i] / total for i in players),
            anchor=draw(st.none() | st.integers(1, m))))
    game = HypergraphGame(n=n, m=m, edges=tuple(edges))
    return game, _perturbed(draw, gamma)


def certified(ns, ms):
    """A certified game of either potential family."""
    return certified_games(ns, ms) | certified_hypergraphs(ns, ms)


# a, b > 0; one coprime denominator so that the omega kernel's scale is big
omega_values = st.sampled_from((1, 2, Fraction(1, 2), Fraction(5, 3),
                                Fraction(P61 + 1, P61)))


@st.composite
def omega_games(draw, ns=st.integers(1, 5), ms=st.integers(1, 3)):
    n, m = draw(ns), draw(ms)
    labels = [["zero"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            labels[i][j] = labels[j][i] = draw(
                st.sampled_from(("one", "zero", "conflict")))
    return OmegaGame(
        n=n, m=m, a=tuple(draw(omega_values) for _ in range(n)),
        b=tuple(draw(omega_values) for _ in range(n)),
        labels=tuple(tuple(row) for row in labels),
        omega=draw(st.sampled_from((Fraction(1, 2), Fraction(3, 4),
                                    Fraction(5, 7), Fraction(1)))))


# zeros make zero denominators; the fractions differ in denominator
table_values = st.sampled_from(
    (0, 0, 1, 2, 5, Fraction(1, 2), Fraction(5, 3), Fraction(7, 4))).map(
        Fraction)


@st.composite
def sparse_tables(draw, ns=st.integers(1, 4), ms=st.integers(1, 3)):
    """Tables missing about a third of their entries, so that many lookups
    and unions have no entry."""
    n, m = draw(ns), draw(ms)
    tables = {}
    for i in range(n):
        rest = [j for j in range(n) if j != i]
        for size in range(len(rest) + 1):
            for combo in itertools.combinations(rest, size):
                for k in range(1, m + 1):
                    if draw(st.integers(0, 2)):
                        tables[(i, k, frozenset(combo))] = draw(table_values)
    return GeneralizedGame(n=n, m=m, tables=tables)


def tables(ns=st.integers(1, 4), ms=st.integers(1, 3)):
    """Tables with holes, generated ones of degree 1 and 2, and the additive
    tables of the kernel families."""
    return (sparse_tables(ns, ms)
            | st.builds(random_supermodular, ns, ms, st.sampled_from((1, 2)),
                        seeds)
            | (instances(ns, ms) | pair_hypergraphs(ns, ms)
               | certified_hypergraphs(ns, ms).map(first)
               | omega_games(ns, ms)).map(additive_tables))


def games(n_max=6, ms=st.integers(1, 3), with_tables=True):
    """A game of at most `n_max` players from one of five families, each as
    likely: pairwise games, drawn, certified or generated, from 0 players;
    hypergraphs of
    singletons and pairs; hypergraphs with a group of three or more or an
    anchored pair, drawn or generated; omega games, drawn or generated; and
    tables of at most 4 players."""
    sizes = st.integers(1, n_max)
    families = [
        instances(st.integers(0, n_max), ms)
        | certified_games(sizes, ms).map(first)
        | st.builds(lambda make, n, m, s: make(n, m, s),
                    st.sampled_from((random_instance, random_symmetric)),
                    sizes, ms, seeds),
        pair_hypergraphs(sizes, ms),
        (certified_hypergraphs(sizes, ms).map(first)
         | st.builds(lambda n, m, s: random_hypergraph_cc(n, m, s)[0],
                     st.integers(2, max(2, n_max)), ms, seeds)
         ).filter(lambda g: g._kernel.rest),
        omega_games(sizes, ms) | st.builds(random_omega, sizes, ms, seeds),
    ] + [tables(st.integers(1, min(4, n_max)), ms)] * with_tables
    return st.sampled_from(families).flatmap(lambda family: family)


@st.composite
def started(draw, games):
    """(game, a profile or start, a one-shot start strategy)."""
    game = draw(games)
    start = tuple(draw(st.integers(1, game.m)) for _ in range(game.n))
    return game, start, draw(st.integers(1, game.m))


NO_PLAYERS = GameInstance(n=0, m=2, intrinsic=(), edges=())
ONE_STRATEGY = GameInstance(n=2, m=1, intrinsic=((1,), (Fraction(1, 2),)),
                            edges=(Edge(0, 1, 2, Fraction(1, 3)),))
INT_PAIR = GameInstance(n=2, m=2, intrinsic=((1, 2), (3, 1)),
                        edges=(Edge(0, 1, 2, 1),))
# every one of the 3**11 profiles is an equilibrium, so nothing is cut
ALL_TIES = GameInstance(n=11, m=3, intrinsic=((1, 1, 1),) * 11, edges=())
# the optima (2, 2) and (3, 3) tie, and neither is the first profile
TIED_OPTIMA = GameInstance(n=2, m=3, intrinsic=((0, 1, 1), (0, 1, 1)),
                           edges=(Edge(0, 1, 1, Fraction(1, 2)),))
# at (1, 1, 1) players 0 and 1 have utility 0: their own values there are
# 0 and the edge between them weighs 0
ZERO_BASELINES = GameInstance(
    n=3, m=2, intrinsic=((0, 1), (0, 0), (1, 1)),
    edges=(Edge(0, 1, 0, Fraction(1, 2)), Edge(1, 2, 2, Fraction(1, 3))))
# Player 1 pays player 0 through two parallel pairs (player 1's shares 0 and
# 1/2), so placing player 1 adds two gains to player 0 before any test; one
# (1, 2) pair weighs nothing and is left out of the kernel.
PARALLEL_PAIRS = HypergraphGame(n=3, m=3, edges=(
    Hyperedge((0, 1), Fraction(4), (Fraction(1), Fraction(0))),
    Hyperedge((0, 1), Fraction(4), (Fraction(1, 2), Fraction(1, 2))),
    Hyperedge((1, 2), Fraction(0), (Fraction(1, 2), Fraction(1, 2))),
    Hyperedge((1, 2), Fraction(4), (Fraction(1, 2), Fraction(1, 2))),
    Hyperedge((2,), Fraction(4), (Fraction(1),), 1)))
# a 3-member group, an anchored pair and an anchored singleton: every kind
# of `rest` group, and players who hear a move through nothing else
REST_GROUPS = HypergraphGame(n=5, m=3, edges=(
    Hyperedge((0, 1, 2), Fraction(3), (Fraction(1, 3),) * 3),
    Hyperedge((2, 3), Fraction(2), (Fraction(1, 2),) * 2, anchor=2),
    Hyperedge((3, 4), Fraction(1), (Fraction(1, 4), Fraction(3, 4))),
    Hyperedge((4,), Fraction(1), (Fraction(1),), anchor=1)))
ONE_HALF, ONE_THIRD = Fraction(1, 2), Fraction(1, 3)
# a pairwise and a hypergraph cycle whose splits force two weights
CONFLICTED_PAIRS = GameInstance(n=4, m=2, intrinsic=((1, 0),) * 4, edges=(
    Edge(0, 1, 1, ONE_HALF), Edge(1, 2, 2, ONE_HALF),
    Edge(2, 0, 1, ONE_THIRD), Edge(3, 2, 1, ONE_HALF)))
CONFLICTED_GROUPS = HypergraphGame(n=5, m=2, edges=(
    Hyperedge((0, 1, 2), 3, (ONE_THIRD,) * 3),
    Hyperedge((3, 4), 1, (ONE_HALF, ONE_HALF), 2),
    Hyperedge((2, 0), 1, (ONE_THIRD, 1 - ONE_THIRD), 1)))


# --- utilities and readers ---------------------------------------------------


def reference_stats(game):
    """`instance_stats` from the own values and the pairs: best(i), A_T,
    P_T the pairs' weights, k* by own column sums (lowest index on ties)
    and mri the largest share ratio of a positive pair."""
    own = [reference_utilities(game, (1,) * game.n, i, own=True)
           for i in range(game.n)]
    best = tuple(max(row) for row in own)
    cols = [sum((row[k] for row in own), Fraction(0)) for k in range(game.m)]
    pairs = [(w, s) for members, w, s, _ in reference_groups(game)
             if len(members) == 2]
    mri = Fraction(1)
    for w, (s, t) in pairs:
        if w and (s == 0 or t == 0):
            mri = math.inf
            break
        if w:
            mri = max(mri, s / t, t / s)
    return InstanceStats(
        best=best, a_total=sum(best, Fraction(0)),
        p_total=sum((w for w, _ in pairs), Fraction(0)),
        k_star=max(range(game.m), key=lambda k: (cols[k], -k)) + 1, mri=mri)


def reference_best(us, k):
    """(best strategy, its utility) for a player at k: ties stay at k, then
    go to the lowest index."""
    best = max(us)
    return (k if us[k - 1] == best else us.index(best) + 1), best


def reference_factor(u_old, u_new):
    if u_old == 0:
        return math.inf if u_new > 0 else Fraction(1)
    return u_new / u_old


@runs(300)
@given(started(games()))
@example((NO_PLAYERS, (), 1))
@example((GameInstance(n=2, m=1, intrinsic=((2,), (0,)),
                       edges=(Edge(1, 0, 0, 1),)), (1, 1), 1))
@example((INT_PAIR, (1, 2), 1))
@example((REST_GROUPS, (1, 2, 3, 1, 2), 1))
@example((random_hypergraph_cc(6, 3, 4)[0], (1,) * 6, 1))
@example((HypergraphGame(n=3, m=2, edges=(
    Hyperedge((0, 1, 2), Fraction(6), (Fraction(1, 3),) * 3),)), (1, 1, 1), 1))
def test_readers_match_the_reference(case):
    """Each family's vectors, scale and readers are the reader's, a table's
    holes raising its `TableError` (a query about one player only that
    player's); a kernel game's additive tables look up what the game pays,
    and `instance_stats` refuses a table and a group of three or more or
    an anchored pair by name.  A pairwise game's file has the reference
    writer's bytes and reads back as the game."""
    game, profile, _ = case
    n, m = game.n, game.m
    table = isinstance(game, GeneralizedGame)
    denominators = ([u.denominator for u in game.tables.values()] if table
                    else [(s * w).denominator for _, w, ss, _
                          in reference_groups(game) if w for s in ss])
    assert game.scale == math.lcm(*denominators)
    vectors = [outcome(reference_utilities, game, profile, i)
               for i in range(n)]
    owns = [outcome(reference_utilities, game, profile, i, True)
            for i in range(n)]
    own = next(filter(table_error, owns), owns)
    failed = next(filter(table_error, (*vectors, own)), None)
    for i, us in enumerate(vectors):
        assert outcome(game.utilities, profile, i) == us
        scaled = outcome(game.scaled_utilities, profile, i)
        if table_error(us):
            assert scaled == us
            continue
        assert all(type(u) is int for u in scaled)
        assert scaled == [u * game.scale for u in us]
        if table_error(owns[i]):
            assert outcome(player_utility, game, profile, i) == owns[i]
            assert outcome(best_response, game, profile, i) == owns[i]
            continue
        for k in (None, *range(1, m + 1)):
            parts = player_utility(game, profile, i, k)
            k = k or profile[i]
            assert parts == (us[k - 1], owns[i][k - 1],
                             us[k - 1] - owns[i][k - 1])
            assert exact(*parts)
        best_k, best_u = reference_best(us, profile[i])
        assert best_response(game, profile, i) == (
            best_k, best_u, reference_factor(us[profile[i] - 1], best_u))
    if failed:
        assert outcome(welfare, game, profile) == failed
    else:
        per = [us[k - 1] for us, k in zip(vectors, profile)]
        mine = [row[k - 1] for row, k in zip(own, profile)]
        breakdown = welfare(game, profile)
        assert breakdown == UtilityBreakdown(
            tuple(per), tuple(mine), tuple(u - a for u, a in zip(per, mine)),
            sum(per, Fraction(0)), sum(mine, Fraction(0)),
            sum(per, Fraction(0)) - sum(mine, Fraction(0)))
        assert exact(*breakdown.per_player, *breakdown.intrinsic_part,
                     *breakdown.coordination_part, breakdown.total)
        total = welfare_total(game, profile)
        assert type(total) is Fraction and total == breakdown.total
    if table_error(own):
        assert outcome(mip_check, game, profile) == own
    else:
        a_s = sum((row[k - 1] for row, k in zip(own, profile)), Fraction(0))
        assert mip_check(game, profile) == (
            a_s * m >= sum((max(row) for row in own), Fraction(0)))
    if table or game._kernel.rest:
        with pytest.raises(ValueError, match="^instance_stats: mri has no "
                           "stated meaning on a table, a group of three or "
                           "more or an anchored pair$"):
            instance_stats(game)
    else:
        stats = instance_stats(game)
        assert stats == reference_stats(game)
        assert exact(*stats.best, stats.a_total, stats.p_total)
    if isinstance(game, GameInstance):
        text = serialize_instance(game)
        assert text == reference_serialize(game)
        assert parse_instance(text) == game
    if not table and n <= 6:
        tabled = additive_tables(game)
        for i, us in enumerate(vectors):
            assert reference_utilities(tabled, profile, i) == us
            assert reference_utilities(tabled, profile, i, own=True) == own[i]


@pytest.mark.parametrize("game", (random_supermodular(3, 2, 2, 4),
                                  random_supermodular(3, 3, 1, 7),
                                  triangle_game(Fraction(3, 2))))
def test_every_table_hole_raises_the_lookups_error(game):
    """Dropping any one entry of a complete table, every vector read at
    every profile is the reader's or raises its `TableError`, naming the
    same entry; building the view raises nothing."""
    for key in game.tables:
        holey = GeneralizedGame(n=game.n, m=game.m, tables={
            k: v for k, v in game.tables.items() if k != key})
        assert holey.scale >= 1  # the view is built without raising
        raised = set()
        for profile in profiles_of(holey):
            for i in range(holey.n):
                got = outcome(holey.utilities, profile, i)
                assert got == outcome(reference_utilities, holey, profile, i)
                if table_error(got):
                    assert outcome(holey.scaled_utilities, profile, i) == got
                    raised.add(got[1])
        i, k, others = key
        assert raised == {f"no entry for player {i}, strategy {k}, "
                          f"set {sorted(others)}"}


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("family", ["pairwise", "omega", "hypergraph"])
def test_additive_tables_read_as_the_generated_game(family, seed):
    """`additive_tables(game)` of a generated game of up to 6 players reads
    as the game: the same utilities and per-player readers at every
    profile, and the same census."""
    n, m = 2 + seed % 5, 1 + seed % 3
    game = {"pairwise": lambda: random_instance(n, m, seed),
            "omega": lambda: random_omega(n, m, seed),
            "hypergraph": lambda: random_hypergraph_cc(n, m, seed)[0],
            }[family]()
    tabled = additive_tables(game)
    for profile in profiles_of(game):
        assert welfare(tabled, profile) == welfare(game, profile)
        assert mip_check(tabled, profile) == mip_check(game, profile)
        for i in range(n):
            assert tabled.utilities(profile, i) == game.utilities(profile, i)
            assert (best_response(tabled, profile, i)
                    == best_response(game, profile, i))
            for k in range(1, m + 1):
                assert (player_utility(tabled, profile, i, k)
                        == player_utility(game, profile, i, k))
    assert equilibrium_census(tabled) == equilibrium_census(game)


# --- optimum and census ------------------------------------------------------


def reference_census(game, alpha):
    """The census by a flat scan over every profile in lexicographic order,
    every vector read in profile then player order: the first welfare
    maximum, and the profiles where every factor is at most alpha."""
    profiles = list(profiles_of(game))
    vectors = [[reference_utilities(game, p, i) for i in range(game.n)]
               for p in profiles]
    welfares = [sum((us[k - 1] for us, k in zip(vs, p)), Fraction(0))
                for p, vs in zip(profiles, vectors)]
    opt_w = max(welfares)
    # staying put is a candidate, so every factor is at least 1
    eq = [(p, w) for p, vs, w in zip(profiles, vectors, welfares)
          if alpha >= 1 and all(reference_factor(us[k - 1], max(us)) <= alpha
                                for us, k in zip(vs, p))]
    ws = [w for _, w in eq]
    return EquilibriumCensus(
        alpha=alpha, opt_profile=profiles[welfares.index(opt_w)],
        opt_welfare=opt_w, equilibria=tuple(p for p, _ in eq),
        equilibrium_welfares=tuple(ws),
        poa=reference_factor(min(ws), opt_w) if eq else None,
        pos=reference_factor(max(ws), opt_w) if eq else None,
        exists=bool(eq))


def all_ties_census(alpha):
    """The closed form of `ALL_TIES`: from alpha = 1 every profile is an
    equilibrium of welfare 11, below it none; the optimum is all ones."""
    eq = tuple(profiles_of(ALL_TIES)) if alpha >= 1 else ()
    one = Fraction(1) if eq else None
    return EquilibriumCensus(
        alpha=alpha, opt_profile=(1,) * 11, opt_welfare=Fraction(11),
        equilibria=eq, equilibrium_welfares=(Fraction(11),) * len(eq),
        poa=one, pos=one, exists=bool(eq))


@runs(120)
@given(games(), census_alphas)
@example(ALL_TIES, Fraction(1))
@example(ALL_TIES, Fraction(1, 2))
@example(NO_PLAYERS, Fraction(1))
@example(NO_PLAYERS, Fraction(1, 2))
@example(ONE_STRATEGY, Fraction(1))
@example(ONE_STRATEGY, Fraction(0))
@example(ONE_STRATEGY, Fraction(1, 2))
@example(TIED_OPTIMA, Fraction(1))
@example(example1(1), Fraction(1))  # three-way tie (1, 1, 1), (2, 2, 2), ...
@example(prop5(4), Fraction(1))  # (2, 2, 2, 2), (3, 3, 3, 3), ... tie
@example(PARALLEL_PAIRS, Fraction(2))
@example(REST_GROUPS, Fraction(1))
@example(triangle_game(2), Fraction(2))
@example(random_instance(7, 3, 0), Fraction(1))  # the benchmark's sizes
@example(random_symmetric(5, 4, 1), Fraction(3, 2))
def test_optimum_and_census_match_the_reference(game, alpha):
    """The optimum (ties to the smallest profile), the census (the
    equilibria in order, their welfares, PoA and PoS) and the
    semi-smoothness check are the flat scan's, or raise its `TableError`;
    the all-ties game's 3**11 profiles are checked against its closed
    form."""
    census = (all_ties_census(alpha) if game == ALL_TIES
              else outcome(reference_census, game, alpha))
    assert outcome(equilibrium_census, game, alpha) == census
    if table_error(census):
        assert outcome(brute_force_optimum, game) == census
        return
    assert brute_force_optimum(game) == (census.opt_profile,
                                         census.opt_welfare)
    assert exact(census.opt_welfare, *census.equilibrium_welfares)
    if game != ALL_TIES:
        profile = census.equilibria[0] if census.exists else (1,) * game.n
        lhs = sum((sum(reference_utilities(game, profile, i), Fraction(0))
                   for i in range(game.n)), Fraction(0))
        assert semi_smoothness_check(game, profile) == (
            lhs >= census.opt_welfare)


def counted_vectors(game):
    """A stand-in for `game.scaled_utilities` on this one game that counts
    its calls, and the list holding the count."""
    calls, read = [0], game.scaled_utilities

    def counting(profile, i):
        calls[0] += 1
        return read(profile, i)
    object.__setattr__(game, "scaled_utilities", counting)
    return calls


@pytest.mark.parametrize("make", [
    lambda: random_supermodular(6, 3, 2, 1),
    lambda: random_hypergraph_cc(8, 3, 1)[0],
    lambda: REST_GROUPS,
    lambda: triangle_game(2),
], ids=["table", "rest-hypergraph", "rest-groups", "triangle"])
@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1), Fraction(2)])
def test_flat_census_reads_each_vector_once(make, alpha):
    """A census the search cannot cut reads every player's vector once per
    profile, n * m**n calls in all, for its equilibria and its optimum
    together; so does the optimum alone, which is the census's."""
    game = dataclasses.replace(make())  # a copy: the stand-in is per game
    calls = counted_vectors(game)
    census = equilibrium_census(game, alpha)
    assert calls[0] == game.n * game.m ** game.n
    calls[0] = 0
    assert brute_force_optimum(game) == (census.opt_profile,
                                         census.opt_welfare)
    assert calls[0] == game.n * game.m ** game.n


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(3, 2), Fraction(2)])
def test_census_search_cuts_a_player_at_once(monkeypatch, alpha):
    """A player surely unstable where it is placed is cut there, before the
    players that pay it are placed: each player's third strategy beats the
    others by more than its pair gains, so the census enters m nodes per
    player and reaches one leaf."""
    n, m = 6, 3
    game = GameInstance(n=n, m=m, intrinsic=((0, 0, 10),) * n, edges=tuple(
        Edge(i, i + 1, 2, ONE_HALF) for i in range(n - 1)))
    entered, search = [], analysis._search

    def recording(s, m, enter, leave):
        def logged(p, b):
            entered.append((p, b))
            return enter(p, b)
        return search(s, m, logged, leave)

    monkeypatch.setattr(analysis, "_search", recording)
    assert analysis._equilibria(game, alpha)[0] == [(3,) * n]
    assert entered == [(p, b) for p in range(n) for b in range(m)]


# --- the group check ---------------------------------------------------------


def reference_strong(game, profile, alpha, feasible=None):
    """(alt, coalition) for the first profile alt in lexicographic order,
    admitted by `feasible` if given, where every player who changed beats
    its utility at `profile` by a factor above alpha; (None, None) if none."""
    base = [reference_utilities(game, profile, i)[k - 1]
            for i, k in enumerate(profile)]
    for alt in profiles_of(game):
        coalition = tuple(i for i in range(game.n) if alt[i] != profile[i])
        if (coalition and (feasible is None or feasible(alt))
                and all(reference_factor(
                    base[i], reference_utilities(game, alt, i)[alt[i] - 1])
                    > alpha for i in coalition)):
            return alt, coalition
    return None, None


def reference_lex_strong(game):
    """An omega game's feasible profiles (no conflicted pair shares a
    strategy) and, if any, (the first feasible profile in lexicographic
    order of largest sorted mass vector, its masses): the b of the
    players at each strategy, summed."""
    def masses(p):
        return tuple(sum((b for b, s in zip(game.b, p) if s == k),
                         Fraction(0)) for k in range(1, game.m + 1))
    feasible = {p for p in profiles_of(game) if all(
        p[i] != p[j] or game.labels[i][j] != "conflict"
        for i, j in itertools.combinations(range(game.n), 2))}
    if not feasible:
        return feasible, None
    lex = max(sorted(feasible), key=lambda p: sorted(masses(p), reverse=True))
    return feasible, (lex, masses(lex))


def strong_report(alpha, alt, coalition):
    return StrongDeviationReport(
        "stable-at-alpha" if alt is None else "violated", alpha, alt,
        coalition)


@runs(150)
@given(started(games()), strong_alphas)
@example((ZERO_BASELINES, (1, 1, 1), 1), Fraction(0))
@example((ZERO_BASELINES, (1, 1, 1), 1), Fraction(1))
@example((NO_PLAYERS, (), 1), Fraction(0))
@example((NO_PLAYERS, (), 1), Fraction(1, 2))
@example((NO_PLAYERS, (), 1), Fraction(1))
@example((ONE_STRATEGY, (1, 1), 1), Fraction(1))
@example((ONE_STRATEGY, (1, 1), 1), Fraction(1, 2))
@example((PARALLEL_PAIRS, (1, 2, 2), 1), Fraction(1, 2))
@example((PARALLEL_PAIRS, (1, 2, 2), 1), Fraction(2))
@example((REST_GROUPS, (1, 2, 3, 1, 2), 1), Fraction(1))
@example((ALL_TIES, (1,) * 11, 1), Fraction(1))
@example((ALL_TIES, (1,) * 11, 1), Fraction(1, 2))
@example((random_instance(7, 3, 2), (1,) * 7, 1), Fraction(3, 2))
@example((random_symmetric(5, 4, 0), (1,) * 5, 1), Fraction(1))
def test_group_check_matches_the_reference(case, alpha):
    """At the drawn profile and at the first two equilibria, where the
    search goes deepest, the group check reports the reference's first
    deviation and coalition, or raises its `TableError`; an omega game's
    feasible check too, at the lexicographic strong equilibrium, which is
    the feasible profile of largest sorted mass vector.  At the all-ties
    game's all-ones profile no one gains, and below alpha = 1 the first
    move, of the last player, is a deviation."""
    game, profile, _ = case
    if game == ALL_TIES:
        alt = (1,) * 10 + (2,) if alpha < 1 else None
        assert verify_approx_strong(game, profile, alpha) == strong_report(
            alpha, alt, alt and (10,))
        return
    census = outcome(equilibrium_census, game, Fraction(1))
    nash = () if table_error(census) else census.equilibria[:2]
    for q in (profile, *nash):
        assert outcome(verify_approx_strong, game, q, alpha) == outcome(
            lambda: strong_report(alpha, *reference_strong(game, q, alpha)))
    if isinstance(game, OmegaGame):
        feasible, lex = reference_lex_strong(game)
        if not feasible:
            with pytest.raises(ValueError, match="no feasible state"):
                lex_strong_eq(game)
            return
        assert lex_strong_eq(game) == lex
        for q in {profile, lex[0]} & feasible:
            assert verify_omega_strong(game, q, alpha) == reference_strong(
                game, q, alpha, feasible.__contains__)[0]


# --- deviation report and payments -------------------------------------------


def reference_report(game, profile, bonus=None):
    """Each player's best reply and factor, ``bonus[i]`` added to staying
    put; the witness is the first player of the largest factor above 1."""
    per, top, witness = [], Fraction(1), None
    for i, k in enumerate(profile):
        us = reference_utilities(game, profile, i)
        if bonus:
            us[k - 1] += bonus[i]
        best_k, best_u = reference_best(us, k)
        f = reference_factor(us[k - 1], best_u)
        per.append((best_k, f))
        if f > top:
            top, witness = f, i
    return DeviationReport(tuple(per), top, witness)


@runs(150)
@given(started(games()), st.sampled_from((1, Fraction(7, 3),
                                          Fraction(P61 + 1, P61))),
       st.sampled_from((0, Fraction(1, 7))))
@example((INT_PAIR, (1, 1), 1), 1, 0)
def test_deviation_report_and_payments_match_the_reference(case, opt, extra):
    """The report of every family, the payments that make the profile an
    equilibrium and the report once they are paid, on the game's scale or,
    with `extra` added, off it; or the table's `TableError`."""
    game, profile, _ = case
    report = outcome(reference_report, game, profile)
    assert outcome(deviation_report, game, profile) == report
    assert outcome(verify_generalized, game, profile) == report
    if table_error(report):
        return
    assert exact(report.max_factor, *(f for _, f in report.per_player))
    gaps = [max(us) - us[k - 1] for us, k in (
        (reference_utilities(game, profile, i), k)
        for i, k in enumerate(profile))]
    total = sum(gaps, Fraction(0))
    plan = payment_stabilize(game, profile, opt)
    assert plan == PaymentPlan(tuple(gaps), total, total / opt)
    assert exact(*plan.payments, plan.total, plan.nu)
    paid = [g + extra for g in gaps]
    plan = PaymentPlan(tuple(paid), sum(paid, Fraction(0)), Fraction(1))
    post = post_payment_deviation_report(game, profile, plan)
    assert post == reference_report(game, profile, bonus=paid)
    assert exact(post.max_factor, *(f for _, f in post.per_player))


# --- gated dynamics ----------------------------------------------------------


def reference_dynamics(game, start, alpha, k0=None, step_cap=None):
    """The gated loop: each pass scans the players from 0 (with `k0`, those
    still at k0), and the first whose best reply clears the gate, u_new >=
    alpha u_old and u_new > u_old (from zero: u_new > 0), moves; then the
    pass restarts.  It stops converged, at `step_cap` moves (by default
    m**n * n) or when a profile repeats."""
    if step_cap is None:
        step_cap = game.m ** game.n * max(game.n, 1)
    profile, seen, moves = tuple(start), {tuple(start)}, []
    while True:
        for i in range(game.n):
            if k0 is not None and profile[i] != k0:
                continue
            us = reference_utilities(game, profile, i)
            u_old = us[profile[i] - 1]
            k, u_new = reference_best(us, profile[i])
            if k != profile[i] and (u_new > 0 if u_old == 0 else
                                    u_new >= alpha * u_old and u_new > u_old):
                break
        else:
            return DynamicsTrace(tuple(moves), profile, "converged")
        moves.append(Move(i, profile[i], k, u_old, u_new))
        profile = profile[:i] + (k,) + profile[i + 1:]
        if len(moves) >= step_cap:
            return DynamicsTrace(tuple(moves), profile, "step-cap")
        if profile in seen:
            return DynamicsTrace(tuple(moves), profile, "cycle-detected")
        seen.add(profile)


@runs(150)
@given(started(games(8)), alphas, st.sampled_from((None, 1, 2, 3)))
@example((REST_GROUPS, (1, 2, 3, 1, 2), 1), Fraction(1), None)
@example((REST_GROUPS, (3, 3, 1, 2, 2), 2), Fraction(3, 2), 2)
@example((example1(1), (1, 2, 3), 1), Fraction(1), None)  # a cycle
@example((example1(1), (1, 2, 3), 1), Fraction(1), 2)
@example((triangle_game(2), (1, 2, 3), 1), Fraction(1), None)
@example((triangle_game(Fraction(3, 2)), (2, 1, 1), 3), Fraction(1), 3)
@example((INT_PAIR, (1, 1), 1), Fraction(3, 2), None)
# a sparse game as in the dynamics benchmark, with a long run
@example((random_instance(20, 3, 1, edge_prob=Fraction(4, 19)), (1,) * 20, 2),
         Fraction(2), None)
def test_gated_dynamics_match_the_reference(case, alpha, step_cap):
    """The traces of the gated dynamics and the one-shot runs of every
    family, moves, terminal and reason, with and without a step cap, or
    the table's `TableError`."""
    game, start, k0 = case
    trace = outcome(reference_dynamics, game, start, 1, None, step_cap)
    assert outcome(run_dynamics, game, start, MoveRule(), step_cap) == trace
    if not table_error(trace):
        assert exact(*(u for mv in trace.moves
                       for u in (mv.old_utility, mv.new_utility)))
        trace = (trace.terminal, tuple(
            (mv.player, mv.from_strategy, mv.to_strategy)
            for mv in trace.moves), trace.reason)
    assert outcome(hypergraph_br_dynamics, game, start, step_cap) == trace
    gated = outcome(reference_dynamics, game, start, alpha, None, step_cap)
    assert outcome(run_dynamics, game, start, MoveRule(alpha),
                   step_cap) == gated
    one_shot = outcome(reference_dynamics, game, (k0,) * game.n, alpha, k0)
    if table_error(one_shot):
        assert outcome(one_shot_alpha_br, game, k0, alpha) == one_shot
        assert outcome(one_shot_generalized, game, k0, alpha) == one_shot
        return
    assert one_shot_alpha_br(game, k0, alpha) == (one_shot.terminal,
                                                  one_shot)
    assert one_shot_generalized(game, k0, alpha) == (
        one_shot.terminal, alpha, tuple(
            (mv.player, mv.to_strategy, mv.old_utility, mv.new_utility)
            for mv in one_shot.moves))


@pytest.mark.parametrize("alpha", (Fraction(1), Fraction(3, 2)))
def test_missing_table_entry_raises_the_references_error(alpha):
    """Dropping any one entry of a complete table, the gated and the
    one-shot runs raise the reference's `TableError`, naming the same
    entry, or return what it returns; some entries are first read after a
    move."""
    game = random_supermodular(3, 2, 2, 4)  # three moves at either gate
    start = (1,) * game.n
    read_at_start = {(i, k, frozenset(j for j in range(game.n)
                                      if j != i and start[j] == k))
                     for i in range(game.n) for k in (1, 2)}
    raised_late = []
    for key in game.tables:
        holey = GeneralizedGame(n=game.n, m=game.m, tables={
            k: v for k, v in game.tables.items() if k != key})
        assert outcome(run_dynamics, holey, start, MoveRule(alpha)) == (
            outcome(reference_dynamics, holey, start, alpha))
        got = outcome(lambda: one_shot_alpha_br(holey, 1, alpha)[1])
        assert got == outcome(reference_dynamics, holey, start, alpha, 1)
        if table_error(got):
            i, k, others = key
            assert got[1] == (f"no entry for player {i}, strategy {k}, "
                              f"set {sorted(others)}")
            if key not in read_at_start:
                raised_late.append(key)
    assert raised_late


@pytest.mark.parametrize("game", (example1(1), triangle_game(2),
                                  triangle_game(Fraction(3, 2))))
def test_cycles_and_step_caps_match_the_reference(game):
    """From every start and at every step cap the trace is the
    reference's, and both a cycle and a step cap are reached."""
    reasons = set()
    for start in itertools.product((1, 2, 3), repeat=3):
        for step_cap in (None, 1, 2, 3):
            trace = run_dynamics(game, start, MoveRule(), step_cap)
            assert trace == reference_dynamics(game, start, 1, None,
                                               step_cap)
            reasons.add(trace.reason)
    assert {"step-cap", "cycle-detected"} <= reasons


# --- sweeps ------------------------------------------------------------------


def reference_sweep(game, profile, source, target):
    """Passes over the players at `source`, each moving to `target` when
    that strictly improves and going on with the next player, until a
    pass moves no one."""
    profile, changed = list(profile), True
    while changed:
        changed = False
        for i in range(game.n):
            if profile[i] == source:
                us = reference_utilities(game, profile, i)
                if us[target - 1] > us[source - 1]:
                    profile[i], changed = target, True
    return tuple(profile)


def reference_algorithm1_two(game, start):
    return reference_sweep(game, reference_sweep(game, start, 1, 2), 2, 1)


def reference_sqrt2_three(game):
    """Strategies 1 and 2 stabilised, then, while some player not at 3 has
    u_3 > 0 and u_3**2 >= 2 u_k**2 (the first such, from player 0), it
    moves to 3 and 1 and 2 are stabilised again."""
    profile = reference_algorithm1_two(game, (1,) * game.n)
    while True:
        for i, k in enumerate(profile):
            us = reference_utilities(game, profile, i)
            if k != 3 and us[2] > 0 and us[2] ** 2 >= 2 * us[k - 1] ** 2:
                break
        else:
            return profile
        profile = reference_algorithm1_two(
            game, profile[:i] + (3,) + profile[i + 1:])


def reference_strong_two(game):
    """From all ones, the largest coalition at 1 whose joint move to 2
    strictly improves every member moves, until there is none; the
    coalition is found by dropping non-improvers until none is left."""
    profile = (1,) * game.n
    while True:
        coalition = {i for i, k in enumerate(profile) if k == 1}
        base = {i: reference_utilities(game, profile, i)[0]
                for i in coalition}
        while coalition:
            moved = tuple(2 if i in coalition else k
                          for i, k in enumerate(profile))
            drop = {i for i in coalition
                    if reference_utilities(game, moved, i)[1] <= base[i]}
            if not drop:
                break
            coalition -= drop
        if not coalition:
            return profile
        profile = moved


TWO_TABLE = random_supermodular(3, 2, 2, 0)


@runs(120)
@given(started(games(8, st.integers(2, 3), with_tables=False)),
       st.builds(random_supermodular, st.integers(1, 6), st.just(2),
                 st.sampled_from((1, 2)), seeds))
@example((REST_GROUPS, (1, 1, 1, 1, 1), 1), TWO_TABLE)
@example((REST_GROUPS, (2, 1, 3, 2, 1), 1), TWO_TABLE)
# sparse games as in the dynamics benchmark: sweeps that wrap round
@example((random_instance(20, 2, 0, edge_prob=Fraction(4, 19)),
          (1, 2) * 10, 1), TWO_TABLE)
@example((random_instance(20, 3, 0, edge_prob=Fraction(4, 19)), (1,) * 20, 1),
         TWO_TABLE)
def test_sweeps_match_the_reference(case, table):
    """The two-strategy Nash and strong algorithms and the sqrt(2)
    algorithm of three strategies end where the pass loops end; the strong
    algorithm on a two-strategy table too, where every player hears every
    move."""
    game, start, _ = case
    if game.m == 2:
        assert algorithm1_two(game, start) == reference_algorithm1_two(
            game, start)
        assert strong_two(game) == reference_strong_two(game)
    else:
        assert sqrt2_three(game) == reference_sqrt2_three(game)
    assert strong_two(table) == reference_strong_two(table)


# --- hybrid ------------------------------------------------------------------


def reference_hybrid(game, alpha):
    """One-shot runs at alpha and 1 / (alpha - 1) from k*, the strategy of
    the largest own column sum (lowest index on ties), the better one,
    the first on ties, chosen."""
    own = [reference_utilities(game, (1,) * game.n, i, own=True)
           for i in range(game.n)]
    cols = [sum((row[k] for row in own), Fraction(0)) for k in range(game.m)]
    k0 = max(range(game.m), key=lambda k: (cols[k], -k)) + 1
    s1, s2 = (reference_dynamics(game, (k0,) * game.n, a, k0).terminal
              for a in (alpha, 1 / (alpha - 1)))
    w1, w2 = (sum((reference_utilities(game, s, i)[k - 1]
                   for i, k in enumerate(s)), Fraction(0)) for s in (s1, s2))
    chosen = (s1, w1) if w1 >= w2 else (s2, w2)
    return HybridReport(alpha, s1, s2, w1, w2, *chosen)


@runs(120)
@given(games(), st.sampled_from((Fraction(1618, 1000), Fraction(7, 4),
                                 Fraction(2), Fraction(2**65 + 1, 2**64 + 1))))
def test_hybrid_matches_the_reference(game, alpha):
    report = outcome(hybrid, game, alpha)
    assert report == outcome(reference_hybrid, game, alpha)
    if not table_error(report):
        assert exact(report.welfare_s1, report.welfare_s2)


# --- weight recovery ---------------------------------------------------------


def reference_recover(game):
    """Weights in proportion to the shares of each positive group of two or
    more, depth-first from each unweighted player in index order, each
    component normalized to minimum weight 1; or the first group with a
    zero share, or, when a player gets a second weight, the group (on a
    hypergraph) or the pair of players that reached it."""
    hyper = isinstance(game, HypergraphGame)
    groups = [(members, shares) for members, w, shares, _
              in reference_groups(game) if w > 0 and len(members) > 1]
    incident = [[] for _ in range(game.n)]
    for g, (members, shares) in enumerate(groups):
        if 0 in shares:
            return RecoveryFailure(
                edge=tuple(members),
                reason="zero share admits no positive weights" if hyper
                else "share 0 or 1 admits no positive weights")
        for i, share in zip(members, shares):
            incident[i].append((g, share))
    reached = [False] * len(groups)
    gamma = [None] * game.n
    for root in range(game.n):
        if gamma[root] is not None:
            continue
        gamma[root] = Fraction(1)
        component, stack = [root], [root]
        while stack:
            i = stack.pop()
            for g, share in incident[i]:
                if reached[g]:
                    continue
                reached[g] = True
                for j, s_j in zip(*groups[g]):
                    expected = gamma[i] / share * s_j
                    if gamma[j] is None:
                        gamma[j] = expected
                        component.append(j)
                        stack.append(j)
                    elif gamma[j] != expected:
                        return RecoveryFailure(
                            edge=tuple(groups[g][0]) if hyper else (i, j),
                            reason="edge forces two different weights"
                            if hyper else "cycle forces two different weights")
        low = min(gamma[i] for i in component)
        for i in component:
            gamma[i] /= low
    return PotentialCertificate(gamma=tuple(gamma))


def _generated(make, n, seed):
    game, gamma = make(n, 2, seed)
    return game, PotentialCertificate(gamma=tuple(gamma))


split_shares = st.sampled_from((0, 1, Fraction(1), Fraction(1, 2),
                                Fraction(1, 3), Fraction(2, 5),
                                Fraction(5, 7)))


@st.composite
def perturbed_certified(draw):
    """A certified or generated game of either family, sometimes with up to
    three of its edges given a new split (0, 1, or one that can break a
    cycle through the edge; a hyperedge's member 0 takes it and the others
    share the rest) and now and then a zero weight; the certificate is
    kept, so it may no longer match.  The generators' denser games close
    more cycles than the certified draws."""
    game, cert = draw(
        certified(st.integers(1, 6), st.integers(1, 3))
        | st.builds(_generated, st.just(random_cc), st.integers(1, 8), seeds)
        | st.builds(_generated, st.just(random_hypergraph_cc),
                    st.integers(2, 8), seeds))
    edges = list(game.edges)
    for _ in range(draw(st.integers(0, 3)) if edges else 0):
        k = draw(st.integers(0, len(edges) - 1))
        share, e = draw(split_shares), edges[k]
        zero = draw(st.sampled_from((True, False, False, False)))
        if isinstance(e, Edge):
            edges[k] = Edge(e.i, e.j, 0 if zero else e.w, share)
        elif len(e.players) > 1:
            rest = (1 - Fraction(share)) / (len(e.players) - 1)
            edges[k] = Hyperedge(e.players, 0 if zero else e.weight,
                                 (share,) + (rest,) * (len(e.players) - 1),
                                 e.anchor)
    return dataclasses.replace(game, edges=tuple(edges)), cert


def with_recovered(game):
    """The game and its recovered certificate."""
    return game, reference_recover(game)


def certificates(game, cert):
    """The case's certificate and the recovered one, if any."""
    recovered = reference_recover(game)
    return [cert] + [recovered] * isinstance(recovered, PotentialCertificate)


@runs(200)
@given(perturbed_certified())
@example((CONFLICTED_PAIRS, PotentialCertificate(gamma=(1, 1, 1, 1))))
@example((CONFLICTED_GROUPS, PotentialCertificate(gamma=(1, 2, 1, 3, 1))))
def test_recovery_matches_the_reference(case):
    """Weights, reasons and witnesses, and whether a certificate's weights
    give every positive group's shares."""
    game, cert = case
    recover = (hypergraph_cc_recover if isinstance(game, HypergraphGame)
               else cc_recover)
    assert recover(game) == reference_recover(game)
    for cert in certificates(game, cert):
        gamma = [Fraction(g) for g in cert.gamma]
        assert certificate_shares_match(game, cert) == all(
            share == gamma[i] / sum(gamma[j] for j in members)
            for members, w, shares, _ in reference_groups(game) if w > 0
            for i, share in zip(members, shares))


# --- potential ---------------------------------------------------------------


def reference_potential(game, profile, cert):
    """Phi: w / (sum of member weights) summed over the paying groups."""
    gamma = [Fraction(g) for g in cert.gamma]
    return sum((w / sum(gamma[j] for j in members)
                for members, w, _, anchor in reference_groups(game)
                if anchor in (None, profile[members[0]])
                and len({profile[j] for j in members}) == 1), Fraction(0))


@runs(400)
@given(perturbed_certified() | omega_games().map(with_recovered), seeds)
@example((CONFLICTED_GROUPS, PotentialCertificate(gamma=(1, 2, 1, 3, 1))), 0)
def test_potential_matches_the_reference(case, seed):
    """Phi at a profile, each move's change and the potential kernel's
    entries, whose differences the audit reads, with the case's and the
    recovered certificate, int weights included; bad arguments raise what
    the readers and the certificate check raise.  An omega game's shares
    follow the weights a_i / b_i, so it comes with its recovered one; it
    takes about half of the draws."""
    game, cert = case
    rng = random.Random(seed)
    profile = tuple(rng.randint(1, game.m) for _ in range(game.n))
    for cert in certificates(game, cert) + [PotentialCertificate(gamma=tuple(
            int(g) if g.denominator == 1 else g for g in cert.gamma))]:
        phi = reference_potential(game, profile, cert)
        assert potential_value(game, profile, cert) == phi
        assert type(potential_value(game, profile, cert)) is Fraction
        if isinstance(game, HypergraphGame):
            assert hypergraph_potential(game, profile, cert) == phi
        kernel = _potential_kernel(game, cert)
        for i, k in itertools.product(range(game.n), range(1, game.m + 1)):
            moved = profile[:i] + (k,) + profile[i + 1:]
            delta = reference_potential(game, moved, cert) - phi
            got = potential_delta(game, profile, i, k, cert)
            assert type(got) is Fraction and got == delta
            ps = kernel.scaled_utilities(profile, i)
            assert Fraction(ps[k - 1] - ps[profile[i] - 1],
                            kernel.scale) == delta
    short = PotentialCertificate(gamma=cert.gamma[1:])
    zero = PotentialCertificate(gamma=(0,) + cert.gamma[1:])
    for args in ((profile, game.n, 1, cert), (profile, True, 1, cert),
                 (profile, 0, None, cert), (profile, 0, game.m + 1, cert),
                 (profile, 0, 1.0, cert), (profile[1:], 0, 1, cert),
                 (profile, 0, 1, short), (profile, 0, 1, zero)):
        p, i, k, c = args
        assert raised(potential_delta, game, *args) == raised(lambda: (
            player_utility(game, p, i, k),
            game.validate_profile([*p[:i], k, *p[i + 1:]]),
            potential_value(game, p, c)))


# --- audit -------------------------------------------------------------------


def reference_deviations(n, m, trials, seed):
    """The audit's sampled triples: per trial a profile of ``randint(1, m)``
    draws, the player ``randrange(n)`` and the deviation ``randint(1, m)``,
    moved to the next strategy (m to 1) if it is the player's own."""
    rng = random.Random(seed)
    triples = []
    for _ in range(trials):
        p = tuple(rng.randint(1, m) for _ in range(n))
        i = rng.randrange(n)
        k = rng.randint(1, m)
        if k == p[i]:
            k = k % m + 1
        triples.append((p, i, k))
    return triples


def reference_audit(game, cert, trials, seed):
    """The sign audit: every deviation when m**n * n * m <= 20 000, the
    sampled triples otherwise; du from the reader, dphi from Phi, and the
    first violating triple as the counterexample."""
    if game.m ** game.n * game.n * game.m <= 20_000:
        triples = [(p, i, k) for p in profiles_of(game)
                   for i in range(game.n)
                   for k in range(1, game.m + 1) if k != p[i]]
    else:
        triples = reference_deviations(game.n, game.m, trials, seed)
    violations, counterexample, phi = 0, None, {}
    for p, i, k in triples:
        us = reference_utilities(game, p, i)
        du = us[k - 1] - us[p[i] - 1]
        for q in (p, p[:i] + (k,) + p[i + 1:]):
            if q not in phi:
                phi[q] = reference_potential(game, q, cert)
        dphi = phi[p[:i] + (k,) + p[i + 1:]] - phi[p]
        if (du > 0) - (du < 0) != (dphi > 0) - (dphi < 0):
            violations += 1
            counterexample = counterexample or (p, i, k, du, dphi)
    return AuditReport(len(triples), violations, counterexample)


# a zero-weight pair before a positive one at player 0: a potential kernel
# without the zero term would read player 0's positive term at player 1
ZERO_PAIR_FIRST = GameInstance(n=3, m=2, intrinsic=((0, 1), (1, 0), (1, 0)),
                               edges=(Edge(0, 1, 0, ONE_HALF),
                                      Edge(0, 2, 2, ONE_HALF)))
# zero-weight anchored pairs and groups of three beside positive ones
ZERO_GROUPS = HypergraphGame(n=4, m=2, edges=(
    Hyperedge((0, 1), 0, (ONE_HALF, ONE_HALF), 1),
    Hyperedge((0, 1, 2), 0, (ONE_THIRD,) * 3),
    Hyperedge((0, 1, 2), 3, (ONE_THIRD,) * 3),
    Hyperedge((0, 3), 2, (ONE_HALF, ONE_HALF), 2),
    Hyperedge((1, 2, 3), 0, (ONE_THIRD,) * 3, 2)))


@runs(300)
@given(certified(st.integers(2, 4), st.integers(2, 3))
       | certified(st.integers(7, 9), st.just(3))
       | omega_games(st.integers(2, 4), st.integers(2, 3)).map(with_recovered)
       | omega_games(st.just(7), st.just(3)).map(with_recovered),
       st.integers(1, 150),
       seeds)
@example((example1(1), PotentialCertificate(gamma=(Fraction(1),) * 3)), 1, 0)
@example((NO_PLAYERS, PotentialCertificate(gamma=())), 5, 1)
@example((ONE_STRATEGY, PotentialCertificate(gamma=(1, 2))), 5, 1)
@example((ZERO_PAIR_FIRST, PotentialCertificate(gamma=(1, 1, 1))), 5, 1)
@example((ZERO_GROUPS, PotentialCertificate(gamma=(1, 1, 1, 1))), 5, 1)
@example((PARALLEL_PAIRS, PotentialCertificate(gamma=(1, 1, 1))), 5, 1)
@example(with_recovered(random_omega(4, 3, 1)), 5, 1)
def test_audit_matches_the_reference(case, trials, seed):
    """Exhaustive audits of small games and sampled ones of 7 to 9
    players, which check exactly `trials` triples; a game where no player
    can deviate (no player, one strategy) reports 0 trials and passes.  The
    audit reads the game kernel and the potential's in one walk, so the
    potential kernel has the game kernel's neighbour and ``rest`` index,
    zero weights included, on every kernel family: a pairwise game's
    column kernel, an omega game's and a hypergraph's with and without
    ``rest`` groups.  An omega game comes with its recovered certificate."""
    game, cert = case
    report = ordinal_audit(game, cert, trials=trials, seed=seed)
    assert report == reference_audit(game, cert, trials, seed)
    assert game.n < 7 or report.trials == trials
    index = [(kernel.nbrs, [[(others, anchor) for others, anchor, _ in r]
                            for r in kernel.rest])
             for kernel in (game._kernel, _potential_kernel(game, cert))]
    assert index[0] == index[1]


# powers of two and not, and n on both sides of a bit_length step
@pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 8])
@pytest.mark.parametrize("n", [7, 8, 9, 60, 64, 65, 300])
def test_sampled_deviations_are_the_randint_stream(n, m):
    game = SimpleNamespace(n=n, m=m)
    for seed in (0, 1, 2**31 - 1):
        for trials in (1, 500):
            assert (list(_sampled_deviations(game, trials, seed))
                    == reference_deviations(n, m, trials, seed))


# --- degree and gate ---------------------------------------------------------


def reference_degree(ggame):
    """The largest u(k, S | T) / (u(k, S) + u(k', T)) over every ordered
    pair of one player's entries whose union has an entry, floored at 1;
    +inf when a zero sum meets a positive union."""
    by_player = {}
    for (i, k, others), u in ggame.tables.items():
        by_player.setdefault(i, []).append((k, others, u))
    degree = Fraction(1)
    for i, entries in by_player.items():
        for (k1, o1, u1), (k2, o2, u2) in itertools.product(entries, repeat=2):
            top = ggame.tables.get((i, k1, o1 | o2))
            if top is None:
                continue
            if u1 + u2 == 0:
                if top > 0:
                    return math.inf
                continue
            degree = max(degree, top / (u1 + u2))
    return degree


def _table(n, m, entries):
    return GeneralizedGame(n=n, m=m, tables={
        (i, k, frozenset(o)): Fraction(u) for i, k, o, u in entries})


@runs(120)
@given(sparse_tables()
       | st.builds(random_supermodular, st.integers(1, 4), st.integers(1, 3),
                   st.sampled_from((1, 2)), seeds)
       | st.builds(triangle_game, st.sampled_from((1, Fraction(3, 2), 2, 3))))
# zero entries at two strategies under a positive union: unbounded
@example(_table(2, 2, [(0, 1, (), 0), (0, 1, (1,), 3), (0, 2, (1,), 0),
                       (1, 1, (), 1)]))
# the ratio 7/3 pairs an entry with the cheaper one at the other strategy
@example(_table(2, 2, [(0, 1, (), 1), (0, 1, (1,), 7), (0, 2, (1,), 2),
                       (1, 2, (), 1)]))
def test_degree_matches_the_reference(ggame):
    assert supermodularity_degree(ggame) == reference_degree(ggame)


def reference_supermodular_alpha(r):
    """The gate by an `isqrt` guess counted up to the ceiling by exact
    Fraction comparisons."""
    r = Fraction(r)
    disc = r * (r + 4)
    den = 10**6

    def is_upper(p):
        lhs = 2 * Fraction(p, den) - r
        return lhs >= 0 and lhs * lhs >= disc

    a, b = r.numerator, r.denominator
    p = (den * a + math.isqrt(a * (a + 4 * b) * den * den)) // (2 * b)
    while not is_upper(p):
        p += 1
    return Fraction(p, den)


# integers up to 10**29, a/b with b up to 10**24, every n/d with d < 60
# and d <= n < 8d, and one huge non-integer degree
GATE_GRID = (
    [Fraction(x) for x in range(1, 1001)]
    + [Fraction(10**j + d) for j in range(3, 30) for d in (-1, 0, 1)]
    + [Fraction(a * 10**j + d, 10**j) for j in range(1, 25)
       for a in (1, 3, 7, 1000) for d in (-1, 1, 7) if a * 10**j + d >= 10**j]
    + [Fraction(n, d) for d in range(1, 60) for n in range(d, 8 * d)]
    + [Fraction(10**40 + 7, 3)])


def test_gate_closed_form_matches_the_reference():
    for r in GATE_GRID:
        assert supermodular_alpha(r) == reference_supermodular_alpha(r), r


# --- generator draws ---------------------------------------------------------


def reference_pairwise(kind, n, m, seed, edge_prob=Fraction(1, 2),
                       rng_type=random.Random):
    """The draws of `random_instance` ("interior"), `random_cc` and
    `random_symmetric`: cc's influence weights first, then the own values,
    then each pair i < j kept when ``rng.random() < Fraction(edge_prob)``,
    with its weight and then, on "interior", its share."""
    rng = rng_type(seed)
    gamma = [Fraction(rng.randint(1, 5)) for _ in range(n)] \
        if kind == "cc" else None
    intrinsic = tuple(tuple(Fraction(rng.randint(0, 10), rng.choice((1, 2, 3)))
                            for _ in range(m)) for _ in range(n))
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < Fraction(edge_prob):
            w = Fraction(rng.randint(1, 10))
            share = (Fraction(rng.randint(1, 9), 10) if kind == "interior"
                     else gamma[i] / (gamma[i] + gamma[j]) if kind == "cc"
                     else Fraction(1, 2))
            edges.append(Edge(i, j, w, share))
    game = GameInstance(n=n, m=m, intrinsic=intrinsic, edges=tuple(edges))
    return (game, tuple(gamma)) if kind == "cc" else game


def reference_supermodular(n, m, r, seed):
    """The tables of `random_supermodular`: own values, then a gain per
    ordered pair, each entry the own value plus the gains from the set,
    squared at r = 2, keyed player by player, set by set, strategy by
    strategy."""
    rng = random.Random(seed)
    base = [[Fraction(rng.randint(0, 6)) for _ in range(m)] for _ in range(n)]
    gain = {(i, j): Fraction(rng.randint(0, 4))
            for i in range(n) for j in range(n) if i != j}
    tables = {}
    for i in range(n):
        rest = [j for j in range(n) if j != i]
        for size in range(n):
            for combo in itertools.combinations(rest, size):
                g = sum((gain[i, j] for j in combo), Fraction(0))
                for k, own in enumerate(base[i], 1):
                    tables[(i, k, frozenset(combo))] = (own + g) ** r
    return tables


@pytest.mark.parametrize("n", (1, 2, 3, 5, 7, 8, 30))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_generators_draw_the_reference(n, m):
    """The same games, weights and tables, in the same order, for every
    edge probability of `random_instance`."""
    probs = [0, Fraction(1, 3), Fraction(1, 2), 1, 1.0]
    probs += [4 / (n - 1)] if n > 4 else []
    for seed in range(6):
        assert random_instance(n, m, seed) == reference_pairwise(
            "interior", n, m, seed)
        for edge_prob in probs if seed < 4 and m == 3 else ():
            assert (random_instance(n, m, seed, edge_prob=edge_prob)
                    == reference_pairwise("interior", n, m, seed, edge_prob))
        assert random_cc(n, m, seed) == reference_pairwise("cc", n, m, seed)
        assert random_symmetric(n, m, seed) == reference_pairwise(
            "symmetric", n, m, seed)
        for r in (1, 2) if n <= 8 else ():
            tables = random_supermodular(n, m, r, seed).tables
            assert list(tables.items()) == list(
                reference_supermodular(n, m, r, seed).items())


@pytest.mark.parametrize("edge_prob", (Fraction(1, 3), Fraction(1, 2),
                                       0.1, Fraction(1, 10**30)))
def test_random_instance_threshold_is_exact_at_its_edge(monkeypatch,
                                                        edge_prob):
    """`rng.random()` is k / 2**53; the draws just below, at and just above
    the least k that rejects a pair must split as the Fraction test does."""
    cut = math.ceil(Fraction(edge_prob) * 2**53)
    draws = [max(cut + d, 0) / 2**53 for d in (-2, -1, 0, 1)] * 3

    class NearCut(random.Random):
        """Deals `draws` in turn from random(); randint and choice still
        read the seeded generator through getrandbits."""

        def random(self):
            return draws[next(self.calls) % len(draws)]

        def getrandbits(self, k):
            return super().getrandbits(k)

        def seed(self, a=None, version=2):
            super().seed(a, version)
            self.calls = itertools.count()

    monkeypatch.setattr(generators, "random", SimpleNamespace(Random=NearCut))
    n = 6  # 15 pairs: every draw above, more than once
    edges = random_instance(n, 1, 0, edge_prob=edge_prob).edges
    assert edges == reference_pairwise("interior", n, 1, 0, edge_prob,
                                       rng_type=NearCut).edges
    assert 0 < len(edges) < n * (n - 1) // 2


# --- the benchmark's instances -----------------------------------------------
# The instances of each workload in bench/workloads.py, at its sizes, which
# the drawn games above never reach: every answer a job reads is compared
# with its reference.

CENSUS_SIZES = ((5, 3), (6, 3), (5, 4), (7, 3))


@pytest.mark.parametrize("n, m", CENSUS_SIZES)
@pytest.mark.parametrize("generate, alpha", ((random_instance, Fraction(1)),
                                             (random_symmetric,
                                              Fraction(3, 2))))
def test_census_jobs_match_the_reference(generate, alpha, n, m):
    """The census, the optimum, the payments that stabilise the optimum,
    the report once they are paid, and the hybrid."""
    game = generate(n, m, 0)
    census = reference_census(game, alpha)
    assert equilibrium_census(game, alpha) == census
    opt, opt_w = census.opt_profile, census.opt_welfare
    assert brute_force_optimum(game) == (opt, opt_w)
    plan = payment_stabilize(game, opt, opt_w)
    assert post_payment_deviation_report(game, opt, plan) == (
        reference_report(game, opt, bonus=plan.payments))
    assert reference_report(game, opt, bonus=plan.payments).max_factor == 1
    assert hybrid(game, Fraction(2)) == reference_hybrid(game, Fraction(2))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n, m", CENSUS_SIZES)
@pytest.mark.parametrize("generate", (random_instance, random_symmetric))
def test_census_group_checks_match_the_reference(generate, n, m, seed):
    """The group check at alpha 1 at the first three equilibria, as the
    job reads it, where the search goes deepest."""
    game, alpha = generate(n, m, seed), Fraction(1)
    for profile in equilibrium_census(game, alpha).equilibria[:3]:
        assert verify_approx_strong(game, profile, alpha) == strong_report(
            alpha, *reference_strong(game, profile, alpha))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", (20, 60, 150))
def test_dynamics_jobs_match_the_reference(n, seed):
    """Sparse games, long runs and sweeps that wrap round several times:
    the gated and one-shot runs, the sqrt(2) algorithm and the
    two-strategy algorithm from a random start."""
    game = random_instance(n, 3, seed, edge_prob=4 / (n - 1))
    start = (1,) * n
    assert run_dynamics(game, start) == reference_dynamics(game, start, 1)
    for k0, alpha in ((1, Fraction(3, 2)), (2, Fraction(2))):
        assert one_shot_alpha_br(game, k0, alpha)[1] == reference_dynamics(
            game, (k0,) * n, alpha, k0)
    assert sqrt2_three(game) == reference_sqrt2_three(game)
    two = random_instance(n, 2, seed, edge_prob=4 / (n - 1))
    start = tuple(random.Random(seed).choices((1, 2), k=n))
    assert algorithm1_two(two, start) == reference_algorithm1_two(two, start)


@pytest.mark.parametrize("n, r", ((4, 1), (5, 1), (5, 2), (6, 1), (6, 2)))
def test_table_jobs_match_the_reference(n, r):
    """The degree, the one-shot run at the gate it sets, and the report at
    its end and at a drawn profile."""
    game = random_supermodular(n, 3, r, n)
    degree = reference_degree(game)
    assert supermodularity_degree(game) == degree
    alpha = reference_supermodular_alpha(degree)
    trace = reference_dynamics(game, (1,) * n, alpha, 1)
    assert one_shot_generalized(game, 1) == (trace.terminal, alpha, tuple(
        (mv.player, mv.to_strategy, mv.old_utility, mv.new_utility)
        for mv in trace.moves))
    probe = tuple(random.Random(n).choices((1, 2, 3), k=n))
    for profile in (trace.terminal, probe):
        assert verify_generalized(game, profile) == reference_report(
            game, profile)


@pytest.mark.parametrize("n", (5, 20, 40, 60))
def test_cc_jobs_match_the_reference(n):
    """The recovered weights and an audit with them, exhaustive at n = 5
    and of 10 sampled triples above (the reference's Phi costs a pass over
    every group)."""
    game, _gamma = random_cc(n, 3, n)
    cert = cc_recover(game)
    assert cert == reference_recover(game)
    assert certificate_shares_match(game, cert)
    assert ordinal_audit(game, cert, trials=10, seed=n) == reference_audit(
        game, cert, 10, n)


@pytest.mark.parametrize("n", (8, 12, 16, 20))
def test_hypergraph_jobs_match_the_reference(n):
    """The recovered weights and the plain dynamics from all ones."""
    game, _gamma = random_hypergraph_cc(n, 3, n)
    assert hypergraph_cc_recover(game) == reference_recover(game)
    trace = reference_dynamics(game, (1,) * n, 1)
    assert hypergraph_br_dynamics(game, (1,) * n) == (
        trace.terminal, tuple((mv.player, mv.from_strategy, mv.to_strategy)
                              for mv in trace.moves), trace.reason)


@pytest.mark.parametrize("n, omega", ((5, Fraction(1, 2)), (6, Fraction(3, 4)),
                                      (7, Fraction(1))))
def test_omega_jobs_match_the_reference(n, omega):
    """The lexicographic strong equilibrium and the feasible group check
    at 1 / omega there."""
    game = random_omega(n, 3, n, omega=omega)
    feasible, lex = reference_lex_strong(game)
    assert lex_strong_eq(game) == lex
    alpha = 1 / omega
    assert verify_omega_strong(game, lex[0], alpha) == reference_strong(
        game, lex[0], alpha, feasible.__contains__)[0]
