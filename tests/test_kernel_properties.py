"""Differential property tests for the exact kernels.

The kernel (`utilities(profile, i)` on every game family), the gated
best-response loop, the shared deviation report, the integer
complementarity degree and the integer potential audit are compared with
straightforward reference implementations kept here: utilities summed edge
by edge, best responses found by one `player_utility` call per strategy,
the degree as a Fraction ratio over every pair of table entries, and the
audit with both changes computed as Fractions on every trial.  Runs are
derandomized and small.
"""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from scg.analysis import deviation_report
from scg.dynamics import (DynamicsTrace, Move, MoveRule, one_shot_alpha_br,
                          run_dynamics)
from scg.generalized import (GeneralizedGame, additive_tables,
                             one_shot_generalized, supermodularity_degree,
                             triangle_game, verify_generalized)
from scg.generators import (example1, random_hypergraph_cc,
                            random_supermodular)
from scg.model import Edge, GameInstance, player_utility
from scg.potentials import (AuditReport, PotentialCertificate, ordinal_audit,
                            potential_value)

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

# few distinct values, so that best-response ties are common
values = st.sampled_from((0, 1, 2, 3, Fraction(3, 2))).map(Fraction)
shares = st.sampled_from((0, 1, Fraction(1, 2), Fraction(1, 3))).map(Fraction)
alphas = st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2)))


@st.composite
def instances(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    intrinsic = tuple(tuple(draw(values) for _ in range(m)) for _ in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                i_, j_ = (i, j) if draw(st.booleans()) else (j, i)
                edges.append(Edge(i_, j_, draw(values), draw(shares)))
    return GameInstance(n=n, m=m, intrinsic=intrinsic, edges=tuple(edges))


@st.composite
def game_and_profile(draw):
    g = draw(instances())
    profile = tuple(draw(st.integers(1, g.m)) for _ in range(g.n))
    return g, profile


def reference_utility(g, profile, i, k):
    """Intrinsic value plus the gains of co-located neighbours, from edges."""
    u = g.intrinsic[i][k - 1]
    for e in g.edges:
        if e.i == i and profile[e.j] == k:
            u += e.share_ij * e.w
        elif e.j == i and profile[e.i] == k:
            u += (1 - e.share_ij) * e.w
    return u


def _scan_best_response(g, profile, i):
    current = player_utility(g, profile, i)[0]
    best_k, best_u = profile[i], current
    for k in range(1, g.m + 1):
        if k == profile[i]:
            continue
        u = player_utility(g, profile, i, strategy=k)[0]
        if u > best_u:
            best_k, best_u = k, u
    return best_k, best_u, current


def reference_dynamics(g, start, rule, k0=None):
    """The restart-after-every-move loop written with per-strategy scans.

    With `k0`, only players still at k0 move, as in one-shot dynamics.
    """
    step_cap = (g.m ** g.n) * max(g.n, 1)
    profile, seen, moves = tuple(start), {tuple(start)}, []
    while True:
        mover = None
        for i in range(g.n):
            if k0 is not None and profile[i] != k0:
                continue
            k, u_new, u_old = _scan_best_response(g, profile, i)
            if k != profile[i] and rule.allows(u_old, u_new):
                mover = (i, k, u_old, u_new)
                break
        if mover is None:
            return DynamicsTrace(tuple(moves), profile, "converged")
        i, k, u_old, u_new = mover
        moves.append(Move(i, profile[i], k, u_old, u_new))
        profile = profile[:i] + (k,) + profile[i + 1:]
        if len(moves) >= step_cap:
            return DynamicsTrace(tuple(moves), profile, "step-cap")
        if profile in seen:
            return DynamicsTrace(tuple(moves), profile, "cycle-detected")
        seen.add(profile)


@SETTINGS
@given(game_and_profile())
def test_kernel_matches_edge_sum(case):
    g, profile = case
    for i in range(g.n):
        expected = [reference_utility(g, profile, i, k)
                    for k in range(1, g.m + 1)]
        assert g.utilities(profile, i) == expected
        assert player_utility(g, profile, i)[0] == expected[profile[i] - 1]


@SETTINGS
@given(game_and_profile(), alphas)
def test_run_dynamics_matches_reference_loop(case, alpha):
    g, start = case
    rule = MoveRule(alpha=alpha)
    assert run_dynamics(g, start, rule) == reference_dynamics(g, start, rule)


@SETTINGS
@given(instances(), st.data(), alphas)
def test_one_shot_matches_reference_loop(g, data, alpha):
    k0 = data.draw(st.integers(1, g.m))
    profile, trace = one_shot_alpha_br(g, k0, alpha)
    assert trace == reference_dynamics(g, (k0,) * g.n, MoveRule(alpha), k0=k0)
    assert profile == trace.terminal


@SETTINGS
@given(game_and_profile())
def test_reports_match_the_reference_scan(case):
    g, profile = case
    report = deviation_report(g, profile)
    expected = []
    for i in range(g.n):
        k, best_u, current = _scan_best_response(g, profile, i)
        expected.append((k, best_u / current if current
                         else (math.inf if best_u > 0 else 1)))
    assert report.per_player == tuple(expected)
    assert verify_generalized(additive_tables(g), profile) == report


@SETTINGS
@given(instances(), st.data(), alphas)
def test_table_one_shot_makes_the_same_moves(g, data, alpha):
    k0 = data.draw(st.integers(1, g.m))
    profile, used, moves = one_shot_generalized(additive_tables(g), k0, alpha)
    expected, trace = one_shot_alpha_br(g, k0, alpha)
    assert (profile, used) == (expected, alpha)
    assert moves == tuple((mv.player, mv.to_strategy, mv.old_utility,
                           mv.new_utility) for mv in trace.moves)


@SETTINGS
@given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 10**6),
       st.data())
def test_hypergraph_kernel_matches_paying_edges(n, m, seed, data):
    hg, _gamma = random_hypergraph_cc(n, m, seed)
    profile = tuple(data.draw(st.integers(1, m)) for _ in range(n))
    for i in range(n):
        expected = []
        for k in range(1, m + 1):
            probe = profile[:i] + (k,) + profile[i + 1:]
            expected.append(sum((e.shares[e.players.index(i)] * e.weight
                                 for e in hg.edges
                                 if i in e.players and e.pays(probe)),
                                Fraction(0)))
        assert hg.utilities(profile, i) == expected


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10**6),
       st.data())
def test_table_kernel_matches_table_lookups(n, m, seed, data):
    gg = random_supermodular(n, m, data.draw(st.sampled_from((1, 2))), seed)
    profile = tuple(data.draw(st.integers(1, m)) for _ in range(n))
    for i in range(n):
        assert gg.utilities(profile, i) == [
            gg.utility_in_profile(profile, i, strategy=k)
            for k in range(1, m + 1)]


def reference_degree(ggame):
    """The pairwise Fraction loop: every ordered pair of one player's
    entries, one division per pair."""
    by_player = {}
    for (i, k, others), u in ggame.tables.items():
        by_player.setdefault(i, []).append((k, others, u))
    degree = Fraction(1)
    for i, entries in by_player.items():
        for (k1, o1, u1), (k2, o2, u2) in itertools.product(entries, repeat=2):
            key = (i, k1, o1 | o2)
            if key not in ggame.tables:
                continue
            top = ggame.tables[key]
            if u1 + u2 == 0:
                if top > 0:
                    return math.inf
                continue
            ratio = top / (u1 + u2)
            if ratio > degree:
                degree = ratio
    return degree


# zeros make zero denominators; the fractions differ in denominator
table_values = st.sampled_from(
    (0, 0, 1, 2, 5, Fraction(1, 2), Fraction(5, 3), Fraction(7, 4))).map(
        Fraction)


@st.composite
def sparse_tables(draw):
    """Tables missing about a third of their entries, so that many unions
    have no entry."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    tables = {}
    for i in range(n):
        rest = [j for j in range(n) if j != i]
        for size in range(len(rest) + 1):
            for combo in itertools.combinations(rest, size):
                for k in range(1, m + 1):
                    if draw(st.integers(0, 2)):
                        tables[(i, k, frozenset(combo))] = draw(table_values)
    return GeneralizedGame(n=n, m=m, tables=tables)


def _table(n, m, entries):
    return GeneralizedGame(n=n, m=m, tables={
        (i, k, frozenset(o)): Fraction(u) for i, k, o, u in entries})


@SETTINGS
@given(sparse_tables())
# zero entries at two strategies under a positive union: unbounded
@example(_table(2, 2, [(0, 1, (), 0), (0, 1, (1,), 3), (0, 2, (1,), 0),
                       (1, 1, (), 1)]))
# the ratio 7/3 pairs an entry with the cheaper one at the other strategy
@example(_table(2, 2, [(0, 1, (), 1), (0, 1, (1,), 7), (0, 2, (1,), 2),
                       (1, 2, (), 1)]))
def test_degree_matches_pairwise_fraction_loop(ggame):
    assert supermodularity_degree(ggame) == reference_degree(ggame)


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 3), st.sampled_from((1, 2)),
       st.integers(0, 10**6), st.sampled_from((1, Fraction(3, 2), 2, 3)))
def test_degree_matches_on_generated_families(n, m, r, seed, c):
    for ggame in (random_supermodular(n, m, r, seed), triangle_game(c)):
        assert supermodularity_degree(ggame) == reference_degree(ggame)


def _sign(x):
    return (x > 0) - (x < 0)


def reference_audit(game, cert, trials, seed):
    """The per-trial Fraction audit: du from the utility vector and dphi
    as the difference of two full potential values, on the same triples
    in the same order as `ordinal_audit`."""
    if game.m ** game.n * game.n * game.m <= 20_000:
        triples = [(p, i, k)
                   for p in itertools.product(range(1, game.m + 1),
                                              repeat=game.n)
                   for i in range(game.n)
                   for k in range(1, game.m + 1) if k != p[i]]
    else:
        rng = random.Random(seed)
        triples = []
        for _ in range(trials):
            p = tuple(rng.randint(1, game.m) for _ in range(game.n))
            i = rng.randrange(game.n)
            k = rng.randint(1, game.m)
            if k == p[i]:
                k = k % game.m + 1
            triples.append((p, i, k))
    violations, counterexample = 0, None
    for p, i, k in triples:
        us = game.utilities(p, i)
        du = us[k - 1] - us[p[i] - 1]
        moved = p[:i] + (k,) + p[i + 1:]
        dphi = potential_value(game, moved, cert) - potential_value(game, p,
                                                                    cert)
        if _sign(du) != _sign(dphi):
            violations += 1
            if counterexample is None:
                counterexample = (p, i, k, du, dphi)
    return AuditReport(trials=len(triples), violations=violations,
                       counterexample=counterexample)


weights = st.sampled_from((1, 2, 3, Fraction(1, 2), Fraction(5, 3))).map(
    Fraction)


@st.composite
def certified_games(draw, sizes, ms):
    """A game whose shares come from influence weights, with that
    certificate or, half the time, one whose weight for one player is
    scaled, which can break the potential."""
    n, m = draw(sizes), draw(ms)
    gamma = [draw(weights) for _ in range(n)]
    intrinsic = tuple(tuple(draw(values) for _ in range(m)) for _ in range(n))
    edges = tuple(Edge(i, j, draw(values), gamma[i] / (gamma[i] + gamma[j]))
                  for i in range(n) for j in range(i + 1, n)
                  if draw(st.booleans()))
    if draw(st.booleans()):
        gamma[draw(st.integers(0, n - 1))] *= draw(
            st.sampled_from((5, Fraction(1, 5))))
    game = GameInstance(n=n, m=m, intrinsic=intrinsic, edges=edges)
    return game, PotentialCertificate(gamma=tuple(gamma))


# violations are rare in the small cases hypothesis tries first
AUDIT_SETTINGS = settings(SETTINGS, max_examples=200)


@AUDIT_SETTINGS
@given(certified_games(st.integers(2, 4), st.integers(2, 3)))
@example((example1(1), PotentialCertificate(gamma=(Fraction(1),) * 3)))
def test_exhaustive_audit_matches_fraction_audit(case):
    game, cert = case
    assert ordinal_audit(game, cert) == reference_audit(game, cert, 0, 0)


@SETTINGS
@given(certified_games(st.integers(7, 9), st.just(3)), st.integers(1, 150),
       st.integers(0, 10**6))
def test_sampled_audit_matches_fraction_audit(case, trials, seed):
    game, cert = case
    report = ordinal_audit(game, cert, trials=trials, seed=seed)
    assert report.trials == trials  # the sampled branch
    assert report == reference_audit(game, cert, trials, seed)
