"""Differential property tests for the utility-vector kernel.

The kernel (`utilities(profile, i)` on every game family), the gated
best-response loop and the shared deviation report are compared with
straightforward reference implementations kept here: utilities summed edge
by edge, and best responses found by one `player_utility` call per
strategy.  Runs are derandomized and small.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from scg.analysis import deviation_report
from scg.dynamics import (DynamicsTrace, Move, MoveRule, one_shot_alpha_br,
                          run_dynamics)
from scg.generalized import (additive_tables, one_shot_generalized,
                             verify_generalized)
from scg.generators import random_hypergraph_cc, random_supermodular
from scg.model import Edge, GameInstance, player_utility

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
