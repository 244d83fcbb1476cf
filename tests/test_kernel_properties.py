"""Differential property tests for the exact kernels.

The integer kernel (`scale` and `scaled_utilities` of `GameInstance`), the
other families' `utilities`, the gated best-response loop, the shared
deviation report, the oracles, the integer complementarity degree and the
integer potential audit are compared with straightforward Fraction
references kept here: the Fraction utility-vector and welfare loops that
`GameInstance` used before it was scaled to one integer denominator, the
kernel it built from Fraction edge gains before they were int pairs, the
``rng.random() < Fraction(edge_prob)`` edge draw of `random_instance`, the
bodies `random_cc`, `random_symmetric` and `random_supermodular` had before
they shared one pairwise draw and took `additive_tables`, the gate
``u_new >= alpha * u_old`` and the factor ``u_new / u_old`` computed on
Fractions, best responses found by a per-strategy scan, the degree as a
Fraction ratio over every pair of table entries, the audit with both
changes computed as Fractions on every trial, on triples drawn by
`randint` and `randrange` calls, the potential's kernel built from
Fraction terms, the Fraction group-deviation loop and the `lex_compare`
loop that omega games had of their own, the depth-first weight recovery
`cc_recover` had of its own and the edge-by-edge sweep with union-find
normalization of the hypergraph recovery.  The pruned group-deviation search is also compared with the
flat scan over every profile that it replaced; the optimum and census
searches with the incremental lexicographic walk that they replaced,
`_walk`, and with flat scans over the Fraction utilities of pairwise,
omega and pair-hypergraph games.  The census and the group check on their
shared per-player state are compared with the versions that kept a state
of their own, node by node.  The event-driven dynamics are compared
with the loops they replaced, the gated loop that rescans from player 0
after every move and the pass-based continuing sweep, on every family,
tables included: the same traces, the same sweep movers in order, the
same `TableError` of an incomplete table, and on tables the same
`scaled_utilities` calls.  Tables' integer view is compared with the
table lookups they read before it, holes included, and the flat scans the
oracles run on tables and on hypergraphs with larger or anchored groups
with flat scans over the Fraction lookups.  The public readers
`player_utility`, `welfare`, `best_response`, `instance_stats` and
`mip_check` are compared with the versions that read the Fraction vector
`utilities` and the Fraction own values, on pairwise games and
hypergraphs.  Each kernel shape's reader and hearers are compared with
the pair loop a kernel game had of its own, the hypergraph's reader with
``rest`` groups and the hearer list the dynamics worked out; the
additive tables of every kernel family with the game they expand, reader
by reader and census by census; the closed-form one-shot gate with the
Fraction search it replaced.  The one int-pair group list is compared
with what it replaced: every family's kernel with the builder the family
had of its own, and the weight recovery (witnesses included), the share
check, the potential and the potential's kernel with their versions over
the Fraction ``groups`` view, on certified, generated and perturbed
games.  `potential_delta`, read from the potential's kernel, is compared
with the difference of two Phi sums it was, move by move; `instance_stats`
of omega games and pair hypergraphs with Fraction sums over their pairs;
and the one flat scan of a census the search cannot cut is counted, n *
m**n vectors for the optimum and the equilibria together.  Instances mix
fractional values, all-int values (scale 1) and coprime denominators
whose lcm exceeds 2**64.  Runs are derandomized and small.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scg.analysis import (DeviationReport, EquilibriumCensus, PaymentPlan,
                          StrongDeviationReport, _best_reply, _check_cap,
                          _factor, _factor_exceeds, brute_force_optimum,
                          deviation_report, equilibrium_census, mip_check,
                          payment_stabilize, post_payment_deviation_report,
                          semi_smoothness_check, verify_approx_strong)
from scg import analysis, generators
from scg.dynamics import (DynamicsTrace, Move, MoveRule, _Run, _sweep,
                          algorithm1_two, best_response, hybrid,
                          one_shot_alpha_br, run_dynamics, sqrt2_three,
                          strong_two)
from scg.generalized import (GeneralizedGame, Hyperedge, HypergraphGame,
                             OmegaGame, TableError, additive_tables,
                             hypergraph_br_dynamics, hypergraph_cc_recover,
                             hypergraph_potential, lex_compare,
                             lex_strong_eq, mass_vector,
                             one_shot_generalized, supermodularity_degree,
                             triangle_game, verify_generalized,
                             verify_omega_strong)
from scg.generators import (example1, prop5, random_cc,
                            random_hypergraph_cc, random_instance,
                            random_supermodular, random_symmetric)
from scg.model import (Edge, GameInstance, InstanceStats, IntKernel,
                       UtilityBreakdown, _GroupKernel, _KernelGame,
                       instance_stats, player_utility, welfare, welfare_total)
from scg.potentials import (AuditReport, PotentialCertificate,
                            RecoveryFailure, _potential_kernel,
                            _sampled_deviations, cc_recover,
                            certificate_shares_match, ordinal_audit,
                            potential_delta, potential_value)
from scg.rationals import at_least_sqrt2_times, supermodular_alpha

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

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
hybrid_alphas = st.sampled_from((Fraction(1618, 1000), Fraction(7, 4),
                                 Fraction(2), Fraction(2**65 + 1, 2**64 + 1)))


@st.composite
def instances(draw, ns=st.integers(1, 6), ms=st.integers(1, 3),
              kinds=tuple(VALUE_KINDS)):
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
def game_and_profile(draw, games=instances()):
    g = draw(games)
    profile = tuple(draw(st.integers(1, g.m)) for _ in range(g.n))
    return g, profile


small_games = instances(ns=st.integers(1, 4))


# --- Fraction references -----------------------------------------------------


def fraction_utilities(g, profile, i):
    """The Fraction utility vector `GameInstance.utilities` computed before
    the integer kernel: intrinsic values plus co-located neighbours' gains."""
    us = list(g.intrinsic[i])
    for e in g.edges:
        if e.i == i:
            us[profile[e.j] - 1] += e.share_ij * e.w
        elif e.j == i:
            us[profile[e.i] - 1] += (1 - e.share_ij) * e.w
    return us


def fraction_welfare_total(g, profile):
    """The Fraction welfare loop `welfare_total` ran before the int pair."""
    total = Fraction(0)
    for i in range(g.n):
        total += g.intrinsic[i][profile[i] - 1]
    for e in g.edges:
        if profile[e.i] == profile[e.j]:
            total += e.w
    return total


def fraction_allows(alpha, u_old, u_new):
    if u_old == 0:
        return u_new > 0
    return u_new >= alpha * u_old and u_new > u_old


def fraction_factor(u_old, u_new):
    if u_old == 0:
        return math.inf if u_new > 0 else Fraction(1)
    return Fraction(u_new) / u_old


def _profiles(g):
    return itertools.product(range(1, g.m + 1), repeat=g.n)


def _scan_best_response(g, profile, i, bonus=0):
    """(best strategy, its utility, current utility) by a per-strategy
    scan; ties stay, then go to the lowest index."""
    us = fraction_utilities(g, profile, i)
    current = us[profile[i] - 1] + bonus
    best_k, best_u = profile[i], current
    for k in range(1, g.m + 1):
        if k != profile[i] and us[k - 1] > best_u:
            best_k, best_u = k, us[k - 1]
    return best_k, best_u, current


def reference_dynamics(g, start, alpha, k0=None):
    """The restart-after-every-move loop with per-strategy scans and the
    Fraction gate.  With `k0`, only players still at k0 move, as in
    one-shot dynamics."""
    step_cap = (g.m ** g.n) * max(g.n, 1)
    profile, seen, moves = tuple(start), {tuple(start)}, []
    while True:
        mover = None
        for i in range(g.n):
            if k0 is not None and profile[i] != k0:
                continue
            k, u_new, u_old = _scan_best_response(g, profile, i)
            if k != profile[i] and fraction_allows(alpha, u_old, u_new):
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


def reference_report(g, profile, bonus=None):
    per, max_factor, witness = [], Fraction(1), None
    for i in range(g.n):
        k, best_u, current = _scan_best_response(
            g, profile, i, bonus[i] if bonus else 0)
        f = fraction_factor(current, best_u)
        per.append((k, f))
        if f > max_factor:
            max_factor, witness = f, i
    return DeviationReport(tuple(per), max_factor, witness)


def reference_optimum(g):
    best = None
    for p in _profiles(g):
        w = fraction_welfare_total(g, p)
        if best is None or w > best[1]:
            best = (p, w)
    return best


def reference_census(g, alpha):
    opt_profile, opt_w = reference_optimum(g)
    eq = [p for p in _profiles(g)
          if reference_report(g, p).max_factor <= alpha]
    ws = [fraction_welfare_total(g, p) for p in eq]

    def ratio(w):
        if w == 0:
            return Fraction(1) if opt_w == 0 else math.inf
        return opt_w / w

    return EquilibriumCensus(
        alpha=alpha, opt_profile=opt_profile, opt_welfare=opt_w,
        equilibria=tuple(eq), equilibrium_welfares=tuple(ws),
        poa=ratio(min(ws)) if eq else None,
        pos=ratio(max(ws)) if eq else None, exists=bool(eq))


def reference_strong(g, profile, alpha):
    base = [fraction_utilities(g, profile, i)[profile[i] - 1]
            for i in range(g.n)]
    for alt in _profiles(g):
        coalition = tuple(i for i in range(g.n) if alt[i] != profile[i])
        if coalition and all(
                fraction_factor(base[i],
                                fraction_utilities(g, alt, i)[alt[i] - 1])
                > alpha for i in coalition):
            return StrongDeviationReport("violated", alpha, alt, coalition)
    return StrongDeviationReport("stable-at-alpha", alpha)


def reference_hybrid(g, alpha):
    """(s1, s2, their welfares): one-shot runs from the strategy with the
    largest intrinsic column sum, lowest index on ties."""
    cols = [sum((row[k] for row in g.intrinsic), Fraction(0))
            for k in range(g.m)]
    k0 = max(range(g.m), key=lambda k: (cols[k], -k)) + 1
    runs = [reference_dynamics(g, (k0,) * g.n, a, k0=k0).terminal
            for a in (alpha, 1 / (alpha - 1))]
    return (*runs, *(fraction_welfare_total(g, s) for s in runs))


class FractionGame(GameInstance):
    """The same instance read through `fraction_utilities` at scale 1, so
    an algorithm runs on the Fraction vectors it used before the integer
    kernel."""

    scale = 1

    def scaled_utilities(self, profile, i):
        return fraction_utilities(self, profile, i)

    utilities = scaled_utilities


def _fraction_game(g):
    return FractionGame(n=g.n, m=g.m, intrinsic=g.intrinsic, edges=g.edges)


# --- the kernel and the loops it serves --------------------------------------


@SETTINGS
@given(game_and_profile())
def test_kernel_matches_edge_sum(case):
    g, profile = case
    gains = [sh * e.w for e in g.edges for sh in (e.share_ij, 1 - e.share_ij)]
    assert g.scale == math.lcm(
        *(v.denominator for row in g.intrinsic for v in row),
        *(x.denominator for x in gains))
    for i in range(g.n):
        expected = fraction_utilities(g, profile, i)
        scaled = g.scaled_utilities(profile, i)
        assert all(type(u) is int for u in scaled)
        assert scaled == [u * g.scale for u in expected]
        assert g.utilities(profile, i) == expected
        assert player_utility(g, profile, i)[0] == expected[profile[i] - 1]
    w = welfare_total(g, profile)
    assert type(w) is Fraction
    assert w == fraction_welfare_total(g, profile) == welfare(g, profile).total


def fraction_kernel(g):
    """(scale, rows, nbrs, gains) as `GameInstance._kernel` built them
    before its edge gains were int pairs: the gains as the Fractions
    ``share_ij * w`` and ``w - share_ij * w``, every value scaled by the
    lcm of the denominators."""
    edge_gains = [(gain := e.share_ij * e.w, e.w - gain) for e in g.edges]
    values = [v for row in g.intrinsic for v in row]
    values += [x for pair in edge_gains for x in pair]
    scale = math.lcm(*(v.denominator for v in values))
    ints = iter([v.numerator * (scale // v.denominator) for v in values])
    rows = [list(itertools.islice(ints, len(row))) for row in g.intrinsic]
    nbrs, gains = [[] for _ in rows], [[] for _ in rows]
    for e in g.edges:
        for i, j in ((e.i, e.j), (e.j, e.i)):
            nbrs[i].append(j)
            gains[i].append(next(ints))
    return scale, rows, nbrs, gains


# weights with w = 0 and coprime denominators whose lcm exceeds 2**64, and
# shares at both ends of [0, 1], as ints or Fractions
edge_weights = st.sampled_from((0, 3, Fraction(0), Fraction(5, 2),
                                Fraction(2 * P61 + 1, P61),
                                Fraction(P30 + 2, P30)))
edge_shares = st.sampled_from((0, 1, Fraction(0), Fraction(1),
                               Fraction(1, 3), Fraction(7, 10),
                               Fraction(P31 - 1, P31)))


@SETTINGS
@given(instances(), instances(kinds=("coprime",)), edge_weights,
       edge_shares, st.data())
def test_int_pair_kernel_matches_the_fraction_kernel(g, coprime, w, share,
                                                     data):
    """The kernel built from int-pair gains has the scale, rows, neighbours
    and gains of the one built by Fraction arithmetic, on drawn instances
    and on one whose every edge has the drawn weight and share."""
    n = data.draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1,
                                unique=True))
    edges = tuple(Edge(i, j, w, share) for i, j in chosen)
    same = GameInstance(n=n, m=2, intrinsic=((Fraction(1, 3), 0),) * n,
                        edges=edges)
    for game in (g, coprime, same):
        kernel = game._kernel
        assert (kernel.scale, kernel.rows, kernel.nbrs,
                kernel.gains) == fraction_kernel(game)
        assert kernel.rest == []


def reference_random_edges(n, m, seed, edge_prob, rng_type=random.Random):
    """The edges `random_instance` drew before its int threshold: each pair
    kept when ``rng.random() < Fraction(edge_prob)``."""
    rng = rng_type(seed)
    for _ in range(n * m):  # the intrinsic draws come first
        rng.randint(0, 10)
        rng.choice((1, 2, 3))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < Fraction(edge_prob):
                w = Fraction(rng.randint(1, 10))
                edges.append(Edge(i, j, w, Fraction(rng.randint(1, 9), 10)))
    return tuple(edges)


@pytest.mark.parametrize("n", (1, 2, 7, 30))
def test_random_instance_draws_the_fraction_threshold_edges(n):
    probs = [0, Fraction(1, 3), Fraction(1, 2), 1, 1.0]
    probs += [4 / (n - 1)] if n > 4 else []
    for seed in range(4):
        assert (random_instance(n, 3, seed).edges
                == reference_random_edges(n, 3, seed, Fraction(1, 2)))
        for edge_prob in probs:
            assert (random_instance(n, 3, seed, edge_prob=edge_prob).edges
                    == reference_random_edges(n, 3, seed, edge_prob))


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
    assert edges == reference_random_edges(n, 1, 0, edge_prob,
                                           rng_type=NearCut)
    assert 0 < len(edges) < n * (n - 1) // 2


def reference_random_cc(n, m, seed):
    """`random_cc` as it was written before the pairwise draw was shared:
    influence weights, own values, then a Fraction-free 1/2 edge test."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    rng = random.Random(seed)
    gamma = [Fraction(rng.randint(1, 5)) for _ in range(n)]
    intrinsic = tuple(
        tuple(Fraction(rng.randint(0, 10), rng.choice((1, 2, 3)))
              for _ in range(m))
        for _ in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                w = Fraction(rng.randint(1, 10))
                edges.append(Edge(i=i, j=j, w=w,
                                  share_ij=gamma[i] / (gamma[i] + gamma[j])))
    return (GameInstance(n=n, m=m, intrinsic=intrinsic, edges=tuple(edges)),
            tuple(gamma))


def reference_random_symmetric(n, m, seed):
    """`random_symmetric` as it was written before the pairwise draw was
    shared."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    rng = random.Random(seed)
    intrinsic = tuple(
        tuple(Fraction(rng.randint(0, 10), rng.choice((1, 2, 3)))
              for _ in range(m))
        for _ in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges.append(Edge(i=i, j=j, w=Fraction(rng.randint(1, 10)),
                                  share_ij=Fraction(1, 2)))
    return GameInstance(n=n, m=m, intrinsic=intrinsic, edges=tuple(edges))


def reference_random_supermodular(n, m, r, seed):
    """`random_supermodular` as it was written before it took the tables
    of `additive_tables`: every subset of the others summed on its own."""
    if r not in (1, 2):
        raise ValueError("only degree bounds 1 and 2 are generated")
    if not (1 <= n <= 8):
        raise ValueError("n must be in 1..8 (tables are exponential in n)")
    rng = random.Random(seed)
    base = [[Fraction(rng.randint(0, 6)) for _ in range(m)]
            for _ in range(n)]
    gain = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                gain[(i, j)] = Fraction(rng.randint(0, 4))
    tables = {}
    for i in range(n):
        rest = [j for j in range(n) if j != i]
        for size in range(len(rest) + 1):
            for combo in itertools.combinations(rest, size):
                g = sum((gain[(i, j)] for j in combo), Fraction(0))
                for k in range(1, m + 1):
                    v = base[i][k - 1] + g
                    tables[(i, k, frozenset(combo))] = v if r == 1 else v * v
    return GeneralizedGame(n=n, m=m, tables=tables)


@pytest.mark.parametrize("n", (1, 2, 3, 5, 8))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_random_families_match_their_own_draws(n, m):
    """The shared pairwise draw and the tables taken from `additive_tables`
    give the corpora the families drew on their own, in the same order."""
    for seed in range(6):
        game, gamma = random_cc(n, m, seed)
        ref_game, ref_gamma = reference_random_cc(n, m, seed)
        assert (game, gamma) == (ref_game, ref_gamma)
        assert random_symmetric(n, m, seed) == reference_random_symmetric(
            n, m, seed)
        for r in (1, 2):
            tables = random_supermodular(n, m, r, seed).tables
            ref_tables = reference_random_supermodular(n, m, r, seed).tables
            assert list(tables.items()) == list(ref_tables.items())


@SETTINGS
@given(game_and_profile(), alphas)
def test_run_dynamics_matches_reference_loop(case, alpha):
    g, start = case
    assert (run_dynamics(g, start, MoveRule(alpha))
            == reference_dynamics(g, start, alpha))


@SETTINGS
@given(instances(), st.data(), alphas)
def test_one_shot_matches_reference_loop(g, data, alpha):
    k0 = data.draw(st.integers(1, g.m))
    profile, trace = one_shot_alpha_br(g, k0, alpha)
    assert trace == reference_dynamics(g, (k0,) * g.n, alpha, k0=k0)
    assert profile == trace.terminal


@SETTINGS
@given(game_and_profile())
def test_reports_match_the_reference_scan(case):
    g, profile = case
    report = deviation_report(g, profile)
    assert report == reference_report(g, profile)
    assert verify_generalized(additive_tables(g), profile) == report


@SETTINGS
@given(game_and_profile(), st.sampled_from((0, Fraction(1, 7))))
def test_payments_match_the_reference(case, extra):
    g, profile = case
    _, opt_w = reference_optimum(g)
    assume(opt_w > 0)
    plan = payment_stabilize(g, profile, opt_w)
    payments = []
    for i, k in enumerate(profile):
        us = fraction_utilities(g, profile, i)
        payments.append(max(us) - us[k - 1])
    total = sum(payments, Fraction(0))
    assert plan == PaymentPlan(tuple(payments), total, total / opt_w)
    # payments off the game's scale take the Fraction branch of the bonus
    paid = [p + extra for p in payments]
    plan = PaymentPlan(tuple(paid), sum(paid, Fraction(0)), Fraction(1))
    assert (post_payment_deviation_report(g, profile, plan)
            == reference_report(g, profile, bonus=paid))


NO_PLAYERS = GameInstance(n=0, m=2, intrinsic=(), edges=())
ONE_STRATEGY = GameInstance(n=2, m=1, intrinsic=((1,), (Fraction(1, 2),)),
                            edges=(Edge(0, 1, 2, Fraction(1, 3)),))


@SETTINGS
@given(game_and_profile(instances(ns=st.integers(0, 4))),
       st.one_of(st.just(Fraction(1, 2)), alphas))
@example((NO_PLAYERS, ()), Fraction(1, 2))
@example((NO_PLAYERS, ()), Fraction(1))
@example((ONE_STRATEGY, (1, 1)), Fraction(1, 2))
def test_oracles_match_the_reference(case, alpha):
    g, profile = case
    assert brute_force_optimum(g) == reference_optimum(g)
    assert brute_force_optimum(_fraction_game(g)) == brute_force_optimum(g)
    assert equilibrium_census(g, alpha) == reference_census(g, alpha)
    assert (verify_approx_strong(g, profile, alpha)
            == reference_strong(g, profile, alpha))
    assert (semi_smoothness_check(g, profile)
            == semi_smoothness_check(_fraction_game(g), profile))


@SETTINGS
@given(instances(), hybrid_alphas)
def test_hybrid_matches_the_reference(g, alpha):
    rep = hybrid(g, alpha)
    assert ((rep.s1, rep.s2, rep.welfare_s1, rep.welfare_s2)
            == reference_hybrid(g, alpha))


@SETTINGS
@given(instances(ms=st.just(2)), instances(ms=st.just(3)), st.data())
def test_two_and_three_strategy_algorithms_match_fraction_game(g2, g3, data):
    start = tuple(data.draw(st.integers(1, 2)) for _ in range(g2.n))
    assert (algorithm1_two(g2, start)
            == algorithm1_two(_fraction_game(g2), start))
    assert strong_two(g2) == strong_two(_fraction_game(g2))
    assert sqrt2_three(g3) == sqrt2_three(_fraction_game(g3))


INT_PAIR = GameInstance(n=2, m=2, intrinsic=((1, 2), (3, 1)),
                        edges=(Edge(0, 1, 2, 1),))


@SETTINGS
@given(game_and_profile(instances(kinds=("ints",))), alphas)
@example((INT_PAIR, (1, 1)), Fraction(3, 2))
def test_int_instances_report_no_floats(case, alpha):
    g, profile = case
    assert g.scale == 1

    def exact(x):
        return type(x) is Fraction or x == math.inf

    factors = [f for _, f in deviation_report(g, profile).per_player]
    moves = run_dynamics(g, profile, MoveRule(alpha)).moves
    moves += one_shot_alpha_br(g, 1, alpha)[1].moves
    utilities = [u for mv in moves for u in (mv.old_utility, mv.new_utility)]
    plan = payment_stabilize(g, profile, Fraction(1))
    post = post_payment_deviation_report(g, profile, plan)
    rep = hybrid(g, 2)
    census = equilibrium_census(g, alpha)
    welfares = [welfare_total(g, profile), welfare(g, profile).total,
                rep.welfare_s1, rep.welfare_s2, census.opt_welfare,
                *census.equilibrium_welfares]
    assert all(map(exact, factors + [f for _, f in post.per_player]
                   + utilities + list(plan.payments) + [plan.total]
                   + welfares))


@SETTINGS
@given(instances(), st.data(), alphas)
def test_table_one_shot_makes_the_same_moves(g, data, alpha):
    k0 = data.draw(st.integers(1, g.m))
    profile, used, moves = one_shot_generalized(additive_tables(g), k0, alpha)
    expected, trace = one_shot_alpha_br(g, k0, alpha)
    assert (profile, used) == (expected, alpha)
    assert moves == tuple((mv.player, mv.to_strategy, mv.old_utility,
                           mv.new_utility) for mv in trace.moves)


def _pays(e, profile):
    """Whether hyperedge e pays: its members play one strategy, its anchor
    if it has one."""
    strategies = {profile[i] for i in e.players}
    return len(strategies) == 1 and e.anchor in (None, *strategies)


def reference_hypergraph_utilities(hg, profile, i):
    """Player i's Fraction utility vector, each entry summed over the edges
    that would pay i there."""
    expected = []
    for k in range(1, hg.m + 1):
        probe = profile[:i] + (k,) + profile[i + 1:]
        expected.append(sum((e.shares[e.players.index(i)] * e.weight
                             for e in hg.edges
                             if i in e.players and _pays(e, probe)),
                            Fraction(0)))
    return expected


@SETTINGS
@given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 10**6),
       st.data())
def test_hypergraph_kernel_matches_paying_edges(n, m, seed, data):
    """`utilities` reads the hypergraph's integer kernel; each entry must
    be the sum over the edges that would pay i there."""
    if data.draw(st.booleans()):
        hg, _gamma = random_hypergraph_cc(n, m, seed)
    else:
        hg, _cert = data.draw(certified_hypergraphs(st.just(n), st.just(m)))
    profile = tuple(data.draw(st.integers(1, m)) for _ in range(n))
    for i in range(n):
        assert tuple(player_utility(hg, profile, i, k)[1]
                     for k in range(1, m + 1)) == reference_intrinsic(hg)[i]
        assert hg.utilities(profile, i) == reference_hypergraph_utilities(
            hg, profile, i)


@st.composite
def pair_hypergraphs(draw):
    """A hypergraph game of singletons, anchored or not, and unanchored
    pairs, parallel pairs included, with any shares: every group is one the
    integer kernel folds into its rows or its pair lists."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
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


def reference_hypergraph_census(hg, alpha):
    """The census of a hypergraph game by a flat scan over every profile:
    welfare summed over the paying edges, factors from the Fraction
    utility vectors."""
    def welfare_of(p):
        return sum((e.weight for e in hg.edges if _pays(e, p)), Fraction(0))

    def stable(p):
        for i in range(hg.n):
            us = reference_hypergraph_utilities(hg, p, i)
            if fraction_factor(us[p[i] - 1], max(us)) > alpha:
                return False
        return True

    profiles = list(_profiles(hg))
    opt_profile = max(profiles, key=welfare_of)  # the first maximum
    opt_w = welfare_of(opt_profile)
    eq = [p for p in profiles if stable(p)]
    ws = [welfare_of(p) for p in eq]

    def ratio(w):
        if w == 0:
            return Fraction(1) if opt_w == 0 else math.inf
        return opt_w / w

    return EquilibriumCensus(
        alpha=alpha, opt_profile=opt_profile, opt_welfare=opt_w,
        equilibria=tuple(eq), equilibrium_welfares=tuple(ws),
        poa=ratio(min(ws)) if eq else None,
        pos=ratio(max(ws)) if eq else None, exists=bool(eq))


@SETTINGS
@given(pair_hypergraphs(), alphas)
def test_pair_hypergraph_oracles_match_the_flat_scan(hg, alpha):
    """The optimum and census search takes a hypergraph of singletons and
    pairs; its optimum and census are the flat scan's."""
    assert not hg._kernel.rest
    census = reference_hypergraph_census(hg, alpha)
    assert brute_force_optimum(hg) == (census.opt_profile,
                                       census.opt_welfare)
    assert equilibrium_census(hg, alpha) == census


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


def reference_potential_value(game, profile, cert):
    """The Fraction potential of a pairwise game, term by term, as it was
    written before both families shared one group potential."""
    gamma = [Fraction(g) for g in cert.gamma]
    phi = Fraction(0)
    for i in range(game.n):
        phi += game.intrinsic[i][profile[i] - 1] / gamma[i]
    for e in game.edges:
        if profile[e.i] == profile[e.j]:
            phi += e.w / (gamma[e.i] + gamma[e.j])
    return phi


def reference_potential_delta(game, profile, i, new_k, cert):
    """The pairwise potential change of player i's move from i's own terms
    only: every other term cancels."""
    old_k = profile[i]
    if old_k == new_k:
        return Fraction(0)
    gi = Fraction(cert.gamma[i])
    delta = (game.intrinsic[i][new_k - 1] - game.intrinsic[i][old_k - 1]) / gi
    for e in game.edges:
        if i not in (e.i, e.j):
            continue
        j = e.j if e.i == i else e.i
        if profile[j] == new_k:
            delta += e.w / (gi + cert.gamma[j])
        elif profile[j] == old_k:
            delta -= e.w / (gi + cert.gamma[j])
    return delta


def reference_hypergraph_potential(hgame, profile, cert):
    """The edge-by-edge Fraction loop of the hypergraph potential."""
    phi = Fraction(0)
    for e in hgame.edges:
        if _pays(e, profile):
            phi += e.weight / sum((cert.gamma[i] for i in e.players),
                                  Fraction(0))
    return phi


def reference_potential(game, profile, cert):
    if isinstance(game, HypergraphGame):
        return reference_hypergraph_potential(game, profile, cert)
    return reference_potential_value(game, profile, cert)


def reference_deviations(n, m, trials, seed):
    """The sampled audit's triples as `ordinal_audit` drew them through
    `randint` and `randrange` calls: a profile, a player and a deviation
    from the player's strategy."""
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
    """The per-trial Fraction audit: du from the utility vector and dphi
    as the difference of two full reference potential values, on the same
    triples in the same order as `ordinal_audit`."""
    if game.m ** game.n * game.n * game.m <= 20_000:
        triples = [(p, i, k)
                   for p in itertools.product(range(1, game.m + 1),
                                              repeat=game.n)
                   for i in range(game.n)
                   for k in range(1, game.m + 1) if k != p[i]]
    else:
        triples = reference_deviations(game.n, game.m, trials, seed)
    violations, counterexample = 0, None
    for p, i, k in triples:
        us = game.utilities(p, i)
        du = us[k - 1] - us[p[i] - 1]
        moved = p[:i] + (k,) + p[i + 1:]
        dphi = (reference_potential(game, moved, cert)
                - reference_potential(game, p, cert))
        if _sign(du) != _sign(dphi):
            violations += 1
            if counterexample is None:
                counterexample = (p, i, k, du, dphi)
    return AuditReport(trials=len(triples), violations=violations,
                       counterexample=counterexample)


weights = st.sampled_from((1, 2, 3, Fraction(1, 2), Fraction(5, 3))).map(
    Fraction)
perturbations = st.sampled_from((5, 7, Fraction(1, 5)))


def _perturbed(draw, gamma):
    """The certificate of the weights or, half the time, of the weights
    with one player's scaled, which can break the potential."""
    gamma = list(gamma)
    if draw(st.booleans()):
        gamma[draw(st.integers(0, len(gamma) - 1))] *= draw(perturbations)
    return PotentialCertificate(gamma=tuple(gamma))


@st.composite
def certified_games(draw, sizes, ms):
    """A game whose shares come from influence weights, with their
    certificate or a perturbed one."""
    n, m = draw(sizes), draw(ms)
    gamma = [draw(weights) for _ in range(n)]
    intrinsic = tuple(tuple(draw(values) for _ in range(m)) for _ in range(n))
    edges = tuple(Edge(i, j, draw(values), gamma[i] / (gamma[i] + gamma[j]))
                  for i in range(n) for j in range(i + 1, n)
                  if draw(st.booleans()))
    game = GameInstance(n=n, m=m, intrinsic=intrinsic, edges=edges)
    return game, _perturbed(draw, gamma)


@st.composite
def certified_hypergraphs(draw, sizes, ms):
    """A hypergraph game whose shares come from influence weights, with
    their certificate or a perturbed one.  Edges have one to four members,
    any of `values` as weight (zero included) and an anchor or none, so
    unanchored and anchored singletons, pairs and larger groups occur."""
    n, m = draw(sizes), draw(ms)
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


def certified(sizes, ms):
    """Either family, certified as above."""
    return certified_games(sizes, ms) | certified_hypergraphs(sizes, ms)


# violations are rare in the small cases hypothesis tries first
AUDIT_SETTINGS = settings(SETTINGS, max_examples=200)


@AUDIT_SETTINGS
@given(certified(st.integers(2, 4), st.integers(2, 3)))
@example((example1(1), PotentialCertificate(gamma=(Fraction(1),) * 3)))
def test_exhaustive_audit_matches_fraction_audit(case):
    game, cert = case
    assert ordinal_audit(game, cert) == reference_audit(game, cert, 0, 0)


@SETTINGS
@given(certified(st.integers(7, 9), st.just(3)), st.integers(1, 150),
       st.integers(0, 10**6))
def test_sampled_audit_matches_fraction_audit(case, trials, seed):
    game, cert = case
    report = ordinal_audit(game, cert, trials=trials, seed=seed)
    assert report.trials == trials  # the sampled branch
    assert report == reference_audit(game, cert, trials, seed)


# powers of two and not, and n on both sides of a bit_length step
@pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 8])
@pytest.mark.parametrize("n", [7, 8, 9, 60, 64, 65, 300])
def test_sampled_deviations_are_the_randint_stream(n, m):
    game = SimpleNamespace(n=n, m=m)
    for seed in (0, 1, 2**31 - 1):
        for trials in (1, 500):
            assert (list(_sampled_deviations(game, trials, seed))
                    == reference_deviations(n, m, trials, seed))


def reference_potential_kernel(game, cert):
    """The potential's `IntKernel` with each group's term w / (sum of
    member weights) computed on Fractions."""
    gamma = [Fraction(g) for g in cert.gamma]
    return reference_int_kernel([(0,) * game.m] * game.n, [
        (members, anchor,
         [(w / sum((gamma[j] for j in members), Fraction(0)))
          .as_integer_ratio()] * len(members))
        for members, w, _, anchor in reference_groups(game) if w])


@SETTINGS
@given(certified(st.integers(1, 6), st.integers(1, 3)))
def test_potential_kernel_matches_the_fraction_kernel(case):
    game, cert = case
    expected = reference_potential_kernel(game, cert)
    assert _potential_kernel(game, cert) == expected
    ints = PotentialCertificate(gamma=tuple(
        int(g) if g.denominator == 1 else g for g in cert.gamma))
    assert _potential_kernel(game, ints) == expected


@SETTINGS
@given(certified(st.integers(1, 6), st.integers(1, 3)), st.data())
def test_group_potential_matches_the_references(case, data):
    game, cert = case
    profile = tuple(data.draw(st.integers(1, game.m)) for _ in range(game.n))
    i = data.draw(st.integers(0, game.n - 1))
    k = data.draw(st.integers(1, game.m))
    moved = profile[:i] + (k,) + profile[i + 1:]
    phi = potential_value(game, profile, cert)
    assert phi == reference_potential(game, profile, cert)
    assert type(phi) is Fraction
    if isinstance(game, HypergraphGame):
        assert hypergraph_potential(game, profile, cert) == phi
        expected = (reference_hypergraph_potential(game, moved, cert)
                    - reference_hypergraph_potential(game, profile, cert))
    else:
        expected = reference_potential_delta(game, profile, i, k, cert)
    assert potential_delta(game, profile, i, k, cert) == expected


def double_phi_potential_delta(game, profile, i, new_strategy, cert):
    """`potential_delta` as it was before it read the potential's kernel:
    Phi over every group at the moved profile, minus Phi at the profile."""
    player_utility(game, profile, i, new_strategy)  # validates the arguments
    moved = list(profile)
    moved[i] = new_strategy
    return (potential_value(game, moved, cert)
            - potential_value(game, profile, cert))


def raised(run, *args):
    """What `run(*args)` returns, or the type and message it raises."""
    try:
        return run(*args)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


@SETTINGS
@given(certified(st.integers(1, 5), st.integers(1, 3)), st.data())
def test_potential_delta_is_the_double_phi_difference(case, data):
    """Every move's potential change, read from the potential's kernel, is
    the Fraction the two Phi sums give, on pairwise games and hypergraphs
    with anchored singletons and pairs, groups of three or four and zero
    weights; bad arguments raise what they raised."""
    game, cert = case
    profile = tuple(data.draw(st.integers(1, game.m)) for _ in range(game.n))
    for i in range(game.n):
        for k in range(1, game.m + 1):
            delta = potential_delta(game, profile, i, k, cert)
            assert type(delta) is Fraction
            assert delta == double_phi_potential_delta(game, profile, i, k,
                                                       cert)
    short = PotentialCertificate(gamma=cert.gamma[1:])
    zero = PotentialCertificate(gamma=(0,) + cert.gamma[1:])
    for args in ((profile, game.n, 1, cert), (profile, True, 1, cert),
                 (profile, 0, None, cert), (profile, 0, game.m + 1, cert),
                 (profile, 0, 1.0, cert), (profile[1:], 0, 1, cert),
                 (profile, 0, 1, short), (profile, 0, 1, zero)):
        assert (raised(potential_delta, game, *args)
                == raised(double_phi_potential_delta, game, *args))


# --- one oracle layer for every family ---------------------------------------


def reference_omega_utility(og, profile, i):
    """The Fraction utility of an omega game before it had an integer
    kernel; a conflicted co-location is an error."""
    u = Fraction(0)
    for j in range(og.n):
        if j == i or profile[j] != profile[i]:
            continue
        lab = og.labels[i][j]
        if lab == "one":
            u += og.a[i] * og.b[j]
        elif lab == "zero":
            u += og.omega * og.a[i] * og.b[j]
        else:
            raise ValueError("infeasible profile: conflicted co-location")
    return u


def reference_omega_strong(og, profile, alpha):
    """The Fraction group-deviation loop of omega games, with its own
    zero-baseline rule: any gain from nothing beats any factor."""
    base = [reference_omega_utility(og, profile, i) for i in range(og.n)]
    for alt in _profiles(og):
        coalition = tuple(i for i in range(og.n) if alt[i] != profile[i])
        if not coalition or not og.feasible(alt):
            continue
        violated = True
        for i in coalition:
            u_new = reference_omega_utility(og, alt, i)
            if base[i] == 0:
                improving = u_new > 0
            else:
                improving = u_new > alpha * base[i]
            if not improving:
                violated = False
                break
        if violated:
            return alt
    return None


def reference_lex_strong_eq(og):
    """The explicit `lex_compare` loop: a later profile replaces the best
    one only with a strictly larger mass vector."""
    best_profile, best_pi = None, None
    for profile in _profiles(og):
        if not og.feasible(profile):
            continue
        pi = mass_vector(og, profile)
        if best_pi is None or lex_compare(pi, best_pi) > 0:
            best_profile, best_pi = profile, pi
    if best_profile is None:
        raise ValueError("no feasible state exists")
    return best_profile, best_pi


# a, b > 0; one coprime denominator so that the omega kernel's scale is big
omega_values = st.sampled_from((1, 2, Fraction(1, 2), Fraction(5, 3),
                                Fraction(P61 + 1, P61)))


@st.composite
def omega_games(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
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


@SETTINGS
@given(omega_games(), st.data())
def test_omega_oracles_match_the_fraction_loops(og, data):
    profile = tuple(data.draw(st.integers(1, og.m)) for _ in range(og.n))
    for i in range(og.n):
        scaled = og.scaled_utilities(profile, i)
        assert all(type(u) is int for u in scaled)
        assert og.utilities(profile, i) == [Fraction(u, og.scale)
                                            for u in scaled]
        for k in range(1, og.m + 1):
            probe = profile[:i] + (k,) + profile[i + 1:]
            if og.feasible(probe):
                assert (og.utilities(profile, i)[k - 1]
                        == reference_omega_utility(og, probe, i))
    try:
        expected = reference_lex_strong_eq(og)
    except ValueError:
        with pytest.raises(ValueError, match="no feasible state"):
            lex_strong_eq(og)
        return
    assert lex_strong_eq(og) == expected
    for alpha in (Fraction(1), 1 / og.omega, Fraction(2)):
        for q in (expected[0], profile):
            if og.feasible(q):
                assert (verify_omega_strong(og, q, alpha)
                        == reference_omega_strong(og, q, alpha))


def reference_cc_recover(game):
    """The depth-first recovery `cc_recover` ran on its own adjacency."""
    positive = [e for e in game.edges if e.w > 0]
    for e in positive:
        if e.share_ij == 0 or e.share_ij == 1:
            return RecoveryFailure(
                edge=(e.i, e.j),
                reason="share 0 or 1 admits no positive weights")
    adj = [[] for _ in range(game.n)]
    for e in positive:
        adj[e.i].append((e.j, e.share_ji / e.share_ij))
        adj[e.j].append((e.i, e.share_ij / e.share_ji))
    gamma = [None] * game.n
    for root in range(game.n):
        if gamma[root] is not None:
            continue
        gamma[root] = Fraction(1)
        component, stack = [root], [root]
        while stack:
            i = stack.pop()
            for j, ratio in adj[i]:
                expected = gamma[i] * ratio
                if gamma[j] is None:
                    gamma[j] = expected
                    component.append(j)
                    stack.append(j)
                elif gamma[j] != expected:
                    return RecoveryFailure(
                        edge=(i, j),
                        reason="cycle forces two different weights")
        low = min(gamma[i] for i in component)
        for i in component:
            gamma[i] /= low
    return PotentialCertificate(gamma=tuple(gamma))


def reference_hypergraph_recover(hg):
    """The edge-by-edge sweep of the hypergraph recovery: propagate from any
    edge with a weighted member, seed an untouched edge when none has one,
    then normalize per union-find component."""
    positive = [e for e in hg.edges if e.weight > 0]
    for e in positive:
        if any(s == 0 for s in e.shares):
            return RecoveryFailure(
                edge=tuple(e.players),
                reason="zero share admits no positive weights")
    gamma = [None] * hg.n
    pending = list(positive)
    while pending:
        progressed = []
        for e in pending:
            known = next((idx for idx, i in enumerate(e.players)
                          if gamma[i] is not None), None)
            if known is None:
                continue
            base = gamma[e.players[known]] / e.shares[known]
            for idx, i in enumerate(e.players):
                expected = base * e.shares[idx]
                if gamma[i] is None:
                    gamma[i] = expected
                elif gamma[i] != expected:
                    return RecoveryFailure(
                        edge=tuple(e.players),
                        reason="edge forces two different weights")
            progressed.append(e)
        if progressed:
            pending = [e for e in pending if e not in progressed]
        else:
            e = pending[0]
            gamma[e.players[0]] = e.shares[0]
    comp = list(range(hg.n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for e in positive:
        for i in e.players[1:]:
            comp[find(i)] = find(e.players[0])
    groups = {}
    for i in range(hg.n):
        if gamma[i] is not None:
            groups.setdefault(find(i), []).append(i)
    for members in groups.values():
        low = min(gamma[i] for i in members)
        for i in members:
            gamma[i] /= low
    return PotentialCertificate(
        gamma=tuple(Fraction(1) if g is None else g for g in gamma))


def _perturbations(count, seed):
    """(edge index, new share, zero the weight?) for one to three of
    `count` edges.  Shares 0 and 1 admit no weights; the others usually
    break the consistency of a cycle through the edge."""
    rng = random.Random(seed)
    return [(rng.randrange(count),
             rng.choice((Fraction(0), Fraction(1), Fraction(1, 2),
                         Fraction(1, 3), Fraction(2, 5), Fraction(5, 7))),
             rng.random() < 0.15)
            for _ in range(rng.randint(1, 3) if count else 0)]


# a failing cycle needs a perturbed edge on a cycle, in about one case in ten
RECOVERY_SETTINGS = settings(SETTINGS, max_examples=200)


@RECOVERY_SETTINGS
@given(st.integers(1, 8), st.integers(0, 10**6), st.integers(0, 10**6))
def test_cc_recover_matches_the_old_dfs(n, seed, perturb_seed):
    consistent, _gamma = random_cc(n, 2, seed)
    edges = list(consistent.edges)
    for k, share, zero_weight in _perturbations(len(edges), perturb_seed):
        e = edges[k]
        edges[k] = Edge(e.i, e.j, 0 if zero_weight else e.w, share)
    perturbed = GameInstance(n=n, m=2, intrinsic=consistent.intrinsic,
                             edges=tuple(edges))
    for g in (consistent, perturbed):
        assert cc_recover(g) == reference_cc_recover(g)


@RECOVERY_SETTINGS
@given(st.integers(2, 8), st.integers(0, 10**6), st.integers(0, 10**6))
def test_hypergraph_recovery_matches_the_old_sweep(n, seed, perturb_seed):
    consistent, _gamma = random_hypergraph_cc(n, 2, seed)
    edges = list(consistent.edges)
    for k, share, zero_weight in _perturbations(len(edges), perturb_seed):
        e = edges[k]
        if len(e.players) > 1:  # member 0 takes `share`, the rest split 1 - it
            rest = (1 - share) / (len(e.players) - 1)
            edges[k] = Hyperedge(
                e.players, 0 if zero_weight else e.weight,
                (share,) + (rest,) * (len(e.players) - 1), e.anchor)
    perturbed = HypergraphGame(n=n, m=2, edges=tuple(edges))
    for hg in (consistent, perturbed):
        got = hypergraph_cc_recover(hg)
        expected = reference_hypergraph_recover(hg)
        assert type(got) is type(expected)
        if isinstance(expected, PotentialCertificate):
            assert got == expected
        else:  # the witness may be another inconsistent positive hyperedge
            assert got.reason == expected.reason
            assert got.edge in {tuple(e.players) for e in hg.edges
                                if e.weight > 0}


def _lex_first_optimum(g):
    top = max(fraction_welfare_total(g, p) for p in _profiles(g))
    return min(p for p in _profiles(g) if fraction_welfare_total(g, p) == top)


# the optima (2, 2) and (3, 3) tie, and neither is the first profile
TIED_OPTIMA = GameInstance(n=2, m=3, intrinsic=((0, 1, 1), (0, 1, 1)),
                           edges=(Edge(0, 1, 1, Fraction(1, 2)),))


@SETTINGS
@given(small_games)
@example(TIED_OPTIMA)
@example(example1(1))  # three-way tie (1, 1, 1), (2, 2, 2), (3, 3, 3)
@example(prop5(4))  # (2, 2, 2, 2), (3, 3, 3, 3) and (4, 4, 4, 4) tie
def test_optimum_ties_go_to_the_smallest_profile(g):
    profile, w = brute_force_optimum(g)
    assert profile == _lex_first_optimum(g)
    assert w == fraction_welfare_total(g, profile)
    assert equilibrium_census(g) == reference_census(g, Fraction(1))


@pytest.mark.parametrize("n, m", ((5, 3), (6, 3), (5, 4), (7, 3)))
@pytest.mark.parametrize("generate", (random_instance, random_symmetric))
def test_oracles_match_the_reference_at_benchmark_sizes(generate, n, m):
    for seed, alpha in ((0, Fraction(1)), (1, Fraction(3, 2))):
        g = generate(n, m, seed)
        assert brute_force_optimum(g) == reference_optimum(g)
        assert equilibrium_census(g, alpha) == reference_census(g, alpha)


# --- the optimum and census search against the walk it replaced --------------


def _walk(game, alpha=None):
    """One incremental pass over every profile, in `_profiles` order.

    Returns (optimum, its welfare, alpha-equilibria, their welfares): the
    optimum is the first welfare maximum met, so ties go to the
    lexicographically smallest profile, and the equilibria come in
    lexicographic order; with `alpha` None the last two are empty.

    The walk is an odometer: a step moves the last player not yet at m up
    one strategy and returns the players after it from m to 1, on average
    m / (m - 1) moves.  It keeps every player's scaled int utility vector
    and the scaled welfare W = sum_i us_i[s_i].  When player i moves from a
    to b, each player j paid by i's company has g_ji taken off us_j[a] and
    put on us_j[b]; W gains i's own us_i[b] - us_i[a], less g_ji per such j
    at a and plus g_ji per such j at b.  Only the movers and the players
    they pay have their status, whether their best-reply factor exceeds
    alpha, decided again.  A step costs O(deg * m).  A Fraction is built
    only for a recorded welfare.  Reads the integer kernel, so its own
    scale is the divisor whatever `game.scale` says.  A game without a
    kernel, or whose kernel has ``rest`` groups, is refused with a
    ValueError before any work, as one past the profile-space cap is with
    a SizeError.
    """
    _check_cap(game)
    kernel = getattr(game, "_kernel", None)
    if kernel is None or kernel.rest:
        raise ValueError(
            f"the exhaustive walk reads an integer kernel of singletons and "
            f"unanchored pairs, and this {type(game).__name__} has "
            + ("no integer kernel" if kernel is None
               else "a group of three or more or an anchored pair"))
    n, m = game.n, game.m
    scale, rows, nbrs, gains, _ = kernel
    pays = [[] for _ in range(n)]  # pays[i]: (j, g_ji) per j paid by i
    for j in range(n):
        for i, g in zip(nbrs[j], gains[j]):
            if g:
                pays[i].append((j, g))
    s = [0] * n  # 0-based strategies
    us = [row.copy() for row in rows]
    for i in range(n):
        for j, g in pays[i]:
            us[j][0] += g
    w = sum(u[0] for u in us)
    best_w, best = w, (1,) * n
    # factors are at least 1, so below alpha = 1 nothing is an equilibrium
    track = alpha is not None and alpha >= 1
    equilibria, welfares = [], []
    if track:
        # for alpha >= 1, `_factor_exceeds(u_old, u_new, alpha)` is
        # u_new * den > num * u_old, a zero u_old included
        num, den = alpha.numerator, alpha.denominator
        bad = [max(u) * den > num * u[0] for u in us]
        n_bad = sum(bad)
        # a step moves players p..n-1: they and whoever they pay
        touched = [sorted({*range(p, n),
                           *(j for i in range(p, n) for j, _ in pays[i])})
                   for p in range(n)]
    top = m - 1
    while True:
        if track and not n_bad:
            equilibria.append(tuple(k + 1 for k in s))
            welfares.append(Fraction(w, scale))
        p = n - 1
        while p >= 0 and s[p] == top:
            p -= 1
        if p < 0:
            break
        for i in range(p, n):
            a = s[i]
            b = a + 1 if i == p else 0
            u = us[i]
            w += u[b] - u[a]
            s[i] = b
            for j, g in pays[i]:
                u = us[j]
                u[a] -= g
                u[b] += g
                k = s[j]
                if k == a:
                    w -= g
                elif k == b:
                    w += g
        if w > best_w:
            best_w, best = w, tuple(k + 1 for k in s)
        if track:
            for j in touched[p]:
                u = us[j]
                f = max(u) * den > num * u[s[j]]
                if f != bad[j]:
                    bad[j] = f
                    n_bad += 1 if f else -1
    return best, Fraction(best_w, scale), equilibria, welfares


def walk_census(game, alpha):
    """The census as `equilibrium_census` built it on `_walk`."""
    opt_profile, opt_w, equilibria, eq_welfares = _walk(game, alpha)
    exists = bool(equilibria)
    poa = pos = None
    if exists:
        worst, best = min(eq_welfares), max(eq_welfares)
        poa = _factor(worst, opt_w)
        pos = _factor(best, opt_w)
    return EquilibriumCensus(alpha=alpha, opt_profile=opt_profile,
                             opt_welfare=opt_w, equilibria=tuple(equilibria),
                             equilibrium_welfares=tuple(eq_welfares),
                             poa=poa, pos=pos, exists=exists)


def reference_omega_utilities(og, profile, i):
    """Player i's Fraction utility vector in an omega game, each entry
    summed over the other players there; a conflicted partner pays
    nothing."""
    us = [Fraction(0)] * og.m
    for j in range(og.n):
        lab = og.labels[i][j]
        if j != i and lab != "conflict":
            full = og.a[i] * og.b[j]
            us[profile[j] - 1] += full if lab == "one" else og.omega * full
    return us


def reference_omega_census(og, alpha):
    """The census of an omega game, feasible or not, by a flat scan: the
    welfare is the sum of the players' utilities."""
    def welfare_of(p):
        return sum((reference_omega_utilities(og, p, i)[p[i] - 1]
                    for i in range(og.n)), Fraction(0))

    def stable(p):
        for i in range(og.n):
            us = reference_omega_utilities(og, p, i)
            if fraction_factor(us[p[i] - 1], max(us)) > alpha:
                return False
        return True

    profiles = list(_profiles(og))
    opt_profile = max(profiles, key=welfare_of)  # the first maximum
    opt_w = welfare_of(opt_profile)
    eq = [p for p in profiles if stable(p)]
    ws = [welfare_of(p) for p in eq]

    def ratio(w):
        if w == 0:
            return Fraction(1) if opt_w == 0 else math.inf
        return opt_w / w

    return EquilibriumCensus(
        alpha=alpha, opt_profile=opt_profile, opt_welfare=opt_w,
        equilibria=tuple(eq), equilibrium_welfares=tuple(ws),
        poa=ratio(min(ws)) if eq else None,
        pos=ratio(max(ws)) if eq else None, exists=bool(eq))


def flat_census(game, alpha):
    """The flat Fraction scan of the game's family."""
    if isinstance(game, HypergraphGame):
        return reference_hypergraph_census(game, alpha)
    if isinstance(game, OmegaGame):
        return reference_omega_census(game, alpha)
    return reference_census(game, alpha)


# every one of the 3**11 profiles is an equilibrium, so nothing is cut
ALL_TIES = GameInstance(n=11, m=3, intrinsic=((1, 1, 1),) * 11, edges=())


@SETTINGS
@given(instances(ns=st.integers(0, 7)) | pair_hypergraphs() | omega_games(),
       strong_alphas)
@example(ALL_TIES, Fraction(1))
@example(NO_PLAYERS, Fraction(1))
@example(NO_PLAYERS, Fraction(1, 2))
@example(ONE_STRATEGY, Fraction(1))
@example(ONE_STRATEGY, Fraction(0))
def test_search_oracles_match_the_walk_and_the_flat_scan(game, alpha):
    """The optimum and the census equal the walk's (profile, welfare, the
    equilibria in order, their welfares, PoA and PoS), and the flat Fraction
    scan's up to 3**7 profiles; larger spaces, the all-ties game's, are
    checked against the walk only."""
    census = walk_census(game, alpha)
    assert brute_force_optimum(game) == (census.opt_profile,
                                         census.opt_welfare)
    assert equilibrium_census(game, alpha) == census
    if game.m ** game.n <= 3 ** 7:
        assert census == flat_census(game, alpha)


# --- the pruned group-deviation search ----------------------------------------


def flat_group_deviation(game, profile, alpha, feasible=None):
    """The flat scan the group-deviation check was before it became a pruned
    search: every profile in lexicographic order, each coalition member's
    utility rebuilt by `scaled_utilities`."""
    base = [game.scaled_utilities(profile, i)[k - 1]
            for i, k in enumerate(profile)]
    for alt in _profiles(game):
        coalition = tuple(i for i in range(game.n) if alt[i] != profile[i])
        if not coalition or feasible is not None and not feasible(alt):
            continue
        if all(_factor_exceeds(base[i],
                               game.scaled_utilities(alt, i)[alt[i] - 1],
                               alpha)
               for i in coalition):
            return alt, coalition
    return None, None


def flat_strong(game, profile, alpha):
    alt, coalition = flat_group_deviation(game, profile, alpha)
    return StrongDeviationReport(
        "stable-at-alpha" if alt is None else "violated", alpha, alt,
        coalition)


GROUP_SETTINGS = settings(SETTINGS, max_examples=150)

# at (1, 1, 1) players 0 and 1 have utility 0: their own values there are
# 0 and the edge between them weighs 0
ZERO_BASELINES = GameInstance(
    n=3, m=2, intrinsic=((0, 1), (0, 0), (1, 1)),
    edges=(Edge(0, 1, 0, Fraction(1, 2)), Edge(1, 2, 2, Fraction(1, 3))))


@GROUP_SETTINGS
@given(game_and_profile(instances(ns=st.integers(0, 6))), strong_alphas)
@example((ZERO_BASELINES, (1, 1, 1)), Fraction(0))
@example((ZERO_BASELINES, (1, 1, 1)), Fraction(1))
@example((NO_PLAYERS, ()), Fraction(0))
@example((ONE_STRATEGY, (1, 1)), Fraction(1, 2))
def test_group_search_matches_the_flat_scan(case, alpha):
    """At a drawn profile, mostly not an equilibrium, and at the first two
    equilibria, the search returns the flat scan's (alt, coalition), and
    the report is the Fraction reference's."""
    g, profile = case
    nash = equilibrium_census(g, Fraction(1)).equilibria[:2]
    for q in (profile, *nash):
        got = verify_approx_strong(g, q, alpha)
        assert got == flat_strong(g, q, alpha)
        assert got == reference_strong(g, q, alpha)


@GROUP_SETTINGS
@given(omega_games(), strong_alphas, st.data())
def test_omega_group_search_matches_the_flat_scan(og, alpha, data):
    """The feasible path, at a drawn profile and at the lexicographic
    strong equilibrium.  The omega reference treats a zero baseline as
    beaten only by a positive utility, which is the package rule from
    alpha = 1 up."""
    profiles = [tuple(data.draw(st.integers(1, og.m)) for _ in range(og.n))]
    try:
        profiles.append(lex_strong_eq(og)[0])
    except ValueError:
        pass
    for q in filter(og.feasible, profiles):
        got = verify_omega_strong(og, q, alpha)
        assert got == flat_group_deviation(og, q, alpha, og.feasible)[0]
        if alpha >= 1:
            assert got == reference_omega_strong(og, q, alpha)


@GROUP_SETTINGS
@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 10**6),
       strong_alphas, st.data())
def test_hypergraph_group_search_matches_the_flat_scan(n, m, seed, alpha,
                                                       data):
    """A hypergraph with groups of three or anchored pairs is searched
    unbounded, each leaf checked on its utility vectors; one of singletons
    and unanchored pairs is searched with the kernel's bound.  Two-player
    hypergraphs have parallel pairs, so one player pays a deviator through
    several kernel entries."""
    if data.draw(st.booleans()):
        n = 2
    hg, _gamma = random_hypergraph_cc(n, m, seed)
    profile = tuple(data.draw(st.integers(1, m)) for _ in range(n))
    assert verify_approx_strong(hg, profile, alpha) == flat_strong(
        hg, profile, alpha)


@pytest.mark.parametrize("n, m", ((5, 3), (6, 3), (5, 4), (7, 3)))
@pytest.mark.parametrize("generate", (random_instance, random_symmetric))
def test_group_search_matches_the_flat_scan_at_benchmark_sizes(generate, n,
                                                               m):
    for seed in range(3):
        g = generate(n, m, seed)
        for profile in equilibrium_census(g, Fraction(1)).equilibria:
            for alpha in (Fraction(1), Fraction(3, 2)):
                assert (verify_approx_strong(g, profile, alpha)
                        == flat_strong(g, profile, alpha))


# --- the census and the group check on one per-player state ------------------


def own_state_equilibria(game, alpha):
    """`analysis._equilibria` as it was before `_placements`: the same
    lo/rem, updated by loops of its own.  It calls `analysis._search`
    through the module, so a recording stand-in sees its nodes."""
    kernel, pays = analysis._kernel_pays(game)
    n, m = game.n, game.m
    num, den = alpha.numerator, alpha.denominator
    equilibria, welfares = [], []
    if kernel is None:
        for s in analysis._profiles(game):
            us = [game.scaled_utilities(s, i) for i in range(n)]
            if all(max(u) * den <= num * u[k - 1] for u, k in zip(us, s)):
                equilibria.append(s)
                welfares.append(sum(u[k - 1] for u, k in zip(us, s)))
        return equilibria, welfares, game.scale
    scale, rows, _, gains, _ = kernel
    s = [-1] * n
    lo = [row.copy() for row in rows]
    rem = [sum(g) for g in gains]
    w = [0] * (n + 1)

    def leave(p, b):
        for j, g in pays[p]:
            lo[j][b] -= g
            rem[j] += g

    def enter(p, b):
        u = lo[p]
        if max(u) * den > num * (u[b] + rem[p]):
            return False
        dw = u[b]
        for j, g in pays[p]:
            lo[j][b] += g
            rem[j] -= g
        for j, g in pays[p]:
            k = s[j]
            if k == b:
                dw += g
            u = lo[j]
            if k >= 0 and max(u) * den > num * (u[k] + rem[j]):
                leave(p, b)
                return False
        w[p + 1] = w[p] + dw
        return True

    for _ in analysis._search(s, m, enter, leave):
        equilibria.append(tuple([k + 1 for k in s]))
        welfares.append(w[n])
    return equilibria, welfares, scale


def own_state_group_deviation(game, profile, alpha, feasible=None):
    """`analysis._group_deviation` as it was before `_placements`: a
    per-deviator ``bound`` rebuilt over the neighbour lists, and the
    deviators a placement hits listed on entry and again on leaving."""
    kernel, pays = analysis._kernel_pays(game)
    home = [k - 1 for k in profile]
    base = [game.scaled_utilities(profile, i)[k] for i, k in enumerate(home)]
    s = [-1] * game.n
    if kernel is None:
        enter = leave = analysis._free
    else:
        _, rows, nbrs, gains, _ = kernel
        bound = [0] * game.n

        def enter(p, b):
            if b != home[p]:
                u = rows[p][b]
                for j, g in zip(nbrs[p], gains[p]):
                    if s[j] == b or s[j] < 0:
                        u += g
                if not _factor_exceeds(base[p], u, alpha):
                    return False
                bound[p] = u
            # one deviator may pay p through several entries (parallel
            # pairs), so every gain comes off before any bound is tested
            hit = [(i, g) for i, g in pays[p] if s[i] not in (home[i], b, -1)]
            for i, g in hit:
                bound[i] -= g
            if all(_factor_exceeds(base[i], bound[i], alpha) for i, _ in hit):
                return True
            leave(p, b)
            return False

        def leave(p, b):
            for i, g in pays[p]:
                if s[i] not in (home[i], b, -1):
                    bound[i] += g

    for _ in analysis._search(s, game.m, enter, leave):
        coalition = tuple(i for i, k in enumerate(s) if k != home[i])
        alt = tuple([k + 1 for k in s])
        if (coalition and (feasible is None or feasible(alt))
                and (kernel is not None
                     or all(_factor_exceeds(
                         base[i], game.scaled_utilities(alt, i)[s[i]], alpha)
                         for i in coalition))):
            return alt, coalition
    return None, None


def searched(run, *args):
    """run(*args) and the (p, b, enter(p, b)) of every node its
    `analysis._search` entered, in order."""
    nodes = []
    search = analysis._search

    def recording(s, m, enter, leave):
        def logged(p, b):
            verdict = enter(p, b)
            nodes.append((p, b, verdict))
            return verdict
        return search(s, m, logged, leave)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_search", recording)
        return run(*args), nodes


# Player 1 pays player 0 through two parallel pairs (player 1's shares 0 and
# 1/2), so placing player 1 takes two gains off player 0 before any test.  A
# search that tested after each gain, and undid all of them on a failure,
# would leave player 0's state wrong: the census at alpha = 2 and the group
# check at the first equilibrium, (1, 1, 1), at alpha = 1/2 then enter other
# nodes.  One (1, 2) pair weighs nothing and is left out of the kernel.
PARALLEL_PAIRS = HypergraphGame(n=3, m=3, edges=(
    Hyperedge((0, 1), Fraction(4), (Fraction(1), Fraction(0))),
    Hyperedge((0, 1), Fraction(4), (Fraction(1, 2), Fraction(1, 2))),
    Hyperedge((1, 2), Fraction(0), (Fraction(1, 2), Fraction(1, 2))),
    Hyperedge((1, 2), Fraction(4), (Fraction(1, 2), Fraction(1, 2))),
    Hyperedge((2,), Fraction(4), (Fraction(1),), 1)))


@SETTINGS
@given(game_and_profile(instances(ns=st.integers(0, 7)) | pair_hypergraphs()
                        | omega_games()),
       st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(3, 2),
                        Fraction(2))))
@example((ALL_TIES, (1,) * 11), Fraction(1))
@example((ALL_TIES, (1,) * 11), Fraction(1, 2))
@example((NO_PLAYERS, ()), Fraction(1))
@example((ONE_STRATEGY, (1, 1)), Fraction(1))
@example((ONE_STRATEGY, (1, 1)), Fraction(1, 2))
@example((PARALLEL_PAIRS, (1, 2, 2)), Fraction(1, 2))
@example((PARALLEL_PAIRS, (1, 2, 2)), Fraction(2))
def test_placements_enter_the_old_searches_nodes(case, alpha):
    """The census and the group check on `_placements` return what their
    own-state versions returned, and enter the same (p, b) nodes with the
    same verdicts, so the bound and the cut are unchanged, not only the
    outputs.  The group check runs at the drawn profile and at the first
    equilibrium, where it goes deepest, with omega games' `feasible`."""
    game, profile = case
    if alpha >= 1:
        (eqs, ws, scale, optimum), nodes = searched(analysis._equilibria,
                                                    game, alpha)
        assert optimum is None  # every drawn game is searched, not scanned
        assert ((eqs, ws, scale), nodes) == searched(own_state_equilibria,
                                                     game, alpha)
    feasible = game.feasible if isinstance(game, OmegaGame) else None
    nash = equilibrium_census(game).equilibria[:1]
    for q in (profile, *nash):
        assert (searched(analysis._group_deviation, game, q, alpha, feasible)
                == searched(own_state_group_deviation, game, q, alpha,
                            feasible))


# --- the event-driven dynamics against the loops they replaced ---------------


def restart_dynamics(game, start, rule, k0=None, step_cap=None):
    """The gated loop before it was event-driven: each pass scans the
    players from 0, reads `scaled_utilities` afresh for every player that
    may move (with `k0`, the players still at k0) and moves the first whose
    best response clears `rule`; then the pass restarts from player 0."""
    if step_cap is None:
        step_cap = (game.m ** game.n) * max(game.n, 1)
    scale = game.scale
    profile = tuple(start)
    seen = {profile}
    moves = []
    while True:
        for i in range(game.n):
            if k0 is not None and profile[i] != k0:
                continue
            us = game.scaled_utilities(profile, i)
            k, u_new = _best_reply(us, profile[i])
            u_old = us[profile[i] - 1]
            if k != profile[i] and rule.allows(u_old, u_new):
                break
        else:
            return DynamicsTrace(tuple(moves), profile, "converged")
        moves.append(Move(i, profile[i], k, Fraction(u_old, scale),
                          Fraction(u_new, scale)))
        profile = profile[:i] + (k,) + profile[i + 1:]
        if len(moves) >= step_cap:
            return DynamicsTrace(tuple(moves), profile, "step-cap")
        if profile in seen:
            return DynamicsTrace(tuple(moves), profile, "cycle-detected")
        seen.add(profile)


def pass_sweep(game, profile, source, target):
    """The continuing sweep before it was event-driven: passes over the
    players at `source`, each going on with the next player after a move,
    until a pass moves no one.  Returns the profile and the movers in
    order."""
    profile = list(profile)
    movers = []
    changed = True
    while changed:
        changed = False
        for i in range(game.n):
            if profile[i] != source:
                continue
            us = game.scaled_utilities(profile, i)
            if us[target - 1] > us[source - 1]:
                profile[i] = target
                movers.append(i)
                changed = True
    return tuple(profile), movers


def pass_algorithm1_two(game, start):
    profile, _ = pass_sweep(game, start, 1, 2)
    return pass_sweep(game, profile, 2, 1)[0]


def event_sweep(game, start, source, target):
    """`_sweep` from `start`, as (profile, movers in order)."""
    run = _Run(game, start)
    _sweep(run, source, target)
    return tuple(run.profile), run.movers


def pass_sqrt2_three(game):
    """`sqrt2_three` on pass sweeps, with the sqrt(2) gate scanned from
    player 0 after every move to strategy 3."""
    profile = pass_algorithm1_two(game, (1,) * game.n)
    while True:
        for i in range(game.n):
            if profile[i] == 3:
                continue
            us = game.scaled_utilities(profile, i)
            if us[2] > 0 and at_least_sqrt2_times(us[2], us[profile[i] - 1]):
                break
        else:
            return profile
        profile = pass_algorithm1_two(game,
                                      profile[:i] + (3,) + profile[i + 1:])


def outcome(run, *args):
    """What `run(*args)` returns, or the message of its `TableError`."""
    try:
        return run(*args)
    except TableError as exc:
        return "TableError", str(exc)


def restart_br_dynamics(game, start, step_cap=None):
    """`hypergraph_br_dynamics`'s result from the restart loop."""
    trace = restart_dynamics(game, start, MoveRule(), step_cap=step_cap)
    return (trace.terminal, tuple((mv.player, mv.from_strategy,
                                   mv.to_strategy) for mv in trace.moves),
            trace.reason)


def restart_one_shot_generalized(ggame, k0, alpha):
    """`one_shot_generalized`'s result, at a given gate, from the restart
    loop."""
    trace = restart_dynamics(ggame, (k0,) * ggame.n, MoveRule(alpha), k0=k0)
    return trace.terminal, alpha, tuple(
        (mv.player, mv.to_strategy, mv.old_utility, mv.new_utility)
        for mv in trace.moves)


step_caps = st.sampled_from((None, 1, 2, 3))

# a 3-member group, an anchored pair and an anchored singleton: every kind
# of `rest` group, and players who hear a move through nothing else
REST_GROUPS = HypergraphGame(n=5, m=3, edges=(
    Hyperedge((0, 1, 2), Fraction(3), (Fraction(1, 3),) * 3),
    Hyperedge((2, 3), Fraction(2), (Fraction(1, 2),) * 2, anchor=2),
    Hyperedge((3, 4), Fraction(1), (Fraction(1, 4), Fraction(3, 4))),
    Hyperedge((4,), Fraction(1), (Fraction(1),), anchor=1)))

rest_hypergraphs = (
    certified_hypergraphs(st.integers(1, 6), st.integers(1, 3)).map(
        lambda case: case[0])
    | st.builds(lambda n, m, seed: random_hypergraph_cc(n, m, seed)[0],
                st.integers(2, 8), st.integers(1, 3), st.integers(0, 10**6)))

tables = (sparse_tables()
          | st.builds(random_supermodular, st.integers(1, 4),
                      st.integers(1, 3), st.sampled_from((1, 2)),
                      st.integers(0, 10**6))
          | instances(ns=st.integers(1, 4)).map(additive_tables))


@st.composite
def started(draw, games):
    """(game, a start profile, a one-shot start strategy)."""
    game = draw(games)
    start = tuple(draw(st.integers(1, game.m)) for _ in range(game.n))
    return game, start, draw(st.integers(1, game.m))


@SETTINGS
@given(started(omega_games() | rest_hypergraphs | instances()), alphas,
       step_caps)
@example((REST_GROUPS, (1, 2, 3, 1, 2), 1), Fraction(1), None)
@example((REST_GROUPS, (3, 3, 1, 2, 2), 2), Fraction(3, 2), 2)
def test_gated_dynamics_match_the_restart_loop(case, alpha, step_cap):
    game, start, k0 = case
    rule = MoveRule(alpha)
    assert (run_dynamics(game, start, rule, step_cap)
            == restart_dynamics(game, start, rule, step_cap=step_cap))
    assert (one_shot_alpha_br(game, k0, alpha)[1]
            == restart_dynamics(game, (k0,) * game.n, rule, k0=k0))
    if isinstance(game, HypergraphGame):
        assert (hypergraph_br_dynamics(game, start, step_cap)
                == restart_br_dynamics(game, start, step_cap))


@SETTINGS
@given(started(tables), alphas, step_caps)
def test_table_dynamics_match_the_restart_loop(case, alpha, step_cap):
    """Results, or the `TableError` message of an incomplete table."""
    gg, start, k0 = case
    assert (outcome(hypergraph_br_dynamics, gg, start, step_cap)
            == outcome(restart_br_dynamics, gg, start, step_cap))
    assert (outcome(one_shot_generalized, gg, k0, alpha)
            == outcome(restart_one_shot_generalized, gg, k0, alpha))


def logged_calls(run, gg):
    """(the outcome of `run` on a copy of table game `gg`, the (profile,
    player) of every `scaled_utilities` call it made)."""
    calls = []

    class Logged(GeneralizedGame):
        def scaled_utilities(self, profile, i):
            calls.append((tuple(profile), i))
            return super().scaled_utilities(profile, i)

    return outcome(run, Logged(n=gg.n, m=gg.m, tables=gg.tables)), calls


@SETTINGS
@given(started(tables), alphas, step_caps)
def test_table_dynamics_make_the_restart_loops_calls(case, alpha, step_cap):
    """On a table every player hears every move, so the lazily recomputed
    vectors are read by the same calls, in the same order, as the restart
    scan makes."""
    gg, start, k0 = case
    rule = MoveRule(alpha)
    assert (logged_calls(lambda g: run_dynamics(g, start, rule, step_cap), gg)
            == logged_calls(lambda g: restart_dynamics(
                g, start, rule, step_cap=step_cap), gg))
    assert (logged_calls(lambda g: one_shot_alpha_br(g, k0, alpha)[1], gg)
            == logged_calls(lambda g: restart_dynamics(
                g, (k0,) * g.n, rule, k0=k0), gg))


@pytest.mark.parametrize("alpha", (Fraction(1), Fraction(3, 2)))
def test_missing_table_entry_raises_the_restart_loops_error(alpha):
    """Dropping any one entry of a complete table, the one-shot run raises
    the `TableError` the restart loop raises, naming the same entry, or
    returns what it returns; some entries are first read after a move."""
    gg = random_supermodular(3, 2, 2, 4)  # three moves at either gate
    start = (1,) * gg.n
    read_at_start = {(i, k, frozenset(j for j in range(gg.n)
                                      if j != i and start[j] == k))
                     for i in range(gg.n) for k in (1, 2)}
    raised_late = []
    for key in gg.tables:
        holey = GeneralizedGame(n=gg.n, m=gg.m, tables={
            k: v for k, v in gg.tables.items() if k != key})
        got = outcome(one_shot_generalized, holey, 1, alpha)
        assert got == outcome(restart_one_shot_generalized, holey, 1, alpha)
        i, k, others = key
        if got[0] == "TableError":
            assert got[1] == (f"no entry for player {i}, strategy {k}, "
                              f"set {sorted(others)}")
            if key not in read_at_start:
                raised_late.append(key)
    assert raised_late


@SETTINGS
@given(started(instances(ns=st.integers(1, 8), ms=st.integers(2, 3))
               | rest_hypergraphs.filter(lambda hg: hg.m > 1)))
@example((REST_GROUPS, (1, 1, 1, 1, 1), 1))
@example((REST_GROUPS, (2, 1, 3, 2, 1), 1))
def test_sweeps_match_the_pass_loops(case):
    """The same movers in the same order in either direction, a third
    strategy left alone, and the same results of the algorithms."""
    game, start, _ = case
    for source, target in ((1, 2), (2, 1)):
        assert (event_sweep(game, start, source, target)
                == pass_sweep(game, start, source, target))
    if game.m == 2:
        assert (algorithm1_two(game, start)
                == pass_algorithm1_two(game, start))
    else:
        assert sqrt2_three(game) == pass_sqrt2_three(game)


@pytest.mark.parametrize("n", (20, 60, 150))
def test_dynamics_match_the_old_loops_at_benchmark_sizes(n):
    """Sparse games as in the dynamics benchmark, large enough for long
    runs and sweeps that wrap round several times."""
    for seed in range(3):
        g = random_instance(n, 3, seed, edge_prob=Fraction(4, n - 1))
        start = (1,) * n
        assert (run_dynamics(g, start)
                == restart_dynamics(g, start, MoveRule()))
        for k0, alpha in ((1, Fraction(3, 2)), (2, Fraction(2))):
            assert (one_shot_alpha_br(g, k0, alpha)[1]
                    == restart_dynamics(g, (k0,) * n, MoveRule(alpha), k0))
        assert sqrt2_three(g) == pass_sqrt2_three(g)
        g2 = random_instance(n, 2, seed, edge_prob=Fraction(4, n - 1))
        start = tuple(random.Random(seed).choices((1, 2), k=n))
        assert algorithm1_two(g2, start) == pass_algorithm1_two(g2, start)
        for source, target in ((1, 2), (2, 1)):
            assert (event_sweep(g2, start, source, target)
                    == pass_sweep(g2, start, source, target))


@pytest.mark.parametrize("game", (example1(1), triangle_game(2),
                                  triangle_game(Fraction(3, 2))))
def test_cycles_and_step_caps_match_the_restart_loop(game):
    reasons = set()
    for start in itertools.product((1, 2, 3), repeat=3):
        for step_cap in (None, 1, 2, 3):
            trace = run_dynamics(game, start, MoveRule(), step_cap)
            assert trace == restart_dynamics(game, start, MoveRule(),
                                             step_cap=step_cap)
            reasons.add(trace.reason)
    assert {"step-cap", "cycle-detected"} <= reasons


# --- tables on the integer protocol, and the scans of the oracles ------------


def reference_table_utilities(gg, profile, i):
    """The Fraction vector tables had before their integer view: one
    `utility` lookup per strategy, in 1..m order, so an absent entry raises
    at the first strategy that has one."""
    groups = [[] for _ in range(gg.m)]
    for j, s in enumerate(profile):
        if j != i:
            groups[s - 1].append(j)
    return [gg.utility(i, k, group) for k, group in enumerate(groups, 1)]


def family_utilities(game):
    """The Fraction reference vector of a table or hypergraph game."""
    if isinstance(game, GeneralizedGame):
        return lambda p, i: reference_table_utilities(game, p, i)
    return lambda p, i: reference_hypergraph_utilities(game, p, i)


def scan_census(game, alpha):
    """The census by a flat scan over every profile on the Fraction
    reference vectors, each read in profile then player order: the first
    maximum, and the profiles where every factor is at most alpha."""
    utilities = family_utilities(game)
    profiles = list(_profiles(game))
    vectors = [[utilities(p, i) for i in range(game.n)] for p in profiles]
    welfares = [sum((us[k - 1] for us, k in zip(vs, p)), Fraction(0))
                for p, vs in zip(profiles, vectors)]
    opt_w = max(welfares)
    opt_profile = profiles[welfares.index(opt_w)]
    eq, ws = [], []
    for p, vs, w in zip(profiles, vectors, welfares):
        if all(fraction_factor(us[k - 1], max(us)) <= alpha
               for us, k in zip(vs, p)):
            eq.append(p)
            ws.append(w)

    def ratio(w):
        if w == 0:
            return Fraction(1) if opt_w == 0 else math.inf
        return opt_w / w

    return EquilibriumCensus(
        alpha=alpha, opt_profile=opt_profile, opt_welfare=opt_w,
        equilibria=tuple(eq), equilibrium_welfares=tuple(ws),
        poa=ratio(min(ws)) if eq else None,
        pos=ratio(max(ws)) if eq else None, exists=bool(eq))


def scan_strong(game, profile, alpha):
    """The group check by a flat scan on the Fraction reference vectors."""
    utilities = family_utilities(game)
    base = [utilities(profile, i)[k - 1] for i, k in enumerate(profile)]
    for alt in _profiles(game):
        coalition = tuple(i for i in range(game.n) if alt[i] != profile[i])
        if coalition and all(
                fraction_factor(base[i], utilities(alt, i)[alt[i] - 1])
                > alpha for i in coalition):
            return StrongDeviationReport("violated", alpha, alt, coalition)
    return StrongDeviationReport("stable-at-alpha", alpha)


census_alphas = st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(3, 2),
                                 Fraction(2)))

# tables, complete or with holes, and hypergraphs with a group of three or
# more or an anchored pair: the games with no rest-free kernel
scanned_games = (
    tables
    | certified_hypergraphs(st.integers(1, 5), st.integers(1, 3)).map(
        lambda case: case[0])
    | st.builds(lambda n, m, seed: random_hypergraph_cc(n, m, seed)[0],
                st.integers(2, 5), st.integers(1, 3), st.integers(0, 10**6))
).filter(lambda g: isinstance(g, GeneralizedGame) or g._kernel.rest)


@SETTINGS
@given(started(tables))
def test_table_view_matches_the_fraction_lookups(case):
    """`scale` is the lcm of every entry's denominator; `scaled_utilities`
    is the lookups' vector times it, as ints, and `utilities` is the
    lookups' vector; an incomplete table raises the lookups' error."""
    gg, profile, _ = case
    assert gg.scale == math.lcm(*(u.denominator for u in gg.tables.values()))
    for i in range(gg.n):
        expected = outcome(reference_table_utilities, gg, profile, i)
        assert outcome(gg.utilities, profile, i) == expected
        scaled = outcome(gg.scaled_utilities, profile, i)
        if expected[0] == "TableError":
            assert scaled == expected
        else:
            assert all(type(u) is int for u in scaled)
            assert scaled == [u * gg.scale for u in expected]


@pytest.mark.parametrize("gg", (random_supermodular(3, 2, 2, 4),
                                random_supermodular(3, 3, 1, 7),
                                triangle_game(Fraction(3, 2))))
def test_every_table_hole_raises_the_lookups_error(gg):
    """Dropping any one entry of a complete table, every vector read at
    every profile is the lookups' or raises their `TableError`, naming
    the same entry; building the view raises nothing."""
    for key in gg.tables:
        holey = GeneralizedGame(n=gg.n, m=gg.m, tables={
            k: v for k, v in gg.tables.items() if k != key})
        assert holey.scale >= 1  # the view is built without raising
        raised = set()
        for profile in _profiles(holey):
            for i in range(holey.n):
                got = outcome(holey.utilities, profile, i)
                assert got == outcome(reference_table_utilities, holey,
                                      profile, i)
                if got[0] == "TableError":
                    raised.add(got[1])
        i, k, others = key
        assert raised == {f"no entry for player {i}, strategy {k}, "
                          f"set {sorted(others)}"}


@SETTINGS
@given(scanned_games, census_alphas)
@example(REST_GROUPS, Fraction(1))
@example(triangle_game(2), Fraction(2))
def test_scan_oracles_match_the_fraction_scan(game, alpha):
    """The optimum, the census and the semi-smoothness check of a game with
    no rest-free kernel are the flat Fraction scan's, or raise its
    `TableError`; a hypergraph's are also the edge-by-edge scan's."""
    census = outcome(scan_census, game, alpha)
    raised = isinstance(census, tuple)
    optimum = census if raised else (census.opt_profile, census.opt_welfare)
    assert outcome(brute_force_optimum, game) == optimum
    assert outcome(equilibrium_census, game, alpha) == census
    if isinstance(game, HypergraphGame):
        assert census == flat_census(game, alpha)
    if not raised:
        profile = census.equilibria[0] if census.exists else (1,) * game.n
        vectors = [family_utilities(game)(profile, i) for i in range(game.n)]
        assert semi_smoothness_check(game, profile) == (
            sum((sum(us, Fraction(0)) for us in vectors), Fraction(0))
            >= census.opt_welfare)


@GROUP_SETTINGS
@given(started(scanned_games), strong_alphas)
@example((REST_GROUPS, (1, 2, 3, 1, 2), 1), Fraction(1))
def test_scan_group_check_matches_the_fraction_scan(case, alpha):
    """The unbounded group search of a game with no rest-free kernel
    returns the flat Fraction scan's report, or raises its `TableError`."""
    game, profile, _ = case
    assert (outcome(verify_approx_strong, game, profile, alpha)
            == outcome(scan_strong, game, profile, alpha))


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


# --- the public readers on the integer kernel ---------------------------------


def reference_intrinsic(game):
    """The Fraction own-value rows the readers used to read: a pairwise
    game's `intrinsic`, or what a hypergraph's singleton edges pay at each
    strategy."""
    if isinstance(game, GameInstance):
        return game.intrinsic
    return tuple(tuple(sum((e.weight for e in game.edges
                            if e.players == (i,) and e.anchor in (None, k)),
                           Fraction(0)) for k in range(1, game.m + 1))
                 for i in range(game.n))


def reference_player_utility(game, profile, i, strategy=None):
    """`player_utility` on the Fraction vector and the Fraction rows."""
    if not (0 <= i < game.n):
        raise IndexError(f"player index {i} out of range")
    game.validate_profile(profile)
    k = profile[i] if strategy is None else strategy
    if not (1 <= k <= game.m):
        raise ValueError(f"strategy {k} out of range 1..{game.m}")
    total = game.utilities(profile, i)[k - 1]
    intrinsic = reference_intrinsic(game)[i][k - 1]
    return total, intrinsic, total - intrinsic


def reference_welfare(game, profile):
    """`welfare` as per-player Fraction sums."""
    game.validate_profile(profile)
    per, ipart, cpart = [], [], []
    for i, k in enumerate(profile):
        u = game.utilities(profile, i)[k - 1]
        a = reference_intrinsic(game)[i][k - 1]
        per.append(u)
        ipart.append(a)
        cpart.append(u - a)
    a_tot = sum(ipart, Fraction(0))
    p_tot = sum(cpart, Fraction(0))
    return UtilityBreakdown(
        per_player=tuple(per), intrinsic_part=tuple(ipart),
        coordination_part=tuple(cpart), total=a_tot + p_tot,
        intrinsic_total=a_tot, coordination_total=p_tot)


def reference_best_response(game, profile, i):
    """`best_response` on the Fraction vector."""
    current, _, _ = reference_player_utility(game, profile, i)
    best_k, best_u = _best_reply(game.utilities(profile, i), profile[i])
    return best_k, best_u, _factor(current, best_u)


def reference_instance_stats(g):
    """`instance_stats` on the Fraction fields: sums of Fractions, k* from
    the intrinsic column sums and the share ratio by Fraction division."""
    best = tuple(max(row) for row in g.intrinsic)
    cols = [sum((row[k] for row in g.intrinsic), Fraction(0))
            for k in range(g.m)]
    mri = Fraction(1)
    for e in g.edges:
        if e.w == 0:
            continue
        if e.share_ij == 0 or e.share_ij == 1:
            mri = math.inf
            break
        mri = max(mri, e.share_ij / e.share_ji, e.share_ji / e.share_ij)
    return InstanceStats(
        best=best, a_total=sum(best, Fraction(0)),
        p_total=sum((e.w for e in g.edges), Fraction(0)),
        k_star=max(range(g.m), key=lambda k: (cols[k], -k)) + 1, mri=mri)


def reference_mip_check(game, profile):
    """`mip_check` on the Fraction breakdown: A(s) * m >= A_T, A_T the sum
    of the rows' maxima as `instance_stats` gives it."""
    a_s = reference_welfare(game, profile).intrinsic_total
    a_t = sum((max(row) for row in reference_intrinsic(game)), Fraction(0))
    return a_s * game.m >= a_t


def _all_fractions(values):
    return all(type(v) is Fraction for v in values)


def assert_readers_match(game, profile):
    """Every reader equals its reference in value and reports Fractions."""
    breakdown = welfare(game, profile)
    assert breakdown == reference_welfare(game, profile)
    assert _all_fractions(breakdown.per_player + breakdown.intrinsic_part
                          + breakdown.coordination_part)
    assert mip_check(game, profile) == reference_mip_check(game, profile)
    for i in range(game.n):
        assert (best_response(game, profile, i)
                == reference_best_response(game, profile, i))
        for k in (None, *range(1, game.m + 1)):
            parts = player_utility(game, profile, i, k)
            assert parts == reference_player_utility(game, profile, i, k)
            assert _all_fractions(parts)


EMPTY = GameInstance(n=0, m=2, intrinsic=(), edges=())


@SETTINGS
@given(game_and_profile(instances(ns=st.integers(0, 5))))
@example((EMPTY, ()))
@example((GameInstance(n=2, m=1, intrinsic=((2,), (0,)),
                       edges=(Edge(1, 0, 0, 1),)), (1, 1)))
def test_readers_match_the_fraction_references(case):
    """On pairwise games, int and Fraction entries, zero weights, shares
    of 0 and 1 and no edges included, the readers report the values of
    the Fraction references."""
    g, profile = case
    assert_readers_match(g, profile)
    stats = instance_stats(g)
    assert stats == reference_instance_stats(g)
    assert _all_fractions((*stats.best, stats.a_total, stats.p_total))


@SETTINGS
@given(certified_hypergraphs(st.integers(1, 4), st.integers(1, 3))
       | pair_hypergraphs().map(lambda hg: (hg, None)), st.data())
def test_hypergraph_readers_match_the_fraction_references(case, data):
    """On hypergraphs the readers take the singleton edges' payments as
    the intrinsic part, and `mip_check` answers from them."""
    hg, _ = case
    assert_readers_match(hg, tuple(data.draw(st.integers(1, hg.m))
                                   for _ in range(hg.n)))


@SETTINGS
@given(omega_games(), st.data())
def test_omega_readers_take_no_intrinsic_part(og, data):
    """An omega game has no own values: every utility is coordination,
    its welfare is the sum of the utilities and its best response is the
    best reply on `utilities`."""
    profile = tuple(data.draw(st.integers(1, og.m)) for _ in range(og.n))
    vectors = [og.utilities(profile, i) for i in range(og.n)]
    breakdown = welfare(og, profile)
    assert breakdown.total == sum(
        (us[k - 1] for us, k in zip(vectors, profile)), Fraction(0))
    assert breakdown.intrinsic_total == 0 and set(
        breakdown.intrinsic_part) <= {0}
    assert mip_check(og, profile)
    for i, us in enumerate(vectors):
        for k in range(1, og.m + 1):
            assert player_utility(og, profile, i, k) == (us[k - 1], 0,
                                                         us[k - 1])
        best_k, best_u = _best_reply(us, profile[i])
        assert best_response(og, profile, i) == (
            best_k, best_u, _factor(us[profile[i] - 1], best_u))


def reference_group_stats(game):
    """`instance_stats` of an omega game or a hypergraph of singletons and
    pairs on Fractions: the own values are the singleton edges' (none on an
    omega game), and P_T and mri come from each pair's weight and shares,
    the shares by Fraction division."""
    if isinstance(game, OmegaGame):
        intrinsic = ((Fraction(0),) * game.m,) * game.n
        pairs = []
        for i, j in itertools.combinations(range(game.n), 2):
            label = game.labels[i][j]
            if label != "conflict":
                x, y = game.a[i] * game.b[j], game.a[j] * game.b[i]
                w = (x + y) * (1 if label == "one" else game.omega)
                pairs.append((w, (x / (x + y), y / (x + y))))
    else:
        intrinsic = reference_intrinsic(game)
        pairs = [(e.weight, e.shares) for e in game.edges
                 if len(e.players) == 2]
    best = tuple(max(row) for row in intrinsic)
    cols = [sum((row[k] for row in intrinsic), Fraction(0))
            for k in range(game.m)]
    mri = Fraction(1)
    for w, (s, t) in pairs:
        if w == 0:
            continue
        if s == 0 or t == 0:
            mri = math.inf
            break
        mri = max(mri, s / t, t / s)
    return InstanceStats(
        best=best, a_total=sum(best, Fraction(0)),
        p_total=sum((w for w, _ in pairs), Fraction(0)),
        k_star=max(range(game.m), key=lambda k: (cols[k], -k)) + 1, mri=mri)


@SETTINGS
@given(pair_hypergraphs() | omega_games())
def test_group_game_stats_match_the_fraction_reference(game):
    """Omega games and hypergraphs of singletons and unanchored pairs have
    the statistics of their own values and pairs."""
    stats = instance_stats(game)
    assert stats == reference_group_stats(game)
    assert _all_fractions((*stats.best, stats.a_total, stats.p_total))


@SETTINGS
@given(scanned_games)
@example(REST_GROUPS)
def test_stats_refuse_tables_and_rest_groups(game):
    """mri has no stated meaning on a table or on a group of three or more
    or an anchored pair, so `instance_stats` refuses them by name."""
    with pytest.raises(ValueError, match="^instance_stats: mri has no "
                       "stated meaning on a table, a group of three or more "
                       "or an anchored pair$"):
        instance_stats(game)


# --- one reader per kernel shape ----------------------------------------------


def reference_scaled_utilities(game, profile, i):
    """The pair loop `_KernelGame.scaled_utilities` had of its own and, on a
    hypergraph, the ``rest`` loop of the `IntKernel.scaled_utilities` its
    override called."""
    _, rows, nbrs, gains, rest = game._kernel
    us = rows[i].copy()
    for j, gain in zip(nbrs[i], gains[i]):
        us[profile[j] - 1] += gain
    if isinstance(game, HypergraphGame):
        for others, anchor, gain in rest[i] if rest else ():
            k = profile[others[0]]
            if anchor in (None, k) and all(profile[j] == k for j in others):
                us[k - 1] += gain
    return us


def reference_hearers(game):
    """The hearers `scg.dynamics` worked out of its own: the kernel's
    ``nbrs`` as they are, plus the co-members of every ``rest`` group when
    the kernel has some; on a table game, everyone."""
    if not isinstance(game, _KernelGame):
        return [range(game.n)] * game.n
    _, _, nbrs, _, rest = game._kernel
    if not rest:
        return nbrs
    return [list(set(nb).union(*(others for others, _, _ in groups)))
            for nb, groups in zip(nbrs, rest)]


# parallel pairs and singletons (pair_hypergraphs), groups of up to four
# members, anchored or not (certified_hypergraphs and random_hypergraph_cc)
kernel_games = (instances() | omega_games() | pair_hypergraphs()
                | rest_hypergraphs)


@SETTINGS
@given(started(kernel_games | tables))
@example((REST_GROUPS, (1, 2, 3, 1, 2), 1))
@example((random_hypergraph_cc(6, 3, 4)[0], (1,) * 6, 1))
def test_kernel_readers_and_hearers_match_the_old_loops(case):
    """Each kernel shape reads the vectors and lists the hearers that the
    game's own pair loop, the hypergraph override and the dynamics' own
    hearer list did; a table game's hearers are every player."""
    game, profile, _ = case
    assert _Run(game, profile).hearers == reference_hearers(game)
    if isinstance(game, GeneralizedGame):
        return
    kernel = game._kernel
    assert type(kernel) is (_GroupKernel if kernel.rest else IntKernel)
    for i in range(game.n):
        assert (game.scaled_utilities(profile, i)
                == reference_scaled_utilities(game, profile, i))


def assert_tables_match(game):
    """`additive_tables(game)` reads as the game: the same utilities and
    per-player readers at every profile, and the same census."""
    tabled = additive_tables(game)
    for profile in _profiles(game):
        assert welfare(tabled, profile) == welfare(game, profile)
        assert mip_check(tabled, profile) == mip_check(game, profile)
        for i in range(game.n):
            assert tabled.utilities(profile, i) == game.utilities(profile, i)
            assert (best_response(tabled, profile, i)
                    == best_response(game, profile, i))
            for k in range(1, game.m + 1):
                assert (player_utility(tabled, profile, i, k)
                        == player_utility(game, profile, i, k))
    assert equilibrium_census(tabled) == equilibrium_census(game)


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("family", ["pairwise", "omega", "hypergraph"])
def test_additive_tables_read_as_the_generated_game(family, seed):
    n, m = 2 + seed % 5, 1 + seed % 3
    game = {"pairwise": lambda: random_instance(n, m, seed),
            "omega": lambda: generators.random_omega(n, m, seed),
            "hypergraph": lambda: random_hypergraph_cc(n, m, seed)[0],
            }[family]()
    assert_tables_match(game)


@SETTINGS
@given(certified_hypergraphs(st.integers(1, 4), st.integers(1, 3)))
@example((random_hypergraph_cc(6, 3, 4)[0], None))
@example((HypergraphGame(n=3, m=2, edges=(
    Hyperedge((0, 1, 2), Fraction(6), (Fraction(1, 3),) * 3),)), None))
def test_additive_tables_keep_every_hypergraph_payoff(case):
    """Groups of three or more, anchored groups and parallel pairs all pay
    in the tables as in the game."""
    assert_tables_match(case[0])


# --- the closed-form gate and the shared entry points -------------------------


def reference_supermodular_alpha(r):
    """The gate by an `isqrt` guess counted up to the ceiling by exact
    Fraction comparisons."""
    r = Fraction(r)
    if r < 1:
        raise ValueError("supermodularity degree must be >= 1")
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


def test_gate_closed_form_matches_the_fraction_search():
    for r in GATE_GRID:
        assert supermodular_alpha(r) == reference_supermodular_alpha(r), r


def test_family_entry_points_are_the_shared_ones():
    assert verify_generalized is deviation_report
    assert hypergraph_potential is potential_value


# --- one int-pair group list ------------------------------------------------


def reference_groups(game):
    """The Fraction (members, weight, shares, anchor) ``groups`` view that
    `GameInstance` and `HypergraphGame` listed beside their kernels."""
    if isinstance(game, HypergraphGame):
        return [(e.players, e.weight, e.shares, e.anchor) for e in game.edges]
    return ([((i,), v, (Fraction(1),), k)
             for i, row in enumerate(game.intrinsic)
             for k, v in enumerate(row, 1)]
            + [((e.i, e.j), e.w, (e.share_ij, e.share_ji), None)
               for e in game.edges])


def reference_int_kernel(own, groups):
    """`_int_kernel` as it took n rows of exact own values and groups
    (members, anchor, values), values[pos] what the group pays members[pos]
    as a reduced int pair."""
    pairs = [v.as_integer_ratio() for row in own for v in row]
    pairs += [v for _, _, vs in groups for v in vs]
    scale = math.lcm(*{d for _, d in pairs})
    it = iter([p * (scale // d) for p, d in pairs])
    rows = [list(itertools.islice(it, len(row))) for row in own]
    nbrs = [[] for _ in rows]
    gains = [[] for _ in rows]
    rest = []
    for members, anchor, _ in groups:
        if len(members) == 2 and anchor is None:
            i, j = members
            nbrs[i].append(j)
            gains[i].append(next(it))
            nbrs[j].append(i)
            gains[j].append(next(it))
        elif len(members) == 1:
            row, v = rows[members[0]], next(it)
            for k in range(len(row)) if anchor is None else (anchor - 1,):
                row[k] += v
        else:
            if not rest:
                rest = [[] for _ in rows]
            for pos, i in enumerate(members):
                rest[i].append((members[:pos] + members[pos + 1:], anchor,
                                next(it)))
    return (_GroupKernel if rest else IntKernel)(scale, rows, nbrs, gains,
                                                 rest)


def reference_kernel(game):
    """The `IntKernel` that each family's own ``_kernel`` built: a pairwise
    game's own rows and edge gains as int pairs, a hypergraph's positive
    edges valued share * weight, an omega game's non-conflicted pairs."""
    zero = [(0,) * game.m] * game.n
    if isinstance(game, HypergraphGame):
        return reference_int_kernel(zero, [
            (e.players, e.anchor,
             [(share * e.weight).as_integer_ratio() for share in e.shares])
            for e in game.edges if e.weight])
    if isinstance(game, OmegaGame):
        a, b, omega = game.a, game.b, game.omega
        return reference_int_kernel(zero, [
            ((i, j), None, [v.as_integer_ratio() for v in (
                (a[i] * b[j], a[j] * b[i]) if lab == "one"
                else (omega * a[i] * b[j], omega * a[j] * b[i]))])
            for i, row in enumerate(game.labels)
            for j, lab in enumerate(row[i + 1:], i + 1) if lab != "conflict"])
    groups = []
    for e in game.edges:
        a, b = e.w.as_integer_ratio()
        c, d = e.share_ij.as_integer_ratio()
        bd, gi, gj = b * d, a * c, a * (d - c)
        ri, rj = math.gcd(gi, bd), math.gcd(gj, bd)
        groups.append(((e.i, e.j), None,
                       ((gi // ri, bd // ri), (gj // rj, bd // rj))))
    return reference_int_kernel(game.intrinsic, groups)


def reference_recover(game, zero_reason, conflict_reason, witness_group):
    """`_recover` on the Fraction groups: a division per reached group and
    a product per other member, components normalized by Fraction
    division."""
    groups = [(members, shares) for members, w, shares, _
              in reference_groups(game) if w > 0 and len(members) > 1]
    incident = [[] for _ in range(game.n)]
    for g, (members, shares) in enumerate(groups):
        if 0 in shares:
            return RecoveryFailure(edge=tuple(members), reason=zero_reason)
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
                base = gamma[i] / share
                for j, s_j in zip(*groups[g]):
                    if j == i:
                        continue
                    expected = base * s_j
                    if gamma[j] is None:
                        gamma[j] = expected
                        component.append(j)
                        stack.append(j)
                    elif gamma[j] != expected:
                        return RecoveryFailure(
                            edge=tuple(groups[g][0]) if witness_group
                            else (i, j), reason=conflict_reason)
        low = min(gamma[i] for i in component)
        for i in component:
            gamma[i] /= low
    return PotentialCertificate(gamma=tuple(gamma))


def reference_family_recover(game):
    if isinstance(game, HypergraphGame):
        return reference_recover(game, "zero share admits no positive weights",
                                 "edge forces two different weights", True)
    return reference_recover(game, "share 0 or 1 admits no positive weights",
                             "cycle forces two different weights", False)


def reference_shares_match(game, cert):
    """`certificate_shares_match` on the Fraction groups."""
    gamma = [Fraction(g) for g in cert.gamma]
    return all(share == gamma[i] / sum(gamma[j] for j in members)
               for members, w, shares, _ in reference_groups(game) if w > 0
               for i, share in zip(members, shares))


def reference_group_potential(game, profile, cert):
    """`potential_value` summing Fraction terms over the Fraction groups."""
    gamma = [Fraction(g) for g in cert.gamma]
    phi = Fraction(0)
    for members, weight, _, anchor in reference_groups(game):
        k = profile[members[0]]
        if anchor in (None, k) and all(profile[j] == k for j in members):
            phi += weight / sum(gamma[j] for j in members)
    return phi


split_shares = st.sampled_from((0, 1, Fraction(1), Fraction(1, 2),
                                Fraction(1, 3), Fraction(2, 5),
                                Fraction(5, 7)))


def _generated(make, n, seed):
    game, gamma = make(n, 2, seed)
    return game, PotentialCertificate(gamma=tuple(gamma))


# the generators' denser games close more cycles than the certified draws
generated_certified = st.builds(
    _generated, st.sampled_from((random_cc, random_hypergraph_cc)),
    st.integers(2, 8), st.integers(0, 10**6))


@st.composite
def perturbed_certified(draw):
    """A certified or generated game of either family, sometimes with up to
    three of its edges given a new split (0, 1, or one that can break a
    cycle through the edge; a hyperedge's member 0 takes it and the others
    share the rest) and now and then a zero weight; the certificate is
    kept, so it may no longer match."""
    game, cert = draw(certified(st.integers(1, 6), st.integers(1, 3))
                      | generated_certified)
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


ONE_HALF, ONE_THIRD = Fraction(1, 2), Fraction(1, 3)
# a pairwise and a hypergraph cycle whose splits force two weights
CONFLICTED_PAIRS = GameInstance(n=4, m=2, intrinsic=((1, 0),) * 4, edges=(
    Edge(0, 1, 1, ONE_HALF), Edge(1, 2, 2, ONE_HALF),
    Edge(2, 0, 1, ONE_THIRD), Edge(3, 2, 1, ONE_HALF)))
CONFLICTED_GROUPS = HypergraphGame(n=5, m=2, edges=(
    Hyperedge((0, 1, 2), 3, (ONE_THIRD,) * 3),
    Hyperedge((3, 4), 1, (ONE_HALF, ONE_HALF), 2),
    Hyperedge((2, 0), 1, (ONE_THIRD, 1 - ONE_THIRD), 1)))
perturbed_games = perturbed_certified().map(lambda case: case[0])


@RECOVERY_SETTINGS
@given(perturbed_games)
@example(CONFLICTED_PAIRS)
@example(CONFLICTED_GROUPS)
def test_recovery_matches_the_fraction_recovery(game):
    """Weights, reasons and witnesses, hypergraph ones included, equal
    those of the recovery over the Fraction groups."""
    recover = (hypergraph_cc_recover if isinstance(game, HypergraphGame)
               else cc_recover)
    assert recover(game) == reference_family_recover(game)


@RECOVERY_SETTINGS
@given(perturbed_certified(), st.integers(0, 10**6))
@example((CONFLICTED_GROUPS, PotentialCertificate(gamma=(1, 2, 1, 3, 1))), 0)
def test_int_pair_potentials_match_the_fraction_groups(case, seed):
    """The share check, the potential and the potential's kernel equal
    their Fraction-group versions, with the case's certificate and with
    the recovered one."""
    game, cert = case
    rng = random.Random(seed)
    profile = tuple(rng.randint(1, game.m) for _ in range(game.n))
    certs = [cert]
    recovered = reference_family_recover(game)
    if isinstance(recovered, PotentialCertificate):
        certs.append(recovered)
    for cert in certs:
        assert (certificate_shares_match(game, cert)
                == reference_shares_match(game, cert))
        phi = potential_value(game, profile, cert)
        assert type(phi) is Fraction
        assert phi == reference_group_potential(game, profile, cert)
        assert _potential_kernel(game, cert) == reference_potential_kernel(
            game, cert)


@SETTINGS
@given(instances() | omega_games() | pair_hypergraphs() | rest_hypergraphs
       | perturbed_games)
@example(CONFLICTED_GROUPS)
def test_kernels_match_the_family_builders(game):
    """`_KernelGame._kernel` over ``_groups()`` is the kernel each family
    built of its own: the same scale, rows, neighbours, gains and rest
    groups, and the same kernel shape."""
    kernel, expected = game._kernel, reference_kernel(game)
    assert type(kernel) is type(expected)
    assert tuple(kernel) == tuple(expected)
