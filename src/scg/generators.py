"""Instance generators: named families and seeded random corpora.

Generation is a pure function of the parameters and the seed, so fixtures
regenerate byte-identically.  Draws come from fixed ranges.
`random_instance`, `random_cc` and `random_symmetric` share one draw: own
values randint(0, 10) / choice(1, 2, 3), then each pair kept with
probability `edge_prob` (1/2 for the last two) at weight 1..10, split at
randint(1, 9) / 10, at gamma_i / (gamma_i + gamma_j) for influence weights
gamma in 1..5 drawn first, or evenly.  `random_supermodular` draws base
values 0..6 and directed pair gains 0..4, `random_omega` bonuses a, b in
1..5, and `random_hypergraph_cc` gamma in 1..5, n + 2 groups of two or
three players and anchored singletons, all at weight 1..8.  An n, m, seed
or `random_supermodular` bound r that is not an int (a float, a bool or
a str) is refused, naming it, and so is an `edge_prob` that is not an
int, a float or a Fraction in [0, 1].
"""

from __future__ import annotations

import random
from fractions import Fraction

from .generalized import (GeneralizedGame, Hyperedge, HypergraphGame, OmegaGame,
                          additive_tables)
from .model import Edge, GameInstance
from .rationals import SQRT2_APPROX, _exact_alpha, _int

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def example1(r=1):
    """Three-player cyclic instance with no Nash equilibrium.

    Player i's intrinsic is sqrt(2)-approx * r at strategy i+1 and r at the
    next strategy (cyclically); each player fully captures the benefit of
    one directed relationship of weight r around the cycle.
    """
    r = _exact_alpha(r, "r")
    if r <= 0:
        raise ValueError("r must be positive")
    n = m = 3
    intrinsic = []
    for i in range(n):
        row = [ZERO] * m
        row[i] = SQRT2_APPROX * r
        row[(i + 1) % m] = r
        intrinsic.append(tuple(row))
    edges = tuple(Edge(i=i, j=(i + 1) % n, w=r, share_ij=Fraction(1))
                  for i in range(n))
    return GameInstance(n=n, m=m, intrinsic=tuple(intrinsic), edges=edges)


def prop5(m, r=1, eps=Fraction(1, 100)):
    """Star family with a hub indifferent across strategies.

    m players, m strategies.  The hub (player 0) has intrinsic r everywhere
    and takes share r/(r+eps) of each weight-(r+eps) spoke; spoke player j
    has intrinsic 2*eps at her own strategy, so she strictly prefers
    isolation to her eps-sized share, pushing equilibria apart.
    """
    r, eps = _exact_alpha(r, "r"), _exact_alpha(eps, "eps")
    if _int(m, "m") < 2 or r < 1 or eps <= 0:
        raise ValueError("need m >= 2, r >= 1, eps > 0")
    intrinsic = [tuple([r] * m)]
    for j in range(1, m):
        row = [ZERO] * m
        row[j] = 2 * eps
        intrinsic.append(tuple(row))
    edges = tuple(Edge(i=0, j=j, w=r + eps, share_ij=r / (r + eps))
                  for j in range(1, m))
    return GameInstance(n=m, m=m, intrinsic=tuple(intrinsic), edges=edges)


def symmetric_pos_tight(m, r=1, eps=Fraction(1, 10_000)):
    """Symmetric star whose best equilibrium welfare trails the optimum by
    a factor approaching 2 - 1/m as eps shrinks.

    Each player's own strategy pays r+eps; spokes of weight 2r split evenly
    connect player 0 to everyone, so gathering at strategy 1 is worth
    (2m-1)r + eps but no one will stay there for r alone.
    """
    r, eps = _exact_alpha(r, "r"), _exact_alpha(eps, "eps")
    if _int(m, "m") < 2 or r <= 0 or eps <= 0:
        raise ValueError("need m >= 2, r > 0, eps > 0")
    intrinsic = []
    for i in range(m):
        row = [ZERO] * m
        row[i] = r + eps
        intrinsic.append(tuple(row))
    edges = tuple(Edge(i=0, j=j, w=2 * r, share_ij=HALF) for j in range(1, m))
    return GameInstance(n=m, m=m, intrinsic=tuple(intrinsic), edges=edges)


def _random_pairwise(n, m, seed, share_rule, edge_prob=HALF):
    """The draw of the pairwise families: after the size check,
    `share_rule(rng)` makes the family's own draws and returns share(i, j),
    drawn after the weight of each pair i < j that the pass keeps."""
    if _int(n, "n") < 1 or _int(m, "m") < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if (type(edge_prob) not in (int, float, Fraction)
            or not 0 <= edge_prob <= 1):  # NaN is refused too
        raise ValueError(f"edge_prob: expected a probability in [0, 1], "
                         f"got {edge_prob!r}")
    rng = random.Random(_int(seed, "seed"))
    share = share_rule(rng)
    intrinsic = tuple(
        tuple(Fraction(rng.randint(0, 10), rng.choice((1, 2, 3)))
              for _ in range(m))
        for _ in range(n))
    p, q = edge_prob.as_integer_ratio()
    # rng.random() = k/2**53 < p/q iff int k < ceil(2**53 p/q) =: c, and the
    # float c/2**53 is exact for 0 <= c <= 2**53, so one float test decides
    cut = -(-(p << 53) // q) / 2**53
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < cut:
                w = Fraction(rng.randint(1, 10))
                edges.append(Edge(i=i, j=j, w=w, share_ij=share(i, j)))
    return GameInstance(n=n, m=m, intrinsic=intrinsic, edges=tuple(edges))


def random_instance(n, m, seed, edge_prob=HALF):
    """Random instance with interior split coefficients (finite imbalance)."""
    def interior(rng):
        return lambda i, j: Fraction(rng.randint(1, 9), 10)
    return _random_pairwise(n, m, seed, interior, edge_prob)


def random_cc(n, m, seed):
    """Random instance whose splits come from per-player influence weights,
    so weight recovery succeeds by construction."""
    gamma = []

    def influence(rng):
        gamma.extend(Fraction(rng.randint(1, 5)) for _ in range(n))
        return lambda i, j: gamma[i] / (gamma[i] + gamma[j])
    return _random_pairwise(n, m, seed, influence), tuple(gamma)


def random_symmetric(n, m, seed):
    """Random instance with every relationship split evenly."""
    return _random_pairwise(n, m, seed, lambda rng: lambda i, j: HALF)


def random_supermodular(n, m, r, seed):
    """Random generalized game with complementarity degree at most r.

    r = 1 gives the additive tables of a pairwise game whose pair (i, j)
    pays i the directed gain g_ij and j the gain g_ji; r = 2 squares
    them, which keeps monotonicity and bounds every union ratio by 2
    since (x + y)^2 <= 2 (x^2 + y^2).
    """
    if _int(r, "r") not in (1, 2):
        raise ValueError("only degree bounds 1 and 2 are generated")
    if not (1 <= _int(n, "n") <= 8):
        raise ValueError("n must be in 1..8 (tables are exponential in n)")
    rng = random.Random(_int(seed, "seed"))
    _int(m, "m")
    base = tuple(tuple(Fraction(rng.randint(0, 6)) for _ in range(m))
                 for _ in range(n))
    gain = {(i, j): rng.randint(0, 4)
            for i in range(n) for j in range(n) if i != j}
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            w = gain[i, j] + gain[j, i]
            edges.append(Edge(i=i, j=j, w=Fraction(w),
                              share_ij=Fraction(gain[i, j], w) if w else HALF))
    tables = additive_tables(GameInstance(n=n, m=m, intrinsic=base,
                                          edges=tuple(edges))).tables
    if r == 2:
        tables = {key: v * v for key, v in tables.items()}
    return GeneralizedGame(n=n, m=m, tables=tables)


def random_omega(n, m, seed, omega=HALF):
    """Random conflict-aware game with a feasible state guaranteed.

    Players get a random home strategy; conflicts only appear between
    players with different homes, so the home profile is always feasible.
    """
    if _int(n, "n") < 1 or _int(m, "m") < 1:
        raise ValueError("need n >= 1 and m >= 1")
    rng = random.Random(_int(seed, "seed"))
    a = tuple(Fraction(rng.randint(1, 5)) for _ in range(n))
    b = tuple(Fraction(rng.randint(1, 5)) for _ in range(n))
    home = [rng.randint(1, m) for _ in range(n)]
    labels = [["zero"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            roll = rng.random()
            if roll < 0.4:
                lab = "one"
            elif roll < 0.8 or home[i] == home[j]:
                lab = "zero"
            else:
                lab = "conflict"
            labels[i][j] = labels[j][i] = lab
    return OmegaGame(n=n, m=m, a=a, b=b,
                     labels=tuple(tuple(row) for row in labels),
                     omega=_exact_alpha(omega, "omega"))


def random_hypergraph_cc(n, m, seed):
    """Random hypergraph game whose shares derive from one influence-weight
    vector, so recovery succeeds and the potential is ordinal."""
    if _int(n, "n") < 2 or _int(m, "m") < 1:
        raise ValueError("need n >= 2 and m >= 1")
    rng = random.Random(_int(seed, "seed"))
    gamma = [Fraction(rng.randint(1, 5)) for _ in range(n)]
    edges = []
    for _ in range(n + 2):
        size = rng.randint(2, min(3, n))
        players = tuple(sorted(rng.sample(range(n), size)))
        total = sum((gamma[i] for i in players), ZERO)
        shares = tuple(gamma[i] / total for i in players)
        anchor = rng.randint(1, m) if rng.random() < 0.3 else None
        edges.append(Hyperedge(players=players,
                               weight=Fraction(rng.randint(1, 8)),
                               shares=shares, anchor=anchor))
    # anchored singleton edges play the role of intrinsic preferences
    for i in range(n):
        if rng.random() < 0.5:
            edges.append(Hyperedge(players=(i,),
                                   weight=Fraction(rng.randint(1, 8)),
                                   shares=(Fraction(1),),
                                   anchor=rng.randint(1, m)))
    return HypergraphGame(n=n, m=m, edges=tuple(edges)), tuple(gamma)
