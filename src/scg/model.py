"""Core model: game instances, profiles, utilities and instance statistics.

A game has ``n`` players, ``m`` strategies, a nonnegative intrinsic
preference matrix and weighted pairwise relationships.  Each relationship
carries a split coefficient: when players i and j pick the same strategy,
i receives ``share_ij * w`` and j receives ``(1 - share_ij) * w``.

All types are immutable after construction and every operation is a pure
function, so evaluation is safe to parallelize without coordination.
Strategies are 1-based (1..m); player indices are 0-based.

Utility protocol: every game family (``GameInstance`` here,
``GeneralizedGame`` and ``HypergraphGame`` in ``scg.generalized``) has
``utilities(profile, i)``, which returns player i's utility for each
strategy 1..m against the others' strategies in ``profile``, as a list
indexed ``k - 1``.  It trusts the profile: public entry points validate a
profile once, and the verifiers and dynamics then read every best response,
deviation gain and payment from this vector.  ``player_utility`` is the
validated single-player wrapper over it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .rationals import INF, ParseError, format_rational, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Edge:
    """Undirected relationship with an asymmetric benefit split."""

    i: int
    j: int
    w: Fraction
    share_ij: Fraction  # i's share; j receives 1 - share_ij

    @property
    def share_ji(self):
        return ONE - self.share_ij


@dataclass(frozen=True)
class GameInstance:
    n: int
    m: int
    intrinsic: tuple  # n rows of m Fractions, intrinsic[i][k-1] = w_i^k
    edges: tuple      # tuple of Edge

    def __post_init__(self):
        if self.n < 0 or self.m < 1:
            raise ValueError("need n >= 0 players and m >= 1 strategies")
        if len(self.intrinsic) != self.n:
            raise ValueError("intrinsic matrix must have one row per player")
        for i, row in enumerate(self.intrinsic):
            if len(row) != self.m:
                raise ValueError(f"intrinsic row {i} must have m entries")
            for k, v in enumerate(row):
                if type(v) not in _EXACT:
                    raise _inexact(f"intrinsic[{i}][{k}]", v)
                if v < 0:
                    raise ValueError(f"intrinsic row {i}: negative entry")
        seen = set()
        for e in self.edges:
            if e.i == e.j:
                raise ValueError(f"edge ({e.i},{e.j}): self-loop")
            if not (0 <= e.i < self.n and 0 <= e.j < self.n):
                raise ValueError(f"edge ({e.i},{e.j}): player index out of range")
            key = frozenset((e.i, e.j))
            if key in seen:
                raise ValueError(f"edge ({e.i},{e.j}): duplicate pair")
            seen.add(key)
            if type(e.w) not in _EXACT:
                raise _inexact(f"edge ({e.i},{e.j}).w", e.w)
            if type(e.share_ij) not in _EXACT:
                raise _inexact(f"edge ({e.i},{e.j}).share_ij", e.share_ij)
            if e.w < 0:
                raise ValueError(f"edge ({e.i},{e.j}): negative weight")
            if not (0 <= e.share_ij <= 1):
                raise ValueError(f"edge ({e.i},{e.j}): share out of range")

    @cached_property
    def adjacency(self):
        """Per-player list of (neighbor, own coordination gain) pairs."""
        adj = [[] for _ in range(self.n)]
        for e in self.edges:
            adj[e.i].append((e.j, e.share_ij * e.w))
            adj[e.j].append((e.i, e.share_ji * e.w))
        return adj

    @cached_property
    def edge_weight(self):
        """Unordered-pair -> weight lookup."""
        return {frozenset((e.i, e.j)): e.w for e in self.edges}

    def utilities(self, profile, i):
        """Player i's utility for each strategy 1..m; trusts the profile."""
        us = list(self.intrinsic[i])
        for j, gain in self.adjacency[i]:
            us[profile[j] - 1] += gain
        return us

    def validate_profile(self, profile):
        _check_profile(self, profile)


#: The value types exact arithmetic takes, matched by exact type (a set
#: lookup, cheap enough for every entry of a large instance); bool is
#: left out, as it is an int to Python but never a payoff.
_EXACT = frozenset((int, Fraction))


def _inexact(where, value):
    return ValueError(f"{where}: expected an int or Fraction, "
                      f"got {type(value).__name__}")


def _check_profile(game, profile):
    """Reject a profile that does not give each of game.n players a
    strategy in 1..game.m; shared by every game family."""
    if len(profile) != game.n:
        raise ValueError("profile length must equal player count")
    for s in profile:
        if not (1 <= s <= game.m):
            raise ValueError(f"strategy {s} out of range 1..{game.m}")


@dataclass(frozen=True)
class UtilityBreakdown:
    """Per-player and total utilities split into intrinsic + coordination."""

    per_player: tuple        # u_i
    intrinsic_part: tuple    # per-player intrinsic component
    coordination_part: tuple # per-player coordination component
    total: Fraction          # u(s)
    intrinsic_total: Fraction      # A(s)
    coordination_total: Fraction   # P(s)


@dataclass(frozen=True)
class InstanceStats:
    best: tuple        # best(i) = max_k w_i^k
    a_total: Fraction  # A_T = sum best(i)
    p_total: Fraction  # P_T = sum of all relationship weights
    k_star: int        # strategy maximizing total intrinsic, lowest index on ties
    mri: object        # Fraction >= 1, or math.inf


def player_utility(game, profile, i, strategy=None):
    """Utility of player i, optionally under a unilateral deviation.

    Validates its arguments, then reads the entry from `utilities`.
    Returns (total, intrinsic_part, coordination_part).
    """
    if not (0 <= i < game.n):
        raise IndexError(f"player index {i} out of range")
    game.validate_profile(profile)
    k = profile[i] if strategy is None else strategy
    if not (1 <= k <= game.m):
        raise ValueError(f"strategy {k} out of range 1..{game.m}")
    total = game.utilities(profile, i)[k - 1]
    intrinsic = game.intrinsic[i][k - 1]
    return total, intrinsic, total - intrinsic


def welfare(game, profile):
    """Full utility breakdown for a profile; u(s) = A(s) + P(s) exactly."""
    game.validate_profile(profile)
    per, ipart, cpart = [], [], []
    for i, k in enumerate(profile):
        u = game.utilities(profile, i)[k - 1]
        a = game.intrinsic[i][k - 1]
        per.append(u)
        ipart.append(a)
        cpart.append(u - a)
    a_tot = sum(ipart, ZERO)
    p_tot = sum(cpart, ZERO)
    return UtilityBreakdown(
        per_player=tuple(per),
        intrinsic_part=tuple(ipart),
        coordination_part=tuple(cpart),
        total=a_tot + p_tot,
        intrinsic_total=a_tot,
        coordination_total=p_tot,
    )


def welfare_total(game, profile):
    """Social welfare u(s) without the per-player breakdown (hot path)."""
    total = ZERO
    for i in range(game.n):
        total += game.intrinsic[i][profile[i] - 1]
    for e in game.edges:
        if profile[e.i] == profile[e.j]:
            total += e.w
    return total


def instance_stats(game):
    best = tuple(max(row) for row in game.intrinsic)
    a_total = sum(best, ZERO)
    p_total = sum((e.w for e in game.edges), ZERO)
    col_sums = [sum((row[k] for row in game.intrinsic), ZERO) for k in range(game.m)]
    k_star = max(range(game.m), key=lambda k: (col_sums[k], -k)) + 1
    mri = ONE
    for e in game.edges:
        if e.w == 0:
            continue  # shares on zero-weight edges are payoff-irrelevant
        if e.share_ij == 0 or e.share_ij == 1:
            mri = INF
            break
        ratio = max(e.share_ij / e.share_ji, e.share_ji / e.share_ij)
        if ratio > mri:
            mri = ratio
    return InstanceStats(best=best, a_total=a_total, p_total=p_total,
                         k_star=k_star, mri=mri)


# --- instance file format ---------------------------------------------------
#
# {"n": int, "m": int, "intrinsic": [[rational-string]],
#  "edges": [{"i": int, "j": int, "w": str, "share_ij": str}]}
# with 0-based player indices and rationals as "p/q" or integer strings.


def parse_instance(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level: expected object")
    for key in ("n", "m", "intrinsic", "edges"):
        if key not in data:
            raise ParseError(f"{key}: missing field")
    n, m = data["n"], data["m"]
    if not isinstance(n, int) or not isinstance(m, int):
        raise ParseError("n/m: must be integers")
    intrinsic = []
    rows = data["intrinsic"]
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError("intrinsic: expected n rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != m:
            raise ParseError(f"intrinsic[{i}]: expected m entries")
        parsed = tuple(parse_rational(v, f"intrinsic[{i}][{k}]") for k, v in enumerate(row))
        if any(v < 0 for v in parsed):
            raise ParseError(f"intrinsic[{i}]: negative entry")
        intrinsic.append(parsed)
    edges = []
    if not isinstance(data["edges"], list):
        raise ParseError("edges: expected list")
    for idx, raw in enumerate(data["edges"]):
        if not isinstance(raw, dict):
            raise ParseError(f"edges[{idx}]: expected object")
        try:
            i, j = raw["i"], raw["j"]
        except KeyError as exc:
            raise ParseError(f"edges[{idx}]: missing endpoint") from exc
        for name, v in (("i", i), ("j", j)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParseError(f"edges[{idx}].{name}: expected integer")
        w = parse_rational(raw.get("w"), f"edges[{idx}].w")
        share = parse_rational(raw.get("share_ij"), f"edges[{idx}].share_ij")
        if w < 0:
            raise ParseError(f"edges[{idx}].w: negative weight")
        if not (0 <= share <= 1):
            raise ParseError(f"edges[{idx}].share_ij: share out of range")
        edges.append(Edge(i=i, j=j, w=w, share_ij=share))
    try:
        return GameInstance(n=n, m=m, intrinsic=tuple(intrinsic), edges=tuple(edges))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_instance(game):
    data = {
        "n": game.n,
        "m": game.m,
        "intrinsic": [[format_rational(v) for v in row] for row in game.intrinsic],
        "edges": [
            {"i": e.i, "j": e.j, "w": format_rational(e.w),
             "share_ij": format_rational(e.share_ij)}
            for e in game.edges
        ],
    }
    return json.dumps(data) + "\n"
