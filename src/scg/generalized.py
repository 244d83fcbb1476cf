"""Coordination games beyond pairwise additive utilities.

Three model families live here:

* ``GeneralizedGame`` — per-player utility tables over (strategy, set of
  co-located others), with a measured complementarity degree r and a
  one-shot dynamic whose gate is tuned to r.
* ``HypergraphGame`` — group relationships that pay out only when every
  member (and an optional anchored strategy) coincides, with influence
  weight recovery and an ordinal potential.
* ``OmegaGame`` — unit-benefit games where originally-worthless pairs earn
  a fraction omega of the benefit and conflicted pairs may never co-locate;
  a lexicographically maximal mass vector gives a 1/omega-approximate
  strong equilibrium.

All three follow the integer utility protocol of `scg.model`, so their
oracles are the shared ones of `scg.analysis` (the optimum, the census,
deviation reports, group deviations) and `scg.potentials` (weight
recovery; on hypergraphs also the group potential and its ordinal audit).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .analysis import (SizeError, _group_deviation, _profiles,
                       deviation_report as verify_generalized)
from .dynamics import _check_start, one_shot_alpha_br, run_dynamics
from .model import (_KernelGame, _ScaledGame, _check_dims, _int_kernel,
                    _scaled_ints)
from .potentials import _recover, potential_value as hypergraph_potential
from .rationals import (_EXACT, INF, ParseError, _as_list, _construct,
                        _exact_alpha, _inexact, _int, load_object,
                        rational_reader, rational_writer, supermodular_alpha)

ZERO = Fraction(0)

TABLE_ENUM_CAP = 200_000  # subset-pair enumeration guard


class TableError(ValueError):
    """A utility table was queried at an unspecified (strategy, set) entry:
    the game is incomplete, so the CLI reports it as bad input."""


# ---------------------------------------------------------------------------
# Generalized games: explicit utility tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneralizedGame(_ScaledGame):
    """n players, m strategies, sparse tables u[(i, k, others)] -> Fraction.

    ``others`` is a frozenset of co-located players excluding i.  Querying
    an absent entry is an error: complement structure must be fully
    specified rather than silently defaulted.
    """

    n: int
    m: int
    tables: dict  # (i, k, frozenset) -> Fraction

    def __post_init__(self):
        _check_dims(self)
        n, m = self.n, self.m
        # inline type tests: a helper call would format every entry's name
        for (i, k, others), u in self.tables.items():
            if type(others) is not frozenset:
                raise ValueError(f"table key ({i!r},{k!r},{others!r}): "
                                 "others must be a frozenset")
            if not (type(i) is int and type(k) is int and 0 <= i < n
                    and 1 <= k <= m and i not in others
                    and all(type(j) is int and 0 <= j < n for j in others)):
                raise ValueError(
                    f"table key ({i!r},{k!r},{set(others)!r}): need an int "
                    f"player in 0..{n - 1} not among the others, an int "
                    f"strategy in 1..{m} and int others in 0..{n - 1}")
            if type(u) not in _EXACT:
                raise _inexact(f"table entry ({i},{k},{set(others)})", u)
            if u < 0:
                raise ValueError(f"table entry ({i},{k},{set(others)}): negative")

    def utility(self, i, k, others):
        try:
            return self.tables[(i, k, frozenset(others))]
        except KeyError:
            raise TableError(
                f"no entry for player {i}, strategy {k}, set {sorted(others)}")

    def utility_in_profile(self, profile, i, strategy=None):
        k = profile[i] if strategy is None else strategy
        others = frozenset(j for j in range(self.n)
                           if j != i and profile[j] == k)
        return self.utility(i, k, others)

    @cached_property
    def _view(self):
        """(L, per player {mask * m + k - 1: the entry at k times L}), mask
        the others' bitmask and L the lcm of the denominators; built once."""
        m = self.m
        scale, ints = _scaled_ints([u.as_integer_ratio()
                                    for u in self.tables.values()])
        rows = [{} for _ in range(self.n)]
        for (i, k, others), v in zip(self.tables, ints):
            rows[i][sum(1 << j for j in others) * m + k - 1] = v
        return scale, rows

    @property
    def scale(self):
        """The lcm L of the denominators of every table entry."""
        return self._view[0]

    def _own_row(self, i):
        """Player i's u_i(k, ∅) times `scale`; an absent one raises."""
        row = [self._view[1][i].get(k) for k in range(self.m)]
        if None in row:
            self.utility(i, row.index(None) + 1, ())  # raises
        return row

    @cached_property
    def rows(self):
        """Every player's own values, player by player."""
        return [self._own_row(i) for i in range(self.n)]

    def scaled_utilities(self, profile, i):
        """Player i's utility for each strategy 1..m times `scale`, as ints;
        trusts the profile.  Raises the `TableError` of the first strategy
        with no entry.  O(n + m)."""
        m = self.m
        masks = [0] * m
        for j, s in enumerate(profile):
            masks[s - 1] |= 1 << j
        masks[profile[i] - 1] ^= 1 << i
        row = self._view[1][i]
        us = [row.get(mask * m + k) for k, mask in enumerate(masks)]
        if None in us:
            self.utility_in_profile(profile, i, us.index(None) + 1)  # raises
        return us

    def _groups(self, i=None):
        """Refused: a table lists utilities, not the groups that pay them."""
        raise ValueError("a utility table has no group list: weight recovery, "
                         "potentials and additive tables take a pairwise, "
                         "hypergraph or omega game")

    @cached_property
    def _degree(self):
        """The complementarity degree, computed on first use and kept; a
        `SizeError` is not kept, so every query raises it."""
        return _supermodularity_degree(self)


def supermodularity_degree(ggame):
    """Smallest r with u_i(k, S∪T) <= r * (u_i(k, S) + u_i(k', T)) over all
    covered entries, floored at 1; +inf when a zero denominator meets a
    positive numerator.

    The second entry's strategy k' may differ from k: the one-shot analysis
    charges a player's gain against utilities at two different strategies,
    so the degree must bound those cross-strategy sums too.  Entries are
    nonnegative, so for a fixed (k, S, T) the ratio is largest, and a zero
    denominator appears if it appears at all, at the smallest u_i(k', T);
    only that minimum over k' is paired with each entry.  Reads the
    game's integer view, whose scale L leaves every ratio as it is; the
    running maximum is an integer pair compared by cross-multiplication,
    and only the result is a Fraction.  Computed once per game and kept.
    """
    return ggame._degree


def _supermodularity_degree(ggame):
    m = ggame.m
    view = ggame._view[1]
    total_pairs = sum(len(row) ** 2 for row in view)
    if total_pairs > TABLE_ENUM_CAP:
        raise SizeError(f"table too large for pairwise enumeration "
                        f"({total_pairs} pairs)")
    num, den = 1, 1
    for row in view:
        lowest = {}  # mask -> smallest scaled entry over every strategy
        for key, v in row.items():
            lowest[key // m] = min(v, lowest.get(key // m, v))
        for key, u1 in row.items():
            mask1, k = divmod(key, m)
            for mask2, u2 in lowest.items():
                top = row.get((mask1 | mask2) * m + k)
                if top is None:
                    continue
                bottom = u1 + u2
                if bottom == 0 < top:
                    return INF
                if top * den > num * bottom:  # 0 > 0 on a zero bottom
                    num, den = top, bottom
    return Fraction(num, den)


def one_shot_generalized(ggame, k0, alpha=None):
    """One-shot gated best response on a generalized game.

    Everyone starts at k0; a player still there may leave once, to her best
    response, when it multiplies her utility by at least the gate alpha
    (zero baseline: any positive utility passes).  The default gate is the
    smallest rational at denominator 10^6 at or above
    (r + sqrt(r(r+4))) / 2 for the measured degree r.

    Returns (profile, alpha_used, moves) where moves lists
    (player, new strategy, old utility, new utility).
    """
    _check_start(ggame, k0)  # before the costly degree computation
    if alpha is None:
        r = supermodularity_degree(ggame)
        if r == INF:
            raise ValueError("unbounded complementarity: no finite gate exists")
        alpha = supermodular_alpha(r)
    else:
        alpha = _exact_alpha(alpha)
    _, trace = one_shot_alpha_br(ggame, k0, alpha)
    moves = tuple((mv.player, mv.to_strategy, mv.old_utility, mv.new_utility)
                  for mv in trace.moves)
    return trace.terminal, alpha, moves


def triangle_game(c):
    """Three-player cyclic table family with tunable complementarity.

    Player i favors strategy f = i+1 (cyclically) and benefits from player
    i+1.  With the benefactor co-located the favorite and the next strategy
    both pay c^3; alone they pay c^2 and c; the last strategy pays c with
    the benefactor and nothing alone.  The third player never matters.
    """
    c = _exact_alpha(c, "c")
    if c < 1:
        raise ValueError("c must be >= 1")
    n, m = 3, 3
    tables = {}
    for i in range(n):
        benefactor = (i + 1) % n
        other = (i + 2) % n
        fav = i + 1  # favorite strategy, 1-based
        base = {  # offset from favorite -> (alone, with benefactor)
            0: (c ** 2, c ** 3),
            1: (c, c ** 3),
            2: (ZERO, c),
        }
        for off, (alone, joint) in base.items():
            k = (fav - 1 + off) % m + 1
            for with_other in (False, True):
                extra = frozenset([other]) if with_other else frozenset()
                tables[(i, k, extra)] = alone
                tables[(i, k, extra | {benefactor})] = joint
    return GeneralizedGame(n=n, m=m, tables=tables)


def triangle_nonexistence_check(c):
    """Min over all 27 profiles of the max unilateral deviation factor.

    Equals c exactly: every profile of the triangle family leaves some
    player a factor-c improvement, so no better-than-c approximate
    equilibrium exists.
    """
    game = triangle_game(c)
    return min(verify_generalized(game, profile).max_factor
               for profile in _profiles(game))


def additive_tables(game):
    """Full generalized tables of any kernel game with n <= 12: u_i(k, S)
    is i's own value at k, its pair gains from S and each other group of
    i with all other members in S and anchor None or k.

    Exponential in n; intended for desk-scale oracle comparisons only.
    """
    if game.n > 12:
        raise ValueError("additive table expansion capped at n = 12")
    players = range(game.n)
    scale, rows, nbrs, gains, rest = _int_kernel(game.n, game.m,
                                                 game._groups())
    tables = {}
    for i in players:
        groups = rest[i] if rest else ()
        others = [j for j in players if j != i]
        for size in range(len(others) + 1):
            for combo in itertools.combinations(others, size):
                combo = frozenset(combo)
                coord = sum(g for j, g in zip(nbrs[i], gains[i]) if j in combo)
                met = [(anchor, g) for group, anchor, g in groups
                       if combo.issuperset(group)]
                for k, own in enumerate(rows[i], 1):
                    u = own + coord + sum(g for anchor, g in met
                                          if anchor in (None, k))
                    tables[(i, k, combo)] = Fraction(u, scale)
    return GeneralizedGame(n=game.n, m=game.m, tables=tables)


def parse_generalized(text):
    data = load_object(text, ("n", "m", "tables"))
    tables, read = {}, rational_reader()
    # an empty game checks n and m first, as the other families' readers do
    _construct(GeneralizedGame, n=data["n"], m=data["m"], tables={})
    if not isinstance(data["tables"], list) or len(data["tables"]) != data["n"]:
        raise ParseError("tables: expected one entry list per player")
    for i, entries in enumerate(data["tables"]):
        for idx, e in enumerate(_as_list(entries, f"tables[{i}]")):
            where = f"tables[{i}][{idx}]"
            try:
                k, subset = e["strategy"], e["others"]
            except (KeyError, TypeError) as exc:
                raise ParseError(f"{where}: missing strategy/others") from exc
            if type(k) is not int:
                raise ParseError(f"{where}.strategy: expected integer")
            if (not isinstance(subset, list)
                    or any(type(j) is not int for j in subset)):
                raise ParseError(f"{where}.others: expected a list of integers")
            if len(set(subset)) != len(subset):
                raise ParseError(f"{where}.others: repeated player")
            u = read(e.get("u"), f"{where}.u")
            key = (i, k, frozenset(subset))
            if key in tables:
                raise ParseError(f"{where}: duplicate entry")
            tables[key] = u
    return _construct(GeneralizedGame, n=data["n"], m=data["m"], tables=tables)


def serialize_generalized(ggame):
    per_player, write = [[] for _ in range(ggame.n)], rational_writer()
    for (i, k, others), u in sorted(ggame.tables.items(),
                                    key=lambda kv: (kv[0][0], kv[0][1],
                                                    sorted(kv[0][2]))):
        per_player[i].append({"strategy": k, "others": sorted(others),
                              "u": write(u)})
    return json.dumps({"n": ggame.n, "m": ggame.m, "tables": per_player}) + "\n"


# ---------------------------------------------------------------------------
# Hypergraph games
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hyperedge:
    players: tuple          # member player indices
    weight: Fraction
    shares: tuple           # per member, summing to 1
    anchor: int | None = None  # strategy the edge is pinned to, if any


@dataclass(frozen=True)
class HypergraphGame(_KernelGame):
    n: int
    m: int
    edges: tuple

    def __post_init__(self):
        _check_dims(self)
        for idx, e in enumerate(self.edges):
            where = f"edges[{idx}]"
            for pos, i in enumerate(e.players):
                _int(i, f"{where}.players[{pos}]")
            _exact_alpha(e.weight, f"{where}.weight")
            for pos, share in enumerate(e.shares):
                _exact_alpha(share, f"{where}.shares[{pos}]")
            if e.anchor is not None:
                _int(e.anchor, f"{where}.anchor")
            if len(set(e.players)) != len(e.players) or not e.players:
                raise ValueError(f"{where}.players: members must be distinct "
                                 "and nonempty")
            if any(not (0 <= i < self.n) for i in e.players):
                raise ValueError(f"{where}.players: member out of range")
            if e.anchor is not None and not (1 <= e.anchor <= self.m):
                raise ValueError(f"{where}.anchor: strategy out of range")
            if e.weight < 0:
                raise ValueError(f"{where}.weight: negative hyperedge weight")
            if len(e.shares) != len(e.players):
                raise ValueError(f"{where}.shares: one per member required")
            if any(s < 0 for s in e.shares) or sum(e.shares, ZERO) != 1:
                raise ValueError(f"{where}.shares: must be nonnegative and "
                                 "sum to 1")

    def _groups(self, i=None):
        """The positive edges as (members, anchor, w, shares) groups, w and
        every share a reduced int pair; given i, those with member i only."""
        return [(e.players, e.anchor, e.weight.as_integer_ratio(),
                 tuple([share.as_integer_ratio() for share in e.shares]))
                for e in self.edges
                if e.weight and (i is None or i in e.players)]


def hypergraph_cc_recover(hgame):
    """Influence weights from hyperedge shares, or a failure witness.

    Within a positive edge, shares are proportional to member weights (an
    anchored strategy contributes weight 0 and no share).  Weights are
    propagated by `scg.potentials._recover`, which checks every share
    exactly; a failure names the positive edge that forced a conflict.
    """
    return _recover(hgame, "zero share admits no positive weights",
                    "edge forces two different weights", witness_group=True)


def hypergraph_br_dynamics(hgame, start, step_cap=None):
    """Plain best-response dynamics; returns (terminal, moves, reason).

    Runs `scg.dynamics.run_dynamics` with the plain strict-improvement
    gate, so it has the same stop rule: "converged",
    "step-cap" after `step_cap` moves (default no cap, an int >= 1), or
    "cycle-detected" as soon as a profile repeats.  Each move is
    (player, from strategy, to strategy).
    """
    trace = run_dynamics(hgame, start, step_cap=step_cap)
    moves = tuple((mv.player, mv.from_strategy, mv.to_strategy)
                  for mv in trace.moves)
    return trace.terminal, moves, trace.reason


def parse_hypergraph(text):
    data = load_object(text, ("n", "m", "edges"))
    edges, read = [], rational_reader()
    for idx, raw in enumerate(_as_list(data["edges"], "edges")):
        where = f"edges[{idx}]"
        try:
            players = tuple(_as_list(raw["players"], f"{where}.players"))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{where}: missing players") from exc
        w = read(raw.get("w"), f"{where}.w")
        shares = tuple(read(s, f"{where}.shares[{i}]")
                       for i, s in enumerate(
                           _as_list(raw.get("shares", []), f"{where}.shares")))
        edges.append(Hyperedge(players=players, weight=w, shares=shares,
                               anchor=raw.get("anchor")))
    return _construct(HypergraphGame, n=data["n"], m=data["m"],
                      edges=tuple(edges))


def serialize_hypergraph(hgame):
    write = rational_writer()
    return json.dumps({
        "n": hgame.n, "m": hgame.m,
        "edges": [
            {"players": list(e.players), "w": write(e.weight),
             "shares": [write(s) for s in e.shares],
             "anchor": e.anchor}
            for e in hgame.edges
        ],
    }) + "\n"


# ---------------------------------------------------------------------------
# Omega extension: unit benefits with conflicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OmegaGame(_KernelGame):
    """Pairs labeled one/zero/conflict; zero pairs earn a fraction omega of
    the full benefit a_i * b_j; conflicted pairs may never co-locate (see
    `feasible`), and in a utility a conflicted partner pays nothing."""

    n: int
    m: int
    a: tuple
    b: tuple
    labels: tuple  # n x n, symmetric, entries "one" | "zero" | "conflict"
    omega: Fraction

    def __post_init__(self):
        _check_dims(self)
        for name in ("a", "b"):
            for i, v in enumerate(getattr(self, name)):
                _exact_alpha(v, f"{name}[{i}]")
            if len(getattr(self, name)) != self.n:
                raise ValueError(f"{name}: must have one entry per player")
        if not (Fraction(1, 2) <= _exact_alpha(self.omega, "omega") <= 1):
            raise ValueError("omega must lie in [1/2, 1]")
        if any(x <= 0 for x in self.a) or any(x <= 0 for x in self.b):
            raise ValueError("a and b entries must be positive")
        if len(self.labels) != self.n:
            raise ValueError("labels: must be an n x n matrix")
        for i, row in enumerate(self.labels):
            if len(row) != self.n:
                raise ValueError(f"labels[{i}]: must be an n x n matrix")
            for j, lab in enumerate(row):
                if lab not in ("one", "zero", "conflict"):
                    raise ValueError(f"labels[{i}][{j}]: unknown label {lab!r}")
                if i != j and lab != self.labels[j][i]:
                    raise ValueError(f"labels[{i}][{j}]: not symmetric")

    def _groups(self, i=None):
        """One (members, anchor, w, shares) group per two players not in
        conflict, w and every share a reduced int pair: w = a_p b_q + a_q b_p,
        times omega on a "zero" label, split in proportion to its terms;
        given i, those with member i only."""
        a, b, omega = self.a, self.b, self.omega
        groups = []
        for p, row in enumerate(self.labels):
            for q, lab in enumerate(row[p + 1:], p + 1):
                if lab != "conflict" and i in (None, p, q):
                    x, y = a[p] * b[q], a[q] * b[p]
                    w = x + y if lab == "one" else omega * (x + y)
                    groups.append(((p, q), None, w.as_integer_ratio(), (
                        Fraction(x, x + y).as_integer_ratio(),
                        Fraction(y, x + y).as_integer_ratio())))
        return groups

    def feasible(self, profile):
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if profile[i] == profile[j] and self.labels[i][j] == "conflict":
                    return False
        return True


def mass_vector(ogame, profile):
    """Per-strategy mass pi_k = sum of b_i over players at k."""
    pi = [ZERO] * ogame.m
    for i, s in enumerate(profile):
        pi[s - 1] += ogame.b[i]
    return tuple(pi)


def lex_compare(pi1, pi2):
    """-1/0/1 comparing sorted-non-increasing vectors lexicographically."""
    s1 = sorted(pi1, reverse=True)
    s2 = sorted(pi2, reverse=True)
    return (s1 > s2) - (s1 < s2)


def lex_strong_eq(ogame):
    """Feasible state with lexicographically maximal mass vector.

    Ties break toward the lexicographically smallest profile: `max` keeps
    the first maximum, and the key, the mass vector sorted non-increasing,
    orders profiles as `lex_compare` does.  The result is a
    1/omega-approximate strong equilibrium; at omega = 1 it is an exact
    strong equilibrium.
    """
    best = max(filter(ogame.feasible, _profiles(ogame)), default=None,
               key=lambda p: sorted(mass_vector(ogame, p), reverse=True))
    if best is None:
        raise ValueError("no feasible state exists")
    return best, mass_vector(ogame, best)


def verify_omega_strong(ogame, profile, alpha):
    """Exhaustive feasible group-deviation check at factor alpha: the first
    feasible alternative profile in which every player who changed strategy
    improves by a factor strictly greater than alpha, or None."""
    ogame.validate_profile(profile)
    if not ogame.feasible(profile):
        raise ValueError("profile is infeasible")
    return _group_deviation(ogame, profile, _exact_alpha(alpha),
                            ogame.feasible)[0]


def parse_omega(text):
    data = load_object(text, ("n", "m", "a", "b", "labels", "omega"))
    read = rational_reader()

    def values(name):
        return tuple(read(v, f"{name}[{i}]")
                     for i, v in enumerate(_as_list(data[name], name)))

    return _construct(
        OmegaGame, n=data["n"], m=data["m"], a=values("a"), b=values("b"),
        labels=tuple(tuple(_as_list(row, f"labels[{i}]")) for i, row
                     in enumerate(_as_list(data["labels"], "labels"))),
        omega=read(data["omega"], "omega"))


def serialize_omega(ogame):
    write = rational_writer()
    return json.dumps({
        "n": ogame.n, "m": ogame.m,
        "a": [write(v) for v in ogame.a],
        "b": [write(v) for v in ogame.b],
        "labels": [list(row) for row in ogame.labels],
        "omega": write(ogame.omega),
    }) + "\n"
