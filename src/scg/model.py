"""Core model: game instances, profiles, utilities and instance statistics.

A game has ``n`` players, ``m`` strategies, a nonnegative intrinsic
preference matrix and weighted pairwise relationships.  Each relationship
carries a split coefficient: when players i and j pick the same strategy,
i receives ``share_ij * w`` and j receives ``(1 - share_ij) * w``.  A
`GameInstance` holds them as checked int columns, each value a reduced
(numerator, denominator) pair, which the wire format, the generators and
the kernel read and write directly; ``intrinsic`` and ``edges`` are views
built only for a caller that asks for them.  Games are immutable and
every operation is pure.  Strategies are 1-based, players 0-based.

Utility protocol: every game family (``GameInstance`` here, the others in
``scg.generalized``) has ``utilities(profile, i)``: player i's utility for
each strategy 1..m, indexed ``k - 1``, trusting the profile, which public
entry points validate once.  Verifiers, dynamics and oracles read
``scaled_utilities(profile, i)``, the same vector times ``scale``, the lcm
of every denominator, so plain ints, from an `IntKernel` built on first
use (a table's per-player dicts).  Orders, maxima, signs and ratios do not
depend on the scale, so callers compare scaled values directly and divide
only for what they record.  ``welfare`` and ``player_utility`` read the
own values, what each player gets alone (`_own_row`).

Every family also answers ``_kernel``, its `IntKernel` kept once built
(None on a table); ``_hearers``, per player the players whose vector its
move can change; and ``_groups(i=None)``, its groups (given i, those with
member i) as (members, anchor, w, shares), w and every share a reduced int
pair, which a table refuses.  Other modules read these, never a family.
A pairwise game is an anchored singleton per intrinsic value and a pair
per edge.  `_int_kernel` indexes a group list by player: singletons fold
into own rows, unanchored pairs into neighbour and gain lists, every other
group into ``rest``, read by a `_GroupKernel` only; a `GameInstance`
builds the same kernel from its columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .rationals import (_EXACT, ParseError, _as_list, _construct, _inexact,
                        _int, _not_int, load_object, rational_reader,
                        rational_writer)


@dataclass(frozen=True)
class Edge:
    """Undirected relationship with an asymmetric benefit split."""

    i: int
    j: int
    w: Fraction
    share_ij: Fraction  # i's share; j receives 1 - share_ij


class IntKernel(NamedTuple):
    """A game scaled to ints by ``scale``, its groups indexed by player in
    flat int lists: ``rows[i][k - 1]``, what i's singletons pay at k
    (w_i^k on a `GameInstance`); ``nbrs[i]``, the players whose company
    pays i through an unanchored pair, and ``gains[i]``, aligned with it,
    i's gains; ``rest[i]``, (others, anchor, gain) for every other group
    with i.  ``rest`` is empty when there is none, as on every pairwise
    game, and the kernel a `_GroupKernel` when there is one."""

    scale: int
    rows: list
    nbrs: list
    gains: list
    rest: list

    def scaled_utilities(self, profile, i):
        """Player i's vector times `scale`; trusts the profile.  O(deg + m)."""
        _, rows, nbrs, gains, _ = self
        us = rows[i].copy()
        for j, gain in zip(nbrs[i], gains[i]):
            us[profile[j] - 1] += gain
        return us

    @property
    def hearers(self):
        """Per player, the players whose vector a move of theirs changes."""
        return self.nbrs


class _GroupKernel(IntKernel):
    """An `IntKernel` with ``rest`` groups."""

    __slots__ = ()

    def scaled_utilities(self, profile, i):
        """Plus each ``rest`` group whose other members all play one
        strategy, its anchor if it has one.  O(deg * group size + m)."""
        us = super().scaled_utilities(profile, i)
        for others, anchor, gain in self.rest[i]:
            k = profile[others[0]]
            if anchor in (None, k) and all(profile[j] == k for j in others):
                us[k - 1] += gain
        return us

    @property
    def hearers(self):
        """Plus the co-members of every ``rest`` group."""
        return [list(set(nb).union(*(others for others, _, _ in groups)))
                for nb, groups in zip(self.nbrs, self.rest)]


def _scaled_ints(pairs):
    """(L, the values times L as ints) for values given as reduced int
    pairs, L > 0 the lcm of the denominators."""
    scale = math.lcm(*{d for _, d in pairs})
    return scale, [p * (scale // d) for p, d in pairs]


def _reduced(p, q):
    r = math.gcd(p, q)
    return p // r, q // r


def _int_kernel(n, m, groups):
    """The `IntKernel` of a group list: members[pos] gets w * shares[pos].
    A singleton folds into its member's row, at its anchor or else at
    every strategy; an unanchored pair goes to ``nbrs`` and ``gains``;
    every other group to ``rest``."""
    scale, ints = _scaled_ints([_reduced(a * c, b * d)
                                for _, _, (a, b), shares in groups
                                for c, d in shares])
    it = iter(ints)
    rows = [[0] * m for _ in range(n)]
    nbrs = [[] for _ in rows]
    gains = [[] for _ in rows]
    rest = []
    for members, anchor, _, _ in groups:  # the values are read from `it`
        if len(members) == 2 and anchor is None:
            i, j = members
            nbrs[i].append(j)
            gains[i].append(next(it))
            nbrs[j].append(i)
            gains[j].append(next(it))
        elif len(members) == 1:
            row, v = rows[members[0]], next(it)
            for k in range(m) if anchor is None else (anchor - 1,):
                row[k] += v
        else:
            if not rest:
                rest = [[] for _ in rows]
            for pos, i in enumerate(members):
                rest[i].append((members[:pos] + members[pos + 1:], anchor,
                                next(it)))
    return (_GroupKernel if rest else IntKernel)(scale, rows, nbrs, gains,
                                                 rest)


class _ScaledGame:
    """What every game family shares: the profile check, ``_hearers`` and
    the Fraction reader of the ints ``scaled_utilities`` gives at ``scale``."""

    _kernel = None  # a table has none; a kernel game builds and keeps its own

    @property
    def _hearers(self):
        """Per player, the players whose vector its move can change: the
        kernel's ``hearers``, or every player on a table."""
        kernel = self._kernel
        return [range(self.n)] * self.n if kernel is None else kernel.hearers

    def validate_profile(self, profile):
        _check_profile(self, profile)

    def utilities(self, profile, i):
        """Player i's utility for each strategy 1..m; trusts the profile."""
        scale = self.scale
        return [Fraction(u, scale) for u in self.scaled_utilities(profile, i)]

    def _own_row(self, i):
        return self.rows[i]


class _KernelGame(_ScaledGame):
    """The utility protocol, read through the `IntKernel` of ``_groups()``."""

    @cached_property
    def _kernel(self):
        """The `IntKernel` of ``_groups()``, built on first use and kept."""
        return _int_kernel(self.n, self.m, self._groups())

    @property
    def scale(self):
        """The common denominator L of the integer kernel."""
        return self._kernel.scale

    @property
    def rows(self):
        """Each player's own values by strategy, times `scale`."""
        return self._kernel.rows

    @cached_property
    def scaled_utilities(self):
        """The kernel's reader of ``(profile, i)``, bound on first use so
        that a call costs one frame."""
        return self._kernel.scaled_utilities


def _pair(v, where, *at):
    """v's reduced int pair, or, if v is inexact, an error naming it."""
    if type(v) not in _EXACT:
        raise _inexact(where.format(*at), v)
    return v.as_integer_ratio()


@dataclass(frozen=True, init=False)
class GameInstance(_KernelGame):
    """A pairwise game as int columns of reduced (p, q) pairs: own[i][k - 1]
    is w_i^k; edge e joins ei[e] and ej[e] at weight w[e], i's share
    share[e].  ``intrinsic`` and ``edges`` are views, kept once built."""

    n: int
    m: int
    intrinsic: tuple = cached_property(lambda self: tuple(  # a view
        [tuple([Fraction(p, q) for p, q in row]) for row in self.own]))
    edges: tuple = cached_property(lambda self: tuple(  # a view
        [Edge(i, j, Fraction(*w), Fraction(*s))
         for i, j, w, s in zip(self.ei, self.ej, self.w, self.share)]))

    def __init__(self, n, m, intrinsic, edges):
        """Type-check every value and endpoint, then make the columns."""
        own = tuple([tuple([_pair(v, "intrinsic[{}][{}]", i, k)
                            for k, v in enumerate(row)])
                     for i, row in enumerate(intrinsic)])
        rows = []
        for e in edges:
            i, j = e.i, e.j
            if type(i) is not int or type(j) is not int:
                name = "i" if type(i) is not int else "j"
                raise _not_int(f"edge ({i},{j}).{name}", getattr(e, name))
            rows.append((i, j, _pair(e.w, "edge ({},{}).w", i, j),
                         _pair(e.share_ij, "edge ({},{}).share_ij", i, j)))
        _game_of(n, m, own, rows, self)

    @cached_property
    def _kernel(self):
        """``_groups()``'s kernel, each distinct (w, share) reduced once."""
        parts = {}
        for key in set(zip(self.w, self.share)):
            (a, b), (c, d) = key
            parts[key] = _reduced(a * c, b * d), _reduced(a * (d - c), b * d)
        scale = math.lcm(*{q for row in self.own for _, q in row},
                         *{q for pair in parts.values() for _, q in pair})
        rows = [[p * (scale // q) for p, q in row] for row in self.own]
        for key, ((p, q), (r, s)) in parts.items():
            parts[key] = p * (scale // q), r * (scale // s)
        nbrs, gains = [[] for _ in rows], [[] for _ in rows]
        for i, j, (gi, gj) in zip(self.ei, self.ej, map(
                parts.__getitem__, zip(self.w, self.share))):
            nbrs[i].append(j)
            nbrs[j].append(i)
            gains[i].append(gi)
            gains[j].append(gj)
        return IntKernel(scale, rows, nbrs, gains, [])

    def _groups(self, i=None):
        """A singleton ((i,), k, w_i^k, ((1, 1),)) per own value, then a pair
        ((i, j), None, w, (share_ij, 1 - share_ij)) per edge, zero weights
        included; given i, those with member i only."""
        own = enumerate(self.own) if i is None else ((i, self.own[i]),)
        edges = zip(self.ei, self.ej, self.w, self.share)
        if i is not None:
            edges = [edge for edge in edges if i == edge[0] or i == edge[1]]
        return [((p,), k, v, ((1, 1),)) for p, row in own
                for k, v in enumerate(row, 1)] + [
            ((p, j), None, w, (s, (s[1] - s[0], s[1])))
            for p, j, w, s in edges]

    def validate_profile(self, profile):  # its own: bench/tracer.py wraps it
        _check_profile(self, profile)


def _game_of(n, m, own, edges, game=None):
    """The `GameInstance` (or `game`, filled in) of rows of int pairs and
    (i, j, w, share) edges, int endpoints, once it passes every game's
    value checks, in one order: n and m, rows, signs, then per edge a
    self-loop, range, a repeated pair, the weight's sign, the share."""
    game = GameInstance.__new__(GameInstance) if game is None else game
    ei, ej, w, share = zip(*edges) if edges else ((),) * 4
    game.__dict__.update(n=n, m=m, own=own, ei=ei, ej=ej, w=w, share=share)
    _check_dims(game)
    if len(own) != n:
        raise ValueError("intrinsic: expected n rows")
    for i, row in enumerate(own):
        if len(row) != m:
            raise ValueError(f"intrinsic[{i}]: expected m entries")
        for k, (p, _) in enumerate(row):
            if p < 0:
                raise ValueError(f"intrinsic[{i}][{k}]: negative entry")
    seen = set()
    for i, j, (a, _), (c, d) in zip(ei, ej, w, share):
        if i == j:
            raise ValueError(f"edge ({i},{j}): self-loop")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}): player index out of range")
        key = i * n + j if i < j else j * n + i
        if key in seen:
            raise ValueError(f"edge ({i},{j}): duplicate pair")
        seen.add(key)
        if a < 0:
            raise ValueError(f"edge ({i},{j}).w: negative weight")
        if not 0 <= c <= d:  # a denominator is positive: 0 <= share <= 1
            raise ValueError(f"edge ({i},{j}).share_ij: share out of range")
    return game


def _check_dims(game):
    """Reject an n or m that is not an int (or is a bool), a negative n or
    an m below 1; shared by every game family's constructor."""
    n, m = _int(game.n, "n"), _int(game.m, "m")
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 players and m >= 1 strategies")


def _check_profile(game, profile):
    """Reject a profile that does not give each of game.n players an int
    strategy (not a bool) in 1..game.m; shared by every game family."""
    if len(profile) != game.n:
        raise ValueError("profile length must equal player count")
    m = game.m
    for s in profile:
        if type(s) is not int or not (1 <= s <= m):
            break
    else:
        return
    for pos, s in enumerate(profile):
        if not (1 <= _int(s, f"profile[{pos}]") <= m):
            raise ValueError(f"profile[{pos}]: strategy {s} out of range "
                             f"1..{m}")


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
    """Utility of player i, optionally under a unilateral deviation, on any
    game, once the arguments are validated: (total, intrinsic_part,
    coordination_part), read from `scaled_utilities` and i's own values."""
    _int(i, "player index")
    if strategy is not None:
        _int(strategy, "strategy")
    if not (0 <= i < game.n):
        raise IndexError(f"player index {i} out of range")
    game.validate_profile(profile)
    k = profile[i] if strategy is None else strategy
    if not (1 <= k <= game.m):
        raise ValueError(f"strategy {k} out of range 1..{game.m}")
    scale = game.scale
    total = game.scaled_utilities(profile, i)[k - 1]
    own = game._own_row(i)[k - 1]
    return (Fraction(total, scale), Fraction(own, scale),
            Fraction(total - own, scale))


def welfare(game, profile):
    """Full utility breakdown for a profile; u(s) = A(s) + P(s) exactly."""
    game.validate_profile(profile)
    scale = game.scale
    per = [game.scaled_utilities(profile, i)[k - 1]
           for i, k in enumerate(profile)]
    own = [row[k - 1] for row, k in zip(game.rows, profile)]
    coord = [u - a for u, a in zip(per, own)]
    return UtilityBreakdown(*[tuple([Fraction(u, scale) for u in us])
                              for us in (per, own, coord)],
                            *[Fraction(sum(us), scale)
                              for us in (per, own, coord)])


def welfare_total(game, profile):
    """Social welfare u(s), the profile validated as by `welfare`: read from
    a `GameInstance`'s columns, building no kernel, else `welfare`'s."""
    if not isinstance(game, GameInstance):
        return welfare(game, profile).total
    game.validate_profile(profile)
    values = [row[k - 1] for row, k in zip(game.own, profile)]
    values += [w for i, j, w in zip(game.ei, game.ej, game.w)
               if profile[i] == profile[j]]
    scale, ints = _scaled_ints(values)
    return Fraction(sum(ints), scale)


def _k_star(game):
    """The strategy of the largest own-value column sum, lowest on ties."""
    rows = game.rows
    col_sums = [sum(row[k] for row in rows) for k in range(game.m)]
    return max(range(game.m), key=lambda k: (col_sums[k], -k)) + 1


def instance_stats(game):
    """A kernel game's statistics; mri is the largest max(c, d - c) /
    min(c, d - c) of a positive pair's share c/d, read from a
    `GameInstance`'s columns or ``_groups()``; ``rest`` groups refuse."""
    if game._kernel is None or game._kernel.rest:
        raise ValueError("instance_stats: mri has no stated meaning on a "
                         "table, a group of three or more or an anchored pair")
    scale, rows, _, gains, _ = game._kernel
    best = [max(row) for row in rows]
    pairs = (set(zip(game.w, game.share)) if isinstance(game, GameInstance)
             else [(w, shares[0]) for members, _, w, shares in game._groups()
                   if len(members) == 2])
    num, den = 1, 1  # a share of 0 or 1 sets den to 0 for good: inf
    for (a, _), (c, d) in pairs:
        if a:  # zero-weight shares are irrelevant
            lo, hi = (c, d - c) if 2 * c <= d else (d - c, c)
            if hi * den > num * lo:
                num, den = hi, lo
    return InstanceStats(
        best=tuple([Fraction(b, scale) for b in best]),
        a_total=Fraction(sum(best), scale),
        p_total=Fraction(sum(map(sum, gains)), scale),
        k_star=_k_star(game), mri=Fraction(num, den) if den else math.inf)


# --- instance file format ---------------------------------------------------
#
# {"n": int, "m": int, "intrinsic": [[rational-string]],
#  "edges": [{"i": int, "j": int, "w": str, "share_ij": str}]}
# with 0-based player indices and rationals as "p/q" or integer strings.


def parse_instance(text):
    """Decode an instance file to columns, each distinct rational string
    read once, every decode error in file order; `_game_of` decides what is
    valid, and a rejection is raised as a ParseError with its message."""
    data = load_object(text, ("n", "m", "intrinsic", "edges"))
    pairs = {}  # each string read so far, valid, and its pair
    read = rational_reader(pairs)
    own = tuple([tuple([read(v, f"intrinsic[{i}][{k}]") for k, v in
                        enumerate(_as_list(row, f"intrinsic[{i}]"))])
                 for i, row in enumerate(_as_list(data["intrinsic"],
                                                  "intrinsic"))])
    edges = []
    for idx, raw in enumerate(_as_list(data["edges"], "edges")):
        try:  # int endpoints and strings read before: nothing to decode
            edge = raw["i"], raw["j"], pairs[raw["w"]], pairs[raw["share_ij"]]
        except (KeyError, TypeError):
            edge = None, None
        if type(edge[0]) is not int or type(edge[1]) is not int:
            if not isinstance(raw, dict):  # decode it, field by field
                raise ParseError(f"edges[{idx}]: expected object")
            if "i" not in raw or "j" not in raw:
                raise ParseError(f"edges[{idx}]: missing endpoint")
            i, j = raw["i"], raw["j"]
            for name, v in (("i", i), ("j", j)):
                if type(v) is not int:
                    raise ParseError(f"edges[{idx}].{name}: expected integer")
            edge = (i, j, read(raw.get("w"), f"edges[{idx}].w"),
                    read(raw.get("share_ij"), f"edges[{idx}].share_ij"))
        edges.append(edge)
    return _construct(_game_of, data["n"], data["m"], own, edges)


def serialize_instance(game):
    write = rational_writer()
    return json.dumps({
        "n": game.n, "m": game.m,
        "intrinsic": [list(map(write, row)) for row in game.own],
        "edges": [{"i": i, "j": j, "w": write(w), "share_ij": write(s)}
                  for i, j, w, s in zip(game.ei, game.ej, game.w, game.share)],
    }) + "\n"
