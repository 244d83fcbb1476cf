"""Core model: game instances, profiles, utilities and instance statistics.

A game has ``n`` players, ``m`` strategies, a nonnegative intrinsic
preference matrix and weighted pairwise relationships.  Each relationship
carries a split coefficient: when players i and j pick the same strategy,
i receives ``share_ij * w`` and j receives ``(1 - share_ij) * w``.

All types are immutable after construction and every operation is a pure
function, so evaluation is safe to parallelize without coordination.
Strategies are 1-based (1..m); player indices are 0-based.

Utility protocol: every game family (``GameInstance`` here,
``GeneralizedGame``, ``HypergraphGame`` and ``OmegaGame`` in
``scg.generalized``) has ``utilities(profile, i)``, which returns player
i's utility for each strategy 1..m against the others' strategies in
``profile``, as a list indexed ``k - 1``.  It trusts the profile: public
entry points validate a profile once; the package reads the ints below.

The verifiers, dynamics and oracles read every best response, gate,
deviation gain and payment from ``scaled_utilities(profile, i)`` instead,
which is the same vector times the game's positive ``scale``.  On
``GameInstance``, ``OmegaGame`` and ``HypergraphGame`` the scale is the lcm
L of the denominators of every own value and every group's gains, so the
vector is plain ints, read from an `IntKernel` that `_int_kernel`, the one
kernel builder, makes on first use from the game's group list of reduced
(numerator, denominator) int pairs, so no game's gains take Fraction
arithmetic; the game binds the kernel's reader on first use.  On tables
L is the lcm of every entry's denominator, and the ints come from a
per-player dict keyed by the others' bitmask and the strategy.  Every
``utilities`` is ``Fraction(u, L)`` of the ints, read by `_ScaledGame`,
which also holds the one profile check.  Orders, maxima, differences'
signs and the ratios of two entries are the same at any positive scale,
so callers compare the scaled values directly (a gate ``u_new >= alpha *
u_old`` by cross-multiplication) and divide by the scale only for what
they record.  ``player_utility`` and ``welfare`` read the intrinsic part
from the game's ``rows``, what each player gets alone at each strategy
times the scale: the kernel's rows, or a table's entries u_i(k, ∅).

Group list: each kernel game lists its groups once, built on each call
of ``_groups()``, as (members, anchor, w, shares), w and every share a
reduced int pair; a pairwise game is an anchored singleton per intrinsic
value and a pair per edge.  An `IntKernel` indexes it by player:
singletons fold into own rows, unanchored pairs into neighbour and gain
lists, and every other group into ``rest``, read by a `_GroupKernel`
only.  ``scg.potentials`` reads the same list on int pairs for the
potential, its audit and the weight recovery.
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


class IntKernel(NamedTuple):
    """A game scaled to ints by the common denominator ``scale``, its
    groups indexed by player.

    ``rows[i][k - 1]`` is player i's own value for strategy k, what i's
    singleton groups pay there (w_i^k on a `GameInstance`), times scale;
    ``nbrs[i]`` lists the players whose company pays i through an
    unanchored pair and ``gains[i]``, aligned with it, i's gain from each,
    times scale.  ``rest[i]`` lists (others, anchor, gain) for every other
    group with i, a group of three or more or an anchored pair; ``rest`` is
    empty, with no per-player lists, when there is no such group, as on
    every pairwise game, and the kernel is a `_GroupKernel` when there is
    one.  Flat int lists, made by `_int_kernel` from int pairs, so a
    utility vector takes int additions only.
    """

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
    """(L, the values times L as ints) for exact values given as reduced
    (numerator, denominator) int pairs, L the lcm of the denominators.  L
    is positive, so orders, signs and ratios are those of the values."""
    scale = math.lcm(*{d for _, d in pairs})
    return scale, [p * (scale // d) for p, d in pairs]


def _reduced(p, q):
    r = math.gcd(p, q)
    return p // r, q // r


def _int_kernel(n, m, groups):
    """The `IntKernel` of n players, m strategies and a group list of
    (members, anchor, w, shares), w and every share a reduced int pair:
    members[pos] gets w * shares[pos], reduced on ints and scaled by the
    lcm of every such denominator.  A singleton folds into its member's
    row, at its anchor or, unanchored, at every strategy; an unanchored
    pair goes to ``nbrs`` and ``gains``; every other group to ``rest``."""
    # int lists, not a pair per value: fewer live tuples, fewer GC passes
    nums, dens, gcd = [], [], math.gcd
    for _, _, (a, b), shares in groups:
        for c, d in shares:
            p, q = a * c, b * d
            r = gcd(p, q)
            nums.append(p // r)
            dens.append(q // r)
    scale = math.lcm(*set(dens))
    it = iter([p * (scale // q) for p, q in zip(nums, dens)])
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
    """What every game family shares: the profile check and the Fraction
    reader of the ints that ``scaled_utilities`` gives at ``scale``."""

    def validate_profile(self, profile):
        _check_profile(self, profile)

    def utilities(self, profile, i):
        """Player i's utility for each strategy 1..m; trusts the profile."""
        scale = self.scale
        return [Fraction(u, scale) for u in self.scaled_utilities(profile, i)]


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


@dataclass(frozen=True)
class GameInstance(_KernelGame):
    n: int
    m: int
    intrinsic: tuple  # n rows of m Fractions, intrinsic[i][k-1] = w_i^k
    edges: tuple      # tuple of Edge

    def __post_init__(self):
        _check_dims(self)
        if len(self.intrinsic) != self.n:
            raise ValueError("intrinsic: expected n rows")
        # inline type tests: a helper call would name every valid entry
        for i, row in enumerate(self.intrinsic):
            if len(row) != self.m:
                raise ValueError(f"intrinsic[{i}]: expected m entries")
            for k, v in enumerate(row):
                if type(v) not in _EXACT:
                    raise _inexact(f"intrinsic[{i}][{k}]", v)
                if v.numerator < 0:  # no Fraction comparison: this is hot
                    raise ValueError(f"intrinsic[{i}][{k}]: negative entry")
        seen = set()
        n = self.n
        for e in self.edges:
            i, j, w, share = e.i, e.j, e.w, e.share_ij
            if type(i) is not int or type(j) is not int:
                name = "i" if type(i) is not int else "j"
                raise _not_int(f"edge ({i},{j}).{name}", getattr(e, name))
            if i == j:
                raise ValueError(f"edge ({i},{j}): self-loop")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}): player index out of range")
            key = min(i, j) * n + max(i, j)
            if key in seen:
                raise ValueError(f"edge ({i},{j}): duplicate pair")
            seen.add(key)
            if type(w) not in _EXACT:
                raise _inexact(f"edge ({i},{j}).w", w)
            if type(share) not in _EXACT:
                raise _inexact(f"edge ({i},{j}).share_ij", share)
            if w.numerator < 0:
                raise ValueError(f"edge ({i},{j}).w: negative weight")
            # a denominator is positive, so this is 0 <= share <= 1
            if not (0 <= share.numerator <= share.denominator):
                raise ValueError(f"edge ({i},{j}).share_ij: share out of range")

    def _groups(self):
        """One singleton ((i,), k, w_i^k, (1,)) per intrinsic value, then one
        pair ((i, j), None, w, (share_ij, 1 - share_ij)) per edge, zero
        weights included; w and every share a reduced int pair."""
        groups = [(members, k, v.as_integer_ratio(), ((1, 1),))
                  for i, row in enumerate(self.intrinsic)
                  for members in ((i,),) for k, v in enumerate(row, 1)]
        for e in self.edges:
            share = c, d = e.share_ij.as_integer_ratio()
            groups.append(((e.i, e.j), None, e.w.as_integer_ratio(),
                           (share, (d - c, d))))
        return groups

    def validate_profile(self, profile):  # its own: bench/tracer.py wraps it
        _check_profile(self, profile)


def _check_dims(game):
    """Reject a player count n or strategy count m that is not an int (or
    is a bool), a negative n or an m below 1; shared by every game
    family's constructor."""
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
    game: (total, intrinsic_part, coordination_part) as Fractions, read
    from `scaled_utilities` and the own values ``rows`` once the arguments
    are validated."""
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
    own = game.rows[i][k - 1]
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
    return UtilityBreakdown(
        per_player=tuple([Fraction(u, scale) for u in per]),
        intrinsic_part=tuple([Fraction(a, scale) for a in own]),
        coordination_part=tuple([Fraction(c, scale) for c in coord]),
        total=Fraction(sum(per), scale),
        intrinsic_total=Fraction(sum(own), scale),
        coordination_total=Fraction(sum(coord), scale),
    )


def welfare_total(game, profile):
    """Social welfare u(s) without the per-player breakdown (hot path): a
    `GameInstance` sums its own values and paying edges' weights, any other
    game sums `scaled_utilities` at the profile.  The first builds no
    kernel, as a game keeps the kernel it builds: for the 60 games the
    cli-pipeline benchmark holds, kernels raised peak RSS from 37.6 to
    42.3 MB (CPython 3.11, x86-64), past that workload's 10% bound."""
    if not isinstance(game, GameInstance):
        return Fraction(sum([game.scaled_utilities(profile, i)[k - 1]
                             for i, k in enumerate(profile)]), game.scale)
    values = [row[k - 1] for row, k in zip(game.intrinsic, profile)]
    values += [e.w for e in game.edges if profile[e.i] == profile[e.j]]
    scale, ints = _scaled_ints([v.as_integer_ratio() for v in values])
    return Fraction(sum(ints), scale)


def _k_star(game):
    """The strategy maximizing total intrinsic value, lowest index on ties,
    from the game's scaled own values."""
    rows = game.rows
    col_sums = [sum(row[k] for row in rows) for k in range(game.m)]
    return max(range(game.m), key=lambda k: (col_sums[k], -k)) + 1


def instance_stats(game):
    """A kernel game's statistics (a pair's two gains add up to w); mri is
    max(c, d - c) / min(c, d - c) of each positive pair's first share c/d
    in ``_groups()``; a table or a game with ``rest`` groups is refused."""
    if not isinstance(game, _KernelGame) or game._kernel.rest:
        raise ValueError("instance_stats: mri has no stated meaning on a "
                         "table, a group of three or more or an anchored pair")
    scale, rows, _, gains, _ = game._kernel
    best = [max(row) for row in rows]
    num, den = 1, 1  # a share of 0 or 1 sets den to 0 for good: inf
    for members, _, (a, _), ((c, d), *_) in game._groups():
        if a and len(members) == 2:  # zero-weight shares are irrelevant
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
    """Decode an instance file.  `GameInstance` decides what is valid; a
    rejection is raised as a ParseError with its message."""
    data = load_object(text, ("n", "m", "intrinsic", "edges"))
    intrinsic, read = [], rational_reader()
    for i, row in enumerate(_as_list(data["intrinsic"], "intrinsic")):
        intrinsic.append(tuple(
            read(v, f"intrinsic[{i}][{k}]")
            for k, v in enumerate(_as_list(row, f"intrinsic[{i}]"))))
    edges = []
    for idx, raw in enumerate(_as_list(data["edges"], "edges")):
        if not isinstance(raw, dict):
            raise ParseError(f"edges[{idx}]: expected object")
        try:
            i, j = raw["i"], raw["j"]
        except KeyError as exc:
            raise ParseError(f"edges[{idx}]: missing endpoint") from exc
        for name, v in (("i", i), ("j", j)):
            if type(v) is not int:
                raise ParseError(f"edges[{idx}].{name}: expected integer")
        w = read(raw.get("w"), f"edges[{idx}].w")
        share = read(raw.get("share_ij"), f"edges[{idx}].share_ij")
        edges.append(Edge(i=i, j=j, w=w, share_ij=share))
    return _construct(GameInstance, n=data["n"], m=data["m"],
                      intrinsic=tuple(intrinsic), edges=tuple(edges))


def serialize_instance(game):
    write = rational_writer()
    return json.dumps({
        "n": game.n, "m": game.m,
        "intrinsic": [list(map(write, row)) for row in game.intrinsic],
        "edges": [{"i": e.i, "j": e.j, "w": write(e.w),
                   "share_ij": write(e.share_ij)} for e in game.edges],
    }) + "\n"
