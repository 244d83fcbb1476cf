"""Best-response machinery and the constructive equilibrium algorithms.

Scheduling is deterministic everywhere, and best-response ties break toward
staying put, then toward the lowest strategy index, so the same game and
rule always produce the same trace.  There are two schedules:

* the gated loop (`_gated_dynamics`) moves the lowest-indexed player whose
  best response clears the `MoveRule` gate, then looks again from player
  0.  `run_dynamics` and `one_shot_alpha_br` run it, on any game with the
  protocol of `scg.model`; `scg.generalized` calls those two;
* the continuing sweep (`_sweep`, inside `algorithm1_two` and
  `sqrt2_three`) moves players from one fixed strategy to another: the
  next mover is the lowest eligible index above the last mover, wrapping
  round to the lowest eligible index overall, until no one is eligible.
  It looks only at players on the source strategy, so in `sqrt2_three`
  the players already at strategy 3 never move again.

Both schedules are event-driven over one `_Run` per run: the profile, one
cached scaled vector per player and each player's hearers, the players
whose vector its move can change (the game's protocol member ``_hearers``:
the kernel's `scg.model.IntKernel.hearers`, or every player on a table).
On a kernel game every vector starts filled in by one pass of
`scg.model.IntKernel.vectors` (from a uniform profile, all at 1, k0 or
k*, in O(n * m + |E|) with no per-neighbour Python loop), and the gated
loop's first candidates are the players that can improve.  A move
dirties its hearers' vectors and queues them in a min-heap: one vector
per hearer, not a rescan of up to n players.  `sqrt2_three` shares one
`_Run` between its sweeps and its gate scan; `strong_two`'s fixpoint
re-reads only hearers of players sent back.

Every factor alpha, of a `MoveRule` or of an entry point, passes through
`scg.rationals._exact_alpha`, and every step cap and starting strategy
through `scg.rationals._int`; each refuses a float, a bool or a str.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .analysis import _best_reply, _factor, _hybrid_alpha
from .model import _checked_strategy, _k_star, welfare_total
from .model import player_utility  # not called: bench tracer tests read it
from .rationals import (_exact_alpha, _int, at_least_sqrt2_times,
                        format_rational)

ONE = Fraction(1)


@dataclass(frozen=True)
class MoveRule:
    """Improvement gate for gated best-response dynamics.

    A move to the best response is allowed iff ``u_new >= alpha * u_old``
    and ``u_new > u_old`` (for a zero baseline: iff ``u_new > 0``).
    """

    alpha: Fraction = ONE

    def __post_init__(self):
        _exact_alpha(self.alpha)

    def allows(self, u_old, u_new):
        """Decided by cross-multiplication, so utilities given at any one
        positive scale (the game's ``scale``) get the same answer."""
        if u_old == 0:
            return u_new > 0
        alpha = self.alpha
        return (u_new * alpha.denominator >= alpha.numerator * u_old
                and u_new > u_old)


@dataclass(frozen=True)
class Move:
    player: int
    from_strategy: int
    to_strategy: int
    old_utility: Fraction
    new_utility: Fraction


@dataclass(frozen=True)
class DynamicsTrace:
    moves: tuple
    terminal: tuple
    reason: str  # converged | cycle-detected | step-cap

    def to_json_lines(self):
        lines = []
        for mv in self.moves:
            lines.append(json.dumps({
                "player": mv.player,
                "from": mv.from_strategy,
                "to": mv.to_strategy,
                "old_utility": format_rational(mv.old_utility),
                "new_utility": format_rational(mv.new_utility),
            }))
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class HybridReport:
    alpha: Fraction
    s1: tuple
    s2: tuple
    welfare_s1: Fraction
    welfare_s2: Fraction
    chosen: tuple
    chosen_welfare: Fraction
    rho: Fraction | None = None  # chosen welfare / brute-force OPT, if supplied


def best_response(game, profile, i):
    """Best strategy for player i against the rest of the profile.

    Returns (strategy, utility, improvement factor).  Ties break toward
    staying, then toward the lowest strategy index.  Factor conventions:
    0 -> positive is +inf, 0 -> 0 is 1.
    """
    k = _checked_strategy(game, profile, i)  # builds no Fraction
    us = game.scaled_utilities(profile, i)
    game._own_row(i)  # a table missing i's own values raises here
    best_k, best_u = _best_reply(us, k)
    return best_k, Fraction(best_u, game.scale), _factor(us[k - 1], best_u)


class _Run:
    """The state every loop of one run reads: the profile as a list, one
    cached scaled vector per player, per player the hearers (the players
    whose vector a move by that player can change) and the log of movers.

    On a kernel game every vector starts filled in by the kernel's
    ``vectors``; on a table, or once a move dirties it (the mover's
    hearers'), a vector is read by ``scaled_utilities`` when a loop next
    reads it, so a table game, where every player hears every other, makes
    the calls a rescan would.  A vector is read against the others'
    strategies, so the mover's own stays valid.
    """

    __slots__ = ("game", "profile", "vecs", "hearers", "movers")

    def __init__(self, game, start):
        self.game = game
        self.profile = list(start)
        kernel = game._kernel
        self.vecs = ([None] * game.n if kernel is None else
                     kernel.vectors(start))
        self.hearers = game._hearers
        self.movers = []

    def vec(self, i):
        us = self.vecs[i]
        if us is None:
            us = self.vecs[i] = self.game.scaled_utilities(self.profile, i)
        return us

    def move(self, i, k):
        self.profile[i] = k
        self.movers.append(i)
        vecs = self.vecs
        for j in self.hearers[i]:
            vecs[j] = None

    def touched(self, since):
        """The players whose strategy or vector the moves from the
        `since`-th on may have changed: every player if `since` is None."""
        if since is None:
            return range(self.game.n)
        out = set()
        for i in self.movers[since:]:
            out.add(i)
            out.update(self.hearers[i])
        return out


def _gated_dynamics(game, start, rule, k0=None, step_cap=None):
    """Gated best-response dynamics in which the lowest-indexed player
    whose best response clears `rule` moves (among the players still at
    `k0`, when given).

    Candidates wait in a min-heap: it starts with every player on a
    table, or with the players that can strictly improve, the only ones a
    first pop could move, when every vector starts filled in (a kernel
    game).  A move pushes the mover's hearers, the only players whose
    eligibility it can change (the mover now plays a best response to the
    same others); each pop re-checks the player.  Stops at convergence,
    after `step_cap` moves (None: no cap), or at a profile seen before
    (within m^n moves; with `k0` only players at k0 move, never to k0, so
    no profile repeats and none is kept).  Works on any game with the
    protocol; trusts `start`.
    """
    if step_cap is not None and _int(step_cap, "step_cap") < 1:
        raise ValueError("step_cap must be >= 1")
    scale = game.scale
    run = _Run(game, start)
    profile, hearers = run.profile, run.hearers
    seen = None if k0 is not None else {tuple(profile)}
    moves, vecs = [], run.vecs
    heap = (list(range(game.n)) if game._kernel is None else
            [i for i, us in enumerate(vecs) if max(us) > us[profile[i] - 1]])
    queued = [False] * game.n
    for i in heap:
        queued[i] = True
    while heap:
        i = heappop(heap)
        queued[i] = False
        s = profile[i]
        if k0 is not None and s != k0:
            continue
        us = run.vec(i)
        k, u_new = _best_reply(us, s)
        u_old = us[s - 1]
        if k == s or not rule.allows(u_old, u_new):
            continue
        moves.append(Move(i, s, k, Fraction(u_old, scale),
                          Fraction(u_new, scale)))
        run.move(i, k)
        if step_cap is not None and len(moves) >= step_cap:
            return DynamicsTrace(tuple(moves), tuple(profile), "step-cap")
        if seen is not None:
            size = len(seen)
            seen.add(tuple(profile))  # hashes the n-tuple once, not for `in`
            if len(seen) == size:
                return DynamicsTrace(tuple(moves), tuple(profile),
                                     "cycle-detected")
        for j in hearers[i]:
            if not queued[j]:
                queued[j] = True
                heappush(heap, j)
    return DynamicsTrace(tuple(moves), tuple(profile), "converged")


def run_dynamics(game, start, rule=MoveRule(), step_cap=None):
    """Gated best-response dynamics from a starting profile.

    Moves the lowest-indexed player whose best response clears `rule`,
    then looks again from player 0; stops at convergence, a revisited
    profile, or after `step_cap` moves (default no cap; an int >= 1).
    """
    game.validate_profile(start)
    return _gated_dynamics(game, start, rule, step_cap=step_cap)


def _check_start(game, k0):
    """Reject a one-shot starting strategy that is not an int in 1..m."""
    if not (1 <= _int(k0, "starting strategy") <= game.m):
        raise ValueError(f"starting strategy {k0} out of range 1..{game.m}")


def _sweep(run, source, target, since=None):
    """Move players from `source` to `target` while it strictly improves.

    A continuing sweep: the next mover is the lowest eligible index above
    the last mover, else the lowest eligible index overall; the phase
    stops when no player is eligible.  Candidates wait in two min-heaps,
    `ahead` of the last mover and `behind` it, swapped when `ahead` runs
    dry; a move queues the mover's hearers still at `source`.  The first
    candidates are the players at `source` that the moves from the
    `since`-th on touched (every player at `source` if `since` is None):
    a phase ends with every player at `source` ineligible.  Only players
    at `source` are looked at, and a move puts a player at `target`, so
    players at any third strategy stay where they are.  Returns the log
    position to pass as `since` to the next phase of the same kind.
    """
    profile, hearers = run.profile, run.hearers
    ahead = sorted(i for i in run.touched(since) if profile[i] == source)
    behind = []
    queued = set(ahead)
    while ahead or behind:
        if not ahead:
            ahead, behind = behind, ahead
        i = heappop(ahead)
        queued.discard(i)
        us = run.vec(i)
        if us[target - 1] > us[source - 1]:
            run.move(i, target)
            for j in hearers[i]:
                if profile[j] == source and j not in queued:
                    queued.add(j)
                    heappush(ahead if j > i else behind, j)
    return len(run.movers)


def algorithm1_two(game, start):
    """Nash equilibrium for two-strategy games by one-directional passes.

    First lets players leave strategy 1 for 2 while that is an improving
    best response, then the reverse.  The result is checked to be a Nash
    equilibrium, on vectors computed afresh, before returning.
    """
    if game.m != 2:
        raise ValueError("algorithm1_two requires exactly two strategies")
    game.validate_profile(start)
    run = _Run(game, start)
    _sweep(run, source=1, target=2)
    _sweep(run, source=2, target=1)
    profile = tuple(run.profile)
    for us, k in zip(game._vectors(profile), profile):
        if max(us) > us[k - 1]:
            raise RuntimeError("two-strategy pass ended on a non-equilibrium")
    return profile


def strong_two(game):
    """Strong Nash equilibrium for two-strategy games.

    Starts with everyone at strategy 1 and repeatedly moves the maximal
    strictly-improving coalition to strategy 2 until none exists.  A round
    notes each player at 1's utility there, puts everyone at 2, then sends
    back to 1, a pass at a time, every member whose vector does not beat
    that base; on a kernel game, whose utilities grow with the coalition,
    those left are the maximal improving coalition (a greatest fixed
    point).  A later pass re-reads only the members at 2 that hear a player
    just sent back; the others keep their vectors, so their verdicts.  A
    round reads at most 2n vectors plus one per hearer of each player sent
    back: O(n + |E|) on a kernel game.
    """
    if game.m != 2:
        raise ValueError("strong_two requires exactly two strategies")
    vec, hearers = game.scaled_utilities, game._hearers
    profile = [1] * game.n
    while True:
        members = [i for i, k in enumerate(profile) if k == 1]
        base = {i: vec(profile, i)[0] for i in members}
        profile = [2] * game.n
        check = members
        while check:
            back = [i for i in check if not vec(profile, i)[1] > base[i]]
            for i in back:
                profile[i] = 1
            check = sorted({j for i in back for j in hearers[i]
                            if profile[j] == 2 and j in base})
        if profile.count(1) == len(members):
            return tuple(profile)


def sqrt2_three(game):
    """sqrt(2)-approximate equilibrium for three-strategy games.

    Stabilizes strategies {1, 2} against each other, then repeatedly lets a
    player whose move to strategy 3 clears the exact sqrt(2) gate deviate,
    re-stabilizing {1, 2} after every such move.  The gate is the squared
    comparison, never a rational approximation of sqrt(2).
    """
    if game.m != 3:
        raise ValueError("sqrt2_three requires exactly three strategies")
    run = _Run(game, [1] * game.n)
    profile = run.profile
    # each loop reads only the players that the moves since its last turn
    # touched; players at 3 never move again
    since_12 = since_21 = since_gate = None
    gate, queued = [], set()
    while True:
        since_12 = _sweep(run, 1, 2, since_12)
        since_21 = _sweep(run, 2, 1, since_21)
        for j in run.touched(since_gate):
            if profile[j] != 3 and j not in queued:
                queued.add(j)
                heappush(gate, j)
        since_gate = len(run.movers)
        while gate:
            i = heappop(gate)
            queued.discard(i)
            us = run.vec(i)
            if us[2] > 0 and at_least_sqrt2_times(us[2], us[profile[i] - 1]):
                run.move(i, 3)
                break
        else:
            return tuple(profile)


def one_shot_alpha_br(game, k0, alpha):
    """One-shot gated best response from an all-at-k0 start.

    Only players still at k0 may move, each at most once, to their best
    response when it clears the alpha gate, an exact alpha >= 1.  Returns
    (profile, trace).
    """
    if _exact_alpha(alpha) < 1:
        raise ValueError("alpha must be >= 1")
    _check_start(game, k0)
    trace = _gated_dynamics(game, (k0,) * game.n, MoveRule(alpha), k0)
    return trace.terminal, trace


def hybrid(game, alpha, opt_welfare=None):
    """Best of one-shot alpha-BR and one-shot 1/(alpha-1)-BR from k*.

    alpha must lie in [1618/1000, 2].  When the brute-force optimum welfare
    is supplied, the welfare ratio rho is recorded in the report.
    """
    alpha = _hybrid_alpha(alpha)
    k_star = _k_star(game)
    s1, _ = one_shot_alpha_br(game, k_star, alpha)
    s2, _ = one_shot_alpha_br(game, k_star, 1 / (alpha - 1))
    w1 = welfare_total(game, s1)
    w2 = welfare_total(game, s2)
    chosen, chosen_w = (s1, w1) if w1 >= w2 else (s2, w2)
    rho = None
    if opt_welfare is not None:
        opt_welfare = _exact_alpha(opt_welfare, "opt_welfare")
        if opt_welfare <= 0:
            raise ValueError("optimum welfare must be positive")
        rho = chosen_w / opt_welfare
    return HybridReport(alpha=alpha, s1=s1, s2=s2, welfare_s1=w1,
                        welfare_s2=w2, chosen=chosen, chosen_welfare=chosen_w,
                        rho=rho)
