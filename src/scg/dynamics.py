"""Best-response machinery and the constructive equilibrium algorithms.

Scheduling is deterministic everywhere, and best-response ties break toward
staying put, then toward the lowest strategy index, so the same game and
rule always produce the same trace.  There are two schedules:

* the gated loop (`_gated_dynamics`) scans players in ascending index and
  restarts the pass after every move; the first player whose best response
  clears the `MoveRule` gate moves.  `run_dynamics`, `one_shot_alpha_br`,
  `scg.generalized.one_shot_generalized` and
  `scg.generalized.hypergraph_br_dynamics` all run it, on any game with the
  `scaled_utilities(profile, i)` protocol of `scg.model`;
* the continuing sweep of `_two_strategy_phase` (inside `algorithm1_two`
  and `sqrt2_three`) moves players from one fixed strategy to another and
  goes on with the next index after a move; passes repeat until one makes
  no move.  It looks only at players on the source strategy, so in
  `sqrt2_three` the players already at strategy 3 never move again.

Every factor alpha, of a `MoveRule` or of an entry point, passes through
`scg.analysis._exact_alpha`, which refuses a float, a bool or a str.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .analysis import _best_reply, _exact_alpha, _factor, _hybrid_alpha
from .model import _k_star, _not_int, player_utility, welfare_total
from .rationals import at_least_sqrt2_times, format_rational

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
    current, _, _ = player_utility(game, profile, i)
    best_k, best_u = _best_reply(game.utilities(profile, i), profile[i])
    return best_k, best_u, _factor(current, best_u)


def _gated_dynamics(game, start, rule, movable=None, step_cap=None):
    """The restart-after-every-move gated best-response loop.

    Each pass scans players in ascending index and moves the first one
    (among those `movable(profile, i)` admits, when given) whose best
    response clears `rule`; the pass then restarts from player 0.  Stops at
    convergence, after `step_cap` moves (default m^n * n), or on reaching a
    profile seen before.  Works on any game with `scaled_utilities`; trusts
    `start`.
    """
    if step_cap is None:
        step_cap = (game.m ** game.n) * max(game.n, 1)
    if step_cap < 1:
        raise ValueError("step_cap must be >= 1")
    scale = game.scale
    profile = tuple(start)
    seen = {profile}
    moves = []
    while True:
        for i in range(game.n):
            if movable is not None and not movable(profile, i):
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


def run_dynamics(game, start, rule=MoveRule(), step_cap=None):
    """Gated best-response dynamics from a starting profile.

    Applies the first eligible move in player order, restarting the pass
    after each move; stops at convergence, a revisited profile, or the
    step cap (default m^n * n).
    """
    game.validate_profile(start)
    return _gated_dynamics(game, start, rule, step_cap=step_cap)


def _check_start(game, k0):
    """Reject a one-shot starting strategy that is not an int in 1..m."""
    if type(k0) is not int:
        raise _not_int("starting strategy", k0)
    if not (1 <= k0 <= game.m):
        raise ValueError(f"starting strategy {k0} out of range 1..{game.m}")


def _one_shot(game, k0, alpha):
    """Gated dynamics from all-at-k0 in which only players still at k0 may
    move, so each player moves at most once."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    _check_start(game, k0)
    return _gated_dynamics(game, (k0,) * game.n, MoveRule(alpha=alpha),
                           movable=lambda profile, i: profile[i] == k0)


def _two_strategy_phase(game, profile, source, target):
    """Move players from `source` to `target` while it strictly improves.

    A continuing sweep: after a move the scan goes on with the next player,
    and passes repeat until one moves no one.  Only players at `source`
    are looked at, and a move puts a player at `target`, so players at any
    third strategy stay where they are; returns the final profile.
    """
    profile = list(profile)
    changed = True
    while changed:
        changed = False
        for i in range(game.n):
            if profile[i] != source:
                continue
            us = game.scaled_utilities(profile, i)
            if us[target - 1] > us[source - 1]:
                profile[i] = target
                changed = True
    return tuple(profile)


def algorithm1_two(game, start):
    """Nash equilibrium for two-strategy games by one-directional passes.

    First lets players leave strategy 1 for 2 while that is an improving
    best response, then the reverse.  The result is checked to be a Nash
    equilibrium before returning.
    """
    if game.m != 2:
        raise ValueError("algorithm1_two requires exactly two strategies")
    game.validate_profile(start)
    profile = _two_strategy_phase(game, start, source=1, target=2)
    profile = _two_strategy_phase(game, profile, source=2, target=1)
    for i, k in enumerate(profile):
        us = game.scaled_utilities(profile, i)
        if max(us) > us[k - 1]:
            raise RuntimeError("two-strategy pass ended on a non-equilibrium")
    return profile


def _max_improving_coalition(game, profile, source, target):
    """Maximal coalition in `source` whose joint move to `target` strictly
    improves every member, found by the shrinking fixed point.

    Member utilities in the target are monotone in coalition size, so
    dropping non-improvers until stable yields the unique maximal coalition
    (empty iff no improving coalition exists).
    """
    coalition = {i for i in range(game.n) if profile[i] == source}
    base = {i: game.scaled_utilities(profile, i)[source - 1]
            for i in coalition}
    while coalition:
        moved = list(profile)
        for i in coalition:
            moved[i] = target
        drop = {i for i in coalition
                if not game.scaled_utilities(moved, i)[target - 1] > base[i]}
        if not drop:
            break
        coalition -= drop
    return coalition


def strong_two(game):
    """Strong Nash equilibrium for two-strategy games.

    Starts with everyone at strategy 1 and repeatedly moves the maximal
    strictly-improving coalition to strategy 2 until none exists.
    """
    if game.m != 2:
        raise ValueError("strong_two requires exactly two strategies")
    profile = tuple([1] * game.n)
    while True:
        coalition = _max_improving_coalition(game, profile, source=1, target=2)
        if not coalition:
            return profile
        profile = tuple(2 if i in coalition else s for i, s in enumerate(profile))


def sqrt2_three(game):
    """sqrt(2)-approximate equilibrium for three-strategy games.

    Stabilizes strategies {1, 2} against each other, then repeatedly lets a
    player whose move to strategy 3 clears the exact sqrt(2) gate deviate,
    re-stabilizing {1, 2} after every such move.  The gate is the squared
    comparison, never a rational approximation of sqrt(2).
    """
    if game.m != 3:
        raise ValueError("sqrt2_three requires exactly three strategies")

    def stabilize(profile):
        profile = _two_strategy_phase(game, profile, 1, 2)
        return _two_strategy_phase(game, profile, 2, 1)

    profile = stabilize(tuple([1] * game.n))
    while True:
        mover = None
        for i in range(game.n):
            if profile[i] == 3:
                continue
            us = game.scaled_utilities(profile, i)
            if us[2] > 0 and at_least_sqrt2_times(us[2], us[profile[i] - 1]):
                mover = i
                break
        if mover is None:
            return profile
        profile = profile[:mover] + (3,) + profile[mover + 1:]
        profile = stabilize(profile)


def one_shot_alpha_br(game, k0, alpha):
    """One-shot gated best response from an all-at-k0 start.

    Only players still at k0 may move, each at most once, to their best
    response when it clears the alpha gate.  Returns (profile, trace).
    """
    trace = _one_shot(game, k0, _exact_alpha(alpha))
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
