"""Verifiers and brute-force oracles.

Everything here is exact: deviation factors, welfare comparisons and the
price-of-anarchy/stability ratios are rationals, and the exhaustive oracles
enumerate the full m^n profile space (guarded at 10^7 profiles).

`brute_force_optimum` and `equilibrium_census` run on one incremental walk,
`_walk`, that visits the profiles in lexicographic (`itertools.product`)
order, so the optimum is the lexicographically smallest maximizer and the
equilibria come in that order.  The walk keeps each player's scaled int
utility vector, the scaled welfare and, for the census, the number of
players whose best reply beats alpha, and updates them only for the players
that move and the players they pay: O(deg * m) per profile, amortised.
It reads a game's `scg.model.IntKernel`, so it takes the games whose
kernel has no ``rest`` groups (pairwise, omega, and hypergraph games of
singletons and unanchored pairs) and refuses the others with a
ValueError.  The group-deviation check, `_group_deviation`, is a
depth-first search in the same order that cuts a subtree as soon as an
upper bound on one deviator's utility fails the factor test, so it
returns the first violating profile without visiting the profiles it
rules out.  The ordinal audit and the omega game's lexicographic oracle
still enumerate with `_profiles`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

# player_utility is not called here; it stays importable from scg.analysis,
# where the benchmark's tracer tests look for it
from .model import (_EXACT, _inexact, instance_stats, player_utility,
                    welfare)
from .rationals import INF, PHI_APPROX

ONE = Fraction(1)

PROFILE_SPACE_CAP = 10**7


class SizeError(RuntimeError):
    """Exhaustive enumeration would exceed the profile-space guard."""


def _check_cap(game):
    """Raise SizeError when the game has more than PROFILE_SPACE_CAP
    profiles."""
    if game.m ** game.n > PROFILE_SPACE_CAP:
        raise SizeError(
            f"profile space {game.m}^{game.n} exceeds cap {PROFILE_SPACE_CAP}")


def _profiles(game):
    """Every profile of the game, in lexicographic order; raises SizeError
    at once when there are more than PROFILE_SPACE_CAP of them."""
    _check_cap(game)
    return itertools.product(range(1, game.m + 1), repeat=game.n)


def _exact_alpha(alpha, name="alpha"):
    """alpha as a Fraction; an inexact type (float, bool, str) is refused
    with an error naming the argument `name`.  Every factor alpha and
    every imbalance gamma an entry point takes passes through here."""
    if type(alpha) not in _EXACT:
        raise _inexact(name, alpha)
    return Fraction(alpha)


def _factor(u_old, u_new):
    """Improvement factor u_new / u_old of two utilities at one scale, as a
    Fraction (the scale cancels); 0 -> positive is +inf, 0 -> 0 is 1."""
    if u_old == 0:
        return INF if u_new > 0 else ONE
    return Fraction(u_new, u_old)


def _factor_exceeds(u_old, u_new, alpha):
    """Whether ``_factor(u_old, u_new) > alpha``, by cross-multiplication
    (utilities are nonnegative)."""
    if u_old == 0:
        return u_new > 0 or alpha < 1
    return u_new * alpha.denominator > alpha.numerator * u_old


def _best_reply(us, k):
    """Best strategy and its utility in the utility vector `us` for a player
    now at k.  Ties stay at k, then go to the lowest strategy index."""
    best = max(us)
    if best > us[k - 1]:
        return us.index(best) + 1, best
    return k, us[k - 1]


@dataclass(frozen=True)
class DeviationReport:
    per_player: tuple  # (best deviation strategy, factor) per player
    max_factor: object
    witness: int | None  # player attaining max_factor

    def is_alpha_equilibrium(self, alpha):
        return self.max_factor <= alpha


@dataclass(frozen=True)
class StrongDeviationReport:
    verdict: str  # "stable-at-alpha" | "violated"
    alpha: Fraction
    witness_profile: tuple | None = None
    coalition: tuple | None = None


@dataclass(frozen=True)
class PaymentPlan:
    payments: tuple      # per-player payment in utility units
    total: Fraction
    nu: Fraction         # total / supplied OPT welfare


@dataclass(frozen=True)
class EquilibriumCensus:
    alpha: Fraction
    opt_profile: tuple
    opt_welfare: Fraction
    equilibria: tuple           # profiles with max deviation factor <= alpha
    equilibrium_welfares: tuple
    poa: object                 # OPT / worst equilibrium welfare, or None
    pos: object                 # OPT / best equilibrium welfare, or None
    exists: bool


def _deviation_report(game, profile, bonus=None):
    """Deviation report of any game with `scaled_utilities`; trusts the
    profile.

    ``bonus[i]``, when given, is added to player i's utility for staying
    put and to no deviation.  A player who stays has factor 1; a Fraction
    is built only for a player whose best reply is a move, and factors are
    compared as the pairs (new, old) by cross-multiplication (a zero old
    utility is +inf).
    """
    scale = game.scale
    per = []
    max_factor, witness = ONE, None
    top_new, top_old = 1, 1
    for i, k in enumerate(profile):
        us = game.scaled_utilities(profile, i)
        if bonus is not None:
            us[k - 1] += bonus[i] * scale
        best_k, best_u = _best_reply(us, k)
        if best_k == k:
            per.append((k, ONE))
            continue
        u_old = us[k - 1]
        f = _factor(u_old, best_u)
        per.append((best_k, f))
        if best_u * top_old > top_new * u_old:
            max_factor, witness = f, i
            top_new, top_old = best_u, u_old
    return DeviationReport(per_player=tuple(per), max_factor=max_factor,
                           witness=witness)


def deviation_report(game, profile):
    """Best-response improvement factor for every player, exactly.

    Staying put is always a candidate, so factors are at least 1; the
    profile is an alpha-approximate equilibrium iff max_factor <= alpha.
    """
    game.validate_profile(profile)
    return _deviation_report(game, profile)


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


def brute_force_optimum(game):
    """Exact welfare maximizer; ties go to the lexicographically smallest
    profile."""
    best, best_w, _, _ = _walk(game)
    return best, best_w


def _group_deviation(game, profile, alpha, feasible=None):
    """(alt, coalition) for the first profile alt, in lexicographic order and
    admitted by `feasible` if given, in which every player who changed
    strategy beats its scaled utility at `profile` by a factor above alpha,
    decided as `_factor_exceeds` decides it; (None, None) if there is none.

    A depth-first search gives players 0..n-1 their strategies in turn,
    each trying 1..m in ascending order, so it meets the leaves in
    `_profiles` order and its first accepted leaf is the first such alt.
    On a game whose `IntKernel` has no ``rest`` groups it bounds every
    deviator's utility from above: its own value at its new strategy, plus
    its gains from the earlier players there, plus all its gains from the
    later players; a later player who takes another strategy takes its
    gains off.  Gains are nonnegative, so a bound only falls as the search
    goes deeper, and a subtree is cut, with nothing lost, as soon as one
    deviator's bound fails `_factor_exceeds`; a leaf that is reached then
    needs only a coalition and `feasible`.  Any other game is searched
    with no bound and each leaf checked in full.  The stack is explicit,
    so n is bounded only by the profile-space cap.
    """
    _check_cap(game)
    n, m = game.n, game.m
    home = [k - 1 for k in profile]
    s = [-1] * n  # 0-based strategies of players 0..p-1; -1 if unassigned
    kernel = getattr(game, "_kernel", None)
    if kernel is None or kernel.rest:
        kernel = None  # no bound: the leaves are checked in full
        base = [game.scaled_utilities(profile, i)[k]
                for i, k in enumerate(home)]

        def enter(p, b):
            return True

        def leave(p, b):
            pass
    else:
        _, rows, nbrs, gains, _ = kernel
        back = [[] for _ in range(n)]   # back[p]: (j, g_pj) per j < p
        ahead = [0] * n                 # ahead[p]: sum of g_pj over j > p
        payees = [[] for _ in range(n)]  # payees[p]: (i, g_ip) per i < p
        base = []
        for i, k in enumerate(home):
            u = rows[i][k]
            for j, g in zip(nbrs[i], gains[i]):
                if not g:
                    continue
                if home[j] == k:
                    u += g
                if j < i:
                    back[i].append((j, g))
                else:
                    ahead[i] += g
                    payees[j].append((i, g))
            base.append(u)
        bound = [0] * n  # a deviator's upper bound at the current depth

        def enter(p, b):
            """Give p strategy b unless that leaves some deviator's bound
            failing the factor test."""
            if b != home[p]:
                u = rows[p][b] + ahead[p]
                for j, g in back[p]:
                    if s[j] == b:
                        u += g
                if not _factor_exceeds(base[p], u, alpha):
                    return False
                bound[p] = u
            # one deviator may pay p through several entries (parallel
            # pairs), so every gain comes off before any bound is tested
            hit = [(i, g) for i, g in payees[p]
                   if s[i] != home[i] and s[i] != b]
            for i, g in hit:
                bound[i] -= g
            if all(_factor_exceeds(base[i], bound[i], alpha) for i, _ in hit):
                return True
            for i, g in hit:
                bound[i] += g
            return False

        def leave(p, b):
            for i, g in payees[p]:
                if s[i] != home[i] and s[i] != b:
                    bound[i] += g

    p = 0
    while p >= 0:
        if p == n:
            coalition = tuple(i for i in range(n) if s[i] != home[i])
            alt = tuple(k + 1 for k in s)
            if (coalition and (feasible is None or feasible(alt))
                    and (kernel is not None
                         or all(_factor_exceeds(
                             base[i], game.scaled_utilities(alt, i)[s[i]],
                             alpha) for i in coalition))):
                return alt, coalition
            p -= 1
            continue
        b = s[p]
        if b >= 0:
            leave(p, b)
        b += 1
        while b < m and not enter(p, b):
            b += 1
        if b < m:
            s[p] = b
            p += 1
        else:
            s[p] = -1
            p -= 1
    return None, None


def verify_approx_strong(game, profile, alpha):
    """Exhaustive group-deviation check.

    A violation is an alternative profile where every player who changed
    strategy improves by a factor strictly greater than alpha.
    """
    game.validate_profile(profile)
    alpha = _exact_alpha(alpha)
    alt, coalition = _group_deviation(game, profile, alpha)
    return StrongDeviationReport(
        verdict="stable-at-alpha" if alt is None else "violated",
        alpha=alpha, witness_profile=alt, coalition=coalition)


def equilibrium_census(game, alpha=ONE):
    """Exhaustive census of alpha-approximate equilibria with PoA/PoS."""
    alpha = _exact_alpha(alpha)
    opt_profile, opt_w, equilibria, eq_welfares = _walk(game, alpha)
    exists = bool(equilibria)
    poa = pos = None
    if exists:
        worst, best = min(eq_welfares), max(eq_welfares)
        poa = _welfare_ratio(opt_w, worst)
        pos = _welfare_ratio(opt_w, best)
    return EquilibriumCensus(alpha=alpha, opt_profile=opt_profile,
                             opt_welfare=opt_w, equilibria=tuple(equilibria),
                             equilibrium_welfares=tuple(eq_welfares),
                             poa=poa, pos=pos, exists=exists)


def _welfare_ratio(opt_w, eq_w):
    if eq_w == 0:
        return ONE if opt_w == 0 else INF
    return opt_w / eq_w


def _hybrid_alpha(alpha):
    """alpha as a Fraction, if it is exact and lies in the hybrid
    algorithm's range."""
    alpha = _exact_alpha(alpha)
    if not (PHI_APPROX <= alpha <= 2):
        raise ValueError("alpha must lie in [1618/1000, 2]")
    return alpha


def _balanced_fraction(alpha, gamma, inv_m):
    """The balanced two-term welfare fraction at 1/m = inv_m."""
    return (alpha - 1) / (1 + ((gamma + 1) / alpha) * (alpha - (1 + inv_m)))


def welfare_lower_bound(alpha, gamma, m):
    """Guaranteed welfare fraction of the hybrid algorithm's output.

    alpha and a finite gamma must be exact (an int or a Fraction) and m an
    int; gamma may be +inf; m may be +inf, treated as the 1/m -> 0 limit.
    """
    alpha = _hybrid_alpha(alpha)
    inf_m = m == INF
    if not inf_m and (type(m) is not int or m < 1):
        raise ValueError("m must be an integer >= 1 or inf")
    if gamma != INF:
        gamma = _exact_alpha(gamma, "gamma")
        if gamma < 1:
            raise ValueError("gamma must be >= 1 or inf")

    lemma_frac = (ONE if not inf_m and m == 1
                  else (alpha - 1) / ((m - 1) + (alpha - 1)) if not inf_m
                  else Fraction(0))
    if gamma == INF:
        return lemma_frac
    inv_m = Fraction(0) if inf_m else Fraction(1, m)
    if inf_m or gamma + 1 <= alpha * m:
        return _balanced_fraction(alpha, gamma, inv_m)
    return max(alpha / (gamma + 1), lemma_frac)


def table_fraction(alpha, gamma, m):
    """Welfare fraction as tabulated in the published performance table.

    In the high-imbalance regime (gamma + 1 > alpha * m) the published
    figures follow the balanced two-term formula rather than the proven
    worst-case maximum, so this includes that candidate; it is never below
    `welfare_lower_bound`.
    """
    guaranteed = welfare_lower_bound(alpha, gamma, m)
    if gamma == INF or m == INF:
        return guaranteed
    alpha = Fraction(alpha)
    gamma = Fraction(gamma)
    if gamma + 1 <= alpha * m:
        return guaranteed
    return max(guaranteed, _balanced_fraction(alpha, gamma, Fraction(1, m)))


def payment_stabilize(game, profile, opt_welfare):
    """Minimal per-player payments (conditional on staying) that make the
    profile a Nash equilibrium of the payment-augmented game."""
    game.validate_profile(profile)
    if opt_welfare <= 0:
        raise ValueError("optimum welfare must be positive")
    scale = game.scale
    gaps = []
    for i, k in enumerate(profile):
        us = game.scaled_utilities(profile, i)
        gaps.append(max(us) - us[k - 1])
    total = Fraction(sum(gaps), scale)
    return PaymentPlan(payments=tuple(Fraction(g, scale) for g in gaps),
                       total=total, nu=total / opt_welfare)


def post_payment_deviation_report(game, profile, plan):
    """Deviation report of the payment-augmented game at the paid profile.

    Payments are granted only while the player sticks to her prescribed
    strategy, so they raise the baseline and not the deviation utilities.
    """
    game.validate_profile(profile)
    if len(plan.payments) != game.n:
        raise ValueError("plan must pay every player")
    for i, p in enumerate(plan.payments):
        if type(p) not in _EXACT:
            raise _inexact(f"payments[{i}]", p)
        if p < 0:
            raise ValueError(f"payments[{i}]: negative payment")
    return _deviation_report(game, profile, bonus=plan.payments)


def semi_smoothness_check(game, profile):
    """Check the uniform-mixed-deviation inequality against brute-force OPT:
    sum_i (1/m) sum_k u_i(k, s_-i) >= u(OPT) / m, exactly; the 1/m
    cancels, and both sides are compared at the game's scale."""
    game.validate_profile(profile)
    _, opt_w = brute_force_optimum(game)
    lhs = sum(sum(game.scaled_utilities(profile, i)) for i in range(game.n))
    return lhs >= opt_w * game.scale


def mip_check(game, profile):
    """Minimum-intrinsic-preference condition: A(s) >= A_T / m."""
    a_s = welfare(game, profile).intrinsic_total
    a_t = instance_stats(game).a_total
    return a_s * game.m >= a_t
