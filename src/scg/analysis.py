"""Verifiers and brute-force oracles.

Everything here is exact: deviation factors, welfare comparisons and the
price-of-anarchy/stability ratios are rationals, and the exhaustive oracles
search the full m^n profile space (guarded at 10^7 profiles).

`brute_force_optimum`, `equilibrium_census` and the group-deviation check
`_group_deviation` run on one pruned depth-first search, `_search`, that
meets the profiles in lexicographic (`itertools.product`) order, so the
optimum is the lexicographically smallest maximizer, the equilibria come
in that order and the first violating profile is the one returned.  Each
oracle gives the search an `enter`/`leave` pair that cuts a subtree as
soon as no profile in it can count: the optimum by a branch and bound on
the welfare; the census and the group check share the pair of one
per-player state, `_placements`, and each states only its cut test: a
placed player surely unstable, or a deviator's bound ``lo + rem``
failing the factor test.  The cuts read a game's `scg.model.IntKernel`
of singletons and unanchored pairs; a game without one, a table or a
hypergraph with ``rest`` groups, has every profile checked in full
instead: the optimum and the census by one flat scan over `_profiles`
that reads each vector once for both, the group check by an unbounded
search.  The ordinal audit and the omega
game's lexicographic oracle also enumerate with `_profiles`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

# player_utility is not called here; it stays importable from scg.analysis,
# where the benchmark's tracer tests look for it
from .model import player_utility
from .rationals import INF, PHI_APPROX, _exact_alpha

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


def _search(s, m, enter, leave):
    """Depth-first search yielding at each leaf, where `s` holds the
    profile's 0-based strategies; -1 marks a player not yet placed, as all
    are at first.  Players 0..n-1 are placed in turn, each trying 0..m-1,
    so the leaves come in `_profiles` order.  ``s[p] = b`` is set before
    ``enter(p, b)``, whose false answer cuts the subtree; ``leave(p, b)``
    undoes an entered (p, b) on the way back, with ``s[p]`` still b and
    every later player at -1.  The stack is explicit, so n is bounded only
    by the profile-space cap."""
    n = len(s)
    p = 0
    while p >= 0:
        if p == n:
            yield
            p -= 1
            continue
        b = s[p]
        if b >= 0:
            leave(p, b)
        while b + 1 < m:
            b += 1
            s[p] = b
            if enter(p, b):
                p += 1
                break
        else:
            s[p] = -1
            p -= 1


def _free(p, b):
    """An `enter` that cuts nothing, or a `leave` with nothing to undo."""
    return True


def _kernel_pays(game):
    """The game's `IntKernel` and, per player i, the (j, g_ji) for each
    player j that i's company pays, zero gains left out; (None, None) for
    a game without a kernel, or whose kernel has ``rest`` groups.  Past the
    cap a SizeError comes before any work.
    """
    _check_cap(game)
    kernel = getattr(game, "_kernel", None)
    if kernel is None or kernel.rest:
        return None, None
    pays = [[] for _ in range(game.n)]
    for j, (nbrs, gains) in enumerate(zip(kernel.nbrs, kernel.gains)):
        for i, g in zip(nbrs, gains):
            if g:
                pays[i].append((j, g))
    return kernel, pays


def _placements(kernel, pays, s, cut):
    """The per-player state of a search over a kernel without ``rest``
    groups, and the search's `enter` and `leave`.  ``lo[i]`` is player
    i's scaled vector from the placed players and ``rem[i]`` i's gains
    from the others, which raise one entry of lo[i] by at most rem[i].
    ``enter(p, b)`` is false when ``cut(i, k, lo[i], rem[i])`` holds for p
    at b, or, once p's gains are added, for any placed player i that p
    pays; it takes them off again first.  One player may pay another
    through several entries (parallel pairs), so every gain is added
    before any payee is tested.  ``leave(p, b)`` takes p's gains off."""
    lo = [row.copy() for row in kernel.rows]
    rem = [sum(g) for g in kernel.gains]

    def leave(p, b):
        for j, g in pays[p]:
            lo[j][b] -= g
            rem[j] += g

    def enter(p, b):
        if cut(p, b, lo[p], rem[p]):
            return False
        for j, g in pays[p]:
            lo[j][b] += g
            rem[j] -= g
        for j, _ in pays[p]:
            k = s[j]
            if k >= 0 and cut(j, k, lo[j], rem[j]):
                leave(p, b)
                return False
        return True

    return lo, enter, leave


def brute_force_optimum(game):
    """Exact welfare maximizer; ties go to the lexicographically smallest
    profile.

    A branch and bound on `_search`.  ``w[p]`` is the scaled welfare of
    players 0..p-1 alone, own values and the pairs among them; ``tail[p]``
    adds up the largest own value of each later player and the gains of
    every pair with a later member.  A subtree whose bound w + tail is no
    more than the best welfare met is cut, so the first maximum met, the
    lexicographically smallest, is kept.
    """
    kernel, pays = _kernel_pays(game)
    if kernel is None:  # the flat scan of `_equilibria`; at 0, no factor test
        return _equilibria(game, 0)[3]
    scale, rows, nbrs, gains, _ = kernel
    n = game.n
    # links[i]: (j, g) for each gain between i and another player j
    links = [[*zip(nbrs[i], gains[i]), *pays[i]] for i in range(n)]
    tail = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        tail[i] = (tail[i + 1] + max(rows[i])
                   + sum(g for j, g in links[i] if j < i))
    s = [-1] * n
    w = [0] * (n + 1)
    best, best_w = None, -1  # welfares are nonnegative

    def enter(p, b):
        u = w[p] + rows[p][b]
        for j, g in links[p]:
            if s[j] == b:
                u += g
        w[p + 1] = u
        return u + tail[p + 1] > best_w

    for _ in _search(s, game.m, enter, _free):
        best, best_w = tuple([k + 1 for k in s]), w[n]
    return best, Fraction(best_w, scale)


def _equilibria(game, alpha):
    """The alpha-equilibria, none below 1, in lexicographic order, their
    welfares as scaled ints, the scale and the optimum of a flat scan or None.

    A search on `_search` and `_placements`, whose cut is that a placed i
    at k is surely unstable, max(lo[i]) * den > num * (lo[i][k] + rem[i]),
    the factor test for alpha >= 1.  At a leaf every rem is 0, so the test
    is exact and the welfare is the sum of lo[i][s[i]].  A game the search
    cannot cut is scanned flat, each vector read once for both answers.
    """
    kernel, pays = _kernel_pays(game)
    n, m = game.n, game.m
    num, den = alpha.as_integer_ratio()
    equilibria, welfares = [], []
    if kernel is None:  # one flat scan, for the optimum too
        best, top = None, -1  # welfares are nonnegative
        for s in _profiles(game):
            w, stable = 0, num >= den
            for i, k in enumerate(s):
                u = game.scaled_utilities(s, i)
                w += u[k - 1]
                stable = stable and max(u) * den <= num * u[k - 1]
            if w > top:
                best, top = s, w
            if stable:
                equilibria.append(s)
                welfares.append(w)
        scale = game.scale
        return equilibria, welfares, scale, (best, Fraction(top, scale))
    if num < den:  # factors are at least 1: no equilibria below 1
        return [], [], 1, None
    s = [-1] * n
    lo, enter, leave = _placements(kernel, pays, s, lambda i, k, u, r:
                                   max(u) * den > num * (u[k] + r))
    for _ in _search(s, m, enter, leave):
        equilibria.append(tuple([k + 1 for k in s]))
        welfares.append(sum([lo[i][k] for i, k in enumerate(s)]))
    return equilibria, welfares, kernel.scale, None


def _group_deviation(game, profile, alpha, feasible=None):
    """(alt, coalition) for the first profile alt, in lexicographic order and
    admitted by `feasible` if given, in which every player who changed
    strategy beats its scaled utility at `profile` by a factor above alpha,
    decided as `_factor_exceeds` decides it; (None, None) if there is none.

    Runs on `_search`.  On a game whose `IntKernel` has no ``rest`` groups
    the cut given to `_placements` is that a deviator i at k has a bound
    ``lo[i][k] + rem[i]``, which only falls as the search goes deeper,
    failing `_factor_exceeds` (a payee at p's own strategy keeps its
    bound), so a leaf reached needs only a coalition and `feasible`.  Any
    other game is searched unbounded, each leaf checked in full.
    """
    kernel, pays = _kernel_pays(game)
    home = [k - 1 for k in profile]
    base = [game.scaled_utilities(profile, i)[k] for i, k in enumerate(home)]
    s = [-1] * game.n
    if kernel is None:  # no bound: the leaves are checked in full
        enter = leave = _free
    else:
        _, enter, leave = _placements(kernel, pays, s, lambda i, k, u, r: (
            k != home[i] and not _factor_exceeds(base[i], u[k] + r, alpha)))

    for _ in _search(s, game.m, enter, leave):
        coalition = tuple(i for i, k in enumerate(s) if k != home[i])
        alt = tuple([k + 1 for k in s])
        if (coalition and (feasible is None or feasible(alt))
                and (kernel is not None
                     or all(_factor_exceeds(
                         base[i], game.scaled_utilities(alt, i)[s[i]], alpha)
                         for i in coalition))):
            return alt, coalition
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
    equilibria, welfares, scale, optimum = _equilibria(game, alpha)
    opt_profile, opt_w = optimum or brute_force_optimum(game)
    poa = pos = None
    if equilibria:  # the extremes are found on the ints, scale > 0
        poa = _factor(Fraction(min(welfares), scale), opt_w)
        pos = _factor(Fraction(max(welfares), scale), opt_w)
    return EquilibriumCensus(
        alpha=alpha, opt_profile=opt_profile, opt_welfare=opt_w,
        equilibria=tuple(equilibria),
        equilibrium_welfares=tuple([Fraction(w, scale) for w in welfares]),
        poa=poa, pos=pos, exists=bool(equilibria))


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
    opt_welfare = _exact_alpha(opt_welfare, "opt_welfare")
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
    # a numerator's sign: cheaper than a Fraction comparison, per payment
    for i, p in enumerate(plan.payments):
        if _exact_alpha(p, f"payments[{i}]").numerator < 0:
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
    """Minimum-intrinsic-preference condition A(s) >= A_T / m, on any game:
    A(s) * m >= A_T on the scaled own values ``rows``."""
    game.validate_profile(profile)
    rows = game.rows
    a_s = sum(row[k - 1] for row, k in zip(rows, profile))
    return a_s * game.m >= sum(max(row) for row in rows)
