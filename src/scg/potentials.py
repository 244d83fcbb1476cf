"""Influence-weight recovery and ordinal potential auditing.

Every kernel game lists itself as (members, anchor, w, shares) groups in
``_groups(i=None)`` (see `scg.model`): a group pays when all its members
play one strategy, its anchor if it has one, and then member i earns
shares[i] * w.  The groups are a hypergraph's positive edges, an omega
game's pairs not in conflict, a pairwise game's values and edges.

When every positive group's shares arise from per-player influence
weights, share_i = g_i / sum_{j in e} g_j, the game has the ordinal
potential

    Phi(s) = sum over paying groups e of w_e / sum_{i in e} g_i,

which on a pairwise game reads

    Phi(s) = sum_i w_i^{s_i} / g_i  +  sum_{s_i = s_j} w(i,j) / (g_i + g_j),

so gated best-response dynamics cannot cycle on such games.
`potential_value`, `potential_delta`, `ordinal_audit`, the weight
recovery `_recover` (behind `cc_recover` and
`scg.generalized.hypergraph_cc_recover`) and `certificate_shares_match`
take either family, on int pairs; only what they return is a Fraction.
`_potential_kernel` is the potential as one more `scg.model.IntKernel` on
the game kernel's index, each member of a group earning the group's term,
so player i's vector changes by dphi as i moves: `potential_delta` returns
that change, and `ordinal_audit` reads its sign in one walk with du's.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .analysis import _profiles
from .model import (_checked_strategy, _int_kernel, _pays_at, _reduced,
                    _scaled_ints)
from .model import player_utility  # not called: bench tracer tests read it
from .rationals import (_exact_alpha, _int, format_rational, load_list,
                        rational_reader, rational_writer)


@dataclass(frozen=True)
class PotentialCertificate:
    """Per-player influence weights, normalized so each connected component
    of the positive-weight graph has minimum entry 1."""

    gamma: tuple  # positive Fractions, one per player

    def to_json(self):
        return json.dumps(list(map(rational_writer(), self.gamma))) + "\n"

    @staticmethod
    def from_json(text):
        read = rational_reader()
        return PotentialCertificate(gamma=tuple(
            read(v, f"gamma[{i}]")
            for i, v in enumerate(load_list(text, "gamma"))))


@dataclass(frozen=True)
class RecoveryFailure:
    """Witness that no influence-weight vector realizes the shares."""

    edge: tuple   # (i, j)
    reason: str


@dataclass(frozen=True)
class AuditReport:
    trials: int
    violations: int
    counterexample: tuple | None  # (profile, player, deviation, du, dphi)

    @property
    def ok(self):
        return self.violations == 0


def _recover(game, zero_reason, conflict_reason, witness_group):
    """Influence weights in proportion to the shares of each positive
    group of two or more members (singletons constrain nothing),
    depth-first from each unweighted player in index order: the first
    member i of a group to be reached sets gamma_j = gamma_i * share_j /
    share_i for the others, a reduced int pair; components are normalized
    to minimum weight 1.  A `RecoveryFailure` names the first group with a
    zero share, or, when j reached from i gets a second weight, the group
    if `witness_group` and (i, j) otherwise."""
    groups = [(members, shares) for members, _, (a, _), shares
              in game._groups() if a and len(members) > 1]
    incident = [[] for _ in range(game.n)]  # (group number, own share)
    for g, (members, shares) in enumerate(groups):
        if any(not c for c, _ in shares):
            return RecoveryFailure(edge=tuple(members), reason=zero_reason)
        for i, share in zip(members, shares):
            incident[i].append((g, share))
    reached = [False] * len(groups)
    gamma = [None] * game.n
    for root in range(game.n):
        if gamma[root] is not None:
            continue
        gamma[root] = (1, 1)
        component, stack = [root], [root]
        while stack:
            i = stack.pop()
            for g, (c, d) in incident[i]:
                if reached[g]:
                    continue  # its constraints on i hold already
                reached[g] = True
                p, q = gamma[i][0] * d, gamma[i][1] * c  # gamma_i / share_i
                for j, (c_j, d_j) in zip(*groups[g]):
                    if j == i:
                        continue
                    expected = _reduced(p * c_j, q * d_j)
                    if gamma[j] is None:
                        gamma[j] = expected
                        component.append(j)
                        stack.append(j)
                    elif gamma[j] != expected:
                        return RecoveryFailure(
                            edge=tuple(groups[g][0]) if witness_group
                            else (i, j), reason=conflict_reason)
        low = min(Fraction(*gamma[i]) for i in component)
        for i in component:
            gamma[i] = Fraction(*gamma[i]) / low
    return PotentialCertificate(gamma=tuple(gamma))


def cc_recover(game):
    """Recover influence weights from split coefficients, or fail with the
    inconsistent edge.

    Only positive-weight edges constrain the weights; shares on zero-weight
    edges are payoff-irrelevant.  Players not on any positive-weight edge
    get weight 1.
    """
    return _recover(game, "share 0 or 1 admits no positive weights",
                    "cycle forces two different weights", witness_group=False)


def certificate_shares_match(game, cert):
    """Exact round-trip check: in every positive-weight group each
    member's share c_i / d_i equals g_i / (sum of member weights), that is
    c_i * sum G = d_i * G_i for the weights G scaled to ints."""
    _check_certificate(game, cert)
    _, weights = _scaled_ints([g.as_integer_ratio() for g in cert.gamma])
    return all(c * sum([weights[j] for j in members]) == d * weights[i]
               for members, _, (a, _), shares in game._groups() if a
               for i, (c, d) in zip(members, shares))


def _check_certificate(game, cert):
    """Reject a certificate that does not give every player a positive
    weight; a zero weight would divide by zero in the potential."""
    if len(cert.gamma) != game.n:
        raise ValueError("certificate must weight every player")
    for i, g in enumerate(cert.gamma):
        if _exact_alpha(g, f"gamma[{i}]") <= 0:
            raise ValueError(f"gamma[{i}]: weight must be positive, "
                             f"got {format_rational(g)}")


def _potential_terms(groups, cert):
    """(members, anchor, term) for each group, zero weights too, the term
    w / (sum of member weights) a reduced int pair: with the weights scaled
    to ints G by their common denominator L, w = a/b makes it aL / (b sum G)."""
    scale, weights = _scaled_ints([g.as_integer_ratio() for g in cert.gamma])
    for members, anchor, (a, b), _ in groups:
        yield members, anchor, _reduced(
            a * scale, b * sum([weights[j] for j in members]))


def potential_value(game, profile, cert):
    """Phi(profile) of any kernel game, exactly: the sum of w / (sum of
    member weights) over the paying groups."""
    game.validate_profile(profile)
    _check_certificate(game, cert)
    scale, ints = _scaled_ints([term for k, term in _pays_at(
        profile, _potential_terms(game._groups(), cert)) if k])
    return Fraction(sum(ints), scale)


def potential_delta(game, profile, i, new_strategy, cert):
    """Phi(deviated) - Phi(profile) as i moves: `ordinal_audit`'s dphi,
    read from the potential kernel of i's groups only, as the others cancel."""
    _checked_strategy(game, profile, i, new_strategy)  # builds no kernel
    _int(new_strategy, f"profile[{i}]")  # above, None reads as i's own strategy
    _check_certificate(game, cert)
    potential = _potential_kernel(game, cert, game._groups(i))
    ps = potential.scaled_utilities(profile, i)
    return Fraction(ps[new_strategy - 1] - ps[profile[i] - 1], potential.scale)


def _potential_kernel(game, cert, groups=None):
    """The potential as one more `scg.model.IntKernel`, on the game kernel's
    index: each group of ``game._groups()`` (by default), in order and zero
    weights kept, pays every member its term w / (sum of member weights).
    Entry k of i's vector sums the terms paying with i at k and the others
    where they are, so dphi is a difference of two entries."""
    return _int_kernel(game.n, game.m, groups=[
        (members, anchor, term, ((1, 1),) * len(members))
        for members, anchor, term in _potential_terms(
            game._groups() if groups is None else groups, cert)])


def _sampled_deviations(game, trials, seed):
    """The triples of `random.Random(seed)`: per trial n profile entries
    ``randint(1, m)``, the player ``randrange(n)`` and the deviation
    ``randint(1, m)``, moved to the next strategy if it is the player's
    own.  Each draw is the rejection loop of ``Random._randbelow`` written
    out over `getrandbits`: k-bit draws, redrawn while not below the bound,
    which yields the same values as the calls at a fraction of their cost."""
    n, m = game.n, game.m
    getrandbits = random.Random(seed).getrandbits
    kn, km = n.bit_length(), m.bit_length()
    for _ in range(trials):
        profile = []
        append = profile.append
        for _ in range(n):
            r = getrandbits(km)
            while r >= m:
                r = getrandbits(km)
            append(r + 1)
        i = getrandbits(kn)
        while i >= n:
            i = getrandbits(kn)
        new_k = getrandbits(km)
        while new_k >= m:
            new_k = getrandbits(km)
        new_k += 1
        if new_k == profile[i]:
            new_k = new_k % m + 1
        yield tuple(profile), i, new_k


def ordinal_audit(game, cert, trials=10_000, seed=0):
    """Sampled sign audit: for random (profile, player, deviation) triples,
    the deviating player's utility change and the potential change must have
    the same sign.  `trials` and `seed` must be ints, `trials` at least 1,
    so the audit never passes without checking anything, save on a game
    with no deviation (n = 0 or m = 1): it reports 0 trials and holds with
    nothing to test.  Tiny instances (m^n * n * m <= 20_000) are audited
    exhaustively instead.

    The sampled triples are a contract: those of `random.Random(seed)`
    drawing, per trial, the profile as n calls ``randint(1, m)``, the player
    as ``randrange(n)`` and the deviation as ``randint(1, m)``, moved to the
    next strategy (m to 1) if it is the player's own.  They are drawn
    through `getrandbits` exactly as those calls draw them, so the same
    seed audits the same triples.

    Takes any kernel game.  du and dphi come from one walk over the
    mover's entries in the game's own `scg.model.IntKernel`, which every
    dynamic and verifier reads, and in the potential's, built once on the
    same index: from the rows' new_k less old_k entries, each neighbour or
    ``rest`` group at new_k adds its two gains and each at old_k takes them
    away.  A trial costs O(n) to draw and O(deg) to read (times the group
    size past unanchored pairs); each draw stays one call, as block draws
    cost more at n = 5 and 20 and save little at 60.  Only signs are
    compared, so the scales need not agree; the exact Fraction (du, dphi)
    is made only for the reported counterexample, the first violation."""
    _check_certificate(game, cert)
    _int(trials, "trials")
    _int(seed, "seed")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    potential = _potential_kernel(game, cert)  # first: it refuses any table
    if game.n == 0 or game.m < 2:
        return AuditReport(trials=0, violations=0, counterexample=None)

    if (game.m ** game.n) * game.n * game.m <= 20_000:
        deviations = ((p, i, k) for p in _profiles(game) for i in range(game.n)
                      for k in range(1, game.m + 1) if k != p[i])
    else:
        deviations = _sampled_deviations(game, trials, seed)
    _, rows, nbrs, gains, rest = game._kernel
    _, prows, _, pgains, prest = potential
    done = violations = 0
    counterexample = None
    for profile, i, new_k in deviations:
        done += 1
        old_k = profile[i]
        du = rows[i][new_k - 1] - rows[i][old_k - 1]
        dp = prows[i][new_k - 1] - prows[i][old_k - 1]
        for j, g, pg in zip(nbrs[i], gains[i], pgains[i]):
            k = profile[j]
            if k == new_k:
                du, dp = du + g, dp + pg
            elif k == old_k:
                du, dp = du - g, dp - pg
        for (k, g), (*_, pg) in zip(_pays_at(profile, rest[i]),
                                    prest[i]) if rest else ():
            if k == new_k:
                du, dp = du + g, dp + pg
            elif k == old_k:
                du, dp = du - g, dp - pg
        if (du > 0) - (du < 0) == (dp > 0) - (dp < 0):
            continue
        violations += 1
        if counterexample is None:
            counterexample = (profile, i, new_k, Fraction(du, game.scale),
                              Fraction(dp, potential.scale))
    return AuditReport(trials=done, violations=violations,
                       counterexample=counterexample)
