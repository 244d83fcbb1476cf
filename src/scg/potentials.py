"""Influence-weight recovery and ordinal potential auditing.

Both potential game families are lists of groups (members, weight,
shares, anchor).  A group pays when all its members play one strategy,
its anchor if it has one, and then member i earns shares[i] * weight.  A
`scg.generalized.HypergraphGame` lists its hyperedges as groups.  A
pairwise `scg.model.GameInstance` is the special case of one anchored
singleton ((i,), w_i^k, (1,), k) per intrinsic value and one unanchored
pair ((i, j), w(i,j), (share_ij, 1 - share_ij), None) per edge.

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
are written once over the groups and take either family.  The audit takes
only the potential side from the groups, as one more `scg.model.IntKernel`
in which every member of a group earns the group's potential term, so
player i's vector of that kernel changes by dphi as i moves.  A
deviation's utility change is read from the game's own
`scaled_utilities`, the vector every dynamic and verifier reads, so the
audit checks the potential against the utilities the rest of the package
computes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .analysis import _profiles
from .model import _EXACT, _inexact, _int_kernel, player_utility
from .rationals import (format_rational, load_list, rational_reader,
                        rational_writer)

ZERO = Fraction(0)
ONE = Fraction(1)


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
    share_i for the others; components are normalized to minimum weight 1.
    A `RecoveryFailure` names the first group with a zero share, or, when
    j reached from i gets a second weight, the group if `witness_group`
    and (i, j) otherwise."""
    groups = [(members, shares) for members, w, shares, _ in game.groups
              if w > 0 and len(members) > 1]
    incident = [[] for _ in range(game.n)]  # (group number, own share)
    for g, (members, shares) in enumerate(groups):
        if 0 in shares:
            return RecoveryFailure(edge=tuple(members), reason=zero_reason)
        for i, share in zip(members, shares):
            incident[i].append((g, share))
    reached = [False] * len(groups)
    gamma = [None] * game.n
    for root in range(game.n):
        if gamma[root] is not None:
            continue
        gamma[root] = ONE
        component, stack = [root], [root]
        while stack:
            i = stack.pop()
            for g, share in incident[i]:
                if reached[g]:
                    continue  # its constraints on i hold already
                reached[g] = True
                base = gamma[i] / share
                for j, s_j in zip(*groups[g]):
                    if j == i:
                        continue
                    expected = base * s_j
                    if gamma[j] is None:
                        gamma[j] = expected
                        component.append(j)
                        stack.append(j)
                    elif gamma[j] != expected:
                        return RecoveryFailure(
                            edge=tuple(groups[g][0]) if witness_group
                            else (i, j), reason=conflict_reason)
        low = min(gamma[i] for i in component)
        for i in component:
            gamma[i] /= low
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
    member's share equals g_i / (sum of member weights)."""
    gamma = [Fraction(g) for g in cert.gamma]
    return all(share == gamma[i] / sum(gamma[j] for j in members)
               for members, w, shares, _ in game.groups if w > 0
               for i, share in zip(members, shares))


def _check_certificate(game, cert):
    """Reject a certificate that does not give every player a positive
    weight; a zero weight would divide by zero in the potential."""
    if len(cert.gamma) != game.n:
        raise ValueError("certificate must weight every player")
    for i, g in enumerate(cert.gamma):
        if type(g) not in _EXACT:
            raise _inexact(f"gamma[{i}]", g)
        if g <= 0:
            raise ValueError(f"gamma[{i}]: weight must be positive, "
                             f"got {format_rational(g)}")


def potential_value(game, profile, cert):
    """Phi(profile) of a `GameInstance` or a `HypergraphGame`, exactly:
    the sum of w / (sum of member weights) over the paying groups."""
    game.validate_profile(profile)
    _check_certificate(game, cert)
    gamma = [Fraction(g) for g in cert.gamma]
    phi = ZERO
    for members, weight, _, anchor in game.groups:
        k = profile[members[0]]
        if anchor in (None, k) and all(profile[j] == k for j in members):
            phi += weight / sum(gamma[j] for j in members)
    return phi


def potential_delta(game, profile, i, new_strategy, cert):
    """Phi(deviated) - Phi(profile) when player i moves to new_strategy."""
    player_utility(game, profile, i, new_strategy)  # validates the arguments
    moved = list(profile)
    moved[i] = new_strategy
    return (potential_value(game, moved, cert)
            - potential_value(game, profile, cert))


def _potential_kernel(game, cert):
    """The potential as one more `scg.model.IntKernel`: each positive group
    valued w / (sum of member weights) for every member.  Entry k of
    player i's vector is then the sum of the terms that pay with i at k and
    the others where they are, so a move's dphi is the difference of two
    entries; every term without i cancels.  Each term is built from int
    pairs: the member weights c/d summed to p/q by cross-multiplication,
    then w = a/b over it is (a q) / (b p), reduced once."""
    gamma = [g.as_integer_ratio() for g in cert.gamma]
    groups = []
    for members, w, _, anchor in game.groups:
        if not w:
            continue
        a, b = w.as_integer_ratio()
        p, q = 0, 1
        for j in members:
            c, d = gamma[j]
            p, q = p * d + c * q, q * d
        num, den = a * q, b * p
        g = math.gcd(num, den)
        groups.append((members, anchor, [(num // g, den // g)] * len(members)))
    return _int_kernel([(0,) * game.m] * game.n, groups)


def _every_deviation(game):
    for profile in _profiles(game):
        for i in range(game.n):
            for new_k in range(1, game.m + 1):
                if new_k != profile[i]:
                    yield profile, i, new_k


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
    the same sign.  `trials` must be at least 1, so the audit never passes
    without checking anything; tiny instances (m^n * n * m <= 20_000) are
    audited exhaustively instead.

    The sampled triples are a contract: those of `random.Random(seed)`
    drawing, per trial, the profile as n calls ``randint(1, m)``, the player
    as ``randrange(n)`` and the deviation as ``randint(1, m)``, moved to the
    next strategy (m to 1) if it is the player's own.  They are drawn
    through `getrandbits` exactly as those calls draw them, so the same
    seed audits the same triples.

    Takes a `GameInstance` or a `HypergraphGame`.  du is read from
    `game.scaled_utilities(profile, i)`, the utility kernel every dynamic
    and verifier reads; dphi from the same reader of the potential's own
    `scg.model.IntKernel`, built once per audit, in O(deg + m) per trial
    (times the group size for groups of three or more, and anchored
    pairs).  Only signs are compared, so the two scales need not agree;
    the exact Fraction (du, dphi) is computed only for the reported
    counterexample, the first violating triple."""
    _check_certificate(game, cert)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if game.n == 0 or game.m < 2:
        return AuditReport(trials=0, violations=0, counterexample=None)

    if (game.m ** game.n) * game.n * game.m <= 20_000:
        deviations = _every_deviation(game)
    else:
        deviations = _sampled_deviations(game, trials, seed)
    potential = _potential_kernel(game, cert)
    done = violations = 0
    counterexample = None
    for profile, i, new_k in deviations:
        done += 1
        old_k = profile[i]
        us = game.scaled_utilities(profile, i)
        du = us[new_k - 1] - us[old_k - 1]
        ps = potential.scaled_utilities(profile, i)
        dp = ps[new_k - 1] - ps[old_k - 1]
        if (du > 0) - (du < 0) == (dp > 0) - (dp < 0):
            continue
        violations += 1
        if counterexample is None:
            counterexample = (profile, i, new_k, Fraction(du, game.scale),
                              potential_delta(game, profile, i, new_k, cert))
    return AuditReport(trials=done, violations=violations,
                       counterexample=counterexample)
