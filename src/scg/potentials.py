"""Influence-weight recovery and ordinal potential auditing.

An instance whose split coefficients all arise from per-player influence
weights via share_ij = g_i / (g_i + g_j) admits an ordinal potential

    Phi(s) = sum_i w_i^{s_i} / g_i  +  sum_{s_i = s_j} w(i,j) / (g_i + g_j),

so gated best-response dynamics cannot cycle on such instances.  Recovery
(`_recover`, shared with `scg.generalized.hypergraph_cc_recover`)
propagates weights depth-first through the positive-weight relationships
and checks every other constraint exactly; failure carries a witness edge.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .analysis import _profiles
from .model import _EXACT, _inexact, player_utility
from .rationals import format_rational, parse_rational

ONE = Fraction(1)


@dataclass(frozen=True)
class PotentialCertificate:
    """Per-player influence weights, normalized so each connected component
    of the positive-weight graph has minimum entry 1."""

    gamma: tuple  # positive Fractions, one per player

    def to_json(self):
        return json.dumps([format_rational(g) for g in self.gamma]) + "\n"

    @staticmethod
    def from_json(text):
        raw = json.loads(text)
        return PotentialCertificate(
            gamma=tuple(parse_rational(v, f"gamma[{i}]") for i, v in enumerate(raw)))


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


def _recover(n, groups):
    """Influence weights for n players in proportion to the shares of each
    (members, positive shares) group, depth-first from each unweighted
    player in index order: the first member i of a group to be reached sets
    gamma_j = gamma_i * share_j / share_i for the others; components are
    normalized to minimum weight 1.  Returns (weights, None), or (None,
    (g, i, j)) when group g gives j, reached from i, a second weight."""
    incident = [[] for _ in range(n)]  # (group number, own share)
    for g, (members, shares) in enumerate(groups):
        for i, share in zip(members, shares):
            incident[i].append((g, share))
    reached = [False] * len(groups)
    gamma = [None] * n
    for root in range(n):
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
                        return None, (g, i, j)
        low = min(gamma[i] for i in component)
        for i in component:
            gamma[i] /= low
    return tuple(gamma), None


def cc_recover(game):
    """Recover influence weights from split coefficients, or fail with the
    inconsistent edge.

    Only positive-weight edges constrain the weights; shares on zero-weight
    edges are payoff-irrelevant.  Players not on any positive-weight edge
    get weight 1.
    """
    positive = [e for e in game.edges if e.w > 0]
    for e in positive:
        if e.share_ij == 0 or e.share_ij == 1:
            return RecoveryFailure(edge=(e.i, e.j),
                                   reason="share 0 or 1 admits no positive weights")
    gamma, conflict = _recover(game.n, [((e.i, e.j), (e.share_ij, e.share_ji))
                                        for e in positive])
    if conflict is not None:
        return RecoveryFailure(edge=conflict[1:],
                               reason="cycle forces two different weights")
    return PotentialCertificate(gamma=gamma)


def certificate_shares_match(game, cert):
    """Exact round-trip check: every positive-weight edge's split equals
    g_i / (g_i + g_j)."""
    for e in game.edges:
        if e.w == 0:
            continue
        gi, gj = Fraction(cert.gamma[e.i]), cert.gamma[e.j]
        if e.share_ij != gi / (gi + gj):
            return False
    return True


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
    game.validate_profile(profile)
    _check_certificate(game, cert)
    gamma = [Fraction(g) for g in cert.gamma]
    phi = Fraction(0)
    for i in range(game.n):
        phi += game.intrinsic[i][profile[i] - 1] / gamma[i]
    for e in game.edges:
        if profile[e.i] == profile[e.j]:
            phi += e.w / (gamma[e.i] + gamma[e.j])
    return phi


def potential_delta(game, profile, i, new_strategy, cert):
    """Phi(deviated) - Phi(profile) computed from player i's terms only.

    All other terms of the potential cancel exactly, so this equals the
    full difference; a unit test asserts the identity.
    """
    player_utility(game, profile, i, new_strategy)  # validates the arguments
    return _potential_delta(game, profile, i, new_strategy, cert)


def _potential_delta(game, profile, i, new_k, cert):
    old_k = profile[i]
    if old_k == new_k:
        return Fraction(0)
    gi = Fraction(cert.gamma[i])
    delta = (game.intrinsic[i][new_k - 1] - game.intrinsic[i][old_k - 1]) / gi
    weights = game.edge_weight
    for j in game._kernel.nbrs[i]:
        if profile[j] == new_k:
            delta += weights[frozenset((i, j))] / (gi + cert.gamma[j])
        elif profile[j] == old_k:
            delta -= weights[frozenset((i, j))] / (gi + cert.gamma[j])
    return delta


def _audit_one(game, cert, profile, i, new_k):
    """(du, dphi) of one deviation, as exact Fractions."""
    us = game.utilities(profile, i)
    du = us[new_k - 1] - us[profile[i] - 1]
    return du, _potential_delta(game, profile, i, new_k, cert)


def _scaled(values):
    """The values times the lcm of their denominators, as ints.  The scale
    is positive, so every sum of the values keeps its sign."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _sign_rows(game, cert):
    """Per player i, the terms of du and dphi a deviation of i can touch,
    scaled to ints: (intrinsic row, w_i^k / g_i row, [(j, own gain,
    w_ij / (g_i + g_j))] over i's neighbours).  The utility terms are the
    game's integer kernel; the potential terms share one scale per
    player."""
    gamma = [Fraction(g) for g in cert.gamma]
    _, us_rows, nbrs, gains = game._kernel
    rows = []
    for i in range(game.n):
        gi, m = gamma[i], game.m
        ps = _scaled([*(v / gi for v in game.intrinsic[i]),
                      *(game.edge_weight[frozenset((i, j))] / (gi + gamma[j])
                        for j in nbrs[i])])
        rows.append((us_rows[i], ps[:m], list(zip(nbrs[i], gains[i], ps[m:]))))
    return rows


def _same_sign(row, profile, old_k, new_k):
    """Whether du and dphi of moving from old_k to new_k share a sign."""
    own_u, own_p, nbrs = row
    du = own_u[new_k - 1] - own_u[old_k - 1]
    dp = own_p[new_k - 1] - own_p[old_k - 1]
    for j, gain, pot in nbrs:
        k = profile[j]
        if k == new_k:
            du += gain
            dp += pot
        elif k == old_k:
            du -= gain
            dp -= pot
    return (du > 0) - (du < 0) == (dp > 0) - (dp < 0)


def _every_deviation(game):
    for profile in _profiles(game):
        for i in range(game.n):
            for new_k in range(1, game.m + 1):
                if new_k != profile[i]:
                    yield profile, i, new_k


def _sampled_deviations(game, trials, seed):
    rng = random.Random(seed)
    for _ in range(trials):
        profile = tuple(rng.randint(1, game.m) for _ in range(game.n))
        i = rng.randrange(game.n)
        new_k = rng.randint(1, game.m)
        if new_k == profile[i]:
            new_k = new_k % game.m + 1
        yield profile, i, new_k


def ordinal_audit(game, cert, trials=10_000, seed=0):
    """Sampled sign audit: for random (profile, player, deviation) triples,
    the deviating player's utility change and the potential change must have
    the same sign.  Tiny instances (m^n * n * m <= 20_000) are audited
    exhaustively instead; otherwise `trials` must be at least 1, so the
    audit never passes without checking anything.

    Signs are decided in ints, in O(deg) per trial, from per-player rows
    scaled once per audit; the exact Fraction (du, dphi) is computed only
    for the reported counterexample, the first violating triple."""
    _check_certificate(game, cert)
    if game.n == 0 or game.m < 2:
        return AuditReport(trials=0, violations=0, counterexample=None)

    if (game.m ** game.n) * game.n * game.m <= 20_000:
        deviations = _every_deviation(game)
    elif trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    else:
        deviations = _sampled_deviations(game, trials, seed)
    rows = _sign_rows(game, cert)
    done = violations = 0
    counterexample = None
    for profile, i, new_k in deviations:
        done += 1
        if _same_sign(rows[i], profile, profile[i], new_k):
            continue
        violations += 1
        if counterexample is None:
            du, dphi = _audit_one(game, cert, profile, i, new_k)
            counterexample = (profile, i, new_k, du, dphi)
    return AuditReport(trials=done, violations=violations,
                       counterexample=counterexample)
