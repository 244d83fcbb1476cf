import itertools
import json
import random
from fractions import Fraction

import pytest

from scg.generalized import (Hyperedge, HypergraphGame, additive_tables,
                             hypergraph_cc_recover, hypergraph_potential)
from scg.generators import (example1, random_cc, random_hypergraph_cc,
                            random_instance, random_supermodular,
                            random_symmetric)
from scg.model import Edge, GameInstance, player_utility
from scg.potentials import (PotentialCertificate, RecoveryFailure, cc_recover,
                            certificate_shares_match, ordinal_audit,
                            potential_delta, potential_value)
from scg.rationals import ParseError
from test_kernel_properties import reference_groups


def test_even_splits_recover_unit_weights():
    g = random_symmetric(5, 3, 0)
    cert = cc_recover(g)
    assert isinstance(cert, PotentialCertificate)
    assert cert.gamma == (Fraction(1),) * 5


def test_triangle_of_shares_recovers_ratios():
    g = GameInstance(
        n=3, m=2,
        intrinsic=((Fraction(1), Fraction(0)),) * 3,
        edges=(Edge(0, 1, Fraction(1), Fraction(1, 3)),
               Edge(0, 2, Fraction(1), Fraction(1, 4)),
               Edge(1, 2, Fraction(1), Fraction(2, 5))))
    cert = cc_recover(g)
    assert cert.gamma == (Fraction(1), Fraction(2), Fraction(3))
    assert certificate_shares_match(g, cert)


def test_one_sided_split_fails_immediately():
    res = cc_recover(example1(1))
    assert isinstance(res, RecoveryFailure)
    assert "share 0 or 1" in res.reason


def test_inconsistent_cycle_reports_witness_edge():
    g = GameInstance(
        n=3, m=2,
        intrinsic=((Fraction(1), Fraction(0)),) * 3,
        edges=(Edge(0, 1, Fraction(1), Fraction(1, 3)),
               Edge(0, 2, Fraction(1), Fraction(1, 4)),
               Edge(1, 2, Fraction(1), Fraction(1, 2))))
    res = cc_recover(g)
    assert isinstance(res, RecoveryFailure)


def test_recovery_round_trip_on_generated_weights():
    for seed in range(30):
        g, gamma = random_cc(6, 3, seed)
        cert = cc_recover(g)
        assert isinstance(cert, PotentialCertificate)
        assert certificate_shares_match(g, cert)


def test_untouched_players_get_unit_weight():
    g = GameInstance(n=3, m=2,
                     intrinsic=((Fraction(1), Fraction(0)),) * 3,
                     edges=(Edge(0, 1, Fraction(1), Fraction(1, 3)),))
    cert = cc_recover(g)
    assert cert.gamma[2] == 1
    assert min(cert.gamma[:2]) == 1


def test_potential_evaluation():
    g = GameInstance(n=2, m=2,
                     intrinsic=((Fraction(3), Fraction(0)),
                                (Fraction(0), Fraction(0))),
                     edges=(Edge(0, 1, Fraction(4), Fraction(1, 2)),))
    cert = PotentialCertificate(gamma=(Fraction(1), Fraction(1)))
    assert potential_value(g, (1, 1), cert) == 5
    edge_free = GameInstance(n=2, m=2,
                             intrinsic=((Fraction(3), Fraction(0)),
                                        (Fraction(0), Fraction(7))),
                             edges=())
    cert2 = PotentialCertificate(gamma=(Fraction(1), Fraction(2)))
    assert potential_value(edge_free, (1, 2), cert2) == 3 + Fraction(7, 2)
    with pytest.raises(ValueError):
        potential_value(g, (1, 1), PotentialCertificate(gamma=(Fraction(1),)))


def test_local_delta_equals_full_difference():
    for seed in range(15):
        g, _ = random_cc(5, 3, seed + 50)
        cert = cc_recover(g)
        rng = random.Random(seed)
        for _ in range(40):
            profile = tuple(rng.randint(1, 3) for _ in range(5))
            i = rng.randrange(5)
            k = rng.randint(1, 3)
            moved = profile[:i] + (k,) + profile[i + 1:]
            assert (potential_delta(g, profile, i, k, cert)
                    == potential_value(g, moved, cert)
                    - potential_value(g, profile, cert))


def test_zero_change_deviation():
    g, _ = random_cc(4, 2, 3)
    cert = cc_recover(g)
    assert potential_delta(g, (1, 1, 2, 2), 0, 1, cert) == 0


def test_audit_clean_on_consistent_instances():
    for seed in range(20):
        g, _ = random_cc(5, 3, seed + 200)
        cert = cc_recover(g)
        rep = ordinal_audit(g, cert, trials=2000, seed=seed)
        assert rep.ok and rep.trials > 0


def test_audit_finds_violation_under_forced_certificate():
    g = example1(1)
    fake = PotentialCertificate(gamma=(Fraction(1),) * 3)
    rep = ordinal_audit(g, fake, trials=2000, seed=0)
    assert rep.violations > 0 and rep.counterexample is not None
    profile, i, k, du, dphi = rep.counterexample
    # replay the counterexample
    replayed = (player_utility(g, profile, i, strategy=k)[0]
                - player_utility(g, profile, i)[0])
    assert replayed == du
    sign = lambda x: (x > 0) - (x < 0)
    assert sign(du) != sign(dphi)


def test_symmetric_instances_have_an_exact_potential():
    # with even splits the potential change equals the mover's utility change
    for seed in range(10):
        g = random_symmetric(5, 3, seed + 400)
        cert = cc_recover(g)
        rng = random.Random(seed)
        for _ in range(30):
            profile = tuple(rng.randint(1, 3) for _ in range(5))
            i = rng.randrange(5)
            k = rng.randint(1, 3)
            du = (player_utility(g, profile, i, strategy=k)[0]
                  - player_utility(g, profile, i)[0])
            assert potential_delta(g, profile, i, k, cert) == du


def test_certificate_json_round_trip():
    cert = PotentialCertificate(gamma=(Fraction(1), Fraction(7, 3)))
    assert PotentialCertificate.from_json(cert.to_json()) == cert


@pytest.mark.parametrize("text,message", [
    ('"12"', "gamma: expected a list$"),
    ('{"3": 1}', "gamma: expected a list$"),
    ("5", "gamma: expected a list$"),
    ("[1, 2", "gamma: malformed JSON: "),
    ("[1, true]", "gamma\\[1\\]: expected rational string, got bool$"),
    ('["1", "+3/ 4"]', "gamma\\[1\\]: not a rational: '\\+3/ 4'$"),
], ids=["string", "object", "number", "malformed", "boolean", "grammar"])
def test_certificate_decodes_like_a_game_file(text, message):
    """A certificate is a JSON list of rationals; anything else is a
    ParseError naming gamma, never weights read off a string or keys."""
    with pytest.raises(ParseError, match=f"^{message}"):
        PotentialCertificate.from_json(text)


@pytest.mark.parametrize("trials", [0, -3])
def test_sampled_audit_requires_a_trial(trials):
    """At n = 12 the audit samples; a 3-player game is audited
    exhaustively, and is refused all the same."""
    for n in (12, 3):
        g, _ = random_cc(n, 3, 0)
        with pytest.raises(ValueError, match=f"^trials must be >= 1, got "
                                             f"{trials}$"):
            ordinal_audit(g, cc_recover(g), trials=trials)


@pytest.mark.parametrize("name, value", [
    ("trials", True), ("trials", 2.5), ("trials", 0.5), ("trials", "3"),
    ("seed", 1.5), ("seed", "x"), ("seed", None), ("seed", False)])
def test_audit_takes_int_trials_and_seed(name, value):
    """trials and seed are ints, bools refused, on the sampled and the
    exhaustive path alike; a non-int trial count is refused before it is
    compared with 1."""
    for n in (12, 3):
        g, _ = random_cc(n, 3, 1)
        with pytest.raises(ValueError, match=f"^{name}: expected an int, got "
                                             f"{type(value).__name__}$"):
            ordinal_audit(g, cc_recover(g), **{name: value})


def test_int_weights_and_values_give_fractions():
    g = GameInstance(n=2, m=2, intrinsic=((1, 2), (3, 1)),
                     edges=(Edge(0, 1, 2, 1),))
    cert = PotentialCertificate(gamma=(1, 3))
    phi = potential_value(g, (1, 1), cert)
    delta = potential_delta(g, (1, 1), 0, 2, cert)
    assert (type(phi), phi) == (Fraction, Fraction(5, 2))
    assert (type(delta), delta) == (Fraction, Fraction(1, 2))
    *_, du, dphi = ordinal_audit(g, cert).counterexample
    assert (type(du), type(dphi)) == (Fraction, Fraction)
    thirds = GameInstance(n=2, m=1, intrinsic=((1,), (1,)),
                          edges=(Edge(0, 1, 2, Fraction(1, 3)),))
    assert certificate_shares_match(thirds, PotentialCertificate(gamma=(1, 2)))


@pytest.mark.parametrize("gamma,message", [
    ((1.0, 1, 1, 1), "gamma\\[0\\]: expected an int or Fraction, got float"),
    ((1, 0, 1, 1), "gamma\\[1\\]: weight must be positive, got 0"),
    ((1, 2), "certificate must weight every player"),
], ids=["float", "zero", "short"])
def test_share_check_refuses_a_bad_certificate(gamma, message):
    """`certificate_shares_match` checks its certificate as the potential
    and the audit do, instead of answering False or failing inside."""
    g, _ = random_cc(4, 3, 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        certificate_shares_match(g, PotentialCertificate(gamma=gamma))


@pytest.mark.parametrize("weight", ["0", "-2/3"])
def test_nonpositive_weight_is_named(weight):
    g, _ = random_cc(4, 3, 1)
    cert = PotentialCertificate.from_json(json.dumps(["1", weight, "1", "2"]))
    with pytest.raises(ValueError, match="gamma\\[1\\]"):
        ordinal_audit(g, cert)
    with pytest.raises(ValueError, match="gamma\\[1\\]"):
        potential_value(g, (1, 1, 1, 1), cert)


@pytest.mark.parametrize("weight,kind", [(0.5, "float"), (True, "bool"),
                                         ("2", "str")])
def test_inexact_weight_is_named(weight, kind):
    g, _ = random_cc(4, 3, 1)
    cert = PotentialCertificate(gamma=(1, weight, 1, 2))
    with pytest.raises(ValueError, match=(
            f"^gamma\\[1\\]: expected an int or Fraction, got {kind}$")):
        potential_value(g, (1, 1, 1, 1), cert)


def test_hypergraph_audit_is_clean_and_catches_a_scaled_weight():
    caught = 0
    for n in range(8, 21, 3):
        for seed in range(2):
            hg, _ = random_hypergraph_cc(n, 3, seed)
            cert = hypergraph_cc_recover(hg)
            rep = ordinal_audit(hg, cert, trials=500, seed=seed)
            assert rep.ok and rep.trials == 500
            gamma = list(cert.gamma)
            gamma[0] *= 7
            bad = ordinal_audit(hg, PotentialCertificate(gamma=tuple(gamma)),
                                trials=500, seed=seed)
            caught += bad.violations
            if bad.counterexample is not None:
                profile, i, k, du, dphi = bad.counterexample
                us = hg.utilities(profile, i)
                assert du == us[k - 1] - us[profile[i] - 1]
                assert (du > 0) - (du < 0) != (dphi > 0) - (dphi < 0)
    assert caught > 0


def test_pairwise_game_audits_as_its_hypergraph():
    """A pairwise game and the hypergraph of its groups (anchored
    singletons for intrinsic values, pairs for edges) have the same
    utilities, potential and audit."""
    g, _ = random_cc(4, 3, 11)
    hg = HypergraphGame(n=g.n, m=g.m, edges=tuple(
        Hyperedge(players=members, weight=w, shares=shares, anchor=anchor)
        for members, w, shares, anchor in reference_groups(g)))
    cert = cc_recover(g)
    assert hypergraph_cc_recover(hg) == cert
    fake = PotentialCertificate(gamma=(1, 5, 1, 2))
    for profile in itertools.product(range(1, 4), repeat=4):
        for i in range(4):
            assert hg.utilities(profile, i) == g.utilities(profile, i)
            assert player_utility(hg, profile, i) == player_utility(g, profile, i)
        assert (potential_value(hg, profile, fake)
                == potential_value(g, profile, fake))
    assert ordinal_audit(hg, fake) == ordinal_audit(g, fake)
    assert ordinal_audit(g, fake).violations > 0


TABLE = random_supermodular(3, 2, 1, 1)
UNIT = PotentialCertificate(gamma=(Fraction(1),) * 3)


@pytest.mark.parametrize("call", [
    lambda: cc_recover(TABLE),
    lambda: hypergraph_cc_recover(TABLE),
    lambda: certificate_shares_match(TABLE, UNIT),
    lambda: potential_value(TABLE, (1, 1, 1), UNIT),
    lambda: hypergraph_potential(TABLE, (1, 1, 1), UNIT),
    lambda: potential_delta(TABLE, (1, 1, 1), 0, 2, UNIT),
    lambda: ordinal_audit(TABLE, UNIT),
    lambda: ordinal_audit(random_supermodular(3, 1, 1, 1), UNIT),
    lambda: additive_tables(TABLE),
], ids=["cc_recover", "hypergraph_cc_recover", "certificate_shares_match",
        "potential_value", "hypergraph_potential", "potential_delta",
        "ordinal_audit", "ordinal_audit-one-strategy", "additive_tables"])
def test_every_reader_of_the_group_list_refuses_a_table(call):
    with pytest.raises(ValueError, match="^a utility table has no group "
                                         "list: weight recovery, "):
        call()
