import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from scg.analysis import (SizeError, StrongDeviationReport,
                          brute_force_optimum, deviation_report,
                          equilibrium_census, mip_check, payment_stabilize,
                          post_payment_deviation_report, semi_smoothness_check,
                          table_fraction, verify_approx_strong,
                          welfare_lower_bound)
from scg.dynamics import hybrid, one_shot_alpha_br
from scg.generalized import (Hyperedge, HypergraphGame, OmegaGame,
                             one_shot_generalized, verify_omega_strong)
from scg.generators import (example1, prop5, random_hypergraph_cc,
                            random_instance, random_supermodular,
                            random_symmetric)
from scg.model import Edge, GameInstance, welfare_total


def two_player(w1=4, w2=5, edge_w=6):
    return GameInstance(
        n=2, m=2,
        intrinsic=((Fraction(w1), Fraction(0)), (Fraction(0), Fraction(w2))),
        edges=(Edge(0, 1, Fraction(edge_w), Fraction(1, 2)),))


def test_deviation_report_on_cyclic_instance():
    g = example1(1)
    rep = deviation_report(g, (1, 2, 3))
    assert abs(float(rep.max_factor) - 1.41421) < 1e-4
    assert not rep.is_alpha_equilibrium(Fraction(14142, 10000))
    assert rep.is_alpha_equilibrium(Fraction(14143, 10000))


def test_every_profile_of_cyclic_instance_is_unstable():
    import itertools
    g = example1(1)
    threshold = Fraction(14142, 10000)
    for p in itertools.product((1, 2, 3), repeat=3):
        assert deviation_report(g, p).max_factor >= threshold


def test_stable_profile_has_factor_at_most_one():
    g = two_player()
    assert deviation_report(g, (1, 2)).max_factor <= 1


def test_exhaustive_optimum():
    g = two_player()
    assert brute_force_optimum(g) == ((2, 2), Fraction(11))
    g1 = example1(1)
    profile, w = brute_force_optimum(g1)
    assert profile == (1, 1, 1)  # three-way tie broken lexicographically
    assert abs(float(w) - 5.4142) < 1e-3
    edge_free = GameInstance(n=2, m=2,
                             intrinsic=((Fraction(3), Fraction(1)),
                                        (Fraction(0), Fraction(2))),
                             edges=())
    assert brute_force_optimum(edge_free) == ((1, 2), Fraction(5))


def test_size_guard():
    g = random_instance(25, 3, 0)
    with pytest.raises(SizeError):
        brute_force_optimum(g)
    with pytest.raises(SizeError):
        equilibrium_census(g, Fraction(1))
    with pytest.raises(SizeError):
        verify_approx_strong(g, tuple([1] * 25), Fraction(1))


def test_search_scans_a_game_without_a_rest_free_kernel():
    """A table game has no integer kernel and this hypergraph has groups of
    three, so the optimum, census and semi-smoothness check scan every
    profile; they equal a flat scan of the Fraction utilities."""
    hg = random_hypergraph_cc(3, 2, 0)[0]
    tables = random_supermodular(3, 2, 1, 0)
    assert hg._kernel.rest
    for game in (hg, tables):
        profiles = list(itertools.product(range(1, game.m + 1),
                                          repeat=game.n))
        vectors = {p: [game.utilities(p, i) for i in range(game.n)]
                   for p in profiles}
        welfare = {p: sum(us[k - 1] for us, k in zip(vectors[p], p))
                   for p in profiles}
        opt = max(profiles, key=welfare.get)  # the first maximum
        assert brute_force_optimum(game) == (opt, welfare[opt])
        for alpha in (Fraction(1), Fraction(2)):
            eq = tuple(p for p in profiles
                       if all(max(us) <= alpha * us[k - 1]
                              for us, k in zip(vectors[p], p)))
            census = equilibrium_census(game, alpha)
            assert census.equilibria == eq
            assert census.equilibrium_welfares == tuple(welfare[p]
                                                         for p in eq)
        ones = (1,) * game.n
        assert semi_smoothness_check(game, ones) == (
            sum(map(sum, vectors[ones])) >= welfare[opt])


def test_group_deviation_witness():
    g = GameInstance(
        n=2, m=2,
        intrinsic=((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))),
        edges=(Edge(0, 1, Fraction(4), Fraction(1, 2)),))
    rep = verify_approx_strong(g, (1, 1), Fraction(1))
    assert rep.verdict == "violated"
    assert rep.witness_profile == (2, 2) and rep.coalition == (0, 1)
    assert verify_approx_strong(g, (2, 2), Fraction(1)).verdict == "stable-at-alpha"


def test_oracles_on_degenerate_games():
    empty = GameInstance(n=0, m=3, intrinsic=(), edges=())
    assert brute_force_optimum(empty) == ((), 0)
    assert equilibrium_census(empty, Fraction(1, 2)).equilibria == ()
    assert equilibrium_census(empty, Fraction(1)).equilibria == ((),)
    single = GameInstance(n=2, m=1, intrinsic=((Fraction(1),), (Fraction(2),)),
                          edges=(Edge(0, 1, Fraction(3), Fraction(1, 2)),))
    assert not equilibrium_census(single, Fraction(1, 2)).exists
    assert equilibrium_census(single, Fraction(1)).exists


def test_strong_check_on_degenerate_games():
    # m = 1 leaves every player one strategy: nothing to deviate to, and a
    # search that recursed per player would overflow the stack here
    n = 3000
    line = GameInstance(
        n=n, m=1, intrinsic=((Fraction(1),),) * n,
        edges=tuple(Edge(i, i + 1, Fraction(2), Fraction(1, 3))
                    for i in range(n - 1)))
    for alpha in (Fraction(0), Fraction(1)):
        rep = verify_approx_strong(line, (1,) * n, alpha)
        assert rep == StrongDeviationReport("stable-at-alpha", alpha)
    empty = GameInstance(n=0, m=3, intrinsic=(), edges=())
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(2)):
        rep = verify_approx_strong(empty, (), alpha)
        assert rep == StrongDeviationReport("stable-at-alpha", alpha)


@pytest.mark.parametrize("alpha", [0.1, True, "3/2"])
def test_group_checks_and_census_refuse_an_inexact_alpha(alpha):
    g = two_player()
    og = OmegaGame(n=2, m=2, a=(1, 1), b=(1, 1),
                   labels=(("zero", "one"), ("one", "zero")),
                   omega=Fraction(1, 2))
    message = (f"^alpha: expected an int or Fraction, "
               f"got {type(alpha).__name__}$")
    for check in (lambda: verify_approx_strong(g, (1, 2), alpha),
                  lambda: equilibrium_census(g, alpha),
                  lambda: verify_omega_strong(og, (1, 1), alpha)):
        with pytest.raises(ValueError, match=message):
            check()
    # an int is exact and means the same as its Fraction
    assert (verify_approx_strong(g, (1, 2), 1)
            == verify_approx_strong(g, (1, 2), Fraction(1)))
    assert equilibrium_census(g, 1) == equilibrium_census(g, Fraction(1))


def test_strong_check_keeps_fractional_baselines():
    # scale 1: the baseline 1/2 used to be truncated to 0, so the move to
    # 2/5 looked like an infinite improvement
    g = HypergraphGame(n=1, m=2, edges=(
        Hyperedge((0,), Fraction(1, 2), (Fraction(1),), 1),
        Hyperedge((0,), Fraction(2, 5), (Fraction(1),), 2)))
    assert deviation_report(g, (1,)).max_factor == 1
    rep = verify_approx_strong(g, (1,), Fraction(1))
    assert rep.verdict == "stable-at-alpha" and rep.witness_profile is None


def test_census_flags_nonexistence():
    c = equilibrium_census(example1(1), Fraction(1))
    assert not c.exists and c.equilibria == ()
    assert c.poa is None and c.pos is None
    assert c.opt_profile == (1, 1, 1)


def test_census_reports_exact_ratios():
    g = prop5(3, 1, Fraction(1, 100))
    c = equilibrium_census(g, Fraction(1))
    assert c.exists
    welfares = [welfare_total(g, p) for p in c.equilibria]
    assert c.pos == c.opt_welfare / max(welfares)
    assert c.poa == c.opt_welfare / min(welfares)
    assert c.pos > 1  # the stable arrangements all waste welfare here


def test_symmetric_census_stability_gap():
    for seed in range(40):
        m = 2 + seed % 3
        g = random_symmetric(4, m, seed)
        c = equilibrium_census(g, Fraction(1))
        if c.exists:
            assert c.pos <= 2 - Fraction(1, m)


def test_closed_form_fraction_values():
    assert welfare_lower_bound(Fraction(2), Fraction(1), 4) == Fraction(4, 7)
    assert welfare_lower_bound(Fraction(2), Fraction(10), 4) == Fraction(1, 4)
    assert welfare_lower_bound(Fraction(2), Fraction(1), 1) == 1
    assert welfare_lower_bound(Fraction(2), math.inf, 4) == Fraction(1, 4)
    assert welfare_lower_bound(Fraction(2), Fraction(1), math.inf) == Fraction(1, 2)
    with pytest.raises(ValueError):
        welfare_lower_bound(Fraction(3, 2), Fraction(1), 4)
    with pytest.raises(ValueError):
        welfare_lower_bound(Fraction(2), Fraction(1, 2), 4)


@pytest.mark.parametrize("value", [1.7, True, "7/4"])
def test_bounds_and_one_shots_refuse_an_inexact_alpha_or_gamma(value):
    g = two_player()
    gg = random_supermodular(3, 2, 1, 1)
    message = "^{}: expected an int or Fraction, got " + type(value).__name__
    for check in (lambda: hybrid(g, value),
                  lambda: welfare_lower_bound(value, 1, 3),
                  lambda: table_fraction(value, 1, 3),
                  lambda: one_shot_alpha_br(g, 1, value),
                  lambda: one_shot_generalized(gg, 1, value)):
        with pytest.raises(ValueError, match=message.format("alpha")):
            check()
    for check in (lambda: welfare_lower_bound(2, value, 3),
                  lambda: table_fraction(2, value, 3)):
        with pytest.raises(ValueError, match=message.format("gamma")):
            check()


@pytest.mark.parametrize("m", [3.0, True, Fraction(3), "3"])
def test_bounds_refuse_a_non_int_m(m):
    for bound in (welfare_lower_bound, table_fraction):
        with pytest.raises(ValueError, match="^m must be an integer"):
            bound(2, 1, m)


def test_bounds_and_one_shots_take_exact_ints():
    # an int is exact and means the same as its Fraction; inf stays allowed
    g = two_player()
    assert welfare_lower_bound(2, 1, 3) == Fraction(3, 5)
    assert table_fraction(2, 10, 4) == table_fraction(Fraction(2), 10, 4)
    assert welfare_lower_bound(2, math.inf, math.inf) == 0
    assert hybrid(g, 2) == hybrid(g, Fraction(2))
    assert one_shot_alpha_br(g, 1, 1) == one_shot_alpha_br(g, 1, Fraction(1))
    gg = random_supermodular(3, 2, 1, 1)
    assert one_shot_generalized(gg, 1, 3) == one_shot_generalized(
        gg, 1, Fraction(3))


def test_table_fraction_never_below_guarantee():
    for alpha in (Fraction(1618, 1000), Fraction(2)):
        for gamma in (Fraction(1), Fraction(2), Fraction(10), math.inf):
            for m in (2, 4, 7, math.inf):
                assert (table_fraction(alpha, gamma, m)
                        >= welfare_lower_bound(alpha, gamma, m))


def test_payment_plan_example():
    g = two_player()
    plan = payment_stabilize(g, (2, 2), Fraction(11))
    assert plan.payments == (Fraction(1), Fraction(0))
    assert plan.nu == Fraction(1, 11)
    post = post_payment_deviation_report(g, (2, 2), plan)
    assert post.max_factor <= 1


def test_payments_zero_at_stable_profile():
    g = two_player()
    # (2,2) is already the unique stable point? no: player 1 gains by leaving
    plan = payment_stabilize(g, (1, 2), Fraction(11))
    # at (1,2): p0 gets 4 (best alt 3), p1 gets 5 (best alt 3): both stable
    assert plan.payments == (Fraction(0), Fraction(0))


def test_payment_argument_errors():
    g = two_player()
    with pytest.raises(ValueError):
        payment_stabilize(g, (2, 2), Fraction(0))
    # a float optimum would make nu and rho floats
    message = "^opt_welfare: expected an int or Fraction, got float$"
    with pytest.raises(ValueError, match=message):
        payment_stabilize(example1(1), (1, 2, 3), 2.5)
    with pytest.raises(ValueError, match=message):
        hybrid(example1(1), 2, opt_welfare=2.5)
    assert type(payment_stabilize(g, (2, 2), 11).nu) is Fraction
    assert type(hybrid(g, 2, opt_welfare=11).rho) is Fraction
    plan = payment_stabilize(g, (2, 2), Fraction(11))
    for payments, where in (((Fraction(-1), Fraction(0)), r"\[0\]: negative"),
                            ((Fraction(1), 0.5), r"payments\[1\]"),
                            ((Fraction(1),), "every player")):
        with pytest.raises(ValueError, match=where):
            post_payment_deviation_report(
                g, (2, 2), dataclasses.replace(plan, payments=payments))


def test_uniform_deviation_inequality():
    rng = random.Random(7)
    for seed in range(30):
        n, m = 3 + seed % 3, 2 + seed % 3
        g = random_instance(n, m, seed + 4000)
        for _ in range(5):
            profile = tuple(rng.randint(1, m) for _ in range(n))
            assert semi_smoothness_check(g, profile)
    single = GameInstance(n=2, m=1, intrinsic=((Fraction(1),), (Fraction(2),)),
                          edges=())
    assert semi_smoothness_check(single, (1, 1))


def test_intrinsic_floor_condition():
    g = two_player()
    opt_p, _ = brute_force_optimum(g)
    assert mip_check(g, opt_p)
    # all at the strategy with the largest intrinsic column
    from scg.model import instance_stats
    k = instance_stats(g).k_star
    assert mip_check(g, tuple([k] * g.n))
    dominant = GameInstance(n=2, m=2,
                            intrinsic=((Fraction(9), Fraction(0)),
                                       (Fraction(9), Fraction(0))),
                            edges=())
    assert not mip_check(dominant, (2, 2))
