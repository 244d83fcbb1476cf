import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest

from scg.analysis import deviation_report, verify_approx_strong
from scg.dynamics import (MoveRule, algorithm1_two, best_response, hybrid,
                          one_shot_alpha_br, run_dynamics, sqrt2_three,
                          strong_two)
from scg.generalized import hypergraph_br_dynamics
from scg.generators import (example1, random_cc, random_hypergraph_cc,
                            random_instance)
from scg.model import (Edge, GameInstance, instance_stats, player_utility,
                       welfare_total)
from scg.rationals import SQRT2_APPROX


def two_player(w1, w2, edge_w, share=Fraction(1, 2), m=2):
    rows = [[Fraction(0)] * m for _ in range(2)]
    rows[0][0] = Fraction(w1)
    rows[1][1] = Fraction(w2)
    edges = (Edge(0, 1, Fraction(edge_w), share),) if edge_w else ()
    return GameInstance(n=2, m=m, intrinsic=tuple(map(tuple, rows)),
                        edges=edges)


def test_best_response_factor_conventions():
    g = example1(1)
    k, u, f = best_response(g, (1, 2, 3), 0)
    assert (k, u) == (2, 2)
    assert f == 2 / SQRT2_APPROX
    # staying wins ties
    iso = GameInstance(n=1, m=2, intrinsic=((Fraction(5), Fraction(1)),),
                       edges=())
    assert best_response(iso, (1,), 0) == (1, 5, 1)
    zero = GameInstance(n=1, m=2, intrinsic=((Fraction(0), Fraction(3)),),
                        edges=())
    assert best_response(zero, (1,), 0)[2] == math.inf


def test_dynamics_detect_cycle_when_no_stable_point_exists():
    g = example1(1)
    for start in [(1, 1, 1), (1, 2, 3), (3, 3, 3)]:
        trace = run_dynamics(g, start, MoveRule(Fraction(1)))
        assert trace.reason == "cycle-detected"


def test_dynamics_converge_with_consistent_splits():
    for seed in range(10):
        g, _ = random_cc(5, 3, seed)
        rng = random.Random(seed)
        for _ in range(5):
            start = tuple(rng.randint(1, 3) for _ in range(5))
            trace = run_dynamics(g, start, MoveRule(Fraction(1)))
            assert trace.reason == "converged"
            assert deviation_report(g, trace.terminal).max_factor <= 1


def test_dynamics_stable_start_is_empty_trace():
    g = two_player(2, 2, 0)
    trace = run_dynamics(g, (1, 2), MoveRule(Fraction(1)))
    assert trace.moves == () and trace.reason == "converged"


def test_trace_json_lines():
    g = example1(1)
    _, trace = one_shot_alpha_br(g, 1, Fraction(1))
    lines = trace.to_json_lines().strip().split("\n")
    assert len(lines) == len(trace.moves)
    first = json.loads(lines[0])
    assert set(first) == {"player", "from", "to", "old_utility", "new_utility"}


def test_two_strategy_passes_reach_stability():
    g = two_player(2, 2, 1)
    p = algorithm1_two(g, (1, 1))
    assert deviation_report(g, p).max_factor <= 1
    for seed in range(60):
        g = random_instance(3 + seed % 5, 2, seed)
        p = algorithm1_two(g, tuple([1] * g.n))
        assert deviation_report(g, p).max_factor <= 1


def test_two_strategy_requires_two_strategies():
    with pytest.raises(ValueError):
        algorithm1_two(example1(1), (1, 1, 1))


def coalition_example():
    # singles can't leave (1,1) profitably but the pair can
    return GameInstance(
        n=2, m=2,
        intrinsic=((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))),
        edges=(Edge(0, 1, Fraction(4), Fraction(1, 2)),))


def test_group_move_beats_single_moves():
    g = coalition_example()
    assert algorithm1_two(g, (1, 1)) == (1, 1)  # stable against singles
    assert strong_two(g) == (2, 2)
    assert verify_approx_strong(g, (2, 2), Fraction(1)).verdict == "stable-at-alpha"
    rep = verify_approx_strong(g, (1, 1), Fraction(1))
    assert rep.verdict == "violated" and rep.coalition == (0, 1)


def test_strong_two_edge_free_picks_best_column():
    g = GameInstance(n=3, m=2,
                     intrinsic=((Fraction(1), Fraction(2)),
                                (Fraction(3), Fraction(1)),
                                (Fraction(0), Fraction(1))),
                     edges=())
    assert strong_two(g) == (2, 1, 2)


def test_strong_two_outputs_resist_all_coalitions():
    for seed in range(60):
        g = random_instance(3 + seed % 4, 2, seed + 500)
        p = strong_two(g)
        assert verify_approx_strong(g, p, Fraction(1)).verdict == "stable-at-alpha"


def test_maximal_coalition_matches_exhaustive_search():
    from scg.dynamics import _max_improving_coalition
    for seed in range(40):
        g = random_instance(5, 2, seed + 900)
        profile = tuple([1] * 5)
        got = _max_improving_coalition(g, profile, 1, 2)
        best = set()
        members = [i for i in range(5) if profile[i] == 1]
        for size in range(len(members), 0, -1):
            for combo in itertools.combinations(members, size):
                moved = tuple(2 if i in combo else s
                              for i, s in enumerate(profile))
                if all(player_utility(g, moved, i)[0]
                       > player_utility(g, profile, i)[0] for i in combo):
                    best = set(combo)
                    break
            if best:
                break
        assert got == best


def test_three_strategy_gate_blocks_below_sqrt2():
    g = example1(1)
    p = sqrt2_three(g)
    assert deviation_report(g, p).max_factor <= Fraction(141422, 100000)


def test_three_strategy_dominant_column():
    g = GameInstance(n=2, m=3,
                     intrinsic=((Fraction(5), Fraction(0), Fraction(0)),
                                (Fraction(5), Fraction(0), Fraction(0))),
                     edges=(Edge(0, 1, Fraction(2), Fraction(1, 2)),))
    assert sqrt2_three(g) == (1, 1)
    with pytest.raises(ValueError):
        sqrt2_three(two_player(1, 1, 1))


def test_one_shot_traces_on_cyclic_instance():
    g = example1(1)
    p, trace = one_shot_alpha_br(g, 1, Fraction(1))
    assert p == (2, 2, 3)
    assert [(m.player, m.to_strategy) for m in trace.moves] == [
        (1, 2), (0, 2), (2, 3)]
    p2, trace2 = one_shot_alpha_br(g, 1, Fraction(1618, 1000))
    assert p2 == (1, 1, 1) and trace2.moves == ()


def test_one_shot_movers_move_at_most_once():
    for seed in range(60):
        g = random_instance(3 + seed % 5, 2 + seed % 3, seed + 1300)
        for alpha in (Fraction(1), Fraction(3, 2)):
            p, trace = one_shot_alpha_br(g, 1, alpha)
            movers = [m.player for m in trace.moves]
            assert len(movers) == len(set(movers))
            for m in trace.moves:
                assert m.from_strategy == 1 and m.to_strategy != 1


def test_one_shot_gate_respects_alpha():
    for seed in range(40):
        g = random_instance(4, 3, seed + 1700)
        for alpha in (Fraction(1), Fraction(2)):
            _, trace = one_shot_alpha_br(g, 1, alpha)
            for m in trace.moves:
                if m.old_utility == 0:
                    assert m.new_utility > 0
                else:
                    assert m.new_utility >= alpha * m.old_utility
                    assert m.new_utility > m.old_utility


def test_one_shot_rejects_bad_arguments():
    g = example1(1)
    with pytest.raises(ValueError):
        one_shot_alpha_br(g, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        one_shot_alpha_br(g, 5, Fraction(1))
    with pytest.raises(ValueError, match="alpha: expected an int or Fraction"):
        MoveRule(1.5)
    for k0 in (1.0, True):  # used to start from a float or bool profile
        with pytest.raises(ValueError, match="starting strategy: expected"):
            one_shot_alpha_br(g, k0, Fraction(1))


@pytest.mark.parametrize("call,message", [
    (lambda: strong_two(example1(1)),
     "strong_two requires exactly two strategies"),
    (lambda: hybrid(two_player(4, 5, 6), Fraction(2), opt_welfare=0),
     "optimum welfare must be positive"),
    (lambda: run_dynamics(two_player(4, 5, 6), (1, 1), step_cap=0),
     "step_cap must be >= 1"),
    (lambda: hypergraph_br_dynamics(random_hypergraph_cc(3, 2, 0)[0],
                                    (1, 1, 1), step_cap=0),
     "step_cap must be >= 1"),
], ids=["strong-two-m", "hybrid-optimum", "run-dynamics-step-cap",
        "hypergraph-step-cap"])
def test_rejections_give_their_exact_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_best_of_two_runs_matches_exhaustive_optimum():
    g = two_player(4, 5, 6)
    from scg.analysis import brute_force_optimum
    _, opt = brute_force_optimum(g)
    rep = hybrid(g, Fraction(2), opt_welfare=opt)
    assert rep.chosen == (2, 2)
    assert rep.rho == 1


def test_best_of_two_runs_single_strategy():
    g = GameInstance(n=2, m=1, intrinsic=((Fraction(3),), (Fraction(4),)),
                     edges=(Edge(0, 1, Fraction(2), Fraction(1, 2)),))
    rep = hybrid(g, Fraction(2), opt_welfare=Fraction(9))
    assert rep.chosen == (1, 1) and rep.rho == 1


def test_best_of_two_runs_rejects_out_of_range_alpha():
    g = two_player(4, 5, 6)
    with pytest.raises(ValueError):
        hybrid(g, Fraction(3, 2))
    with pytest.raises(ValueError):
        hybrid(g, Fraction(5, 2))


def test_chosen_profile_is_stable_at_alpha():
    for seed in range(40):
        g = random_instance(4, 3, seed + 2100)
        for alpha in (Fraction(1618, 1000), Fraction(2)):
            rep = hybrid(g, alpha)
            bound = max(alpha, 1 / (alpha - 1))
            assert deviation_report(g, rep.chosen).max_factor <= bound
            assert rep.chosen_welfare == max(rep.welfare_s1, rep.welfare_s2)


def test_one_shot_welfare_floor_from_intrinsic_total():
    for seed in range(60):
        g = random_instance(4, 3, seed + 2500)
        stats = instance_stats(g)
        for alpha in (Fraction(1), Fraction(2)):
            k_star = stats.k_star
            p, _ = one_shot_alpha_br(g, k_star, alpha)
            assert welfare_total(g, p) * alpha >= stats.a_total
