"""Tests for the benchmark tracer.

Run from the repository root (the tier-1 suite does not collect them):

    python3 -m pytest bench -q
"""

from __future__ import annotations

import inspect
import math
import sys

import pytest

import run
import tracer as tracer_mod
from tracer import Tracer
from workloads import WORKLOADS, digest

SEED = 7
# Cheap jobs of each workload; for tables-potentials one job per family.
JOBS = {
    "dynamics-sparse": (0,),
    "census-exhaustive": (0, 1),
    "tables-potentials": (0, 4, 6, 14),
    "cli-pipeline": (0,),
}


@pytest.fixture(scope="module")
def scg():
    sys.path.insert(0, str(run.SRC))
    run.WORKDIR.mkdir(exist_ok=True)
    return run.import_scg()


@pytest.fixture(scope="module")
def job_lists(scg):
    return {name: make(scg, SEED, run.WORKDIR)
            for name, (make, _run) in WORKLOADS.items()}


def _digests(scg, job_lists):
    return {name: [digest(WORKLOADS[name][1](scg, job_lists[name][i])[0])
                   for i in idx]
            for name, idx in JOBS.items()}


def _scg_functions():
    return {(modname, attr): value
            for modname, mod in list(sys.modules.items())
            if modname == "scg" or modname.startswith("scg.")
            for attr, value in vars(mod).items()
            if inspect.isfunction(value)}


def test_traced_and_untraced_outputs_match(scg, job_lists):
    untraced = _digests(scg, job_lists)
    with Tracer() as t:
        traced = _digests(scg, job_lists)
    assert traced == untraced
    for name in ("model.player_utility", "analysis.equilibrium_census",
                 "generalized.supermodularity_degree", "cli.main"):
        assert t.n_calls(name) > 0, name


def test_call_counts_repeat_exactly(scg, job_lists):
    runs = []
    for _ in range(2):
        with Tracer() as t:
            _digests(scg, job_lists)
        runs.append((t.call_counts(), dict(t.counts)))
    assert runs[0] == runs[1]
    assert runs[0][1]["analysis.profiles_enumerated"] > 0


def test_wrappers_reach_every_binding_and_are_removed(scg):
    before = _scg_functions()
    originals = (scg.model.player_utility,
                 scg.model.GameInstance.validate_profile,
                 scg.generalized.GeneralizedGame.utility_in_profile)
    with Tracer():
        wrapped = scg.model.player_utility
        assert wrapped is not originals[0]
        # `from .model import player_utility` copies and the re-export
        assert scg.dynamics.player_utility is wrapped
        assert scg.analysis.player_utility is wrapped
        assert scg.potentials.player_utility is wrapped
        assert scg.player_utility is wrapped
        assert scg.cli.model.parse_instance is scg.parse_instance
        assert scg.model.GameInstance.validate_profile is not originals[1]
        assert (scg.generalized.GeneralizedGame.utility_in_profile
                is not originals[2])
    assert _scg_functions() == before
    assert scg.model.GameInstance.validate_profile is originals[1]
    assert scg.generalized.GeneralizedGame.utility_in_profile is originals[2]


def test_self_times_add_up_to_the_outer_span(scg, job_lists):
    game = job_lists["census-exhaustive"][0]
    with Tracer() as t:
        scg.equilibrium_census(game, 1)
    outer = t.total_time("analysis.equilibrium_census")
    assert math.isclose(sum(t.self_s), outer, rel_tol=1e-9)
    assert t.n_calls("analysis.deviation_report") == game.m ** game.n


def test_lex_rank_follows_product_order():
    assert tracer_mod._lex_rank((1, 1, 1), 3) == 1
    assert tracer_mod._lex_rank((1, 1, 2), 3) == 2
    assert tracer_mod._lex_rank((3, 3, 3), 3) == 27
