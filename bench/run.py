"""Benchmark runner for scg.

Run from the repository root:

    python3 bench/run.py --workload dynamics-sparse --seed 1 --seconds 20 --trace 0

One process, one client, one job after another (a closed loop).  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs a fixed number of
jobs once untraced and once traced, and reports the per-layer metrics.  Job
failures and a short summary go to stderr.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibration import REF_S, burst, scale
from tracer import Tracer
from workloads import WORKLOADS, digest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH_DIR / "reference.json"
WORKDIR = ROOT / ".bench_work"

DEFAULT_SEED = 1
SETUP_REPS = 3      # set-ups per run; setup_s is their median
MIN_JOBS = 100      # p90 keeps at least ten samples above it
TRACE_JOBS = 40     # jobs run untraced and traced, so counts repeat exactly
MAX_REPORTED = 5    # failing jobs described on stderr


def import_scg():
    """Import scg from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "scg" or n.startswith("scg.")]:
        del sys.modules[name]
    scg = importlib.import_module("scg")
    importlib.import_module("scg.cli")
    if Path(scg.__file__).resolve().parent != SRC / "scg":
        raise ImportError(f"scg imported from {scg.__file__}, not {SRC}")
    return scg


class Checker:
    """Counts failed jobs: raised, broke a guarantee, or changed output.

    A job's output digest must repeat whenever the job list wraps around,
    and at the default seed it must equal the digest recorded in
    reference.json.
    """

    def __init__(self, workload, seed, n_jobs):
        self.n_jobs = n_jobs
        self.first = {}
        self.reference = None
        if seed == DEFAULT_SEED:
            self.reference = json.loads(REFERENCE.read_text())[workload]
        self.attempted = 0
        self.failed = 0

    def record(self, idx, outputs, problems):
        pos = idx % self.n_jobs
        if outputs is not None:
            d = digest(outputs)
            if self.first.setdefault(pos, d) != d:
                problems.append("output differs from the earlier run of this job")
            if self.reference is not None and self.reference[pos] != d:
                problems.append("output digest differs from reference.json")
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= MAX_REPORTED:
                print(f"job {idx} failed: {'; '.join(problems)}",
                      file=sys.stderr)


def run_job(scg, run, jobs, idx, checker, tracer=None):
    """Run job ``idx`` and return its wall time in seconds."""
    if tracer is not None:
        tracer.job = idx
    start = time.perf_counter()
    try:
        outputs, problems = run(scg, jobs[idx % len(jobs)])
    except Exception as exc:
        elapsed = time.perf_counter() - start
        if checker.failed < MAX_REPORTED:
            traceback.print_exc(file=sys.stderr)
        checker.record(idx, None, [f"raised {type(exc).__name__}: {exc}"])
        return elapsed
    elapsed = time.perf_counter() - start
    checker.record(idx, outputs, problems)
    return elapsed


def timed_run(name, seed, seconds):
    """Set up SETUP_REPS times, then run jobs for ``seconds``.

    A calibration burst runs around every set-up and job, and all reported
    times are scaled to reference seconds (see calibration.py).
    """
    make, run = WORKLOADS[name]
    setup, setup_bursts = [], [burst()]
    for _ in range(SETUP_REPS):
        # drop the previous set-up first, so peak_rss_mb holds one job list
        scg = jobs = None
        gc.collect()
        start = time.perf_counter()
        scg = import_scg()
        jobs = make(scg, seed, WORKDIR)
        setup.append(time.perf_counter() - start)
        setup_bursts.append(burst())
    checker = Checker(name, seed, len(jobs))
    times, bursts = [], [burst()]
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    while time.perf_counter() < deadline or len(times) < MIN_JOBS:
        times.append(run_job(scg, run, jobs, len(times), checker))
        bursts.append(burst())
    wall = time.perf_counter() - loop_start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_ref = scale(setup, setup_bursts)
    job_ref = scale(times, bursts)
    print(f"{name} seed {seed}: {len(times)} jobs in {wall:.2f} s; wall "
          f"time {len(times) / sum(times):.3f} jobs/s, p50 "
          f"{statistics.median(times):.4f} s, set-up "
          f"{statistics.median(setup):.3f} s; median burst "
          f"{statistics.median(bursts) * 1e3:.2f} ms (reference "
          f"{REF_S * 1e3:.2f} ms)", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "jobs_per_s": (len(job_ref) / sum(job_ref), "1/s"),
        "job_s_p50": (statistics.median(job_ref), "s"),
        "job_s_p90": (statistics.quantiles(job_ref, n=10)[8], "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "ok_frac": ((checker.attempted - checker.failed) / checker.attempted,
                    "ratio"),
    }
    return checker, metrics


# Per-layer metric names, by kind; BENCHMARK.json lists the same names.
CALLS_AND_SELF = (
    "model.player_utility", "model.validate_profile", "model.welfare_total",
    "rationals.parse_rational", "rationals.format_rational",
    "dynamics.best_response", "analysis.deviation_report",
    "potentials.potential_delta", "generalized.utility_in_profile",
    "cli.main")
CALLS_ONLY = ("rationals.at_least_sqrt2_times",)
SELF_ONLY = (
    "model.parse_instance", "model.serialize_instance",
    "model.instance_stats", "rationals.supermodular_alpha",
    "dynamics.run_dynamics", "dynamics.sqrt2_three", "dynamics.hybrid",
    "dynamics.one_shot_alpha_br", "analysis.equilibrium_census",
    "analysis.brute_force_optimum", "analysis.verify_approx_strong",
    "analysis.payment_stabilize", "potentials.cc_recover",
    "potentials.ordinal_audit", "generalized.supermodularity_degree",
    "generalized.one_shot_generalized", "generalized.verify_generalized",
    "generalized.lex_strong_eq", "generalized.verify_omega_strong",
    "generalized.hypergraph_br_dynamics", "generators")
ENUMERATORS = ("analysis.equilibrium_census", "analysis.brute_force_optimum",
               "analysis.verify_approx_strong")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, overhead_frac):
    t = tracer
    metrics = {}
    for name in CALLS_AND_SELF + CALLS_ONLY:
        metrics[f"{name}.calls"] = (t.n_calls(name), "count")
    for name in CALLS_AND_SELF + SELF_ONLY:
        metrics[f"{name}.self_s"] = (t.self_time(name), "s")
    moves = t.counts["dynamics.moves"]
    profiles = t.counts["analysis.profiles_enumerated"]
    metrics.update({
        "dynamics.moves": (moves, "count"),
        "dynamics.br_move_ratio": (
            _ratio(moves, t.n_calls("dynamics.best_response")), "ratio"),
        "analysis.profiles_enumerated": (profiles, "count"),
        "analysis.profiles_per_s": (
            _ratio(profiles, sum(t.total_time(n) for n in ENUMERATORS)), "1/s"),
        "analysis.equilibrium_ratio": (
            _ratio(t.counts["analysis.census_equilibria"],
                   t.counts["analysis.census_profiles"]), "ratio"),
        "potentials.audit_trials": (t.counts["potentials.audit_trials"], "count"),
        "generalized.table_pairs": (t.counts["generalized.table_pairs"], "count"),
        "cli.unexpected_exit": (
            t.counts["cli.unexpected_exit"] + t.n_errors("cli.main"), "count"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    })
    return metrics


def traced_run(name, seed):
    """Each of the first TRACE_JOBS jobs once untraced and once traced.

    The two runs of a job are adjacent, so slow drift in machine speed
    cancels out of the overhead; which goes first alternates, so neither
    side always pays for the job's first-use caches.
    """
    make, run = WORKLOADS[name]
    scg = import_scg()
    tracer = Tracer()
    with tracer:
        jobs = make(scg, seed, WORKDIR)
    checker = Checker(name, seed, len(jobs))
    walls = [0.0, 0.0]  # untraced, traced
    for idx in range(TRACE_JOBS):
        for traced in ((False, True) if idx % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    walls[1] += run_job(scg, run, jobs, idx, checker, tracer)
            else:
                walls[0] += run_job(scg, run, jobs, idx, checker)
    overhead = walls[1] / walls[0] - 1
    spans_path = WORKDIR / f"trace-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    top = sorted(range(len(tracer.names)), key=lambda f: -tracer.self_s[f])
    print(f"{name} seed {seed}: untraced {walls[0]:.2f} s, traced "
          f"{walls[1]:.2f} s, spans in {spans_path.relative_to(ROOT)}; "
          "largest self times:", file=sys.stderr)
    for fid in top[:8]:
        print(f"  {tracer.names[fid]:40s} {tracer.self_s[fid]:8.3f} s "
              f"{tracer.calls[fid]:9d} calls", file=sys.stderr)
    return checker, layer_metrics(tracer, overhead)


def _check_names(metrics, declared):
    want = {m["name"]: m["unit"] for m in declared}
    have = {k: unit for k, (_, unit) in metrics.items()}
    if want != have:
        raise RuntimeError(f"metrics {sorted(set(have) ^ set(want))} or their "
                           "units disagree with BENCHMARK.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scg" / "__init__.py").is_file():
        print(f"error: no scg sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)
    if args.trace:
        checker, metrics = traced_run(args.workload, args.seed)
        _check_names(metrics, spec["per_layer"])
    else:
        checker, metrics = timed_run(args.workload, args.seed, args.seconds)
        _check_names(metrics, spec["end_to_end"])
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
