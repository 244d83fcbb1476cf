"""The four benchmark workloads: seeded job lists, job bodies and checks.

A workload is a pair of functions.  ``make(scg, seed, workdir)`` builds the
whole job list from public ``scg.generators`` functions; the runner times
it as set-up.  ``job(scg, spec)`` runs one job and returns ``(outputs,
problems)``: ``outputs`` is a plain nested tuple of everything the job
computed, hashed by `digest`, and ``problems`` lists every guarantee from
the paper that the outputs broke.  ``scg`` is passed in rather than
imported so the runner can re-import the package for each set-up timing.

Instance sizes follow a fixed per-workload schedule; the seed changes
only the random content.  That keeps the cost of a job list nearly the
same from seed to seed, so run-to-run spread measures the program, not
the luck of the draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

ONE = Fraction(1)
TWO = Fraction(2)
THREE_HALVES = Fraction(3, 2)
SQRT2_GATE = Fraction(141422, 100000)


def _instance_seeds(name, seed, count):
    rng = random.Random(f"{name}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def digest(outputs):
    """Short, stable hash of a job's outputs."""
    return hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]


def _report_key(report):
    return (report.per_player, report.max_factor, report.witness)


def _trace_key(trace):
    return (trace.terminal, trace.reason,
            tuple((mv.player, mv.from_strategy, mv.to_strategy,
                   mv.old_utility, mv.new_utility) for mv in trace.moves))


def _hybrid_key(rep):
    return (rep.s1, rep.s2, rep.welfare_s1, rep.welfare_s2, rep.chosen,
            rep.chosen_welfare, rep.rho)


# --- dynamics-sparse ---------------------------------------------------------
# Sparse graphs (mean degree about 4) at n in the low hundreds: the utility
# kernel and the dynamics schedules do nearly all the work, and per-call
# profile validation grows with n.

DYNAMICS_SIZES = (100, 115, 130, 145, 160)
DYNAMICS_JOBS = 100


def make_dynamics(scg, seed, workdir):
    seeds = _instance_seeds("dynamics-sparse", seed, DYNAMICS_JOBS)
    jobs = []
    for idx, s in enumerate(seeds):
        n = DYNAMICS_SIZES[idx % len(DYNAMICS_SIZES)]
        jobs.append(scg.generators.random_instance(
            n, 3, s, edge_prob=4 / (n - 1)))
    return jobs


def dynamics_job(scg, game):
    trace = scg.run_dynamics(game, (1,) * game.n)
    s_sqrt2 = scg.sqrt2_three(game)
    hyb = scg.hybrid(game, TWO)
    s_one, one_trace = scg.one_shot_alpha_br(game, 1, THREE_HALVES)
    reports = [scg.deviation_report(game, p)
               for p in (trace.terminal, s_sqrt2, hyb.chosen, s_one)]
    problems = []
    if trace.reason == "converged" and reports[0].max_factor > 1:
        problems.append(f"converged run_dynamics: factor {reports[0].max_factor}")
    if reports[1].max_factor > SQRT2_GATE:
        problems.append(f"sqrt2_three: factor {reports[1].max_factor}")
    one_bound = max(THREE_HALVES, 1 / THREE_HALVES + 1)
    if reports[3].max_factor > one_bound:
        problems.append(f"one_shot_alpha_br: factor {reports[3].max_factor}")
    outputs = (_trace_key(trace), s_sqrt2, _hybrid_key(hyb),
               _trace_key(one_trace), tuple(_report_key(r) for r in reports))
    return outputs, problems


# --- census-exhaustive -------------------------------------------------------
# Tiny dense instances whose whole m^n profile space is enumerated: the
# analysis oracles do most of the work and the kernel runs at small n.

# m^n = 243, 729, 1024, 729, 2187: the median job is a 729-profile one and
# the 90th percentile falls among the 2187-profile jobs, not on the edge
# between two sizes.
CENSUS_SIZES = ((5, 3), (6, 3), (5, 4), (6, 3), (7, 3))
CENSUS_JOBS = 160


def make_census(scg, seed, workdir):
    seeds = _instance_seeds("census-exhaustive", seed, CENSUS_JOBS)
    jobs = []
    for idx, s in enumerate(seeds):
        n, m = CENSUS_SIZES[idx % len(CENSUS_SIZES)]
        gen = (scg.generators.random_instance
               if (idx // len(CENSUS_SIZES)) % 2 == 0
               else scg.generators.random_symmetric)
        jobs.append(gen(n, m, s))
    return jobs


def census_job(scg, game):
    census = scg.equilibrium_census(game, ONE)
    opt_profile, opt_w = scg.brute_force_optimum(game)
    strong = [scg.verify_approx_strong(game, p, ONE)
              for p in census.equilibria[:3]]
    plan = scg.payment_stabilize(game, opt_profile, opt_w)
    post = scg.post_payment_deviation_report(game, opt_profile, plan)
    hyb = scg.hybrid(game, TWO, opt_welfare=opt_w)
    mri = scg.instance_stats(game).mri
    floor = scg.welfare_lower_bound(TWO, mri, game.m)
    problems = []
    if (census.opt_profile, census.opt_welfare) != (opt_profile, opt_w):
        problems.append("census optimum differs from brute_force_optimum")
    if post.max_factor > 1:
        problems.append(f"paid optimum: factor {post.max_factor}")
    if hyb.chosen_welfare < floor * opt_w:
        problems.append(f"hybrid welfare {hyb.chosen_welfare} < "
                        f"{floor} * OPT {opt_w}")
    outputs = (
        (census.opt_profile, census.opt_welfare, census.equilibria,
         census.equilibrium_welfares, census.poa, census.pos, census.exists),
        opt_profile, opt_w,
        tuple((r.verdict, r.witness_profile, r.coalition) for r in strong),
        (plan.payments, plan.total, plan.nu), _report_key(post),
        _hybrid_key(hyb))
    return outputs, problems


# --- tables-potentials -------------------------------------------------------
# Table, potential, hypergraph and conflict-aware games: Fraction division
# in `generalized` and `potentials` dominates and `model` is barely used.
# Each job is one instance of one family.  Per pass of TABLES_PLAN, 30% of
# the jobs are cheap (n=4 tables, n=5 exhaustive audit, a hypergraph or
# omega game), 50% cost 0.1-0.3 s (sampled audits, n=5 tables) and 20% are
# n=6 tables near 0.85 s.  The median then falls inside the middle group
# and the 90th percentile inside the top one, not on the edge between two.

TABLES_PLAN = (
    ("supermodular", (4, 1)), ("cc", 40), ("supermodular", (6, 1)),
    ("cc", 20), ("graph", None), ("supermodular", (5, 2)), ("cc", 5),
    ("supermodular", (6, 2)), ("cc", 60), ("supermodular", (5, 1)),
)  # supermodular sizes are (n, r); cc n = 5 is audited exhaustively
# The "graph" slot alternates between a hypergraph and an omega game.
HYPERGRAPH_SIZES = (8, 12, 16, 20)
OMEGA_SIZES = ((5, Fraction(1, 2)), (6, Fraction(3, 4)), (7, ONE))
CC_TRIALS = 1000
TABLES_JOBS = 120


def make_tables(scg, seed, workdir):
    gens = scg.generators
    seeds = _instance_seeds("tables-potentials", seed, TABLES_JOBS)
    jobs = []
    for idx, s in enumerate(seeds):
        kind, size = TABLES_PLAN[idx % len(TABLES_PLAN)]
        rep = idx // len(TABLES_PLAN)
        if kind == "supermodular":
            n, r = size
            # a seeded profile to verify at: one-shot from all-1 often
            # makes no move, so its report alone hardly depends on the seed
            probe = tuple(random.Random(s).choices((1, 2, 3), k=n))
            jobs.append((kind, gens.random_supermodular(n, 3, r, s),
                         (r, probe)))
        elif kind == "cc":
            game, _gamma = gens.random_cc(size, 3, s)
            jobs.append((kind, game, s))
        elif rep % 2 == 0:
            n = HYPERGRAPH_SIZES[rep // 2 % len(HYPERGRAPH_SIZES)]
            hgame, _gamma = gens.random_hypergraph_cc(n, 3, s)
            jobs.append(("hypergraph", hgame, None))
        else:
            n, omega = OMEGA_SIZES[rep // 2 % len(OMEGA_SIZES)]
            jobs.append(("omega", gens.random_omega(n, 3, s, omega=omega),
                         None))
    return jobs


def tables_job(scg, job):
    kind, game, extra = job
    gen = scg.generalized
    problems = []
    if kind == "supermodular":
        r, probe = extra
        degree = gen.supermodularity_degree(game)
        profile, alpha, moves = gen.one_shot_generalized(game, 1)
        report = gen.verify_generalized(game, profile)
        probed = gen.verify_generalized(game, probe)
        if degree > r:
            problems.append(f"supermodularity degree {degree} > {r}")
        if report.max_factor >= r + 1:
            problems.append(f"one_shot_generalized: factor {report.max_factor}")
        outputs = (degree, profile, alpha, moves, _report_key(report),
                   _report_key(probed))
    elif kind == "cc":
        cert = scg.cc_recover(game)
        if not isinstance(cert, scg.PotentialCertificate):
            return ("cc", cert.edge, cert.reason), ["cc_recover failed"]
        audit = scg.ordinal_audit(game, cert, trials=CC_TRIALS, seed=extra)
        if audit.violations:
            problems.append(f"ordinal_audit: {audit.violations} violations")
        outputs = (cert.gamma, audit.trials, audit.violations)
    elif kind == "hypergraph":
        cert = gen.hypergraph_cc_recover(game)
        if not isinstance(cert, scg.PotentialCertificate):
            return ("hypergraph", cert.edge, cert.reason), [
                "hypergraph_cc_recover failed"]
        terminal, moves, reason = gen.hypergraph_br_dynamics(
            game, (1,) * game.n)
        if reason != "converged":
            problems.append(f"hypergraph_br_dynamics: {reason}")
        outputs = (cert.gamma, terminal, moves, reason)
    else:
        profile, mass = gen.lex_strong_eq(game)
        witness = gen.verify_omega_strong(game, profile, 1 / game.omega)
        if witness is not None:
            problems.append(f"lex_strong_eq output broken by {witness}")
        outputs = (profile, mass, witness)
    return (kind, outputs), problems


# --- cli-pipeline ------------------------------------------------------------
# The CLI in-process on dense instances: every command reads the instance
# file and prints JSON, so the wire format (instance and rational parsing
# and formatting) takes a large share of each job.

CLI_SIZES = (40, 55, 70, 85, 100)
CLI_JOBS = 60
BOUNDS_ARGS = ["bounds", "--alpha", "2,1618/1000", "--gamma", "1,2,10",
               "--m", "3,4"]
BOUNDS_ROWS = 1 + 2 * 3 * 2


def make_cli(scg, seed, workdir):
    seeds = _instance_seeds("cli-pipeline", seed, CLI_JOBS)
    path = str(workdir / "cli-instance.json")
    jobs = []
    for idx, s in enumerate(seeds):
        n = CLI_SIZES[idx % len(CLI_SIZES)]
        # edge_prob 0.5 draws the same edges as the CLI's default of 1/2
        game = scg.generators.random_instance(n, 3, s, edge_prob=0.5)
        jobs.append((n, s, game, path))
    return jobs


def _cli(scg, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = scg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_job(scg, job):
    n, s, game, path = job
    problems = []
    steps = []

    def step(argv):
        code, text, err = _cli(scg, argv)
        steps.append((argv[0], code))
        if code != 0:
            problems.append(f"{' '.join(argv[:2])}: exit {code}: {err.strip()}")
        return text

    step(["gen", "random", "--n", str(n), "--m", "3", "--seed", str(s),
          "--out", path])
    with open(path, "rb") as fh:
        instance_hash = hashlib.sha256(fh.read()).hexdigest()
    solved = []
    for argv in (["solve", "oneshot", "--in", path, "--alpha", "2"],
                 ["solve", "sqrt2", "--in", path]):
        text = step(argv)
        result = json.loads(text)
        profile = tuple(int(x) for x in result["profile"].split(","))
        if Fraction(result["welfare"]) != scg.welfare_total(game, profile):
            problems.append(f"{argv[1]}: CLI welfare differs from library")
        solved.append(text)
    sqrt2_profile = json.loads(solved[1])["profile"]
    verified = step(["verify", "nash", "--in", path, "--profile",
                     sqrt2_profile, "--alpha", "141422/100000"])
    if json.loads(verified)["stable"] is not True:
        problems.append("verify nash: sqrt2 profile reported unstable")
    bounds = step(BOUNDS_ARGS)
    if bounds.count("\n") != BOUNDS_ROWS:
        problems.append("bounds: wrong row count")
    outputs = (instance_hash, tuple(solved), verified, bounds, tuple(steps))
    return outputs, problems


#: name -> (make, job); BENCHMARK.json says why each workload exists.
WORKLOADS = {
    "dynamics-sparse": (make_dynamics, dynamics_job),
    "census-exhaustive": (make_census, census_job),
    "tables-potentials": (make_tables, tables_job),
    "cli-pipeline": (make_cli, cli_job),
}
