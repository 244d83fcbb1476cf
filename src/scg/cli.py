"""Command-line interface.

Exit codes: 0 success, 2 argument error, 3 enumeration size guard,
4 verification failure.

The subcommands call the parsers and the library directly: the parsers
only decode, the game constructors and the library entry points decide
what is valid, and `main` turns every rejection (a `ValueError`, which a
`ParseError` and a `CliError` are) into one line ``error: <message>`` and
exit code 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from . import analysis, dynamics, generalized, generators, model, potentials
from .analysis import SizeError
from .rationals import INF, format_rational, parse_rational

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_SIZE = 3
EXIT_VERIFY = 4


class CliError(ValueError):
    """A bad argument or file the CLI itself finds."""


def _parse_m(text):
    if text == "inf":
        return INF
    try:
        return int(text)
    except ValueError:
        raise CliError(f"m: expected integer or 'inf', got {text!r}")


def _parse_profile(text, n):
    try:
        profile = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"profile: expected comma-separated integers, got {text!r}")
    if len(profile) != n:
        raise CliError(f"profile: expected {n} entries, got {len(profile)}")
    return profile


def _read(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _profile_str(profile):
    return ",".join(str(s) for s in profile)


# --- gen ---------------------------------------------------------------------


def _cmd_gen(args):
    kind = args.kind
    if kind == "example1":
        out = model.serialize_instance(
            generators.example1(parse_rational(args.r, "r")))
    elif kind == "prop5":
        out = model.serialize_instance(
            generators.prop5(args.m_int, parse_rational(args.r, "r"),
                             parse_rational(args.eps, "eps")))
    elif kind == "symmetric-pos-tight":
        out = model.serialize_instance(
            generators.symmetric_pos_tight(args.m_int,
                                           parse_rational(args.r, "r"),
                                           parse_rational(args.eps, "eps")))
    elif kind == "triangle":
        out = generalized.serialize_generalized(
            generalized.triangle_game(parse_rational(args.c, "c")))
    elif kind == "random":
        out = model.serialize_instance(
            generators.random_instance(args.n, args.m_int, args.seed))
    elif kind == "random-cc":
        game, _gamma = generators.random_cc(args.n, args.m_int, args.seed)
        out = model.serialize_instance(game)
    elif kind == "random-symmetric":
        out = model.serialize_instance(
            generators.random_symmetric(args.n, args.m_int, args.seed))
    elif kind == "random-supermodular":
        ggame = generators.random_supermodular(args.n, args.m_int, args.r_int,
                                               args.seed)
        out = generalized.serialize_generalized(ggame)
    elif kind == "random-omega":
        omega = parse_rational(args.omega, "omega")
        ogame = generators.random_omega(args.n, args.m_int, args.seed,
                                        omega=omega)
        out = generalized.serialize_omega(ogame)
    else:  # "random-hypergraph", the last of the subparser's choices
        hgame, _gamma = generators.random_hypergraph_cc(args.n, args.m_int,
                                                        args.seed)
        out = generalized.serialize_hypergraph(hgame)
    _write(args.out, out)
    return EXIT_OK


# --- solve -------------------------------------------------------------------


def _cmd_solve(args):
    algo = args.algorithm
    if algo == "lexstrong":
        ogame = generalized.parse_omega(_read(args.infile))
        profile, pi = generalized.lex_strong_eq(ogame)
        out = json.dumps({
            "profile": _profile_str(profile),
            "mass_vector": [format_rational(x) for x in pi],
            "alpha": format_rational(1 / ogame.omega),
        }) + "\n"
        _write(args.out, out)
        return EXIT_OK
    if algo == "oneshot-gen":
        ggame = generalized.parse_generalized(_read(args.infile))
        k0 = args.k0 if args.k0 is not None else 1
        profile, alpha_used, moves = generalized.one_shot_generalized(ggame, k0)
        out = json.dumps({
            "profile": _profile_str(profile),
            "alpha_used": format_rational(alpha_used),
            "moves": [{"player": i, "to": k, "old": format_rational(uo),
                       "new": format_rational(un)}
                      for i, k, uo, un in moves],
        }) + "\n"
        _write(args.out, out)
        return EXIT_OK

    game = model.parse_instance(_read(args.infile))
    if algo == "algorithm1":
        start = (_parse_profile(args.profile, game.n) if args.profile
                 else tuple([1] * game.n))
        profile = dynamics.algorithm1_two(game, start)
        result = {"profile": _profile_str(profile)}
    elif algo == "strong2":
        profile = dynamics.strong_two(game)
        result = {"profile": _profile_str(profile)}
    elif algo == "sqrt2":
        profile = dynamics.sqrt2_three(game)
        result = {"profile": _profile_str(profile)}
    elif algo == "oneshot":
        alpha = parse_rational(args.alpha or "1", "alpha")
        k0 = args.k0 if args.k0 is not None else 1
        profile, trace = dynamics.one_shot_alpha_br(game, k0, alpha)
        result = {"profile": _profile_str(profile),
                  "moves": len(trace.moves)}
    else:  # "hybrid", the last of the subparser's choices left
        alpha = parse_rational(args.alpha or "2", "alpha")
        opt_w = None
        if args.opt_oracle:
            _, opt_w = analysis.brute_force_optimum(game)
        report = dynamics.hybrid(game, alpha, opt_welfare=opt_w)
        result = {
            "profile": _profile_str(report.chosen),
            "welfare": format_rational(report.chosen_welfare),
            "s1": _profile_str(report.s1), "s2": _profile_str(report.s2),
            "welfare_s1": format_rational(report.welfare_s1),
            "welfare_s2": format_rational(report.welfare_s2),
        }
        if report.rho is not None:
            result["rho"] = format_rational(report.rho)
            result["rho_decimal"] = f"{float(report.rho):.4f}"
    result["welfare"] = format_rational(model.welfare_total(
        game, _parse_profile(result["profile"], game.n)))
    _write(args.out, json.dumps(result) + "\n")
    return EXIT_OK


# --- verify ------------------------------------------------------------------


def _cmd_verify(args):
    alpha = parse_rational(args.alpha or "1", "alpha")
    parse = (generalized.parse_generalized if args.mode == "generalized"
             else model.parse_instance)
    game = parse(_read(args.infile))
    profile = _parse_profile(args.profile, game.n)
    if args.mode == "strong":
        report = analysis.verify_approx_strong(game, profile, alpha)
        ok = report.verdict == "stable-at-alpha"
        payload = {"verdict": report.verdict}
        if not ok:
            payload["witness_profile"] = _profile_str(report.witness_profile)
            payload["coalition"] = list(report.coalition)
    else:
        report = analysis.deviation_report(game, profile)
        ok = report.max_factor <= alpha
        payload = {"max_factor": format_rational(report.max_factor),
                   "witness": report.witness, "stable": ok}
    _write(args.out, json.dumps(payload) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY


# --- census ------------------------------------------------------------------


def _cmd_census(args):
    game = model.parse_instance(_read(args.infile))
    alpha = parse_rational(args.alpha or "1", "alpha")
    census = analysis.equilibrium_census(game, alpha)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["profile", "welfare", "max_factor", "is_nash",
                         "is_strong"])
        strong_cap = game.m ** game.n <= 4096
        for profile, w in zip(census.equilibria, census.equilibrium_welfares):
            mf = analysis.deviation_report(game, profile).max_factor
            is_strong = ""
            if strong_cap:
                is_strong = str(analysis.verify_approx_strong(
                    game, profile, alpha).verdict == "stable-at-alpha").lower()
            writer.writerow([_profile_str(profile), format_rational(w),
                             format_rational(mf), str(mf <= 1).lower(),
                             is_strong])
        _write(args.out, buf.getvalue())
        return EXIT_OK
    payload = {
        "alpha": format_rational(alpha),
        "opt_profile": _profile_str(census.opt_profile),
        "opt_welfare": format_rational(census.opt_welfare),
        "equilibria": [_profile_str(p) for p in census.equilibria],
        "exists": census.exists,
        "poa": format_rational(census.poa) if census.poa is not None else None,
        "pos": format_rational(census.pos) if census.pos is not None else None,
    }
    _write(args.out, json.dumps(payload) + "\n")
    return EXIT_OK


# --- payments ----------------------------------------------------------------


def _cmd_payments(args):
    game = model.parse_instance(_read(args.infile))
    opt_profile, opt_w = analysis.brute_force_optimum(game)
    profile = (_parse_profile(args.profile, game.n) if args.profile
               else opt_profile)
    if opt_w <= 0:
        raise CliError("optimum welfare is zero; payments undefined")
    plan = analysis.payment_stabilize(game, profile, opt_w)
    post = analysis.post_payment_deviation_report(game, profile, plan)
    payload = {
        "profile": _profile_str(profile),
        "payments": [format_rational(p) for p in plan.payments],
        "total": format_rational(plan.total),
        "nu": format_rational(plan.nu),
        "post_payment_max_factor": format_rational(post.max_factor),
    }
    _write(args.out, json.dumps(payload) + "\n")
    return EXIT_OK if post.max_factor <= 1 else EXIT_VERIFY


# --- bounds ------------------------------------------------------------------


def _split_list(text):
    return [t for t in text.split(",") if t]


def _cmd_bounds(args):
    alphas = [parse_rational(t, "alpha") for t in _split_list(args.alpha)]
    gammas = [INF if t == "inf" else parse_rational(t, "gamma")
              for t in _split_list(args.gamma)]
    ms = [_parse_m(t) for t in _split_list(args.m)]
    if args.asymptotic and INF not in ms:
        ms.append(INF)
    rows = []
    for alpha in alphas:
        for gamma in gammas:
            for m in ms:
                frac = analysis.table_fraction(alpha, gamma, m)
                rows.append((alpha, gamma, m, frac))
    if len(rows) == 1 and args.format != "csv":
        _write(args.out, format_rational(rows[0][3]) + "\n")
        return EXIT_OK
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["alpha", "gamma", "m", "fraction", "decimal"])
    for alpha, gamma, m, frac in rows:
        writer.writerow([format_rational(alpha), format_rational(gamma),
                         "inf" if m == INF else str(m),
                         format_rational(frac), f"{float(frac):.4f}"])
    _write(args.out, buf.getvalue())
    return EXIT_OK


# --- audit-potential -----------------------------------------------------------


def _cmd_audit_potential(args):
    game = model.parse_instance(_read(args.infile))
    cert = potentials.cc_recover(game)
    if isinstance(cert, potentials.RecoveryFailure):
        _write(args.out, json.dumps({"recovered": False,
                                     "edge": list(cert.edge),
                                     "reason": cert.reason}) + "\n")
        return EXIT_VERIFY
    report = potentials.ordinal_audit(game, cert, trials=args.trials,
                                      seed=args.seed)
    payload = {
        "recovered": True,
        "gamma": [format_rational(g) for g in cert.gamma],
        "trials": report.trials,
        "violations": report.violations,
    }
    _write(args.out, json.dumps(payload) + "\n")
    return EXIT_OK if report.ok else EXIT_VERIFY


# --- search-no-sne -------------------------------------------------------------


def _cmd_search_no_sne(args):
    """Scan random symmetric instances for strong-equilibrium non-existence."""
    if args.count < 1:
        raise CliError(f"count must be >= 1, got {args.count}")
    found = []
    for offset in range(args.count):
        seed = args.seed + offset
        game = generators.random_symmetric(args.n, 3, seed)
        census = analysis.equilibrium_census(game, Fraction(1))
        has_sne = any(
            analysis.verify_approx_strong(game, p, Fraction(1)).verdict
            == "stable-at-alpha"
            for p in census.equilibria)
        if not has_sne:
            found.append(seed)
    _write(args.out, json.dumps({"scanned": args.count,
                                 "without_strong_equilibrium": found}) + "\n")
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scg",
        description="Coordination-game toolbox: generators, equilibrium "
                    "algorithms, verifiers and welfare-bound tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("kind", choices=[
        "example1", "prop5", "symmetric-pos-tight", "triangle", "random",
        "random-cc", "random-symmetric", "random-supermodular",
        "random-omega", "random-hypergraph"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", dest="m_int", type=int, default=3)
    p.add_argument("--r", default="1")
    p.add_argument("--r-int", dest="r_int", type=int, default=1,
                   help="complementarity bound for random-supermodular")
    p.add_argument("--eps", default="1/100")
    p.add_argument("--c", default="2")
    p.add_argument("--omega", default="1/2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="run an equilibrium algorithm")
    p.add_argument("algorithm", choices=[
        "algorithm1", "strong2", "sqrt2", "oneshot", "hybrid", "lexstrong",
        "oneshot-gen"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--alpha", default=None)
    p.add_argument("--k0", type=int, default=None)
    p.add_argument("--profile", default=None)
    p.add_argument("--opt-oracle", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="verify a profile")
    p.add_argument("mode", choices=["nash", "strong", "generalized"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--alpha", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census", help="enumerate equilibria, PoA and PoS")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--alpha", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("payments", help="stabilizing payments for a profile")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--profile", default=None,
                   help="defaults to the brute-force optimum")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_payments)

    p = sub.add_parser("bounds", help="closed-form welfare fraction table")
    p.add_argument("--alpha", required=True, help="comma list of rationals")
    p.add_argument("--gamma", required=True, help="comma list, 'inf' allowed")
    p.add_argument("--m", required=True, help="comma list, 'inf' allowed")
    p.add_argument("--asymptotic", action="store_true",
                   help="append the 1/m = 0 limit row")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("audit-potential",
                       help="recover influence weights and audit the potential")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_audit_potential)

    p = sub.add_parser("search-no-sne",
                       help="scan random symmetric 3-strategy instances for "
                            "strong-equilibrium non-existence")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_search_no_sne)

    return parser


@functools.cache
def _parser():
    """The parser of `build_parser`, built once per process: parsing reads
    it and never changes it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except ValueError as exc:  # CliError, ParseError and library rejections
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS


if __name__ == "__main__":
    sys.exit(main())
