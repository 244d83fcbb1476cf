"""Command-line interface.

Exit codes: 0 success, 2 argument error, 3 enumeration size guard,
4 verification failure.

The subcommands call the parsers and the library directly: the parsers
only decode, the game constructors and the library entry points decide
what is valid, and `main` turns every rejection (a `ValueError`, which a
`ParseError` and a `CliError` are) into one line ``error: <message>`` and
exit code 2.  The integer options of `INT_OPTIONS` reach `main` as typed
and are parsed there with the wire grammar of `parse_int`, so a bad one
is such a rejection too.

Each choice is written once: `GEN_KINDS` maps every `gen` kind to the
function that builds its game, `WRITERS` maps each game type to its
wire-format writer, and `build_parser` adds `--out`, the last option of
every subcommand, in one loop.  Every ``_cmd_*`` returns ``(result, exit
code)``, the result a dict or the exact text to print, and `main` writes
it once: a dict as one JSON line, text as it is, both through `_write` to
stdout or the ``--out`` file.  `_csv` holds the one CSV dialect.
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
from .rationals import INF, format_rational, parse_int, parse_rational

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
        return parse_int(text)
    except ValueError:
        raise CliError(f"m: expected integer or 'inf', got {text!r}")


def _parse_profile(text, n):
    try:
        profile = tuple(parse_int(x) for x in text.split(",")) if text else ()
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


#: The integer options by dest, each with the name its error gives.
#: argparse keeps them as typed, since `int()` would also take " 3", "+3"
#: and digits such as "٣"; `main` parses them.
INT_OPTIONS = {"n": "n", "m_int": "m", "r_int": "r-int", "seed": "seed",
               "k0": "k0", "trials": "trials", "count": "count"}


def _parse_int_options(args):
    for dest, name in INT_OPTIONS.items():
        text = getattr(args, dest, None)
        if isinstance(text, str):  # not a default
            try:
                setattr(args, dest, parse_int(text))
            except ValueError:
                raise CliError(f"{name}: expected integer, got {text!r}")


def _profile_str(profile):
    return ",".join(str(s) for s in profile)


def _csv(rows):
    """The rows as CSV text, each line ended by CRLF."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(rows)
    return buf.getvalue()


# --- gen ---------------------------------------------------------------------


def _rational(args, name):
    return parse_rational(getattr(args, name), name)


#: Each `gen` kind and the function that builds its game from the parsed
#: arguments, in the order `scg gen --help` lists them.  A rational option
#: is parsed where it is read, so the error names the first bad one.
GEN_KINDS = {
    "example1": lambda a: generators.example1(_rational(a, "r")),
    "prop5": lambda a: generators.prop5(a.m_int, _rational(a, "r"),
                                        _rational(a, "eps")),
    "symmetric-pos-tight": lambda a: generators.symmetric_pos_tight(
        a.m_int, _rational(a, "r"), _rational(a, "eps")),
    "triangle": lambda a: generalized.triangle_game(_rational(a, "c")),
    "random": lambda a: generators.random_instance(a.n, a.m_int, a.seed),
    "random-cc": lambda a: generators.random_cc(a.n, a.m_int, a.seed)[0],
    "random-symmetric": lambda a: generators.random_symmetric(
        a.n, a.m_int, a.seed),
    "random-supermodular": lambda a: generators.random_supermodular(
        a.n, a.m_int, a.r_int, a.seed),
    "random-omega": lambda a: generators.random_omega(
        a.n, a.m_int, a.seed, omega=_rational(a, "omega")),
    "random-hypergraph": lambda a: generators.random_hypergraph_cc(
        a.n, a.m_int, a.seed)[0],
}

#: The wire-format writer of each game type `GEN_KINDS` builds.
WRITERS = {
    model.GameInstance: model.serialize_instance,
    generalized.GeneralizedGame: generalized.serialize_generalized,
    generalized.OmegaGame: generalized.serialize_omega,
    generalized.HypergraphGame: generalized.serialize_hypergraph,
}


def _cmd_gen(args):
    game = GEN_KINDS[args.kind](args)
    return WRITERS[type(game)](game), EXIT_OK


# --- solve -------------------------------------------------------------------


def _cmd_solve(args):
    algo = args.algorithm
    parse = {"lexstrong": generalized.parse_omega,
             "oneshot-gen": generalized.parse_generalized}.get(
                 algo, model.parse_instance)
    game = parse(_read(args.infile))
    k0 = args.k0 if args.k0 is not None else 1
    fields = {}
    if algo == "lexstrong":
        profile, pi = generalized.lex_strong_eq(game)
        fields = {"mass_vector": [format_rational(x) for x in pi],
                  "alpha": format_rational(1 / game.omega)}
    elif algo == "oneshot-gen":
        alpha = parse_rational(args.alpha, "alpha") if args.alpha else None
        profile, alpha_used, moves = generalized.one_shot_generalized(
            game, k0, alpha)
        fields = {"alpha_used": format_rational(alpha_used),
                  "moves": [{"player": i, "to": k, "old": format_rational(uo),
                             "new": format_rational(un)}
                            for i, k, uo, un in moves]}
    elif algo == "algorithm1":
        start = (_parse_profile(args.profile, game.n) if args.profile
                 else tuple([1] * game.n))
        profile = dynamics.algorithm1_two(game, start)
    elif algo == "strong2":
        profile = dynamics.strong_two(game)
    elif algo == "sqrt2":
        profile = dynamics.sqrt2_three(game)
    elif algo == "oneshot":
        alpha = parse_rational(args.alpha or "1", "alpha")
        profile, trace = dynamics.one_shot_alpha_br(game, k0, alpha)
        fields = {"moves": len(trace.moves)}
    else:  # "hybrid", the last of the subparser's choices left
        alpha = parse_rational(args.alpha or "2", "alpha")
        opt_w = None
        if args.opt_oracle:
            _, opt_w = analysis.brute_force_optimum(game)
        report = dynamics.hybrid(game, alpha, opt_welfare=opt_w)
        profile = report.chosen
        fields = {
            "welfare": format_rational(report.chosen_welfare),
            "s1": _profile_str(report.s1), "s2": _profile_str(report.s2),
            "welfare_s1": format_rational(report.welfare_s1),
            "welfare_s2": format_rational(report.welfare_s2),
        }
        if report.rho is not None:
            fields["rho"] = format_rational(report.rho)
            fields["rho_decimal"] = f"{float(report.rho):.4f}"
    result = {"profile": _profile_str(profile), **fields}
    if isinstance(game, model.GameInstance) and "welfare" not in result:
        result["welfare"] = format_rational(model.welfare_total(game, profile))
    return result, EXIT_OK


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
    return payload, EXIT_OK if ok else EXIT_VERIFY


# --- census ------------------------------------------------------------------


def _cmd_census(args):
    game = model.parse_instance(_read(args.infile))
    alpha = parse_rational(args.alpha or "1", "alpha")
    census = analysis.equilibrium_census(game, alpha)
    if args.format == "csv":
        rows = [["profile", "welfare", "max_factor", "is_nash", "is_strong"]]
        strong_cap = game.m ** game.n <= 4096
        for profile, w in zip(census.equilibria, census.equilibrium_welfares):
            mf = analysis.deviation_report(game, profile).max_factor
            is_strong = ""
            if strong_cap:
                is_strong = str(analysis.verify_approx_strong(
                    game, profile, alpha).verdict == "stable-at-alpha").lower()
            rows.append([_profile_str(profile), format_rational(w),
                         format_rational(mf), str(mf <= 1).lower(), is_strong])
        return _csv(rows), EXIT_OK
    return {
        "alpha": format_rational(alpha),
        "opt_profile": _profile_str(census.opt_profile),
        "opt_welfare": format_rational(census.opt_welfare),
        "equilibria": [_profile_str(p) for p in census.equilibria],
        "exists": census.exists,
        "poa": format_rational(census.poa) if census.poa is not None else None,
        "pos": format_rational(census.pos) if census.pos is not None else None,
    }, EXIT_OK


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
    return {
        "profile": _profile_str(profile),
        "payments": [format_rational(p) for p in plan.payments],
        "total": format_rational(plan.total),
        "nu": format_rational(plan.nu),
        "post_payment_max_factor": format_rational(post.max_factor),
    }, EXIT_OK if post.max_factor <= 1 else EXIT_VERIFY


# --- bounds ------------------------------------------------------------------


def _split_list(text, name):
    """The entries of a comma list; an empty entry, or an empty list, is
    an error naming the option."""
    entries = text.split(",")
    if "" in entries:
        raise CliError(f"{name}: empty entry in {text!r}")
    return entries


def _cmd_bounds(args):
    alphas = [parse_rational(t, "alpha")
              for t in _split_list(args.alpha, "alpha")]
    gammas = [INF if t == "inf" else parse_rational(t, "gamma")
              for t in _split_list(args.gamma, "gamma")]
    ms = [_parse_m(t) for t in _split_list(args.m, "m")]
    if args.asymptotic and INF not in ms:
        ms.append(INF)
    rows = []
    for alpha in alphas:
        for gamma in gammas:
            for m in ms:
                frac = analysis.table_fraction(alpha, gamma, m)
                rows.append((alpha, gamma, m, frac))
    if len(rows) == 1 and args.format != "csv":
        return format_rational(rows[0][3]) + "\n", EXIT_OK
    return _csv([["alpha", "gamma", "m", "fraction", "decimal"]] + [
        [format_rational(alpha), format_rational(gamma),
         "inf" if m == INF else str(m), format_rational(frac),
         f"{float(frac):.4f}"] for alpha, gamma, m, frac in rows]), EXIT_OK


# --- audit-potential -----------------------------------------------------------


def _cmd_audit_potential(args):
    game = model.parse_instance(_read(args.infile))
    cert = potentials.cc_recover(game)
    if isinstance(cert, potentials.RecoveryFailure):
        return {"recovered": False, "edge": list(cert.edge),
                "reason": cert.reason}, EXIT_VERIFY
    report = potentials.ordinal_audit(game, cert, trials=args.trials,
                                      seed=args.seed)
    return {
        "recovered": True,
        "gamma": [format_rational(g) for g in cert.gamma],
        "trials": report.trials,
        "violations": report.violations,
    }, EXIT_OK if report.ok else EXIT_VERIFY


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
    return {"scanned": args.count,
            "without_strong_equilibrium": found}, EXIT_OK


# --- parser ------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scg",
        description="Coordination-game toolbox: generators, equilibrium "
                    "algorithms, verifiers and welfare-bound tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("kind", choices=list(GEN_KINDS))
    p.add_argument("--n", default=4)
    p.add_argument("--m", dest="m_int", default=3)
    p.add_argument("--r", default="1")
    p.add_argument("--r-int", dest="r_int", default=1,
                   help="complementarity bound for random-supermodular")
    p.add_argument("--eps", default="1/100")
    p.add_argument("--c", default="2")
    p.add_argument("--omega", default="1/2")
    p.add_argument("--seed", default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="run an equilibrium algorithm")
    p.add_argument("algorithm", choices=[
        "algorithm1", "strong2", "sqrt2", "oneshot", "hybrid", "lexstrong",
        "oneshot-gen"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--alpha", default=None)
    p.add_argument("--k0", default=None)
    p.add_argument("--profile", default=None)
    p.add_argument("--opt-oracle", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="verify a profile")
    p.add_argument("mode", choices=["nash", "strong", "generalized"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--alpha", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census", help="enumerate equilibria, PoA and PoS")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--alpha", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("payments", help="stabilizing payments for a profile")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--profile", default=None,
                   help="defaults to the brute-force optimum")
    p.set_defaults(func=_cmd_payments)

    p = sub.add_parser("bounds", help="closed-form welfare fraction table")
    p.add_argument("--alpha", required=True, help="comma list of rationals")
    p.add_argument("--gamma", required=True, help="comma list, 'inf' allowed")
    p.add_argument("--m", required=True, help="comma list, 'inf' allowed")
    p.add_argument("--asymptotic", action="store_true",
                   help="append the 1/m = 0 limit row")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("audit-potential",
                       help="recover influence weights and audit the potential")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--trials", default=10_000)
    p.add_argument("--seed", default=0)
    p.set_defaults(func=_cmd_audit_potential)

    p = sub.add_parser("search-no-sne",
                       help="scan random symmetric 3-strategy instances for "
                            "strong-equilibrium non-existence")
    p.add_argument("--n", default=4)
    p.add_argument("--seed", default=0)
    p.add_argument("--count", default=20)
    p.set_defaults(func=_cmd_search_no_sne)

    for p in sub.choices.values():  # the last option of every subcommand
        p.add_argument("--out", default=None)
    return parser


@functools.cache
def _parser():
    """The parser of `build_parser`, built once per process: parsing reads
    it and never changes it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        _parse_int_options(args)
        result, code = args.func(args)
        _write(args.out, result if isinstance(result, str)
               else json.dumps(result) + "\n")
        return code
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except ValueError as exc:  # CliError, ParseError and library rejections
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS


if __name__ == "__main__":
    sys.exit(main())
