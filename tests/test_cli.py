import argparse
import io
import json
import runpy
import sys
import warnings
from fractions import Fraction

import pytest

from scg import generators
from scg.cli import INT_OPTIONS, build_parser, main
from scg.generators import example1, random_supermodular, random_omega
from scg.generalized import serialize_generalized, serialize_omega
from scg.model import Edge, GameInstance, serialize_instance


@pytest.fixture
def cyclic(tmp_path):
    path = tmp_path / "e1.json"
    assert main(["gen", "example1", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def pair(tmp_path):
    g = GameInstance(
        n=2, m=2,
        intrinsic=((Fraction(4), Fraction(0)), (Fraction(0), Fraction(5))),
        edges=(Edge(0, 1, Fraction(6), Fraction(1, 2)),))
    path = tmp_path / "pair.json"
    path.write_text(serialize_instance(g))
    return str(path)


def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for p in (a, b):
        assert main(["gen", "random", "--n", "5", "--m", "3", "--seed", "9",
                     "--out", str(p)]) == 0
    assert a.read_text() == b.read_text()


def test_solve_hybrid_with_oracle(pair, capsys):
    assert main(["solve", "hybrid", "--alpha", "2", "--in", pair,
                 "--opt-oracle"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["profile"] == "2,2"
    assert out["rho"] == "1"
    assert out["welfare"] == "11"


def test_verify_nash_failure_exit_code(cyclic, capsys):
    code = main(["verify", "nash", "--alpha", "1", "--in", cyclic,
                 "--profile", "1,2,3"])
    assert code == 4
    out = json.loads(capsys.readouterr().out)
    assert abs(float(Fraction(out["max_factor"])) - 1.41421) < 1e-4


def test_verify_nash_success(pair, capsys):
    assert main(["verify", "nash", "--alpha", "1", "--in", pair,
                 "--profile", "1,2"]) == 0


def test_verify_strong(pair, capsys):
    assert main(["verify", "strong", "--alpha", "1", "--in", pair,
                 "--profile", "1,2"]) == 0
    code = main(["verify", "strong", "--alpha", "1", "--in", pair,
                 "--profile", "1,1"])
    assert code == 4
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(out)["verdict"] == "violated"


def test_census_json_and_csv(cyclic, capsys):
    assert main(["census", "--in", cyclic, "--alpha", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exists"] is False and payload["equilibria"] == []
    assert main(["census", "--in", cyclic, "--alpha", "3/2",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\r\n")
    assert lines[0] == "profile,welfare,max_factor,is_nash,is_strong"
    assert len(lines) > 1


def test_payments_command(pair, capsys):
    assert main(["payments", "--in", pair]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["profile"] == "2,2"
    assert out["payments"] == ["1", "0"]
    assert out["nu"] == "1/11"
    assert Fraction(out["post_payment_max_factor"]) <= 1


def test_bounds_single_cell(capsys):
    assert main(["bounds", "--alpha", "2", "--gamma", "1", "--m", "4"]) == 0
    assert capsys.readouterr().out.strip() == "4/7"


def test_bounds_grid_csv(capsys):
    assert main(["bounds", "--alpha", "2,1618/1000", "--gamma", "1,2,10",
                 "--m", "4", "--asymptotic", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\r\n")
    assert lines[0] == "alpha,gamma,m,fraction,decimal"
    assert len(lines) == 13  # 2 alphas x 3 gammas x (4, inf)
    cells = {tuple(l.split(",")[:3]): l.split(",")[3:] for l in lines[1:]}
    assert cells[("2", "1", "4")][0] == "4/7"
    assert cells[("2", "10", "4")][0] == "1/4"


def test_solve_oneshot_and_sqrt2(cyclic, capsys):
    assert main(["solve", "oneshot", "--in", cyclic, "--alpha", "1",
                 "--k0", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["profile"] == "2,2,3"
    assert main(["solve", "sqrt2", "--in", cyclic]) == 0
    profile = json.loads(capsys.readouterr().out)["profile"]
    assert main(["verify", "nash", "--alpha", "141422/100000", "--in", cyclic,
                 "--profile", profile]) == 0


def test_solve_two_strategy_algorithms(pair, capsys):
    assert main(["solve", "algorithm1", "--in", pair]) == 0
    p = json.loads(capsys.readouterr().out)["profile"]
    assert main(["verify", "nash", "--alpha", "1", "--in", pair,
                 "--profile", p]) == 0
    capsys.readouterr()
    assert main(["solve", "strong2", "--in", pair]) == 0
    p = json.loads(capsys.readouterr().out)["profile"]
    assert main(["verify", "strong", "--alpha", "1", "--in", pair,
                 "--profile", p]) == 0


def test_generalized_pipeline(tmp_path, capsys):
    gg = random_supermodular(4, 2, 2, 0)
    path = tmp_path / "gg.json"
    path.write_text(serialize_generalized(gg))
    assert main(["solve", "oneshot-gen", "--in", str(path), "--k0", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert main(["verify", "generalized", "--in", str(path),
                 "--profile", out["profile"], "--alpha", "3"]) == 0


def test_lexstrong_pipeline(tmp_path, capsys):
    og = random_omega(4, 2, 0, omega=Fraction(1, 2))
    path = tmp_path / "og.json"
    path.write_text(serialize_omega(og))
    assert main(["solve", "lexstrong", "--in", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["alpha"] == "2"


def test_audit_potential_command(tmp_path, capsys, cyclic):
    ok = tmp_path / "cc.json"
    assert main(["gen", "random-cc", "--n", "5", "--m", "3", "--seed", "4",
                 "--out", str(ok)]) == 0
    assert main(["audit-potential", "--in", str(ok), "--trials", "500"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["recovered"] is True and payload["violations"] == 0
    assert main(["audit-potential", "--in", cyclic]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["recovered"] is False
    # one strategy leaves no deviation: the audit holds with 0 trials
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"n": 2, "m": 1, "intrinsic": [["1"], ["0"]],
                                  "edges": [{"i": 0, "j": 1, "w": "1",
                                             "share_ij": "1/2"}]}))
    assert main(["audit-potential", "--in", str(single)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "recovered": True, "gamma": ["1", "1"], "trials": 0, "violations": 0}


def test_argument_errors_exit_2(tmp_path, capsys):
    assert main(["bounds", "--alpha", "x", "--gamma", "1", "--m", "4"]) == 2
    assert main(["solve", "hybrid", "--in", str(tmp_path / "missing.json")]) == 2
    for argv in (["frobnicate"], ["gen", "frobnicate"],
                 ["solve", "frobnicate", "--in", str(tmp_path / "g.json")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_size_guard_exit_3(tmp_path, capsys):
    big = tmp_path / "big.json"
    assert main(["gen", "random", "--n", "20", "--m", "3", "--seed", "1",
                 "--out", str(big)]) == 0
    assert main(["census", "--in", str(big)]) == 3


def test_search_no_sne_runs(capsys):
    assert main(["search-no-sne", "--n", "3", "--count", "5", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scanned"] == 5


def test_audit_potential_rejects_nonpositive_trials(tmp_path, capsys):
    # at n = 12 the audit samples its trials; at n = 3 it is exhaustive,
    # and the count is refused all the same
    games = {"cc12.json": ["--n", "12"],
             "cc3.json": ["--n", "3", "--m", "2", "--seed", "1"]}
    for name, size in games.items():
        path = tmp_path / name
        assert main(["gen", "random-cc", *size, "--out", str(path)]) == 0
        for trials in ("0", "-3", "-5"):
            assert main(["audit-potential", "--in", str(path),
                         "--trials", trials]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: trials must be >= 1, "
                                    f"got {trials}\n")


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "game.json"
    assert main(["gen", "random", "--out", str(missing)]) == 2
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("field,edge", [
    ("i", {"i": "0", "j": 1}),
    ("j", {"i": 0, "j": True}),
])
def test_non_integer_edge_endpoint_exits_2(tmp_path, capsys, field, edge):
    edge.update(w="1", share_ij="1/2")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "m": 2,
                                "intrinsic": [["1", "0"], ["0", "1"]],
                                "edges": [edge]}))
    assert main(["solve", "sqrt2", "--in", str(path)]) == 2
    assert f"edges[0].{field}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["solve", "oneshot-gen", "--k0", "1"],
    ["verify", "generalized", "--profile", "1,1", "--alpha", "2"],
])
def test_bad_table_field_exits_2(tmp_path, capsys, command):
    path = tmp_path / "gg.json"
    path.write_text(json.dumps({"n": 2, "m": 1, "tables": [
        [{"strategy": 1, "others": "1", "u": "1"}], []]}))
    assert main(command + ["--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: tables[0][0].others: "
                            "expected a list of integers\n")


def test_repeated_table_member_exits_2(tmp_path, capsys):
    """A wire set lists each player once: [1, 1] is not read as [1]."""
    path = tmp_path / "gg.json"
    path.write_text(json.dumps({"n": 2, "m": 1, "tables": [
        [{"strategy": 1, "others": [1, 1], "u": "1"}], []]}))
    assert main(["verify", "generalized", "--profile", "1,1",
                 "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tables[0][0].others: repeated player\n"


@pytest.mark.parametrize("command,game,err", [
    (["verify", "nash", "--profile", "1,1"],
     {"n": 2, "m": 1, "intrinsic": [[True], ["1"]], "edges": []},
     "intrinsic[0][0]"),
    (["verify", "generalized", "--profile", "1"],
     {"n": 1, "m": 1, "tables": [[{"strategy": 1, "others": [], "u": True}]]},
     "tables[0][0].u"),
    (["solve", "lexstrong"],
     {"n": 1, "m": 1, "a": [True], "b": ["1"], "labels": [["zero"]],
      "omega": "1/2"},
     "a[0]"),
], ids=["instance", "tables", "omega"])
def test_boolean_rational_exits_2(tmp_path, capsys, command, game, err):
    """A JSON true is not the rational 1 in any wire format."""
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(game))
    assert main(command + ["--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}: expected rational string, got bool\n"


@pytest.mark.parametrize("command,game,err", [
    (["verify", "nash", "--profile", "1,1"],
     {"n": 2, "m": 1, "intrinsic": [["\u0663"], ["1"]], "edges": []},
     "intrinsic[0][0]: not a rational: '\u0663'"),
    (["verify", "nash", "--profile", "1,1"],
     {"n": 2, "m": 1, "intrinsic": [["1"], ["1"]],
      "edges": [{"i": 0, "j": 1, "w": "3/-4", "share_ij": "1/2"}]},
     "edges[0].w: not a rational: '3/-4'"),
    (["verify", "generalized", "--profile", "1"],
     {"n": 1, "m": 1, "tables": [[{"strategy": 1, "others": [], "u": " 7 "}]]},
     "tables[0][0].u: not a rational: ' 7 '"),
    (["solve", "lexstrong"],
     {"n": 1, "m": 1, "a": ["+3"], "b": ["1"], "labels": [["zero"]],
      "omega": "1/2"},
     "a[0]: not a rational: '+3'"),
], ids=["instance-intrinsic", "instance-edge", "tables", "omega"])
def test_number_outside_the_wire_grammar_exits_2(tmp_path, capsys, command,
                                                 game, err):
    """A wire rational is ASCII "p" or "p/q" with an optional minus on p,
    whatever else int() would take."""
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game))
    assert main(command + ["--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("flag", ["r", "eps", "c", "omega"])
def test_rational_flag_errors_name_the_flag(capsys, flag):
    kind = {"eps": "prop5", "c": "triangle", "omega": "random-omega"}
    assert main(["gen", kind.get(flag, "example1"), f"--{flag}", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag}: not a rational: 'x'\n"


SUBCOMMANDS = sorted(next(
    a for a in build_parser()._actions
    if isinstance(a, argparse._SubParsersAction)).choices)


# One malformed input per subcommand.  "{bool_n}" is an instance whose n is
# the JSON boolean true, "{pair}" a valid two-strategy instance.
MALFORMED = {
    "gen": ["gen", "random", "--n", "0"],
    "solve": ["solve", "sqrt2", "--in", "{bool_n}"],
    "verify": ["verify", "nash", "--in", "{pair}", "--profile", "1,x"],
    "census": ["census", "--in", "{bool_n}"],
    "payments": ["payments", "--in", "{pair}", "--profile", "1,1.0"],
    "bounds": ["bounds", "--alpha", "2", "--gamma", "0", "--m", "3"],
    "audit-potential": ["audit-potential", "--in", "{pair}.missing"],
    "search-no-sne": ["search-no-sne", "--count", "-1"],
}


# More malformed inputs: "{tables_5}" is a table game whose player 0 has the
# entry list 5, "{omega_a_5}" an omega game whose a is 5, "{gaps}" a table
# game with no entry for player 0 next to player 1.
MALFORMED_FIELDS = {
    "verify-generalized-entry-list": [
        "verify", "generalized", "--in", "{tables_5}", "--profile", "1"],
    "solve-lexstrong-a": ["solve", "lexstrong", "--in", "{omega_a_5}"],
    "verify-generalized-incomplete-table": [
        "verify", "generalized", "--in", "{gaps}", "--profile", "1,1"],
    "solve-oneshot-gen-incomplete-table": [
        "solve", "oneshot-gen", "--in", "{gaps}"],
}

INCOMPLETE_TABLES = {"n": 2, "m": 1, "tables": [
    [{"strategy": 1, "others": [], "u": "1"}], []]}


def test_malformed_input_covers_every_subcommand():
    assert set(MALFORMED) == set(SUBCOMMANDS)


@pytest.mark.parametrize("command",
                         sorted(MALFORMED) + sorted(MALFORMED_FIELDS))
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, pair,
                                               command):
    bool_n = tmp_path / "bool-n.json"
    bool_n.write_text(json.dumps({"n": True, "m": 3,
                                  "intrinsic": [["1", "0", "0"]],
                                  "edges": []}))
    tables_5 = tmp_path / "tables-5.json"
    tables_5.write_text(json.dumps({"n": 1, "m": 1, "tables": [5]}))
    omega_a_5 = tmp_path / "omega-a-5.json"
    omega = json.loads(serialize_omega(random_omega(2, 2, 0)))
    omega_a_5.write_text(json.dumps(dict(omega, a=5)))
    gaps = tmp_path / "gaps.json"
    gaps.write_text(json.dumps(INCOMPLETE_TABLES))
    argv = [a.format(bool_n=bool_n, pair=pair, tables_5=tables_5,
                     omega_a_5=omega_a_5, gaps=gaps)
            for a in {**MALFORMED, **MALFORMED_FIELDS}[command]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("command", [
    ["census"], ["verify", "generalized", "--profile", "1"],
    ["solve", "lexstrong"], ["audit-potential"],
])
def test_deeply_nested_file_exits_2_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(command + ["--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed JSON: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("command", [
    ["verify", "generalized", "--profile", "1,1"],
    ["solve", "oneshot-gen"],
])
def test_incomplete_table_names_the_missing_entry(tmp_path, capsys, command):
    path = tmp_path / "gaps.json"
    path.write_text(json.dumps(INCOMPLETE_TABLES))
    assert main(command + ["--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no entry for player 0, strategy 1, set [1]\n"


@pytest.mark.parametrize("command,err", [
    (["bounds", "--alpha", "2", "--gamma", "1", "--m", "x"],
     "error: m: expected integer or 'inf', got 'x'\n"),
    (["verify", "nash", "--in", "{pair}", "--profile", "1,2,1"],
     "error: profile: expected 2 entries, got 3\n"),
    (["solve", "algorithm1", "--in", "{pair}", "--profile", "1"],
     "error: profile: expected 2 entries, got 1\n"),
    (["payments", "--in", "{zero}"],
     "error: optimum welfare is zero; payments undefined\n"),
    (["solve", "oneshot-gen", "--in", "{tri}", "--alpha", "1.5"],
     "error: alpha: not a rational: '1.5'\n"),
    (["solve", "oneshot-gen", "--in", "{tri}", "--alpha", "1/2"],
     "error: alpha must be >= 1\n"),
    (["bounds", "--alpha", "2", "--gamma", "1", "--m", "3,\u0663"],
     "error: m: expected integer or 'inf', got '\u0663'\n"),
    (["verify", "nash", "--in", "{pair}", "--profile", " 1,+2"],
     "error: profile: expected comma-separated integers, got ' 1,+2'\n"),
    (["verify", "generalized", "--in", "{tri}", "--profile", ""],
     "error: profile: expected 3 entries, got 0\n"),
], ids=["bounds-m", "verify-profile-length", "solve-profile-length",
        "payments-zero-optimum", "oneshot-gen-float-alpha",
        "oneshot-gen-alpha-below-1", "bounds-m-non-ascii-digit",
        "verify-profile-signs-and-spaces", "verify-empty-profile-of-three"])
def test_bad_argument_exits_2_with_its_line(tmp_path, capsys, pair, command,
                                            err):
    zero = tmp_path / "zero.json"
    zero.write_text(serialize_instance(GameInstance(
        n=2, m=1, intrinsic=((0,), (0,)), edges=())))
    tri = tmp_path / "tri.json"
    assert main(["gen", "triangle", "--c", "2", "--out", str(tri)]) == 0
    argv = [a.format(pair=pair, zero=zero, tri=tri) for a in command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_zero_player_profile_round_trips(tmp_path, capsys):
    """The census of a zero-player game writes its one equilibrium as the
    empty profile "", and both verifiers read "" back as that profile."""
    path = tmp_path / "none.json"
    path.write_text(serialize_instance(GameInstance(n=0, m=2, intrinsic=(),
                                                    edges=())))
    assert main(["census", "--in", str(path)]) == 0
    profile = json.loads(capsys.readouterr().out)["equilibria"][0]
    assert profile == ""
    assert main(["verify", "nash", "--in", str(path), "--profile",
                 profile]) == 0
    assert json.loads(capsys.readouterr().out)["stable"] is True
    assert main(["verify", "strong", "--in", str(path), "--profile",
                 profile]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "stable-at-alpha"}


@pytest.mark.parametrize("name", ["alpha", "gamma", "m"])
@pytest.mark.parametrize("text", ["2,,3", ",", "", "3,"])
def test_bounds_empty_entry_exits_2_naming_the_option(capsys, name, text):
    lists = {"alpha": "2", "gamma": "1", "m": "3", name: text}
    argv = ["bounds"] + [a for k, v in lists.items() for a in (f"--{k}", v)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name}: empty entry in {text!r}\n"


INT_OPTION_COMMANDS = [
    (["gen", "random", "--n"], "n"),
    (["gen", "random", "--m"], "m"),
    (["gen", "random", "--seed"], "seed"),
    (["gen", "random-supermodular", "--r-int"], "r-int"),
    (["solve", "oneshot", "--in", "{pair}", "--k0"], "k0"),
    (["audit-potential", "--in", "{pair}", "--trials"], "trials"),
    (["audit-potential", "--in", "{pair}", "--seed"], "seed"),
    (["search-no-sne", "--n"], "n"),
    (["search-no-sne", "--seed"], "seed"),
    (["search-no-sne", "--count"], "count"),
]


@pytest.mark.parametrize("command,name", INT_OPTION_COMMANDS,
                         ids=[" ".join(c[:1] + c[-1:])
                              for c, _ in INT_OPTION_COMMANDS])
@pytest.mark.parametrize("text", [" \u0663", "\u0663", "+3", "1_0", " 7 ",
                                  "3.0", "x", ""])
def test_integer_option_outside_the_grammar_exits_2(capsys, pair, command,
                                                    name, text):
    argv = [a.format(pair=pair) for a in command] + [text]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name}: expected integer, got {text!r}\n"


def test_every_integer_option_is_parsed_with_the_grammar():
    """The options with an int default, and --k0, are the cases above and
    the options `main` parses."""
    parsers = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
    options = {(cmd, a.option_strings[0], a.dest)
               for cmd, p in parsers.items() for a in p._actions
               if type(a.default) is int or a.dest == "k0"}
    assert {(cmd, flag) for cmd, flag, _ in options} == {
        (c[0], c[-1]) for c, _ in INT_OPTION_COMMANDS}
    assert {dest for _, _, dest in options} == set(INT_OPTIONS)


# One valid run per subcommand, "{pair}" the valid two-strategy instance.
VALID = {
    "gen": ["gen", "random", "--n", "3", "--seed", "2"],
    "solve": ["solve", "oneshot", "--in", "{pair}"],
    "verify": ["verify", "nash", "--in", "{pair}", "--profile", "1,1"],
    "census": ["census", "--in", "{pair}", "--format", "csv"],
    "payments": ["payments", "--in", "{pair}"],
    "bounds": ["bounds", "--alpha", "2", "--gamma", "1", "--m", "3,inf"],
    "audit-potential": ["audit-potential", "--in", "{pair}", "--trials", "9"],
    "search-no-sne": ["search-no-sne", "--n", "3", "--count", "2"],
}


# Runs that print their result and exit 4, "{cyclic}" the cyclic example:
# a violated profile for each verifier, and a failed weight recovery.
VIOLATED = {
    "verify-nash-violated": ["verify", "nash", "--in", "{cyclic}",
                             "--profile", "1,2,3"],
    "verify-strong-violated": ["verify", "strong", "--in", "{pair}",
                               "--profile", "1,1"],
    "audit-potential-unrecovered": ["audit-potential", "--in", "{cyclic}"],
}


@pytest.mark.parametrize("command", SUBCOMMANDS + list(VIOLATED))
def test_out_file_holds_the_stdout(tmp_path, capsys, pair, cyclic, command):
    argv = [a.format(pair=pair, cyclic=cyclic)
            for a in {**VALID, **VIOLATED}[command]]
    code = main(argv)
    assert command not in VIOLATED or code == 4
    stdout = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    with open(out, encoding="utf-8", newline="") as fh:
        assert fh.read() == stdout != ""


def test_in_dash_reads_stdin(monkeypatch, capsys, pair):
    command = ["verify", "nash", "--profile", "1,2", "--in"]
    assert main(command + [pair]) == 0
    expected = capsys.readouterr().out
    with open(pair, encoding="utf-8") as fh:
        monkeypatch.setattr(sys, "stdin", io.StringIO(fh.read()))
    assert main(command + ["-"]) == 0
    assert capsys.readouterr().out == expected


def test_search_no_sne_reports_a_seed_without_one(monkeypatch, capsys):
    """Every random symmetric game tried has had a strong equilibrium, so
    the scan is fed the cyclic example, which has no equilibrium at all,
    at seed 2."""
    symmetric = generators.random_symmetric
    monkeypatch.setattr(generators, "random_symmetric",
                        lambda n, m, seed: (example1(1) if seed == 2
                                            else symmetric(n, m, seed)))
    assert main(["search-no-sne", "--n", "3", "--count", "4"]) == 0
    assert capsys.readouterr().out == (
        '{"scanned": 4, "without_strong_equilibrium": [2]}\n')


def test_module_runs_as_a_script(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["scg", "bounds", "--alpha", "2",
                                      "--gamma", "1", "--m", "3"])
    with warnings.catch_warnings():  # scg.cli is already imported
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("scg.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == "3/5\n"
