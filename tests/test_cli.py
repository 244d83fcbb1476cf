import argparse
import json
from fractions import Fraction

import pytest

from scg.cli import build_parser, main
from scg.generators import random_supermodular, random_omega
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
    # n = 12 is too large for the exhaustive audit, so trials are sampled
    path = tmp_path / "cc.json"
    assert main(["gen", "random-cc", "--n", "12", "--out", str(path)]) == 0
    for trials in ("0", "-3"):
        assert main(["audit-potential", "--in", str(path),
                     "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials" in captured.err


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


@pytest.mark.parametrize("flag", ["r", "eps", "c", "omega"])
def test_rational_flag_errors_name_the_flag(capsys, flag):
    kind = {"eps": "prop5", "c": "triangle", "omega": "random-omega"}
    assert main(["gen", kind.get(flag, "example1"), f"--{flag}", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag}: not a rational: 'x'\n"


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
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(MALFORMED) == set(sub.choices)


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
