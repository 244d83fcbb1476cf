"""Exact stdout of the CLI commands served by the exhaustive oracles.

The census, the payment plan at the optimum, the hybrid run with the
optimum supplied, the strong-equilibrium verifier and the no-strong-
equilibrium scan are run on seeded instances, and their output is compared
byte for byte with the bytes they printed while the census and the optimum
still visited every profile, before the three of them moved onto one
pruned depth-first search.  The n=14 census and payments were recorded from
the incremental walk that visited all 3**14 profiles.  The `verify
generalized` cases were recorded before it and `verify nash` shared one
code path.
"""

import pytest

from scg.cli import main

GEN = {
    "rand": ["random", "--n", "5", "--m", "3", "--seed", "9"],
    "sym": ["random-symmetric", "--n", "6", "--m", "3", "--seed", "4"],
    "e1": ["example1"],
    "p5": ["prop5"],
    "tri": ["triangle", "--c", "2"],
    "r14": ["random", "--n", "14", "--m", "3", "--seed", "5"],
}

# (instance, command, exit code, stdout)
EXPECTED = [
    ('rand', ['census'], 0,
     '{"alpha": "1", "opt_profile": "1,1,1,1,1", '
     '"opt_welfare": "233/6", "equilibria": ["1,1,2,1,2", '
     '"2,1,2,2,2", "3,1,2,3,2"], "exists": true, "poa": "233/189", '
     '"pos": "233/204"}\n'),
    ('rand', ['census', '--alpha', '3/2'], 0,
     '{"alpha": "3/2", "opt_profile": "1,1,1,1,1", '
     '"opt_welfare": "233/6", "equilibria": ["1,1,1,1,1", '
     '"1,1,2,1,2", "2,1,1,1,1", "2,1,1,2,1", "2,1,1,3,1", '
     '"2,1,2,1,2", "2,1,2,2,2", "2,1,2,3,2", "3,1,1,3,1", '
     '"3,1,2,3,2"], "exists": true, "poa": "233/163", "pos": "1"}\n'),
    ('sym', ['census', '--format', 'csv'], 0,
     'profile,welfare,max_factor,is_nash,is_strong\r\n'
     '"1,1,1,1,1,1",431/6,1,true,true\r\n'
     '"1,2,2,1,2,2",111/2,1,true,true\r\n'
     '"1,3,3,1,1,3",56,1,true,false\r\n'
     '"2,2,2,2,2,2",395/6,1,true,true\r\n'
     '"3,1,1,3,1,1",172/3,1,true,false\r\n'
     '"3,2,2,3,2,2",56,1,true,false\r\n'
     '"3,3,3,3,3,3",143/2,1,true,true\r\n'),
    ('e1', ['census', '--format', 'csv', '--alpha', '3/2'], 0,
     'profile,welfare,max_factor,is_nash,is_strong\r\n'
     '"1,1,1",10828427/2000000,2828427/2000000,false,true\r\n'
     '"1,2,1",4828427/1000000,4000000/2828427,false,true\r\n'
     '"1,2,3",8485281/2000000,4000000/2828427,false,true\r\n'
     '"1,3,1",8828427/2000000,2828427/2000000,false,true\r\n'
     '"1,3,3",4828427/1000000,4000000/2828427,false,true\r\n'
     '"2,2,1",8828427/2000000,2828427/2000000,false,true\r\n'
     '"2,2,2",10828427/2000000,2828427/2000000,false,true\r\n'
     '"2,2,3",4828427/1000000,4000000/2828427,false,true\r\n'
     '"2,3,1",3,2828427/2000000,false,true\r\n'
     '"2,3,3",8828427/2000000,2828427/2000000,false,true\r\n'
     '"3,3,3",10828427/2000000,2828427/2000000,false,true\r\n'),
    ('p5', ['census'], 0,
     '{"alpha": "1", "opt_profile": "2,2,2", "opt_welfare": "76/25", '
     '"equilibria": ["2,2,3", "3,2,3"], "exists": true, '
     '"poa": "304/205", "pos": "304/205"}\n'),
    ('rand', ['payments'], 0,
     '{"profile": "1,1,1,1,1", "payments": ["0", "0", "11/30", "0", '
     '"0"], "total": "11/30", "nu": "11/1165", '
     '"post_payment_max_factor": "1"}\n'),
    ('sym', ['payments', '--profile', '1,2,3,1,2,3'], 0,
     '{"profile": "1,2,3,1,2,3", "payments": ["0", "7/2", "1/2", "0", '
     '"8", "1/2"], "total": "25/2", "nu": "75/431", '
     '"post_payment_max_factor": "1"}\n'),
    ('p5', ['payments'], 0,
     '{"profile": "2,2,2", "payments": ["0", "0", "1/100"], '
     '"total": "1/100", "nu": "1/304", '
     '"post_payment_max_factor": "1"}\n'),
    ('rand', ['solve', 'hybrid', '--alpha', '2', '--opt-oracle'], 0,
     '{"profile": "1,1,1,1,1", "welfare": "233/6", "s1": "1,1,1,1,1", '
     '"s2": "1,1,2,1,2", "welfare_s1": "233/6", "welfare_s2": "34", '
     '"rho": "1", "rho_decimal": "1.0000"}\n'),
    ('sym', ['solve', 'hybrid', '--alpha', '7/4', '--opt-oracle'], 0,
     '{"profile": "1,1,1,1,1,1", "welfare": "431/6", '
     '"s1": "1,1,1,1,1,1", "s2": "1,1,1,1,1,1", '
     '"welfare_s1": "431/6", "welfare_s2": "431/6", "rho": "1", '
     '"rho_decimal": "1.0000"}\n'),
    ('rand', ['verify', 'strong', '--profile', '1,1,1,1,1'], 4,
     '{"verdict": "violated", "witness_profile": "1,1,2,1,1", '
     '"coalition": [2]}\n'),
    ('e1', ['verify', 'strong', '--alpha', '3/2', '--profile', '1,2,3'], 0,
     '{"verdict": "stable-at-alpha"}\n'),
    # coalitions of two and three whose first deviator leaves strategy 1
    # behind, so the search backs out of player 0's first branch
    ('sym', ['verify', 'strong', '--profile', '3,2,2,3,2,2'], 4,
     '{"verdict": "violated", "witness_profile": "2,2,2,2,2,2", '
     '"coalition": [0, 3]}\n'),
    ('p5', ['verify', 'strong', '--profile', '3,3,1'], 4,
     '{"verdict": "violated", "witness_profile": "2,2,2", '
     '"coalition": [0, 1, 2]}\n'),
    ('tri', ['verify', 'generalized', '--profile', '1,2,3', '--alpha', '2'],
     0, '{"max_factor": "2", "witness": 0, "stable": true}\n'),
    ('tri', ['verify', 'generalized', '--profile', '1,2,3', '--alpha', '1'],
     4, '{"max_factor": "2", "witness": 0, "stable": false}\n'),
    ('r14', ['census'], 0,
     '{"alpha": "1", "opt_profile": "2,2,2,2,2,2,2,2,2,2,2,2,2,2", '
     '"opt_welfare": "2111/6", "equilibria": '
     '["1,1,1,1,1,1,1,1,1,1,1,1,1,1", "2,2,2,2,2,2,2,2,2,2,2,2,2,2", '
     '"3,3,3,3,3,3,3,3,3,3,3,3,3,3"], "exists": true, '
     '"poa": "2111/1982", "pos": "1"}\n'),
    ('r14', ['payments'], 0,
     '{"profile": "2,2,2,2,2,2,2,2,2,2,2,2,2,2", "payments": ["0", "0", '
     '"0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"], '
     '"total": "0", "nu": "0", "post_payment_max_factor": "1"}\n'),
    (None, ['search-no-sne', '--count', '5'], 0,
     '{"scanned": 5, "without_strong_equilibrium": []}\n'),
    (None, ['search-no-sne', '--n', '5', '--seed', '3', '--count', '5'], 0,
     '{"scanned": 5, "without_strong_equilibrium": []}\n'),
]


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    root = tmp_path_factory.mktemp("instances")
    paths = {}
    for name, args in GEN.items():
        paths[name] = str(root / f"{name}.json")
        assert main(["gen", *args, "--out", paths[name]]) == 0
    return paths


@pytest.mark.parametrize("name, command, code, stdout", EXPECTED,
                         ids=[" ".join([str(e[0])] + e[1]) for e in EXPECTED])
def test_stdout_is_byte_identical(instances, capsys, name, command, code,
                                  stdout):
    argv = command if name is None else [*command, "--in", instances[name]]
    assert main(argv) == code
    assert capsys.readouterr().out == stdout
