"""Exact stdout of the CLI commands served by the exhaustive oracles.

The census, the payment plan at the optimum, the hybrid run with the
optimum supplied, the strong-equilibrium verifier and the no-strong-
equilibrium scan are run on seeded instances, and their output is compared
byte for byte with the bytes they printed while the census and the optimum
still visited every profile, before the three of them moved onto one
pruned depth-first search.  The n=14 census and payments were recorded from
the incremental walk that visited all 3**14 profiles.  The `verify
generalized` cases were recorded before it and `verify nash` shared one
code path.  The `bounds`, `gen` and `solve oneshot-gen` cases were recorded
before tables were read through an integer view, except `solve
oneshot-gen --alpha`, which ignored its gate until then.  The other `gen`
kinds, the pairwise and `lexstrong` algorithms of `solve`, `verify nash`
and `audit-potential` were recorded before `gen` read its kinds from one
table and `solve` printed every result through one path.
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
    "two": ["random", "--n", "5", "--m", "2", "--seed", "9"],
    "cc": ["random-cc", "--n", "4", "--m", "3", "--seed", "2"],
    "omega": ["random-omega", "--n", "3", "--m", "2", "--seed", "3"],
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
    (None, ['bounds', '--alpha', '2', '--gamma', '1', '--m', 'inf'], 0,
     '1/2\n'),
    (None, ['gen', 'symmetric-pos-tight', '--m', '3'], 0,
     '{"n": 3, "m": 3, "intrinsic": [["101/100", "0", "0"], '
     '["0", "101/100", "0"], ["0", "0", "101/100"]], "edges": '
     '[{"i": 0, "j": 1, "w": "2", "share_ij": "1/2"}, '
     '{"i": 0, "j": 2, "w": "2", "share_ij": "1/2"}]}\n'),
    (None, ['gen', 'random-supermodular', '--n', '2', '--m', '2', '--r-int',
            '2', '--seed', '3'], 0,
     '{"n": 2, "m": 2, "tables": [[{"strategy": 1, "others": [], '
     '"u": "1"}, {"strategy": 1, "others": [1], "u": "9"}, '
     '{"strategy": 2, "others": [], "u": "16"}, {"strategy": 2, '
     '"others": [1], "u": "36"}], [{"strategy": 1, "others": [], '
     '"u": "16"}, {"strategy": 1, "others": [0], "u": "64"}, '
     '{"strategy": 2, "others": [], "u": "1"}, {"strategy": 2, '
     '"others": [0], "u": "25"}]]}\n'),
    (None, ['gen', 'random-omega', '--n', '3', '--m', '2', '--seed', '3',
            '--omega', '3/4'], 0,
     '{"n": 3, "m": 2, "a": ["2", "5", "5"], "b": ["2", "3", "5"], '
     '"labels": [["zero", "conflict", "zero"], ["conflict", "zero", '
     '"zero"], ["zero", "zero", "zero"]], "omega": "3/4"}\n'),
    (None, ['gen', 'random-hypergraph', '--n', '3', '--m', '2', '--seed',
            '2'], 0,
     '{"n": 3, "m": 2, "edges": [{"players": [0, 1, 2], "w": "1", '
     '"shares": ["1/3", "1/3", "1/3"], "anchor": null}, {"players": '
     '[1, 2], "w": "6", "shares": ["1/2", "1/2"], "anchor": null}, '
     '{"players": [0, 1, 2], "w": "6", "shares": ["1/3", "1/3", "1/3"], '
     '"anchor": null}, {"players": [0, 1, 2], "w": "3", "shares": '
     '["1/3", "1/3", "1/3"], "anchor": null}, {"players": [0, 2], '
     '"w": "3", "shares": ["1/2", "1/2"], "anchor": 2}, {"players": [0], '
     '"w": "6", "shares": ["1"], "anchor": 1}, {"players": [2], "w": "7", '
     '"shares": ["1"], "anchor": 2}]}\n'),
    ('tri', ['solve', 'oneshot-gen'], 0,
     '{"profile": "1,1,1", "alpha_used": "2732051/1000000", '
     '"moves": []}\n'),
    # the one output that changed: this gate was ignored and the measured
    # degree's gate, 2732051/1000000, used instead
    ('tri', ['solve', 'oneshot-gen', '--alpha', '3/2'], 0,
     '{"profile": "2,2,3", "alpha_used": "3/2", "moves": [{"player": 1, '
     '"to": 2, "old": "2", "new": "4"}, {"player": 0, "to": 2, "old": "4", '
     '"new": "8"}, {"player": 2, "to": 3, "old": "2", "new": "4"}]}\n'),
    # recorded before the gen table and the single solve output path
    (None, ['gen', 'random', '--n', '3', '--m', '2', '--seed', '1'], 0,
     '{"n": 3, "m": 2, "intrinsic": [["2/3", "1/2"], ["1/2", '
     '"7/2"], ["5", "3"]], "edges": [{"i": 0, "j": 1, "w": "7", '
     '"share_ij": "7/10"}]}\n'),
    (None, ['gen', 'random-cc', '--n', '3', '--m', '2', '--seed', '1'], 0,
     '{"n": 3, "m": 2, "intrinsic": [["4", "7/2"], ["7/3", "6"], '
     '["1/2", "0"]], "edges": [{"i": 0, "j": 1, "w": "1", '
     '"share_ij": "2/7"}, {"i": 1, "j": 2, "w": "4", '
     '"share_ij": "5/6"}]}\n'),
    (None, ['gen', 'random-symmetric', '--n', '3', '--m', '2', '--seed',
            '1'], 0,
     '{"n": 3, "m": 2, "intrinsic": [["2/3", "1/2"], ["1/2", '
     '"7/2"], ["5", "3"]], "edges": [{"i": 0, "j": 1, "w": "7", '
     '"share_ij": "1/2"}, {"i": 0, "j": 2, "w": "1", '
     '"share_ij": "1/2"}]}\n'),
    (None, ['gen', 'example1', '--r', '3/2'], 0,
     '{"n": 3, "m": 3, "intrinsic": [["8485281/4000000", "3/2", '
     '"0"], ["0", "8485281/4000000", "3/2"], ["3/2", "0", '
     '"8485281/4000000"]], "edges": [{"i": 0, "j": 1, "w": "3/2", '
     '"share_ij": "1"}, {"i": 1, "j": 2, "w": "3/2", '
     '"share_ij": "1"}, {"i": 2, "j": 0, "w": "3/2", '
     '"share_ij": "1"}]}\n'),
    (None, ['gen', 'prop5', '--m', '2', '--r', '2', '--eps', '1/10'], 0,
     '{"n": 2, "m": 2, "intrinsic": [["2", "2"], ["0", "1/5"]], '
     '"edges": [{"i": 0, "j": 1, "w": "21/10", '
     '"share_ij": "20/21"}]}\n'),
    (None, ['gen', 'triangle', '--c', '3'], 0,
     '{"n": 3, "m": 3, "tables": [[{"strategy": 1, "others": [], '
     '"u": "9"}, {"strategy": 1, "others": [1], "u": "27"}, '
     '{"strategy": 1, "others": [1, 2], "u": "27"}, '
     '{"strategy": 1, "others": [2], "u": "9"}, {"strategy": 2, '
     '"others": [], "u": "3"}, {"strategy": 2, "others": [1], '
     '"u": "27"}, {"strategy": 2, "others": [1, 2], "u": "27"}, '
     '{"strategy": 2, "others": [2], "u": "3"}, {"strategy": 3, '
     '"others": [], "u": "0"}, {"strategy": 3, "others": [1], '
     '"u": "3"}, {"strategy": 3, "others": [1, 2], "u": "3"}, '
     '{"strategy": 3, "others": [2], "u": "0"}], [{"strategy": 1, '
     '"others": [], "u": "0"}, {"strategy": 1, "others": [0], '
     '"u": "0"}, {"strategy": 1, "others": [0, 2], "u": "3"}, '
     '{"strategy": 1, "others": [2], "u": "3"}, {"strategy": 2, '
     '"others": [], "u": "9"}, {"strategy": 2, "others": [0], '
     '"u": "9"}, {"strategy": 2, "others": [0, 2], "u": "27"}, '
     '{"strategy": 2, "others": [2], "u": "27"}, {"strategy": 3, '
     '"others": [], "u": "3"}, {"strategy": 3, "others": [0], '
     '"u": "3"}, {"strategy": 3, "others": [0, 2], "u": "27"}, '
     '{"strategy": 3, "others": [2], "u": "27"}], '
     '[{"strategy": 1, "others": [], "u": "3"}, {"strategy": 1, '
     '"others": [0], "u": "27"}, {"strategy": 1, "others": [0, '
     '1], "u": "27"}, {"strategy": 1, "others": [1], "u": "3"}, '
     '{"strategy": 2, "others": [], "u": "0"}, {"strategy": 2, '
     '"others": [0], "u": "3"}, {"strategy": 2, "others": [0, 1], '
     '"u": "3"}, {"strategy": 2, "others": [1], "u": "0"}, '
     '{"strategy": 3, "others": [], "u": "9"}, {"strategy": 3, '
     '"others": [0], "u": "27"}, {"strategy": 3, "others": [0, '
     '1], "u": "27"}, {"strategy": 3, "others": [1], '
     '"u": "9"}]]}\n'),
    ('two', ['solve', 'algorithm1'], 0,
     '{"profile": "1,2,1,2,1", "welfare": "107/3"}\n'),
    ('two', ['solve', 'algorithm1', '--profile', '2,1,2,1,2'], 0,
     '{"profile": "2,2,2,2,2", "welfare": "95/2"}\n'),
    ('two', ['solve', 'strong2'], 0,
     '{"profile": "2,2,2,2,2", "welfare": "95/2"}\n'),
    ('rand', ['solve', 'sqrt2'], 0,
     '{"profile": "1,1,2,1,2", "welfare": "34"}\n'),
    ('rand', ['solve', 'oneshot', '--alpha', '3/2', '--k0', '2'], 0,
     '{"profile": "2,1,2,2,2", "moves": 1, "welfare": "63/2"}\n'),
    ('rand', ['solve', 'hybrid'], 0,
     '{"profile": "1,1,1,1,1", "welfare": "233/6", '
     '"s1": "1,1,1,1,1", "s2": "1,1,2,1,2", '
     '"welfare_s1": "233/6", "welfare_s2": "34"}\n'),
    ('omega', ['solve', 'lexstrong'], 0,
     '{"profile": "1,2,2", "mass_vector": ["2", "8"], '
     '"alpha": "2"}\n'),
    ('rand', ['verify', 'nash', '--profile', '1,1,2,1,2'], 0,
     '{"max_factor": "1", "witness": null, "stable": true}\n'),
    ('rand', ['verify', 'nash', '--profile', '1,1,1,1,1', '--alpha', '3/2'],
     0,
     '{"max_factor": "80/69", "witness": 2, "stable": true}\n'),
    ('rand', ['verify', 'nash', '--profile', '1,1,1,1,1'], 4,
     '{"max_factor": "80/69", "witness": 2, "stable": false}\n'),
    ('cc', ['audit-potential', '--trials', '50', '--seed', '1'], 0,
     '{"recovered": true, "gamma": ["1", "1", "1", "3"], '
     '"trials": 648, "violations": 0}\n'),
    ('e1', ['audit-potential'], 4,
     '{"recovered": false, "edge": [0, 1], '
     '"reason": "share 0 or 1 admits no positive weights"}\n'),
    ('rand', ['audit-potential'], 0,
     '{"recovered": true, "gamma": ["21/4", "7/3", "1", "21", '
     '"9"], "trials": 2430, "violations": 0}\n'),
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
