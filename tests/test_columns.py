"""The int-column pairwise game against the Edge and Fraction path it
replaced, which this module keeps as its reference.

`EdgeGame`, `reference_parse` and `reference_serialize` are that path: a
frozen dataclass of Fraction rows and `Edge` objects whose
``__post_init__`` runs every check in its order, a decoder that builds
those objects from the wire and a writer that formats them.  Its kernel is
`_int_kernel` of its group list.  On seeded files of every pairwise `gen`
kind, the column path must give the same kernel ints and scale, the same
``intrinsic`` and ``edges`` views, the same group list and the same bytes
back; on bad files, the same first message.
"""

import dataclasses
import hashlib
import json
import re
from fractions import Fraction

import pytest

from scg.cli import main
from scg.model import (Edge, GameInstance, _check_dims, _int_kernel,
                       instance_stats, parse_instance, serialize_instance)
from scg.rationals import (_EXACT, ParseError, _as_list, _construct,
                           _inexact, _not_int, format_rational, load_object,
                           rational_reader)


@dataclasses.dataclass(frozen=True)
class EdgeGame:
    n: int
    m: int
    intrinsic: tuple
    edges: tuple

    def __post_init__(self):
        _check_dims(self)
        if len(self.intrinsic) != self.n:
            raise ValueError("intrinsic: expected n rows")
        for i, row in enumerate(self.intrinsic):
            if len(row) != self.m:
                raise ValueError(f"intrinsic[{i}]: expected m entries")
            for k, v in enumerate(row):
                if type(v) not in _EXACT:
                    raise _inexact(f"intrinsic[{i}][{k}]", v)
                if v < 0:
                    raise ValueError(f"intrinsic[{i}][{k}]: negative entry")
        seen = set()
        for e in self.edges:
            i, j, w, share = e.i, e.j, e.w, e.share_ij
            if type(i) is not int or type(j) is not int:
                name = "i" if type(i) is not int else "j"
                raise _not_int(f"edge ({i},{j}).{name}", getattr(e, name))
            if i == j:
                raise ValueError(f"edge ({i},{j}): self-loop")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}): player index out of range")
            if (min(i, j), max(i, j)) in seen:
                raise ValueError(f"edge ({i},{j}): duplicate pair")
            seen.add((min(i, j), max(i, j)))
            if type(w) not in _EXACT:
                raise _inexact(f"edge ({i},{j}).w", w)
            if type(share) not in _EXACT:
                raise _inexact(f"edge ({i},{j}).share_ij", share)
            if w < 0:
                raise ValueError(f"edge ({i},{j}).w: negative weight")
            if not 0 <= share <= 1:
                raise ValueError(f"edge ({i},{j}).share_ij: share out of range")

    def _groups(self):
        groups = [((i,), k, Fraction(v).as_integer_ratio(), ((1, 1),))
                  for i, row in enumerate(self.intrinsic)
                  for k, v in enumerate(row, 1)]
        for e in self.edges:
            share = Fraction(e.share_ij)
            groups.append(((e.i, e.j), None, Fraction(e.w).as_integer_ratio(),
                           (share.as_integer_ratio(),
                            (1 - share).as_integer_ratio())))
        return groups


def reference_parse(text):
    data = load_object(text, ("n", "m", "intrinsic", "edges"))
    intrinsic, read = [], rational_reader()
    for i, row in enumerate(_as_list(data["intrinsic"], "intrinsic")):
        intrinsic.append(tuple(
            read(v, f"intrinsic[{i}][{k}]")
            for k, v in enumerate(_as_list(row, f"intrinsic[{i}]"))))
    edges = []
    for idx, raw in enumerate(_as_list(data["edges"], "edges")):
        if not isinstance(raw, dict):
            raise ParseError(f"edges[{idx}]: expected object")
        try:
            i, j = raw["i"], raw["j"]
        except KeyError as exc:
            raise ParseError(f"edges[{idx}]: missing endpoint") from exc
        for name, v in (("i", i), ("j", j)):
            if type(v) is not int:
                raise ParseError(f"edges[{idx}].{name}: expected integer")
        w = read(raw.get("w"), f"edges[{idx}].w")
        share = read(raw.get("share_ij"), f"edges[{idx}].share_ij")
        edges.append(Edge(i=i, j=j, w=w, share_ij=share))
    return _construct(EdgeGame, n=data["n"], m=data["m"],
                      intrinsic=tuple(intrinsic), edges=tuple(edges))


def reference_serialize(game):
    return json.dumps({
        "n": game.n, "m": game.m,
        "intrinsic": [[format_rational(Fraction(v)) for v in row]
                      for row in game.intrinsic],
        "edges": [{"i": e.i, "j": e.j, "w": format_rational(Fraction(e.w)),
                   "share_ij": format_rational(Fraction(e.share_ij))}
                  for e in game.edges],
    }) + "\n"


def gen(tmp_path, *argv):
    path = tmp_path / "game.json"
    assert main(["gen", *argv, "--out", str(path)]) == 0
    return path.read_text()


def assert_same_game(text):
    """The column path reads `text` as the reference does, and writes it
    back unchanged."""
    game, ref = parse_instance(text), reference_parse(text)
    assert game._kernel == _int_kernel(ref.n, ref.m, ref._groups())
    assert type(game._kernel).__name__ == "IntKernel"
    assert game.intrinsic == ref.intrinsic and game.edges == ref.edges
    assert all(type(v) is Fraction for row in game.intrinsic for v in row)
    assert all(type(v) is Fraction for e in game.edges
               for v in (e.w, e.share_ij))
    assert game._groups() == ref._groups()
    for i in range(game.n):
        assert game._groups(i) == [g for g in ref._groups() if i in g[0]]
    assert serialize_instance(game) == reference_serialize(ref) == text
    assert GameInstance(ref.n, ref.m, ref.intrinsic, ref.edges) == game
    assert dataclasses.replace(game) == game
    return game


PAIRWISE_KINDS = ("random", "random-cc", "random-symmetric")


@pytest.mark.parametrize("n", (1, 5, 40))
@pytest.mark.parametrize("kind", PAIRWISE_KINDS)
def test_random_files_read_as_the_reference(tmp_path, kind, n):
    for seed in (1, 2, 3):
        for m in (1, 3):
            text = gen(tmp_path, kind, "--n", str(n), "--m", str(m),
                       "--seed", str(seed))
            game = assert_same_game(text)
            assert (game.n, game.m) == (n, m)


@pytest.mark.parametrize("argv", [
    ("example1",), ("example1", "--r", "5/2"),
    ("prop5", "--m", "2"), ("prop5", "--m", "5", "--r", "3/2"),
    ("prop5", "--m", "40"),
    ("symmetric-pos-tight", "--m", "2"),
    ("symmetric-pos-tight", "--m", "5", "--eps", "1/3"),
    ("symmetric-pos-tight", "--m", "40"),
])
def test_named_files_read_as_the_reference(tmp_path, argv):
    assert_same_game(gen(tmp_path, *argv))


@pytest.mark.parametrize("m", (1, 3))
def test_an_empty_game_reads_as_the_reference(m):
    text = json.dumps({"n": 0, "m": m, "intrinsic": [], "edges": []}) + "\n"
    game = assert_same_game(text)
    assert game._kernel.scale == 1 and instance_stats(game).mri == 1


@pytest.mark.parametrize("argv,digest", [
    (("random", "--n", "40", "--m", "3", "--seed", "1"),
     "d2c38e28c55ee2601d7634ce2e649184f9178e2412c2bd30b08b72bad96cca48"),
    (("random-cc", "--n", "40", "--m", "3", "--seed", "2"),
     "6d72cb47d3eb4527e95c9467870d280343e85078547b662f18b139c95c2ef18d"),
    (("random-symmetric", "--n", "40", "--m", "4", "--seed", "3"),
     "92b2def36b75528f56d6232ab3d43e727789749ae5c1834e74a087033f1abd14"),
    (("example1", "--r", "5/2"),
     "a1dfec390f6a52baeed2a212bf488ab2b55ad797c877202a1faa7a6015cd5a33"),
    (("prop5", "--m", "5"),
     "22d2003fe29863eb0cb758df17af455067d955866939f28f7080d057bc4c125e"),
    (("symmetric-pos-tight", "--m", "40"),
     "c26e5388f8c943d29538db53e79da52404f375a77134aeb41d82d5b039b7856f"),
])
def test_generated_files_keep_their_bytes(tmp_path, argv, digest):
    """sha256 of files the Edge path wrote: the draws and the writer kept."""
    text = gen(tmp_path, *argv)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def instance(intrinsic=(("1",), ("1",)), edges=(), n=2, m=1):
    return json.dumps({"n": n, "m": m, "intrinsic": intrinsic,
                       "edges": list(edges)})


def edge(i=0, j=1, w="1", share="1/2"):
    return {"i": i, "j": j, "w": w, "share_ij": share}


BAD_FILES = {
    # decode errors come first, in file order, whatever value errors an
    # earlier part holds
    "late-grammar-beats-early-self-loop": instance(
        edges=[edge(0, 0), edge(0, 1, w="x")]),
    "late-endpoint-beats-early-duplicate": instance(
        edges=[edge(0, 1), edge(1, 0), edge("0", 1)]),
    "late-row-beats-early-negative": instance(
        intrinsic=[["-1"], "1"]),
    "known-strings-then-bad-endpoint": instance(
        edges=[edge(), edge(True, 1)]),
    "known-strings-then-missing-endpoint": instance(
        edges=[edge(), {"i": 0, "w": "1", "share_ij": "1/2"}]),
    "known-strings-then-missing-share": instance(
        edges=[edge(), {"i": 0, "j": 1, "w": "1"}]),
    "known-string-as-a-list": instance(edges=[edge(), edge(w=["1"])]),
    "row-of-known-chars": instance(intrinsic=[["1"], "11"]),
    # value errors, in the order of the checks
    "negative-weight-before-duplicate": instance(
        edges=[edge(w="-1"), edge(1, 0)]),
    "duplicate-before-negative-weight": instance(
        edges=[edge(), edge(1, 0, w="-1")]),
    "self-loop-before-out-of-range": instance(
        edges=[edge(1, 1), edge(0, 5)]),
    "negative-entry-before-short-row": instance(
        intrinsic=[["-1", "0"], ["1"]], m=2),
    "short-row-before-edges": instance(
        intrinsic=[["1"], []], edges=[edge(0, 0)]),
    "rows-before-edges": instance(intrinsic=[["1"]], edges=[edge(0, 0)]),
    "n-before-rows": json.dumps({"n": True, "m": 1, "intrinsic": [],
                                 "edges": []}),
    "m-zero": instance(m=0),
    "negative-n": instance(n=-1),
    "share-above-one": instance(edges=[edge(share="3/2")]),
    "share-below-zero": instance(edges=[edge(share="-1/2")]),
    "zero-denominator": instance(edges=[edge(share="1/0")]),
    "float-value": instance(intrinsic=[[1.0], ["1"]]),
    "bool-weight": instance(edges=[edge(w=True)]),
    "null-share": instance(edges=[edge(share=None)]),
    "plus-sign": instance(intrinsic=[["+1"], ["1"]]),
    "edge-not-object": instance(edges=[edge(), 5]),
    "edges-not-list": json.dumps({"n": 2, "m": 1,
                                  "intrinsic": [["1"], ["1"]], "edges": {}}),
    "intrinsic-not-list": json.dumps({"n": 0, "m": 1, "intrinsic": "",
                                      "edges": []}),
    "missing-field": json.dumps({"n": 0, "m": 1, "intrinsic": []}),
    "top-level-list": "[]",
    "malformed": "{",
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("text", BAD_FILES.values(), ids=BAD_FILES)
def test_bad_files_give_the_references_first_message(text):
    with pytest.raises(ParseError) as ref:
        reference_parse(text)
    with pytest.raises(ParseError) as mine:
        parse_instance(text)
    assert str(mine.value) == str(ref.value)


@pytest.mark.parametrize("case,message", [
    ("late-grammar-beats-early-self-loop", "edges[1].w: not a rational: 'x'"),
    ("negative-weight-before-duplicate", "edge (0,1).w: negative weight"),
])
def test_the_order_cases_name_what_they_should(case, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_instance(BAD_FILES[case])


def test_json_ints_and_unreduced_strings_read_as_the_reference():
    text = instance(intrinsic=[[3], ["6/4"]],
                    edges=[edge(1, 0, w=2, share="2/4")])
    game, ref = parse_instance(text), reference_parse(text)
    assert game.own == (((3, 1),), ((3, 2),))
    assert (game.intrinsic, game.edges) == (ref.intrinsic, ref.edges)
    assert game._kernel == _int_kernel(ref.n, ref.m, ref._groups())
    assert serialize_instance(game) == reference_serialize(ref)
