"""Byte-identity guard: CLI output against stored golden files.

Each case runs ``minorbench.cli.main`` from the repository root with
relative paths and compares its exit code, its stdout and every file it
writes into the scratch directory (``{tmp}`` in the arguments) with the
files under ``tests/golden/``.  Later cases read hosts and witnesses
from the golden outputs of earlier ones, as the README tour does with
``built.el`` and ``model.json``.

After an intended output change, regenerate the files with

    PYTHONPATH=src python3 tests/test_golden.py

which prints each file it rewrites and whether the change is confined
to "nodes" and "searches" lines.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from minorbench import (SearchStatus, cli, delete_edges, find_expansion,
                        parse_graph)
from minorbench.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path("tests/golden")

SQ = "samples/square-with-tail.el"
SQ_CTX = "samples/square-with-tail-context.el"
TRI = "samples/triangle.el"
K4 = "samples/k4.el"
K5 = "samples/k5.el"
HOST2 = "samples/two-part-host.el"
TWT = "samples/triangle-with-tail.el"
CORE = "samples/complete-core.txt"
RCORE = "samples/rooted-core.txt"
BUILT = str(GOLDEN / "hstar1.out")
BUILT2 = str(GOLDEN / "hstar2.out")
CHAIN = "samples/block-chain-host.el"

# (golden name, expected exit code, argv); several cases may share a name
CASES = [
    # the README quick tour
    ("blocks", 0, ["blocks", SQ]),
    ("segments", 0, ["segments", SQ, "--ctx", SQ_CTX]),
    ("gtimes", 0, ["gtimes", SQ, "--ctx", SQ_CTX, "-r", "3"]),
    ("gtimes-branch-count", 0,
     ["gtimes", SQ, "--ctx", SQ_CTX, "-r", "3", "--check-branch-count"]),
    ("robust-ctx-r3", 0, ["robust", SQ, "--ctx", SQ_CTX, "-r", "3"]),
    ("minor", 0, ["minor", TRI, K4]),
    ("minor-verify", 0,
     ["minor", TRI, K4, "--verify", str(GOLDEN / "minor.out")]),
    ("hstar1", 0, ["hstar1", HOST2, CORE, "--anchor", "p", "-r", "2"]),
    ("robust-hstar1", 0, ["robust", HOST2, "--host", BUILT, "-r", "2"]),
    ("pack-hstar1", 0, ["pack", HOST2, BUILT, "--cap", "4"]),
    ("gencheck-complete", 0, ["gencheck", K4, CORE]),
    ("hstar2", 0, ["hstar2", TWT, RCORE, "--predicate", TRI, "-r", "2",
                   "--trace", "{tmp}/trace.json"]),
    ("robust-hstar2", 0,
     ["robust", TWT, "--host", BUILT2, "-r", "2", "--roots", "s=s#1"]),
    ("locality", 0, ["locality", TWT, BUILT2, "samples/anchor-triangle.el",
                     "--region", "c1#0,c2#0,c3#0,c4#0,s#1"]),
    # the same scan with one and two workers must print the same bytes
    ("robust-ctx-r4", 0,
     ["robust", SQ, "--ctx", SQ_CTX, "-r", "4", "--jobs", "1"]),
    ("robust-ctx-r4", 0,
     ["robust", SQ, "--ctx", SQ_CTX, "-r", "4", "--jobs", "2"]),
    ("hit", 0, ["hit", TRI, K4]),
    ("pack-k4", 0, ["pack", TRI, K4]),
    ("gencheck-rooted", 0, ["gencheck", "samples/anchor-triangle.el", RCORE]),
    ("hereditary", 0, ["hereditary", TRI, "samples/path3.el", K4, SQ,
                       "--trials", "20"]),
    # further graph and text outputs
    ("components-json", 0, ["components", HOST2, "--format", "json"]),
    ("blocks-json", 0, ["blocks", SQ, "--format", "json"]),
    ("segments-json", 0,
     ["segments", SQ, "--ctx", SQ_CTX, "--format", "json"]),
    ("classify", 0, ["classify", HOST2]),
    ("gtimes-dot", 0,
     ["gtimes", SQ, "--ctx", SQ_CTX, "-r", "2", "--format", "dot"]),
    ("hstar1-dot", 0, ["hstar1", HOST2, CORE, "--anchor", "p", "-r", "2",
                       "--format", "dot"]),
    # the K4 gadget, reduced to K4 before every search
    ("robust-k4-gadget-r3", 0, ["robust", K4, "--ctx", K4, "-r", "3"]),
    ("robust-k4-gadget-r4", 0, ["robust", K4, "--ctx", K4, "-r", "4"]),
    ("robust-k5-gadget-r3", 0, ["robust", K5, "--ctx", K5, "-r", "3"]),
    ("robust-k5-gadget-r4", 0, ["robust", K5, "--ctx", K5, "-r", "4"]),
    # seven edge-disjoint triangles: the lines of the Fano plane
    ("pack-k3-k7", 0, ["pack", TRI, "samples/k7.el"]),
    # K4 plus the 22-vertex K4 gadget at r = 3: the gadget component is
    # decided by a bounded search and blown up, with no size guard
    ("hstar1-k4-gadget", 0, ["hstar1", "samples/k4-and-gadget.el", CORE,
                             "--anchor", "p", "-r", "2"]),
    # decided by the search tree over footprints at the default budget
    ("robust-k4-gadget-r5", 0, ["robust", K4, "--ctx", K4, "-r", "5"]),
    ("robust-k4-gadget-r6", 0, ["robust", K4, "--ctx", K4, "-r", "6"]),
    ("robust-k5-gadget-r5", 0, ["robust", K5, "--ctx", K5, "-r", "5"]),
    # a prebuilt host is scanned with --host: deleting one edge of the
    # path leaves no path on three vertices
    ("robust-path3-refuted", 1,
     ["robust", "samples/path3.el", "--host", "samples/path3.el", "-r", "2"]),
    # three searches find three edge-disjoint models, one short of the
    # radius, so the scan names where it stopped
    ("robust-k4-gadget-search-budget", 2,
     ["robust", K4, "--ctx", K4, "-r", "4", "--budget", "10000000:3"]),
    # the floor decides sizes 0-2 of K3 in K4 with no search; the
    # seed's 2 searches leave the first set of size 3 unsearched
    ("hit-search-budget", 2, ["hit", TRI, K4, "--budget", "10000000:2"]),
    # the 16-vertex K4 gadget at r = 2 and its exact packing: footprints
    # are listed by size only as far as the search can use them
    ("gtimes-k4-gadget-r2", 0, ["gtimes", K4, "--ctx", K4, "-r", "2"]),
    ("pack-k4-gadget-r2", 0,
     ["pack", K4, str(GOLDEN / "gtimes-k4-gadget-r2.out")]),
    # the 45-vertex hstar1 host: 9 edges kill every K4 model, and the
    # first such set in label order is named by a descent over the tree
    ("robust-k4-hstar1-r10", 1,
     ["robust", K4, "--host", str(GOLDEN / "hstar1-k4-gadget.out"),
      "-r", "10"]),
    ("hit-k4-hstar1", 0, ["hit", K4, str(GOLDEN / "hstar1-k4-gadget.out")]),
    # the block assembly in DOT: s#1 merges two hanger copies of s and the
    # core root s', and its role lists their three tags
    ("hstar2-dot", 0, ["hstar2", TWT, RCORE, "--predicate", TRI, "-r", "2",
                       "--format", "dot"]),
    # the paper's gadgets at radii where r edge-disjoint models, found
    # before the search tree starts, leave no deletion set to search
    ("robust-k5-gadget-r8", 0, ["robust", K5, "--ctx", K5, "-r", "8"]),
    ("robust-k4-gadget-r10", 0, ["robust", K4, "--ctx", K4, "-r", "10"]),
    # the 81-vertex hstar1 host at r = 4 and its smallest K4 hitting set
    ("hstar1-k4-gadget-r4", 0, ["hstar1", "samples/k4-and-gadget.el", CORE,
                                "--anchor", "p", "-r", "4"]),
    ("hit-k4-hstar1-r4", 0,
     ["hit", K4, str(GOLDEN / "hstar1-k4-gadget-r4.out")]),
    # a block assembly around the K4 block abco that blows up the K4
    # block efgi containing it, the square demn on the chain between
    # them and the trivial path c-d, and copies the triangle gxy hanging
    # off the chain; the tree has four cutvertices
    ("hstar2-block-chain", 0,
     ["hstar2", CHAIN, "samples/rooted-core-c.txt", "--predicate", K4,
      "-r", "2", "--trace", "{tmp}/trace.json"]),
    ("blocks-block-chain-json", 0, ["blocks", CHAIN, "--format", "json"]),
    # the triangle gxy is a closed segment at g
    ("segments-closed-json", 0,
     ["segments", CHAIN, "--ctx", CHAIN, "--format", "json"]),
    # a footprint whose anchor images lie in the region has no model
    # inside it, found by the first restricted search
    ("locality-refuted", 1, ["locality", TWT, BUILT2,
                             "samples/anchor-triangle.el",
                             "--region", "c1#0,c2#0,c3#0,s#1"]),
    # every footprint anchored in the region has a model inside it
    ("locality-restricted", 0, ["locality", K4, BUILT, "samples/edge-pq.el",
                                "--region", "1#0,2#0,5#0"]),
    # a core claiming k = 1 is refuted by the one K4 model it packs
    ("gencheck-packs", 1, ["gencheck", K4, "samples/complete-core-k1.txt"]),
    # the paper's gadgets pack r copies: r greedy models meet the degree
    # counts' bound, so no footprint is listed
    ("gtimes-k4-gadget-r3", 0, ["gtimes", K4, "--ctx", K4, "-r", "3"]),
    ("pack-k4-gadget-r3", 0,
     ["pack", K4, str(GOLDEN / "gtimes-k4-gadget-r3.out")]),
    ("gtimes-k5-gadget-r3", 0, ["gtimes", K5, "--ctx", K5, "-r", "3"]),
    ("pack-k5-gadget-r3", 0,
     ["pack", K5, str(GOLDEN / "gtimes-k5-gadget-r3.out")]),
    # the 45-vertex hstar1 host: 82 edges hold one copy of the 42-edge
    # K4 and gadget pattern, and seven greedy K4 models meet the bound
    ("pack-hstar1-k4-gadget", 0,
     ["pack", "samples/k4-and-gadget.el",
      str(GOLDEN / "hstar1-k4-gadget.out"), "--cap", "4"]),
    ("pack-k4-hstar1", 0,
     ["pack", K4, str(GOLDEN / "hstar1-k4-gadget.out")]),
    # the K4 gadget at r = 3 as a core: it packs 3 < 4 copies of K4, and
    # a K4 model survives every deletion of 2 edges
    ("gencheck-k4-gadget", 0, ["gencheck", K4, "samples/k4-gadget-core.txt"]),
    # K7 has 21 edges and at most 2 * 7 - 3 = 11 without a K4 minor
    # (Mader), so every deletion of 9 edges keeps a K4 model, and the
    # scan holds with no search; hit starts its tree at size 10
    ("robust-k4-k7-r10", 0,
     ["robust", K4, "--host", "samples/k7.el", "-r", "10"]),
    ("hit-k4-k7", 0, ["hit", K4, "samples/k7.el"]),
    # K7 has cycle rank 21 - 7 + 1 = 15, so hit starts its tree at size
    # 15, and the floor of K7 less each prefix settles the descent
    ("hit-k3-k7", 0, ["hit", TRI, "samples/k7.el"]),
]


def run_case(argv: list[str], tmp: Path) -> tuple[int, str, dict[str, str]]:
    """Exit code, stdout and the files written under tmp, by name."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([a.replace("{tmp}", str(tmp)) for a in argv])
    files = {p.name: p.read_text(encoding="utf-8")
             for p in sorted(tmp.iterdir())}
    return code, out.getvalue(), files


@pytest.mark.parametrize(
    "name,code,argv", CASES,
    ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(CASES)])
def test_output_matches_golden(name, code, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    got_code, out, files = run_case(argv, tmp_path)
    assert got_code == code
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    for fname, text in files.items():
        assert text == (GOLDEN / f"{name}.{fname}").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name,code,argv", CASES,
    ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(CASES)])
def test_no_path_is_read_twice(name, code, argv, tmp_path, monkeypatch):
    # a command that names one path twice (FILE --ctx FILE, minor P P)
    # must read it once, or stdin named twice reads nothing the second time
    monkeypatch.chdir(ROOT)
    reads: Counter[str] = Counter()
    read = cli._read_text

    def counted(path: str) -> str:
        reads[path] += 1
        return read(path)

    monkeypatch.setattr(cli, "_read_text", counted)
    assert run_case(argv, tmp_path)[0] == code
    assert reads and max(reads.values()) == 1, reads


WITNESS_CASES = [
    ("hit-k4-hstar1", K4, GOLDEN / "hstar1-k4-gadget.out"),
    ("hit-k4-hstar1-r4", K4, GOLDEN / "hstar1-k4-gadget-r4.out"),
    ("hit-k4-k7", K4, "samples/k7.el"),
    ("hit-k3-k7", TRI, "samples/k7.el")]


@pytest.mark.parametrize(
    "name, pattern, host", WITNESS_CASES,
    ids=[f"{name}-{Path(host).name}" for name, _, host in WITNESS_CASES])
def test_hit_witness_leaves_no_model(name, pattern, host):
    # deleting the witness of a golden hit leaves no pattern model in
    # its host
    report = json.loads((ROOT / GOLDEN / f"{name}.out").read_text("utf-8"))
    X = [tuple(e) for e in report["details"]["hitting_edges"]]
    assert len(X) == report["details"]["size"]
    g = parse_graph((ROOT / host).read_text("utf-8"))
    h = parse_graph((ROOT / pattern).read_text("utf-8"))
    assert find_expansion(h, delete_edges(g, X)).status is SearchStatus.NONE


COUNT_KEYS = ('"nodes"', '"searches"')


def change_kind(old: str | None, new: str) -> str | None:
    """How a golden file changes: None when it does not, else "new",
    "counts only" when every changed line is the same "nodes" or
    "searches" line with another count, or "changed"."""
    if old == new:
        return None
    if old is None:
        return "new"
    a, b = old.splitlines(), new.splitlines()
    if len(a) == len(b) and all(
            x.split(":")[0] == y.split(":")[0]
            and x.split(":")[0].strip() in COUNT_KEYS
            for x, y in zip(a, b) if x != y):
        return "counts only"
    return "changed"


def write_golden(path: Path, text: str) -> None:
    """Write one golden file and print how it changed, if it did."""
    kind = change_kind(path.read_text(encoding="utf-8")
                       if path.exists() else None, text)
    if kind is not None:
        print(f"{path.name}: {kind}")
        path.write_text(text, encoding="utf-8")


def test_change_kind_names_nodes_only_edits():
    old = ('{\n  "count": 1,\n  "stats": {\n    "nodes": 74,\n'
           '    "searches": 9\n  }\n}\n')
    assert change_kind(old, old) is None
    assert change_kind(None, old) == "new"
    assert change_kind(old, old.replace("74", "62")) == "counts only"
    assert change_kind(old, old.replace("9\n", "12\n")) == "counts only"
    both = old.replace("74", "62").replace("9\n", "12\n")
    assert change_kind(old, both) == "counts only"
    assert change_kind(old, old.replace('"count": 1', '"count": 2')) == "changed"
    assert change_kind(old, old.replace('"nodes"', '"searches"')) == "changed"
    assert change_kind(old, old.replace('"searches": 9', '"x": 9')) == "changed"
    assert change_kind(old, old + "\n") == "changed"


def regenerate() -> None:
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    written: dict[str, str] = {}
    for name, code, argv in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            got_code, out, files = run_case(argv, Path(tmp))
        if got_code != code:
            sys.exit(f"{name}: exit code {got_code}, expected {code}")
        if written.setdefault(name, out) != out:
            sys.exit(f"{name}: cases sharing this name print different bytes")
        write_golden(GOLDEN / f"{name}.out", out)
        for fname, text in files.items():
            write_golden(GOLDEN / f"{name}.{fname}", text)


if __name__ == "__main__":
    regenerate()
