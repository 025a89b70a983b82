"""Command-line interface: subcommands, exit codes, output formats."""

import io
import json
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

from minorbench import (Graph, cli, decompose, embed, gadgets, parse_graph,
                        serialize)
from minorbench import verify
from minorbench.cli import main
from helpers import SAMPLES, seeded_host

PYPROJECT = SAMPLES.parent / "pyproject.toml"

SQ = str(SAMPLES / "square-with-tail.el")
SQ_CTX = str(SAMPLES / "square-with-tail-context.el")
P3 = str(SAMPLES / "path3.el")
P3_CTX = str(SAMPLES / "path3-context.el")
TRI = str(SAMPLES / "triangle.el")
K4 = str(SAMPLES / "k4.el")
HOST2 = str(SAMPLES / "two-part-host.el")
TWT = str(SAMPLES / "triangle-with-tail.el")
CORE = str(SAMPLES / "complete-core.txt")
RCORE = str(SAMPLES / "rooted-core.txt")
K4_AND_GADGET = str(SAMPLES / "k4-and-gadget.el")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestInspection:
    def test_components_text(self, capsys):
        code, out, _ = run(capsys, "components", HOST2)
        assert code == 0
        assert out.splitlines() == [
            "component 1: n=4 m=6 vertices: p q s t",
            "component 2: n=2 m=1 vertices: y z",
        ]

    def test_components_of_the_empty_graph_print_nothing(self, capsys,
                                                         tmp_path):
        f = tmp_path / "empty.el"
        f.write_text("0 0\n")
        assert run(capsys, "components", str(f)) == (0, "", "")

    def test_components_json(self, capsys):
        code, obj, _ = run_json(capsys, "components", HOST2,
                                "--format", "json")
        assert code == 0
        assert [c["vertices"] for c in obj["components"]] == [
            ["p", "q", "s", "t"], ["y", "z"]]

    def test_blocks_text(self, capsys):
        code, out, _ = run(capsys, "blocks", SQ)
        assert code == 0
        assert "cutvertices: w" in out

    def test_blocks_json(self, capsys):
        code, obj, _ = run_json(capsys, "blocks", SQ, "--format", "json")
        assert code == 0
        assert obj["cutvertices"] == ["w"]
        trivials = [b for b in obj["blocks"] if b["trivial"]]
        assert len(trivials) == 1
        assert trivials[0]["vertices"] == ["w", "w1"]

    def test_blocks_single_vertex_is_isolated(self, capsys, tmp_path):
        # K1 is one edgeless block: neither a bridge nor 2-connected
        f = tmp_path / "k1.el"
        f.write_text("1 0\nv\n")
        assert run(capsys, "blocks", str(f)) == (
            0, "block 0 (isolated): v\ncutvertices:\n", "")
        code, obj, _ = run_json(capsys, "blocks", str(f), "--format", "json")
        assert code == 0
        assert obj["blocks"] == [{"edges": [], "id": 0, "trivial": False,
                                  "vertices": ["v"]}]

    def test_blocks_rejects_disconnected(self, capsys):
        code, out, err = run(capsys, "blocks", HOST2)
        assert code == 65
        assert out == "" and "error:" in err

    def test_segments_text(self, capsys):
        code, out, _ = run(capsys, "segments", SQ, "--ctx", SQ_CTX)
        assert code == 0
        assert "branch vertices: v w" in out
        assert "pendant w w1 length 1" in out

    def test_segments_json(self, capsys):
        code, obj, _ = run_json(capsys, "segments", SQ, "--ctx", SQ_CTX,
                                "--format", "json")
        assert code == 0
        assert obj["branch_vertices"] == ["v", "w"]
        assert [s["kind"] for s in obj["segments"]] == [
            "between", "between", "pendant"]
        assert [s["length"] for s in obj["segments"]] == [1, 3, 1]

    def test_segments_requires_ctx(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["segments", SQ])
        assert exc.value.code == 64

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", HOST2)
        assert code == 0
        assert out == "HasDegree3Vertex\nPath\n"

    def test_classify_cycle(self, capsys):
        code, out, _ = run(capsys, "classify", TRI)
        assert (code, out) == (0, "Cycle\n")

    def test_graph6_input(self, capsys, tmp_path):
        f = tmp_path / "k4.g6"
        f.write_text("C~\n")
        code, out, _ = run(capsys, "components", str(f))
        assert code == 0
        assert "n=4 m=6" in out

    def test_graph6_bytes_past_the_adjacency_are_a_data_error(self, capsys,
                                                              tmp_path):
        f = tmp_path / "triangle.g6"
        f.write_text("BwXYZ\n")
        code, out, err = run(capsys, "components", str(f))
        assert code == 65 and out == "" and "past" in err

    @pytest.mark.parametrize("text", ["Bw\nBw\n", "B w\n"])
    def test_graph6_is_one_line_without_whitespace(self, capsys, tmp_path,
                                                   text):
        f = tmp_path / "two.g6"
        f.write_text(text)
        code, out, err = run(capsys, "components", str(f))
        assert (code, out) == (65, "")
        assert err == ("error: graph6 input must be one line without "
                       "whitespace\n")

    @pytest.mark.parametrize("argv", [
        ["segments", SQ, "--ctx", SQ_CTX],
        ["segments", SQ, "--ctx", SQ_CTX, "--format", "json"],
        ["gtimes", SQ, "--ctx", SQ_CTX, "-r", "3", "--check-branch-count"],
    ])
    def test_branch_vertices_once_per_command(self, capsys, monkeypatch,
                                              argv):
        g = parse_graph((SAMPLES / "square-with-tail.el").read_text())
        seen = []
        real = decompose.branch_vertices

        def counted(sub, ctx):
            seen.append(sub)
            return real(sub, ctx)

        for mod in (cli, decompose, gadgets, verify):
            monkeypatch.setattr(mod, "branch_vertices", counted)
        assert run(capsys, *argv)[0] == 0
        assert seen.count(g) == 1

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO((SAMPLES / "triangle.el").read_text()))
        code, out, _ = run(capsys, "classify", "-")
        assert (code, out) == (0, "Cycle\n")

    @pytest.mark.parametrize("argv", [
        ["gtimes", "-", "--ctx", "-", "-r", "2"],
        ["segments", "-", "--ctx", "-"],
        ["robust", "-", "--ctx", "-", "-r", "2"],
        ["minor", "-", "-"],
    ])
    def test_stdin_named_twice_is_read_once(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO((SAMPLES / "k4.el").read_text()))
        code, out, _ = run(capsys, *argv)
        by_path = [K4 if a == "-" else a for a in argv]
        assert (code, out) == run(capsys, *by_path)[:2]
        assert code == 0


class TestConstruction:
    def test_gtimes_sizes(self, capsys):
        code, out, _ = run(capsys, "gtimes", SQ, "--ctx", SQ_CTX, "-r", "3")
        assert code == 0
        g = parse_graph(out)
        assert (len(g.vertices), len(g.edges)) == (14, 18)

    def test_gtimes_dot(self, capsys):
        code, out, _ = run(capsys, "gtimes", SQ, "--ctx", SQ_CTX, "-r", "2",
                           "--format", "dot")
        assert code == 0
        assert out.startswith("graph {")

    def gtimes_dot_of_star(self, capsys, tmp_path, centre):
        # the star's centre is its one branch vertex and keeps its label
        star = tmp_path / "star.el"
        star.write_text(f"4 3\n{centre}\na\nb\nc\n"
                        f"{centre} a\n{centre} b\n{centre} c\n")
        return run(capsys, "gtimes", str(star), "--ctx", str(star), "-r",
                   "2", "--format", "dot")

    def test_gtimes_dot_quotes_labels(self, capsys, tmp_path):
        code, out, _ = self.gtimes_dot_of_star(capsys, tmp_path, 'x"y')
        assert code == 0 and '"x\\"y" [role="branch:x\\"y"];' in out
        code, out, err = self.gtimes_dot_of_star(capsys, tmp_path, "x\\")
        assert code == 65 and out == "" and "backslash" in err

    def test_gtimes_branch_count_report(self, capsys):
        code, obj, _ = run_json(capsys, "gtimes", SQ, "--ctx", SQ_CTX,
                                "-r", "3", "--check-branch-count")
        assert code == 0
        assert obj["check"] == "branch-count"
        assert obj["details"]["expected"] == ["v", "w"]

    def test_gtimes_rejects_r_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gtimes", SQ, "--ctx", SQ_CTX, "-r", "0"])
        assert exc.value.code == 64

    def test_missing_file_is_a_data_error(self, capsys):
        code, _, err = run(capsys, "classify", "no-such-file.el")
        assert code == 65 and "error:" in err

    def test_non_utf8_input_is_a_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_bytes(b"1 0\n\xff\n")
        code, out, err = run(capsys, "components", str(bad))
        assert code == 65 and out == "" and err.startswith("error: ")

    def test_non_decimal_header_digits_are_a_data_error(self, capsys,
                                                        tmp_path):
        # "\u00b2" passes str.isdigit() but int() rejects it
        bad = tmp_path / "bad.el"
        bad.write_text("\u00b2 0\n", encoding="utf-8")
        code, out, err = run(capsys, "components", str(bad))
        assert code == 65 and out == "" and err.startswith("error: ")

    def test_non_decimal_spec_digits_are_a_data_error(self, capsys,
                                                      tmp_path):
        spec = tmp_path / "spec.txt"
        with open(CORE, encoding="utf-8") as fh:
            spec.write_text(fh.read().replace("k 4", "k \u00b2"),
                            encoding="utf-8")
        code, out, err = run(capsys, "gencheck", K4, str(spec))
        assert code == 65 and out == "" and err.startswith("error: ")

    def test_hstar1_output_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "hstar.el"
        code, out, _ = run(capsys, "hstar1", HOST2, CORE, "--anchor", "p",
                           "-r", "2", "-o", str(out_path))
        assert code == 0 and out == ""
        g = parse_graph(out_path.read_text())
        assert g.vertices == {"1#0", "2#0", "3#0", "4#0", "5#0",
                              "y#1", "z#1", "y#2", "z#2"}
        code, _, _ = run(capsys, "robust", HOST2, "--host", str(out_path),
                         "-r", "2")
        assert code == 0

    def test_hstar1_anchor_must_exist(self, capsys):
        code, _, err = run(capsys, "hstar1", HOST2, CORE, "--anchor", "zz",
                           "-r", "2")
        assert code == 65 and "no component contains" in err

    def test_hstar1_anchor_shape_rejected(self, capsys):
        code, _, err = run(capsys, "hstar1", HOST2, CORE, "--anchor", "y",
                           "-r", "2")
        assert code == 65 and "degree" in err

    def test_hstar2_with_trace(self, capsys, tmp_path):
        out_path = tmp_path / "hstar2.el"
        trace_path = tmp_path / "trace.json"
        code, _, _ = run(capsys, "hstar2", TWT, RCORE, "--predicate", TRI,
                         "-r", "2", "--trace", str(trace_path),
                         "-o", str(out_path))
        assert code == 0
        g = parse_graph(out_path.read_text())
        assert g.sorted_vertices() == [
            "c1#0", "c2#0", "c3#0", "c4#0", "d#1", "d#2", "s#1"]
        trace = json.loads(trace_path.read_text())
        assert trace["anchor_block"] == ["b", "c", "s"]
        assert trace["identifications"] == [["s#1", ["s#1", "s#2", "s'#0"]]]

    @pytest.mark.parametrize("argv", [
        ["hstar1", K4_AND_GADGET, CORE, "--anchor", "p", "-r", "2"],
        ["hstar2", TWT, RCORE, "--predicate", TRI, "-r", "2"],
        ["hereditary", TRI, K4, "--trials", "1"],
    ], ids=["hstar1", "hstar2", "hereditary"])
    def test_exhausted_minor_test_exits_2(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(embed, "DEFAULT_NODE_BUDGET", 1)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert [ln for ln in err.splitlines() if ln.startswith("error: ")] \
            == ["error: search budget exhausted after 2 nodes"]

    @pytest.mark.parametrize("argv", [
        ["hstar1", K4_AND_GADGET, CORE, "--anchor", "p", "-r", "2"],
        ["hstar2", TWT, RCORE, "--predicate", TRI, "-r", "2"],
    ], ids=["hstar1", "hstar2"])
    def test_force_flag_is_gone(self, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--force"])
        assert exc.value.code == 64

    def test_hstar2_root_mismatch(self, capsys):
        code, _, err = run(capsys, "hstar2", TWT, CORE, "--predicate", TRI,
                           "-r", "2")
        assert code == 65 and "roots" in err

    def test_hstar2_rejects_disconnected_host(self, capsys):
        code, out, err = run(capsys, "hstar2", HOST2, RCORE, "--predicate",
                             TRI, "-r", "2")
        assert code == 65 and out == "" and "connected" in err

    def test_hstar1_splits_components_once(self, capsys, monkeypatch):
        h = parse_graph((SAMPLES / "k4-and-gadget.el").read_text())
        seen = []
        real = gadgets.connected_components

        def counted(g):
            seen.append(g)
            return real(g)

        for mod in (cli, gadgets):
            monkeypatch.setattr(mod, "connected_components", counted)
        assert run(capsys, "hstar1", K4_AND_GADGET, CORE, "--anchor", "p",
                   "-r", "2")[0] == 0
        assert seen.count(h) == 1

    def test_hstar2_checks_connectivity_once(self, capsys, monkeypatch):
        h = parse_graph((SAMPLES / "triangle-with-tail.el").read_text())
        seen = []
        real = Graph.is_connected

        def counted(g):
            seen.append(g)
            return real(g)

        monkeypatch.setattr(Graph, "is_connected", counted)
        assert run(capsys, "hstar2", TWT, RCORE, "--predicate", TRI,
                   "-r", "2")[0] == 0
        assert seen.count(h) == 1

    def test_hstar1_dot_refuses_a_role_ending_in_backslash(self, capsys,
                                                          tmp_path):
        # the edge d\--e is copied, so the role of d\#1 is copy0:d\, which
        # DOT cannot quote
        host = tmp_path / "host.el"
        host.write_text("6 5\na\nb\nc\nd\nd\\\ne\n"
                        "a b\na c\nb c\nc d\nd\\ e\n")
        spec = tmp_path / "core.txt"
        spec.write_text("3 3\nx\ny\nz\nx y\nx z\ny z\nk 1\nr 1\n")
        argv = ["hstar1", str(host), str(spec), "--anchor", "a", "-r", "1"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "d\\#1\n" in out
        code, out, err = run(capsys, *argv, "--format", "dot")
        assert code == 65 and out == "" and "role 'copy0:d\\\\'" in err


class TestQueries:
    def test_minor_found(self, capsys):
        code, obj, err = run_json(capsys, "minor", TRI, K4)
        assert code == 0
        assert obj["outcome"] == "holds"
        assert "embedding" in obj["details"]
        assert "minor-test: holds" in err

    def test_minor_absent(self, capsys):
        code, obj, _ = run_json(capsys, "minor", K4, TRI)
        assert code == 1
        assert obj["outcome"] == "refuted"

    def test_minor_verify_report_file(self, capsys, tmp_path):
        rep = tmp_path / "rep.json"
        assert main(["minor", TRI, K4, "-o", str(rep)]) == 0
        capsys.readouterr()
        code, obj, _ = run_json(capsys, "minor", TRI, K4,
                                "--verify", str(rep))
        assert code == 0 and obj["check"] == "witness-verify"

    def test_minor_verify_bare_embedding(self, capsys, tmp_path):
        rep = tmp_path / "rep.json"
        assert main(["minor", TRI, K4, "-o", str(rep)]) == 0
        capsys.readouterr()
        emb = json.loads(rep.read_text())["details"]["embedding"]
        bare = tmp_path / "emb.json"
        bare.write_text(json.dumps(emb))
        code, obj, _ = run_json(capsys, "minor", TRI, K4,
                                "--verify", str(bare))
        assert code == 0 and obj["outcome"] == "holds"

    def test_minor_verify_rejects_tampering(self, capsys, tmp_path):
        rep = tmp_path / "rep.json"
        assert main(["minor", TRI, K4, "-o", str(rep)]) == 0
        capsys.readouterr()
        emb = json.loads(rep.read_text())["details"]["embedding"]
        first = sorted(emb["branch_sets"])[0]
        second = sorted(emb["branch_sets"])[1]
        emb["branch_sets"][first] = emb["branch_sets"][second]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(emb))
        code, obj, _ = run_json(capsys, "minor", TRI, K4,
                                "--verify", str(bad))
        assert code == 1 and obj["outcome"] == "refuted"

    def test_minor_verify_needs_an_embedding(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"details": {}}')
        code, _, err = run(capsys, "minor", TRI, K4, "--verify", str(empty))
        assert code == 65 and "no embedding" in err

    @pytest.mark.parametrize("text", [
        '[1]',
        '{"branch_sets": [], "edge_images": []}',
        '{"details": {"embedding": [1]}}',
        '{"details": [1]}',
    ])
    def test_minor_verify_wrong_typed_witness(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run(capsys, "minor", TRI, K4, "--verify", str(bad))
        assert code == 65 and out == ""
        assert "error: malformed witness" in err

    WITNESS = {"branch_sets": {"x": ["p"], "y": ["q"], "z": ["s"]},
               "edge_images": [[["x", "y"], ["p", "q"]],
                               [["x", "z"], ["p", "s"]],
                               [["y", "z"], ["q", "s"]]]}

    def test_minor_verify_accepts_reversed_endpoints(self, capsys, tmp_path):
        emb = dict(self.WITNESS,
                   edge_images=[[["y", "x"], ["q", "p"]]]
                   + self.WITNESS["edge_images"][1:])
        wit = tmp_path / "wit.json"
        wit.write_text(json.dumps(emb))
        code, obj, _ = run_json(capsys, "minor", TRI, K4,
                                "--verify", str(wit))
        assert code == 0 and obj["outcome"] == "holds"

    @pytest.mark.parametrize("change", [
        {"edge_images": [[["x"], ["p", "q"]]]},
        {"branch_sets": {"x": "pq", "y": ["s"], "z": ["t"]}},
        {"edge_images": [["xy", "pq"], ["xz", "ps"], ["yz", "qs"]]},
    ])
    def test_minor_verify_misshapen_witness(self, capsys, tmp_path, change):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(self.WITNESS, **change)))
        code, out, err = run(capsys, "minor", TRI, K4, "--verify", str(bad))
        assert code == 65 and out == ""
        assert "error: malformed witness" in err

    def test_minor_verify_malformed_json(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{nope")
        code, _, err = run(capsys, "minor", TRI, K4, "--verify", str(broken))
        assert code == 65

    def test_pack(self, capsys):
        code, obj, _ = run_json(capsys, "pack", TRI, K4)
        assert code == 0
        assert obj["details"]["count"] == 1
        assert len(obj["details"]["witness"]) == 1

    def test_pack_cap(self, capsys):
        code, obj, _ = run_json(capsys, "pack", TRI, K4, "--cap", "1")
        assert code == 0 and obj["details"]["count"] == 1

    def test_pack_budget_keeps_the_copies_found(self, capsys, tmp_path):
        # the budget stops footprint enumeration on this 22-vertex host
        # after some footprints (test_verify.TestSeededHosts)
        host = tmp_path / "host.el"
        host.write_text(serialize(seeded_host(random.Random(0), (1, 4))))
        code, obj, _ = run_json(capsys, "pack", TRI, str(host),
                                "--budget", "20000")
        assert code == 2 and obj["outcome"] == "budget-exhausted"
        assert obj["details"]["count"] == len(obj["details"]["witness"]) >= 1

    def test_hit(self, capsys):
        code, obj, _ = run_json(capsys, "hit", TRI, K4)
        assert code == 0
        assert obj["details"]["size"] == 3

    def test_hit_bound_too_small(self, capsys):
        code, obj, _ = run_json(capsys, "hit", TRI, K4, "--bound", "2")
        assert code == 1
        assert obj["details"]["size"] is None

    def test_hit_search_budget_names_the_stop(self, capsys):
        code, obj, _ = run_json(capsys, "hit", TRI, K4)
        assert code == 0 and "stopped_at" not in obj["details"]
        # the floor decides sizes 0-2 with no search, and the seed's 2
        # searches leave the first set of size 3 unsearched
        code, obj, _ = run_json(capsys, "hit", TRI, K4,
                                "--budget", "10000000:2")
        assert code == 2 and obj["outcome"] == "budget-exhausted"
        assert obj["details"]["hitting_edges"] is None
        assert obj["details"]["stopped_at"] == [["p", "q"], ["p", "s"],
                                                ["p", "t"]]
        assert obj["stats"]["subsets_checked"] == 23

    def test_hit_rejects_negative_bound(self):
        with pytest.raises(SystemExit) as exc:
            main(["hit", TRI, K4, "--bound", "-1"])
        assert exc.value.code == 64


class TestVerification:
    def test_robust_ctx_holds(self, capsys):
        code, obj, err = run_json(capsys, "robust", P3, "--ctx", P3_CTX,
                                  "-r", "2")
        assert code == 0
        assert obj["outcome"] == "holds"
        assert obj["details"]["mode"] == "exhaustive"
        assert "seed:" not in err

    def test_robust_thinned_gadget_refuted(self, capsys, tmp_path):
        thinned = tmp_path / "thinned.el"
        thinned.write_text("3 2\na0\nb\nc0\na0 b\nb c0\n")
        code, obj, _ = run_json(capsys, "robust", P3, "--host", str(thinned),
                                "-r", "2")
        assert code == 1
        assert obj["details"]["witness_deletion"] == [["a0", "b"]]

    def test_robust_host_with_roots(self, capsys, tmp_path):
        out_path = tmp_path / "hstar2.el"
        assert main(["hstar2", TWT, RCORE, "--predicate", TRI, "-r", "2",
                     "-o", str(out_path)]) == 0
        capsys.readouterr()
        code, obj, _ = run_json(capsys, "robust", TWT, "--host",
                                str(out_path), "--roots", "s=s#1", "-r", "2")
        assert code == 0
        assert obj["details"]["roots"] == {"s": "s#1"}

    def test_robust_flag_cross_validation(self, capsys):
        code, _, err = run(capsys, "robust", P3, "--ctx", P3_CTX,
                           "--roots", "a=b", "-r", "2")
        assert code == 65 and "--roots" in err

    @pytest.mark.parametrize("roots,message", [
        ("s", "not 'pattern=host'"), ("s=s=t", "not 'pattern=host'"),
        ("=s", "not 'pattern=host'"), ("s= ", "not 'pattern=host'"),
        ("s=s,s=c", "duplicate root for 's'")])
    def test_robust_rejects_malformed_roots(self, capsys, roots, message):
        code, out, err = run(capsys, "robust", TWT, "--host", TWT,
                             "--roots", roots, "-r", "2")
        assert code == 65 and out == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["robust", P3, "--ctx", P3_CTX, "-r", "2", "--gadget", P3],
        ["gencheck", K4, CORE, "--jobs", "2"]])
    def test_removed_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64

    def test_robust_mode_flags_required_and_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["robust", P3, "-r", "2"])
        assert exc.value.code == 64
        with pytest.raises(SystemExit) as exc:
            main(["robust", P3, "--ctx", P3_CTX, "--host", K4, "-r", "2"])
        assert exc.value.code == 64

    def test_robust_jobs_do_not_change_stdout(self, capsys):
        code1, out1, _ = run(capsys, "robust", P3, "--ctx", P3_CTX, "-r", "2")
        code2, out2, _ = run(capsys, "robust", P3, "--ctx", P3_CTX, "-r", "2",
                             "--jobs", "2")
        assert (code1, code2) == (0, 0)
        assert out1 == out2
        with pytest.raises(SystemExit) as exc:
            main(["robust", P3, "--ctx", P3_CTX, "-r", "2", "--jobs", "0"])
        assert exc.value.code == 64

    def test_budget_flag_parsing(self, capsys):
        code, obj, _ = run_json(capsys, "robust", P3, "--ctx", P3_CTX,
                                "-r", "2", "--budget", "1000:50")
        assert code == 0
        for bad in ("abc", "0", "10:0", "1:2:3", "1:2:3:4"):
            with pytest.raises(SystemExit) as exc:
                main(["robust", P3, "--ctx", P3_CTX, "-r", "2",
                      "--budget", bad])
            assert exc.value.code == 64

    @pytest.mark.parametrize("argv", [
        ["minor", TRI, K4],
        ["pack", TRI, K4],
        ["locality", HOST2, HOST2, K4, "--region", "p,q,s,t"],
    ], ids=["minor", "pack", "locality"])
    def test_node_only_budget(self, capsys, argv):
        code, _, _ = run(capsys, *argv, "--budget", "1000")
        assert code == 0
        for bad in ("1000:50", "0", "abc"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--budget", bad])
            assert exc.value.code == 64
        with pytest.raises(SystemExit):
            main([argv[0], "--help"])
        usage = capsys.readouterr().out
        assert "--budget NODES " in usage and "SEARCHES" not in usage

    @pytest.mark.parametrize("argv", [
        ["robust", P3, "--ctx", P3_CTX, "-r", "2"],
        ["gencheck", K4, CORE],
        ["hit", TRI, K4],
    ], ids=["robust", "gencheck", "hit"])
    def test_scan_budget_takes_nodes_and_searches(self, capsys, argv):
        for budget in ("1000000", "1000000:1000"):
            code, _, _ = run(capsys, *argv, "--budget", budget)
            assert code == 0
        with pytest.raises(SystemExit):
            main([argv[0], "--help"])
        assert "--budget NODES[:SEARCHES]" in capsys.readouterr().out

    def test_search_budget_ends_in_budget_exhausted(self, capsys):
        # the scan needs 20 searches; after 5 it names where it stopped
        code, obj, _ = run_json(capsys, "robust", SQ, "--ctx", SQ_CTX,
                                "-r", "4", "--budget", "1000:5")
        assert code == 2
        assert obj["outcome"] == "budget-exhausted"
        assert obj["stats"]["searches"] == 5
        assert obj["stats"]["subsets_planned"] == 2024
        _, built, _ = run(capsys, "gtimes", SQ, "--ctx", SQ_CTX, "-r", "4")
        edges = parse_graph(built).sorted_edges()
        stop = tuple(tuple(e) for e in obj["details"]["stopped_at"])
        assert obj["stats"]["subsets_checked"] == \
            list(combinations(edges, 3)).index(stop) + 1

    def test_locality_region_list_and_file(self, capsys, tmp_path):
        hstar = tmp_path / "hstar.el"
        assert main(["hstar1", HOST2, CORE, "--anchor", "p", "-r", "2",
                     "-o", str(hstar)]) == 0
        capsys.readouterr()
        region = "1#0,2#0,3#0,4#0,5#0"
        code, obj, _ = run_json(capsys, "locality", HOST2, str(hstar), K4,
                                "--region", region)
        assert code == 0 and obj["outcome"] == "holds"
        regfile = tmp_path / "region.txt"
        regfile.write_text("".join(f"{v}#0\n" for v in "12345"))
        code, obj2, _ = run_json(capsys, "locality", HOST2, str(hstar), K4,
                                 "--region", f"@{regfile}")
        assert code == 0 and obj2 == obj

    def test_locality_rejects_unknown_region_vertex(self, capsys, tmp_path):
        hstar = tmp_path / "hstar.el"
        assert main(["hstar1", HOST2, CORE, "--anchor", "p", "-r", "2",
                     "-o", str(hstar)]) == 0
        capsys.readouterr()
        code, _, err = run(capsys, "locality", HOST2, str(hstar), K4,
                           "--region", "zz")
        assert code == 65 and "region" in err

    def test_gencheck(self, capsys):
        code, obj, err = run_json(capsys, "gencheck", K4, CORE)
        assert code == 0
        assert obj["details"]["packing_found"] == 1
        assert "seed:" not in err

    def test_gencheck_reports_are_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "gencheck", K4, CORE)
        _, out2, _ = run(capsys, "gencheck", K4, CORE)
        assert out1 == out2

    def test_hereditary(self, capsys):
        code, obj, _ = run_json(capsys, "hereditary", TRI, P3, K4, SQ,
                                "--trials", "20")
        assert code == 0 and obj["outcome"] == "holds"


class TestTopLevel:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "minorbench", "classify", TRI],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "Cycle\n"

    def test_parser_reuse_matches_a_fresh_process(self):
        # the parser is built on the first main() call and then shared;
        # a usage error must leave it as a fresh process would find it
        code = ("import contextlib, io, json, sys\n"
                "from minorbench import cli\n"
                "built = cli._build_parser.cache_info().currsize\n"
                "def call(argv):\n"
                "    out = io.StringIO()\n"
                "    try:\n"
                "        with contextlib.redirect_stdout(out), "
                "contextlib.redirect_stderr(io.StringIO()):\n"
                "            got = cli.main(argv)\n"
                "    except SystemExit as exc:\n"
                "        got = exc.code\n"
                "    return [got, out.getvalue()]\n"
                "calls = [call(json.loads(a)) for a in sys.argv[1:]]\n"
                "print(json.dumps([built, calls]))")
        env = dict(os.environ, COLUMNS="80")

        def calls(*argvs):
            proc = subprocess.run(
                [sys.executable, "-c", code, *map(json.dumps, argvs)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            built, got = json.loads(proc.stdout)
            assert built == 0
            return got

        minor = ["minor", TRI, K4]
        reused = calls(["minor", "--budget", "0", TRI, K4], minor,
                       ["--help"], ["robust", "--help"])
        assert reused[0] == [64, ""]
        assert reused[1] == calls(minor)[0]
        assert reused[1][0] == 0
        assert reused[2] == calls(["--help"])[0]
        assert reused[3] == calls(["robust", "--help"])[0]
        assert reused[2][0] == reused[3][0] == 0
        assert "usage: minorbench" in reused[2][1]

    def test_import_loads_no_process_pool(self):
        # scans run in process, also when --jobs asks for workers
        code = ("import io, sys, contextlib\n"
                "from minorbench.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert main(['robust', {SQ!r}, '--ctx', {SQ_CTX!r}, "
                "'-r', '3', '--jobs', '2']) == 0\n"
                "print([m for m in "
                "('multiprocessing', 'concurrent.futures.process') "
                "if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_console_script(self, tmp_path):
        # Run the command declared in this checkout's pyproject.toml through
        # the launcher an installer writes for it, not whatever copy of
        # minorbench happens to be installed.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["minorbench"]
        module, _, attr = target.partition(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "minorbench"
        script.write_text(
            f"#!{sys.executable}\n"
            "import re\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            "if __name__ == '__main__':\n"
            "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '',"
            " sys.argv[0])\n"
            f"    sys.exit({attr}())\n")
        script.chmod(0o755)
        path = os.environ.get("PATH", os.defpath)
        env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{path}")
        proc = subprocess.run(["minorbench", "classify", TRI],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "Cycle\n"
