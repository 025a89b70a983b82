"""Tests for the benchmark's checks: each must count a broken output as a
failure and a correct one as a pass.

    python3 -m pytest bench/test_bench.py
"""

import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, Result  # noqa: E402

TRI = checks.graph(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
K6 = workloads.complete([str(i) for i in range(1, 7)])
K7 = workloads.complete([str(i) for i in range(1, 8)])
FANO = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7),
        (3, 5, 6)]


def triangle(a, b, c):
    return [[str(a), str(b)], [str(b), str(c)], [str(a), str(c)]]


# -- models ----------------------------------------------------------------------

def test_valid_model_passes():
    host = checks.graph([], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")])
    model = {"branch_sets": {"x": ["1"], "y": ["2"], "z": ["3", "4"]},
             "edge_images": [[["x", "y"], ["1", "2"]],
                             [["x", "z"], ["1", "4"]],
                             [["y", "z"], ["2", "3"]]]}
    assert checks.model_problems(TRI, host, model) == []


def test_disconnected_branch_set_fails():
    host = checks.graph([], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"),
                             ("5", "1")])
    model = {"branch_sets": {"x": ["1"], "y": ["2"], "z": ["3", "5"]},
             "edge_images": [[["x", "y"], ["1", "2"]],
                             [["x", "z"], ["1", "5"]],
                             [["y", "z"], ["2", "3"]]]}
    assert any("disconnected" in p
               for p in checks.model_problems(TRI, host, model))


def test_engine_verifier_disagreement_fails(monkeypatch):
    host = checks.graph([], [("1", "2"), ("2", "3"), ("3", "1")])
    model = {"branch_sets": {"x": ["1"], "y": ["2"], "z": ["3"]},
             "edge_images": [[["x", "y"], ["1", "2"]],
                             [["x", "z"], ["1", "3"]],
                             [["y", "z"], ["2", "3"]]]}
    assert checks.model_problems(TRI, host, model) == []
    monkeypatch.setattr(checks, "engine_accepts", lambda *a: False)
    assert checks.model_problems(TRI, host, model) == [
        "verify_embedding disagrees with the independent check"]


def test_gadget_job_rejects_a_none_verdict():
    job = workloads.model_found(TRI, K6)
    assert job(Result(1, '{"outcome": "refuted"}'))


# -- packing and hitting ---------------------------------------------------------

def test_fano_packing_passes():
    witness = [triangle(*t) for t in FANO]
    assert checks.packing_problems(TRI, K7, witness, 7) == []


def test_overlapping_footprints_fail():
    witness = [triangle(*t) for t in FANO[:6]] + [triangle(1, 2, 4)]
    probs = checks.packing_problems(TRI, K7, witness, 7)
    assert any("share edges" in p for p in probs)


def test_footprint_without_model_fails():
    witness = [[["1", "2"], ["2", "3"]]]
    assert checks.packing_problems(TRI, K7, witness, 1)


def test_spanning_tree_complement_hits():
    star = {("1", str(i)) for i in range(2, 7)}
    witness = [list(e) for e in sorted(K6.edges - star)]
    assert checks.hitting_problems(TRI, K6, witness, 10) == []


def test_hitting_set_leaving_a_triangle_fails():
    keep = {("1", str(i)) for i in range(2, 7)} | {("2", "3")}
    witness = [list(e) for e in sorted(K6.edges - keep)]
    probs = checks.hitting_problems(TRI, K6, witness, 9)
    assert "a model survives the hitting set" in probs


# -- determinism -----------------------------------------------------------------

def runner_with(*jobs):
    return run.Runner(None, list(jobs))


def test_jobs2_bytes_must_match_jobs1():
    ok = Job("r4", [], lambda res: [])
    par = Job("r4-jobs2", [], lambda res: [], same_as="r4")
    r = runner_with(ok, par)
    outs = {"r4": '{"outcome": "holds"}\n', "r4-jobs2": '{"outcome":"holds"}\n'}
    r.judge(ok, Result(0, outs["r4"]), "", outs)
    r.judge(par, Result(0, outs["r4-jobs2"]), "", outs)
    assert (r.attempted, r.failed) == (2, 1)
    assert "stdout differs from r4" in r.problems[0]


def test_repeat_with_other_bytes_fails():
    job = Job("a", [], lambda res: [])
    r = runner_with(job)
    r.judge(job, Result(0, "same\n"), "", {})
    r.judge(job, Result(0, "same\n"), "", {})
    r.judge(job, Result(0, "other\n"), "", {})
    assert (r.attempted, r.failed) == (3, 1)


def test_check_that_raises_fails_its_job():
    job = Job("a", [], workloads.holds())
    r = runner_with(job)
    r.judge(job, Result(0, "not json"), "", {})
    assert r.failed == 1


def test_clock_samples_during_a_pass_only():
    import time
    clock = run.Clock()
    with clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
    n = len(clock.samples)
    assert n >= 3  # on entry, on each timer signal, on exit
    assert 0.3 < clock.raw < 0.5  # the samples' own time is left out
    assert clock.scaled > 0
    clock._sample()  # a signal pending after the pass is ignored
    assert len(clock.samples) == n


# -- inputs and tracing ----------------------------------------------------------

def test_k4_gadget_matches_segment_blowup():
    from minorbench import Graph, segment_blowup
    k4 = workloads.complete(["p", "q", "s", "t"])
    g = Graph.build(k4.vertices, k4.edges)
    for r in (2, 3, 4):
        ours = workloads.k4_gadget(k4, r)
        theirs = segment_blowup(g, g, r)
        assert (ours.vertices, ours.edges) == (theirs.vertices, theirs.edges)


def test_generated_blocks_match_block_cut_tree():
    import random
    from minorbench import Graph, block_cut_tree
    for seed in range(5):
        g, blocks, cuts, _ = workloads.block_host(
            random.Random(seed), random.Random(seed + 1), 30, "h")
        tree = block_cut_tree(Graph.build(g.vertices, g.edges))
        assert tree.cutvertices == cuts
        assert ({b.graph.vertices for b in tree.blocks}
                == set(blocks))


def test_minimal_count():
    fps = [frozenset("abc"), frozenset("abcd"), frozenset("def"),
           frozenset("abde"), frozenset("bdef")]
    assert tracing.minimal_count(fps) == 3


def test_minimal_count_of_k3_in_k4():
    from minorbench import Graph, NodeCounter, iter_expansion_footprints
    k4 = Graph.build([], combinations("abcd", 2))
    tri = Graph.build([], [("x", "y"), ("y", "z"), ("x", "z")])
    fps = [fp for _, fp in iter_expansion_footprints(tri, k4,
                                                     NodeCounter(None))]
    # the minimal footprints are the cycles: 4 triangles and 3 squares
    assert tracing.minimal_count(fps) == 7


def test_gencheck_packing_counts_under_pack_only():
    tr = tracing.Tracer()
    for sid, parent, name, busy, info in (
            (0, None, "verify.check_generic_counterexample", 10.0,
             {"probes": 5, "jobs": 1}),
            (1, 0, "verify.max_edge_disjoint_packing", 4.0, {"nodes": 7}),
            (2, 0, "embed.find_expansion", 3.0,
             {"nodes": 2, "status": "found"})):
        span = tracing.Span(sid, parent, name, "j", 0.0)
        span.busy, span.info = busy, info
        tr.spans.append(span)
    m = tracing.metrics(tr)
    assert m["verify.scan.self_s"][0] == 3.0
    assert m["verify.pack.self_s"][0] == 4.0
    assert m["verify.scan.searches"][0] == 1
