"""Blowup gadget, core-spec documents, and the two assembly builders."""

import json
import random

import pytest

from minorbench import (BudgetExceeded, CoreSpec, Graph, GraphError,
                        MinorPredicate, ParseError, SearchStatus,
                        assemble_block_counterexample,
                        assemble_component_counterexample, block_cut_tree,
                        check_branch_count, choose_leaf_block,
                        connected_components, core_region, delete_edges,
                        find_expansion, is_minor,
                        load_core_spec, minimal_subtree, parse_graph,
                        segment_blowup)
from minorbench import canonical_json, embed
from helpers import (SAMPLES, complete, cycle_graph, k5_spec, path_graph,
                     petalled_wheel, random_connected_graph,
                     reference_branch_count, reference_host,
                     reference_segment_blowup, rooted_spec, subdivided,
                     tailed_square, triangle_with_tail, two_part_host)


class TestSegmentBlowup:
    def test_tailed_square_sizes(self):
        g, ctx = tailed_square()
        b3 = segment_blowup(g, ctx, 3)
        assert (len(b3.vertices), len(b3.edges)) == (14, 18)
        b4 = segment_blowup(g, ctx, 4)
        assert (len(b4.vertices), len(b4.edges)) == (18, 24)

    def test_branch_vertices_kept_once(self):
        g, ctx = tailed_square()
        b = segment_blowup(g, ctx, 3)
        assert {"v", "w"} <= b.vertices
        assert b.provenance["v"] == "branch:v"
        interior_tags = [t for t in b.provenance.values() if t != "branch:v"
                         and t != "branch:w"]
        assert all(t.startswith("path:") for t in interior_tags)

    def test_short_between_segments_are_subdivided(self):
        # a length-1 between segment becomes length-2 paths, never a
        # direct branch-to-branch edge that one deletion could cut
        g, ctx = tailed_square()
        b = segment_blowup(g, ctx, 3)
        assert not b.has_edge("v", "w")

    def test_pendant_copies_share_only_the_branch_vertex(self):
        g = path_graph(["b", "m", "t"])
        ctx = Graph.build([], list(g.edges) + [("b", "x"), ("b", "y")])
        b = segment_blowup(g, ctx, 2)
        assert len(b.vertices) == 1 + 2 * 2
        assert len(b.edges) == 2 * 2
        assert b.degree("b") == 2

    def test_closed_segment_becomes_cycles(self):
        g = cycle_graph(["b", "p", "q"])
        ctx = Graph.build([], list(g.edges) + [("b", "t")])
        b = segment_blowup(g, ctx, 2)
        assert len(b.vertices) == 1 + 2 * 2
        assert len(b.edges) == 2 * 3
        assert b.degree("b") == 4

    def test_blowup_contains_original_as_minor(self):
        g, ctx = tailed_square()
        b = segment_blowup(g, ctx, 2)
        assert find_expansion(g, b).status is SearchStatus.FOUND

    def test_single_deletion_survivable(self):
        g, ctx = tailed_square()
        b = segment_blowup(g, ctx, 2)
        for e in list(b.sorted_edges())[:4]:
            res = find_expansion(g, delete_edges(b, [e]))
            assert res.status is SearchStatus.FOUND

    def test_label_collision_gets_suffix(self):
        # branch vertex named like a generated interior label; the a-b
        # segment sorts to index 1 behind the one ending at the clash
        clash = "a~b.1.0.1"
        g = Graph.build([], [("a", "b"), ("a", clash), ("b", clash)])
        ctx = Graph.build([], list(g.edges) +
                          [("a", "l1"), ("b", "l2"), (clash, "l3")])
        b = segment_blowup(g, ctx, 1)
        assert clash in b.vertices
        assert clash + "+" in b.vertices
        assert b.provenance[clash] == f"branch:{clash}"

    def test_rejects_r_below_one(self):
        g, ctx = tailed_square()
        with pytest.raises(GraphError):
            segment_blowup(g, ctx, 0)

    def test_connected(self):
        g, ctx = tailed_square()
        assert segment_blowup(g, ctx, 3).is_connected()


def collision_hosts() -> list[tuple[Graph, Graph]]:
    """Hosts with branch vertices named like generated labels.  In the
    triangle the a-b segment sorts to index 1 behind the one ending at
    the clash; in K4 it sorts to index 2, and its first label is taken
    with and without one "+"."""
    clash = "a~b.1.0.1"
    g = Graph.build([], [("a", "b"), ("a", clash), ("b", clash)])
    ctx = Graph.build([], list(g.edges) +
                      [("a", "l1"), ("b", "l2"), (clash, "l3")])
    k4 = complete(["a", "b", "a~b.2.0.1", "a~b.2.0.1+"])
    return [(g, ctx), (k4, k4)]


def blowup_or_error(build, g: Graph, ctx: Graph, r: int):
    """Vertices, edges and provenance of build(g, ctx, r), or the text
    of the GraphError it raises."""
    try:
        b = build(g, ctx, r)
    except GraphError as exc:
        return str(exc)
    return b.vertices, b.edges, dict(b.provenance)


def report_or_error(check, g: Graph, ctx: Graph, r: int) -> str:
    try:
        return check(g, ctx, r).to_json()
    except GraphError as exc:
        return f"error: {exc}"


def check_blowup_reference(g: Graph, ctx: Graph) -> None:
    """segment_blowup equals its reference for r = 1..5 and
    check_branch_count for r = 3..5.  Provenance is compared on its
    own: Graph equality ignores it."""
    for r in range(1, 6):
        assert (blowup_or_error(segment_blowup, g, ctx, r)
                == blowup_or_error(reference_segment_blowup, g, ctx, r))
    for r in range(3, 6):
        assert (report_or_error(check_branch_count, g, ctx, r)
                == report_or_error(reference_branch_count, g, ctx, r))


def check_host_and_blocks(host: Graph) -> None:
    for g in [host, *(b.graph for b in block_cut_tree(host).blocks)]:
        check_blowup_reference(g, host)


class TestBlowupReference:
    @pytest.mark.parametrize("seed", range(24))
    def test_reference_hosts(self, seed):
        check_host_and_blocks(reference_host(seed))

    @pytest.mark.parametrize("seed", range(12))
    def test_petalled_wheels(self, seed):
        check_host_and_blocks(petalled_wheel(seed))

    def test_long_segments(self):
        # past position 9 a path's labels no longer come in sorted order
        check_host_and_blocks(Graph.build(
            [], subdivided(complete("abcd"), 11, [("a", "b")]).edges
            | cycle_graph(["c", *"pqrstuvwxyz"]).edges))

    @pytest.mark.parametrize("host", range(2))
    def test_label_collisions(self, host):
        g, ctx = collision_hosts()[host]
        plus = {v for v in segment_blowup(g, ctx, 1).vertices
                if v.endswith("+") and v not in g.vertices}
        assert len(plus) == 1
        check_blowup_reference(g, ctx)


class TestCoreSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(GraphError):
            CoreSpec(complete("ab"), {}, k=0, r=1)
        with pytest.raises(GraphError):
            CoreSpec(complete("ab"), {}, k=1, r=0)

    def test_rejects_dangling_root(self):
        with pytest.raises(GraphError):
            CoreSpec(complete("ab"), {"s": "zz"}, k=1, r=1)

    def test_default_roots_are_no_shared_dict(self):
        a, b = CoreSpec(complete("ab")), CoreSpec(complete("xy"))
        for spec in (a, b):
            with pytest.raises(TypeError):
                spec.roots["s"] = "a"
        assert a.roots == b.roots == {} and (a.k, a.r) == (1, 1)

    def test_replace_checks_again(self):
        spec = CoreSpec(complete("ab"), {"s": "a"}, k=2, r=2)
        assert spec._replace(k=3) == CoreSpec(complete("ab"), {"s": "a"}, 3, 2)
        with pytest.raises(GraphError):
            spec._replace(r=0)
        with pytest.raises(GraphError):
            spec._replace(core=complete("xy"))


class TestLoadCoreSpec:
    def test_sample_without_roots(self):
        spec = k5_spec()
        assert spec.core == complete("12345")
        assert spec.roots == {}
        assert (spec.k, spec.r) == (4, 2)

    def test_sample_with_roots(self):
        spec = load_core_spec((SAMPLES / "rooted-core.txt").read_text())
        assert spec.core.vertices == {"c1", "c2", "c3", "c4", "s'"}
        assert len(spec.core.edges) == 10
        assert spec.roots == {"s": "s'"}
        assert (spec.k, spec.r) == (4, 2)

    def test_trailing_lines_in_any_order(self):
        spec = load_core_spec(
            "# core\n2 1\na\nb\na b\nroot s -> a\nr 3\nk 5\n")
        assert spec.core == complete("ab")
        assert spec.roots == {"s": "a"}
        assert (spec.k, spec.r) == (5, 3)

    @pytest.mark.parametrize("text", [
        "",
        "2 1\na\nb\na b\nk 4\n",
        "2 1\na\nb\na b\nr 2\n",
        "2 1\na\nb\na b\nk 4\nr 2\nroot s - a\n",
        "2 1\na\nb\na b\nk 4\nr 2\nroot s -> a\nroot s -> b\n",
        "2 1\na\nb\na b\nk 4\nr 2\nroot s -> zz\n",
        "2 1\na\nb\nk 4\nr 2\n",
        "2 1\na\nb\na b\nk 4\nr 2\nwhat now\n",
        "2 1\na\nb\na b\nk nope\nr 2\n",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            load_core_spec(text)

    def test_errors_name_the_file_line(self):
        # comment on line 1, blank line 2: the duplicate edge is on line 9
        text = "# core\n\n3 3\na\nb\nc\na b\nb c\nb a\nk 4\nr 2\n"
        assert text.splitlines()[8] == "b a"
        with pytest.raises(ParseError, match="line 9: duplicate edge") as exc:
            load_core_spec(text)
        assert exc.value.line == 9
        with pytest.raises(ParseError, match="line 12: unrecognized"):
            load_core_spec(text.replace("b a", "a c") + "what now\n")

    @pytest.mark.parametrize("key", ["k", "r"])
    def test_rejects_a_repeated_parameter(self, key):
        text = "2 1\na\nb\na b\nk 4\nr 2\n" + f"{key} 9\n"
        with pytest.raises(ParseError,
                           match=f"line 7: duplicate '{key}' line") as exc:
            load_core_spec(text)
        assert exc.value.line == 7


class TestComponentAssembly:
    def test_two_part_host_frozen(self):
        h = two_part_host()
        out = assemble_component_counterexample(h, "p", k5_spec(), 2)
        assert out.vertices == {"1#0", "2#0", "3#0", "4#0", "5#0",
                                "y#1", "z#1", "y#2", "z#2"}
        assert len(out.edges) == 12
        assert core_region(out) == {"1#0", "2#0", "3#0", "4#0", "5#0"}

    def test_containing_component_is_blown_up(self):
        h = Graph.build([], [(a, b) for a, b in
                             [("p", "q"), ("p", "s"), ("p", "t"), ("q", "s"),
                              ("q", "t"), ("s", "t"),
                              ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                              ("b", "d"), ("c", "d")]])
        anchor = connected_components(h)[1]
        assert anchor.vertices == frozenset("pqst")
        out = assemble_component_counterexample(h, "q", k5_spec(), 2)
        # core K5 plus a blowup of the other K4: 4 branch vertices and
        # 6 segments, each 2 copies of a length-2 path
        assert len(out.vertices) == 5 + 4 + 12
        assert len(out.edges) == 10 + 24
        blown = out.induced(out.vertices - core_region(out))
        assert is_minor(anchor, blown)

    def test_large_components_are_decided(self):
        # a 12-edge tail (13 vertices) lacks the anchor minor: copied r times
        tail = [(f"m{i}", f"m{i+1}") for i in range(12)]
        h = Graph.build([], [("p", "q"), ("p", "s"), ("p", "t"), ("q", "s"),
                             ("q", "t"), ("s", "t")] + tail)
        out = assemble_component_counterexample(h, "p", k5_spec(), 2)
        assert len(out.vertices) == 5 + 2 * 13

    def test_k4_gadget_component_is_blown_up(self):
        h = parse_graph((SAMPLES / "k4-and-gadget.el").read_text())
        gadget = next(c for c in connected_components(h)
                      if "p" not in c.vertices)
        assert len(gadget.vertices) == 22
        out = assemble_component_counterexample(h, "p", k5_spec(), 2)
        # core K5 plus the gadget's 18 paths, each copied twice
        assert (len(out.vertices), len(out.edges)) == (5 + 4 + 36, 10 + 72)
        assert not any(t.startswith("copy") for t in out.provenance.values())

    def test_split_by_anchor_minor(self):
        # the K5 contains the K4 anchor and is blown up last; the edge
        # and the triangle lack it and are copied r times, in order
        h = Graph.build([], complete("abcd").edges | complete("pqrst").edges
                        | complete("uv").edges | complete("xyz").edges)
        out = assemble_component_counterexample(h, "b", k5_spec(), 2)
        tags = out.provenance
        assert {v for v, t in tags.items() if t.startswith("copy")} == {
            "u#1", "v#1", "u#2", "v#2",
            "x#3", "y#3", "z#3", "x#4", "y#4", "z#4"}
        assert {v for v, t in tags.items() if t.startswith("branch:")} == {
            f"{v}#5" for v in "pqrst"}
        # 10 K5 edges, each 2 paths of length 2
        assert (len(out.vertices), len(out.edges)) == (
            5 + 4 + 6 + 5 + 20, 10 + 2 + 6 + 40)

    def test_sole_component_is_replaced_by_the_core(self):
        h = complete("pqst")
        out = assemble_component_counterexample(h, "p", k5_spec(), 2)
        assert out == Graph(frozenset(f"{i}#0" for i in "12345"),
                            frozenset((f"{a}#0", f"{b}#0")
                                      for a, b in complete("12345").edges))
        assert core_region(out) == out.vertices

    def test_budget_exhaustion_propagates(self, monkeypatch):
        h = parse_graph((SAMPLES / "k4-and-gadget.el").read_text())
        monkeypatch.setattr(embed, "DEFAULT_NODE_BUDGET", 1)
        with pytest.raises(BudgetExceeded):
            assemble_component_counterexample(h, "p", k5_spec(), 2)

    def test_rejects_anchor_without_degree3_vertex(self):
        h = Graph.build([], [("a", "b"), ("b", "c"), ("c", "a"), ("y", "z")])
        with pytest.raises(GraphError, match="degree at most 2"):
            assemble_component_counterexample(h, "a", k5_spec(), 2)

    def test_rejects_rooted_spec(self):
        spec = CoreSpec(complete("12"), {"s": "1"}, k=2, r=2)
        with pytest.raises(GraphError):
            assemble_component_counterexample(two_part_host(), "p", spec, 2)

    def test_rejects_r_below_one(self):
        with pytest.raises(GraphError):
            assemble_component_counterexample(two_part_host(), "p",
                                              k5_spec(), 0)

    def test_rejects_unknown_anchor_vertex(self):
        with pytest.raises(GraphError,
                           match="no component contains vertex 'zz'"):
            assemble_component_counterexample(
                two_part_host(), "zz", k5_spec(), 2)

    def test_anchor_names_its_component_by_any_vertex(self):
        h = two_part_host()
        outs = {assemble_component_counterexample(h, v, k5_spec(), 2)
                for v in "pqst"}
        assert len(outs) == 1

    def test_core_region_ignores_ampersands_in_labels(self):
        # a copied vertex whose label holds "&core:" is not a core vertex
        h = Graph.build([], complete("pqst").edges | {("x", "y&core:q")})
        out = assemble_component_counterexample(h, "p", k5_spec(), 2)
        assert core_region(out) == {f"{i}#0" for i in "12345"}
        assert out.provenance["y&core:q#1"] == "copy0:y&core:q"

    def test_anchor_vertex_must_be_in_the_host(self):
        h = Graph.build([], complete("pqst").edges | {("y", "z")})
        with pytest.raises(GraphError, match="no component contains vertex"):
            assemble_component_counterexample(h, "x", k5_spec(), 2)

    def test_k4_gadget_component_contains_the_anchor(self):
        h = parse_graph((SAMPLES / "k4-and-gadget.el").read_text())
        anchor, gadget = sorted(connected_components(h),
                                key=lambda c: "p" not in c.vertices)
        assert len(gadget.vertices) == 22 and is_minor(anchor, gadget)
        out = assemble_component_counterexample(h, "p", k5_spec(), 2)
        tags = out.provenance
        # nothing lacks the anchor, so nothing is copied; the gadget is
        # the one part after the core, blown up around its branch vertices
        assert not any(t.startswith("copy") for t in tags.values())
        assert {v.rsplit("#", 1)[1] for v in out.vertices} == {"0", "1"}
        assert {t.split(":")[1] for t in tags.values()
                if t.startswith("branch:")} <= gadget.vertices


class TestBlockAssembly:
    def test_triangle_with_tail_frozen(self):
        pred = MinorPredicate("contains-K3", complete("xyz"))
        out, trace = assemble_block_counterexample(
            triangle_with_tail(), pred, rooted_spec(), 2)
        assert out.sorted_vertices() == [
            "c1#0", "c2#0", "c3#0", "c4#0", "d#1", "d#2", "s#1"]
        assert len(out.edges) == 12
        assert out.degree("s#1") == 6
        assert trace.mode == "blocks"
        assert trace.anchor_block == ("b", "c", "s")
        assert trace.predicate_blocks == (("b", "c", "s"),)
        assert trace.containing_blocks == ()
        assert trace.chain_blocks == ()
        assert trace.outside_components == (("d", "s"),)
        assert trace.trivial_paths == ()
        assert trace.roots == (("s", "s'"),)
        assert trace.identifications == (("s#1", ("s#1", "s#2", "s'#0")),)
        assert trace.core_vertices == ("c1#0", "c2#0", "c3#0", "c4#0", "s#1")
        assert core_region(out) == {"c1#0", "c2#0", "c3#0", "c4#0", "s#1"}

    def test_trace_json_shape(self):
        pred = MinorPredicate("contains-K3", complete("xyz"))
        _, trace = assemble_block_counterexample(
            triangle_with_tail(), pred, rooted_spec(), 2)
        # the fields keep their tuples; the --trace text writes them as lists
        obj = json.loads(canonical_json(trace.to_json_obj()))
        assert obj == {
            "mode": "blocks", "anchor_block": ["b", "c", "s"],
            "predicate_blocks": [["b", "c", "s"]], "containing_blocks": [],
            "chain_blocks": [], "outside_components": [["d", "s"]],
            "trivial_paths": [], "roots": [["s", "s'"]],
            "identifications": [["s#1", ["s#1", "s#2", "s'#0"]]],
            "core_vertices": ["c1#0", "c2#0", "c3#0", "c4#0", "s#1"]}

    def test_rich_host_classification(self):
        # triangle abc, path c-d-e of two bridges, K4 on efgi, hanger g-x
        h = Graph.build([], [
            ("a", "b"), ("a", "c"), ("b", "c"),
            ("c", "d"), ("d", "e"),
            ("e", "f"), ("e", "g"), ("e", "i"), ("f", "g"), ("f", "i"),
            ("g", "i"), ("g", "x")])
        pred = MinorPredicate("contains-K3", complete("xyz"))
        spec = CoreSpec(complete(["z1", "z2", "z3", "z4"]), {"c": "z1"},
                        k=2, r=2)
        out, trace = assemble_block_counterexample(h, pred, spec, 2)

        assert trace.anchor_block == ("a", "b", "c")
        assert trace.predicate_blocks == (("a", "b", "c"), ("e", "f", "g", "i"))
        assert trace.containing_blocks == (("e", "f", "g", "i"),)
        assert trace.chain_blocks == (("c", "d"), ("d", "e"))
        assert trace.outside_components == (("g", "x"),)
        assert trace.trivial_paths == (("c", "d", "e"),)
        assert trace.roots == (("c", "z1"),)
        assert trace.identifications == (
            ("c#4", ("c#4", "z1#0")),
            ("e#1", ("e#1", "e#4")),
            ("g#1", ("g#1", "g#2", "g#3")),
        )
        assert trace.core_vertices == ("c#4", "z2#0", "z3#0", "z4#0")

        # core 4 + K4 blowup 16 + two hanger copies 4 + chain blowup 4,
        # minus the four merged duplicates
        assert len(out.vertices) == 4 + 16 + 4 + 4 - 4
        assert len(out.edges) == 6 + 24 + 2 + 4
        assert out.is_connected()
        assert is_minor(complete("wxyz"), out)

    def test_k4_gadget_block_is_blown_up(self):
        # K4 on a b c p, glued at p to the K4 gadget at r = 3 on p q s t
        gadget = segment_blowup(complete("pqst"), complete("pqst"), 3)
        h = Graph.build([], list(gadget.edges) + list(complete("abcp").edges))
        pred = MinorPredicate("contains-K4", complete("wxyz"))
        spec = CoreSpec(complete(["z1", "z2", "z3", "z4", "z5"]),
                        {"p": "z1"}, k=2, r=2)
        out, trace = assemble_block_counterexample(h, pred, spec, 2)
        assert trace.anchor_block == ("a", "b", "c", "p")
        assert [len(b) for b in trace.containing_blocks] == [22]
        assert trace.identifications == (("p#1", ("p#1", "z1#0")),)
        assert (len(out.vertices), len(out.edges)) == (5 + 40 - 1, 10 + 72)

    def test_nontrivial_chain_block_is_blown_up(self):
        # K4 on a b c d, 5-cycle d e f g h, K5 on g w x y z: the K4 sorts
        # first and is the anchor, the K5 contains it, the cycle is chain
        h = Graph.build([], list(complete("abcd").edges)
                        + list(cycle_graph("defgh").edges)
                        + list(complete("gwxyz").edges))
        pred = MinorPredicate("contains-K4", complete("pqst"))
        spec = CoreSpec(complete(["z1", "z2", "z3", "z4", "z5"]),
                        {"d": "z1"}, k=2, r=2)
        out, trace = assemble_block_counterexample(h, pred, spec, 2)
        assert trace.anchor_block == ("a", "b", "c", "d")
        assert trace.containing_blocks == (("g", "w", "x", "y", "z"),)
        assert trace.chain_blocks == (("d", "e", "f", "g", "h"),)
        assert trace.trivial_paths == trace.outside_components == ()
        assert trace.identifications == (("d#2", ("d#2", "z1#0")),
                                         ("g#1", ("g#1", "g#2")))
        # core 5 + 10; K5: 5 branch vertices and 10 edges, each 2 paths
        # of length 2; cycle: branch vertices d and g, its segments of
        # length 3 and 2 each 2 paths; d and g merged once each
        assert len(out.vertices) == 5 + (5 + 10 * 2) + (2 + 2 * 2 + 2 * 1) - 2
        assert len(out.edges) == 10 + 10 * 2 * 2 + (2 * 3 + 2 * 2)

    def test_hanger_copies_stay_separate(self):
        h = Graph.build([], [
            ("a", "b"), ("a", "c"), ("b", "c"),
            ("c", "d"), ("d", "e"),
            ("e", "f"), ("e", "g"), ("e", "i"), ("f", "g"), ("f", "i"),
            ("g", "i"), ("g", "x")])
        pred = MinorPredicate("contains-K3", complete("xyz"))
        spec = CoreSpec(complete(["z1", "z2", "z3", "z4"]), {"c": "z1"},
                        k=2, r=2)
        out, _ = assemble_block_counterexample(h, pred, spec, 2)
        assert {"x#2", "x#3"} <= out.vertices
        assert out.neighbors("x#2") == {"g#1"}
        assert out.neighbors("x#3") == {"g#1"}

    def test_deterministic(self):
        pred = MinorPredicate("contains-K3", complete("xyz"))
        a = assemble_block_counterexample(
            triangle_with_tail(), pred, rooted_spec(), 2)
        b = assemble_block_counterexample(
            triangle_with_tail(), pred, rooted_spec(), 2)
        assert a[0] == b[0] and a[1] == b[1]

    def test_rejects_unsatisfied_predicate(self):
        pred = MinorPredicate("contains-K5", complete("vwxyz"))
        with pytest.raises(GraphError, match="no block satisfies"):
            assemble_block_counterexample(
                triangle_with_tail(), pred, rooted_spec(), 2)

    def test_rejects_trivial_chosen_block(self):
        pred = MinorPredicate("contains-P2", path_graph("xy"))
        spec = CoreSpec(complete("12"), {}, k=2, r=2)
        with pytest.raises(GraphError, match="trivial"):
            assemble_block_counterexample(path_graph("abc"), pred, spec, 2)

    def test_rejects_root_mismatch(self):
        pred = MinorPredicate("contains-K3", complete("xyz"))
        with pytest.raises(GraphError, match="roots"):
            assemble_block_counterexample(triangle_with_tail(), pred,
                                          k5_spec(), 2)

    def test_rejects_disconnected_host(self):
        pred = MinorPredicate("contains-K3", complete("xyz"))
        with pytest.raises(GraphError, match="requires a connected graph"):
            assemble_block_counterexample(two_part_host(), pred,
                                          rooted_spec(), 2)

    def test_core_region_ignores_ampersands_in_labels(self):
        # the hanger copies d&core:z#1 and d&core:z#2 are not core vertices
        h = Graph.build([], [("b", "c"), ("b", "s"), ("c", "s"),
                             ("s", "d&core:z")])
        out, trace = assemble_block_counterexample(
            h, MinorPredicate("k3", complete("xyz")), rooted_spec(), 2)
        assert {"d&core:z#1", "d&core:z#2"} <= out.vertices
        assert core_region(out) == {"c1#0", "c2#0", "c3#0", "c4#0", "s#1"}
        assert trace.core_vertices == tuple(sorted(core_region(out)))
        assert out.provenance["s#1"] == "copy0:s copy1:s core:s'"

    @pytest.mark.parametrize("seed", range(30))
    def test_core_vertices_follow_the_identifications(self, seed):
        # each core vertex v ends as v#0, or as the least member of the
        # identification group that holds v#0
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(4, 12), extra=4)
        u, v = rng.choice(g.sorted_edges())  # a triangle on u, v, t
        g = Graph.build([], [*g.edges, (u, "t"), (v, "t")])
        if seed % 2:  # labels that hold "&core:" must not read as core
            g = Graph.build([], ((f"{u}&core:{u}", f"{v}&core:{v}")
                                 for u, v in g.edges))
        tree = block_cut_tree(g)
        pred = MinorPredicate("k3", complete("xyz"))
        marked = [b.id for b in tree.blocks if pred.holds(b.graph)]
        anchor = choose_leaf_block(minimal_subtree(tree, marked))
        cuts = sorted(tree.cutvertices & anchor.graph.vertices)
        core = complete([f"k{i}" for i in range(max(4, len(cuts)))])
        spec = CoreSpec(core, {c: f"k{i}" for i, c in enumerate(cuts)}, 2, 2)
        out, trace = assemble_block_counterexample(g, pred, spec, 2)
        want = sorted(next((m for m, gp in trace.identifications
                            if f"{v}#0" in gp), f"{v}#0")
                      for v in core.vertices)
        assert trace.core_vertices == tuple(want)
        assert core_region(out) == set(want)

    def test_rejects_r_below_one(self):
        pred = MinorPredicate("contains-K3", complete("xyz"))
        with pytest.raises(GraphError):
            assemble_block_counterexample(triangle_with_tail(), pred,
                                          rooted_spec(), 0)


class TestCoreRegion:
    def test_requires_provenance(self):
        with pytest.raises(GraphError):
            core_region(complete("ab"))
