"""Blocks, cutvertices, segments, shape classification."""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from minorbench import (Block, BlockCutTree, BuildTrace, Graph, GraphError,
                        MinorPredicate, Segment, Shape, block_cut_tree,
                        branch_vertices, choose_leaf_block, classify_shape,
                        connected_components, minimal_subtree,
                        segment_decomposition)
from helpers import (complete, cycle_graph, oracle_blocks, oracle_cutvertices,
                     path_graph, petalled_wheel, random_connected_graph,
                     reference_block_cut_tree, reference_choose_leaf_block,
                     reference_host, reference_minimal_subtree,
                     reference_segments, star_graph, tailed_square)

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def connected_graphs(max_n=7):
    return st.tuples(
        st.integers(min_value=1, max_value=max_n),
        st.integers(min_value=0, max_value=2**20),
    ).map(lambda t: random_connected_graph(random.Random(t[1]), t[0], extra=3))


def block_view(t):
    return {(frozenset(b.graph.vertices), frozenset(b.graph.edges))
            for b in t.blocks}


def caterpillar():
    """Two triangles joined by a bridge: blocks T(a,b,c) - [c,d] - T(d,e,f)."""
    return Graph.build([], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"),
                            ("d", "e"), ("e", "f"), ("d", "f")])


class TestBlock:
    def test_triviality_is_read_from_the_graph(self):
        # a single vertex has no edge, so it is not a bridge
        assert not Block(0, Graph.build("a", [])).is_trivial
        assert Block(0, Graph.build([], [("a", "b")])).is_trivial
        assert not Block(0, complete("abc")).is_trivial
        with pytest.raises(TypeError):
            Block(0, Graph.build([], [("a", "b")]), False)


class TestRecords:
    def test_stored_fields(self):
        # cutvertices, links and a segment's length are read from the
        # fields, so no caller can set them to contradict the record
        assert BlockCutTree._fields == ("blocks",)
        assert Segment._fields == ("kind", "ends", "interior")
        assert "mode" not in BuildTrace._fields
        t = block_cut_tree(caterpillar())
        assert t.cutvertices == {"c", "d"}
        assert t.links == {(0, "c"), (1, "c"), (1, "d"), (2, "d")}
        assert Segment("pendant", ("b", "t"), ("m",)).length == 2


class TestBlockCutTree:
    def test_single_vertex_is_one_edgeless_block(self):
        t = block_cut_tree(Graph.build("a", []))
        assert len(t.blocks) == 1
        assert t.blocks[0].graph.edges == frozenset()
        assert not t.blocks[0].is_trivial
        assert t.cutvertices == frozenset()

    def test_single_edge(self):
        t = block_cut_tree(Graph.build([], [("a", "b")]))
        assert len(t.blocks) == 1 and t.blocks[0].is_trivial
        assert t.cutvertices == frozenset()

    def test_two_triangles_with_bridge(self):
        t = block_cut_tree(caterpillar())
        assert t.cutvertices == {"c", "d"}
        got = block_view(t)
        assert (frozenset("cd"), frozenset([("c", "d")])) in got
        assert len(got) == 3
        trivial = [b for b in t.blocks if b.is_trivial]
        assert len(trivial) == 1 and trivial[0].graph.vertices == {"c", "d"}

    def test_square_with_tail(self):
        g, _ = tailed_square()
        t = block_cut_tree(g)
        assert t.cutvertices == {"w"}
        assert block_view(t) == oracle_blocks(g)

    def test_two_connected_graph_is_one_block(self):
        t = block_cut_tree(complete("abcd"))
        assert len(t.blocks) == 1
        assert t.cutvertices == frozenset()
        assert t.links == frozenset()

    def test_path_blocks_are_the_edges(self):
        t = block_cut_tree(path_graph("abcd"))
        assert all(b.is_trivial for b in t.blocks)
        assert t.cutvertices == {"b", "c"}

    def test_ids_follow_sorted_order(self):
        t = block_cut_tree(caterpillar())
        keys = [(b.graph.sorted_vertices(), b.graph.sorted_edges())
                for b in t.blocks]
        assert keys == sorted(keys)
        assert t.block_ids() == list(range(len(t.blocks)))

    def test_rejects_empty_and_disconnected(self):
        with pytest.raises(GraphError):
            block_cut_tree(Graph.build([], []))
        with pytest.raises(GraphError):
            block_cut_tree(Graph.build("ab", []))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracles_seeded(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(1, 8), extra=3)
        t = block_cut_tree(g)
        assert block_view(t) == oracle_blocks(g)
        assert t.cutvertices == oracle_cutvertices(g)

    @PROPERTY
    @given(connected_graphs())
    def test_structure_properties(self, g):
        t = block_cut_tree(g)
        # every edge in exactly one block
        claimed = [e for b in t.blocks for e in b.graph.edges]
        assert sorted(claimed) == g.sorted_edges()
        # blocks sit at their ids, links touch real vertices,
        # cutvertices sit in >= 2 blocks
        assert all(b.id == i for i, b in enumerate(t.blocks))
        for bid, c in t.links:
            assert c in t.blocks[bid].graph.vertices
        for c in t.cutvertices:
            assert sum(1 for _, x in t.links if x == c) >= 2
        # the incidence structure is a tree
        nodes = len(t.blocks) + len(t.cutvertices)
        assert len(t.links) == nodes - 1


def check_block_reference(g: Graph):
    t, ref = block_cut_tree(g), reference_block_cut_tree(g)
    assert t.block_ids() == ref.block_ids()
    assert t.cutvertices == ref.cutvertices and t.links == ref.links
    assert t.blocks == ref.blocks  # block graphs too


def check_segment_reference(g: Graph, ctx: Graph):
    if any(ctx.degree(v) >= 3 for v in g.vertices):
        assert segment_decomposition(g, ctx) == reference_segments(g, ctx)


class TestReferenceWalks:
    """The mask walks equal the labelled walks they replaced."""

    @pytest.mark.parametrize("seed", range(24))
    def test_seeded_hosts(self, seed):
        g = reference_host(seed)
        assert 10 <= len(g.vertices)
        check_block_reference(g)
        check_segment_reference(g, g)
        for b in block_cut_tree(g).blocks:
            check_segment_reference(b.graph, g)

    @PROPERTY
    @given(connected_graphs())
    def test_connected_graphs(self, g):
        assume(len(g.vertices) > 1)
        check_block_reference(g)
        check_segment_reference(g, g)

    @pytest.mark.parametrize("seed", range(6))
    def test_decompose_builds_no_edge_numbering(self, seed):
        g = reference_host(seed)
        ctx = Graph(g.vertices, g.edges)
        block_cut_tree(g)
        segment_decomposition(g, ctx)
        classify_shape(g)
        branch_vertices(g, ctx)
        connected_components(g)
        for x in (g, ctx):
            assert not {"ends", "edges", "inc"} & x.index.__dict__.keys()


def closed_segments_start_low(g: Graph, ctx: Graph) -> int:
    """Check that each closed segment's interior starts at the lower of
    its branch vertex's two cycle neighbours, the one the walk leaves
    by; return how many closed segments there are."""
    closed = [s for s in segment_decomposition(g, ctx) if s.kind == "closed"]
    for s in closed:
        first, last = s.interior[0], s.interior[-1]
        assert {first, last} <= g.neighbors(s.ends[0])
        assert first < last
    return len(closed)


class TestClosedSegments:
    def test_reference_hosts(self):
        found = 0
        for seed in range(24):
            g = reference_host(seed)
            for x in [g, *(b.graph for b in block_cut_tree(g).blocks)]:
                if any(g.degree(v) >= 3 for v in x.vertices):
                    found += closed_segments_start_low(x, g)
        assert found

    @pytest.mark.parametrize("seed", range(12))
    def test_petalled_wheels(self, seed):
        g = petalled_wheel(seed)
        assert closed_segments_start_low(g, g) == 3
        for b in block_cut_tree(g).blocks:
            closed_segments_start_low(b.graph, g)


class TestMinimalSubtree:
    def test_single_mark_keeps_one_block(self):
        t = block_cut_tree(caterpillar())
        bridge = next(b for b in t.blocks if b.is_trivial)
        sub = minimal_subtree(t, [bridge.id])
        assert [b.id for b in sub.blocks] == [bridge.id]
        assert sub.cutvertices == frozenset()
        assert sub.links == frozenset()

    def test_two_marks_keep_connecting_chain(self):
        t = block_cut_tree(caterpillar())
        ends = [b.id for b in t.blocks if not b.is_trivial]
        sub = minimal_subtree(t, ends)
        assert set(sub.block_ids()) == set(t.block_ids())
        assert sub.cutvertices == {"c", "d"}

    def test_prunes_side_branches(self):
        # path of triangles with an extra pendant edge hanging off "c"
        g = Graph.build([], [("a", "b"), ("b", "c"), ("a", "c"),
                             ("c", "d"), ("c", "x")])
        t = block_cut_tree(g)
        triangle = next(b for b in t.blocks if len(b.graph.edges) == 3)
        cd = next(b for b in t.blocks
                  if b.graph.vertices == frozenset("cd"))
        sub = minimal_subtree(t, [triangle.id, cd.id])
        assert set(sub.block_ids()) == {triangle.id, cd.id}
        assert sub.cutvertices == {"c"}

    def test_keeps_original_ids(self):
        t = block_cut_tree(caterpillar())
        sub = minimal_subtree(t, [t.blocks[-1].id])
        assert sub.blocks[0].id == t.blocks[-1].id

    def test_rejects_unknown_and_empty(self):
        t = block_cut_tree(caterpillar())
        with pytest.raises(GraphError):
            minimal_subtree(t, [99])
        with pytest.raises(GraphError):
            minimal_subtree(t, [])


class TestChooseLeafBlock:
    def test_prefers_smallest_leaf(self):
        t = block_cut_tree(caterpillar())
        leaf = choose_leaf_block(t)
        assert leaf.graph.vertices == frozenset("abc")

    def test_single_block_is_a_leaf(self):
        t = block_cut_tree(complete("abc"))
        assert choose_leaf_block(t) is t.blocks[0]

    def test_rejects_empty_tree(self):
        t = block_cut_tree(complete("ab"))
        empty = type(t)(())
        with pytest.raises(GraphError):
            choose_leaf_block(empty)


def check_tree_reference(t, ref_tree, marked):
    """Check minimal_subtree and choose_leaf_block on t against the
    references on ref_tree, the reference tree of the same host."""
    sub = minimal_subtree(t, marked)
    ref = reference_minimal_subtree(ref_tree, marked)
    assert sub.block_ids() == ref.block_ids()
    assert sub.cutvertices == ref.cutvertices and sub.links == ref.links
    assert choose_leaf_block(sub) == reference_choose_leaf_block(ref)
    return sub


def random_marks(rng: random.Random, t) -> list[list[int]]:
    """A single mark, a random subset and every block of the tree."""
    ids = t.block_ids()
    return [[rng.choice(ids)], rng.sample(ids, rng.randint(1, len(ids))), ids]


class TestTreeReference:
    """The one-pass peel and leaf choice equal the fixpoint prune and
    the sorted leaf choice they replaced."""

    @pytest.mark.parametrize("seed", range(24))
    def test_reference_hosts(self, seed):
        rng = random.Random(seed)
        g = reference_host(seed)
        t, ref_tree = block_cut_tree(g), reference_block_cut_tree(g)
        assert choose_leaf_block(t) == reference_choose_leaf_block(ref_tree)
        for marked in random_marks(rng, t):
            check_tree_reference(t, ref_tree, marked)

    def test_seeded_hosts(self):
        rng = random.Random(2501)
        shapes = set()
        for _ in range(300):
            g = random_connected_graph(
                rng, rng.randint(1, 14), extra=rng.randint(0, 4))
            t, ref_tree = block_cut_tree(g), reference_block_cut_tree(g)
            assert choose_leaf_block(t) == reference_choose_leaf_block(ref_tree)
            for marked in random_marks(rng, t):
                sub = check_tree_reference(t, ref_tree, marked)
                shapes.add((len(sub.blocks) == len(t.blocks),
                            len(sub.blocks) == 1))
        # cases that keep the whole tree, one block, and a proper part
        assert shapes == {(True, True), (True, False), (False, True),
                          (False, False)}


class TestBranchVertices:
    def test_tailed_square(self):
        g, ctx = tailed_square()
        assert branch_vertices(g, ctx) == {"v", "w"}

    def test_requires_subgraph(self):
        g, ctx = tailed_square()
        with pytest.raises(GraphError):
            branch_vertices(ctx, g)
        with pytest.raises(GraphError):
            branch_vertices(complete("vw"), Graph.build("vw", []))


class TestSegments:
    def test_tailed_square_frozen(self):
        g, ctx = tailed_square()
        segs = segment_decomposition(g, ctx)
        assert segs == [
            Segment("between", ("v", "w"), ()),
            Segment("between", ("v", "w"), ("u1", "u2")),
            Segment("pendant", ("w", "w1"), ()),
        ]
        assert [s.length for s in segs] == [1, 3, 1]

    def test_closed_segment(self):
        g = cycle_graph(["b", "p", "q"])
        ctx = Graph.build([], list(g.edges) + [("b", "t")])
        segs = segment_decomposition(g, ctx)
        assert segs == [Segment("closed", ("b",), ("p", "q"))]
        assert segs[0].length == 3

    def test_pendant_with_interior(self):
        g = path_graph(["b", "m", "t"])
        ctx = Graph.build([], list(g.edges) + [("b", "x"), ("b", "y")])
        segs = segment_decomposition(g, ctx)
        assert segs == [Segment("pendant", ("b", "t"), ("m",))]
        assert segs[0].length == 2

    def test_rejects_no_branch_vertices(self):
        g = cycle_graph("abcd")
        with pytest.raises(GraphError):
            segment_decomposition(g, g)

    def test_rejects_disconnected(self):
        g = Graph.build([], [("a", "b"), ("x", "y")])
        ctx = Graph.build([], list(g.edges) + [("a", "p"), ("a", "q")])
        with pytest.raises(GraphError):
            segment_decomposition(g, ctx)

    @PROPERTY
    @given(connected_graphs())
    def test_partition_properties(self, g):
        assume(any(g.degree(v) >= 3 for v in g.vertices))
        segs = segment_decomposition(g, g)
        assert sum(s.length for s in segs) == len(g.edges)
        branch = branch_vertices(g, g)
        interiors = [v for s in segs for v in s.interior]
        assert len(interiors) == len(set(interiors))
        for s in segs:
            for v in s.interior:
                assert v not in branch and g.degree(v) == 2
            if s.kind == "between":
                a, b = s.ends
                assert a <= b and {a, b} <= branch
                assert s.length == len(s.interior) + 1
            elif s.kind == "closed":
                assert len(s.ends) == 1 and s.ends[0] in branch
                assert s.length == len(s.interior) + 1
            else:
                assert s.kind == "pendant"
                root, tip = s.ends
                assert root in branch and tip not in branch
                assert g.degree(tip) == 1
                assert s.length == len(s.interior) + 1
        # non-branch degree-2 and degree-1 vertices all appear in segments
        covered = set(interiors) | {s.ends[-1] for s in segs if s.kind == "pendant"}
        loose = {v for v in g.vertices if v not in branch}
        assert loose == covered


class TestShape:
    @pytest.mark.parametrize("g,shape", [
        (Graph.build("a", []), Shape.ISOLATED_VERTEX),
        (path_graph("ab"), Shape.PATH),
        (path_graph("abc"), Shape.PATH),
        (cycle_graph("abc"), Shape.CYCLE),
        (cycle_graph("abcd"), Shape.CYCLE),
        (star_graph("c", "xyz"), Shape.HAS_DEGREE3_VERTEX),
        (complete("abcd"), Shape.HAS_DEGREE3_VERTEX),
    ])
    def test_classify(self, g, shape):
        assert classify_shape(g) is shape

    def test_labels(self):
        assert Shape.CYCLE.value == "Cycle"
        assert Shape.PATH.value == "Path"
        assert Shape.ISOLATED_VERTEX.value == "IsolatedVertex"
        assert Shape.HAS_DEGREE3_VERTEX.value == "HasDegree3Vertex"

    def test_rejects_empty_and_disconnected(self):
        with pytest.raises(GraphError):
            classify_shape(Graph.build([], []))
        with pytest.raises(GraphError):
            classify_shape(Graph.build("ab", []))


class TestMinorPredicate:
    def test_holds(self):
        pred = MinorPredicate("contains-K3", complete("xyz"))
        assert pred.holds(complete("abcd"))
        assert pred.holds(cycle_graph("pqrs"))
        assert not pred.holds(path_graph("abcde"))
        assert pred.name == "contains-K3"
