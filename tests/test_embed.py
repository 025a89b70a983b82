"""Expansion search engine, its verifier, and the independent oracle."""

import random
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minorbench import (BudgetExceeded, Graph, GraphError, MinorEmbedding,
                        MinorPredicate, NodeCounter, Outcome, SearchStatus,
                        check_assembly_robustness, connected_components,
                        delete_edges, edge, enumerate_expansions,
                        find_expansion, is_minor, iter_expansion_footprints,
                        parse_graph, segment_blowup,
                        verify_embedding)
from minorbench import embed
from minorbench.embed import _labelled, _lift, _reduce_host, _unlabelled
from minorbench.graph import _bits
from helpers import (brute_force_models, complete, cycle_graph,
                     footprint_cases, graphs_up_to_iso, inclusion_minimal,
                     labelled_adjacency, masks_graph, naive_is_minor_oracle,
                     oracle_footprints, path_graph, pattern_automorphisms,
                     random_connected_graph, random_graph,
                     random_regular_graph, reference_branch_set_maps,
                     reference_connected_sets, reference_footprints,
                     reference_search, reference_spanning_trees,
                     reference_symmetry_floors,
                     satisfies_leaf_rule, seeded_host, star_graph,
                     subdivided, tailed_square, triangle_with_tail,
                     vertex_labels, vertex_mask, wheel_graph)

PROPERTY = settings(max_examples=50, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def seeded_pair(seed):
    rng = random.Random(seed)
    h = random_graph(rng, rng.randint(1, 4), rng.uniform(0.2, 0.9))
    g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.9))
    return h, g


class TestNodeCounter:
    def test_spend_raises_past_cap(self):
        c = NodeCounter(cap=2)
        c.spend()
        c.spend()
        with pytest.raises(BudgetExceeded):
            c.spend()

    def test_uncapped(self):
        c = NodeCounter(cap=None)
        for _ in range(10**4):
            c.spend()
        assert c.nodes == 10**4


class TestMinorEmbedding:
    def test_json_round_trip(self):
        m = MinorEmbedding({"a": frozenset("pq"), "b": frozenset("r")},
                           {("a", "b"): ("q", "r")})
        again = MinorEmbedding.from_json_obj(m.to_json_obj())
        assert again == m


class TestFindExpansion:
    def test_triangle_in_k4(self):
        h, g = complete("xyz"), complete("pqst")
        res = find_expansion(h, g)
        assert res.status is SearchStatus.FOUND
        assert verify_embedding(h, g, res.embedding)
        assert res.nodes > 0

    def test_k4_not_in_cycle(self):
        res = find_expansion(complete("wxyz"), cycle_graph("pqrstu"))
        assert res.status is SearchStatus.NONE
        assert res.embedding is None

    def test_pattern_larger_than_host(self):
        res = find_expansion(complete("vwxyz"), complete("pqst"))
        assert res.status is SearchStatus.NONE

    def test_empty_pattern_found_trivially(self):
        res = find_expansion(Graph.build([], []), complete("pq"))
        assert res.status is SearchStatus.FOUND
        assert res.embedding == MinorEmbedding({}, {})

    def test_budget_exhaustion_reported(self):
        # the unreduced search; find_expansion suppresses the whole cycle
        res = reference_search(complete("wxyz"), cycle_graph("pqrstuvo"),
                               node_budget=5)
        assert res.status is SearchStatus.BUDGET
        assert res.embedding is None
        assert res.nodes == 6

    def test_reduced_cycle_refutes_k4_without_search(self):
        res = find_expansion(complete("wxyz"), cycle_graph("pqrstuvo"),
                             node_budget=5)
        assert res.status is SearchStatus.NONE
        assert res.nodes == 0

    def test_contraction_only_minor(self):
        # wheel on 5 vertices has a K4 minor only after contracting a rim edge
        rim = cycle_graph("abcd")
        wheel = Graph.build([], list(rim.edges) +
                            [("h", v) for v in "abcd"])
        res = find_expansion(complete("wxyz"), wheel)
        assert res.status is SearchStatus.FOUND
        assert any(len(bs) > 1 for bs in res.embedding.branch_sets.values())
        assert verify_embedding(complete("wxyz"), wheel, res.embedding)


class TestConstraints:
    def test_must_contain_pins_host_vertex(self):
        h, g = complete("xyz"), complete("pqst")
        res = find_expansion(h, g, {"x": "p"})
        assert res.status is SearchStatus.FOUND
        assert "p" in res.embedding.branch_sets["x"]

    def test_rejects_unknown_names(self):
        h, g = complete("xy"), complete("pq")
        with pytest.raises(GraphError):
            find_expansion(h, g, {"zz": "p"})
        with pytest.raises(GraphError):
            find_expansion(h, g, {"x": "zz"})


class TestVerifyEmbedding:
    def setup_method(self):
        self.h = path_graph("ab")
        self.g = path_graph("pqr")
        self.good = MinorEmbedding({"a": frozenset("p"), "b": frozenset("q")},
                                   {("a", "b"): ("p", "q")})

    def test_accepts_valid(self):
        assert verify_embedding(self.h, self.g, self.good)

    def test_rejects_missing_branch_set(self):
        m = MinorEmbedding({"a": frozenset("p")}, {("a", "b"): ("p", "q")})
        assert not verify_embedding(self.h, self.g, m)

    def test_rejects_empty_branch_set(self):
        m = MinorEmbedding({"a": frozenset(), "b": frozenset("q")},
                           {("a", "b"): ("p", "q")})
        assert not verify_embedding(self.h, self.g, m)

    def test_rejects_overlapping_branch_sets(self):
        m = MinorEmbedding({"a": frozenset("pq"), "b": frozenset("q")},
                           {("a", "b"): ("p", "q")})
        assert not verify_embedding(self.h, self.g, m)

    def test_rejects_disconnected_branch_set(self):
        m = MinorEmbedding({"a": frozenset("pr"), "b": frozenset("q")},
                           {("a", "b"): ("p", "q")})
        assert not verify_embedding(self.h, self.g, m)

    def test_rejects_vertices_outside_host(self):
        m = MinorEmbedding({"a": frozenset("z"), "b": frozenset("q")},
                           {("a", "b"): ("p", "q")})
        assert not verify_embedding(self.h, self.g, m)

    def test_rejects_image_not_a_host_edge(self):
        m = MinorEmbedding({"a": frozenset("p"), "b": frozenset("r")},
                           {("a", "b"): ("p", "r")})
        assert not verify_embedding(self.h, self.g, m)

    def test_rejects_image_not_crossing(self):
        m = MinorEmbedding({"a": frozenset("p"), "b": frozenset("q")},
                           {("a", "b"): ("q", "r")})
        assert not verify_embedding(self.h, self.g, m)

    def test_rejects_duplicate_images(self):
        h = path_graph("abc")
        g = complete("pqr")
        m = MinorEmbedding(
            {"a": frozenset("p"), "b": frozenset("q"), "c": frozenset("r")},
            {("a", "b"): ("p", "q"), ("b", "c"): ("p", "q")})
        assert not verify_embedding(h, g, m)

    def test_rejects_wrong_edge_keys(self):
        m = MinorEmbedding({"a": frozenset("p"), "b": frozenset("q")},
                           {("a", "z"): ("p", "q")})
        assert not verify_embedding(self.h, self.g, m)

    def test_rejects_list_branch_set(self):
        m = MinorEmbedding({"a": ["p"], "b": frozenset("q")},
                           {("a", "b"): ("p", "q")})
        assert not verify_embedding(self.h, self.g, m)

    def test_rejects_three_tuple_image(self):
        m = MinorEmbedding({"a": frozenset("p"), "b": frozenset("q")},
                           {("a", "b"): ("p", "q", "r")})
        assert not verify_embedding(self.h, self.g, m)

    def test_rejects_unhashable_image(self):
        m = MinorEmbedding({"a": frozenset("p"), "b": frozenset("q")},
                           {("a", "b"): ["p", "q"]})
        assert not verify_embedding(self.h, self.g, m)


def model_orbit(m: MinorEmbedding, autos) -> list[MinorEmbedding]:
    """m under each pattern automorphism of autos: f(u) gets u's branch
    set, and the image of edge f(a) f(b) is that of a b."""
    return [MinorEmbedding({f[u]: bs for u, bs in m.branch_sets.items()},
                           {edge(f[a], f[b]): im
                            for (a, b), im in m.edge_images.items()})
            for f in autos]


class TestEnumerate:
    def test_single_edge_in_triangle_model_count(self):
        # one model per orbit of the edge's swap: 6 of the 12 models
        h, g = path_graph("ab"), complete("xyz")
        reps = list(enumerate_expansions(h, g))
        assert len(reps) == 6
        models = [m for rep in reps
                  for m in model_orbit(rep, pattern_automorphisms(h))]
        assert len(models) == 12
        assert len(set(map(repr, (m.to_json_obj() for m in models)))) == 12
        for m in models:
            assert verify_embedding(h, g, m)

    def test_order_is_deterministic(self):
        runs = [list(enumerate_expansions(complete("xyz"), complete("pqst")))
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_counter_tracks_nodes(self):
        c = NodeCounter(cap=None)
        list(enumerate_expansions(complete("xyz"), complete("pqst"), None, c))
        assert c.nodes > 0


SYMMETRY_PATTERNS = {
    "P2": path_graph("ab"), "P3": path_graph("abc"), "K3": complete("xyz"),
    "C4": cycle_graph("wxyz"), "K1,3": star_graph("c", "xyz"),
    "K4": complete("wxyz"), "W4": wheel_graph("h", "wxyz"),
    "K2,3": Graph.build([], [(a, b) for a in "pq" for b in "xyz"]),
    "tailed-triangle": triangle_with_tail(),
    "2K2+K1": Graph.build(["i"], [("a", "b"), ("c", "d")]),
}


def symmetry_case(name, seed, pinned):
    """(pattern, seeded host of 6 or 7 vertices, one pin or None)."""
    h = SYMMETRY_PATTERNS[name]
    rng = random.Random(f"{name}:{seed}")
    g = random_graph(rng, 7 if len(h.vertices) <= 3 else 6,
                     rng.uniform(0.7, 1.0))
    if not pinned:
        return h, g, None
    return h, g, {rng.choice(sorted(h.vertices)): rng.choice(sorted(g.vertices))}


class TestSymmetryBreaking:
    """enumerate_expansions yields one model per orbit of the pattern
    automorphisms that fix the pins, against a brute-force model set."""

    @pytest.mark.parametrize("pinned", [False, True])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("name", sorted(SYMMETRY_PATTERNS))
    def test_one_model_per_orbit(self, name, seed, pinned):
        h, g, roots = symmetry_case(name, seed, pinned)
        group = [f for f in pattern_automorphisms(h)
                 if all(f[u] == u for u in roots or {})]
        reps = list(enumerate_expansions(h, g, roots))
        orbits = [{frozenset(m.branch_sets.items())
                   for m in model_orbit(rep, group)} for rep in reps]
        everything = set().union(*orbits)
        assert everything == brute_force_models(h, g, roots)
        # no two representatives share an orbit
        assert sum(map(len, orbits)) == len(everything)
        order = sorted(h.vertices, key=lambda u: (-h.degree(u), u))
        rank = {v: k for k, v in enumerate(
            sorted(g.vertices, key=lambda v: (-g.degree(v), v)))}

        def anchors(m):
            return [min(rank[v] for v in m.branch_sets[u]) for u in order]

        for rep in reps:
            assert verify_embedding(h, g, rep)
            assert all(r in rep.branch_sets[u] for u, r in (roots or {}).items())
            assert anchors(rep) == min(map(anchors, model_orbit(rep, group)))

    @pytest.mark.parametrize("pattern, n, models, nodes", [
        # models, then nodes: branch sets tried plus (tree combination,
        # image choice) pairs that pass the leaf rule
        pytest.param(complete("xyz"), 7, 1701, 26698,   # 10,206 / 6 models
                     id="K3-in-K7"),
        pytest.param(complete("wxyz"), 6, 140, 3336,    # 3,360 / 24 models
                     id="K4-in-K6"),
    ])
    def test_complete_host_counts(self, pattern, n, models, nodes):
        g = complete(f"v{i}" for i in range(n))
        assert sum(1 for _ in enumerate_expansions(pattern, g)) == models
        counter = NodeCounter(cap=None)
        list(iter_expansion_footprints(pattern, g, counter))
        assert counter.nodes == nodes

    def test_floors_computed_once_per_pattern(self):
        text = "4 6\nw\nx\ny\nz\nw x\nw y\nw z\nx y\nx z\ny z\n"
        g = complete("pqstu")
        embed._symmetry_floors.cache_clear()
        for _ in range(3):
            res = find_expansion(parse_graph(text), g)
            assert res.status is SearchStatus.FOUND
        info = embed._symmetry_floors.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_pairs(self, seed):
        h, g = seeded_pair(seed)
        assert is_minor(h, g) == naive_is_minor_oracle(h, g)

    @PROPERTY
    @given(st.integers(min_value=0, max_value=2**20))
    def test_random_pairs(self, seed):
        h, g = seeded_pair(seed)
        assert is_minor(h, g) == naive_is_minor_oracle(h, g)

    @PROPERTY
    @given(st.integers(min_value=0, max_value=2**20))
    def test_minor_relation_is_edge_monotone(self, seed):
        rng = random.Random(seed)
        h = random_graph(rng, 3, 0.7)
        g = random_graph(rng, 5, 0.6)
        if not g.edges:
            return
        e = rng.choice(g.sorted_edges())
        if is_minor(h, delete_edges(g, [e])):
            assert is_minor(h, g)

    def test_oracle_guard(self):
        with pytest.raises(GraphError):
            naive_is_minor_oracle(complete("ab"), complete("abcdefghi"))

    def test_large_hosts_are_decided(self):
        # no host-size guard: a 13-vertex path is searched like any host
        big = path_graph([f"v{i}" for i in range(13)])
        assert is_minor(complete("ab"), big)
        assert not is_minor(complete("abc"), big)


class TestIsMinorBudget:
    GADGET = segment_blowup(complete("pqst"), complete("pqst"), 3)

    def test_k4_gadget_at_r3(self):
        assert len(self.GADGET.vertices) == 22
        assert is_minor(complete("wxyz"), self.GADGET)
        assert not is_minor(complete("vwxyz"), self.GADGET)

    def test_budget_is_read_at_each_call(self, monkeypatch):
        monkeypatch.setattr(embed, "DEFAULT_NODE_BUDGET", 1)
        with pytest.raises(BudgetExceeded):
            is_minor(complete("wxyz"), self.GADGET)
        monkeypatch.setattr(embed, "DEFAULT_NODE_BUDGET", 100)
        assert is_minor(complete("wxyz"), self.GADGET)

    def test_predicate_raises_on_exhaustion(self, monkeypatch):
        monkeypatch.setattr(embed, "DEFAULT_NODE_BUDGET", 1)
        with pytest.raises(BudgetExceeded):
            MinorPredicate("contains-K4", complete("pqst")).holds(self.GADGET)


class TestFootprints:
    def test_triangle_in_k4_contains_all_triangles(self):
        h, g = complete("xyz"), complete("pqst")
        counter = NodeCounter(cap=None)
        got = list(iter_expansion_footprints(h, g, counter))
        usages = {u for _, u in got}
        for tri in [("p", "q", "s"), ("p", "q", "t"), ("p", "s", "t"),
                    ("q", "s", "t")]:
            a, b, c = tri
            assert frozenset({(a, b), (a, c), (b, c)}) in usages

    def test_footprints_unique_and_consistent(self):
        h, g = complete("xyz"), complete("pqst")
        got = list(iter_expansion_footprints(h, g, NodeCounter(cap=None)))
        usages = [u for _, u in got]
        assert len(usages) == len(set(usages))
        for emb, usage in got:
            assert verify_embedding(h, g, emb)
            assert usage <= g.edges
            restricted = g.edge_subgraph(usage)
            assert is_minor(h, restricted)

    def test_budget_propagates(self):
        h, g = complete("xyz"), complete("pqst")
        with pytest.raises(BudgetExceeded):
            list(iter_expansion_footprints(h, g, NodeCounter(cap=3)))


FOOTPRINT_CASES = footprint_cases()


class TestLeafRuleFootprints:
    """iter_expansion_footprints against the full trees x images
    product, helpers.product_footprints."""

    @pytest.mark.parametrize("name", sorted(FOOTPRINT_CASES))
    def test_against_product_oracle(self, name):
        h, g = FOOTPRINT_CASES[name]
        oracle = oracle_footprints(h, g)
        got = list(iter_expansion_footprints(h, g, NodeCounter(cap=None)))
        kept = {usage for _, usage in got}
        assert len(kept) == len(got)
        assert inclusion_minimal(usage for _, usage in oracle) <= kept
        assert kept <= {usage for _, usage in oracle}
        for emb, usage in got:
            assert satisfies_leaf_rule(emb, usage)
            assert verify_embedding(h, g, emb)
        # with minimum degree 2 a footprint breaks the rule under every
        # model or none: exactly when one of its vertices has degree 1
        assert kept == {usage for emb, usage in oracle
                        if satisfies_leaf_rule(emb, usage)}

    def test_triangles_in_k7_are_its_cycles(self):
        g = complete("abcdefg")
        got = [usage for _, usage in iter_expansion_footprints(
            complete("xyz"), g, NodeCounter(cap=None))]
        cycles = sum(comb(7, n) * factorial(n - 1) // 2 for n in range(3, 8))
        assert len(got) == len(set(got)) == cycles == 1172
        for usage in got:
            sub = g.edge_subgraph(usage)
            assert sub.is_connected()
            assert all(sub.degree(v) == 2 for v in sub.vertices)


def footprint_sequence(enumerate_footprints, h, g, cap=None):
    """The (model, footprint) pairs enumerate_footprints yields before
    its node cap runs out, its node count, and whether it finished."""
    counter = NodeCounter(cap=cap)
    out = []
    try:
        for item in enumerate_footprints(h, g, counter):
            out.append(item)
    except BudgetExceeded:
        return out, counter.nodes, False
    return out, counter.nodes, True


SEQUENCE_PATTERNS = {"K3": complete("xyz"), "C4": cycle_graph("wxyz"),
                     "W4": wheel_graph("h", "wxyz"),
                     "P3": path_graph("xyz"),
                     "K1,3": star_graph("c", "xyz"),
                     "triangle-with-tail": triangle_with_tail(),
                     "tailed-square": tailed_square()[0],
                     "P2+K1": Graph.build(["z"], [("x", "y")])}


class TestFootprintSequence:
    """iter_expansion_footprints against helpers.reference_footprints,
    the label-tuple loop it replaced: the same (branch sets, edge
    images, footprint) sequence, and never more nodes."""

    @pytest.mark.parametrize("name", sorted(FOOTPRINT_CASES))
    def test_footprint_cases(self, name):
        h, g = FOOTPRINT_CASES[name]
        ref, ref_nodes, _ = footprint_sequence(reference_footprints, h, g)
        got, nodes, _ = footprint_sequence(iter_expansion_footprints, h, g)
        assert got == ref
        assert nodes <= ref_nodes
        for cap in (10, 100, 1000):
            ref, _, ref_done = footprint_sequence(reference_footprints,
                                                  h, g, cap)
            got, _, done = footprint_sequence(iter_expansion_footprints,
                                              h, g, cap)
            assert got[:len(ref)] == ref
            assert done or not ref_done

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("name", sorted(SEQUENCE_PATTERNS))
    def test_seeded_hosts_under_cap(self, name, seed):
        """The reference's prefix under a node cap is a prefix of the
        enumerator's under the same cap, which counts fewer nodes."""
        h = SEQUENCE_PATTERNS[name]
        g = seeded_host(random.Random(seed))
        ref, _, ref_done = footprint_sequence(reference_footprints, h, g,
                                              3000)
        got, _, done = footprint_sequence(iter_expansion_footprints, h, g,
                                          3000)
        assert got[:len(ref)] == ref
        if ref_done:
            assert done and got == ref

    def test_sparse_host_rejects_treeless_branch_sets(self):
        """A branch set whose induced subgraph has no spanning tree with
        at most deg_h(u) leaves is dropped where it is placed, with every
        model that would extend it; those models yield no footprint."""
        h = complete("xyz")
        g = seeded_host(random.Random(3), (1, 4))
        ref, ref_nodes, _ = footprint_sequence(reference_footprints, h, g)
        got, nodes, _ = footprint_sequence(iter_expansion_footprints, h, g)
        assert got == ref and len(got) == 12
        assert (ref_nodes, nodes) == (593647, 185551)

    @pytest.mark.parametrize("seed", range(8))
    def test_spanning_trees_match_reference(self, seed):
        rng = random.Random(seed)
        g = (seeded_host(rng, (4, 12)) if seed % 2
             else complete(f"v{i}" for i in range(7)))
        verts = sorted(g.vertices)
        vidx = {v: i for i, v in enumerate(verts)}
        edges = g.sorted_edges()
        ends = [(vidx[a], vidx[b]) for a, b in edges]
        inc = [sum(1 << k for k, e in enumerate(ends) if i in e)
               for i in range(len(verts))]
        for _ in range(20):
            vs = {rng.choice(verts)}  # a random connected set
            for _ in range(rng.randint(0, 6)):
                vs.add(rng.choice(sorted(set().union(
                    *(g.neighbors(v) for v in vs)))))
            vs = frozenset(vs)
            most = rng.randint(0, 4)
            got = embed._spanning_trees(sum(1 << vidx[v] for v in vs), most,
                                        ends, inc)
            assert [(frozenset(edges[k] for k in _bits(t)),
                     frozenset(verts[i] for i in _bits(lv)))
                    for t, lv in got] == reference_spanning_trees(
                        vs, labelled_adjacency(g), most)


def capped_footprints(h, g, cap, volume=None):
    """The (model, footprint) pairs _footprints yields under the volume
    cap before its node cap runs out, and whether it finished."""
    out = []
    try:
        for item in embed._footprints(h, g.index, NodeCounter(cap=cap),
                                      volume):
            out.append(item)
    except BudgetExceeded:
        return out, False
    return out, True


def check_volume_caps(h, g, cap):
    """Every footprint has as many edges as its branch sets' volume
    less |V(h)| plus |E(h)|, and the walk under a volume cap yields the
    uncapped walk's footprints of at most that size, in its order.
    Under a node cap the capped walk gets at least as far: it counts a
    subsequence of the uncapped walk's nodes."""
    nh, mh = len(h.vertices), len(h.edges)
    full, full_done = capped_footprints(h, g, cap)
    for (branch, _), usage in full:
        assert usage.bit_count() == sum(B.bit_count() for B in branch) - nh + mh
    for volume in range(nh - 1, nh + 5):
        most = volume - nh + mh
        got, done = capped_footprints(h, g, cap, volume)
        want = [item for item in full if item[1].bit_count() <= most]
        assert got[:len(want)] == want
        assert all(usage.bit_count() <= most for _, usage in got)
        if full_done:
            assert done and got == want


class TestVolumeCap:
    """_footprints with a cap on the branch sets' total size, which the
    packing search lists footprints by."""

    @pytest.mark.parametrize("name", sorted(FOOTPRINT_CASES))
    def test_footprint_cases(self, name):
        check_volume_caps(*FOOTPRINT_CASES[name], None)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("name", ["K3", "C4", "K4"])
    def test_seeded_hosts(self, name, seed):
        h = {"K3": complete("xyz"), "C4": cycle_graph("wxyz"),
             "K4": complete("wxyz")}[name]
        check_volume_caps(h, seeded_host(random.Random(seed)), 5000)

    def test_cap_below_the_pattern_yields_nothing(self):
        h, g = complete("xyz"), complete("abcde")
        assert capped_footprints(h, g, None, 2) == ([], True)
        got, _ = capped_footprints(h, g, None, 3)
        assert len(got) == comb(5, 3)


# -- the branch-set kernel against its recursive reference ---------------------

def random_masks(rng, n):
    """Adjacency masks of a random graph on n vertices."""
    nbr = [0] * n
    p = rng.uniform(0.1, 0.8)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                nbr[a] |= 1 << b
                nbr[b] |= 1 << a
    return nbr


def map_sequence(search, h, nbr, alive, pins, cap=None, admits=None,
                 volume=None):
    """Every branch-set map search yields, copied, with counter.nodes at
    each yield; the consumer spends nodes too, as _footprints does.
    Then the final count, whether the budget ran out, and whether every
    yield was the same live list."""
    counter = NodeCounter(cap=cap)
    out, lists = [], []
    try:
        for placed in search(h, nbr, alive, pins, counter, admits, volume):
            out.append((tuple(placed), counter.nodes))
            lists.append(placed)
            for _ in range(len(out) % 3):
                counter.spend()
    except BudgetExceeded as exc:
        return out, exc.nodes, True, all(x is lists[0] for x in lists)
    return out, counter.nodes, False, all(x is lists[0] for x in lists)


def check_same_maps(h, nbr, alive, pins, cap=None, admits=None, volume=None,
                    caps_up_to=0):
    """_branch_set_maps and reference_branch_set_maps yield the same
    maps with the same node counts and stop at the same count, also
    under every node cap up to the full count or caps_up_to, whichever
    is less."""
    args = (h, nbr, alive, pins)
    want = map_sequence(reference_branch_set_maps, *args, cap, admits, volume)
    got = map_sequence(embed._branch_set_maps, *args, cap, admits, volume)
    assert got == want and got[3]
    for c in range(1, min(want[1], caps_up_to) + 1):
        assert (map_sequence(embed._branch_set_maps, *args, c, admits, volume)
                == map_sequence(reference_branch_set_maps, *args, c, admits,
                                volume))
    return want


def rejecting(p, B):
    """An admits that drops about a third of the candidate sets."""
    return (B.bit_count() * 7 + B % 5 + p) % 3 != 0


KERNEL_PATTERNS = {"K3": complete("xyz"), "C4": cycle_graph("wxyz"),
                   "K4": complete("wxyz"), "W4": wheel_graph("h", "wxyz"),
                   "P3": path_graph("abc"),
                   "tailed-triangle": triangle_with_tail()}


def two_cubic_copies():
    """Two disjoint copies of one random 3-regular graph on 10 vertices."""
    g = random_regular_graph(random.Random(5), 10)
    return Graph.build([], [(f"{c}{a}", f"{c}{b}") for c in "pq"
                            for a, b in g.edges])


SYMMETRIC_PATTERNS = {
    "petersen": Graph.build([], [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
                            + [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
                            + [(f"o{i}", f"i{i}") for i in range(5)]),
    "cube": Graph.build([], [(f"c{a}", f"c{a ^ 1 << k}") for a in range(8)
                             for k in range(3)]),
    "C8": cycle_graph([f"v{i}" for i in range(8)]),
    "K3,3": Graph.build([], [(a, b) for a in "abc" for b in "xyz"]),
    "W6": wheel_graph("h", [f"r{i}" for i in range(6)]),
    "two-cubic-copies": two_cubic_copies(),
}


class TestKernelSequence:
    """The iterative _connected_sets_from and _branch_set_maps yield
    exactly what the recursive generators they replaced
    (helpers.reference_connected_sets, reference_branch_set_maps) yield,
    in order, with the same node counts."""

    @pytest.mark.parametrize("seed", range(40))
    def test_connected_sets(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        nbr = random_masks(rng, n)
        allowed = rng.getrandbits(n) | rng.getrandbits(n)
        for root in range(n):
            for max_size in range(n + 2):
                args = (root, allowed, nbr, max_size)
                assert (list(embed._connected_sets_from(*args))
                        == list(reference_connected_sets(*args)))

    @pytest.mark.parametrize("name", sorted(FOOTPRINT_CASES))
    def test_footprint_cases(self, name):
        h, g = FOOTPRINT_CASES[name]
        nbr, alive = g.index.nbr, (1 << len(g.vertices)) - 1
        caps = 1000 if len(g.vertices) <= 5 else 100
        check_same_maps(h, nbr, alive, {}, caps_up_to=caps)
        check_same_maps(h, nbr, alive, {}, admits=rejecting, caps_up_to=caps)
        nh = len(h.vertices)
        for volume in range(nh - 1, nh + 4):
            check_same_maps(h, nbr, alive, {}, 5000, rejecting, volume)
        u, v = min(h.vertices), max(g.vertices)
        check_same_maps(h, nbr, alive, {u: g.index.vidx[v]}, 5000,
                        caps_up_to=caps)

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_hosts(self, seed):
        """10-25 vertex hosts, whole or reduced, with zero to two pins,
        an admits that rejects or none, and volume caps, under a node
        cap; and every cap up to 300."""
        rng = random.Random(seed)
        name = sorted(KERNEL_PATTERNS)[seed % len(KERNEL_PATTERNS)]
        h = KERNEL_PATTERNS[name]
        g = seeded_host(rng, (4, 16))
        pins = dict(zip(rng.sample(sorted(h.vertices), seed % 3),
                        rng.sample(range(len(g.vertices)), seed % 3)))
        nbr, alive = g.index.nbr, (1 << len(g.vertices)) - 1
        if seed % 2:
            nbr, alive, _ = _reduce_host(h, nbr, alive, sum(
                1 << v for v in pins.values()))
        nh = len(h.vertices)
        for admits in (None, rejecting):
            for volume in (None, nh + 1, nh + 4):
                check_same_maps(h, nbr, alive, pins, 4000, admits, volume)
        check_same_maps(h, nbr, alive, pins, 300, rejecting, caps_up_to=300)

    def test_edge_cases(self):
        g = complete("abc")
        nbr, alive = g.index.nbr, 0b111
        # an empty pattern has one empty map; a pattern larger than the
        # host, or than the volume cap, has none, and costs no node
        maps, _, ran_out, _ = check_same_maps(Graph.build([], []), nbr,
                                              alive, {})
        assert maps == [((), 0)] and not ran_out
        assert check_same_maps(complete("wxyz"), nbr, alive, {})[:3] == (
            [], 0, False)
        assert check_same_maps(complete("xyz"), nbr, alive, {}, volume=2
                               )[:3] == ([], 0, False)
        # pinned sets have no anchor, so a floor never reads one
        check_same_maps(complete("xyz"), nbr, alive,
                        {"x": 0, "y": 1, "z": 2}, caps_up_to=100)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_floors_on_small_patterns(self, n):
        """The floors with colour refinement equal the plain
        backtracking's, unpinned and with every one or two pins."""
        for h in graphs_up_to_iso(n):
            for k in (0, 1, 2):
                for pinned in map(frozenset,
                                  combinations(sorted(h.vertices), k)):
                    assert (embed._symmetry_floors(h, pinned)[:2]
                            == reference_symmetry_floors(h, pinned))

    @pytest.mark.parametrize("seed", range(6))
    def test_floors_on_cubic_patterns(self, seed):
        rng = random.Random(seed)
        h = random_regular_graph(rng, rng.choice(range(20, 31, 2)))
        for pinned in (frozenset(), frozenset({rng.choice(sorted(h.vertices))})):
            assert (embed._symmetry_floors(h, pinned)[:2]
                    == reference_symmetry_floors(h, pinned))

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_PATTERNS))
    def test_floors_on_symmetric_patterns(self, name):
        h = SYMMETRIC_PATTERNS[name]
        first = min(h.vertices)
        for pinned in (frozenset(), frozenset({first})):
            got = embed._symmetry_floors(h, pinned)[:2]
            assert got == reference_symmetry_floors(h, pinned)
            assert any(got[1])


# -- host reduction against the unreduced search -------------------------------

REDUCTION_PATTERNS = {"K3": complete("xyz"), "C4": cycle_graph("wxyz"),
                      "K4": complete("wxyz"), "W4": wheel_graph("h", "wxyz")}
UNREDUCED_CAP = 10000


def gadget(base, k, r, cut, seed):
    """The r-fold blowup of base with every edge subdivided k times, so
    that suppression chains k + 1 edges, less cut random edges."""
    g = subdivided(base, k)
    host = segment_blowup(g, g, r)
    return delete_edges(host, random.Random(seed).sample(host.sorted_edges(),
                                                         cut))


def reduction_hosts():
    """name -> (host, root pins or None)"""
    for seed in range(8):
        yield f"seeded-{seed}", (seeded_host(random.Random(seed), (1, 12)),
                                 None)
    for seed in range(8):
        rng = random.Random(seed)
        yield f"sparse-{seed}", (random_connected_graph(
            rng, rng.randint(10, 12), rng.randint(0, 3)), None)
    for name, base in (("K4", complete("pqst")),
                       ("W4", wheel_graph("h", "pqst"))):
        for k, r in ((1, 2), (2, 2), (1, 3)):
            yield f"{name}-gadget-{k}-{r}", (gadget(base, k, r, r, 10 * k + r),
                                             None)
    for seed in range(8):
        rng = random.Random(100 + seed)
        host = seeded_host(rng, (1, 12))
        low = sorted(v for v in host.vertices if host.degree(v) <= 2)
        yield f"rooted-{seed}", (host, {"x": rng.choice(low)})


REDUCTION_HOSTS = dict(reduction_hosts())


def reduced(h, g, keep=()):
    """_reduce_host on g's Index, read back in labels: the reduced host
    and the merge map, then the merge map as masks."""
    nbr, alive, merged = _reduce_host(h, g.index.nbr,
                                      (1 << len(g.vertices)) - 1,
                                      vertex_mask(g, keep))
    return (masks_graph(g, nbr, alive),
            {g.index.verts[v]: vertex_labels(g, group)
             for v, group in merged.items()}, merged)


def lifted(h, g, model, merged):
    """_lift of a label model on the reduced host back to g, in labels."""
    return _labelled(h, g.index, _lift(_unlabelled(h, g.index, model),
                                       g.index.nbr, merged))


def lossy_lift(model, nbr, merged):
    """_lift, less every vertex the reduction contracted."""
    branch, images = _lift(model, nbr, merged)
    drop = sum(merged.values())
    return [B & ~drop for B in branch], images


def small_host(seed):
    """A host of at most 8 vertices with some edges subdivided once."""
    rng = random.Random(seed)
    base = random_graph(rng, rng.randint(4, 6), rng.uniform(0.5, 1.0))
    es = base.sorted_edges()
    return subdivided(base, 1, rng.sample(es, min(len(es),
                                                  8 - len(base.vertices))))


class TestHostReduction:
    @pytest.mark.parametrize("name", sorted(REDUCTION_HOSTS))
    def test_matches_unreduced_search(self, name):
        host, pins = REDUCTION_HOSTS[name]
        for pattern in REDUCTION_PATTERNS.values():
            ref = reference_search(pattern, host, pins,
                                   node_budget=UNREDUCED_CAP)
            got = find_expansion(pattern, host, pins, node_budget=None)
            if ref.status is not SearchStatus.BUDGET:
                assert got.status is ref.status
            if got.embedding is not None:
                assert verify_embedding(pattern, host, got.embedding)
                for u, v in (pins or {}).items():
                    assert v in got.embedding.branch_sets[u]

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_oracle_on_small_hosts(self, seed):
        host = small_host(seed)
        assert len(host.vertices) <= 8
        for pattern in REDUCTION_PATTERNS.values():
            res = find_expansion(pattern, host, node_budget=None)
            assert ((res.status is SearchStatus.FOUND)
                    == naive_is_minor_oracle(pattern, host))

    def test_gadget_reduces_to_its_pattern(self):
        # each of the six K4 edges runs over two parallel 2-vertex paths:
        # one is contracted into its ends, the other deleted whole
        host = gadget(complete("pqst"), 2, 2, 0, 0)
        small, merged, _ = reduced(complete("wxyz"), host)
        assert small == complete("pqst")
        absorbed = [v for group in merged.values() for v in group]
        assert len(absorbed) == len(set(absorbed)) == 12
        dropped = host.vertices - small.vertices - set(absorbed)
        parts = connected_components(host.induced(dropped))
        assert sorted(len(c.vertices) for c in parts) == [2] * 6
        for c in parts:
            ends = {w for v in c.vertices for w in host.neighbors(v)}
            assert ends - c.vertices <= small.vertices

    @pytest.mark.parametrize("name", sorted(REDUCTION_HOSTS))
    def test_groups_are_disjoint_and_connected(self, name):
        host, pins = REDUCTION_HOSTS[name]
        small, merged, _ = reduced(complete("wxyz"), host,
                                   (pins or {}).values())
        absorbed = [v for group in merged.values() for v in group]
        assert len(absorbed) == len(set(absorbed))
        assert not set(absorbed) & small.vertices
        for v, group in merged.items():
            assert v in small.vertices
            assert host.induced(group | {v}).is_connected()
        for pin in (pins or {}).values():
            assert pin in small.vertices

    def test_pin_absorbs_but_is_never_absorbed(self):
        cycle = cycle_graph("abcdef")
        small, merged, _ = reduced(complete("wxyz"), cycle, "a")
        assert small.vertices == {"a"}
        assert merged == {"a": set("def")}
        small, merged, _ = reduced(complete("wxyz"), cycle, "e")
        assert small.vertices == {"e"}
        assert all("e" not in group for group in merged.values())

    def test_lift_with_an_empty_map_keeps_the_model(self):
        # a pattern of minimum degree 2 only deletes: the K4 keeps its
        # tree, and the search's model is already a model in the host
        host = Graph.build([], list(complete("pqst").edges) +
                           [("t", "u"), ("u", "v"), ("u", "w")])
        small, merged, masks = reduced(complete("xyz"), host)
        assert small == complete("pqst") and merged == {}
        model = reference_search(complete("xyz"), small,
                                 node_budget=None).embedding
        assert lifted(complete("xyz"), host, model, masks) == model

    def test_pinned_vertex_is_kept(self):
        cycle = cycle_graph("pqrstuvo")
        small, _, _ = reduced(complete("wxyz"), cycle, "r")
        assert small.vertices == {"r"}
        res = find_expansion(path_graph("wx"), cycle, {"w": "r"})
        assert "r" in res.embedding.branch_sets["w"]

    def test_patterns_with_a_leaf_keep_the_host(self):
        host = seeded_host(random.Random(0))
        nbr = host.index.nbr
        assert _reduce_host(path_graph("xyz"), nbr,
                            (1 << len(nbr)) - 1, 0)[0] is nbr

    def test_reduction_stays_inside_its_mask(self):
        # triangle 0 1 2, vertex 3 pendant at 2, and an edge 4-5 outside
        # both masks below, whose degree-1 ends are never removed
        k3 = complete("xyz")
        triangle = [0b0110, 0b0101, 0b0011, 0, 0b100000, 0b010000]
        assert _reduce_host(k3, triangle, 0b0111, 0) == (triangle, 0b0111,
                                                         {})
        assert _reduce_host(k3, triangle, 0b0111, 0)[0] is triangle
        tailed = [0b0110, 0b0101, 0b1011, 0b0100, 0b100000, 0b010000]
        out, alive, merged = _reduce_host(k3, tailed, 0b1111, 0)
        assert (out, alive, merged) == (triangle, 0b0111, {})

    @pytest.mark.parametrize("name", sorted(REDUCTION_HOSTS))
    def test_lift_keeps_no_hanging_path(self, name):
        # a lifted branch set holds an absorbed vertex only on a path it
        # needs: inside the set, or leading to the vertex's edge image
        host, pins = REDUCTION_HOSTS[name]
        for pattern in REDUCTION_PATTERNS.values():
            small, _, merged = reduced(pattern, host, (pins or {}).values())
            model = reference_search(pattern, small, pins,
                                     node_budget=None).embedding
            if model is None:
                continue
            out = lifted(pattern, host, model, merged)
            assert verify_embedding(pattern, host, out)
            ends = {v for e in out.edge_images.values() for v in e}
            for u, bs in out.branch_sets.items():
                assert model.branch_sets[u] <= bs
                for v in bs - model.branch_sets[u] - ends:
                    assert len(host.neighbors(v) & bs) == 2

    @PROPERTY
    @given(st.integers(min_value=0, max_value=2**20), st.data())
    def test_dropping_an_image_path_vertex_is_caught(self, seed, data):
        # every vertex a gadget's reduction absorbs lies on a path that
        # a lifted model needs, so a lift that leaves it out of its
        # branch set must fail verify_embedding
        rng = random.Random(seed)
        name = rng.choice(["K4", "W4"])
        base = {"K4": complete("pqst"), "W4": wheel_graph("h", "pqst")}[name]
        r = rng.choice([2, 3])
        host = gadget(base, rng.choice([1, 2]), r, r - 1, seed)
        pattern = REDUCTION_PATTERNS[name]
        small, merged, masks = reduced(pattern, host)
        model = reference_search(pattern, small,
                                 node_budget=None).embedding
        out = lifted(pattern, host, model, masks)
        assert verify_embedding(pattern, host, out)
        absorbed = sorted(set().union(*merged.values()))
        assert absorbed  # every pattern edge of the gadget runs over a path
        v = data.draw(st.sampled_from(absorbed))
        broken = MinorEmbedding({u: bs - {v} for u, bs in
                                 out.branch_sets.items()},
                                out.edge_images)
        assert not verify_embedding(pattern, host, broken)

    def test_find_expansion_rejects_a_broken_lift(self, monkeypatch):
        monkeypatch.setattr(embed, "_lift", lossy_lift)
        with pytest.raises(RuntimeError):
            find_expansion(complete("wxyz"), subdivided(complete("pqst"), 1))

    def test_scan_rejects_a_broken_lift(self, monkeypatch):
        # every probe of this scan finds a model on a host whose paths
        # were contracted; with the lift broken, none may count
        host = gadget(complete("pqst"), 1, 2, 0, 0)
        rep = check_assembly_robustness(complete("wxyz"), host, 2)
        assert rep.outcome is Outcome.HOLDS and rep.stats["searches"] > 0
        monkeypatch.setattr(embed, "_lift", lossy_lift)
        with pytest.raises(RuntimeError):
            check_assembly_robustness(complete("wxyz"), host, 2)
