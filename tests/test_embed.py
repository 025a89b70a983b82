"""Expansion search engine, its verifier, and the independent oracle."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minorbench import (BudgetExceeded, EmbeddingConstraints, Graph,
                        GraphError, MinorEmbedding, NodeCounter, SearchStatus,
                        connected_components, delete_edges, enumerate_expansions,
                        find_expansion, is_minor, iter_expansion_footprints,
                        naive_is_minor_oracle, partition_components,
                        verify_embedding)
from helpers import complete, cycle_graph, path_graph, random_graph

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
        c.spend(10**6)
        assert c.nodes == 10**6


class TestMinorEmbedding:
    def test_used_vertices(self):
        m = MinorEmbedding({"a": frozenset("pq"), "b": frozenset("r")},
                           {("a", "b"): ("q", "r")})
        assert m.used_vertices() == {"p", "q", "r"}

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
        res = find_expansion(complete("wxyz"), cycle_graph("pqrstuvo"),
                             node_budget=5)
        assert res.status is SearchStatus.BUDGET
        assert res.embedding is None
        assert res.nodes == 6

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
        res = find_expansion(h, g, EmbeddingConstraints(must_contain={"x": "p"}))
        assert res.status is SearchStatus.FOUND
        assert "p" in res.embedding.branch_sets["x"]

    def test_rejects_unknown_names(self):
        h, g = complete("xy"), complete("pq")
        with pytest.raises(GraphError):
            find_expansion(h, g, EmbeddingConstraints(must_contain={"zz": "p"}))
        with pytest.raises(GraphError):
            find_expansion(h, g, EmbeddingConstraints(must_contain={"x": "zz"}))


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


class TestEnumerate:
    def test_single_edge_in_triangle_model_count(self):
        models = list(enumerate_expansions(path_graph("ab"), complete("xyz")))
        assert len(models) == 12
        assert len(set(map(repr, (m.to_json_obj() for m in models)))) == 12
        for m in models:
            assert verify_embedding(path_graph("ab"), complete("xyz"), m)

    def test_order_is_deterministic(self):
        runs = [list(enumerate_expansions(complete("xyz"), complete("pqst")))
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_counter_tracks_nodes(self):
        c = NodeCounter(cap=None)
        list(enumerate_expansions(complete("xyz"), complete("pqst"), None, c))
        assert c.nodes > 0


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

    def test_exact_guard_and_force(self):
        big = path_graph([f"v{i}" for i in range(13)])
        with pytest.raises(GraphError):
            is_minor(complete("ab"), big)
        assert is_minor(complete("ab"), big, force=True)


class TestPartitionComponents:
    def test_split_by_anchor_minor(self):
        h = Graph.build([], [("a", "b"), ("b", "c"), ("a", "c"),
                             ("p", "q"), ("p", "r"), ("p", "s"),
                             ("q", "r"), ("q", "s"), ("r", "s"),
                             ("x", "y")])
        comps = connected_components(h)
        anchor = next(c for c in comps if c.vertices == frozenset("abc"))
        lacking, containing = partition_components(h, anchor)
        assert [sorted(c.vertices) for c in lacking] == [["x", "y"]]
        assert [sorted(c.vertices) for c in containing] == [["p", "q", "r", "s"]]

    def test_anchor_must_be_a_component(self):
        h = complete("abc")
        with pytest.raises(GraphError):
            partition_components(h, complete("ab"))

    def test_sole_component_yields_nothing(self):
        h = complete("abc")
        lacking, containing = partition_components(h, h)
        assert lacking == [] and containing == []


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
            assert is_minor(h, restricted, force=True)

    def test_budget_propagates(self):
        h, g = complete("xyz"), complete("pqst")
        with pytest.raises(BudgetExceeded):
            list(iter_expansion_footprints(h, g, NodeCounter(cap=3)))
