"""Expansion search engine, its verifier, and the independent oracle."""

import random
from math import comb, factorial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minorbench import (BudgetExceeded, EmbeddingConstraints, Graph,
                        GraphError, MinorEmbedding, NodeCounter, SearchStatus,
                        connected_components, delete_edges, enumerate_expansions,
                        find_expansion, is_minor, iter_expansion_footprints,
                        naive_is_minor_oracle, partition_components,
                        segment_blowup, verify_embedding)
from minorbench import embed
from minorbench.embed import _lift, _reduce_host, _search
from helpers import (complete, cycle_graph, footprint_cases,
                     inclusion_minimal, oracle_footprints, path_graph,
                     random_connected_graph, random_graph,
                     satisfies_leaf_rule, seeded_host, subdivided,
                     wheel_graph)

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
        # the unreduced search; find_expansion suppresses the whole cycle
        res = _search(complete("wxyz"), cycle_graph("pqrstuvo"),
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
        c = EmbeddingConstraints(must_contain=pins) if pins else None
        for pattern in REDUCTION_PATTERNS.values():
            ref = _search(pattern, host, c, node_budget=UNREDUCED_CAP)
            got = find_expansion(pattern, host, c, node_budget=None)
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
        small, merged = _reduce_host(complete("wxyz"), host, frozenset())
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
        small, merged = _reduce_host(complete("wxyz"), host,
                                     frozenset((pins or {}).values()))
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
        small, merged = _reduce_host(complete("wxyz"), cycle, frozenset("a"))
        assert small.vertices == {"a"}
        assert merged == {"a": set("def")}
        small, merged = _reduce_host(complete("wxyz"), cycle, frozenset("e"))
        assert small.vertices == {"e"}
        assert all("e" not in group for group in merged.values())

    def test_lift_with_an_empty_map_keeps_the_model(self):
        # a pattern of minimum degree 2 only deletes: the K4 keeps its
        # tree, and the search's model is already a model in the host
        host = Graph.build([], list(complete("pqst").edges) +
                           [("t", "u"), ("u", "v"), ("u", "w")])
        small, merged = _reduce_host(complete("xyz"), host, frozenset())
        assert small == complete("pqst") and merged == {}
        model = _search(complete("xyz"), small, node_budget=None).embedding
        assert _lift(model, host, merged) == model

    def test_pinned_vertex_is_kept(self):
        cycle = cycle_graph("pqrstuvo")
        small, _ = _reduce_host(complete("wxyz"), cycle, frozenset("r"))
        assert small.vertices == {"r"}
        res = find_expansion(path_graph("wx"), cycle,
                             EmbeddingConstraints(must_contain={"w": "r"}))
        assert "r" in res.embedding.branch_sets["w"]

    def test_patterns_with_a_leaf_keep_the_host(self):
        host = seeded_host(random.Random(0))
        assert _reduce_host(path_graph("xyz"), host, frozenset())[0] is host

    @pytest.mark.parametrize("name", sorted(REDUCTION_HOSTS))
    def test_lift_keeps_no_hanging_path(self, name):
        # a lifted branch set holds an absorbed vertex only on a path it
        # needs: inside the set, or leading to the vertex's edge image
        host, pins = REDUCTION_HOSTS[name]
        c = EmbeddingConstraints(must_contain=pins) if pins else None
        for pattern in REDUCTION_PATTERNS.values():
            small, merged = _reduce_host(pattern, host,
                                         frozenset((pins or {}).values()))
            model = _search(pattern, small, c, node_budget=None).embedding
            if model is None:
                continue
            lifted = _lift(model, host, merged)
            assert verify_embedding(pattern, host, lifted)
            ends = {v for e in lifted.edge_images.values() for v in e}
            for u, bs in lifted.branch_sets.items():
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
        small, merged = _reduce_host(pattern, host, frozenset())
        model = _search(pattern, small, node_budget=None).embedding
        lifted = _lift(model, host, merged)
        assert verify_embedding(pattern, host, lifted)
        absorbed = sorted(set().union(*merged.values()))
        assert absorbed  # every pattern edge of the gadget runs over a path
        v = data.draw(st.sampled_from(absorbed))
        broken = MinorEmbedding({u: bs - {v} for u, bs in
                                 lifted.branch_sets.items()},
                                lifted.edge_images)
        assert not verify_embedding(pattern, host, broken)

    def test_find_expansion_rejects_a_broken_lift(self, monkeypatch):
        def lossy(m, g, merged):
            out = _lift(m, g, merged)
            drop = set().union(*merged.values())
            return MinorEmbedding({u: bs - drop for u, bs in
                                   out.branch_sets.items()}, out.edge_images)

        monkeypatch.setattr(embed, "_lift", lossy)
        with pytest.raises(RuntimeError):
            find_expansion(complete("wxyz"), subdivided(complete("pqst"), 1))
