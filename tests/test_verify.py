"""Packing, hitting, deletion scans, locality, and report determinism."""

import random
from itertools import combinations
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorbench import (Budget, BudgetExceeded, CoreSpec,
                        EmbeddingConstraints, Graph, GraphError,
                        MinorEmbedding, MinorPredicate, NodeCounter, Outcome,
                        Report, SearchStatus, assemble_block_counterexample,
                        assemble_component_counterexample, canonical_json,
                        check_assembly_robustness, check_branch_count,
                        check_expansion_locality, check_gadget_robustness,
                        check_generic_counterexample,
                        check_hereditary_sampled, connected_components,
                        core_region, delete_edges, find_expansion, graph_json,
                        is_minor, iter_expansion_footprints,
                        max_edge_disjoint_packing, min_edge_hitting_set,
                        naive_is_minor_oracle, segment_blowup,
                        verify_embedding)
from minorbench import verify
from minorbench.verify import _first_meeting, _footprint, _rank
from helpers import (complete, cycle_graph, footprint_cases, graphs_up_to_iso,
                     k5_spec, oracle_footprints, oracle_min_hitting, p3_star,
                     path_graph, random_connected_graph, random_graph,
                     rooted_spec, satisfies_leaf_rule, seeded_host,
                     tailed_square, triangle_with_tail, two_part_host)


class TestReportPlumbing:
    def test_canonical_json_is_sorted_and_terminated(self):
        s = canonical_json({"b": 1, "a": [2, 1]})
        assert s == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'

    def test_graph_json(self):
        g = Graph.build([], [("b", "a")])
        assert graph_json(g) == {"vertices": ["a", "b"], "edges": [["a", "b"]]}

    def test_elapsed_excluded_from_json(self):
        a = Report("x", Outcome.HOLDS, {}, {}, elapsed=0.5)
        b = Report("x", Outcome.HOLDS, {}, {}, elapsed=9.9)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("outcome,code", [
        (Outcome.HOLDS, 0), (Outcome.REFUTED, 1), (Outcome.BUDGET, 2)])
    def test_exit_codes(self, outcome, code):
        assert Report("x", outcome).exit_code == code


class TestPacking:
    def test_triangles_in_k5(self):
        res = max_edge_disjoint_packing(complete("xyz"), complete("12345"))
        assert res.count == 3 and res.exact
        seen = set()
        for fp in res.witness:
            assert not (fp & seen)
            seen |= fp
            host = complete("12345").edge_subgraph(fp)
            assert is_minor(complete("xyz"), host)

    def test_k4_in_k5(self):
        res = max_edge_disjoint_packing(complete("wxyz"), complete("12345"))
        assert res.count == 1 and res.exact

    def test_triangle_in_k4(self):
        res = max_edge_disjoint_packing(complete("xyz"), complete("pqst"))
        assert res.count == 1 and res.exact

    def test_two_disjoint_triangles(self):
        host = Graph.build([], [("a", "b"), ("b", "c"), ("a", "c"),
                                ("p", "q"), ("q", "r"), ("p", "r")])
        res = max_edge_disjoint_packing(complete("xyz"), host)
        assert res.count == 2

    def test_absent_pattern_packs_zero(self):
        res = max_edge_disjoint_packing(complete("xyz"), path_graph("abcd"))
        assert res.count == 0 and res.witness == () and res.exact

    def test_cap_stops_early(self):
        res = max_edge_disjoint_packing(complete("xyz"), complete("12345"),
                                        cap=1)
        assert res.count == 1

    def test_rejects_edgeless_pattern(self):
        with pytest.raises(GraphError):
            max_edge_disjoint_packing(Graph.build("ab", []), complete("xy"))

    def test_budget_marks_inexact(self):
        res = max_edge_disjoint_packing(complete("xyz"), complete("12345"),
                                        node_budget=3)
        assert not res.exact


class TestHitting:
    def test_triangle_in_k4_needs_three(self):
        res = min_edge_hitting_set(complete("xyz"), complete("pqst"))
        assert res.size == 3 and res.exact
        assert len(res.hitting_edges) == 3
        rest = delete_edges(complete("pqst"), res.hitting_edges)
        assert not naive_is_minor_oracle(complete("xyz"), rest)

    def test_triangle_in_k5_needs_six(self):
        res = min_edge_hitting_set(complete("xyz"), complete("12345"))
        assert res.size == 6 and res.exact

    def test_absent_pattern_hit_by_nothing(self):
        res = min_edge_hitting_set(complete("xyz"), path_graph("abcd"))
        assert res.size == 0 and res.hitting_edges == ()

    def test_bound_below_answer(self):
        res = min_edge_hitting_set(complete("xyz"), complete("pqst"), bound=2)
        assert res.size is None and res.exact

    def test_subset_budget_marks_inexact(self):
        res = min_edge_hitting_set(complete("xyz"), complete("12345"),
                                   budget=Budget(subsets=2))
        assert res.size is None and not res.exact

    @pytest.mark.parametrize("subsets, exact", [(7, True), (6, False)])
    def test_subset_budget_boundary_with_bound(self, subsets, exact):
        # bound 1 leaves 1 + 6 subsets, every one keeping a triangle
        res = min_edge_hitting_set(complete("xyz"), complete("pqst"),
                                   bound=1, budget=Budget(subsets=subsets))
        assert res.size is None and res.exact is exact
        assert res.subsets == subsets

    @pytest.mark.parametrize("subsets, exact", [(24, True), (23, False)])
    def test_subset_budget_boundary_at_the_answer(self, subsets, exact):
        # the witness is subset 1 + 6 + 15 + 2 = 24
        res = min_edge_hitting_set(complete("xyz"), complete("pqst"),
                                   budget=Budget(subsets=subsets))
        assert res.exact is exact
        assert res.subsets == subsets
        if exact:
            assert res.size == 3
            assert res.hitting_edges == (("p", "q"), ("p", "s"), ("q", "s"))
        else:
            assert res.size is None and res.hitting_edges is None

    def test_deterministic(self):
        a = min_edge_hitting_set(complete("xyz"), complete("pqst"))
        b = min_edge_hitting_set(complete("xyz"), complete("pqst"))
        assert a == b

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_independent_oracle(self, seed):
        rng = random.Random(seed)
        host = random_graph(rng, 5, rng.uniform(0.3, 0.9))
        pattern = complete("xyz") if seed % 2 else path_graph("xyz")
        res = min_edge_hitting_set(pattern, host)
        assert res.exact
        assert res.size == oracle_min_hitting(pattern, host)

    def test_rejects_edgeless_pattern(self):
        with pytest.raises(GraphError):
            min_edge_hitting_set(Graph.build("ab", []), complete("xy"))


class TestGadgetRobustness:
    def test_tailed_square_r3_exhaustive(self):
        g, ctx = tailed_square()
        rep = check_gadget_robustness(g, ctx, 3)
        assert rep.outcome is Outcome.HOLDS
        assert rep.details["mode"] == "exhaustive"
        assert rep.details["deletion_size"] == 2
        assert rep.details["host_edges"] == 18
        assert rep.stats["subsets_checked"] == 153
        assert rep.stats["subsets_planned"] == 153

    def test_thinned_gadget_refuted_with_reverifiable_witness(self):
        g, ctx = p3_star()
        thinned = Graph.build(["b", "a0", "c0"], [("b", "a0"), ("b", "c0")])
        rep = check_gadget_robustness(g, ctx, 2, gadget=thinned)
        assert rep.outcome is Outcome.REFUTED
        assert rep.exit_code == 1
        assert rep.details["witness_deletion"] == [["a0", "b"]]
        X = [tuple(e) for e in rep.details["witness_deletion"]]
        res = find_expansion(g, delete_edges(thinned, X))
        assert res.status is SearchStatus.NONE

    def test_tailed_square_r6_searches_few_of_many_sets(self):
        g, ctx = tailed_square()
        rep = check_gadget_robustness(g, ctx, 6)
        assert rep.outcome is Outcome.HOLDS
        assert rep.stats["subsets_checked"] == 376992
        assert rep.stats["subsets_planned"] == 376992
        assert rep.stats["searches"] == 56

    @pytest.mark.parametrize("subsets, outcome", [
        (1, Outcome.BUDGET), (50, Outcome.BUDGET), (2023, Outcome.BUDGET),
        (2024, Outcome.HOLDS)])
    def test_subset_budget_boundary(self, subsets, outcome):
        # a verdict rests on the first `subsets` sets only; 2,024 in all
        g, ctx = tailed_square()
        rep = check_gadget_robustness(g, ctx, 4,
                                      budget=Budget(subsets=subsets))
        assert rep.outcome is outcome
        assert rep.details["mode"] == "exhaustive"
        assert "stopped_at" not in rep.details
        assert rep.stats["subsets_checked"] == subsets
        assert rep.stats["subsets_planned"] == 2024

    def test_node_budget_exhaustion(self):
        g, ctx = tailed_square()
        rep = check_gadget_robustness(g, ctx, 2, budget=Budget(nodes=1))
        assert rep.outcome is Outcome.BUDGET
        assert rep.exit_code == 2
        assert "stopped_at" in rep.details

    def test_rejects_bad_parameters(self):
        g, ctx = tailed_square()
        with pytest.raises(GraphError):
            check_gadget_robustness(g, ctx, 0)


class TestAssemblyRobustness:
    def test_component_assembly_survives_single_deletions(self):
        h = two_part_host()
        anchor = connected_components(h)[0]
        hstar = assemble_component_counterexample(h, anchor, k5_spec(), 2)
        rep = check_assembly_robustness(h, hstar, 2)
        assert rep.outcome is Outcome.HOLDS
        assert rep.stats["subsets_checked"] == 12

    def test_rooted_scan_holds_on_block_assembly(self):
        h = triangle_with_tail()
        pred = MinorPredicate("contains-K3", complete("xyz"))
        hstar, trace = assemble_block_counterexample(h, pred, rooted_spec(), 2)
        roots = {"s": "s#1"}
        rep = check_assembly_robustness(h, hstar, 2, roots=roots)
        assert rep.outcome is Outcome.HOLDS
        assert rep.details["roots"] == {"s": "s#1"}
        assert rep.stats["subsets_checked"] == 12

    def test_rooted_scan_refuted_when_pin_is_cut_off(self):
        rep = check_assembly_robustness(path_graph("ab"), path_graph("pqr"),
                                        2, roots={"a": "p"})
        assert rep.outcome is Outcome.REFUTED
        assert rep.details["witness_deletion"] == [["p", "q"]]

    def test_rejects_unknown_root_names(self):
        with pytest.raises(GraphError):
            check_assembly_robustness(path_graph("ab"), path_graph("pq"),
                                      2, roots={"zz": "p"})
        with pytest.raises(GraphError):
            check_assembly_robustness(path_graph("ab"), path_graph("pq"),
                                      2, roots={"a": "zz"})


# -- model reuse against a per-probe oracle -------------------------------------

def per_probe_scan(pattern, host, r, roots=None, budget=Budget()):
    """Outcome, witness or stop set, and sets decided of an exhaustive
    scan, by one find_expansion per deletion set and no reuse."""
    constraints = EmbeddingConstraints(must_contain=roots) if roots else None
    checked = 0
    for X in combinations(host.sorted_edges(), min(r - 1, len(host.edges))):
        checked += 1
        res = find_expansion(pattern, delete_edges(host, X), constraints,
                             node_budget=budget.nodes)
        if res.status is not SearchStatus.FOUND:
            key = ("witness_deletion" if res.status is SearchStatus.NONE
                   else "stopped_at")
            return res.status, {key: [list(e) for e in X]}, checked
    return SearchStatus.FOUND, {}, checked


def lexicographic_loop(pattern, host, sizes, roots=None, node_budget=None):
    """The deletion loop that the hitting-set search replaces: every edge
    set, by size in sizes and then in combinations() order, one footprint
    list for the whole run, and a search only for a set that meets every
    known footprint.  Returns (status, last set, sets decided, searches,
    nodes)."""
    constraints = EmbeddingConstraints(must_contain=roots) if roots else None
    known = []
    checked = searches = nodes = 0
    for s in sizes:
        for X in combinations(host.sorted_edges(), s):
            checked += 1
            if any(fp.isdisjoint(X) for fp in known):
                continue
            g = delete_edges(host, X)
            res = find_expansion(pattern, g, constraints,
                                 node_budget=node_budget)
            searches += 1
            nodes += res.nodes
            if res.status is not SearchStatus.FOUND:
                return res.status, X, checked, searches, nodes
            known.append(_footprint(g, res.embedding))
    return SearchStatus.FOUND, None, checked, searches, nodes


def per_probe_hitting(pattern, host):
    """Size, witness and subsets tested of the smallest hitting set, by
    one find_expansion per subset and no reuse."""
    checked = 0
    for s in range(len(host.edges) + 1):
        for X in combinations(host.sorted_edges(), s):
            checked += 1
            res = find_expansion(pattern, delete_edges(host, X))
            if res.status is SearchStatus.NONE:
                return s, X, checked
    return None, None, checked


def renamed(g, old, new):
    f = {old: new}.get
    return Graph.build([f(v, v) for v in g.vertices],
                       [(f(a, a), f(b, b)) for a, b in g.edges])


def scan_cases():
    """name -> (pattern, host, r, roots, budget, expected outcome)"""
    g, ctx = tailed_square()
    for r in (3, 4):
        yield f"tailed-square-r{r}", (g, segment_blowup(g, ctx, r), r, None,
                                      Budget(), Outcome.HOLDS)
    h = triangle_with_tail()
    pred = MinorPredicate("contains-K3", complete("xyz"))
    hstar, _ = assemble_block_counterexample(h, pred, rooted_spec(), 2)
    for r in (2, 3):
        yield f"rooted-assembly-r{r}", (h, hstar, r, {"s": "s#1"}, Budget(),
                                        Outcome.HOLDS)
    thinned = renamed(segment_blowup(g, ctx, 2), "v", "zv")
    yield "thinned-refuted", (g, thinned, 4, None, Budget(), Outcome.REFUTED)
    yield "node-budget-1", (g, segment_blowup(g, ctx, 2), 2, None,
                            Budget(nodes=1), Outcome.BUDGET)
    yield "node-budget-5", (g, segment_blowup(g, ctx, 3), 3, None,
                            Budget(nodes=5), Outcome.BUDGET)
    # v renamed so that the first refuting set is the 666th in order
    yield "late-refutation", (g, renamed(segment_blowup(g, ctx, 3), "v", "zv"),
                              6, None, Budget(), Outcome.REFUTED)


SCAN_CASES = dict(scan_cases())
OUTCOME_OF = {SearchStatus.FOUND: Outcome.HOLDS,
              SearchStatus.NONE: Outcome.REFUTED,
              SearchStatus.BUDGET: Outcome.BUDGET}


class TestModelReuse:
    @pytest.mark.parametrize("seed", range(30))
    def test_footprint_keeps_the_model(self, seed):
        rng = random.Random(seed)
        host = seeded_host(rng)
        found = 0
        for pattern in (complete("xyz"), cycle_graph("wxyz"),
                        path_graph("wxyz"), tailed_square()[0]):
            res = find_expansion(pattern, host, node_budget=20000)
            if res.status is not SearchStatus.FOUND:
                continue
            found += 1
            fp = _footprint(host, res.embedding)
            assert fp <= host.edges
            assert len(fp) == (len(res.embedding.used_vertices())
                               - len(pattern.vertices) + len(pattern.edges))
            spare = sorted(host.edges - fp)
            for X in [spare] + [rng.sample(spare, rng.randint(0, len(spare)))
                                for _ in range(10)]:
                assert verify_embedding(pattern, delete_edges(host, X),
                                        res.embedding)
        assert found >= 1  # every host has a cycle, so a triangle model

    def test_footprint_spans_each_branch_set(self):
        host = cycle_graph("abcdef")
        emb = MinorEmbedding({"x": frozenset("abc"), "y": frozenset("def")},
                             {("x", "y"): ("c", "d")})
        assert _footprint(host, emb) == {("a", "b"), ("b", "c"),
                                         ("c", "d"), ("d", "e"), ("e", "f")}

    @pytest.mark.parametrize("name", sorted(SCAN_CASES))
    def test_scan_matches_per_probe_oracle(self, name):
        pattern, host, r, roots, budget, expected = SCAN_CASES[name]
        rep = check_assembly_robustness(pattern, host, r, roots=roots,
                                        budget=budget)
        status, witness, checked = per_probe_scan(pattern, host, r, roots,
                                                  budget)
        assert rep.details["mode"] == "exhaustive"
        assert rep.outcome is OUTCOME_OF[status] is expected
        for key in ("witness_deletion", "stopped_at"):
            assert rep.details.get(key) == witness.get(key)
        assert rep.stats["subsets_checked"] == checked
        assert rep.stats["searches"] <= checked

    @pytest.mark.parametrize("name", sorted(SCAN_CASES))
    def test_scan_matches_lexicographic_loop(self, name):
        pattern, host, r, roots, budget, _ = SCAN_CASES[name]
        self.assert_scan_matches(pattern, host, r, roots, budget.nodes)

    @pytest.mark.parametrize("seed", range(12))
    def test_scan_matches_lexicographic_loop_on_seeded_hosts(self, seed):
        rng = random.Random(seed)
        host = seeded_host(rng, chords=(1, 12))
        r = rng.choice([2, 3])
        for pattern in (complete("xyz"), cycle_graph("wxyz")):
            for node_budget in (None, 1, 5, 20):
                self.assert_scan_matches(pattern, host, r, None, node_budget)

    def test_sparse_host_refuted_without_search(self):
        # a tree plus one chord: deleting a cycle edge leaves a forest,
        # which host reduction empties before the search starts
        host = seeded_host(random.Random(11), chords=(1, 12))
        assert len(host.edges) == len(host.vertices) == 24
        t0 = perf_counter()
        rep = check_assembly_robustness(complete("xyz"), host, 2,
                                        budget=Budget(nodes=None))
        assert perf_counter() - t0 < 1.0
        assert rep.outcome is Outcome.REFUTED
        assert rep.stats["nodes"] == 0

    @staticmethod
    def assert_scan_matches(pattern, host, r, roots, node_budget):
        rep = check_assembly_robustness(pattern, host, r, roots=roots,
                                        budget=Budget(nodes=node_budget))
        status, X, checked, searches, nodes = lexicographic_loop(
            pattern, host, [min(r - 1, len(host.edges))], roots, node_budget)
        assert rep.outcome is OUTCOME_OF[status]
        stop = None if X is None else [list(e) for e in X]
        assert rep.details.get("witness_deletion") == (
            stop if status is SearchStatus.NONE else None)
        assert rep.details.get("stopped_at") == (
            stop if status is SearchStatus.BUDGET else None)
        assert (rep.stats["subsets_checked"], rep.stats["searches"],
                rep.stats["nodes"]) == (checked, searches, nodes)

    def test_scan_reuse_counts(self):
        g, ctx = tailed_square()
        searches = [check_gadget_robustness(g, ctx, r).stats["searches"]
                    for r in (3, 4)]
        assert searches == [10, 20]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_hitting_complete_hosts_match_per_probe_oracle(self, n):
        pattern, host = complete("xyz"), complete("123456"[:n])
        res = min_edge_hitting_set(pattern, host)
        assert (res.size, res.hitting_edges, res.subsets) == \
            per_probe_hitting(pattern, host)

    def test_hitting_corpus_sample_matches_per_probe_oracle(self):
        rng = random.Random(7)
        patterns = [h for n in range(1, 5) for h in graphs_up_to_iso(n)
                    if h.edges]
        hosts = [g for n in range(1, 6) for g in graphs_up_to_iso(n)]
        pairs = rng.sample([(h, g) for h in patterns for g in hosts], 120)
        for pattern, host in pairs:
            res = min_edge_hitting_set(pattern, host)
            assert res.exact
            assert (res.size, res.hitting_edges, res.subsets) == \
                per_probe_hitting(pattern, host)

    @pytest.mark.parametrize("name, checked", [("tailed-square-r4", 2024),
                                               ("late-refutation", 666)])
    def test_scan_case_sizes(self, name, checked):
        pattern, host, r, roots, budget, _ = SCAN_CASES[name]
        rep = check_assembly_robustness(pattern, host, r, roots=roots,
                                        budget=budget)
        assert rep.stats["subsets_checked"] == checked

    @pytest.mark.parametrize("n, bound", [(4, None), (5, None), (5, 5),
                                          (6, None)])
    def test_hitting_matches_lexicographic_loop(self, n, bound):
        pattern, host = complete("xyz"), complete("123456"[:n])
        res = min_edge_hitting_set(pattern, host, bound=bound)
        top = len(host.edges) if bound is None else bound
        _, X, checked, _, nodes = lexicographic_loop(
            pattern, host, range(top + 1))
        assert res.exact
        assert res.hitting_edges == X
        assert (res.subsets, res.nodes) == (checked, nodes)


# stops K3 footprint enumeration on seeded host 0 (22 vertices) early
PACK_BUDGET = 20000


class TestSeededHosts:
    """pack and hit on 10-25 vertex hosts, each answer checked again."""

    # footprint enumeration grows exponentially with the host; on these
    # seeds' 10-12 vertex hosts it finishes in well under a second
    @pytest.mark.parametrize("seed", [2, 6, 10, 19])
    def test_pack_witnesses_are_disjoint_models(self, seed):
        host = seeded_host(random.Random(seed), chords=(1, 4))
        pattern = complete("xyz")
        res = max_edge_disjoint_packing(pattern, host, node_budget=None)
        assert res.exact and res.count == len(res.witness) >= 1
        for a, b in combinations(res.witness, 2):
            assert not a & b
        for fp in res.witness:
            sub = host.edge_subgraph(fp)
            got = find_expansion(pattern, sub, node_budget=None)
            assert verify_embedding(pattern, sub, got.embedding)

    def test_pack_keeps_the_copies_found_before_the_budget_ran_out(self):
        host = seeded_host(random.Random(0), chords=(1, 4))
        pattern = complete("xyz")
        listed = []
        with pytest.raises(BudgetExceeded):
            for _, usage in iter_expansion_footprints(
                    pattern, host, NodeCounter(cap=PACK_BUDGET)):
                listed.append(usage)
        assert listed  # the budget stops enumeration after a footprint
        res = max_edge_disjoint_packing(pattern, host,
                                        node_budget=PACK_BUDGET)
        assert not res.exact and res.count == len(res.witness) >= 1
        assert res.nodes > PACK_BUDGET
        for a, b in combinations(res.witness, 2):
            assert not a & b
        for fp in res.witness:
            sub = host.edge_subgraph(fp)
            got = find_expansion(pattern, sub, node_budget=None)
            assert verify_embedding(pattern, sub, got.embedding)

    @pytest.mark.parametrize("seed", range(12))
    def test_deleting_a_hit_witness_leaves_no_model(self, seed):
        host = seeded_host(random.Random(seed), chords=(1, 6))
        for pattern in (complete("xyz"), cycle_graph("wxyz")):
            res = min_edge_hitting_set(pattern, host,
                                       budget=Budget(nodes=None))
            assert res.exact and res.size == len(res.hitting_edges)
            if res.size:
                assert is_minor(pattern, host, force=True)
            rest = delete_edges(host, res.hitting_edges)
            assert find_expansion(pattern, rest, node_budget=None).status \
                is SearchStatus.NONE


class TestFirstMeeting:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10).flatmap(lambda m: st.tuples(
        st.just(m), st.integers(0, m),
        st.lists(st.integers(0, 2**m - 1), max_size=6), st.randoms())))
    def test_matches_brute_force(self, args):
        m, s, known, rng = args
        sets = list(combinations(range(m), s))
        after = rng.choice([None] + sets)
        later = sets if after is None else sets[sets.index(after) + 1:]
        expected = next((X for X in later
                         if all(any(fp >> i & 1 for i in X) for fp in known)),
                        None)
        assert _first_meeting(m, s, known, after) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, m))))
    def test_rank_is_the_position_in_combinations(self, args):
        m, s = args
        for pos, X in enumerate(combinations(range(m), s), start=1):
            assert _rank(X, m) == pos


class TestGenericCounterexample:
    def test_k4_against_k5_core_holds(self):
        rep = check_generic_counterexample(complete("pqst"), k5_spec())
        assert rep.outcome is Outcome.HOLDS
        assert rep.details["packing_found"] == 1
        assert rep.details["packing_bound"] == 4
        assert rep.stats["subsets_checked"] == 10

    def test_refuted_when_packing_reaches_bound(self):
        spec = CoreSpec(complete("12345"), {}, k=3, r=2)
        rep = check_generic_counterexample(complete("xyz"), spec)
        assert rep.outcome is Outcome.REFUTED
        assert rep.details["packing_found"] == 3
        assert len(rep.details["packing_witness"]) == 3

    def test_budget_when_packing_inexact(self):
        spec = CoreSpec(complete("12345"), {}, k=4, r=2)
        rep = check_generic_counterexample(complete("pqst"), spec,
                                           budget=Budget(nodes=2))
        assert rep.outcome is Outcome.BUDGET

    def test_inexact_packing_refutes_only_at_the_bound(self):
        core = seeded_host(random.Random(0), chords=(1, 4))
        budget = Budget(nodes=PACK_BUDGET)
        pack = max_edge_disjoint_packing(complete("xyz"), core,
                                         node_budget=PACK_BUDGET)
        assert not pack.exact and pack.count >= 1
        short = check_generic_counterexample(
            complete("xyz"), CoreSpec(core, {}, k=pack.count + 1, r=2),
            budget)
        assert short.outcome is Outcome.BUDGET
        assert short.details["packing_found"] == pack.count
        assert short.stats["searches"] == 0
        reached = check_generic_counterexample(
            complete("xyz"), CoreSpec(core, {}, k=pack.count, r=2), budget)
        assert reached.outcome is Outcome.REFUTED
        assert reached.details["packing_witness"] == [
            [[u, v] for u, v in sorted(fp)] for fp in pack.witness]

    def test_every_outcome_reports_the_scan_stats(self):
        keys = {"nodes", "searches", "subsets_checked", "subsets_planned"}
        scanned = check_generic_counterexample(complete("pqst"), k5_spec())
        packed = check_generic_counterexample(
            complete("xyz"), CoreSpec(complete("12345"), {}, k=3, r=2))
        short = check_generic_counterexample(
            complete("pqst"), CoreSpec(complete("12345"), {}, k=4, r=2),
            budget=Budget(nodes=2))
        for rep in (scanned, packed, short):
            assert set(rep.stats) == keys
        assert packed.stats["searches"] == short.stats["searches"] == 0

    def test_rejects_roots_outside_anchor(self):
        spec = CoreSpec(complete("12345"), {"zz": "1"}, k=4, r=2)
        with pytest.raises(GraphError):
            check_generic_counterexample(complete("pqst"), spec)


def use_product_oracle(monkeypatch):
    """Make the checks in verify read helpers.product_footprints."""
    monkeypatch.setattr(verify, "iter_expansion_footprints",
                        lambda h, g, counter: iter(oracle_footprints(h, g)))


def component_locality_case():
    """(pattern, host, anchor, region): the two-part host's component
    assembly with the K5 core."""
    h = two_part_host()
    anchor = connected_components(h)[0]
    hstar = assemble_component_counterexample(h, anchor, k5_spec(), 2)
    return h, hstar, anchor, core_region(hstar)


def block_locality_case():
    """(pattern, host, anchor, region): the triangle-with-tail block
    assembly, whose leaf-rule footprints keep the anchor in the core."""
    h = triangle_with_tail()
    pred = MinorPredicate("contains-K3", complete("xyz"))
    hstar, _ = assemble_block_counterexample(h, pred, rooted_spec(), 2)
    return h, hstar, h.induced("bcs"), core_region(hstar)


def restricted_locality_case():
    """A K4 and a triangle sharing vertex t, in a copy of itself whose
    region is the K4: the anchor triangle lies outside it, but the
    region's part of the footprint holds a triangle."""
    h = Graph.build([], list(complete("pqst").edges)
                    + [("t", "x"), ("t", "y"), ("x", "y")])
    hstar = Graph.build([], list(complete("1234").edges)
                        + [("4", "5"), ("4", "6"), ("5", "6")])
    return h, hstar, h.induced("txy"), frozenset("1234")


def refuted_locality_case():
    """A region holding only the other component of the pattern."""
    h = two_part_host()
    bad = Graph.build([], [("e1", "e2"), ("e1", "e3"), ("e1", "e4"),
                           ("e2", "e3"), ("e2", "e4"), ("e3", "e4"),
                           ("f1", "f2")])
    return h, bad, connected_components(h)[0], frozenset(["f1", "f2"])


class TestExpansionLocality:
    def test_component_assembly_fast_path(self):
        h, hstar, anchor, region = component_locality_case()
        rep = check_expansion_locality(h, hstar, anchor, region)
        assert rep.outcome is Outcome.HOLDS
        oracle = oracle_footprints(h, hstar)
        assert len(oracle) == 110
        kept = {usage for emb, usage in oracle
                if satisfies_leaf_rule(emb, usage)}
        assert rep.stats["footprints"] == len(kept) == 70
        assert rep.stats["restricted_searches"] == 0

    def test_block_assembly_fast_path(self, monkeypatch):
        case = block_locality_case()
        rep = check_expansion_locality(*case)
        assert rep.outcome is Outcome.HOLDS
        assert rep.stats["restricted_searches"] == 0
        # only footprints with a leaf off every edge image leave the core
        use_product_oracle(monkeypatch)
        full = check_expansion_locality(*case)
        assert full.outcome is Outcome.HOLDS
        assert full.stats["restricted_searches"] == 288

    def test_restricted_search_when_the_anchor_leaves_the_region(self):
        h, hstar, anchor, region = restricted_locality_case()
        rep = check_expansion_locality(h, hstar, anchor, region)
        assert rep.outcome is Outcome.HOLDS
        assert rep.stats["footprints"] == rep.stats["restricted_searches"] == 1

    def test_refuted_when_region_misses_the_anchor(self):
        h, bad, anchor, region = refuted_locality_case()
        rep = check_expansion_locality(h, bad, anchor, region)
        assert rep.outcome is Outcome.REFUTED
        emb = MinorEmbedding.from_json_obj(rep.details["witness_embedding"])
        assert verify_embedding(h, bad, emb)
        assert rep.details["witness_footprint"]

    def test_budget_outcome(self):
        rep = check_expansion_locality(*component_locality_case(),
                                       budget=Budget(nodes=2))
        assert rep.outcome is Outcome.BUDGET

    def test_rejects_bad_anchor_and_region(self):
        h = complete("ab")
        with pytest.raises(GraphError):
            check_expansion_locality(h, complete("pq"), complete("xy"),
                                     ["p"])
        with pytest.raises(GraphError):
            check_expansion_locality(h, complete("pq"), h, ["zz"])


FOOTPRINT_CASES = footprint_cases()
LOCALITY_CASES = {"component": component_locality_case,
                  "block": block_locality_case,
                  "restricted": restricted_locality_case,
                  "refuted": refuted_locality_case}


class TestAgainstProductOracle:
    """pack and locality over the leaf-rule footprints against the same
    checks over the full product, helpers.product_footprints."""

    @pytest.mark.parametrize("name", sorted(FOOTPRINT_CASES))
    def test_packing_count_and_witness(self, name, monkeypatch):
        h, g = FOOTPRINT_CASES[name]
        got = max_edge_disjoint_packing(h, g, node_budget=None)
        use_product_oracle(monkeypatch)
        want = max_edge_disjoint_packing(h, g, node_budget=None)
        assert got.exact and want.exact
        assert (got.count, got.witness) == (want.count, want.witness)

    @pytest.mark.parametrize("name", sorted(LOCALITY_CASES))
    def test_locality_verdict(self, name, monkeypatch):
        case = LOCALITY_CASES[name]()
        got = check_expansion_locality(*case)
        use_product_oracle(monkeypatch)
        want = check_expansion_locality(*case)
        assert got.outcome is want.outcome is not Outcome.BUDGET


class TestBranchCount:
    def test_tailed_square(self):
        g, ctx = tailed_square()
        rep = check_branch_count(g, ctx, 3)
        assert rep.outcome is Outcome.HOLDS
        assert rep.details["expected"] == ["v", "w"]
        assert rep.details["count"] == 2
        assert rep.details["blowup_vertices"] == 14
        assert rep.details["blowup_edges"] == 18

    def test_rejects_small_replication(self):
        g, ctx = tailed_square()
        with pytest.raises(GraphError):
            check_branch_count(g, ctx, 2)

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_instances(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 7), extra=3)
        extra = [(v, f"x{i}") for i, v in enumerate(g.sorted_vertices())
                 if rng.random() < 0.5]
        ctx = Graph.build([], list(g.edges) + extra) if extra else g
        if not any(ctx.degree(v) >= 3 for v in g.vertices):
            return
        rep = check_branch_count(g, ctx, rng.choice([3, 4]))
        assert rep.outcome is Outcome.HOLDS


class TestHereditary:
    def test_holds_on_small_corpus(self):
        pred = MinorPredicate("contains-K3", complete("xyz"))
        rep = check_hereditary_sampled(pred, list(graphs_up_to_iso(4)),
                                       trials=60, steps=4, seed=5)
        assert rep.outcome is Outcome.HOLDS
        assert rep.stats["checked"] + rep.stats["skipped"] == 60

    def test_seed_deterministic(self):
        pred = MinorPredicate("contains-K3", complete("xyz"))
        corpus = list(graphs_up_to_iso(4))
        a = check_hereditary_sampled(pred, corpus, trials=30, seed=9)
        b = check_hereditary_sampled(pred, corpus, trials=30, seed=9)
        assert a.to_json() == b.to_json()

    def test_rejects_empty_corpus(self):
        pred = MinorPredicate("contains-K3", complete("xyz"))
        with pytest.raises(GraphError):
            check_hereditary_sampled(pred, [])
