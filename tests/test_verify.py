"""Packing, hitting, deletion scans, locality, and report determinism."""

import enum
import json
import math
import random
from itertools import combinations
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorbench import (Budget, BudgetExceeded, CoreSpec, Graph, GraphError,
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
                        parse_graph, relabeled_union, segment_blowup,
                        verify_embedding)
from minorbench import embed, verify
from minorbench.embed import _unlabelled
from minorbench.verify import _footprint, _hitting_sets, _rank
from helpers import (SAMPLES, complete, cycle_graph, edge_labels,
                     footprint_cases, graphs_up_to_iso, k5_spec,
                     labelled_adjacency, naive_is_minor_oracle,
                     oracle_footprints, oracle_min_hitting, oracle_packing,
                     p3_star, path_graph, random_connected_graph,
                     random_graph, reference_canonical_json,
                     reference_first_without_model, reference_hitting_floor,
                     reference_greedy_packing, reference_locality,
                     reference_packing, rooted_spec,
                     satisfies_leaf_rule, seeded_host, tailed_square,
                     triangle_with_tail, two_part_host, wheel_graph)


def label_footprint(g, emb):
    """_footprint of a label model in g, as g's edges."""
    h = Graph.build(emb.branch_sets, emb.edge_images)
    return edge_labels(g, _footprint(g.index, g.index.nbr,
                                     _unlabelled(h, g.index, emb)))


class TestReportPlumbing:
    def test_canonical_json_is_sorted_and_terminated(self):
        s = canonical_json({"b": 1, "a": [2, 1]})
        assert s == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'

    def test_graph_json(self):
        g = Graph.build([], [("b", "a")])
        assert graph_json(g) == {"vertices": ["a", "b"], "edges": [["a", "b"]]}

    @pytest.mark.parametrize("outcome,code", [
        (Outcome.HOLDS, 0), (Outcome.REFUTED, 1), (Outcome.BUDGET, 2)])
    def test_exit_codes(self, outcome, code):
        assert Report("x", outcome).exit_code == code

    def test_default_details_and_stats_are_no_shared_dict(self):
        a, b = Report("x", Outcome.HOLDS), Report("y", Outcome.REFUTED)
        for mapping in (a.details, a.stats, b.details, b.stats):
            with pytest.raises(TypeError):
                mapping["k"] = 1
        assert a.to_json_obj() == {"check": "x", "outcome": "holds",
                                   "details": {}, "stats": {}}


class Text(str):
    """A str subclass, which the encoder writes as its characters."""

    def __repr__(self):
        return f"Text({str.__repr__(self)})"


class Level(enum.IntEnum):
    LOW = 3


class Ratio(float):
    """A float subclass, which the encoder writes as its value."""

    def __repr__(self):
        return "Ratio()"


# quotes, backslashes, control characters and non-ASCII, among any others
TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t é\u2028\U0001f600')
               | st.characters())
STRINGS = TEXT | TEXT.map(Text)
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | STRINGS)


def json_values(keys=STRINGS):
    return st.recursive(
        SCALARS,
        lambda kids: (st.lists(kids, max_size=5)
                      | st.lists(STRINGS, max_size=5)
                      | st.tuples(kids, kids)
                      | st.dictionaries(keys, kids, max_size=5)),
        max_leaves=25)


# int, float and bool keys sort together; None sorts only alone
OTHER_KEYS = st.integers() | st.floats() | st.booleans()


def json_goldens() -> list[Path]:
    """The files under tests/golden/ that hold one JSON value."""
    found = []
    for path in sorted((Path(__file__).parent / "golden").iterdir()):
        try:
            json.loads(path.read_bytes())
        except ValueError:
            continue
        found.append(path)
    return found


class TestCanonicalJson:
    """canonical_json writes what reference_canonical_json writes."""

    @settings(max_examples=200, deadline=None)
    @given(json_values())
    def test_matches_reference(self, obj):
        assert canonical_json(obj) == reference_canonical_json(obj)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(OTHER_KEYS, json_values(OTHER_KEYS), max_size=5)
           | st.dictionaries(st.none(), json_values(), max_size=1))
    def test_matches_reference_with_other_keys(self, obj):
        assert canonical_json(obj) == reference_canonical_json(obj)

    @pytest.mark.parametrize("obj", [
        [], {}, (), [[], {}], {"a": []}, "", Text(""), [Text("x"), 1],
        ["a", ["b"], "c"], float("nan"), [float("inf"), -float("inf")],
        {float("nan"): 0, 2: 1, True: 3, 0.5: 4}, {None: [1]}, -0.0, 10**40,
        {Level.LOW: Level.LOW, 7: [Ratio(0.5)]}, {Ratio(1.5): Ratio(2.0)},
    ], ids=repr)
    def test_edge_cases(self, obj):
        assert canonical_json(obj) == reference_canonical_json(obj)

    @pytest.mark.parametrize("obj", [
        {(1, 2): 0}, {1: 0, "a": 1}, {"a": {1, 2}}, [object()]],
        ids=["tuple-key", "mixed-keys", "set-value", "object-item"])
    def test_refuses_what_the_reference_refuses(self, obj):
        with pytest.raises(TypeError) as ref:
            reference_canonical_json(obj)
        with pytest.raises(TypeError) as got:
            canonical_json(obj)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("path", json_goldens(), ids=lambda p: p.name)
    def test_golden_round_trips(self, path):
        text = path.read_bytes()
        assert canonical_json(json.loads(text)).encode("utf-8") == text


def packing_cases():
    """name -> (pattern, host): K3, C4 and K4 in K4-K6, and K3 in two
    seeded hosts of 12 and 11 vertices that pack two triangles."""
    patterns = {"K3": complete("xyz"), "C4": cycle_graph("wxyz"),
                "K4": complete("wxyz")}
    for name, pattern in patterns.items():
        for n in (4, 5, 6):
            yield f"{name}-K{n}", (pattern, complete("123456"[:n]))
    for seed in (6, 19):
        yield f"K3-seeded-{seed}", (
            patterns["K3"], seeded_host(random.Random(seed), chords=(1, 4)))


PACKING_CASES = dict(packing_cases())


def packing_reference_cases():
    """name -> (pattern, host, cap, node budget): the footprint cases,
    K3 and C4 in seeded 10-12 vertex hosts, and K3 in K6 stopped by the
    cap and by the node budget in the middle of the search."""
    for name, (pattern, host) in footprint_cases().items():
        yield name, (pattern, host, None, None)
    for seed in range(4):
        rng = random.Random(seed)
        host = random_connected_graph(rng, rng.randint(10, 12),
                                      rng.randint(4, 9))
        for pname, pattern in (("K3", complete("xyz")),
                               ("C4", cycle_graph("wxyz"))):
            yield f"{pname}-seeded-{seed}", (pattern, host, None, None)
    yield "K3-K6-cap", (complete("xyz"), complete("123456"), 1, None)
    yield "K3-K6-budget", (complete("xyz"), complete("123456"), None, 140)


PACKING_REFERENCE_CASES = dict(packing_reference_cases())


def canonical_witness(pattern, host, cap, count, first):
    """The witness of an exact packing of count copies: the greedy
    models where as many are found, else first, the first
    count-combination in (size, edges) order."""
    greedy = reference_greedy_packing(pattern, host, cap)
    return greedy if len(greedy) == count else first


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

    @pytest.mark.parametrize("name", sorted(PACKING_REFERENCE_CASES))
    def test_mask_search_matches_reference(self, name):
        """Where the reference is exact, the packing gives its count and
        the canonical witness; node counts differ, as bounds and bands
        list fewer footprints.  Under a budget both stop, at different
        places."""
        pattern, host, cap, budget = PACKING_REFERENCE_CASES[name]
        got = max_edge_disjoint_packing(pattern, host, cap, budget)
        want = reference_packing(pattern, host, cap, budget)
        if want.exact:
            assert (got.count, got.witness, got.exact) == (
                want.count,
                canonical_witness(pattern, host, cap, want.count,
                                  want.witness), True)
            return
        assert name == "K3-K6-budget"
        assert not got.exact and got.count <= 4
        assert got.count == len(got.witness)
        for a, b in combinations(got.witness, 2):
            assert not a & b
        for fp in got.witness:
            assert is_minor(pattern, host.edge_subgraph(fp))

    @pytest.mark.parametrize("name", sorted(PACKING_CASES))
    def test_count_and_witness_match_brute_force(self, name):
        pattern, host = PACKING_CASES[name]
        listed = [usage for _, usage in iter_expansion_footprints(
            pattern, host, NodeCounter(cap=None))]
        res = max_edge_disjoint_packing(pattern, host, node_budget=None)
        assert res.exact
        count, witness = oracle_packing(listed)
        assert (res.count, res.witness) == (
            count, canonical_witness(pattern, host, None, count, witness))


BANDED_CASES = {
    **{f"{name}-seeded-{seed}": (pattern, seeded_host(random.Random(seed),
                                                      chords=(1, 4)))
       for seed in (1, 2, 4, 6)
       for name, pattern in (("K3", complete("xyz")),
                             ("C4", cycle_graph("wxyz")),
                             ("K4", complete("wxyz")))},
    "K3-K7": (complete("xyz"), complete("1234567")),
    "K4-K6": (complete("wxyz"), complete("123456")),
}


class TestBands:
    """Packing over footprints listed one size band at a time against
    helpers.reference_packing, which lists them all first."""

    @pytest.mark.parametrize("name", sorted(BANDED_CASES))
    def test_matches_reference(self, name):
        pattern, host = BANDED_CASES[name]
        got = max_edge_disjoint_packing(pattern, host, node_budget=None)
        want = reference_packing(pattern, host, node_budget=None)
        assert (got.count, got.witness, got.exact) == (
            want.count,
            canonical_witness(pattern, host, None, want.count, want.witness),
            True)

    def test_fano_plane_lists_only_triangles(self):
        # seven triangles fill K7's 21 edges, so no longer cycle is listed
        res = max_edge_disjoint_packing(complete("xyz"), complete("1234567"))
        assert res.count == 7 and res.exact
        assert res.nodes < 200


def reference_packing_counts(pattern, host):
    """The largest count each of _packing_bound's three counts allows
    alone, from degrees read off labelled_adjacency."""
    degs = [len(ns) for ns in labelled_adjacency(pattern).values()]
    host_degs = [len(ns) for ns in labelled_adjacency(host).values()]
    p3 = sum(d >= 3 for d in degs)
    exc = sum(max(0, d - 2) for d in degs)
    hubs = [d for d in host_degs if d >= 3]
    fits = [nu for nu in range(len(host.edges) + 1)
            if exc * nu <= sum(d - 2 for d in hubs)
            - 2 * max(0, p3 * nu - len(hubs))]
    return {"e": len(host.edges) // len(pattern.edges),
            "h": sum(d // 3 for d in host_degs) // p3 if p3 else math.inf,
            "x": max(fits)}


def two_core(g):
    """g less its vertices of degree below 2, repeatedly.  A minimal
    footprint of a pattern whose degrees are all 2 or more has no vertex
    of degree below 2, so it lies in the 2-core, and the packing count
    is the same."""
    while True:
        adj = labelled_adjacency(g)
        low = {v for v, ns in adj.items() if len(ns) < 2}
        if not low:
            return g
        g = g.induced(g.vertices - low)


BOUND_PATTERNS = {
    "K3": complete("xyz"), "C4": cycle_graph("wxyz"), "K4": complete("wxyz"),
    "W4": wheel_graph("h", "abcd"),
    "K4+K3": Graph.build([], list(complete("wxyz").edges)
                         + list(complete("abc").edges))}


class TestPackingBounds:
    """The upper bound from degree counts and the greedy lower bound."""

    @pytest.mark.parametrize("pattern,host,tight,want", [
        (complete("xyz"), complete("1234567"), "e", 7),
        (complete("wxyz"), complete("123456"), "h", 1),
        (complete("abcde"),
         segment_blowup(complete("abcde"), complete("abcde"), 3), "x", 3)],
        ids=["edges-K3-K7", "hubs-K4-K6", "excess-K5-gadget-r3"])
    def test_one_count_alone_is_tight(self, pattern, host, tight, want):
        counts = reference_packing_counts(pattern, host)
        assert counts[tight] == want
        assert all(v > want for k, v in counts.items() if k != tight)
        assert verify._packing_bound(pattern, host.index) == want
        res = max_edge_disjoint_packing(pattern, host, node_budget=None)
        assert (res.count, res.exact) == (want, True)

    @pytest.mark.parametrize("seed", range(60))
    def test_greedy_and_bound_hold_the_count(self, seed):
        """On a seeded 10-25 vertex host: greedy <= nu <= upper, with nu
        from reference_packing on the host's 2-core where it finishes,
        and the greedy models pairwise edge-disjoint models."""
        host = seeded_host(random.Random(seed), chords=(1, 4))
        core = two_core(host)
        ix = host.index
        for pattern in BOUND_PATTERNS.values():
            greedy, _, _, _ = verify._disjoint_models(
                pattern, ix, {}, len(ix.edges), lambda *_: None)
            copies = [edge_labels(host, fp) for fp in greedy]
            for a, b in combinations(copies, 2):
                assert not a & b
            for fp in copies:
                sub = host.edge_subgraph(fp)
                emb = find_expansion(pattern, sub, node_budget=None).embedding
                assert verify_embedding(pattern, sub, emb)
            want = reference_packing(pattern, core, node_budget=20000)
            if want.exact:
                assert (len(greedy) <= want.count
                        <= verify._packing_bound(pattern, ix))


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

    def test_search_budget_marks_inexact(self):
        res = min_edge_hitting_set(complete("xyz"), complete("12345"),
                                   budget=Budget(searches=2))
        assert res.size is None and not res.exact
        assert res.searches == 2

    @pytest.mark.parametrize("searches, exact",
                             [(4, True), (3, False), (2, False)])
    def test_search_budget_boundary_with_bound(self, searches, exact):
        # C4 in K4: the floor is 1 and tau 2.  Bound 1 leaves 1 + 6
        # subsets, every one keeping a 4-cycle; the floor decides size 0
        # with no search, the seed finds one 4-cycle in 2 searches (K4
        # less a 4-cycle is a matching), and the tree needs 2 more, of
        # pq and pt, to show that no edge meets all three 4-cycles
        res = min_edge_hitting_set(cycle_graph("wxyz"), complete("pqst"),
                                   bound=1, budget=Budget(searches=searches))
        assert res.size is None and res.exact is exact
        assert res.searches == searches
        assert (res.subsets == 7) is exact

    @pytest.mark.parametrize("searches, exact", [(3, True), (2, False)])
    def test_search_budget_boundary_at_the_answer(self, searches, exact):
        # K3 in K4: the floor is 3 = tau, so sizes 0-2 are decided with
        # no search.  The witness is subset 1 + 6 + 15 + 2 = 24, the
        # first triangle the seed found; its second search found no
        # model without it, so the tree reads that answer after one
        # search of subset 23, and the run makes 3 searches
        res = min_edge_hitting_set(complete("xyz"), complete("pqst"),
                                   budget=Budget(searches=searches))
        assert res.exact is exact
        assert res.searches == searches
        if exact:
            assert res.size == 3 and res.subsets == 24
            assert res.hitting_edges == (("p", "q"), ("p", "s"), ("q", "s"))
            assert res.stopped_at is None
        else:
            # the stop is the first set of size 3 the tree yields,
            # subset 1 + 6 + 15 + 1, left without a search
            assert res.size is None and res.hitting_edges is None
            assert res.subsets == 23
            assert res.stopped_at == (("p", "q"), ("p", "s"), ("p", "t"))

    @pytest.mark.parametrize("searches", range(1, 19))
    def test_search_budget_names_the_stop(self, searches):
        # subsets counts the sets by size, then in label order, up to
        # and including the stop.  C4 in K5 has floor 3 and tau 4, and
        # takes 19 searches, so each of these budgets stops in the tree,
        # at size 3 or 4
        host = complete("12345")
        res = min_edge_hitting_set(cycle_graph("wxyz"), host,
                                   budget=Budget(searches=searches))
        assert not res.exact and res.hitting_edges is None
        assert len(res.stopped_at) in (3, 4)
        sets = [X for s in range(len(host.edges) + 1)
                for X in combinations(host.sorted_edges(), s)]
        assert sets.index(res.stopped_at) + 1 == res.subsets

    @pytest.mark.parametrize("pattern, host", [
        (complete("xyz"), complete("123456")),
        (complete("wxyz"), complete("1234567"))], ids=["K3-K6", "K4-K7"])
    def test_every_search_budget_below_the_count_stops(self, pattern, host):
        # a budget of fewer searches than the run makes ends it
        # budget-exhausted, with subsets the rank of the stop, by size and
        # then label order, and the stop no later than the witness; a
        # budget of exactly as many gives the same exact answer
        full = min_edge_hitting_set(pattern, host)
        assert full.exact and full.searches <= 10
        m = len(host.edges)
        index = {e: i for i, e in enumerate(host.sorted_edges())}

        def rank(X):
            return (sum(math.comb(m, s) for s in range(len(X)))
                    + _rank(tuple(index[e] for e in X), m))

        assert rank(full.hitting_edges) == full.subsets
        for searches in range(full.searches):
            res = min_edge_hitting_set(pattern, host,
                                       budget=Budget(searches=searches))
            assert (res.size, res.hitting_edges, res.exact) == \
                (None, None, False)
            assert res.searches == searches
            assert res.subsets == rank(res.stopped_at) <= full.subsets
        assert min_edge_hitting_set(
            pattern, host, budget=Budget(searches=full.searches)) == full

    def test_seed_search_stopped_at_its_cap_is_searched_again(self,
                                                               monkeypatch):
        # W6 is planar, so it holds no K5 model.  The seed's search of it
        # with nothing deleted runs out of its 64-node cap, and the empty
        # set, which size 0's tree yields, is searched once more under the
        # full node budget: the one set a run may search twice
        calls = []
        real = verify._probe

        def probe(pattern, ix, deleted, pins, node_budget):
            got = real(pattern, ix, deleted, pins, node_budget)
            calls.append((deleted, node_budget, got[0], got[2]))
            return got

        monkeypatch.setattr(verify, "_probe", probe)
        res = min_edge_hitting_set(complete("vwxyz"),
                                   wheel_graph("h", "abcdef"))
        assert (res.size, res.hitting_edges, res.exact) == (0, (), True)
        assert calls == [(0, 64, SearchStatus.BUDGET, 65),
                         (0, Budget().nodes, SearchStatus.NONE, 172)]
        assert (res.searches, res.nodes, res.subsets) == (2, 65 + 172, 1)

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
        g, _ = p3_star()
        thinned = Graph.build(["b", "a0", "c0"], [("b", "a0"), ("b", "c0")])
        rep = check_assembly_robustness(g, thinned, 2)
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
        assert rep.stats["searches"] == 23

    @pytest.mark.parametrize("searches, outcome", [
        (1, Outcome.BUDGET), (5, Outcome.BUDGET), (9, Outcome.BUDGET),
        (10, Outcome.HOLDS), (20, Outcome.HOLDS)])
    def test_search_budget_boundary(self, searches, outcome):
        # the seed falls short of 4 disjoint models and the scan needs
        # 10 searches; with fewer it names where it stops
        g, ctx = tailed_square()
        host = segment_blowup(g, ctx, 4)
        rep = check_gadget_robustness(g, ctx, 4,
                                      budget=Budget(searches=searches))
        assert rep.outcome is outcome
        assert rep.details["mode"] == "exhaustive"
        assert rep.stats["searches"] == min(searches, 10)
        assert rep.stats["subsets_planned"] == 2024
        if outcome is Outcome.HOLDS:
            assert "stopped_at" not in rep.details
            assert rep.stats["subsets_checked"] == 2024
            return
        X = [tuple(e) for e in rep.details["stopped_at"]]
        sets = list(combinations(host.sorted_edges(), 3))
        assert rep.stats["subsets_checked"] == sets.index(tuple(X)) + 1
        assert find_expansion(g, delete_edges(host, X)).status \
            is SearchStatus.FOUND  # a set with a model, left undecided

    def test_one_search_stops_at_the_first_candidate(self):
        # the one search is the seed's, of the host with nothing deleted;
        # the stop is the first set in order that meets the footprint of
        # the model found there
        g, ctx = tailed_square()
        host = segment_blowup(g, ctx, 4)
        sets = list(combinations(host.sorted_edges(), 3))
        fp = label_footprint(host, find_expansion(g, host).embedding)
        rank, first = next((i, X) for i, X in enumerate(sets, 1)
                           if not fp.isdisjoint(X))
        rep = check_gadget_robustness(g, ctx, 4, budget=Budget(searches=1))
        assert rep.outcome is Outcome.BUDGET
        assert rep.details["stopped_at"] == [list(e) for e in first]
        assert rep.stats["subsets_checked"] == rank
        assert rep.stats["searches"] == 1

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
        hstar = assemble_component_counterexample(h, "p", k5_spec(), 2)
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
    checked = 0
    for X in combinations(host.sorted_edges(), min(r - 1, len(host.edges))):
        checked += 1
        res = find_expansion(pattern, delete_edges(host, X), roots,
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
    known = []
    checked = searches = nodes = 0
    for s in sizes:
        for X in combinations(host.sorted_edges(), s):
            checked += 1
            if any(fp.isdisjoint(X) for fp in known):
                continue
            g = delete_edges(host, X)
            res = find_expansion(pattern, g, roots,
                                 node_budget=node_budget)
            searches += 1
            nodes += res.nodes
            if res.status is not SearchStatus.FOUND:
                return res.status, X, checked, searches, nodes
            known.append(label_footprint(g, res.embedding))
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


def search_each_set_once(monkeypatch, host):
    """Wrap the scans' probe so that it fails on a deletion set of host
    searched twice; returns the list of sets searched."""
    searched = []
    real = verify._probe

    def once(pattern, ix, deleted, *args, **kwargs):
        assert ix is host.index
        X = edge_labels(host, deleted)
        assert X not in searched, f"searched twice: {sorted(X)}"
        searched.append(X)
        return real(pattern, ix, deleted, *args, **kwargs)

    monkeypatch.setattr(verify, "_probe", once)
    return searched


SCAN_CASES = dict(scan_cases())
PROBE_HOSTS = {f"seeded-{seed}": seeded_host(random.Random(seed), (1, 12))
               for seed in range(6)}
PROBE_HOSTS["K4-gadget-r3"] = segment_blowup(complete("pqst"),
                                             complete("pqst"), 3)
PROBE_PATTERNS = [complete("xyz"), cycle_graph("wxyz"), complete("wxyz"),
                  wheel_graph("h", "wxyz")]
PROBE_BUDGETS = (100, 20000)
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
            fp = label_footprint(host, res.embedding)
            assert fp <= host.edges
            used = frozenset().union(*res.embedding.branch_sets.values())
            assert len(fp) == (len(used)
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
        assert label_footprint(host, emb) == {("a", "b"), ("b", "c"), ("c", "d"),
                                              ("d", "e"), ("e", "f")}

    @pytest.mark.parametrize("name", sorted(PROBE_HOSTS))
    def test_probe_matches_search_on_the_deleted_host(self, name):
        host = PROBE_HOSTS[name]
        rng = random.Random(name)
        for pattern in PROBE_PATTERNS:
            for _ in range(4):
                X = rng.sample(host.sorted_edges(), rng.randint(0, 4))
                deleted = sum(1 << host.index.edges.index(e) for e in X)
                budget = rng.choice(PROBE_BUDGETS)
                status, fp, nodes = verify._probe(pattern, host.index, deleted,
                                                  {}, budget)
                g = delete_edges(host, X)
                res = find_expansion(pattern, g, node_budget=budget)
                assert (status, nodes) == (res.status, res.nodes)
                assert edge_labels(host, fp) == (
                    frozenset() if res.embedding is None
                    else label_footprint(g, res.embedding))

    @pytest.mark.parametrize("name", sorted(SCAN_CASES))
    def test_scan_matches_per_probe_oracle(self, name, monkeypatch):
        pattern, host, r, roots, budget, expected = SCAN_CASES[name]
        searched = search_each_set_once(monkeypatch, host)
        rep = check_assembly_robustness(pattern, host, r, roots=roots,
                                        budget=budget)
        assert len(searched) == rep.stats["searches"]
        status, witness, checked = per_probe_scan(pattern, host, r, roots,
                                                  budget)
        assert rep.details["mode"] == "exhaustive"
        assert rep.outcome is OUTCOME_OF[status] is expected
        for key in ("witness_deletion", "stopped_at"):
            assert rep.details.get(key) == witness.get(key)
        assert rep.stats["subsets_checked"] == checked

    @pytest.mark.parametrize("name", sorted(SCAN_CASES))
    def test_scan_matches_lexicographic_loop(self, name):
        pattern, host, r, roots, budget, _ = SCAN_CASES[name]
        self.assert_scan_matches(pattern, host, r, roots, budget.nodes)

    @pytest.mark.parametrize("seed", range(12))
    def test_scan_matches_lexicographic_loop_on_seeded_hosts(self, seed):
        # unbudgeted, the scan is the label-order loop; under a node
        # budget it names the first set in label order meeting every
        # footprint it found, so every set before that one keeps a model
        rng = random.Random(seed)
        host = seeded_host(rng, chords=(1, 12))
        r = rng.choice([2, 3])
        sets = list(combinations(host.sorted_edges(), r - 1))
        for pattern in (complete("xyz"), cycle_graph("wxyz")):
            exact = self.assert_scan_matches(pattern, host, r, None, None)

            def status(X):
                return find_expansion(pattern, delete_edges(host, X),
                                      node_budget=None).status

            for node_budget in (1, 5, 20):
                rep = check_assembly_robustness(
                    pattern, host, r, budget=Budget(nodes=node_budget))
                if rep.outcome is Outcome.HOLDS:
                    assert exact.outcome is Outcome.HOLDS
                    continue
                stop = (rep.details.get("witness_deletion")
                        or rep.details["stopped_at"])
                rank = sets.index(tuple(map(tuple, stop))) + 1
                assert rep.stats["subsets_checked"] == rank
                assert all(status(X) is SearchStatus.FOUND
                           for X in sets[:rank - 1])
                if rep.outcome is Outcome.REFUTED:
                    assert status(sets[rank - 1]) is SearchStatus.NONE

    def test_sparse_host_refuted_without_search(self):
        # a tree plus one chord: the seed's first search finds the one
        # cycle in 4 nodes; deleting a cycle edge leaves a forest, which
        # host reduction empties before the search starts
        host = seeded_host(random.Random(11), chords=(1, 12))
        assert len(host.edges) == len(host.vertices) == 24
        t0 = perf_counter()
        rep = check_assembly_robustness(complete("xyz"), host, 2,
                                        budget=Budget(nodes=None))
        assert perf_counter() - t0 < 1.0
        assert rep.outcome is Outcome.REFUTED
        assert rep.stats["nodes"] == 4

    @staticmethod
    def assert_scan_matches(pattern, host, r, roots, node_budget):
        rep = check_assembly_robustness(pattern, host, r, roots=roots,
                                        budget=Budget(nodes=node_budget))
        status, X, checked, _, _ = lexicographic_loop(
            pattern, host, [min(r - 1, len(host.edges))], roots, node_budget)
        assert rep.outcome is OUTCOME_OF[status]
        stop = None if X is None else [list(e) for e in X]
        assert rep.details.get("witness_deletion") == (
            stop if status is SearchStatus.NONE else None)
        assert rep.details.get("stopped_at") == (
            stop if status is SearchStatus.BUDGET else None)
        assert rep.stats["subsets_checked"] == checked
        return rep

    def test_scan_reuse_counts(self):
        g, ctx = tailed_square()
        searches = [check_gadget_robustness(g, ctx, r).stats["searches"]
                    for r in (3, 4)]
        assert searches == [9, 10]

    def test_refutation_search_count(self):
        # the searches of the seed and the tree, and then those of the
        # descent that names the first refuting set (rank 666)
        pattern, host, r, _, budget, _ = SCAN_CASES["late-refutation"]
        rep = check_assembly_robustness(pattern, host, r, budget=budget)
        assert rep.stats["searches"] == 31

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_hitting_complete_hosts_match_per_probe_oracle(self, n,
                                                            monkeypatch):
        pattern, host = complete("xyz"), complete("123456"[:n])
        searched = search_each_set_once(monkeypatch, host)
        res = min_edge_hitting_set(pattern, host)
        assert len(searched) == res.searches
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
        _, X, checked, _, _ = lexicographic_loop(
            pattern, host, range(top + 1))
        assert res.exact
        assert res.hitting_edges == X
        assert res.subsets == checked


class TestSeededLoop:
    """The deletion loop against reference_first_without_model, the same
    loop without the seed of edge-disjoint models: with no budget stop
    the seed moves only searches and nodes."""

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_reference_on_seeded_hosts(self, seed):
        # robust (one size) and hit (every size), with one pattern
        # vertex pinned on odd seeds
        rng = random.Random(seed)
        host = seeded_host(rng, chords=(1, 8))
        for pattern in (complete("xyz"), cycle_graph("wxyz"),
                        complete("wxyz")):
            roots = None
            if seed % 2:
                roots = {rng.choice(pattern.sorted_vertices()):
                         rng.choice(host.sorted_vertices())}
            for sizes in ([rng.randint(1, 3)], range(len(host.edges) + 1)):
                self.assert_matches(pattern, host, roots, sizes)

    @pytest.mark.parametrize("roots", [None, {"p": "p"}])
    def test_matches_reference_on_the_k4_gadget(self, roots):
        k4 = complete("pqst")
        host = segment_blowup(k4, k4, 3)
        for sizes, searches in (([2], 3), (range(len(host.edges) + 1), 5)):
            got = self.assert_matches(k4, host, roots, sizes)
            assert got[3] == searches

    @staticmethod
    def assert_matches(pattern, host, roots, sizes):
        got = verify._first_without_model(pattern, host, roots, Budget(),
                                          sizes)
        want = reference_first_without_model(pattern, host, roots, Budget(),
                                             sizes)
        assert want[0] is not SearchStatus.BUDGET
        assert got[:3] == want[:3]
        return got


FLOOR_PATTERNS = dict(BOUND_PATTERNS, K5=complete("abcde"))


def floor_host(rng, pattern):
    """A random host on as many vertices as the pattern has, or one more
    for patterns of at most 5, dense enough to have a floor above 0."""
    t = len(pattern.vertices)
    return random_graph(rng, t + rng.randint(0, t <= 5), rng.uniform(0.7, 1))


class TestHittingFloor:
    """verify._hitting_floor, Mader's lower bound on the edges a
    deletion needs to leave no pattern model, against the naive hitting
    oracle, and the deletion loop that skips the sizes below it."""

    @pytest.mark.parametrize("name", FLOOR_PATTERNS)
    @pytest.mark.parametrize("seed", range(8))
    def test_floor_is_at_most_tau(self, name, seed):
        # of the host, and of the host less a random edge mask, as the
        # descent reads it for the prefix it asks about
        pattern = FLOOR_PATTERNS[name]
        rng = random.Random(seed)
        host = floor_host(rng, pattern)
        floor = verify._hitting_floor(pattern, host.index)
        assert floor <= oracle_min_hitting(pattern, host)
        gone = rng.getrandbits(len(host.edges)) & rng.getrandbits(
            len(host.edges))
        rest = delete_edges(host, edge_labels(host, gone))
        assert (verify._hitting_floor(pattern, host.index, gone)
                <= oracle_min_hitting(pattern, rest))

    @pytest.mark.parametrize("name", FLOOR_PATTERNS)
    def test_floor_sums_over_components(self, name):
        pattern = FLOOR_PATTERNS[name]
        rng = random.Random(len(name))
        parts = [floor_host(rng, pattern) for _ in range(3)]
        parts.append(complete("123456"))
        floors = [verify._hitting_floor(pattern, g.index) for g in parts]
        host = relabeled_union(parts)
        assert verify._hitting_floor(pattern, host.index) == sum(floors)

    def test_floor_is_tau_for_triangles(self):
        # tau of K3 is the cycle rank m - n + c: the largest forest
        # keeps n - c edges.  The oracle agrees on every graph of at
        # most 5 vertices, and the cycle rank on seeded hosts
        k3 = complete("xyz")
        for n in range(1, 6):
            for g in graphs_up_to_iso(n):
                assert (verify._hitting_floor(k3, g.index)
                        == oracle_min_hitting(k3, g))
        for seed in range(20):
            g = random_graph(random.Random(seed), 12, 0.3)
            rank = (len(g.edges) - len(g.vertices)
                    + len(connected_components(g)))
            assert verify._hitting_floor(k3, g.index) == rank

    def test_no_floor_for_eight_vertices(self):
        # K_{2,2,2,2,2} has 10 vertices and 40 edges, one more than
        # Mader's formula allows for t = 8, yet no K8 minor: the bound
        # holds only for t <= 7
        vs = [p + i for p in "abcde" for i in "01"]
        host = Graph.build(vs, [(u, v) for u, v in combinations(vs, 2)
                                if u[0] != v[0]])
        k8 = complete("stuvwxyz")
        assert len(host.edges) == (8 - 2) * 10 - math.comb(7, 2) + 1
        assert is_minor(k8, host) is False
        assert verify._hitting_floor(k8, host.index) == 0
        assert verify._hitting_floor(path_graph("stuvwxyz"),
                                     complete("0123456789").index) == 0

    def test_no_floor_under_root_pins(self):
        # K3 with x pinned to a pendant vertex p of K5: one deletion
        # cuts p off, though unpinned K5 + p needs 11 - 5 = 6
        host = Graph.build([], list(complete("12345").edges) + [("1", "p")])
        assert verify._hitting_floor(complete("xyz"), host.index) == 6
        rep = check_assembly_robustness(complete("xyz"), host, 2,
                                        roots={"x": "p"})
        assert rep.outcome is Outcome.REFUTED
        assert rep.details["witness_deletion"] == [["1", "p"]]
        # K3 in K4 pinned at p searches the sizes the floor would skip
        free = check_assembly_robustness(complete("xyz"), complete("pqst"), 3)
        assert free.stats["searches"] == 0
        pinned = check_assembly_robustness(complete("xyz"), complete("pqst"),
                                           3, roots={"x": "p"})
        assert pinned.outcome is Outcome.HOLDS
        assert pinned.stats["searches"] > 0

    def test_scan_below_the_floor_searches_nothing(self, monkeypatch):
        # K7 keeps at most 2 * 7 - 3 = 11 of its 21 edges without a K4
        # model, so no deletion of 9 edges leaves none
        monkeypatch.setattr(verify, "_probe", None)
        k7 = complete("1234567")
        rep = check_assembly_robustness(complete("wxyz"), k7, 10)
        assert rep.outcome is Outcome.HOLDS
        assert rep.stats == {"subsets_checked": math.comb(21, 9),
                             "subsets_planned": math.comb(21, 9),
                             "searches": 0, "nodes": 0}

    @pytest.mark.parametrize("seed", range(20))
    def test_stripped_floor_matches_reference(self, seed):
        # dense hosts and sparse ones, where the peeling of vertices of
        # degree below t - 2 decides most of the floor, for 2 <= t <= 7
        rng = random.Random(seed)
        patterns = [complete("xy"), complete("uvwxyz"),
                    path_graph("tuvwxyz"), *FLOOR_PATTERNS.values()]
        for host in (random_graph(rng, rng.randint(6, 12),
                                  rng.uniform(0.3, 0.9)),
                     seeded_host(rng)):
            for pattern in patterns:
                gone = rng.getrandbits(len(host.edges)) & rng.getrandbits(
                    len(host.edges))
                rest = delete_edges(host, edge_labels(host, gone))
                assert (verify._hitting_floor(pattern, host.index, gone)
                        == reference_hitting_floor(pattern, rest))

    def test_peeling_raises_the_floor(self):
        # K5 with a 3-edge tail has 13 edges on 8 vertices, within 2 * 8 -
        # 3 for K4, but the tail peels off and K5's floor 10 - 10 + 3 is
        # tau.  K5 less (1,2), (1,3), (1,4) counts 7 - 10 + 3 = 0, but
        # vertex 1 peels off and K4 on 2-5 leaves 6 - 8 + 3 = 1
        k4, k5 = complete("wxyz"), complete("12345")
        host = Graph.build([], list(k5.edges)
                           + [("5", "a"), ("a", "b"), ("b", "c")])
        assert verify._hitting_floor(k4, host.index) == 3
        assert oracle_min_hitting(k4, k5) == 3
        assert verify._hitting_floor(k4, k5.index, 0b111) == 1

    @pytest.mark.parametrize("seed", range(13))
    def test_pruned_questions_keep_a_model(self, seed, monkeypatch):
        # a descent question asks for a set of the witness's size s that
        # holds the prefix C and otherwise only edges after it.  It reads
        # the floor of the host less C, and a question whose tree never
        # runs is pruned: brute force finds a model left by every set it
        # covers.  Seed 12 is K6; on 8 vertices one question can cover
        # 10^5 sets, so the random hosts have 6 or 7.  Each host of 10 or
        # more edges has a pruned question
        rng = random.Random(seed)
        host = (complete("123456") if seed == 12 else
                random_graph(rng, rng.randint(6, 7), rng.uniform(0.6, 0.9)))
        es, m = host.sorted_edges(), len(host.edges)
        asked = []
        real_floor, real_tree = verify._hitting_floor, verify._hitting_sets

        def floor(pattern, ix, gone=0):
            asked.append(("floor", gone))
            return real_floor(pattern, ix, gone)

        def tree(m, s, known, chosen=0, free=-1):
            asked.append(("tree", chosen))
            return real_tree(m, s, known, chosen, free)

        monkeypatch.setattr(verify, "_hitting_floor", floor)
        monkeypatch.setattr(verify, "_hitting_sets", tree)
        pruned = 0
        for pattern in FLOOR_PATTERNS.values():
            asked.clear()
            s = min_edge_hitting_set(pattern, host).size
            for k, (kind, gone) in enumerate(asked):
                if kind == "tree" or not gone or asked[k + 1:k + 2] == [
                        ("tree", gone)]:
                    continue
                pruned += 1
                C = [i for i in range(m) if gone >> i & 1]
                for rest in combinations(range(C[-1] + 1, m), s - len(C)):
                    X = [es[i] for i in C + list(rest)]
                    assert find_expansion(pattern, delete_edges(
                        host, X)).status is SearchStatus.FOUND
        assert pruned or m < 10

    @pytest.mark.parametrize("seed", range(12))
    def test_hit_matches_reference_loop(self, seed):
        # the loop with neither seed nor floor gives the same size,
        # witness and subsets, on dense hosts where the floor is high
        rng = random.Random(seed)
        host = random_graph(rng, rng.randint(6, 8), rng.uniform(0.5, 0.8))
        for pattern in FLOOR_PATTERNS.values():
            got = min_edge_hitting_set(pattern, host)
            want = reference_first_without_model(
                pattern, host, None, Budget(), range(len(host.edges) + 1))
            assert want[0] is SearchStatus.NONE and got.exact
            assert (got.size, got.hitting_edges, got.subsets) == \
                (len(want[1]), want[1], want[2])


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
                assert is_minor(pattern, host)
            rest = delete_edges(host, res.hitting_edges)
            assert find_expansion(pattern, rest, node_budget=None).status \
                is SearchStatus.NONE


class TestRank:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, m))))
    def test_rank_is_the_position_in_combinations(self, args):
        m, s = args
        for pos, X in enumerate(combinations(range(m), s), start=1):
            assert _rank(X, m) == pos


class TestHittingSets:
    @pytest.mark.parametrize("seed", range(40))
    def test_yields_a_set_exactly_when_one_meets_every_mask(self, seed):
        rng = random.Random(seed)
        m = rng.randint(0, 12)
        for s in range(min(m, 5) + 1):
            masks = [rng.randrange(2**m) for _ in range(rng.randint(0, 8))]
            chosen = sum(1 << i for i in rng.sample(range(m),
                                                    rng.randint(0, s)))
            free = rng.choice([2**m - 1, rng.randrange(2**m)])

            def fits(X):  # holds chosen, else lies in free, meets masks
                mask = sum(1 << i for i in X)
                return (mask & chosen == chosen
                        and not mask & ~chosen & ~free
                        and all(fp & mask for fp in masks))

            got = list(_hitting_sets(m, s, masks, chosen, free))
            for X in got:
                assert len(X) == s == len(set(X))
                assert list(X) == sorted(X) and all(0 <= i < m for i in X)
                assert fits(X)
            assert len(set(got)) == len(got)
            assert bool(got) == any(map(fits, combinations(range(m), s)))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10).flatmap(lambda m: st.tuples(
        st.just(m), st.integers(0, m),
        st.lists(st.integers(0, 2**m - 1), max_size=6), st.randoms())))
    def test_masks_appended_after_a_yield_are_read_in(self, args):
        # each appended mask misses the set just yielded, as the
        # footprint of a model found after deleting that set does
        m, s, start, rng = args
        known = list(start)
        got = []

        def meets_all(X):
            return all(any(fp >> i & 1 for i in X) for fp in known)

        for X in _hitting_sets(m, s, known):
            assert meets_all(X)
            assert X not in got
            got.append(X)
            known.append(sum(1 << i for i in range(m)
                             if i not in X and rng.random() < 0.5))
        assert not any(meets_all(Y) for Y in combinations(range(m), s))


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
    """Make the checks in verify read helpers.product_footprints: its
    models and footprints as masks over the host's Index."""
    def masks(h, ix, counter, volume=None):
        bit = {e: 1 << k for k, e in enumerate(ix.edges)}
        g = Graph(frozenset(ix.verts), frozenset(ix.edges))
        most = len(ix.edges) if volume is None else (
            volume - len(h.vertices) + len(h.edges))
        for emb, usage in oracle_footprints(h, g):
            if len(usage) <= most:
                yield (_unlabelled(h, ix, emb),
                       sum(map(bit.__getitem__, usage)))

    monkeypatch.setattr(verify, "_footprints", masks)


def component_locality_case():
    """(pattern, host, anchor, region): the two-part host's component
    assembly with the K5 core."""
    h = two_part_host()
    anchor = connected_components(h)[0]
    hstar = assemble_component_counterexample(h, "p", k5_spec(), 2)
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
                                       node_budget=2)
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


LOCALITY_PATTERNS = {
    "K3": complete("xyz"), "tailed-K3": triangle_with_tail(),
    "P3": path_graph("xyz"),
    "K3+K1": Graph.build("wxyz", complete("xyz").edges)}


def seeded_locality_cases(seed):
    """(pattern, host, anchor, region, budget) for one seeded host of
    5-8 vertices: each pattern with itself and two induced subgraphs as
    anchors, a random region of two thirds of the host, and node
    budgets 20,000 and 40."""
    rng = random.Random(seed)
    host = random_connected_graph(rng, rng.randint(5, 8), extra=4)
    vs = host.sorted_vertices()
    for _, h in sorted(LOCALITY_PATTERNS.items()):
        hv = h.sorted_vertices()
        anchors = [h] + [h.induced(rng.sample(hv, rng.randint(1, len(hv) - 1)))
                         for _ in range(2)]
        for anchor in anchors:
            region = rng.sample(vs, round(2 * len(vs) / 3))
            for nodes in (20000, 40):
                yield h, host, anchor, region, nodes


class TestLocalityReference:
    """check_expansion_locality against helpers.reference_locality, the
    labelled check with a Graph per restricted search."""

    @pytest.mark.parametrize("seed", range(24))
    def test_reports_match(self, seed):
        for case in seeded_locality_cases(seed):
            assert (check_expansion_locality(*case).to_json()
                    == reference_locality(*case).to_json())

    def test_cases_cover_every_outcome(self):
        reports = [reference_locality(*case) for seed in range(24)
                   for case in seeded_locality_cases(seed)]
        assert len(reports) == 576
        assert {r.outcome for r in reports} == set(Outcome)
        searched = [r for r in reports if r.stats["restricted_searches"]]
        assert {r.outcome for r in searched} == set(Outcome)

    def test_verify_binds_no_labelled_search(self):
        # verify's checks run on the Index; labels come only at the end
        for name in ("find_expansion", "iter_expansion_footprints",
                     "enumerate_expansions"):
            assert not hasattr(verify, name)


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

    def test_each_distinct_graph_is_tested_once(self, monkeypatch):
        tested = []

        def counting_is_minor(h, g):
            tested.append(g)
            return is_minor(h, g)

        monkeypatch.setattr(embed, "is_minor", counting_is_minor)
        corpus = [parse_graph((SAMPLES / name).read_text()) for name in
                  ("triangle.el", "path3.el", "square-with-tail.el")]
        pred = MinorPredicate("contains-K4", complete("abcd"))
        rep = check_hereditary_sampled(pred, corpus, trials=100)
        # 333 draws, of 95 distinct graphs
        assert len(tested) == len(set(tested)) == 95
        assert rep.outcome is Outcome.HOLDS
        assert rep.stats == {"trials": 100, "checked": 100, "skipped": 0}

    def test_rejects_empty_corpus(self):
        pred = MinorPredicate("contains-K3", complete("xyz"))
        with pytest.raises(GraphError):
            check_hereditary_sampled(pred, [])
