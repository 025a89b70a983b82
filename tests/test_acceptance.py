"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with ``pytest -s``) including its elapsed time and time budget.
Expected values are frozen from independent oracle runs.
"""

import random
import time
from contextlib import contextmanager

from minorbench import (DEFAULT_SEED, Graph, MinorPredicate, Outcome,
                        assemble_block_counterexample,
                        assemble_component_counterexample, block_cut_tree,
                        canonical_json, check_assembly_robustness,
                        check_branch_count, check_expansion_locality,
                        check_gadget_robustness, check_generic_counterexample,
                        connected_components, core_region, delete_edges,
                        find_expansion, graph_json, is_minor,
                        max_edge_disjoint_packing, min_edge_hitting_set,
                        naive_is_minor_oracle, SearchStatus)
from helpers import (complete, graphs_up_to_iso, k5_spec, oracle_blocks,
                     oracle_cutvertices, oracle_footprints, p3_star,
                     random_connected_graph, random_graph, rooted_spec,
                     satisfies_leaf_rule, tailed_square, triangle_with_tail,
                     two_part_host)


@contextmanager
def criterion(num, limit=None):
    """Time a criterion body and print one PASS/FAIL summary line."""
    info = {"note": ""}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num}: FAIL in {elapsed:.1f}s; "
              f"{info['note'] or 'check raised'}")
        raise
    elapsed = time.perf_counter() - start
    ok = limit is None or elapsed <= limit
    bound = f" (bound {limit:.0f}s)" if limit is not None else ""
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} "
          f"in {elapsed:.1f}s{bound}; {info['note']}")
    assert ok, f"criterion {num} exceeded its {limit:.0f}s budget"


def base_corpus():
    patterns = [g for n in range(1, 5) for g in graphs_up_to_iso(n)]
    hosts = [g for n in range(1, 6) for g in graphs_up_to_iso(n)]
    return patterns, hosts


# ---------------------------------------------------------------------------
# report builders shared with the reproducibility criterion


def gadget_reports():
    g, ctx = tailed_square()
    reports = {"robustness": check_gadget_robustness(g, ctx, 3)}
    pg, pctx = p3_star()
    thinned = Graph.build(["b", "a0", "c0"], [("b", "a0"), ("b", "c0")])
    reports["fault"] = check_gadget_robustness(pg, pctx, 2, gadget=thinned)
    return reports


def branch_count_reports():
    g, ctx = tailed_square()
    reports = {"fixed": check_branch_count(g, ctx, 3)}
    rng = random.Random(DEFAULT_SEED)
    done = 0
    while done < 100:
        h = random_connected_graph(rng, rng.randint(2, 7), extra=3)
        extra = [(v, f"x{i}") for i, v in enumerate(h.sorted_vertices())
                 if rng.random() < 0.5]
        ctx2 = Graph.build([], list(h.edges) + extra) if extra else h
        if not any(ctx2.degree(v) >= 3 for v in h.vertices):
            continue
        reports[f"seeded-{done:03d}"] = check_branch_count(
            h, ctx2, rng.choice([3, 4]))
        done += 1
    return reports


def component_build():
    host = two_part_host()
    anchor = next(c for c in connected_components(host) if "p" in c.vertices)
    spec = k5_spec()
    built = assemble_component_counterexample(host, anchor, spec, spec.r)
    reports = {
        "generic": check_generic_counterexample(anchor, spec),
        "robustness": check_assembly_robustness(host, built, spec.r),
        "locality": check_expansion_locality(host, built, anchor,
                                             core_region(built)),
        "graph": canonical_json(graph_json(built)),
    }
    return reports, host, anchor, spec, built


def block_build():
    host = triangle_with_tail()
    pred = MinorPredicate("contains-triangle", complete("xyz"))
    spec = rooted_spec()
    built, trace = assemble_block_counterexample(host, pred, spec, spec.r)
    anchor = Graph.build([], [("b", "c"), ("b", "s"), ("c", "s")])
    reports = {
        "robustness": check_assembly_robustness(host, built, spec.r,
                                                roots={"s": "s#1"}),
        "locality": check_expansion_locality(host, built, anchor,
                                             core_region(built)),
        "trace": canonical_json(trace.to_json_obj()),
        "graph": canonical_json(graph_json(built)),
    }
    return reports, host, spec, built, trace


def all_report_json():
    """Every JSON artifact the fixed scenarios produce, keyed by name."""
    out = {}
    batches = [("gadget", gadget_reports()),
               ("branch", branch_count_reports()),
               ("component", component_build()[0]),
               ("block", block_build()[0])]
    for prefix, batch in batches:
        for key, value in batch.items():
            text = value if isinstance(value, str) else value.to_json()
            out[f"{prefix}:{key}"] = text
    return out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_minor_engine_matches_oracle():
    with criterion(1, 120.0) as info:
        patterns, hosts = base_corpus()
        assert len(patterns) == 18 and len(hosts) == 52
        mismatches = []
        for h in patterns:
            for g in hosts:
                if is_minor(h, g) != naive_is_minor_oracle(h, g):
                    mismatches.append((h.sorted_edges(), g.sorted_edges()))
        assert mismatches == []

        rng = random.Random(DEFAULT_SEED)
        for _ in range(200):
            h = random_graph(rng, rng.randint(1, 4), rng.uniform(0.2, 0.9))
            g = random_graph(rng, 6, rng.uniform(0.2, 0.9))
            assert is_minor(h, g) == naive_is_minor_oracle(h, g)
        info["note"] = (f"{len(patterns) * len(hosts)} corpus pairs and "
                        f"200 sampled 6-vertex hosts agree with the oracle")


def test_criterion_2_block_decomposition_matches_oracle():
    with criterion(2, 60.0) as info:
        rng = random.Random(DEFAULT_SEED)
        for i in range(500):
            n = rng.randint(1, 9)
            g = random_connected_graph(rng, n, extra=5 if n <= 6 else 3)
            tree = block_cut_tree(g)
            got = {(frozenset(b.graph.vertices), frozenset(b.graph.edges))
                   for b in tree.blocks}
            assert got == oracle_blocks(g), f"blocks differ on instance {i}"
            assert tree.cutvertices == oracle_cutvertices(g), \
                f"cutvertices differ on instance {i}"
        info["note"] = "500 seeded graphs up to 9 vertices match brute force"


def test_criterion_3_gadget_robustness_and_fault_injection():
    with criterion(3, 120.0) as info:
        reports = gadget_reports()

        main = reports["robustness"]
        assert main.outcome is Outcome.HOLDS
        assert main.details["mode"] == "exhaustive"
        assert main.details["deletion_size"] == 2
        assert main.stats["subsets_checked"] == 153

        fault = reports["fault"]
        assert fault.outcome is Outcome.REFUTED
        assert fault.details["witness_deletion"] == [["a0", "b"]]
        # the witness must survive an independent recheck
        g, _ = p3_star()
        thinned = Graph.build(["b", "a0", "c0"], [("b", "a0"), ("b", "c0")])
        cut = [tuple(e) for e in fault.details["witness_deletion"]]
        assert find_expansion(g, delete_edges(thinned, cut)).status \
            is SearchStatus.NONE
        info["note"] = ("replication 3 survives all 153 double deletions; "
                        "thinned gadget refuted with verified witness")


def test_criterion_4_branch_vertex_counts():
    with criterion(4, 30.0) as info:
        reports = branch_count_reports()
        fixed = reports.pop("fixed")
        assert fixed.outcome is Outcome.HOLDS
        assert fixed.details["expected"] == ["v", "w"]
        assert fixed.details["found"] == ["v", "w"]
        assert fixed.details["count"] == 2
        assert fixed.details["blowup_vertices"] == 14
        assert fixed.details["blowup_edges"] == 18
        for name, rep in reports.items():
            assert rep.outcome is Outcome.HOLDS, name
            assert rep.details["count"] == len(rep.details["expected"]), name
        info["note"] = ("fixed instance keeps both branch vertices; "
                        f"{len(reports)} seeded blowups agree")


def test_criterion_5_component_counterexample():
    with criterion(5, 300.0) as info:
        reports, host, anchor, spec, built = component_build()
        assert spec.k == 4 and spec.r == 2
        assert spec.roots == {}
        assert anchor.vertices == {"p", "q", "s", "t"}

        generic = reports["generic"]
        assert generic.outcome is Outcome.HOLDS
        assert generic.details["packing_found"] == 1
        assert generic.details["packing_bound"] == 4

        assert built.sorted_vertices() == [
            "1#0", "2#0", "3#0", "4#0", "5#0", "y#1", "y#2", "z#1", "z#2"]
        assert len(built.edges) == 12

        robust = reports["robustness"]
        assert robust.outcome is Outcome.HOLDS
        assert robust.details["mode"] == "exhaustive"
        assert robust.details["deletion_size"] == 1
        assert robust.stats["subsets_checked"] == 12

        local = reports["locality"]
        assert local.outcome is Outcome.HOLDS
        oracle = oracle_footprints(host, built)
        assert len(oracle) == 110
        assert local.stats["footprints"] == len(
            {usage for emb, usage in oracle
             if satisfies_leaf_rule(emb, usage)}) == 70
        assert local.stats["restricted_searches"] == 0

        packing = max_edge_disjoint_packing(host, built, cap=spec.k)
        assert packing.exact
        assert packing.count == 1 < spec.k
        info["note"] = ("generic check, single-deletion robustness, "
                        "locality, and packing 1 < 4 all hold")


def test_criterion_6_block_counterexample():
    with criterion(6, 120.0) as info:
        reports, host, spec, built, trace = block_build()
        assert trace.anchor_block == ("b", "c", "s")
        assert trace.containing_blocks == ()
        assert trace.chain_blocks == ()
        assert trace.outside_components == (("d", "s"),)
        assert trace.identifications == (("s#1", ("s#1", "s#2", "s'#0")),)

        assert built.sorted_vertices() == [
            "c1#0", "c2#0", "c3#0", "c4#0", "d#1", "d#2", "s#1"]
        assert len(built.edges) == 12
        assert built.degree("s#1") == 6
        assert built.degree("d#1") == 1 and built.degree("d#2") == 1
        core = built.induced(core_region(built))
        assert len(core.edges) == 10  # complete on five vertices

        robust = reports["robustness"]
        assert robust.outcome is Outcome.HOLDS
        assert robust.stats["subsets_checked"] == 12

        local = reports["locality"]
        assert local.outcome is Outcome.HOLDS
        # every leaf-rule footprint keeps the anchor block in the core;
        # the full product needs 288 restricted searches (test_verify)
        assert local.stats["restricted_searches"] == 0

        packing = max_edge_disjoint_packing(host, built, cap=spec.k)
        assert packing.exact
        assert packing.count == 2 < spec.k
        info["note"] = ("trace, rooted robustness, locality, and "
                        "packing 2 < 4 all hold")


def test_criterion_7_hitting_bounds_packing():
    with criterion(7, 120.0) as info:
        patterns, hosts = base_corpus()
        pairs = exact = 0
        for h in patterns:
            if not h.edges:
                continue  # duality needs a pattern with at least one edge
            for g in hosts:
                pairs += 1
                packing = max_edge_disjoint_packing(h, g)
                hitting = min_edge_hitting_set(h, g)
                if packing.exact and hitting.exact:
                    exact += 1
                    assert hitting.size is not None
                    assert hitting.size >= packing.count, \
                        (h.sorted_edges(), g.sorted_edges())
        assert pairs == 728
        assert exact == pairs  # every pair finished exhaustively
        info["note"] = (f"hitting >= packing on all {pairs} corpus pairs, "
                        "every run exhaustive")


def test_criterion_8_reports_are_reproducible():
    with criterion(8) as info:
        first = all_report_json()
        second = all_report_json()
        assert sorted(first) == sorted(second)
        different = [k for k in first if first[k] != second[k]]
        assert different == []
        info["note"] = (f"{len(first)} JSON artifacts byte-identical "
                        "across two full reruns")
