"""Verification checks: robustness scans, packing, hitting sets, reports.

Every check returns a Report whose canonical JSON form is deterministic:
dictionaries are key-sorted, every list is explicitly ordered, and wall
time is kept out of it, so identical inputs give byte-identical output
regardless of the machine or the run.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, field
from math import comb
from time import perf_counter
from typing import Iterable, Mapping

from .graph import (Edge, Graph, GraphError, contract_edge, delete_edges,
                    edge)
from .decompose import branch_vertices
from .embed import (DEFAULT_NODE_BUDGET, BudgetExceeded, EmbeddingConstraints,
                    MinorEmbedding, MinorPredicate, NodeCounter, SearchStatus,
                    _check_constraints, find_expansion,
                    iter_expansion_footprints)
from .gadgets import CoreSpec, segment_blowup

__all__ = [
    "DEFAULT_SEED", "Budget", "HitResult", "Outcome", "PackingResult",
    "Report", "canonical_json", "check_assembly_robustness",
    "check_branch_count", "check_expansion_locality",
    "check_gadget_robustness", "check_generic_counterexample",
    "check_hereditary_sampled", "graph_json", "max_edge_disjoint_packing",
    "min_edge_hitting_set",
]

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class Budget:
    """Resource limits: search nodes per expansion query, and how many
    deletion sets, in scan order, a verdict may rest on."""

    nodes: int | None = DEFAULT_NODE_BUDGET
    subsets: int = 10**6


class Outcome(enum.Enum):
    HOLDS = "holds"
    REFUTED = "refuted"
    BUDGET = "budget-exhausted"


_EXIT = {Outcome.HOLDS: 0, Outcome.REFUTED: 1, Outcome.BUDGET: 2}
_OUTCOME = {SearchStatus.FOUND: Outcome.HOLDS,
            SearchStatus.NONE: Outcome.REFUTED,
            SearchStatus.BUDGET: Outcome.BUDGET}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def graph_json(g: Graph) -> dict:
    return {"vertices": g.sorted_vertices(),
            "edges": [[u, v] for u, v in g.sorted_edges()]}


@dataclass(frozen=True)
class Report:
    """Outcome of one check plus its witness data and search statistics.

    elapsed is wall time in seconds; it is deliberately excluded from
    the JSON form so that repeated runs compare byte for byte.
    """

    check: str
    outcome: Outcome
    details: Mapping = field(default_factory=dict)
    stats: Mapping = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def exit_code(self) -> int:
        return _EXIT[self.outcome]

    def to_json_obj(self) -> dict:
        return {"check": self.check, "outcome": self.outcome.value,
                "details": dict(self.details), "stats": dict(self.stats)}

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())


# -- packing and hitting ---------------------------------------------------

@dataclass(frozen=True)
class PackingResult:
    """Largest found family of pairwise edge-disjoint expansion footprints."""

    count: int
    witness: tuple[frozenset[Edge], ...]
    exact: bool
    nodes: int


def _sorted_footprint(fp: frozenset[Edge]) -> list[list[str]]:
    return [[u, v] for u, v in sorted(fp)]


def max_edge_disjoint_packing(pattern: Graph, host: Graph,
                              cap: int | None = None,
                              node_budget: int | None = DEFAULT_NODE_BUDGET
                              ) -> PackingResult:
    """Maximum number of pairwise edge-disjoint pattern expansions in host.

    Exact when it completes within the node budget: footprints are
    enumerated once, then greedily deepened, in (size, edges) order,
    with a memo of failed (remaining-edges, still-needed) states.  A
    footprint comes after, and succeeds only where, the minimal ones
    inside it do, so all footprints would give the same witness.  Each
    phase gets node_budget nodes; deepening uses what enumeration found
    before running out.  cap stops once that many copies are found.
    """
    if not pattern.edges:
        raise GraphError("packing needs a pattern with at least one edge")
    listing = NodeCounter(cap=node_budget)
    exact = True
    footprints: list[frozenset[Edge]] = []
    try:
        for _, usage in iter_expansion_footprints(pattern, host, listing):
            footprints.append(usage)
    except BudgetExceeded:
        exact = False
    footprints.sort(key=lambda s: (len(s), sorted(s)))
    counter = NodeCounter(cap=node_budget)
    per = len(pattern.edges)

    fail: set[tuple[frozenset[Edge], int]] = set()

    def extend(remaining: frozenset[Edge], need: int
               ) -> list[frozenset[Edge]] | None:
        if need == 0:
            return []
        if len(remaining) < need * per:
            return None
        key = (remaining, need)
        if key in fail:
            return None
        for fp in footprints:
            if fp <= remaining:
                counter.spend()
                rest = extend(remaining - fp, need - 1)
                if rest is not None:
                    return [fp] + rest
        fail.add(key)
        return None

    best: list[frozenset[Edge]] = []
    t = 1
    full = frozenset(host.edges)
    while cap is None or t <= cap:
        if len(footprints) < t:
            break
        try:
            got = extend(full, t)
        except BudgetExceeded:
            exact = False
            break
        if got is None:
            break
        best = got
        t += 1
    return PackingResult(len(best), tuple(best), exact,
                         listing.nodes + counter.nodes)


@dataclass(frozen=True)
class HitResult:
    """Smallest found edge set meeting every pattern expansion.

    size is None when no hitting set at most the bound exists (exact)
    or none was certified before the budget ran out (not exact)."""

    size: int | None
    hitting_edges: tuple[Edge, ...] | None
    exact: bool
    nodes: int
    subsets: int


def min_edge_hitting_set(pattern: Graph, host: Graph,
                         bound: int | None = None,
                         budget: Budget | None = None) -> HitResult:
    """Minimum edge set whose deletion destroys every pattern expansion.

    Subset sizes are tried in increasing order, subsets of each size in
    label order, so the witness is canonical.  subsets counts the sets
    decided: all of them, or those up to the witness or the stop.
    """
    if not pattern.edges:
        raise GraphError("hitting needs a pattern with at least one edge")
    budget = budget or Budget()
    m = len(host.edges)
    top = m if bound is None else min(bound, m)
    status, X, checked, _, nodes = _first_without_model(
        pattern, host, None, budget.nodes, range(top + 1), budget.subsets)
    if status is SearchStatus.NONE:
        return HitResult(len(X), X, True, nodes, checked)
    return HitResult(None, None, status is SearchStatus.FOUND, nodes, checked)


# -- the hitting-set loop ----------------------------------------------------

def _footprint(g: Graph, emb: MinorEmbedding) -> frozenset[Edge]:
    """Edges a model needs in g: a BFS spanning tree of each branch set
    plus the edge images.  Deleting edges outside it keeps the model."""
    adj = g.adjacency()
    out = set(emb.edge_images.values())
    for bs in emb.branch_sets.values():
        todo = [min(bs)]
        seen = set(todo)
        for a in todo:
            for b in sorted(adj[a] & bs - seen):
                seen.add(b)
                todo.append(b)
                out.add(edge(a, b))
    return frozenset(out)


def _rank(X: tuple[int, ...], m: int) -> int:
    """1-based position of X in combinations(range(m), len(X))."""
    s = len(X)
    return comb(m, s) - sum(comb(m - 1 - i, s - d) for d, i in enumerate(X))


def _first_meeting(m: int, s: int, known: list[int],
                   after: tuple[int, ...] | None = None
                   ) -> tuple[int, ...] | None:
    """The first s-subset of range(m) after `after`, in combinations()
    order, that meets every bitmask in known; None if there is none.

    A depth-first search in that order.  A prefix is dropped when the
    masks it leaves unmet, cut to the indices still open, include an
    empty mask or more pairwise-disjoint masks than there are slots.
    """
    chosen: list[int] = []

    def first(lo: int, unmet: list[int], tight: bool):
        # tight: chosen is a prefix of after, so only later sets count
        slots = s - len(chosen)
        taken = disjoint = 0
        for fp in unmet:
            cut = fp >> lo
            if not cut:
                return None
            if not cut & taken:
                taken |= cut
                disjoint += 1
                if disjoint > slots:
                    return None
        if not slots:
            return None if tight else tuple(chosen)
        start = after[len(chosen)] if tight else lo
        for i in range(start, m - slots + 1):
            chosen.append(i)
            got = first(i + 1, [fp for fp in unmet if not fp >> i & 1],
                        tight and i == start)
            chosen.pop()
            if got is not None:
                return got
        return None

    return first(0, known, after is not None)


def _first_without_model(pattern: Graph, host: Graph,
                         constraints: EmbeddingConstraints | None,
                         node_budget: int | None, sizes: Iterable[int],
                         limit: int
                         ) -> tuple[SearchStatus, tuple[Edge, ...] | None,
                                    int, int, int]:
    """The first edge set X, by size in sizes and then in
    combinations(host.sorted_edges(), size) order, such that host - X
    keeps no pattern model; only the first limit sets may decide it.

    Returns (status, X, sets decided, searches, nodes).  FOUND: every
    set keeps a model.  NONE or BUDGET with X: the search on host - X
    found no model or ran out of nodes.  BUDGET without X: the first
    limit sets keep models and more sets remain.

    Every model found keeps its footprint as a bitmask over the sorted
    edges.  A set that misses a known footprint keeps that model, so
    only the first set meeting every known footprint is searched.
    """
    edges = host.sorted_edges()
    m = len(edges)
    bit = {e: 1 << i for i, e in enumerate(edges)}
    known: list[int] = []
    decided = searches = nodes = 0
    for s in sizes:
        X = _first_meeting(m, s, known)
        while X is not None:
            rank = decided + _rank(X, m)
            if rank > limit:
                break
            g = delete_edges(host, [edges[i] for i in X])
            res = find_expansion(pattern, g, constraints,
                                 node_budget=node_budget)
            searches += 1
            nodes += res.nodes
            if res.status is not SearchStatus.FOUND:
                return (res.status, tuple(edges[i] for i in X), rank,
                        searches, nodes)
            known.append(sum(bit[e] for e in _footprint(g, res.embedding)))
            X = _first_meeting(m, s, known, X)
        decided += comb(m, s)
        if decided > limit:
            return SearchStatus.BUDGET, None, limit, searches, nodes
    return SearchStatus.FOUND, None, decided, searches, nodes


def _scan_deletions(check: str, pattern: Graph, host: Graph, r: int,
                    constraints: EmbeddingConstraints | None = None,
                    budget: Budget | None = None,
                    extra_details: Mapping | None = None) -> Report:
    """Check that pattern expansions survive every deletion of < r edges.

    By monotonicity only deletion sets of the maximum size r-1 count.
    The verdict is the one a scan of them in label order would give,
    but only sets meeting every known model footprint are searched.
    """
    t0 = perf_counter()
    if r < 1:
        raise GraphError("deletion radius must be at least 1")
    budget = budget or Budget()
    if constraints is not None:
        _check_constraints(pattern, host, constraints)

    m = len(host.edges)
    s = min(r - 1, m)
    details = dict(extra_details or {})
    details.update({"mode": "exhaustive", "deletion_size": s,
                    "host_edges": m, "radius": r})
    if constraints is not None and constraints.must_contain:
        details["roots"] = {u: v for u, v in
                            sorted(constraints.must_contain.items())}
    status, X, checked, searches, nodes = _first_without_model(
        pattern, host, constraints, budget.nodes, [s], budget.subsets)
    if X is not None:
        key = ("witness_deletion" if status is SearchStatus.NONE
               else "stopped_at")
        details[key] = [[u, v] for u, v in X]
    stats = {"subsets_checked": checked, "subsets_planned": comb(m, s),
             "searches": searches, "nodes": nodes}
    return Report(check, _OUTCOME[status], details, stats,
                  perf_counter() - t0)


# -- the named checks --------------------------------------------------------

def check_gadget_robustness(g: Graph, ctx: Graph, r: int,
                            budget: Budget | None = None,
                            gadget: Graph | None = None) -> Report:
    """The blowup of g keeps a g expansion after any < r edge deletions.

    gadget substitutes a prebuilt host for the freshly built blowup,
    which lets a correct negative (a thinned gadget) be demonstrated.
    """
    host = gadget if gadget is not None else segment_blowup(g, ctx, r)
    extra = {"pattern": graph_json(g),
             "host_vertices": len(host.vertices)}
    return _scan_deletions("gadget-robustness", g, host, r, None, budget,
                           extra)


def check_assembly_robustness(pattern: Graph, host: Graph, r: int,
                              roots: Mapping[str, str] | None = None,
                              budget: Budget | None = None) -> Report:
    """A host keeps a pattern expansion after any < r edge deletions.

    roots pins pattern vertices to host vertices, giving the rooted
    variant used for cores with distinguished gluing points.
    """
    constraints = None
    if roots:
        constraints = EmbeddingConstraints(must_contain=dict(roots))
    extra = {"pattern": graph_json(pattern),
             "host_vertices": len(host.vertices)}
    return _scan_deletions("assembly-robustness", pattern, host, r,
                           constraints, budget, extra)


def check_generic_counterexample(anchor: Graph, spec: CoreSpec,
                                 budget: Budget | None = None) -> Report:
    """The supplied core beats the packing bound yet resists deletions.

    Two halves: fewer than k edge-disjoint anchor expansions fit in the
    core, and an anchor expansion honoring the root pins survives every
    deletion of fewer than r edges.  Either failure refutes the core.
    """
    t0 = perf_counter()
    budget = budget or Budget()
    unknown = set(spec.roots) - anchor.vertices
    if unknown:
        raise GraphError(f"roots name vertices outside the anchor: "
                         f"{sorted(unknown)!r}")
    pack = max_edge_disjoint_packing(anchor, spec.core, cap=spec.k,
                                     node_budget=budget.nodes)
    details: dict = {"pattern": graph_json(anchor),
                     "core_vertices": len(spec.core.vertices),
                     "packing_bound": spec.k, "packing_found": pack.count}
    refuted = pack.count >= spec.k
    if refuted:
        details["packing_witness"] = [_sorted_footprint(fp)
                                      for fp in pack.witness]
    if refuted or not pack.exact:
        return Report("generic-counterexample",
                      Outcome.REFUTED if refuted else Outcome.BUDGET, details,
                      {"nodes": pack.nodes, "subsets_checked": 0,
                       "subsets_planned": 0, "searches": 0},
                      perf_counter() - t0)
    inner = _scan_deletions("generic-counterexample", anchor, spec.core,
                            spec.r,
                            EmbeddingConstraints(must_contain=dict(spec.roots))
                            if spec.roots else None,
                            budget, details)
    stats = dict(inner.stats)
    stats["nodes"] = stats["nodes"] + pack.nodes
    return Report(inner.check, inner.outcome, inner.details, stats,
                  perf_counter() - t0)


def check_expansion_locality(h: Graph, hstar: Graph, anchor: Graph,
                             region: Iterable[str],
                             budget: Budget | None = None) -> Report:
    """Every h expansion in hstar realizes the anchor inside the region.

    For each minimal expansion subgraph of h, its restriction to the
    region must itself contain an anchor expansion.  Footprints whose
    anchor-part branch sets and edge images already sit inside the
    region pass without a search.
    """
    t0 = perf_counter()
    budget = budget or Budget()
    if not anchor.vertices <= h.vertices or not anchor.edges <= h.edges:
        raise GraphError("anchor must be a subgraph of the pattern")
    reg = frozenset(region)
    unknown = reg - hstar.vertices
    if unknown:
        raise GraphError(f"region outside the host: {sorted(unknown)!r}")

    counter = NodeCounter(cap=budget.nodes)
    footprints = 0
    searches = 0
    inner_nodes = 0
    outcome = Outcome.HOLDS
    details: dict = {"pattern": graph_json(h), "anchor": graph_json(anchor),
                     "region_size": len(reg)}
    try:
        for emb, usage in iter_expansion_footprints(h, hstar, counter):
            footprints += 1
            if (all(emb.branch_sets[u] <= reg for u in anchor.vertices)
                    and all(emb.edge_images[pe][0] in reg
                            and emb.edge_images[pe][1] in reg
                            for pe in anchor.edges)):
                continue
            used = emb.used_vertices() & reg
            restricted = Graph(frozenset(used),
                               frozenset(e for e in usage
                                         if e[0] in used and e[1] in used))
            searches += 1
            res = find_expansion(anchor, restricted,
                                 node_budget=budget.nodes)
            inner_nodes += res.nodes
            if res.status is SearchStatus.NONE:
                outcome = Outcome.REFUTED
                details["witness_embedding"] = emb.to_json_obj()
                details["witness_footprint"] = _sorted_footprint(usage)
                break
            if res.status is SearchStatus.BUDGET:
                outcome = Outcome.BUDGET
                break
    except BudgetExceeded:
        outcome = Outcome.BUDGET
    stats = {"footprints": footprints, "restricted_searches": searches,
             "nodes": counter.nodes + inner_nodes}
    return Report("expansion-locality", outcome, details, stats,
                  perf_counter() - t0)


def check_branch_count(g: Graph, ctx: Graph, r: int) -> Report:
    """Blowup branch vertices are exactly the original branch vertices.

    Needs r at least 3: with fewer copies a branch vertex lying on a
    single segment end would come out with degree below 3 and the
    correspondence would be lost.
    """
    t0 = perf_counter()
    if r < 3:
        raise GraphError("branch counting needs replication at least 3")
    expected = branch_vertices(g, ctx)
    gx = segment_blowup(g, ctx, r)
    got = frozenset(v for v in gx.vertices if gx.degree(v) >= 3)
    outcome = Outcome.HOLDS if got == expected else Outcome.REFUTED
    details = {"expected": sorted(expected), "found": sorted(got),
               "count": len(expected), "replication": r,
               "blowup_vertices": len(gx.vertices),
               "blowup_edges": len(gx.edges)}
    return Report("branch-count", outcome, details, {"nodes": 0},
                  perf_counter() - t0)


def check_hereditary_sampled(predicate: MinorPredicate,
                             corpus: list[Graph], trials: int = 100,
                             steps: int = 4,
                             seed: int = DEFAULT_SEED) -> Report:
    """Graphs without the target minor never gain it under minor steps.

    Random delete-edge, contract-edge and delete-vertex sequences are
    applied to sampled corpus graphs lacking the target; the target
    appearing along the way refutes the embedding engine.
    """
    t0 = perf_counter()
    if not corpus:
        raise GraphError("need a non-empty corpus")
    rng = random.Random(seed)
    checked = 0
    skipped = 0
    for _ in range(trials):
        start = corpus[rng.randrange(len(corpus))]
        if predicate.holds(start):
            skipped += 1
            continue
        checked += 1
        cur = start
        ops: list[str] = []
        for _ in range(rng.randint(1, steps)):
            kinds = []
            if cur.edges:
                kinds += ["contract-edge", "delete-edge"]
            if len(cur.vertices) >= 2:
                kinds += ["delete-vertex"]
            if not kinds:
                break
            kind = rng.choice(kinds)
            if kind == "delete-vertex":
                v = rng.choice(cur.sorted_vertices())
                ops.append(f"delete-vertex {v}")
                cur = cur.induced(cur.vertices - {v})
            else:
                u, v = rng.choice(cur.sorted_edges())
                ops.append(f"{kind} {u} {v}")
                cur = (contract_edge(cur, (u, v)) if kind == "contract-edge"
                       else delete_edges(cur, [(u, v)]))
            if predicate.holds(cur):
                details = {"predicate": predicate.name,
                           "start": graph_json(start),
                           "operations": ops, "result": graph_json(cur)}
                return Report("hereditary", Outcome.REFUTED, details,
                              {"trials": trials, "checked": checked,
                               "skipped": skipped}, perf_counter() - t0)
    details = {"predicate": predicate.name}
    return Report("hereditary", Outcome.HOLDS, details,
                  {"trials": trials, "checked": checked, "skipped": skipped},
                  perf_counter() - t0)
