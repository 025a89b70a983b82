"""Shared fixtures: graph builders, corpora, and brute-force oracles.

The oracles here are deliberately slow and definition-shaped; none of
them call into the package's search or decomposition code paths, except
product_footprints and reference_footprints, which share the branch-set
enumeration with the footprint enumerator they check,
reference_packing, which reads the footprints that enumerator yields,
reference_locality, which reads them too and searches with
find_expansion, reference_greedy_packing, which searches with
find_expansion too, reference_search, the first model of
enumerate_expansions, and reference_segment_blowup, which reads the segments and branch
vertices of the decomposition, and reference_first_without_model, which
runs the deletion probe and hitting-set tree of the loop it checks.
The oracles read a graph's neighbours from labelled_adjacency, built
from its edges, never from its Index.  The branch-set search references
read bit masks with graph._bits.
"""

from __future__ import annotations

import functools
import json
import random
from collections import Counter
from functools import cache, lru_cache
from itertools import combinations, permutations, product
from math import comb
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple

from minorbench import (DEFAULT_NODE_BUDGET, Block, BudgetExceeded, Graph, GraphError, MinorEmbedding,
                        NodeCounter, Outcome, PackingResult, Report,
                        SearchResult, SearchStatus, Segment, branch_vertices,
                        delete_edges, edge, enumerate_expansions,
                        find_expansion, graph_json, iter_expansion_footprints,
                        load_core_spec, segment_decomposition)
from minorbench.graph import Edge, _bits
from minorbench.verify import Budget, _hitting_sets, _probe, _rank

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

SAFE_LABELS = [f"g{i}" for i in range(40)]


def reference_canonical_json(obj) -> str:
    """The reference for verify.canonical_json: the standard library's
    encoder with the report layout."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def complete(labels) -> Graph:
    labels = list(labels)
    return Graph.build(labels, [(a, b) for a, b in combinations(labels, 2)])


def path_graph(labels) -> Graph:
    labels = list(labels)
    return Graph.build(labels, list(zip(labels, labels[1:])))


def cycle_graph(labels) -> Graph:
    labels = list(labels)
    es = list(zip(labels, labels[1:])) + [(labels[-1], labels[0])]
    return Graph.build(labels, es)


def wheel_graph(hub, rim) -> Graph:
    """A cycle on rim plus a hub joined to every rim vertex."""
    return Graph.build([], list(cycle_graph(rim).edges) +
                       [(hub, v) for v in rim])


def subdivided(g: Graph, k: int, edges=None) -> Graph:
    """g with each of the given edges (all by default) replaced by a
    path through k new vertices."""
    es = set(g.edges)
    for a, b in sorted(g.edges if edges is None else edges):
        chain = [a, *(f"{a}~{b}.{j}" for j in range(k)), b]
        es.discard((a, b))
        es.update(zip(chain, chain[1:]))
    return Graph.build(g.vertices, es)


def star_graph(center, leaves) -> Graph:
    return Graph.build([center], [(center, leaf) for leaf in leaves])


def tailed_square() -> tuple[Graph, Graph]:
    """4-cycle v,u1,u2,w with pendant w1; context adds a leaf u at v."""
    g = Graph.build([], [("v", "w"), ("v", "u1"), ("u1", "u2"),
                         ("u2", "w"), ("w", "w1")])
    ctx = Graph.build([], list(g.edges) + [("v", "u")])
    return g, ctx


def p3_star() -> tuple[Graph, Graph]:
    """Path a-b-c whose middle vertex has an extra context leaf."""
    g = path_graph(["a", "b", "c"])
    ctx = Graph.build([], list(g.edges) + [("b", "x")])
    return g, ctx


def two_part_host() -> Graph:
    """K4 on p,q,s,t next to a lone edge y-z."""
    return Graph.build([], [("p", "q"), ("p", "s"), ("p", "t"),
                            ("q", "s"), ("q", "t"), ("s", "t"), ("y", "z")])


def triangle_with_tail() -> Graph:
    """Triangle b,c,s with a pendant edge s-d."""
    return Graph.build([], [("b", "c"), ("b", "s"), ("c", "s"), ("d", "s")])


def k5_spec():
    return load_core_spec((SAMPLES / "complete-core.txt").read_text())


def rooted_spec():
    return load_core_spec((SAMPLES / "rooted-core.txt").read_text())


# -- corpora -----------------------------------------------------------------

@lru_cache(maxsize=None)
def graphs_up_to_iso(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of graphs on n vertices."""
    labels = SAFE_LABELS[:n]
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    perms = list(permutations(range(n)))
    reps = []
    seen: set[int] = set()
    for mask in range(1 << len(pairs)):
        canon = mask
        for perm in perms:
            other = 0
            for bit, (i, j) in enumerate(pairs):
                if mask >> bit & 1:
                    a, b = perm[i], perm[j]
                    other |= 1 << index[(a, b) if a < b else (b, a)]
            if other < canon:
                canon = other
        if canon in seen:
            continue
        seen.add(canon)
        es = [(labels[i], labels[j]) for bit, (i, j) in enumerate(pairs)
              if canon >> bit & 1]
        reps.append(Graph.build(labels, es))
    return tuple(reps)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    labels = SAFE_LABELS[:n]
    es = [(a, b) for a, b in combinations(labels, 2) if rng.random() < p]
    return Graph.build(labels, es)


def seeded_host(rng: random.Random, chords=(2, 8)) -> Graph:
    """A connected host of 10-25 vertices: a random tree plus a number of
    chords drawn from the range chords."""
    n = rng.randint(10, 25)
    labels = [f"v{i}" for i in range(n)]
    tree = [(v, rng.choice(labels[:i])) for i, v in enumerate(labels) if i]
    spare = [e for e in combinations(labels, 2)
             if e not in tree and e[::-1] not in tree]
    return Graph.build(labels, tree + rng.sample(spare, rng.randint(*chords)))


def random_connected_graph(rng: random.Random, n: int,
                           extra: int = 2) -> Graph:
    """Random spanning tree plus up to `extra` additional edges."""
    labels = SAFE_LABELS[:n]
    es: set[tuple[str, str]] = set()
    joined = [labels[0]]
    for lab in labels[1:]:
        es.add(edge(lab, rng.choice(joined)))
        joined.append(lab)
    free = [e for e in (edge(a, b) for a, b in combinations(labels, 2))
            if e not in es]
    rng.shuffle(free)
    for e in free[:rng.randint(0, extra)]:
        es.add(e)
    return Graph.build(labels, es)


def reference_host(seed: int) -> Graph:
    """A connected host of 10-40 vertices, from seeded_host or from
    random_connected_graph, with some edges subdivided on odd seeds so
    that segments have interiors."""
    rng = random.Random(seed)
    g = (seeded_host(rng) if seed % 4 < 2
         else random_connected_graph(rng, rng.randint(10, 40),
                                     extra=rng.randint(2, 12)))
    if seed % 2:
        g = subdivided(g, rng.randint(1, 3), rng.sample(g.sorted_edges(), 3))
    return g


def petalled_wheel(seed: int) -> Graph:
    """A wheel on 4-8 rim vertices with subdivided edges and a cycle of
    3-5 vertices hung at some rim vertices, on shuffled labels; each
    cycle is a closed segment at its rim vertex."""
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(80)]
    rng.shuffle(labels)
    hub, *rim = (labels.pop() for _ in range(rng.randint(5, 9)))
    g = wheel_graph(hub, rim)
    es = set(subdivided(g, rng.randint(1, 2),
                        rng.sample(g.sorted_edges(), 3)).edges)
    for v in rng.sample(rim, 3):
        petal = [v, *(labels.pop() for _ in range(rng.randint(2, 4)))]
        es.update(cycle_graph(petal).edges)
    return Graph.build([], es)


def labelled_adjacency(g: Graph) -> dict[str, frozenset[str]]:
    """The neighbour set of every vertex, by a pass over g's edges."""
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return {v: frozenset(ns) for v, ns in adj.items()}


# -- block and cutvertex oracles ----------------------------------------------

def oracle_cutvertices(g: Graph) -> frozenset[str]:
    """Vertices whose removal disconnects the (connected) graph."""
    out = set()
    for v in g.vertices:
        rest = g.vertices - {v}
        if rest and not g.induced(rest).is_connected():
            out.add(v)
    return frozenset(out)


def all_simple_cycles(g: Graph) -> set[frozenset]:
    """Every simple cycle, as a frozenset of its edges."""
    adj = {v: sorted(ns) for v, ns in labelled_adjacency(g).items()}
    cycles: set[frozenset] = set()

    def walk(start: str, cur: str, visited: frozenset[str], used: tuple):
        for w in adj[cur]:
            if w == start and len(used) >= 2:
                cycles.add(frozenset(used + (edge(cur, w),)))
            elif w > start and w not in visited:
                walk(start, w, visited | {w}, used + (edge(cur, w),))

    for s in sorted(g.vertices):
        walk(s, s, frozenset([s]), ())
    return cycles


def oracle_blocks(g: Graph) -> set[tuple[frozenset, frozenset]]:
    """Blocks by the common-cycle relation, as (vertices, edges) pairs.

    Two edges belong to the same block iff some cycle contains both;
    every cycle-free edge is its own trivial block.  A single vertex is
    one edgeless block.
    """
    if len(g.vertices) == 1:
        return {(frozenset(g.vertices), frozenset())}
    parent = {e: e for e in g.edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cyc in all_simple_cycles(g):
        anchor = next(iter(cyc))
        for e in cyc:
            parent[find(e)] = find(anchor)
    classes: dict = {}
    for e in g.edges:
        classes.setdefault(find(e), set()).add(e)
    out = set()
    for es in classes.values():
        vs = frozenset(x for e in es for x in e)
        out.add((vs, frozenset(es)))
    return out


# -- decomposition references ---------------------------------------------------

class ReferenceTree(NamedTuple):
    """A block-cut tree as the references build it: the blocks with
    cutvertex and link sets of their own, where decompose.BlockCutTree
    reads both from its blocks."""

    blocks: tuple[Block, ...]
    cutvertices: frozenset[str]
    links: frozenset[tuple[int, str]]

    def block_ids(self) -> list[int]:
        return [b.id for b in self.blocks]


def reference_block_cut_tree(g: Graph) -> ReferenceTree:
    """The reference for decompose.block_cut_tree on a connected host:
    the labelled DFS it replaced, from the smallest label, neighbours in
    sorted order, with Tarjan's articulation points as cutvertices."""
    if len(g.vertices) == 1:
        only = Graph(g.vertices, frozenset())
        return ReferenceTree((Block(0, only),), frozenset(), frozenset())
    adj = {v: sorted(ns) for v, ns in labelled_adjacency(g).items()}
    root = min(g.vertices)
    disc: dict[str, int] = {root: 0}
    low: dict[str, int] = {root: 0}
    clock = 1
    estack: list[Edge] = []
    block_edge_sets: list[set[Edge]] = []
    cutvx: set[str] = set()
    root_children = 0

    stack = [(root, None, iter(adj[root]))]
    while stack:
        v, parent, it = stack[-1]
        advanced = False
        for w in it:
            if w == parent:
                continue
            if w in disc:
                if disc[w] < disc[v]:
                    estack.append(edge(v, w))
                    low[v] = min(low[v], disc[w])
                continue
            estack.append(edge(v, w))
            disc[w] = low[w] = clock
            clock += 1
            if v == root:
                root_children += 1
            stack.append((w, v, iter(adj[w])))
            advanced = True
            break
        if advanced:
            continue
        stack.pop()
        if parent is None:
            continue
        low[parent] = min(low[parent], low[v])
        if low[v] >= disc[parent]:
            blk: set[Edge] = set()
            closing = edge(parent, v)
            while True:
                e = estack.pop()
                blk.add(e)
                if e == closing:
                    break
            block_edge_sets.append(blk)
            if parent != root:
                cutvx.add(parent)
    if root_children >= 2:
        cutvx.add(root)
    assert not estack

    raw = [g.edge_subgraph(es) for es in block_edge_sets]
    raw.sort(key=lambda b: (tuple(b.sorted_vertices()), tuple(b.sorted_edges())))
    blocks = tuple(Block(i, bg) for i, bg in enumerate(raw))
    links = frozenset((b.id, c) for b in blocks for c in sorted(cutvx)
                      if c in b.graph.vertices)
    return ReferenceTree(blocks, frozenset(cutvx), links)


def reference_minimal_subtree(t: ReferenceTree, marked) -> ReferenceTree:
    """The reference for decompose.minimal_subtree: prune unmarked
    leaves, re-sorting every tree node on each pass, until nothing
    changes."""
    want = set(marked)
    unknown = want - set(t.block_ids())
    if unknown:
        raise GraphError(f"unknown block ids {sorted(unknown)!r}")
    if not want:
        raise GraphError("need at least one marked block")

    nodes: set[tuple[str, object]] = {("b", b.id) for b in t.blocks}
    nodes |= {("c", c) for c in t.cutvertices}
    nbrs: dict[tuple[str, object], set[tuple[str, object]]] = {x: set() for x in nodes}
    for bid, c in t.links:
        nbrs[("b", bid)].add(("c", c))
        nbrs[("c", c)].add(("b", bid))

    changed = True
    while changed:
        changed = False
        for x in sorted(nodes, key=repr):
            if x[0] == "b" and x[1] in want:
                continue
            if len(nbrs[x] & nodes) <= 1:
                nodes.discard(x)
                changed = True

    keep_blocks = tuple(b for b in t.blocks if ("b", b.id) in nodes)
    keep_cuts = frozenset(c for c in t.cutvertices if ("c", c) in nodes)
    keep_links = frozenset((bid, c) for bid, c in t.links
                           if ("b", bid) in nodes and ("c", c) in nodes)
    return ReferenceTree(keep_blocks, keep_cuts, keep_links)


def reference_choose_leaf_block(t: ReferenceTree) -> Block:
    """The reference for decompose.choose_leaf_block: the leaf block
    with the smallest sorted vertices, then sorted edges, each block's
    degree by a scan over all links."""
    if not t.blocks:
        raise GraphError("empty block tree")
    leaves = [b for b in t.blocks
              if sum(1 for bid, _ in t.links if bid == b.id) <= 1]
    if not leaves:
        raise GraphError("internal error: tree without leaf blocks")
    return min(leaves, key=lambda b: (b.graph.sorted_vertices(),
                                      b.graph.sorted_edges()))


def reference_segments(g: Graph, ctx: Graph) -> list[Segment]:
    """The reference for decompose.segment_decomposition on a connected
    g with branch vertices: the labelled walk it replaced, with branch
    vertices by labelled context degree."""
    cdeg = {v: len(ns) for v, ns in labelled_adjacency(ctx).items()}
    branch = {v for v in g.vertices if cdeg[v] >= 3}
    adj = {v: sorted(ns) for v, ns in labelled_adjacency(g).items()}
    visited: set[Edge] = set()
    segments: list[Segment] = []

    for b in sorted(branch):
        for nb in adj[b]:
            if edge(b, nb) in visited:
                continue
            interior: list[str] = []
            prev, cur = b, nb
            chain_edges = [edge(b, nb)]
            while cur not in branch and len(adj[cur]) == 2:
                interior.append(cur)
                nxt = [w for w in adj[cur] if w != prev][0]
                chain_edges.append(edge(cur, nxt))
                prev, cur = cur, nxt
            visited.update(chain_edges)
            if cur in branch:
                if cur == b:
                    fwd = tuple(interior)
                    rev = tuple(reversed(interior))
                    segments.append(Segment("closed", (b,), min(fwd, rev)))
                else:
                    a, z = sorted((b, cur))
                    inner = tuple(interior) if a == b else tuple(reversed(interior))
                    segments.append(Segment("between", (a, z), inner))
            else:
                segments.append(Segment("pendant", (b, cur), tuple(interior)))
    assert visited == g.edges
    segments.sort(key=Segment.sort_key)
    return segments


def reference_segment_blowup(g: Graph, ctx: Graph, r: int) -> Graph:
    """The reference for gadgets.segment_blowup: each label made through
    a closure that appends "+" while it is taken, each edge normalised
    again by Graph.build."""
    if r < 1:
        raise GraphError("replication count must be at least 1")
    segments = segment_decomposition(g, ctx)
    branch = branch_vertices(g, ctx)

    used: set[str] = set(branch)
    prov: dict[str, str] = {v: f"branch:{v}" for v in branch}
    edges: list[tuple[str, str]] = []

    def fresh(base: str, tag: str) -> str:
        lab = base
        while lab in used:
            lab += "+"
        used.add(lab)
        prov[lab] = tag
        return lab

    for j, seg in enumerate(segments):
        a, end = seg.ends[0], seg.ends[-1]
        span, closes = {"between": (max(seg.length, 2), True),
                        "closed": (max(seg.length, 3), True),
                        "pendant": (seg.length + 1, False)}[seg.kind]
        for i in range(r):
            prev = a
            for k in range(1, span):
                cur = fresh(f"{a}~{end}.{j}.{i}.{k}",
                            f"path:{a}~{end}.{j}:copy{i}:pos{k}")
                edges.append((prev, cur))
                prev = cur
            if closes:
                edges.append((prev, end))
    return Graph.build(used, edges, prov)



def reference_branch_count(g: Graph, ctx: Graph, r: int) -> Report:
    """The reference for verify.check_branch_count: the branch vertices
    of the reference blowup by a labelled degree count per vertex."""
    if r < 3:
        raise GraphError("branch counting needs replication at least 3")
    gx = reference_segment_blowup(g, ctx, r)
    cdeg = {v: len(ns) for v, ns in labelled_adjacency(ctx).items()}
    expected = sorted(v for v in g.vertices if cdeg[v] >= 3)
    found = sorted(v for v, ns in labelled_adjacency(gx).items()
                   if len(ns) >= 3)
    details = {"expected": expected, "found": found,
               "count": len(expected), "replication": r,
               "blowup_vertices": len(gx.vertices),
               "blowup_edges": len(gx.edges)}
    return Report("branch-count",
                  Outcome.HOLDS if found == expected else Outcome.REFUTED,
                  details, {"nodes": 0})

# -- independent minor oracle -------------------------------------------------

ORACLE_HOST_GUARD = 8


def naive_is_minor_oracle(h: Graph, g: Graph) -> bool:
    """Decide the minor question by brute partition enumeration.

    Enumerates every subset of host vertices, every partition of it into
    as many blocks as the pattern has vertices, and every assignment of
    pattern vertices to blocks.  Deliberately written from scratch: it
    shares no search machinery with find_expansion.
    """
    if len(g.vertices) > ORACLE_HOST_GUARD:
        raise GraphError(f"oracle is limited to hosts with at most "
                         f"{ORACLE_HOST_GUARD} vertices")
    hverts = sorted(h.vertices)
    nh = len(hverts)
    if nh == 0:
        return True
    gverts = sorted(g.vertices)
    if nh > len(gverts):
        return False
    gadj: dict[str, set[str]] = {v: set() for v in gverts}
    for u, v in g.edges:
        gadj[u].add(v)
        gadj[v].add(u)
    hedges = [tuple(e) for e in h.sorted_edges()]

    def connected(block: list[str]) -> bool:
        todo = [block[0]]
        inside = set(block)
        got = {block[0]}
        while todo:
            for w in gadj[todo.pop()]:
                if w in inside and w not in got:
                    got.add(w)
                    todo.append(w)
        return len(got) == len(inside)

    def blocks_linked(a: list[str], b: list[str]) -> bool:
        bset = set(b)
        return any(gadj[x] & bset for x in a)

    def partitions(items: list[str], k: int) -> Iterator[list[list[str]]]:
        blocks: list[list[str]] = []

        def rec(i: int) -> Iterator[list[list[str]]]:
            if len(blocks) + (len(items) - i) < k:
                return
            if i == len(items):
                if len(blocks) == k:
                    yield [list(b) for b in blocks]
                return
            x = items[i]
            for b in blocks:
                b.append(x)
                yield from rec(i + 1)
                b.pop()
            if len(blocks) < k:
                blocks.append([x])
                yield from rec(i + 1)
                blocks.pop()

        return rec(0)

    for size in range(nh, len(gverts) + 1):
        for subset in combinations(gverts, size):
            for blocks in partitions(list(subset), nh):
                if not all(connected(b) for b in blocks):
                    continue
                for perm in permutations(range(nh)):
                    assign = {hverts[i]: blocks[perm[i]] for i in range(nh)}
                    if all(blocks_linked(assign[u], assign[w]) for u, w in hedges):
                        return True
    return False


# -- independent hitting-set oracle -------------------------------------------

def oracle_min_hitting(h: Graph, g: Graph) -> int | None:
    """Smallest deletion set killing every h-expansion, by raw search.

    Uses the naive partition-enumeration minor oracle as the inner
    test, so it shares nothing with the engine's search or the hitting
    routine under test.
    """
    if not naive_is_minor_oracle(h, g):
        return 0
    es = g.sorted_edges()
    for s in range(1, len(es) + 1):
        for X in combinations(es, s):
            if not naive_is_minor_oracle(h, delete_edges(g, X)):
                return s
    return None


def reference_hitting_floor(h: Graph, g: Graph) -> int:
    """Mader's floor on tau, recomputed on labels: peel vertices of
    degree below t - 2 off g until none is left, then sum, over the
    components of at least t vertices, the edges above (t - 2) * n -
    C(t - 1, 2).  0 unless h has an edge and 2 <= t <= 7 vertices."""
    t = len(h.vertices)
    if not h.edges or t > 7:
        return 0
    adj = labelled_adjacency(g)
    while low := {v for v, ns in adj.items() if len(ns) < t - 2}:
        adj = {v: ns - low for v, ns in adj.items() if v not in low}
    floor, unseen = 0, set(adj)
    while unseen:
        todo = [unseen.pop()]
        comp = set(todo)
        for u in todo:
            todo += adj[u] - comp
            comp |= adj[u]
        unseen -= comp
        if len(comp) >= t:
            m = sum(len(adj[u]) for u in comp) // 2
            floor += max(0, m - (t - 2) * len(comp) + comb(t - 1, 2))
    return floor


# -- packing oracle ------------------------------------------------------------

def oracle_packing(footprints) -> tuple[int, tuple]:
    """Largest t such that t of the footprints are pairwise edge-disjoint,
    and the first such t-combination in (size, edges) order.

    t comes from a recursion over sets of edges left, by bitmask: the
    lowest edge left stays unused or is covered by a footprint that
    contains it and fits.  The witness is the first combinations() entry
    whose members are pairwise disjoint.
    """
    fps = sorted(set(footprints), key=lambda s: (len(s), sorted(s)))
    bit = {e: 1 << i for i, e in enumerate(sorted(set().union(*fps)))}
    by_low: dict[int, list[int]] = {}
    for fp in fps:
        mask = sum(bit[e] for e in fp)
        by_low.setdefault(mask & -mask, []).append(mask)

    @cache
    def most(left: int) -> int:
        if not left:
            return 0
        low = left & -left
        return max([most(left ^ low)] +
                   [1 + most(left ^ mask) for mask in by_low.get(low, ())
                    if mask & left == mask])

    t = most((1 << len(bit)) - 1)
    witness = next(c for c in combinations(fps, t)
                   if all(a.isdisjoint(b) for a, b in combinations(c, 2)))
    return t, witness


# -- footprint oracle ----------------------------------------------------------

def _all_spanning_trees(vs: frozenset, g: Graph) -> list[frozenset]:
    """Every spanning tree of the induced subgraph on vs: the sets of
    len(vs) - 1 of its edges that connect vs, in combinations order."""
    inner = sorted(e for e in g.edges if e[0] in vs and e[1] in vs)
    return [frozenset(combo) for combo in combinations(inner, len(vs) - 1)
            if Graph(vs, frozenset(combo)).is_connected()]


def pattern_automorphisms(h: Graph) -> list[dict]:
    """Every automorphism of h, as a vertex map: each permutation of the
    vertices that maps the edge set onto itself."""
    vs = sorted(h.vertices)
    out = []
    for image in permutations(vs):
        f = dict(zip(vs, image))
        if {edge(f[a], f[b]) for a, b in h.edges} == h.edges:
            out.append(f)
    return out


def brute_force_models(h: Graph, g: Graph, roots=None) -> set[frozenset]:
    """Branch-set assignments of every expansion model of h in g, each a
    frozenset of (pattern vertex, branch set) pairs: every way to give
    each host vertex to one pattern vertex or to none, kept when each
    branch set is nonempty and connected, holds its pinned root, and
    each pattern edge has a host edge between its two branch sets."""
    hverts, gverts = sorted(h.vertices), sorted(g.vertices)
    out = set()
    for owner in product([None, *hverts], repeat=len(gverts)):
        if len(set(owner) - {None}) < len(hverts):
            continue  # some branch set is empty
        bs = {u: frozenset(v for v, o in zip(gverts, owner) if o == u)
              for u in hverts}
        if (all(v in bs[u] for u, v in (roots or {}).items())
                and all(_connected(vs, g) for vs in bs.values())
                and all(any(edge(a, b) in g.edges for a in bs[x] for b in bs[y]
                            if a != b) for x, y in h.edges)):
            out.add(frozenset(bs.items()))
    return out


def _connected(vs: frozenset, g: Graph) -> bool:
    todo, seen = [min(vs)], {min(vs)}
    while todo:
        v = todo.pop()
        for a, b in g.edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y in vs and y not in seen:
                    seen.add(y)
                    todo.append(y)
    return seen == vs


def product_footprints(h: Graph, g: Graph, counter: NodeCounter):
    """Yield (model, edge footprint) for every expansion subgraph: every
    model (each of enumerate_expansions, which yields one per orbit,
    under every automorphism of h) with every choice of a spanning tree
    per branch set and a host edge per pattern edge, footprints
    deduplicated.  The full product that iter_expansion_footprints
    prunes; it shares only the branch-set enumeration with it.
    """
    seen: set[frozenset] = set()
    trees_of = cache(lambda vs: _all_spanning_trees(vs, g))
    autos = pattern_automorphisms(h)
    for branch_sets in ({f[u]: bs for u, bs in rep.branch_sets.items()}
                        for rep in enumerate_expansions(h, g, None, counter)
                        for f in autos):
        hverts = sorted(branch_sets)
        tree_choices = [trees_of(branch_sets[u]) for u in hverts]
        hedges = h.sorted_edges()
        image_choices = []
        for u, w in hedges:
            bu, bw = branch_sets[u], branch_sets[w]
            cands = sorted(e for e in g.edges
                           if (e[0] in bu and e[1] in bw) or (e[0] in bw and e[1] in bu))
            image_choices.append(cands)
        for trees in product(*tree_choices):
            base: set = set()
            for t in trees:
                base |= t
            for images in product(*image_choices):
                counter.spend()
                usage = frozenset(base | set(images))
                if usage in seen:
                    continue
                seen.add(usage)
                final = MinorEmbedding(dict(branch_sets),
                                       {he: im for he, im in zip(hedges, images)})
                yield final, usage


def satisfies_leaf_rule(emb: MinorEmbedding, usage: frozenset) -> bool:
    """Every leaf of a branch set's spanning tree in usage ends an edge
    image of emb."""
    ends = {v for e in emb.edge_images.values() for v in e}
    for bs in emb.branch_sets.values():
        deg = Counter(v for e in usage if e[0] in bs and e[1] in bs
                      for v in e)
        if any(d == 1 and v not in ends for v, d in deg.items()):
            return False
    return True


def inclusion_minimal(sets) -> set[frozenset]:
    """The sets with no other set of the family as a proper subset.

    Taken by size, as bitmasks: a set is minimal unless a smaller
    minimal set, kept already, lies inside it.
    """
    sets = sorted(set(sets), key=len)
    bit = {x: 1 << i for i, x in enumerate({x for s in sets for x in s})}
    kept: list[int] = []
    out = set()
    for s in sets:
        mask = sum(bit[x] for x in s)
        if all(t & mask != t for t in kept):
            kept.append(mask)
            out.add(s)
    return out


@lru_cache(maxsize=None)
def oracle_footprints(h: Graph, g: Graph) -> tuple:
    """product_footprints of h in g, uncapped, kept for reuse."""
    return tuple(product_footprints(h, g, NodeCounter(cap=None)))


# -- footprint sequence reference ---------------------------------------------

def crossing_edges(adj: Mapping[str, frozenset[str]], A: frozenset[str],
                   B: frozenset[str]) -> list[Edge]:
    """Sorted edges with one end in A and the other in B."""
    return sorted({edge(a, b) for a in A for b in adj[a] & B})


def reference_spanning_trees(vs: frozenset[str],
                             adj: Mapping[str, frozenset[str]],
                             most: int) -> list[tuple[frozenset[Edge], frozenset[str]]]:
    """Spanning trees of the subgraph induced on vs with at most most
    leaves, each with its leaves.  Grown from the smallest vertex, the
    smallest edge leaving the tree is taken or banned, so each tree
    comes once; a vertex of degree above most means too many leaves.
    """
    out = []

    def grow(tree: frozenset[Edge], reached: frozenset[str],
             banned: frozenset[Edge]):
        deg = Counter(v for e in tree for v in e)
        if len(reached) == len(vs):
            leaves = frozenset(v for v in vs if deg[v] == 1)
            if len(leaves) <= most:
                out.append((tree, leaves))
        elif max(deg.values(), default=0) <= most:
            cut = min((edge(a, b) for a in reached for b in adj[a] & vs
                       if b not in reached and edge(a, b) not in banned),
                      default=None)
            if cut is not None:
                grow(tree | {cut}, reached.union(cut), banned)
                grow(tree, reached, banned | {cut})

    grow(frozenset(), frozenset([min(vs)]), frozenset())
    return out


def reference_footprints(h: Graph, g: Graph, counter: NodeCounter
                         ) -> Iterator[tuple[MinorEmbedding, frozenset[Edge]]]:
    """The sequence reference for iter_expansion_footprints: the same
    (model, edge footprint) pairs in the same order, from the loop it
    replaced.  Every model of enumerate_expansions, every combination of
    reference_spanning_trees, and every image product is built on edge
    label tuples, then filtered by the leaf rule and deduplicated; one
    node is one image combination, kept or not."""
    seen: set[frozenset[Edge]] = set()
    adj = labelled_adjacency(g)
    hedges = h.sorted_edges()
    trees_of = functools.cache(lambda vs, d: reference_spanning_trees(vs, adj, d))
    cross = functools.cache(lambda A, B: crossing_edges(adj, A, B))
    for emb in enumerate_expansions(h, g, None, counter):
        bs = emb.branch_sets
        hverts = sorted(bs)
        for trees in product(*(trees_of(bs[u], h.degree(u))
                               for u in hverts)):
            # with as many leaves as images, each image ends at a leaf
            ends = {u: leaves if len(leaves) == h.degree(u) else bs[u]
                    for u, (_, leaves) in zip(hverts, trees)}
            base = frozenset().union(*(t for t, _ in trees))
            leaves = frozenset().union(*(lv for _, lv in trees))
            for images in product(*(cross(ends[u], ends[w])
                                    for u, w in hedges)):
                counter.spend()
                if leaves.difference(*images):
                    continue
                usage = base.union(images)
                if usage not in seen:
                    seen.add(usage)
                    yield (MinorEmbedding(dict(bs), dict(zip(hedges, images))),
                           usage)


def footprint_cases() -> dict[str, tuple[Graph, Graph]]:
    """name -> (pattern, host) for the footprint differential tests:
    K3, C4, K4 and W4 in K4 and K5, K3 and K4 in K6, and K3 and C4
    each in a seeded 10-vertex host.  Every pattern has minimum degree
    2."""
    patterns = {"K3": complete("xyz"), "C4": cycle_graph("wxyz"),
                "K4": complete("wxyz"), "W4": wheel_graph("h", "wxyz")}
    cases = {}
    for n in (4, 5, 6):
        host = complete(SAFE_LABELS[:n])
        for name, pattern in patterns.items():
            if len(pattern.vertices) <= n and (n < 6 or name[0] == "K"):
                cases[f"{name}-K{n}"] = (pattern, host)
    for name, seed in (("K3", 86), ("C4", 56)):
        host = seeded_host(random.Random(seed), (1, 4))
        cases[f"{name}-seeded-{seed}"] = (patterns[name], host)
    return cases


# -- packing sequence reference ------------------------------------------------

def reference_packing(pattern: Graph, host: Graph, cap: int | None = None,
                      node_budget: int | None = 10**7) -> PackingResult:
    """The sequence reference for max_edge_disjoint_packing: the search
    it replaced, on footprints as frozensets of edges.  Footprints from
    iter_expansion_footprints are sorted by (size, sorted edges); for
    t = 1, 2, ... a depth-first search places t disjoint ones, each
    after the last one placed, one node per footprint that fits."""
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

    def extend(start: int, remaining: frozenset[Edge], need: int
               ) -> list[frozenset[Edge]] | None:
        if need == 0:
            return []
        if (start == len(footprints)
                or len(remaining) < need * len(footprints[start])):
            return None
        for i in range(start, len(footprints)):
            fp = footprints[i]
            if fp <= remaining:
                counter.spend()
                rest = extend(i + 1, remaining - fp, need - 1)
                if rest is not None:
                    return [fp] + rest
        return None

    best: list[frozenset[Edge]] = []
    t = 1
    while (cap is None or t <= cap) and len(footprints) >= t:
        try:
            got = extend(0, frozenset(host.edges), t)
        except BudgetExceeded:
            exact = False
            break
        if got is None:
            break
        best = got
        t += 1
    return PackingResult(len(best), tuple(best), exact,
                         listing.nodes + counter.nodes)


def reference_greedy_packing(pattern: Graph, host: Graph,
                             cap: int | None = None
                             ) -> tuple[frozenset[Edge], ...]:
    """The greedy edge-disjoint models max_edge_disjoint_packing starts
    from, as footprints in the order found: find_expansion on the host
    less the footprints found so far, until it finds no model or cap
    are found.  A footprint is a BFS spanning tree of each branch set,
    from its smallest label with neighbours in label order, plus the
    edge images."""
    found: list[frozenset[Edge]] = []
    rest = host
    while cap is None or len(found) < cap:
        emb = find_expansion(pattern, rest, node_budget=None).embedding
        if emb is None:
            break
        adj = labelled_adjacency(rest)
        fp = set(emb.edge_images.values())
        for bs in emb.branch_sets.values():
            order = [min(bs)]
            for a in order:
                for b in sorted(adj[a] & bs - set(order)):
                    order.append(b)
                    fp.add(edge(a, b))
        found.append(frozenset(fp))
        rest = delete_edges(rest, fp)
    return tuple(found)


# -- locality reference ----------------------------------------------------------

def reference_locality(h: Graph, hstar: Graph, anchor: Graph, region,
                       node_budget: int | None = DEFAULT_NODE_BUDGET
                       ) -> Report:
    """The reference for verify.check_expansion_locality: the labelled
    check it replaced.  Each footprint of iter_expansion_footprints is
    read in labels, and a footprint whose anchor part leaves the region
    gets a find_expansion on a Graph built from its edges inside the
    region and its branch sets."""
    if not anchor.vertices <= h.vertices or not anchor.edges <= h.edges:
        raise GraphError("anchor must be a subgraph of the pattern")
    reg = frozenset(region)
    unknown = reg - hstar.vertices
    if unknown:
        raise GraphError(f"region outside the host: {sorted(unknown)!r}")

    counter = NodeCounter(cap=node_budget)
    footprints = searches = inner_nodes = 0
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
            used = frozenset().union(*emb.branch_sets.values()) & reg
            restricted = Graph(used, frozenset(e for e in usage
                                               if e[0] in used
                                               and e[1] in used))
            searches += 1
            res = find_expansion(anchor, restricted, node_budget=node_budget)
            inner_nodes += res.nodes
            if res.status is SearchStatus.NONE:
                outcome = Outcome.REFUTED
                details["witness_embedding"] = emb.to_json_obj()
                details["witness_footprint"] = [[u, v]
                                                for u, v in sorted(usage)]
                break
            if res.status is SearchStatus.BUDGET:
                outcome = Outcome.BUDGET
                break
    except BudgetExceeded:
        outcome = Outcome.BUDGET
    stats = {"footprints": footprints, "restricted_searches": searches,
             "nodes": counter.nodes + inner_nodes}
    return Report("expansion-locality", outcome, details, stats)


# -- label views of the indexed core -------------------------------------------

def vertex_mask(g: Graph, vs) -> int:
    return sum(1 << g.index.vidx[v] for v in set(vs))


def vertex_labels(g: Graph, mask: int) -> set[str]:
    return {v for i, v in enumerate(g.index.verts) if mask >> i & 1}


def edge_labels(g: Graph, mask: int) -> frozenset[Edge]:
    return frozenset(e for k, e in enumerate(g.index.edges) if mask >> k & 1)


def masks_graph(g: Graph, nbr, alive: int) -> Graph:
    """The graph on g's vertices in alive with adjacency masks nbr."""
    verts = g.index.verts
    return Graph.build(vertex_labels(g, alive),
                       [(verts[a], verts[b]) for a in range(len(verts))
                        if alive >> a & 1
                        for b in range(a + 1, len(verts)) if nbr[a] >> b & 1])


# -- branch-set search references ----------------------------------------------

def reference_search(h: Graph, g: Graph, roots: Mapping[str, str] | None = None,
                     node_budget: int | None = DEFAULT_NODE_BUDGET
                     ) -> SearchResult:
    """First model of enumerate_expansions on the host as given: the
    unreduced search that find_expansion is tested against."""
    counter = NodeCounter(cap=node_budget)
    try:
        emb = next(enumerate_expansions(h, g, roots, counter))
    except StopIteration:
        return SearchResult(SearchStatus.NONE, None, counter.nodes)
    except BudgetExceeded:
        return SearchResult(SearchStatus.BUDGET, None, counter.nodes)
    return SearchResult(SearchStatus.FOUND, emb, counter.nodes)


def reference_connected_sets(root: int, allowed: int, nbr, max_size: int
                             ) -> Iterator[tuple[int, int]]:
    """The sequence reference for embed._connected_sets_from: the
    recursive generator it replaced, one frame per set size.  Every
    connected subset of the vertex mask allowed that contains root, up
    to max_size vertices, with its members' neighbour masks, in
    depth-first order."""
    def rec(S: int, near: int, size: int, cand: int, banned: int):
        yield S, near
        if size >= max_size:
            return
        for v in _bits(cand & ~banned):
            S2 = S | 1 << v
            yield from rec(S2, near | nbr[v], size + 1,
                           (cand | nbr[v] & allowed) & ~S2 & ~banned, banned)
            banned |= 1 << v

    if allowed >> root & 1 and max_size >= 1:
        yield from rec(1 << root, nbr[root], 1, nbr[root] & allowed, 0)


@cache
def reference_symmetry_floors(h: Graph, pinned: frozenset[str]
                              ) -> tuple[tuple[int, ...],
                                         tuple[tuple[int, ...], ...]]:
    """The reference for the first two parts of embed._symmetry_floors:
    the search order, and per position the earlier vertices whose
    anchors must rank below its own, found by backtracking for an
    automorphism with only a degree filter."""
    adj = labelled_adjacency(h)
    order = tuple(sorted(h.vertices, key=lambda u: (-len(adj[u]), u)))

    def fits(f: dict[str, str], x: str, y: str) -> bool:
        return (len(adj[x]) == len(adj[y])
                and all((z in adj[x]) == (f[z] in adj[y]) for z in f))

    def extends(f: dict[str, str]) -> bool:
        x = max((v for v in order if v not in f), default=None,
                key=lambda v: len(adj[v] & f.keys()))
        if x is None:
            return True
        taken = set(f.values())
        return any(y not in taken and fits(f, x, y) and extends({**f, x: y})
                   for y in order)

    below: list[list[str]] = [[] for _ in order]
    for i, u in enumerate(order):
        if u in pinned:
            continue
        fixed = {v: v for v in (*order[:i], *pinned)}
        for j in range(i + 1, len(order)):
            w = order[j]
            if (w not in pinned and fits(fixed, u, w)
                    and extends({**fixed, u: w})):
                below[j].append(u)
    vidx = h.index.vidx
    return (tuple(vidx[u] for u in order),
            tuple(tuple(vidx[u] for u in b) for b in below))


def reference_branch_set_maps(h: Graph, nbr, alive: int,
                              pins: Mapping[str, int], counter: NodeCounter,
                              admits=None, volume: int | None = None):
    """The sequence reference for embed._branch_set_maps: the recursive
    generator it replaced, one frame per pattern vertex, on
    reference_connected_sets and reference_symmetry_floors.  Yields the
    same live list of branch-set masks, in the same order, with the same
    node count at each yield."""
    hix = h.index
    nh = len(hix.verts)
    ng = alive.bit_count() if volume is None else min(alive.bit_count(), volume)
    if not nh:
        yield []
        return
    if nh > ng:
        return

    order, below = reference_symmetry_floors(h, frozenset(pins))
    pinned = [pins.get(u) for u in hix.verts]
    near_h = [_bits(ns) for ns in hix.nbr]
    ranked = sorted(_bits(alive), key=lambda v: (-nbr[v].bit_count(), v))

    placed = [0] * nh
    anchor: list[int | None] = [None] * nh
    used = 0

    def candidate_ok(p: int, B: int, near: int) -> bool:
        unplaced = 0
        for w in near_h[p]:
            if placed[w]:
                if not near & placed[w]:
                    return False
            else:
                unplaced += 1
        return not unplaced or (near & ~used & ~B).bit_count() >= unplaced

    def candidates(p: int, free: int, max_size: int, floor: int):
        must = pinned[p]
        if must is not None:
            for B, near in reference_connected_sets(must, free, nbr, max_size):
                yield None, B, near
            return
        shrink = free & ~sum(1 << v for v in ranked[:floor + 1])
        for k in range(floor + 1, len(ranked)):
            r = ranked[k]
            if shrink >> r & 1:
                for B, near in reference_connected_sets(r, shrink, nbr,
                                                        max_size):
                    yield k, B, near
                shrink ^= 1 << r

    def rec(i: int):
        nonlocal used
        if i == nh:
            yield placed
            return
        p = order[i]
        max_size = ng - used.bit_count() - (nh - i - 1)
        if max_size < 1:
            return
        floor = max((anchor[w] for w in below[i]), default=-1)
        for k, B, near in candidates(p, alive & ~used, max_size, floor):
            counter.spend()
            if not candidate_ok(p, B, near) or (admits and not admits(p, B)):
                continue
            placed[p] = B
            anchor[p] = k
            used |= B
            yield from rec(i + 1)
            used ^= B
            placed[p] = 0

    yield from rec(0)


def random_regular_graph(rng: random.Random, n: int, d: int = 3) -> Graph:
    """A random simple d-regular graph on n vertices (n * d even), by
    pairing d stubs per vertex and redrawing until no loop or double
    edge appears."""
    labels = [f"u{i:02d}" for i in range(n)]
    while True:
        stubs = [v for v in labels for _ in range(d)]
        rng.shuffle(stubs)
        pairs = {edge(a, b) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(pairs) == n * d // 2:
            return Graph.build(labels, pairs)


def reference_first_without_model(pattern: Graph, host: Graph,
                                  roots: Mapping[str, str] | None,
                                  budget: Budget, sizes
                                  ) -> tuple[SearchStatus, tuple | None,
                                             int, int, int]:
    """verify._first_without_model without its seed of edge-disjoint
    models: the hitting-set tree starts from no known footprint and
    every mask comes from a search of a set it yields.  Same arguments
    and returns (status, X, sets decided, searches, nodes)."""
    ix = host.index
    m = len(ix.edges)
    pins = {u: ix.vidx[v] for u, v in (roots or {}).items()}
    known: list[int] = []
    decided = searches = nodes = 0
    stopped = False

    def search(X: tuple[int, ...]) -> SearchStatus:
        nonlocal searches, nodes, stopped
        if stopped or searches == budget.searches:
            return SearchStatus.BUDGET
        status, fp, spent = _probe(pattern, ix, sum(1 << i for i in X), pins,
                                   budget.nodes)
        searches += 1
        nodes += spent
        if status is SearchStatus.FOUND:
            known.append(fp)
        stopped = status is SearchStatus.BUDGET
        return status

    def first(chosen: int, free: int):
        for X in _hitting_sets(m, s, known, chosen, free):
            status = search(X)
            if status is not SearchStatus.FOUND:
                return X, status
        return None

    for s in sizes:
        got = first(0, -1)
        if got is None:
            decided += comb(m, s)
            continue
        X, status = got
        prefix = 0
        for j in range(s):
            for i in range(prefix.bit_length(), X[j]):
                got = first(prefix | 1 << i, -2 << i)
                if got is not None:
                    X, status = got
                    break
            prefix |= 1 << X[j]
        return (status, tuple(ix.edges[i] for i in X),
                decided + _rank(X, m), searches, nodes)
    return SearchStatus.FOUND, None, decided, searches, nodes
