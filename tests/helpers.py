"""Shared fixtures: graph builders, corpora, and brute-force oracles.

The oracles here are deliberately slow and definition-shaped; none of
them call into the package's search or decomposition code paths, except
product_footprints, which shares the branch-set enumeration with the
footprint enumerator it checks.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cache, lru_cache
from itertools import combinations, permutations, product
from pathlib import Path

from minorbench import (Graph, MinorEmbedding, NodeCounter, edge,
                        enumerate_expansions, load_core_spec)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

SAFE_LABELS = [f"g{i}" for i in range(12)]


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
    adj = {v: sorted(ns) for v, ns in g.adjacency().items()}
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


# -- independent hitting-set oracle -------------------------------------------

def oracle_min_hitting(h: Graph, g: Graph) -> int | None:
    """Smallest deletion set killing every h-expansion, by raw search.

    Uses the naive partition-enumeration minor oracle as the inner
    test, so it shares nothing with the engine's search or the hitting
    routine under test.
    """
    from minorbench import delete_edges, naive_is_minor_oracle
    if not naive_is_minor_oracle(h, g):
        return 0
    es = g.sorted_edges()
    for s in range(1, len(es) + 1):
        for X in combinations(es, s):
            if not naive_is_minor_oracle(h, delete_edges(g, X)):
                return s
    return None


# -- footprint oracle ----------------------------------------------------------

def _all_spanning_trees(vs: frozenset, g: Graph) -> list[frozenset]:
    """Every spanning tree of the induced subgraph on vs: the sets of
    len(vs) - 1 of its edges that connect vs, in combinations order."""
    inner = sorted(e for e in g.edges if e[0] in vs and e[1] in vs)
    return [frozenset(combo) for combo in combinations(inner, len(vs) - 1)
            if Graph(vs, frozenset(combo)).is_connected()]


def product_footprints(h: Graph, g: Graph, counter: NodeCounter):
    """Yield (model, edge footprint) for every expansion subgraph: each
    model of enumerate_expansions with every choice of a spanning tree
    per branch set and a host edge per pattern edge, footprints
    deduplicated.  The full product that iter_expansion_footprints
    prunes; it shares only the branch-set enumeration with it.
    """
    seen: set[frozenset] = set()
    trees_of = cache(lambda vs: _all_spanning_trees(vs, g))
    for emb in enumerate_expansions(h, g, None, counter):
        hverts = sorted(emb.branch_sets)
        tree_choices = [trees_of(emb.branch_sets[u]) for u in hverts]
        hedges = h.sorted_edges()
        image_choices = []
        for u, w in hedges:
            bu, bw = emb.branch_sets[u], emb.branch_sets[w]
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
                final = MinorEmbedding(dict(emb.branch_sets),
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
