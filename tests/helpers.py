"""Shared fixtures: graph builders, corpora, and brute-force oracles.

The oracles here are deliberately slow and definition-shaped; none of
them call into the package's search or decomposition code paths.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path

from minorbench import Graph, edge, load_core_spec

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
