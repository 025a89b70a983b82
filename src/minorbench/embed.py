"""Expansion search: finding models of one graph as a minor of another.

An expansion model assigns every pattern vertex a branch set (disjoint,
connected subsets of the host) and every pattern edge a distinct host
edge joining the two branch sets.  The searcher enumerates branch sets
for pattern vertices in decreasing degree order, growing candidate sets
from high-degree host anchors, and is exhaustive: a ``NONE`` result is a
proof that no model exists.

The naive oracle at the bottom re-decides the same question by raw
enumeration of vertex-subset partitions and shares no code with the
searcher; it exists so the two can be played against each other.
"""

from __future__ import annotations

import enum
import functools
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from typing import Iterator, Mapping

from .graph import Edge, Graph, GraphError, connected_components, edge

DEFAULT_NODE_BUDGET = 10**7
EXACT_HOST_GUARD = 12  # largest host is_minor() accepts without force
ORACLE_HOST_GUARD = 8


class BudgetExceeded(Exception):
    """Raised internally when a node budget runs out."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"search budget exhausted after {nodes} nodes")


class NodeCounter:
    """Counts search-node expansions against an optional cap."""

    __slots__ = ("nodes", "cap")

    def __init__(self, cap: int | None = DEFAULT_NODE_BUDGET):
        self.nodes = 0
        self.cap = cap

    def spend(self, k: int = 1):
        self.nodes += k
        if self.cap is not None and self.nodes > self.cap:
            raise BudgetExceeded(self.nodes)


def _is_pair(x) -> bool:
    return isinstance(x, list) and len(x) == 2


@dataclass(frozen=True)
class MinorEmbedding:
    """Branch sets plus an injective pattern-edge to host-edge map."""

    branch_sets: Mapping[str, frozenset[str]]
    edge_images: Mapping[Edge, Edge]

    def used_vertices(self) -> frozenset[str]:
        out: set[str] = set()
        for bs in self.branch_sets.values():
            out |= bs
        return frozenset(out)

    def to_json_obj(self) -> dict:
        return {
            "branch_sets": {u: sorted(bs) for u, bs in sorted(self.branch_sets.items())},
            "edge_images": [[list(he), list(ge)]
                            for he, ge in sorted(self.edge_images.items())],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "MinorEmbedding":
        """Inverse of to_json_obj; either endpoint order is accepted."""
        bs = {}
        for u, vs in obj["branch_sets"].items():
            if not isinstance(vs, list):
                raise TypeError(f"branch set of {u!r} is not a list")
            bs[u] = frozenset(vs)
        ei = {}
        for item in obj["edge_images"]:
            if not (_is_pair(item) and all(map(_is_pair, item))):
                raise TypeError(f"edge image {item!r} is not a pair of "
                                f"two-label lists")
            (a, b), (x, y) = item
            ei[edge(a, b)] = edge(x, y)
        return MinorEmbedding(bs, ei)


@dataclass(frozen=True)
class EmbeddingConstraints:
    """Root pins: must_contain puts a host vertex into a pattern
    vertex's branch set."""

    must_contain: Mapping[str, str] = field(default_factory=dict)


class SearchStatus(enum.Enum):
    FOUND = "found"
    NONE = "none"
    BUDGET = "budget-exhausted"


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    embedding: MinorEmbedding | None
    nodes: int


def _check_constraints(h: Graph, g: Graph, c: EmbeddingConstraints):
    for u in c.must_contain:
        if u not in h.vertices:
            raise GraphError(f"constraint on unknown pattern vertex {u!r}")
        if c.must_contain[u] not in g.vertices:
            raise GraphError(f"constraint pins unknown host vertex {c.must_contain[u]!r}")


def _crossing_edges(adj: Mapping[str, frozenset[str]], A: frozenset[str],
                    B: frozenset[str]) -> list[Edge]:
    """Sorted edges with one end in A and the other in B."""
    return sorted({edge(a, b) for a in A for b in adj[a] & B})


def _connected_sets_from(root: str, allowed: frozenset[str],
                         adj: dict[str, frozenset[str]],
                         max_size: int) -> Iterator[frozenset[str]]:
    """All connected subsets of ``allowed`` containing root, each once.

    Candidates already branched on are banned for later siblings, which
    makes every subset reachable along exactly one path.
    """
    def rec(S: frozenset[str], cand: frozenset[str],
            banned: frozenset[str]) -> Iterator[frozenset[str]]:
        yield S
        if len(S) >= max_size:
            return
        new_banned = set(banned)
        for v in sorted(cand - banned):
            S2 = S | {v}
            cand2 = (cand | (adj[v] & allowed)) - S2 - frozenset(new_banned)
            yield from rec(S2, cand2, frozenset(new_banned))
            new_banned.add(v)

    if root not in allowed or max_size < 1:
        return
    yield from rec(frozenset([root]), adj[root] & allowed, frozenset())


def enumerate_expansions(h: Graph, g: Graph,
                         constraints: EmbeddingConstraints | None = None,
                         counter: NodeCounter | None = None
                         ) -> Iterator[MinorEmbedding]:
    """Yield every expansion model of h in g in a fixed canonical order."""
    c = constraints or EmbeddingConstraints()
    _check_constraints(h, g, c)
    if counter is None:
        counter = NodeCounter(cap=None)
    if not h.vertices:
        yield MinorEmbedding({}, {})
        return
    if len(h.vertices) > len(g.vertices):
        return

    adj = g.adjacency()
    h_adj = h.adjacency()
    order = sorted(h.vertices, key=lambda u: (-len(h_adj[u]), u))

    placed: dict[str, frozenset[str]] = {}
    used: set[str] = set()
    ng = len(g.vertices)
    nh = len(order)

    def candidate_ok(u: str, B: frozenset[str]) -> bool:
        unplaced = []
        for w in h_adj[u]:
            if w in placed:
                hit = False
                for a in B:
                    if adj[a] & placed[w]:
                        hit = True
                        break
                if not hit:
                    return False
            else:
                unplaced.append(w)
        if unplaced:
            reach: set[str] = set()
            for a in B:
                reach |= adj[a]
            reach -= used
            reach -= B
            if len(reach) < len(unplaced):
                return False
        return True

    def candidates(u: str, free: frozenset[str], max_size: int
                   ) -> Iterator[frozenset[str]]:
        must = c.must_contain.get(u)
        if must is not None:
            yield from _connected_sets_from(must, free, adj, max_size)
            return
        roots = sorted(free, key=lambda v: (-len(adj[v]), v))
        shrink = set(free)
        for r in roots:
            yield from _connected_sets_from(r, frozenset(shrink), adj, max_size)
            shrink.discard(r)

    def build() -> MinorEmbedding:
        images: dict[Edge, Edge] = {}
        for he in h.sorted_edges():
            u, w = he
            images[he] = _crossing_edges(adj, placed[u], placed[w])[0]
        return MinorEmbedding(dict(placed), images)

    def rec(i: int) -> Iterator[MinorEmbedding]:
        if i == nh:
            yield build()
            return
        u = order[i]
        max_size = ng - len(used) - (nh - i - 1)
        if max_size < 1:
            return
        free = g.vertices - used
        for B in candidates(u, free, max_size):
            counter.spend()
            if not candidate_ok(u, B):
                continue
            placed[u] = B
            used.update(B)
            yield from rec(i + 1)
            used.difference_update(B)
            del placed[u]

    yield from rec(0)


def _search(h: Graph, g: Graph,
            constraints: EmbeddingConstraints | None = None,
            node_budget: int | None = DEFAULT_NODE_BUDGET) -> SearchResult:
    """First model in enumeration order on the host as given: the
    unreduced search, kept as the reference find_expansion is tested
    against."""
    counter = NodeCounter(cap=node_budget)
    gen = enumerate_expansions(h, g, constraints, counter)
    try:
        emb = next(gen)
    except StopIteration:
        return SearchResult(SearchStatus.NONE, None, counter.nodes)
    except BudgetExceeded:
        return SearchResult(SearchStatus.BUDGET, None, counter.nodes)
    return SearchResult(SearchStatus.FOUND, emb, counter.nodes)


def _reduce_host(h: Graph, g: Graph, keep: frozenset[str]
                 ) -> tuple[Graph, dict[str, set[str]]]:
    """Shrink g by deletions and contractions that keep whether h is a
    minor of it.

    If h has minimum degree 2 or more, vertices of degree at most 1 are
    deleted; if 3 or more, a vertex of degree 2 is also contracted into
    its smaller-labelled neighbour, or deleted when its two neighbours
    are already adjacent.  No vertex in keep is removed.  Returns the
    reduced host and the merge map: every surviving vertex that absorbed
    others, with the host vertices contracted into it.  A contracted
    vertex takes its own group along; a deleted one drops it.  The host
    itself comes back when nothing applies.
    """
    low = min((len(ns) for ns in h.adjacency().values()), default=0)
    if low < 2:
        return g, {}
    top = 2 if low >= 3 else 1
    adj = {v: set(ns) for v, ns in g.adjacency().items()}
    merged: dict[str, set[str]] = {}
    todo = sorted(adj)
    while todo:
        v = todo.pop()
        if v in keep or v not in adj or len(adj[v]) > top:
            continue
        ns = sorted(adj.pop(v))
        group = merged.pop(v, set())
        for w in ns:
            adj[w].discard(v)
            todo.append(w)
        if len(ns) == 2 and ns[1] not in adj[ns[0]]:
            a, b = ns
            adj[a].add(b)
            adj[b].add(a)
            group.add(v)
            merged.setdefault(a, set()).update(group)
    if len(adj) == len(g.vertices):
        return g, {}
    return Graph(frozenset(adj),
                 frozenset(edge(a, b) for a in adj for b in adj[a] if a < b)
                 ), merged


def _lift(m: MinorEmbedding, g: Graph, merged: Mapping[str, set[str]]
          ) -> MinorEmbedding:
    """A model on the reduced host, carried back to g by un-contracting.

    An edge image becomes the host edge between the groups of its two
    ends, and each branch set grows by its members' groups, less the
    grown vertices left hanging: parts of paths the model does not use.
    """
    adj = g.adjacency()
    images = {he: _crossing_edges(adj, merged.get(a, set()) | {a},
                                  merged.get(b, set()) | {b})[0]
              for he, (a, b) in m.edge_images.items()}
    ends = {v for e in images.values() for v in e}
    grown = {}
    for u, bs in m.branch_sets.items():
        vs = set(bs).union(*(merged.get(v, ()) for v in bs))
        tips = list(vs - bs - ends)
        while tips:
            v = tips.pop()
            if v in vs and len(adj[v] & vs) < 2:
                vs.remove(v)
                tips.extend(adj[v] & vs - bs - ends)
        grown[u] = frozenset(vs)
    return MinorEmbedding(grown, images)


def find_expansion(h: Graph, g: Graph,
                   constraints: EmbeddingConstraints | None = None,
                   node_budget: int | None = DEFAULT_NODE_BUDGET) -> SearchResult:
    """First expansion model of h in g, or proof of absence, or budget stop.

    The search runs on g reduced by _reduce_host, root-pinned vertices
    kept, and nodes counts that search.  A model found there is lifted
    back to g and checked with verify_embedding.
    """
    c = constraints or EmbeddingConstraints()
    # pinned vertices stay, so the search's own check of c on the
    # reduced host rejects exactly what it would reject on g
    small, merged = _reduce_host(h, g, frozenset(c.must_contain.values()))
    res = _search(h, small, c, node_budget)
    if res.embedding is None or small is g:
        return res
    lifted = _lift(res.embedding, g, merged)
    if not verify_embedding(h, g, lifted):
        raise RuntimeError("a model lifted from the reduced host fails "
                           "verification")
    return SearchResult(res.status, lifted, res.nodes)


def verify_embedding(h: Graph, g: Graph, m: MinorEmbedding) -> bool:
    """Re-check every model invariant; False on any malformation."""
    try:
        if set(m.branch_sets) != set(h.vertices):
            return False
        seen: set[str] = set()
        for u, bs in m.branch_sets.items():
            if not bs or not bs <= g.vertices:
                return False
            if bs & seen:
                return False
            seen |= bs
            if len(g._reach(min(bs), bs)) != len(bs):
                return False
        if set(m.edge_images) != set(h.edges):
            return False
        values = list(m.edge_images.values())
        if len(set(values)) != len(values):
            return False
        for (u, w), ge in m.edge_images.items():
            if ge not in g.edges:
                return False
            a, b = ge
            bu, bw = m.branch_sets[u], m.branch_sets[w]
            if not ((a in bu and b in bw) or (a in bw and b in bu)):
                return False
        return True
    except (TypeError, ValueError):  # unhashable or mistyped parts
        return False


def is_minor(h: Graph, g: Graph, force: bool = False) -> bool:
    """Exact minor test by exhaustive search; guarded by host size."""
    if len(g.vertices) > EXACT_HOST_GUARD and not force:
        raise GraphError(
            f"host has {len(g.vertices)} vertices, over the exact-search guard "
            f"({EXACT_HOST_GUARD}); pass force=True to run anyway")
    res = find_expansion(h, g, None, node_budget=None)
    return res.status is SearchStatus.FOUND


@dataclass(frozen=True)
class MinorPredicate:
    """Hereditary-style property 'contains ``target`` as a minor'."""

    name: str
    target: Graph

    def holds(self, g: Graph) -> bool:
        return is_minor(self.target, g, force=True)


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


def partition_components(h: Graph, anchor: Graph,
                         force: bool = False) -> tuple[list[Graph], list[Graph]]:
    """Split the other components of h by whether the anchor embeds in them.

    Returns (lacking, containing): components without an anchor minor,
    then components with one.  The anchor component itself is excluded
    by identity, not by isomorphism.
    """
    comps = connected_components(h)
    if anchor not in comps:
        raise GraphError("anchor is not a component of the graph")
    lacking: list[Graph] = []
    containing: list[Graph] = []
    for comp in comps:
        if comp.vertices == anchor.vertices:
            continue
        if is_minor(anchor, comp, force=force):
            containing.append(comp)
        else:
            lacking.append(comp)
    return lacking, containing


# -- expansion footprints (for packing and locality scans) ---------------

def _spanning_trees(vs: frozenset[str], adj: Mapping[str, frozenset[str]],
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


def iter_expansion_footprints(h: Graph, g: Graph, counter: NodeCounter
                              ) -> Iterator[tuple[MinorEmbedding, frozenset[Edge]]]:
    """Yield (model, edge footprint), deduplicated, for the expansion
    subgraphs (a spanning tree per branch set plus one host edge per
    pattern edge) whose tree leaves all end an edge image.  Dropping any
    other leaf leaves a smaller one, so every inclusion-minimal one is
    yielded, and every subgraph of g with an h minor contains one."""
    seen: set[frozenset[Edge]] = set()
    adj = g.adjacency()
    hedges = h.sorted_edges()
    trees_of = functools.cache(lambda vs, d: _spanning_trees(vs, adj, d))
    cross = functools.cache(lambda A, B: _crossing_edges(adj, A, B))
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
