"""Expansion search: finding models of one graph as a minor of another.

An expansion model assigns every pattern vertex a branch set (disjoint,
connected subsets of the host) and every pattern edge a distinct host
edge joining the two branch sets.  The searcher enumerates branch sets
for pattern vertices in decreasing degree order, growing candidate sets
from high-degree host anchors, keeps one model per orbit of the
pattern's automorphisms, and is exhaustive: a ``NONE`` result is a
proof that no model exists.

The naive oracle, naive_is_minor_oracle, re-decides the same question
by raw enumeration of vertex-subset partitions and shares no code with
the searcher; it exists so the two can be played against each other.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Callable, Iterator, Mapping

from .graph import Edge, Graph, GraphError, connected_components, edge

DEFAULT_NODE_BUDGET = 10**7
ORACLE_HOST_GUARD = 8


class BudgetExceeded(Exception):
    """Raised when a node budget runs out, in a search or in is_minor."""

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


class SearchStatus(enum.Enum):
    FOUND = "found"
    NONE = "none"
    BUDGET = "budget-exhausted"


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    embedding: MinorEmbedding | None
    nodes: int


def _check_roots(h: Graph, g: Graph, roots: Mapping[str, str]):
    for u, v in roots.items():
        if u not in h.vertices:
            raise GraphError(f"root pin on unknown pattern vertex {u!r}")
        if v not in g.vertices:
            raise GraphError(f"root pin on unknown host vertex {v!r}")


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


@functools.cache
def _symmetry_floors(h: Graph, pinned: frozenset[str]
                     ) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
    """The search order of h's vertices, and for each position the
    earlier vertices whose anchors must rank below its own.

    G_i is the group of automorphisms of h that fix order[:i] and every
    pinned vertex.  Every other vertex w in the G_i-orbit of an unpinned
    order[i] must anchor after order[i].  Anchors of distinct branch sets
    are distinct, so these constraints keep exactly the models that are
    lex-least in their orbit (a stabilizer chain's lex-leader).  w is in
    the orbit when backtracking finds an automorphism that fixes order[:i]
    and the pins and sends order[i] to w.
    """
    adj = h.adjacency()
    order = tuple(sorted(h.vertices, key=lambda u: (-len(adj[u]), u)))

    def fits(f: dict[str, str], x: str, y: str) -> bool:
        return (len(adj[x]) == len(adj[y])
                and all((z in adj[x]) == (f[z] in adj[y]) for z in f))

    def extends(f: dict[str, str]) -> bool:
        # the vertex with the most mapped neighbours, so that a wrong
        # image fails early
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
    return order, tuple(map(tuple, below))


def enumerate_expansions(h: Graph, g: Graph,
                         roots: Mapping[str, str] | None = None,
                         counter: NodeCounter | None = None
                         ) -> Iterator[MinorEmbedding]:
    """Yield every expansion model of h in g up to the automorphisms of h
    that fix the pins, in a fixed canonical order; roots pins pattern
    vertices to host vertices in their branch sets.  Of each orbit comes
    the model first in that order: each unpinned branch set's anchor, its
    first vertex in root order, ranks after those _symmetry_floors name.
    Each edge image is the first host edge joining its two branch sets.
    """
    roots = roots or {}
    _check_roots(h, g, roots)
    if counter is None:
        counter = NodeCounter(cap=None)
    adj = g.adjacency()
    hedges = h.sorted_edges()
    for placed in _branch_set_maps(h, g, roots, counter):
        yield MinorEmbedding(dict(placed), {
            he: _crossing_edges(adj, placed[he[0]], placed[he[1]])[0]
            for he in hedges})


def _branch_set_maps(h: Graph, g: Graph, roots: Mapping[str, str],
                     counter: NodeCounter,
                     admits: Callable[[str, frozenset[str]], bool] | None
                     = None) -> Iterator[dict[str, frozenset[str]]]:
    """The branch sets of enumerate_expansions' models, in its order, as
    one live map that the next step changes: copy it to keep it.  A
    candidate set that admits rejects is dropped after it is counted,
    with everything that would extend it."""
    if not h.vertices:
        yield {}
        return
    if len(h.vertices) > len(g.vertices):
        return

    adj = g.adjacency()
    h_adj = h.adjacency()
    order, below = _symmetry_floors(h, frozenset(roots))
    ranked = sorted(g.vertices, key=lambda v: (-len(adj[v]), v))

    placed: dict[str, frozenset[str]] = {}
    anchor: dict[str, int | None] = {}
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

    def candidates(u: str, free: frozenset[str], max_size: int, floor: int
                   ) -> Iterator[tuple[int | None, frozenset[str]]]:
        """(anchor rank, branch set) pairs; an unpinned set is grown from
        its anchor, which avoids the free roots before it and ranks
        after floor.  A pinned vertex is in no orbit: no anchor."""
        must = roots.get(u)
        if must is not None:
            yield from ((None, B) for B in
                        _connected_sets_from(must, free, adj, max_size))
            return
        shrink = set(free).difference(ranked[:floor + 1])
        for k, r in enumerate(ranked[floor + 1:], floor + 1):
            if r in shrink:
                for B in _connected_sets_from(r, frozenset(shrink), adj,
                                              max_size):
                    yield k, B
                shrink.discard(r)

    def rec(i: int) -> Iterator[dict[str, frozenset[str]]]:
        if i == nh:
            yield placed
            return
        u = order[i]
        max_size = ng - len(used) - (nh - i - 1)
        if max_size < 1:
            return
        floor = max((anchor[w] for w in below[i]), default=-1)
        for k, B in candidates(u, g.vertices - used, max_size, floor):
            counter.spend()
            if not candidate_ok(u, B) or (admits and not admits(u, B)):
                continue
            placed[u] = B
            anchor[u] = k
            used.update(B)
            yield from rec(i + 1)
            used.difference_update(B)
            del placed[u]

    yield from rec(0)


def _search(h: Graph, g: Graph, roots: Mapping[str, str] | None = None,
            node_budget: int | None = DEFAULT_NODE_BUDGET) -> SearchResult:
    """First model in enumeration order on the host as given: the
    unreduced search, kept as the reference find_expansion is tested
    against."""
    counter = NodeCounter(cap=node_budget)
    gen = enumerate_expansions(h, g, roots, counter)
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


def find_expansion(h: Graph, g: Graph, roots: Mapping[str, str] | None = None,
                   node_budget: int | None = DEFAULT_NODE_BUDGET) -> SearchResult:
    """First expansion model of h in g, or proof of absence, or budget stop.

    The search runs on g reduced by _reduce_host, root-pinned vertices
    kept, and nodes counts that search.  A model found there is lifted
    back to g and checked with verify_embedding.
    """
    roots = roots or {}
    # pinned vertices stay, so the search's own check of roots on the
    # reduced host rejects exactly what it would reject on g
    small, merged = _reduce_host(h, g, frozenset(roots.values()))
    res = _search(h, small, roots, node_budget)
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


def is_minor(h: Graph, g: Graph) -> bool:
    """Exact minor test on a host of any size: find_expansion under
    DEFAULT_NODE_BUDGET, read at each call; BudgetExceeded if it runs out."""
    res = find_expansion(h, g, None, node_budget=DEFAULT_NODE_BUDGET)
    if res.status is SearchStatus.BUDGET:
        raise BudgetExceeded(res.nodes)
    return res.status is SearchStatus.FOUND


@dataclass(frozen=True)
class MinorPredicate:
    """Hereditary-style property 'contains ``target`` as a minor'."""

    name: str
    target: Graph

    def holds(self, g: Graph) -> bool:
        return is_minor(self.target, g)


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


def partition_components(h: Graph, anchor: Graph
                         ) -> tuple[list[Graph], list[Graph]]:
    """Split the other components of h by whether the anchor embeds in them.

    Returns (lacking, containing): components without an anchor minor,
    then components with one.  The anchor component itself is excluded
    by identity, not by isomorphism.  Each test is an is_minor call, so
    BudgetExceeded may propagate.
    """
    comps = connected_components(h)
    if anchor not in comps:
        raise GraphError("anchor is not a component of the graph")
    lacking: list[Graph] = []
    containing: list[Graph] = []
    for comp in comps:
        if comp.vertices == anchor.vertices:
            continue
        if is_minor(anchor, comp):
            containing.append(comp)
        else:
            lacking.append(comp)
    return lacking, containing


# -- expansion footprints (for packing and locality scans) ---------------

def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _spanning_trees(vs: int, most: int, ends: list[tuple[int, int]],
                    inc: list[int]) -> list[tuple[int, int]]:
    """Spanning trees of the subgraph induced on the vertex mask vs with
    at most most leaves, as (edge mask, leaf mask) pairs.  Edge k joins
    the vertices ends[k], and inc[v] is the mask of the edges at v;
    vertices and edges are numbered in sorted order.

    Grown from the lowest vertex, the lowest edge leaving the tree is
    taken or banned, so each tree comes once.  The frontier, the edges
    leaving the tree, changes by the new vertex's edges inside vs.  An
    edge that would give a tree vertex more than most tree edges is not
    taken: such a tree has more than most leaves.  A vertex with one
    edge inside vs is a leaf of every tree, so more than most of them
    leave no tree at all.
    """
    inside = {v: sum(1 << k for k in _bits(inc[v])
                     if vs >> ends[k][0] & vs >> ends[k][1] & 1)
              for v in _bits(vs)}
    out = []

    def grow(tree: int, leaves: int, reached: int, frontier: int,
             banned: int):
        if reached == vs:
            if leaves.bit_count() <= most:
                out.append((tree, leaves))
            return
        free = frontier & ~banned
        if not free:
            return
        cut = free & -free
        a, b = ends[cut.bit_length() - 1]
        if reached >> b & 1:
            a, b = b, a
        d = (tree & inside[a]).bit_count()
        if d < most:
            # a is a leaf from its first tree edge to its second
            grow(tree | cut, (leaves | 1 << b) ^ (1 << a if d <= 1 else 0),
                 reached | 1 << b, frontier ^ inside[b], banned)
        grow(tree, leaves, reached, frontier, banned | cut)

    if sum(e.bit_count() == 1 for e in inside.values()) > most:
        return out
    root = vs & -vs
    grow(0, 0, root, inside[root.bit_length() - 1], 0)
    return out


def iter_expansion_footprints(h: Graph, g: Graph, counter: NodeCounter
                              ) -> Iterator[tuple[MinorEmbedding, frozenset[Edge]]]:
    """Yield (model, edge footprint), deduplicated, for the expansion
    subgraphs (a spanning tree per branch set plus one host edge per
    pattern edge) whose tree leaves all end an edge image.  Dropping any
    other leaf leaves a smaller one, so every inclusion-minimal one is
    yielded, and every subgraph of g with an h minor contains one.

    Footprints are bit masks over g.sorted_edges().  Per branch set, the
    trees come in _spanning_trees' order; a branch set with none is
    rejected as it is placed.  Per tree combination, the image choices
    run over the pattern edges in sorted order, each over its candidate
    host edges in order, and a partial choice is dropped once some
    pattern vertex has more leaves left to end an image than pattern
    edges left to place.  The choices depend only on each branch set's
    leaves and candidate image ends, and are shared by every combination
    with the same ones.  Both caches live for one call.  counter counts
    the branch sets tried and every (tree combination, image choice)
    that passes the leaf rule.
    """
    verts = sorted(g.vertices)
    vidx = {v: i for i, v in enumerate(verts)}
    edges = g.sorted_edges()
    ends = [(vidx[a], vidx[b]) for a, b in edges]
    inc = [0] * len(verts)
    for k, (a, b) in enumerate(ends):
        inc[a] |= 1 << k
        inc[b] |= 1 << k
    hverts = sorted(h.vertices)
    hedges = h.sorted_edges()
    deg = {u: h.degree(u) for u in hverts}
    at = [(hverts.index(u), hverts.index(w)) for u, w in hedges]
    # left[j][p]: the pattern edges at hverts[p] after hedges[j]
    left = [[sum(p in pq for pq in at[j + 1:]) for p in range(len(hverts))]
            for j in range(len(at))]

    @functools.cache
    def trees_of(vs: frozenset[str], most: int) -> list[tuple[int, int, int]]:
        """(tree, leaves, image ends): with as many leaves as images,
        each image ends at a leaf."""
        mask = sum(1 << vidx[v] for v in vs)
        return [(t, lv, lv if lv.bit_count() == most else mask)
                for t, lv in _spanning_trees(mask, most, ends, inc)]

    @functools.cache
    def choices(leaves: tuple[int, ...], image_ends: tuple[int, ...]
                ) -> list[int]:
        # reach[p]: the host edges at hverts[p]'s image ends
        reach = [functools.reduce(int.__or__, map(inc.__getitem__, _bits(e)),
                                  0) for e in image_ends]
        # (images, the leaves no image ends yet)
        partial = [(0, functools.reduce(int.__or__, leaves, 0))]
        for j, (p, q) in enumerate(at):
            cands = _bits(reach[p] & reach[q])
            grown = []
            for images, open_ in partial:
                for k in cands:
                    a, b = ends[k]
                    rest = open_ & ~(1 << a | 1 << b)
                    if ((rest & leaves[p]).bit_count() <= left[j][p]
                            and (rest & leaves[q]).bit_count() <= left[j][q]):
                        grown.append((images | 1 << k, rest))
            partial = grown
        return [images for images, _ in partial]

    seen: set[int] = set()
    for bs in _branch_set_maps(h, g, {}, counter,
                               lambda u, B: bool(trees_of(B, deg[u]))):
        for trees in product(*(trees_of(bs[u], deg[u]) for u in hverts)):
            base = 0
            for t, _, _ in trees:
                base |= t
            for images in choices(tuple(lv for _, lv, _ in trees),
                                  tuple(e for _, _, e in trees)):
                counter.spend()
                usage = base | images
                if usage not in seen:
                    seen.add(usage)
                    owner = {v: u for u, B in bs.items() for v in B}
                    image = {edge(owner[a], owner[b]): (a, b)
                             for a, b in map(edges.__getitem__, _bits(images))}
                    yield (MinorEmbedding(dict(bs),
                                          {he: image[he] for he in hedges}),
                           frozenset(edges[k] for k in _bits(usage)))
