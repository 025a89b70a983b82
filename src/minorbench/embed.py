"""Expansion search: finding models of one graph as a minor of another.

An expansion model assigns every pattern vertex a branch set (disjoint,
connected subsets of the host) and every pattern edge a distinct host
edge joining the two branch sets.  The searcher enumerates branch sets
for pattern vertices in decreasing degree order, growing candidate sets
from high-degree host anchors, keeps one model per orbit of the
pattern's automorphisms, and is exhaustive: a ``NONE`` result is a
proof that no model exists.

The search, host reduction, lift, verifier and footprint enumeration
run on the host's Index, with vertex and edge sets as int bit masks in
label order; labels come back only at the public functions.
"""

from __future__ import annotations

import enum
import functools
from itertools import product
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .graph import Edge, Graph, GraphError, Index, _bits, _reach, edge

__all__ = [
    "DEFAULT_NODE_BUDGET", "BudgetExceeded", "MinorEmbedding",
    "MinorPredicate", "NodeCounter", "SearchResult", "SearchStatus",
    "enumerate_expansions", "find_expansion", "iter_expansion_footprints",
    "is_minor", "verify_embedding",
]

DEFAULT_NODE_BUDGET = 10**7


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

    def spend(self):
        self.nodes += 1
        if self.cap is not None and self.nodes > self.cap:
            raise BudgetExceeded(self.nodes)


def _is_pair(x) -> bool:
    return isinstance(x, list) and len(x) == 2


class MinorEmbedding(NamedTuple):
    """Branch sets plus an injective pattern-edge to host-edge map."""

    branch_sets: Mapping[str, frozenset[str]]
    edge_images: Mapping[Edge, Edge]

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


class SearchResult(NamedTuple):
    status: SearchStatus
    embedding: MinorEmbedding | None
    nodes: int


def _check_roots(h: Graph, g: Graph, roots: Mapping[str, str]):
    for u, v in roots.items():
        if u not in h.vertices:
            raise GraphError(f"root pin on unknown pattern vertex {u!r}")
        if v not in g.vertices:
            raise GraphError(f"root pin on unknown host vertex {v!r}")


# -- the indexed core: a host is its adjacency masks nbr over an Index ----

# (branch, images): the vertex mask of each pattern vertex's branch set
# and the vertex pair of each pattern edge's image, in the pattern's Index
Model = tuple[list[int], list[tuple[int, int]]]


def _first_edge(nbr: Sequence[int], A: int, B: int) -> tuple[int, int]:
    """The first edge in label order from the vertex mask A to the
    disjoint mask B, as its (smaller, larger) vertex pair."""
    both = A | B
    while both:
        low = both & -both
        later = nbr[low.bit_length() - 1] & (B if A & low else A) & -(low << 1)
        if later:
            return low.bit_length() - 1, (later & -later).bit_length() - 1
        both ^= low
    raise ValueError("no edge joins the two vertex sets")


def _labelled(h: Graph, ix: Index, model: Model) -> MinorEmbedding:
    branch, images = model
    verts = ix.verts
    return MinorEmbedding(
        {u: frozenset(verts[v] for v in _bits(B))
         for u, B in zip(h.index.verts, branch)},
        {he: (verts[a], verts[b])
         for he, (a, b) in zip(h.index.edges, images)})


def _unlabelled(h: Graph, ix: Index, m: MinorEmbedding) -> Model:
    vidx = ix.vidx
    return ([sum(1 << vidx[v] for v in m.branch_sets[u])
             for u in h.index.verts],
            [(vidx[a], vidx[b])
             for a, b in map(m.edge_images.__getitem__, h.index.edges)])


def _connected_sets_from(root: int, allowed: int, nbr: Sequence[int],
                         max_size: int) -> Iterator[tuple[int, int]]:
    """All connected subsets of the vertex mask allowed that contain
    root, each once, with the union of their members' neighbour masks,
    in depth-first order.  An explicit stack keeps one frame per set
    size: the set, its neighbour mask, its candidates and its closed
    mask (the set, the candidates banned for it, and its children so
    far); its open candidates, taken lowest first, are the rest.
    Candidates already branched on are banned for later siblings, which
    makes every subset reachable along exactly one path.
    """
    if not (allowed >> root & 1 and max_size >= 1):
        return
    S = 1 << root
    yield S, nbr[root]
    top = max_size - 1
    if not top:
        return
    # frame d holds a set of d + 1 vertices
    sets, nears = [S] * top, [nbr[root]] * top
    cands, closed = [nbr[root] & allowed] * top, [S] * top
    d = 0
    while d >= 0:
        cand, shut = cands[d], closed[d]
        open_ = cand & ~shut
        if not open_:
            d -= 1
            continue
        low = open_ & -open_
        closed[d] = shut = shut | low
        S = sets[d] | low
        ns = nbr[low.bit_length() - 1]
        near = nears[d] | ns
        yield S, near
        if d + 1 < top:
            cand = (cand | ns & allowed) & ~shut
            if cand:
                d += 1
                sets[d], nears[d], cands[d], closed[d] = S, near, cand, shut


@functools.cache
def _symmetry_floors(h: Graph, pinned: frozenset[str]
                     ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...],
                                tuple[tuple[tuple[int, ...], int], ...]]:
    """The search order of h's vertices; for each position the earlier
    vertices whose anchors must rank below its own; and for each
    position its neighbours placed before it and the number placed
    after.  Vertices are positions in h.index.

    G_i is the group of automorphisms of h that fix order[:i] and every
    pinned vertex.  Every other vertex w in the G_i-orbit of an unpinned
    order[i] must anchor after order[i].  Anchors of distinct branch sets
    are distinct, so these constraints keep exactly the models that are
    lex-least in their orbit (a stabilizer chain's lex-leader).  w is in
    the orbit when backtracking finds an automorphism that fixes order[:i]
    and the pins and sends order[i] to w.  Colour refinement prunes
    first: G_i keeps the colours refined from order[:i] and the pins
    individualised, and an automorphism extending a partial map f keeps
    colours between the refinements from f's sources and its images.
    """
    nbr = h.index.nbr
    adj = [_bits(ns) for ns in nbr]
    vs = range(len(nbr))
    order = tuple(sorted(vs, key=lambda u: (-len(adj[u]), u)))
    pins = [h.index.vidx[v] for v in pinned]

    def fits(f: dict[int, int], x: int, y: int) -> bool:
        return (len(adj[x]) == len(adj[y])
                and all((nbr[x] >> z & 1) == (nbr[y] >> f[z] & 1) for z in f))

    def colours(f: dict[int, int]) -> tuple[list[int], list[int]]:
        """Colour refinement on two copies of h at once, until no class
        splits: the k-th pair of f is coloured k in both, its source in
        the first copy and its image in the second, and the rest 0."""
        a = [0] * len(vs)
        b = list(a)
        for k, (x, y) in enumerate(f.items(), 1):
            a[x] = b[y] = k
        while True:
            sigs = [[(c[v], *sorted(c[z] for z in adj[v])) for v in vs]
                    for c in (a, b)]
            ids = {s: k for k, s in enumerate({*sigs[0], *sigs[1]})}
            if len(ids) == len({*a, *b}):
                return a, b
            a, b = ([ids[s] for s in sig] for sig in sigs)

    def extends(f: dict[int, int], a: list[int], b: list[int]) -> bool:
        # the vertex with the most mapped neighbours, so that a wrong
        # image fails early
        done = sum(1 << z for z in f)
        x = max((v for v in order if v not in f), default=None,
                key=lambda v: (nbr[v] & done).bit_count())
        if x is None:
            return True
        taken = set(f.values())
        return any(y not in taken and b[y] == a[x] and fits(f, x, y)
                   and extends({**f, x: y}, a, b) for y in order)

    below: list[list[int]] = [[] for _ in order]
    for i, u in enumerate(order):
        if u in pins:
            continue
        fixed = {v: v for v in (*order[:i], *pins)}
        same = colours(fixed)[0]
        for j in range(i + 1, len(order)):
            w = order[j]
            f = {**fixed, u: w}
            if (w not in pins and same[w] == same[u] and fits(fixed, u, w)
                    and extends(f, *colours(f))):
                below[j].append(u)
    rank = {u: i for i, u in enumerate(order)}
    return (order, tuple(map(tuple, below)),
            tuple((tuple(w for w in adj[u] if rank[w] < i),
                   sum(rank[w] > i for w in adj[u]))
                  for i, u in enumerate(order)))


def _branch_set_maps(h: Graph, nbr: Sequence[int], alive: int,
                     pins: Mapping[str, int], counter: NodeCounter,
                     admits: Callable[[int, int], bool] | None = None,
                     volume: int | None = None) -> Iterator[list[int]]:
    """The branch sets of enumerate_expansions' models, in its order, on
    the host with adjacency masks nbr restricted to the vertex mask
    alive.  pins maps pattern vertices to host vertex indices.  Branch
    sets come as one live list of vertex masks, in h.index order, that
    the next step changes: copy it to keep it.  A candidate set that
    admits(position, set) rejects is dropped after it is counted, with
    everything that would extend it.  volume, if given, caps the branch
    sets' total size: larger sets are not grown.

    One loop walks up and down a list of candidate iterators, one per
    position of the search order: a candidate that fits steps down, an
    exhausted iterator steps back up and takes the set above back.  A
    candidate is one node, counted before it is checked; counter is
    brought up to date at each yield and stop.
    """
    hix = h.index
    nh = len(hix.verts)
    ng = alive.bit_count() if volume is None else min(alive.bit_count(), volume)
    if not nh:
        yield []
        return
    if nh > ng:
        return

    order, below, near_h = _symmetry_floors(h, frozenset(pins))
    pinned = [pins.get(u) for u in hix.verts]
    ranked = [v for _, v in sorted([(-nbr[v].bit_count(), v)
                                    for v in _bits(alive)])]

    def candidates(p: int, free: int, max_size: int, floor: int
                   ) -> Iterator[tuple[int | None, int, int]]:
        """(anchor rank, branch set, its neighbours) triples; an unpinned
        set is grown from its anchor, which avoids the free roots before
        it and ranks after floor.  A pinned vertex is in no orbit: no
        anchor."""
        must = pinned[p]
        if must is not None:
            for B, near in _connected_sets_from(must, free, nbr, max_size):
                yield None, B, near
            return
        shrink = free & ~sum(1 << v for v in ranked[:floor + 1])
        for k in range(floor + 1, len(ranked)):
            r = ranked[k]
            if shrink >> r & 1:
                for B, near in _connected_sets_from(r, shrink, nbr, max_size):
                    yield k, B, near
                shrink ^= 1 << r

    placed = [0] * nh  # read only at positions before the current one
    anchor: list[int | None] = [None] * nh
    its: list[Iterator[tuple[int | None, int, int]]] = [iter(())] * nh
    cap, nodes = counter.cap, counter.nodes
    used = 0
    i, entering = 0, True
    while i >= 0:
        p = order[i]
        earlier, later = near_h[i]
        if entering:
            max_size = ng - used.bit_count() - (nh - i - 1)
            floor = max((anchor[w] for w in below[i]), default=-1)
            its[i] = candidates(p, alive & ~used, max_size, floor)
        else:
            used ^= placed[p]
        for k, B, near in its[i]:
            nodes += 1
            if cap is not None and nodes > cap:
                counter.nodes = nodes
                raise BudgetExceeded(nodes)
            for w in earlier:
                if not near & placed[w]:
                    break
            else:  # B touches every placed neighbour
                if ((later and (near & ~used & ~B).bit_count() < later)
                        or (admits and not admits(p, B))):
                    continue
                placed[p] = B
                anchor[p] = k
                if i + 1 == nh:
                    counter.nodes = nodes
                    yield placed
                    nodes = counter.nodes
                    continue
                used |= B
                i, entering = i + 1, True
                break
        else:
            i, entering = i - 1, False
    counter.nodes = nodes


def _models(h: Graph, nbr: Sequence[int], alive: int,
            pins: Mapping[str, int], counter: NodeCounter) -> Iterator[Model]:
    """The models of _branch_set_maps, each edge image the first host
    edge joining its two branch sets."""
    for branch in _branch_set_maps(h, nbr, alive, pins, counter):
        yield list(branch), [_first_edge(nbr, branch[p], branch[q])
                             for p, q in h.index.ends]


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
    ix = g.index
    pins = {u: ix.vidx[v] for u, v in roots.items()}
    for model in _models(h, ix.nbr, (1 << len(ix.verts)) - 1, pins, counter):
        yield _labelled(h, ix, model)


def _reduce_host(h: Graph, nbr: Sequence[int], alive: int, keep: int
                 ) -> tuple[Sequence[int], int, dict[int, int]]:
    """Shrink the host with adjacency masks nbr inside the vertex mask
    alive by deletions and contractions that keep whether h is a minor.

    If h has minimum degree 2 or more, vertices of degree at most 1 are
    deleted; if 3 or more, a vertex of degree 2 is also contracted into
    its smaller neighbour, or deleted when its two neighbours are already
    adjacent.  No vertex in the mask keep is removed.  Returns the
    reduced adjacency (nbr itself when nothing leaves alive, else a new
    list), the mask of the vertices left, and the merge map: every
    surviving vertex that absorbed others, with the mask of the host
    vertices contracted into it.  A contracted vertex takes its own
    group along; a deleted one drops it.
    """
    low = min((ns.bit_count() for ns in h.index.nbr), default=0)
    if low < 2:
        return nbr, alive, {}
    top = 2 if low >= 3 else 1
    out = list(nbr)
    left = alive
    merged: dict[int, int] = {}
    todo = _bits(alive)
    while todo:
        v = todo.pop()
        ns = out[v]
        if ns.bit_count() > top or keep >> v & 1 or not left >> v & 1:
            continue
        left ^= 1 << v
        out[v] = 0
        group = merged.pop(v, 0)
        ws = _bits(ns)
        for w in ws:
            out[w] ^= 1 << v
        todo.extend(ws)
        if len(ws) == 2:
            a, b = ws
            if not out[a] >> b & 1:
                out[a] |= 1 << b
                out[b] |= 1 << a
                merged[a] = merged.get(a, 0) | group | 1 << v
    return (nbr, alive, {}) if left == alive else (out, left, merged)


def _lift(model: Model, nbr: Sequence[int], merged: Mapping[int, int]
          ) -> Model:
    """A model on the reduced host, carried back by un-contracting to
    the host with adjacency masks nbr.

    An edge image becomes the host edge between the groups of its two
    ends, and each branch set grows by its members' groups, less the
    grown vertices left hanging: parts of paths the model does not use.
    """
    branch, images = model
    lifted = [_first_edge(nbr, merged.get(a, 0) | 1 << a,
                          merged.get(b, 0) | 1 << b) for a, b in images]
    ends = 0
    for a, b in lifted:
        ends |= 1 << a | 1 << b
    grown = []
    for B in branch:
        vs = B
        for v in _bits(B):
            vs |= merged.get(v, 0)
        tips = vs & ~B & ~ends
        while tips:
            low = tips & -tips
            tips ^= low
            inner = nbr[low.bit_length() - 1] & vs
            if inner.bit_count() < 2:
                vs ^= low
                tips |= inner & ~B & ~ends
        grown.append(vs)
    return grown, lifted


def _verifies(h: Graph, nbr: Sequence[int], model: Model) -> bool:
    """Whether model is an h model on the host with adjacency masks nbr:
    nonempty, disjoint, connected branch sets, and distinct host edges
    as images, each joining its pattern edge's two branch sets."""
    branch, images = model
    seen = 0
    for B in branch:
        if not B or B & seen or _reach(nbr, B) != B:
            return False
        seen |= B
    if len(set(images)) != len(images):
        return False
    for (p, q), (a, b) in zip(h.index.ends, images):
        x, y = branch[p], branch[q]
        if not (nbr[a] >> b & 1 and (x >> a & y >> b | y >> a & x >> b) & 1):
            return False
    return True


def _find(h: Graph, nbr: Sequence[int], alive: int, pins: Mapping[str, int],
          node_budget: int | None) -> tuple[SearchStatus, Model | None, int]:
    """find_expansion on the host with adjacency masks nbr inside the
    vertex mask alive, pins mapping pattern vertices to host vertex
    indices: (status, model, nodes)."""
    keep = sum(1 << v for v in set(pins.values()))
    small, alive, merged = _reduce_host(h, nbr, alive, keep)
    counter = NodeCounter(cap=node_budget)
    try:
        model = next(_models(h, small, alive, pins, counter), None)
    except BudgetExceeded:
        return SearchStatus.BUDGET, None, counter.nodes
    if model is None:
        return SearchStatus.NONE, None, counter.nodes
    if small is not nbr:
        model = _lift(model, nbr, merged)
        if not _verifies(h, nbr, model):
            raise RuntimeError("a model lifted from the reduced host fails "
                               "verification")
    return SearchStatus.FOUND, model, counter.nodes


def find_expansion(h: Graph, g: Graph, roots: Mapping[str, str] | None = None,
                   node_budget: int | None = DEFAULT_NODE_BUDGET) -> SearchResult:
    """First expansion model of h in g, or proof of absence, or budget stop.

    The search runs on g's Index reduced by _reduce_host, root-pinned
    vertices kept, and nodes counts that search.  _find lifts a model
    found on a reduced host back to g and verifies it.
    """
    roots = roots or {}
    _check_roots(h, g, roots)
    ix = g.index
    status, model, nodes = _find(h, ix.nbr, (1 << len(ix.verts)) - 1,
                                 {u: ix.vidx[v] for u, v in roots.items()},
                                 node_budget)
    return SearchResult(status, None if model is None
                        else _labelled(h, ix, model), nodes)


def verify_embedding(h: Graph, g: Graph, m: MinorEmbedding) -> bool:
    """Re-check every model invariant; False on any malformation.  The
    labels are checked here, the model on g's Index by _verifies."""
    try:
        if (set(m.branch_sets) != set(h.vertices)
                or set(m.edge_images) != set(h.edges)
                or not all(bs <= g.vertices for bs in m.branch_sets.values())
                or not set(m.edge_images.values()) <= g.edges):
            return False
        return _verifies(h, g.index.nbr, _unlabelled(h, g.index, m))
    except (TypeError, ValueError):  # unhashable or mistyped parts
        return False


def is_minor(h: Graph, g: Graph) -> bool:
    """Exact minor test on a host of any size: _find on g's Index under
    DEFAULT_NODE_BUDGET, read at each call; BudgetExceeded if it runs out."""
    status, _, nodes = _find(h, g.index.nbr, (1 << len(g.vertices)) - 1,
                             {}, DEFAULT_NODE_BUDGET)
    if status is SearchStatus.BUDGET:
        raise BudgetExceeded(nodes)
    return status is SearchStatus.FOUND


class MinorPredicate(NamedTuple):
    """Hereditary-style property 'contains ``target`` as a minor'."""

    name: str
    target: Graph

    def holds(self, g: Graph) -> bool:
        return is_minor(self.target, g)


# -- expansion footprints (for packing and locality scans) ---------------

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


def _footprints(h: Graph, ix: Index, counter: NodeCounter,
                volume: int | None = None) -> Iterator[tuple[Model, int]]:
    """Yield (model, footprint as a mask over ix's edges), deduplicated
    by footprint, for the expansion subgraphs (a spanning tree per
    branch set plus one host edge per pattern edge) whose tree leaves
    all end an edge image.  Dropping any other leaf leaves a smaller
    one, so every inclusion-minimal one is yielded, and every subgraph
    of the host with an h minor contains one.

    Per branch set, the trees come in _spanning_trees' order; a branch
    set with none is rejected as it is placed.  Per tree combination,
    the image choices run over the pattern edges in sorted order, each
    over its candidate host edges in order, and a partial choice is
    dropped once some pattern vertex has more leaves left to end an
    image than pattern edges left to place.  The choices depend only on
    each branch set's leaves and candidate image ends, and are shared by
    every combination with the same ones.  Both caches live for one
    call.  counter counts the branch sets tried and every (tree
    combination, image choice) that passes the leaf rule.

    A footprint whose branch sets hold n vertices has n - |V(h)| + |E(h)|
    edges: a tree has one edge fewer than its branch set, and there are
    |E(h)| images.  volume, if given, caps n: the footprints of at most
    volume - |V(h)| + |E(h)| edges come, in the uncapped order.
    """
    ends, inc = ix.ends, ix.inc
    ends_mask = [1 << a | 1 << b for a, b in ends]  # host edge k's two ends
    nh = len(h.index.verts)
    deg = [ns.bit_count() for ns in h.index.nbr]
    at = h.index.ends
    # left[j][p]: the pattern edges at pattern vertex p after edge j
    left = [[sum(p in pq for pq in at[j + 1:]) for p in range(nh)]
            for j in range(len(at))]

    @functools.cache
    def trees_of(vs: int, most: int) -> list[tuple[int, int, int]]:
        """(tree, leaves, image ends): with as many leaves as images,
        each image ends at a leaf."""
        return [(t, lv, lv if lv.bit_count() == most else vs)
                for t, lv in _spanning_trees(vs, most, ends, inc)]

    @functools.cache
    def choices(leaves: tuple[int, ...], image_ends: tuple[int, ...]
                ) -> list[tuple[int, tuple[int, ...]]]:
        """(edge mask, edge per pattern edge) of each image choice."""
        # reach[p]: the host edges at pattern vertex p's image ends
        reach = [functools.reduce(int.__or__, map(inc.__getitem__, _bits(e)),
                                  0) for e in image_ends]
        # (images, their edge mask, the leaves no image ends yet)
        partial = [((), 0, functools.reduce(int.__or__, leaves, 0))]
        for j, (p, q) in enumerate(at):
            cands = _bits(reach[p] & reach[q])
            grown = []
            for images, used, open_ in partial:
                for k in cands:
                    rest = open_ & ~ends_mask[k]
                    if ((rest & leaves[p]).bit_count() <= left[j][p]
                            and (rest & leaves[q]).bit_count() <= left[j][q]):
                        grown.append((images + (k,), used | 1 << k, rest))
            partial = grown
        return [(used, images) for images, used, _ in partial]

    seen: set[int] = set()
    for bs in _branch_set_maps(h, ix.nbr, (1 << len(ix.verts)) - 1, {},
                               counter, lambda p, B: bool(trees_of(B, deg[p])),
                               volume):
        for trees in product(*(trees_of(bs[p], deg[p]) for p in range(nh))):
            base = 0
            for t, _, _ in trees:
                base |= t
            for images, per_edge in choices(tuple(lv for _, lv, _ in trees),
                                            tuple(e for _, _, e in trees)):
                counter.spend()
                usage = base | images
                if usage not in seen:
                    seen.add(usage)
                    yield (list(bs), [ends[k] for k in per_edge]), usage


def iter_expansion_footprints(h: Graph, g: Graph, counter: NodeCounter
                              ) -> Iterator[tuple[MinorEmbedding, frozenset[Edge]]]:
    """Yield (model, edge footprint), deduplicated, for the expansion
    subgraphs of h in g that _footprints enumerates, in its order."""
    ix = g.index
    for model, usage in _footprints(h, ix, counter):
        yield (_labelled(h, ix, model),
               frozenset(ix.edges[k] for k in _bits(usage)))
