"""Verification checks: robustness scans, packing, hitting sets, reports.

Every check returns a Report whose canonical JSON form is deterministic:
dictionaries are key-sorted, every list is explicitly ordered, and no
report holds a timing, so identical inputs give byte-identical output
regardless of the machine or the run.
"""

from __future__ import annotations

import enum
import json
import random
from functools import cache, reduce
from json.encoder import encode_basestring
from math import comb
from types import MappingProxyType
from typing import (Callable, Iterable, Iterator, Mapping, NamedTuple,
                    Sequence)

from .graph import (Edge, Graph, GraphError, Index, _bits, _reach,
                    contract_edge, delete_edges)
from .decompose import branch_vertices
from .embed import (DEFAULT_NODE_BUDGET, BudgetExceeded, MinorPredicate,
                    Model, NodeCounter, SearchStatus, _check_roots, _find,
                    _footprints, _labelled)
from .gadgets import CoreSpec, _kept_branches, segment_blowup

__all__ = [
    "DEFAULT_SEED", "Budget", "HitResult", "Outcome", "PackingResult",
    "Report", "canonical_json", "check_assembly_robustness",
    "check_branch_count", "check_expansion_locality",
    "check_gadget_robustness", "check_generic_counterexample",
    "check_hereditary_sampled", "graph_json", "max_edge_disjoint_packing",
    "min_edge_hitting_set",
]

DEFAULT_SEED = 1729


class Budget(NamedTuple):
    """Resource limits: search nodes per expansion search, and
    expansion searches (deletion probes) per command."""

    nodes: int | None = DEFAULT_NODE_BUDGET
    searches: int = 10**5


class Outcome(enum.Enum):
    HOLDS = "holds"
    REFUTED = "refuted"
    BUDGET = "budget-exhausted"


_EXIT = {Outcome.HOLDS: 0, Outcome.REFUTED: 1, Outcome.BUDGET: 2}
_OUTCOME = {SearchStatus.FOUND: Outcome.HOLDS,
            SearchStatus.NONE: Outcome.REFUTED,
            SearchStatus.BUDGET: Outcome.BUDGET}


def canonical_json(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False) and a newline, in one join per container: given
    an indent, json.dumps runs a Python generator per container."""
    return _encode(obj, "\n") + "\n"


def _encode(o, nl: str) -> str:
    if isinstance(o, str):
        return encode_basestring(o)
    inner = nl + "  "
    if isinstance(o, (list, tuple)) and o:
        if isinstance(o[0], str):
            try:  # all strings, or a TypeError at the first that is not
                return ("[" + inner + ("," + inner).join(
                    map(encode_basestring, o)) + nl + "]")
            except TypeError:
                pass
        return ("[" + inner + ("," + inner).join(
            [_encode(x, inner) for x in o]) + nl + "]")
    if isinstance(o, dict) and o:
        return ("{" + inner + ("," + inner).join(
            [_key(k) + ": " + _encode(v, inner)
             for k, v in sorted(o.items())]) + nl + "}")
    if isinstance(o, int) and not isinstance(o, bool):
        return int.__repr__(o)
    return json.dumps(o)  # floats, bools, None and empty containers


def _key(k) -> str:
    """A dict key as json.dumps writes it; json.dumps converts (or
    refuses) a key that is not a str."""
    if isinstance(k, str):
        return encode_basestring(k)
    return json.dumps({k: 0})[1:-4]


def graph_json(g: Graph) -> dict:
    return {"vertices": g.sorted_vertices(),
            "edges": [[u, v] for u, v in g.sorted_edges()]}


_NOTHING: Mapping = MappingProxyType({})  # the default details and stats


class Report(NamedTuple):
    """Outcome of one check plus its witness data and search statistics."""

    check: str
    outcome: Outcome
    details: Mapping = _NOTHING
    stats: Mapping = _NOTHING

    @property
    def exit_code(self) -> int:
        return _EXIT[self.outcome]

    def to_json_obj(self) -> dict:
        return {"check": self.check, "outcome": self.outcome.value,
                "details": dict(self.details), "stats": dict(self.stats)}

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())


# -- packing and hitting ---------------------------------------------------

class PackingResult(NamedTuple):
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

    Greedy models (_disjoint_models) bound the count below, and
    _packing_bound, cut to cap, above.  If the greedy models reach the
    upper bound, or the first search finds none, they are the answer and
    the witness, in the order found.  Else for t = greedy + 1, ..., upper
    a depth-first search places t disjoint footprints, edge masks over
    host.index in one list sorted in (size, edges) order, each after the
    last one placed, so the witness is the first t-combination in that
    order, or the greedy models if no greedy + 1 fit.  A footprint comes
    after, and succeeds only where, the minimal ones inside it do, so
    all footprints would give the same witness.

    A footprint's size fixes its branch sets' total size (_footprints),
    so the list grows by bands of sizes, each twice as wide as the last,
    and always holds every footprint up to some size.  A node that has
    tried every listed footprint lists the next band only if need more
    of its smallest size fit in the room edges left, and only up to room
    - (need - 1) * |E(pattern)| edges.  A bitset per host edge over the
    positions of the footprints holding it gives a node's fitting ones.

    The band walks share one budget of node_budget nodes, and the greedy
    searches and every phase share another.  When either runs out, exact
    is False and the witness is the best packing found so far.
    """
    if not pattern.edges:
        raise GraphError("packing needs a pattern with at least one edge")
    ix = host.index
    mh = len(pattern.edges)
    shift = len(pattern.vertices) - mh  # s edges: s + shift branch vertices
    listing, counter = NodeCounter(node_budget), NodeCounter(node_budget)
    upper = min(_packing_bound(pattern, ix), len(ix.edges) if cap is None
                else cap)
    best, status, counter.nodes, _ = _disjoint_models(
        pattern, ix, {}, upper,
        lambda _, spent: None if node_budget is None else node_budget - spent)
    footprints: list[int] = []
    holding = [0] * len(ix.edges)  # bitsets over positions, per host edge
    listed = mh - 1  # every footprint of at most this many edges is listed
    width = 1
    done = False  # nothing is left to list, or the listing budget ran out
    exact = status is not SearchStatus.BUDGET

    def grow(room: int, need: int) -> bool:
        """List bands until one adds footprints: True if one did."""
        nonlocal listed, width, done, exact
        while not done and room >= need * (listed + 1):
            hi = min(listed + width, room - (need - 1) * mh)
            width *= 2
            band = []
            try:
                for _, usage in _footprints(pattern, ix, listing, hi + shift):
                    if usage.bit_count() > listed:
                        band.append((usage.bit_count(), _bits(usage), usage))
            except BudgetExceeded:
                exact, done = False, True
            listed = hi
            done = done or hi + shift >= len(ix.verts)
            if band:
                band.sort()
                rows = [bytearray(b"0" * len(band)) for _ in holding]
                for p, (_, edges, _) in enumerate(band):
                    for k in edges:
                        rows[k][-1 - p] = 49  # "1"
                for k, row in enumerate(rows):
                    holding[k] |= int(row, 2) << len(footprints)
                footprints.extend(fp for _, _, fp in band)
                return True
        return False

    def extend(start: int, remaining: int, need: int) -> list[int] | None:
        if need == 0:
            return []
        room = remaining.bit_count()
        if start == len(footprints) and not grow(room, need):
            return None
        # no footprint after start is smaller than footprints[start]
        if room < need * footprints[start].bit_count():
            return None
        known, free = start, 0
        while True:
            if known < len(footprints):  # take in the positions listed since
                used = _bits(~remaining & (1 << len(ix.edges)) - 1)
                blocked = reduce(int.__or__, map(holding.__getitem__, used), 0)
                free |= ~blocked & (1 << len(footprints)) - (1 << known)
                known = len(footprints)
            if free:
                i = (free & -free).bit_length() - 1
                free ^= 1 << i
                counter.spend()
                rest = extend(i + 1, remaining ^ footprints[i], need - 1)
                if rest is not None:
                    return [footprints[i]] + rest
            elif not grow(room, need):
                return None

    while status is SearchStatus.NONE and 0 < len(best) < upper:
        try:
            got = extend(0, (1 << len(ix.edges)) - 1, len(best) + 1)
        except BudgetExceeded:
            exact = False
            break
        if got is None:
            break
        best = got
    return PackingResult(len(best),
                         tuple(frozenset(map(ix.edges.__getitem__, _bits(fp)))
                               for fp in best),
                         exact, listing.nodes + counter.nodes)


def _packing_bound(pattern: Graph, ix: Index) -> int:
    """The largest count nu of edge-disjoint pattern models in the host
    indexed by ix that passes three counts, D_v the host's degrees, p3
    the pattern's vertices of degree 3 or more and exc the sum of its
    degrees above 2: (e) nu * |E(pattern)| <= |E(host)|; (h) p3 * nu <=
    sum(D_v // 3), as the branch set of a vertex of degree 3 or more
    holds a hub, a vertex of footprint degree 3 or more, and a vertex is
    a hub in at most D_v // 3 copies; (x) exc * nu <= sum(D_v - 2 over
    D_v >= 3) - 2 * max(0, p3 * nu - |{v: D_v >= 3}|), as a copy's hubs
    carry exc footprint degree above 2, and a hub in j copies gives D_v
    - 2j of it."""
    degs = [n.bit_count() for n in pattern.index.nbr]
    p3 = sum(d > 2 for d in degs)
    exc = sum(d - 2 for d in degs if d > 2)
    hubs = [d for d in (n.bit_count() for n in ix.nbr) if d > 2]
    nu = len(ix.edges) // len(pattern.edges)
    if p3:
        nu = min(nu, sum(d // 3 for d in hubs) // p3)
    while exc * nu > (sum(hubs) - 2 * len(hubs)
                      - 2 * max(0, p3 * nu - len(hubs))):
        nu -= 1
    return nu


class HitResult(NamedTuple):
    """Smallest found edge set meeting every pattern expansion.

    size is None when no hitting set at most the bound exists (exact)
    or none was certified before the budget ran out (not exact, and
    stopped_at is the set the search stopped at)."""

    size: int | None
    hitting_edges: tuple[Edge, ...] | None
    exact: bool
    nodes: int
    subsets: int
    searches: int
    stopped_at: tuple[Edge, ...] | None = None


def min_edge_hitting_set(pattern: Graph, host: Graph,
                         bound: int | None = None,
                         budget: Budget | None = None) -> HitResult:
    """Minimum edge set whose deletion destroys every pattern expansion.

    Iterative deepening: one search tree per size, sizes in increasing
    order.  The witness is the first set of its size in label order, so
    it is canonical.  subsets counts the sets decided: all of them, or
    those up to the witness or the stop, in that order; searches counts
    the expansion searches made.
    """
    if not pattern.edges:
        raise GraphError("hitting needs a pattern with at least one edge")
    budget = budget or Budget()
    m = len(host.edges)
    top = m if bound is None else min(bound, m)
    status, X, checked, searches, nodes = _first_without_model(
        pattern, host, None, budget, range(top + 1))
    if status is SearchStatus.NONE:
        return HitResult(len(X), X, True, nodes, checked, searches)
    return HitResult(None, None, status is SearchStatus.FOUND, nodes,
                     checked, searches, X)


# -- the hitting-set loop ----------------------------------------------------

def _footprint(ix: Index, nbr: Sequence[int], model: Model) -> int:
    """Edges a model on the host with adjacency masks nbr needs, as a
    mask over ix's edges: a BFS spanning tree of each branch set, from
    its lowest vertex with neighbours in ascending order, plus the edge
    images.  Deleting edges outside it keeps the model."""
    inc = ix.inc
    branch, images = model
    out = 0
    for a, b in images:
        out |= inc[a] & inc[b]
    for B in branch:
        seen = B & -B
        todo = [seen.bit_length() - 1]
        for a in todo:
            new = nbr[a] & B & ~seen
            seen |= new
            for b in _bits(new):
                todo.append(b)
                out |= inc[a] & inc[b]
    return out


def _less(ix: Index, deleted: int) -> list[int]:
    """The adjacency masks of the host indexed by ix less the edges in
    the mask deleted."""
    nbr = list(ix.nbr)
    for k in _bits(deleted):
        a, b = ix.ends[k]
        nbr[a] ^= 1 << b
        nbr[b] ^= 1 << a
    return nbr


def _probe(pattern: Graph, ix: Index, deleted: int,
           pins: Mapping[str, int], node_budget: int | None
           ) -> tuple[SearchStatus, int, int]:
    """One expansion search on the host indexed by ix less the edges in
    the mask deleted, pins mapping pattern vertices to host vertex
    indices.  Returns (status, footprint mask or 0, nodes)."""
    nbr = _less(ix, deleted)
    status, model, nodes = _find(pattern, nbr, (1 << len(nbr)) - 1, pins,
                                 node_budget)
    return status, 0 if model is None else _footprint(ix, nbr, model), nodes


def _disjoint_models(pattern: Graph, ix: Index, pins: Mapping[str, int],
                     stop: int, caps: Callable[[int, int], int | None]
                     ) -> tuple[list[int], SearchStatus, int, int | None]:
    """Greedy edge-disjoint models: _probes less the footprints found so
    far, until stop are found or one finds none or runs out of its node
    cap, caps(most nodes one spent, nodes).  Returns (footprints, the last
    status or FOUND if none ran, nodes, the last cap)."""
    known: list[int] = []
    union = nodes = most = 0
    status, cap = SearchStatus.FOUND, None
    while len(known) < stop:
        cap = caps(most, nodes)
        status, fp, spent = _probe(pattern, ix, union, pins, cap)
        nodes += spent
        most = max(most, spent)
        if status is not SearchStatus.FOUND:
            break
        known.append(fp)
        union |= fp
    return known, status, nodes, cap


def _hitting_floor(pattern: Graph, ix: Index, gone: int = 0) -> int:
    """A lower bound on the edges a deletion must take from the host
    indexed by ix less the edges in the mask gone to leave no model of a
    pattern of 2 <= t <= 7 vertices and some edge; 0 for any other.  By
    Mader's theorem (Math. Ann. 178, 1968), for t <= 7 a graph of n >= t
    - 1 vertices and more than (t - 2) * n - C(t - 1, 2) edges has a K_t
    minor, so a pattern model: the floor sums each host component's
    edges above that bound.  Vertices of degree below t - 2 are peeled
    off first: each one raises m - (t - 2) * n, and a subgraph needs no
    more deletions than its host."""
    t = len(pattern.vertices)
    if not pattern.edges or t > 7:
        return 0
    nbr = _less(ix, gone)
    core = (1 << len(nbr)) - 1
    while core.bit_count() >= t and (low := sum(
            1 << v for v in _bits(core)
            if (nbr[v] & core).bit_count() < t - 2)):
        core ^= low
    floor, unseen = 0, core if core.bit_count() >= t else 0
    while unseen:
        comp = _reach(nbr, unseen)
        unseen ^= comp
        n = comp.bit_count()
        if n >= t:
            m = sum((nbr[v] & comp).bit_count() for v in _bits(comp)) // 2
            floor += max(0, m - (t - 2) * n + comb(t - 1, 2))
    return floor


def _rank(X: tuple[int, ...], m: int) -> int:
    """1-based position of X in combinations(range(m), len(X))."""
    s = len(X)
    return comb(m, s) - sum(comb(m - 1 - i, s - d) for d, i in enumerate(X))


def _hitting_sets(m: int, s: int, known: list[int], chosen: int = 0,
                  free: int = -1) -> Iterator[tuple[int, ...]]:
    """Yield s-subsets of range(m) that hold the indices in the mask
    chosen, lie otherwise in the mask free (-1: all) and meet every
    bitmask in known, none twice.  Masks appended between yields must
    miss the set just yielded, as the footprint of a model left after
    deleting it does; once the tree ends, no such set meets every mask.

    A bounded search tree for s-Hitting Set.  A node holds the chosen
    indices, the indices still open, and the masks the chosen ones
    leave unmet: its parent's unmet list, filtered, plus the masks
    appended since its parent read known.  It is dropped when an unmet
    mask has no open index or more unmet masks than there are slots are
    pairwise disjoint on the open indices.  It branches on the open
    indices, ascending, of the unmet mask with the fewest, and each
    child excludes its earlier siblings' indices, so the children's
    sets are disjoint.  When no mask is unmet it yields the chosen
    indices filled up with the lowest open ones, then reads the masks
    appended after that yield and branches on them.
    """
    def grow(chosen: int, free: int, slots: int, unmet: list[int],
             seen: int) -> Iterator[tuple[int, ...]]:
        while True:
            if seen < len(known):
                unmet = unmet + [fp for fp in known[seen:] if not fp & chosen]
                seen = len(known)
            branch = taken = disjoint = 0
            fewest = m + 1
            for fp in unmet:
                cut = fp & free
                if not cut:
                    return
                if not cut & taken:
                    taken |= cut
                    disjoint += 1
                    if disjoint > slots:
                        return
                if cut.bit_count() < fewest:
                    branch, fewest = cut, cut.bit_count()
            if branch:
                break
            fill, rest = chosen, free
            for _ in range(slots):
                low = rest & -rest
                if not low:
                    return
                fill |= low
                rest ^= low
            yield tuple(_bits(fill))
            if seen == len(known):
                return
        for i in _bits(branch):
            b = 1 << i
            yield from grow(chosen | b, free & ~b, slots - 1,
                            [fp for fp in unmet if not fp & b], seen)
            free &= ~b

    return grow(chosen, free & ~chosen & (1 << m) - 1,
                s - chosen.bit_count(), [], 0)


def _first_without_model(pattern: Graph, host: Graph,
                         roots: Mapping[str, str] | None, budget: Budget,
                         sizes: Sequence[int]
                         ) -> tuple[SearchStatus, tuple[Edge, ...] | None,
                                    int, int, int]:
    """The first edge set X, by size in sizes and then in
    combinations(host.sorted_edges(), size) order, that meets every
    model footprint the run finds and whose search finds no model or is
    stopped by the budget.

    Returns (status, X, sets decided, searches, nodes).  FOUND: every
    set keeps a model, and X is None.  NONE: the search on host - X
    found no model.  BUDGET: the search on host - X ran out of nodes,
    or it never ran, because an earlier one did or the command ran out
    of searches.

    Each search is a _probe: the host's Index plus the mask of X, with
    no graph built for host - X.  Every model found keeps its footprint
    as a bitmask over the sorted edges, and a set that misses a known
    footprint keeps that model, so every set before X keeps one.
    Per size, first(chosen, free) runs _hitting_sets from those masks
    and searches each set it yields until a search finds no model.  If
    first(0, all) finds none, the size holds.  Else a descent moves its
    set X to the first: for each position j, the first i below X[j]
    for which first(X[:j] + i, indices above i) finds a set replaces X,
    and X[j] is then fixed.  Each i is asked once, and a question
    covers only sets before X, so no set is searched twice.  After the
    first search that runs out of nodes, or once the searches are
    spent, none is made: search returns BUDGET, so first returns the
    first set the tree yields, which the descent takes as a set
    without a model.

    The masks are seeded with up to max(sizes) + 1 edge-disjoint models
    (_disjoint_models), as t of them leave no hitting set below size t,
    each search under a node cap of max(64, 4 * the most an earlier one
    spent), at most budget.nodes; running out of it ends the seed, not
    the command.  The last seed search's answer, if it found no model
    and was not stopped by a cap below budget.nodes, is kept for its set,
    so the tree reads it instead of searching again.

    With no root pins, the sizes below _hitting_floor are decided with
    no search; if none is left, neither seed nor tree searches.  A
    question whose chosen edges C leave a floor above s - |C| is
    answered with no search: every set holding C keeps a model.
    """
    ix = host.index
    node_cap, search_cap = budget  # read once, not per search
    m = len(ix.edges)
    pins = {u: ix.vidx[v] for u, v in (roots or {}).items()}
    floor = 0 if pins else _hitting_floor(pattern, ix)
    decided = sum(comb(m, s) for s in sizes if s < floor)
    sizes = [s for s in sizes if s >= floor]
    known, status, nodes, cap = _disjoint_models(
        pattern, ix, pins, min(sizes[-1] + 1, search_cap) if sizes else 0,
        lambda most, _: max(64, 4 * most) if node_cap is None
        else min(node_cap, max(64, 4 * most)))
    searches = len(known) + (status is not SearchStatus.FOUND)
    stopped = False
    kept = None
    if status is SearchStatus.NONE or (status is SearchStatus.BUDGET
                                       and cap == node_cap):
        kept = reduce(int.__or__, known, 0), status

    def search(X: tuple[int, ...]) -> SearchStatus:
        nonlocal searches, nodes, stopped
        deleted = sum(1 << i for i in X)
        if stopped:
            return SearchStatus.BUDGET
        if kept is not None and deleted == kept[0]:
            status = kept[1]
        elif searches == search_cap:
            return SearchStatus.BUDGET
        else:
            status, fp, spent = _probe(pattern, ix, deleted, pins,
                                       node_cap)
            searches += 1
            nodes += spent
            if status is SearchStatus.FOUND:
                known.append(fp)
        stopped = status is SearchStatus.BUDGET
        return status

    def first(chosen: int, free: int
              ) -> tuple[tuple[int, ...], SearchStatus] | None:
        if chosen and not pins and _hitting_floor(
                pattern, ix, chosen) > s - chosen.bit_count():
            return None
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


def _scan_deletions(check: str, pattern: Graph, host: Graph, r: int,
                    roots: Mapping[str, str] | None = None,
                    budget: Budget | None = None,
                    extra_details: Mapping | None = None) -> Report:
    """Check that pattern expansions survive every deletion of < r edges.

    By monotonicity only deletion sets of the maximum size r-1 count.
    With no budget stop, the verdict is the one a scan of them in label
    order would give, but only sets meeting every known model footprint
    are searched.
    """
    if r < 1:
        raise GraphError("deletion radius must be at least 1")
    budget = budget or Budget()
    if roots:
        _check_roots(pattern, host, roots)

    m = len(host.edges)
    s = min(r - 1, m)
    details = dict(extra_details or {})
    details.update({"mode": "exhaustive", "deletion_size": s,
                    "host_edges": m, "radius": r})
    if roots:
        details["roots"] = dict(roots)
    status, X, checked, searches, nodes = _first_without_model(
        pattern, host, roots, budget, [s])
    if X is not None:
        key = ("witness_deletion" if status is SearchStatus.NONE
               else "stopped_at")
        details[key] = [[u, v] for u, v in X]
    stats = {"subsets_checked": checked, "subsets_planned": comb(m, s),
             "searches": searches, "nodes": nodes}
    return Report(check, _OUTCOME[status], details, stats)


# -- the named checks --------------------------------------------------------

def check_gadget_robustness(g: Graph, ctx: Graph, r: int,
                            budget: Budget | None = None) -> Report:
    """The blowup of g keeps a g expansion after any < r edge deletions.

    A prebuilt or thinned gadget is checked with
    check_assembly_robustness.
    """
    host = segment_blowup(g, ctx, r)
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
    extra = {"pattern": graph_json(pattern),
             "host_vertices": len(host.vertices)}
    return _scan_deletions("assembly-robustness", pattern, host, r,
                           roots, budget, extra)


def check_generic_counterexample(anchor: Graph, spec: CoreSpec,
                                 budget: Budget | None = None) -> Report:
    """The supplied core beats the packing bound yet resists deletions.

    Two halves: fewer than k edge-disjoint anchor expansions fit in the
    core, and an anchor expansion honoring the root pins survives every
    deletion of fewer than r edges.  Either failure refutes the core.
    """
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
                       "subsets_planned": 0, "searches": 0})
    inner = _scan_deletions("generic-counterexample", anchor, spec.core,
                            spec.r, spec.roots, budget, details)
    stats = dict(inner.stats)
    stats["nodes"] = stats["nodes"] + pack.nodes
    return Report(inner.check, inner.outcome, inner.details, stats)


def check_expansion_locality(h: Graph, hstar: Graph, anchor: Graph,
                             region: Iterable[str],
                             node_budget: int | None = DEFAULT_NODE_BUDGET
                             ) -> Report:
    """Every h expansion in hstar realizes the anchor inside the region.

    For each footprint of _footprints on hstar's Index, which include
    every inclusion-minimal expansion subgraph of h and may include
    larger ones, its restriction to the region must itself contain an
    anchor expansion.  Footprints whose anchor branch sets, and so the
    anchor's edge images, sit inside the region pass without a search.
    The restricted search is _find on the mask of the branch sets'
    vertices in the region, with the footprint's edges among them.
    """
    if not anchor.vertices <= h.vertices or not anchor.edges <= h.edges:
        raise GraphError("anchor must be a subgraph of the pattern")
    reg = frozenset(region)
    unknown = reg - hstar.vertices
    if unknown:
        raise GraphError(f"region outside the host: {sorted(unknown)!r}")

    ix = hstar.index
    inside = sum(1 << ix.vidx[v] for v in reg)
    parts = [h.index.vidx[u] for u in anchor.vertices]
    counter = NodeCounter(cap=node_budget)
    footprints = searches = inner_nodes = 0
    outcome = Outcome.HOLDS
    details: dict = {"pattern": graph_json(h), "anchor": graph_json(anchor),
                     "region_size": len(reg)}
    try:
        for (branch, images), usage in _footprints(h, ix, counter):
            footprints += 1
            anchored = reduce(int.__or__, map(branch.__getitem__, parts), 0)
            if not anchored & ~inside:  # the anchor's images end in it too
                continue
            used = reduce(int.__or__, branch, 0) & inside
            nbr = [0] * len(ix.verts)
            for a, b in map(ix.ends.__getitem__, _bits(usage)):
                if used >> a & used >> b & 1:
                    nbr[a] |= 1 << b
                    nbr[b] |= 1 << a
            searches += 1
            status, _, nodes = _find(anchor, nbr, used, {}, node_budget)
            inner_nodes += nodes
            if status is not SearchStatus.FOUND:
                outcome = _OUTCOME[status]
                if status is SearchStatus.NONE:
                    details["witness_embedding"] = _labelled(
                        h, ix, (branch, images)).to_json_obj()
                    details["witness_footprint"] = [list(ix.edges[k])
                                                    for k in _bits(usage)]
                break
    except BudgetExceeded:
        outcome = Outcome.BUDGET
    stats = {"footprints": footprints, "restricted_searches": searches,
             "nodes": counter.nodes + inner_nodes}
    return Report("expansion-locality", outcome, details, stats)


def check_branch_count(g: Graph, ctx: Graph, r: int) -> Report:
    """Blowup branch vertices are exactly the original branch vertices.

    Needs r at least 3: with fewer copies a branch vertex lying on a
    single segment end would come out with degree below 3 and the
    correspondence would be lost.
    """
    if r < 3:
        raise GraphError("branch counting needs replication at least 3")
    gx = segment_blowup(g, ctx, r)
    expected = frozenset(_kept_branches(gx))
    got = branch_vertices(gx, gx)
    outcome = Outcome.HOLDS if got == expected else Outcome.REFUTED
    details = {"expected": sorted(expected), "found": sorted(got),
               "count": len(expected), "replication": r,
               "blowup_vertices": len(gx.vertices),
               "blowup_edges": len(gx.edges)}
    return Report("branch-count", outcome, details, {"nodes": 0})


def check_hereditary_sampled(predicate: MinorPredicate,
                             corpus: list[Graph], trials: int = 100,
                             steps: int = 4,
                             seed: int = DEFAULT_SEED) -> Report:
    """Graphs without the target minor never gain it under minor steps.

    Random delete-edge, contract-edge and delete-vertex sequences are
    applied to sampled corpus graphs lacking the target; the target
    appearing along the way refutes the embedding engine.
    """
    if not corpus:
        raise GraphError("need a non-empty corpus")
    rng = random.Random(seed)
    checked = 0
    skipped = 0
    holds = cache(predicate.holds)  # draws repeat: test each graph once
    for _ in range(trials):
        start = corpus[rng.randrange(len(corpus))]
        if holds(start):
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
            if holds(cur):
                details = {"predicate": predicate.name,
                           "start": graph_json(start),
                           "operations": ops, "result": graph_json(cur)}
                return Report("hereditary", Outcome.REFUTED, details,
                              {"trials": trials, "checked": checked,
                               "skipped": skipped})
    details = {"predicate": predicate.name}
    return Report("hereditary", Outcome.HOLDS, details,
                  {"trials": trials, "checked": checked, "skipped": skipped})
