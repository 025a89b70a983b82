"""Immutable simple graphs with string vertex labels.

Vertex labels are opaque printable tokens (no whitespace).  Combining
operations relabel their inputs apart by appending ``#i`` with the part
index, so derived labels never collide with each other.

An optional provenance map records, per vertex, which construction role
produced it (branch copy, replicated path interior, ...).  A graph keeps
a read-only copy of it.  Provenance is carried metadata: two graphs with
equal vertex and edge sets compare equal regardless of it.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Edge", "Graph", "GraphError", "ParseError", "connected_components",
    "contract_edge", "delete_edges", "edge", "parse_graph", "parse_graph6",
    "relabeled_union", "serialize",
]

Edge = tuple[str, str]


class GraphError(ValueError):
    """Domain error: malformed graph value or violated precondition."""


class ParseError(GraphError):
    """Input text could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def edge(u: str, v: str) -> Edge:
    """Normalized edge: endpoints sorted, self-loops rejected."""
    if u == v:
        raise GraphError(f"self-loop at {u!r}")
    return (u, v) if u < v else (v, u)


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _reach(nbr: Sequence[int], within: int) -> int:
    """The vertices of the mask within connected to its lowest one
    inside it, by the adjacency masks nbr."""
    seen = front = within & -within
    while front:
        grow = 0
        for v in _bits(front):
            grow |= nbr[v]
        front = grow & within & ~seen
        seen |= front
    return seen


class Index:
    """A graph's vertices and edges numbered in sorted order, with its
    adjacency and incidence as int bit masks.

    verts[i] is vertex i and vidx maps it back; edges[k] is the k-th of
    sorted_edges() and joins the vertices ends[k], smaller index first.
    Bit w of nbr[v] is set when v and w are adjacent, and bit k of
    inc[v] when edge k meets v.  Ascending set bits list vertices or
    edges in label order.  ends, edges and inc are built on first use."""

    def __init__(self, g: Graph):
        self.verts = tuple(g.sorted_vertices())
        self.vidx = vidx = {v: i for i, v in enumerate(self.verts)}
        nbr = [0] * len(self.verts)
        for a, b in g.edges:
            i, j = vidx[a], vidx[b]
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
        self.nbr = tuple(nbr)

    @functools.cached_property
    def ends(self) -> tuple[tuple[int, int], ...]:
        # each edge from its smaller end, so pairs come in sorted order
        return tuple((a, b) for a, ns in enumerate(self.nbr)
                     for b in _bits(ns & -(2 << a)))

    @functools.cached_property
    def edges(self) -> tuple[Edge, ...]:
        verts = self.verts
        return tuple((verts[a], verts[b]) for a, b in self.ends)

    @functools.cached_property
    def inc(self) -> tuple[int, ...]:
        inc = [0] * len(self.verts)
        for k, (a, b) in enumerate(self.ends):
            inc[a] |= 1 << k
            inc[b] |= 1 << k
        return tuple(inc)


class Graph:
    """An immutable finite simple graph.  Its fields cannot be assigned
    or deleted, its provenance is a read-only copy of the one it was
    given, and equality and hash read the vertices and edges only."""

    vertices: frozenset[str]
    edges: frozenset[Edge]
    provenance: Mapping[str, str] | None

    def __init__(self, vertices: frozenset[str], edges: frozenset[Edge],
                 provenance: Mapping[str, str] | None = None):
        for v in vertices:
            if v.split() != [v]:  # empty, or holds whitespace
                raise GraphError(f"bad vertex label {v!r}")
        for e in edges:
            u, v = e
            if u == v:
                raise GraphError(f"self-loop at {u!r}")
            if u > v:
                raise GraphError(f"edge {e!r} not normalized")
            if u not in vertices or v not in vertices:
                raise GraphError(f"edge {e!r} has endpoint outside vertex set")
        if provenance is not None:  # kept as a read-only copy
            provenance = MappingProxyType(dict(provenance))
            if provenance.keys() != set(vertices):
                raise GraphError("provenance must cover every vertex exactly once")
        # __setattr__ refuses; cached_property stores index this way too
        self.__dict__.update(vertices=vertices, edges=edges,
                             provenance=provenance)

    @classmethod
    def _checked(cls, vertices: frozenset[str], edges: frozenset[Edge]):
        """A graph from sets the parsers checked as __init__ would."""
        g = object.__new__(cls)
        g.__dict__.update(vertices=vertices, edges=edges, provenance=None)
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __reduce__(self):
        # a mappingproxy does not pickle: rebuild from a dict, and keep
        # the cached index if there is one
        prov = None if self.provenance is None else dict(self.provenance)
        index = {"index": self.index} if "index" in self.__dict__ else None
        return Graph, (self.vertices, self.edges, prov), index

    def __repr__(self) -> str:
        return (f"Graph(vertices={self.vertices!r}, edges={self.edges!r}, "
                f"provenance={self.provenance!r})")

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str]],
              provenance: Mapping[str, str] | None = None) -> "Graph":
        """Normalizing constructor; adds edge endpoints to the vertex set."""
        vs = set(vertices)
        es = set()
        for u, v in edges:
            es.add(edge(u, v))
            vs.add(u)
            vs.add(v)
        return Graph(frozenset(vs), frozenset(es), provenance)

    # -- basic queries -------------------------------------------------

    @functools.cached_property
    def index(self) -> Index:
        """The graph's Index, built on first use and cached."""
        return Index(self)

    def _nbr(self, v: str) -> int:
        """The adjacency mask of v in the graph's Index."""
        i = self.index.vidx.get(v)
        if i is None:
            raise GraphError(f"unknown vertex {v!r}")
        return self.index.nbr[i]

    def neighbors(self, v: str) -> frozenset[str]:
        verts = self.index.verts
        return frozenset(verts[w] for w in _bits(self._nbr(v)))

    def degree(self, v: str) -> int:
        return self._nbr(v).bit_count()

    def has_edge(self, u: str, v: str) -> bool:
        return edge(u, v) in self.edges

    def sorted_vertices(self) -> list[str]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def induced(self, vs: Iterable[str]) -> "Graph":
        """Subgraph induced on the given vertices (provenance restricted)."""
        keep = set(vs)
        unknown = keep - self.vertices
        if unknown:
            raise GraphError(f"unknown vertices {sorted(unknown)!r}")
        prov = None
        if self.provenance is not None:
            prov = {v: self.provenance[v] for v in keep}
        return Graph(frozenset(keep),
                     frozenset(e for e in self.edges if e[0] in keep and e[1] in keep),
                     prov)

    def edge_subgraph(self, es: Iterable[Edge]) -> "Graph":
        """Subgraph consisting of the given edges and their endpoints."""
        keep = set(es)
        bad = keep - self.edges
        if bad:
            raise GraphError(f"edges not in graph: {sorted(bad)!r}")
        vs = {x for e in keep for x in e}
        return Graph(frozenset(vs), frozenset(keep), None)

    def is_connected(self) -> bool:
        full = (1 << len(self.vertices)) - 1
        return _reach(self.index.nbr, full) == full


# -- external formats ---------------------------------------------------

def _parse_edge_block(text: str) -> tuple[Graph, list[tuple[int, str]]]:
    """Parse the edge list at the head of text: an ``n m`` header, n
    vertex labels and m ``u v`` edges.  Blank lines and lines starting
    with ``#`` are skipped.  Returns the graph and the significant lines
    after the block as (line number, stripped text) pairs."""
    lines = [(i, ln) for i, ln in enumerate(map(str.strip, text.splitlines()), 1)
             if ln and ln[0] != "#"]
    if not lines:
        raise ParseError("empty input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise ParseError(f"expected 'n m' header, got {header!r}", lineno)
    n, m = int(parts[0]), int(parts[1])
    if len(lines) < 1 + n + m:
        raise ParseError(
            f"expected {n} vertex lines and {m} edge lines, got {len(lines) - 1}",
            lineno)
    vertices: list[str] = []
    seen: set[str] = set()
    for lineno, tok in lines[1:1 + n]:
        if len(tok.split()) != 1:
            raise ParseError(f"expected a single vertex label, got {tok!r}", lineno)
        if tok in seen:
            raise ParseError(f"duplicate vertex {tok!r}", lineno)
        seen.add(tok)
        vertices.append(tok)
    edges: set[Edge] = set()
    for lineno, ln in lines[1 + n:1 + n + m]:
        toks = ln.split()
        if len(toks) != 2:
            raise ParseError(f"expected 'u v', got {ln!r}", lineno)
        u, v = toks
        if u not in seen or v not in seen:
            raise ParseError(f"edge endpoint not declared: {ln!r}", lineno)
        if u == v:
            raise ParseError(f"self-loop {ln!r}", lineno)
        e = edge(u, v)
        if e in edges:
            raise ParseError(f"duplicate edge {ln!r}", lineno)
        edges.add(e)
    return Graph._checked(frozenset(vertices), frozenset(edges)), lines[1 + n + m:]


def parse_graph(text: str) -> Graph:
    """Parse the plain edge-list format.

    First significant line is ``n m``, followed by n vertex-label lines
    and m ``u v`` edge lines.  Blank lines and lines starting with ``#``
    are ignored; ``#`` elsewhere is part of a label, never a comment.
    """
    g, rest = _parse_edge_block(text)
    if rest:
        raise ParseError(f"unexpected line after the edge list: {rest[0][1]!r}",
                         rest[0][0])
    return g


def _dot_quote(s: str, what: str) -> str:
    """s as a DOT quoted string, whose one escape is '\\"' for '"'."""
    if s.endswith("\\"):
        raise GraphError(f"{what} {s!r} ends in a backslash, "
                         "which DOT cannot quote")
    return '"' + s.replace('"', '\\"') + '"'


def serialize(g: Graph, format: str = "edge-list") -> str:
    """Render a graph as edge-list or DOT text."""
    if format == "edge-list":
        out = [f"{len(g.vertices)} {len(g.edges)}", *g.sorted_vertices()]
        for v in out[1:]:
            if v[0] == "#":
                raise GraphError(f"vertex label {v!r} starts with '#', which "
                                 "the edge-list format reads as a comment")
        out.extend(f"{u} {v}" for u, v in g.sorted_edges())
        return "\n".join(out) + "\n"
    if format == "dot":
        ids = {v: _dot_quote(v, "vertex label") for v in g.sorted_vertices()}
        out = ["graph {"]
        for v, q in ids.items():
            if g.provenance is not None:
                role = _dot_quote(g.provenance[v], "role")
                out.append(f'  {q} [role={role}];')
            else:
                out.append(f'  {q};')
        for u, v in g.sorted_edges():
            out.append(f'  {ids[u]} -- {ids[v]};')
        out.append("}")
        return "\n".join(out) + "\n"
    raise GraphError(f"unknown format {format!r}")


def parse_graph6(text: str) -> Graph:
    """Decode a single graph6 line (vertices are named 0..n-1)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 input")
    if s.split() != [s]:
        raise ParseError("graph6 input must be one line without whitespace")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ParseError("graph6 byte out of range")
    if data[0] == 63:
        if len(data) < 4:
            raise ParseError("truncated graph6 size")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) < need:
        raise ParseError("truncated graph6 bit data")
    if len(body) > need:
        raise ParseError(f"graph6 data runs {len(body) - need} byte(s) past "
                         f"the {n}-vertex adjacency")
    bits: list[int] = []
    for b in body:
        for k in range(5, -1, -1):
            bits.append((b >> k) & 1)
    vertices = [str(i) for i in range(n)]
    edges = set()
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.add(edge(str(i), str(j)))
            idx += 1
    return Graph._checked(frozenset(vertices), frozenset(edges))


# -- operations ----------------------------------------------------------

def delete_edges(g: Graph, x: Iterable[Edge]) -> Graph:
    """Same vertices, edges minus x.  x must be a subset of the edges."""
    xs = {edge(u, v) for u, v in x}
    missing = xs - g.edges
    if missing:
        raise GraphError(f"cannot delete absent edges {sorted(missing)!r}")
    return Graph(g.vertices, g.edges - xs, g.provenance)


def derived_label(base: str, i: int) -> str:
    return f"{base}#{i}"


def relabeled_union(parts: list[Graph],
                    identify: Iterable[frozenset[str]] = ()) -> Graph:
    """Disjoint union of the parts, then merge each identification group.

    Part i is relabeled by appending ``#i`` to every vertex first; the
    identification groups refer to these relabeled names.  Each group is
    merged to a single vertex (its lexicographically smallest member)
    inheriting all incident edges, whose provenance lists the members'
    distinct tags, sorted and separated by spaces.  Groups must be
    pairwise disjoint.  Accidental parallel edges are collapsed with a
    warning.
    """
    if not parts:
        raise GraphError("need at least one part")
    vertices: set[str] = set()
    edges: set[Edge] = set()
    any_prov = any(p.provenance is not None for p in parts)
    prov: dict[str, str] = {}
    for i, part in enumerate(parts):
        for v in part.vertices:
            nv = derived_label(v, i)
            vertices.add(nv)
            if any_prov:
                if part.provenance is not None:
                    prov[nv] = part.provenance[v]
                else:
                    prov[nv] = f"part{i}"
        for u, v in part.edges:
            edges.add(edge(derived_label(u, i), derived_label(v, i)))

    groups = [frozenset(gp) for gp in identify]
    seen_members: set[str] = set()
    rename: dict[str, str] = {}
    for gp in groups:
        if len(gp) < 2:
            raise GraphError("identification group needs at least two vertices")
        unknown = gp - vertices
        if unknown:
            raise GraphError(f"identification of unknown vertices {sorted(unknown)!r}")
        if gp & seen_members:
            raise GraphError("identification groups must be pairwise disjoint")
        seen_members |= gp
        target = min(gp)
        for v in gp:
            rename[v] = target
        if any_prov:
            tags = sorted({prov[v] for v in gp})
            prov[target] = " ".join(tags)

    new_vertices = {rename.get(v, v) for v in vertices}
    new_edges: set[Edge] = set()
    dropped = 0
    for u, v in edges:
        nu, nv = rename.get(u, u), rename.get(v, v)
        if nu == nv:
            raise GraphError(f"identification collapses edge {u!r}--{v!r} to a loop")
        e = edge(nu, nv)
        if e in new_edges:
            dropped += 1
        new_edges.add(e)
    if dropped:
        import logging  # here only: it is slow to import
        logging.getLogger("minorbench").warning(
            "union collapsed %d parallel edge(s)", dropped)
    if any_prov:
        prov = {v: t for v, t in prov.items() if v in new_vertices}
        return Graph(frozenset(new_vertices), frozenset(new_edges), prov)
    return Graph(frozenset(new_vertices), frozenset(new_edges))


def connected_components(g: Graph) -> list[Graph]:
    """Induced connected components, sorted by smallest vertex label."""
    ix = g.index
    unseen = (1 << len(ix.verts)) - 1
    comps = []
    while unseen:
        comp = _reach(ix.nbr, unseen)
        unseen ^= comp
        comps.append(g.induced(ix.verts[v] for v in _bits(comp)))
    return comps


def contract_edge(g: Graph, e: Edge) -> Graph:
    """Contract edge e: its larger endpoint merges into the smaller one,
    which takes over the other's neighbours; the edge itself is dropped."""
    u, v = edge(*e)
    if (u, v) not in g.edges:
        raise GraphError(f"cannot contract absent edge {e!r}")
    es = {x for x in g.edges if v not in x}
    es.update(edge(u, w) for w in g.neighbors(v) if w != u)
    return Graph(g.vertices - {v}, frozenset(es))
