"""Structural decompositions: blocks, cutvertices, segments, shapes.

A *branch vertex* of a subgraph g relative to a context graph is a
vertex of g whose context degree is at least 3.  A *segment* is a
maximal chain of g-edges whose interior vertices are non-branch and
have g-degree 2; segments are what the gadget builder replicates.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, NamedTuple

from .graph import Edge, Graph, GraphError, _bits

__all__ = [
    "Block", "BlockCutTree", "Segment", "Shape",
    "block_cut_tree", "branch_vertices", "choose_leaf_block",
    "classify_shape", "minimal_subtree", "segment_decomposition",
]


class Block(NamedTuple):
    """A block of the host: maximal 2-connected subgraph or bridge."""

    id: int
    graph: Graph

    @property
    def is_trivial(self) -> bool:
        """Whether the block is a bridge: exactly one edge."""
        return len(self.graph.edges) == 1


class BlockCutTree(NamedTuple):
    """Bipartite incidence tree between blocks and cutvertices.

    ``blocks`` is in id order, and block_cut_tree numbers the blocks
    from 0 by their sorted vertices, then sorted edges, so its
    ``blocks[i]`` has id i.  A restriction produced by minimal_subtree
    keeps the original block ids.  The cutvertices and links are read
    from the blocks.
    """

    blocks: tuple[Block, ...]

    @property
    def cutvertices(self) -> frozenset[str]:
        """The vertices in two or more blocks."""
        seen, cuts = set(), set()
        for b in self.blocks:
            cuts |= seen & b.graph.vertices
            seen |= b.graph.vertices
        return frozenset(cuts)

    @property
    def links(self) -> frozenset[tuple[int, str]]:
        """(block id, cutvertex label) for each cutvertex of each block."""
        cuts = self.cutvertices
        return frozenset((b.id, c) for b in self.blocks
                         for c in cuts & b.graph.vertices)

    def block_ids(self) -> list[int]:
        return [b.id for b in self.blocks]


def block_cut_tree(g: Graph) -> BlockCutTree:
    """Blocks and cutvertices of a connected host.

    A single-vertex host yields one edgeless block.  Every edge of the
    host lies in exactly one block; two blocks share at most one vertex.
    """
    if not g.vertices:
        raise GraphError("empty graph has no block structure")
    if not g.is_connected():
        raise GraphError("block_cut_tree requires a connected graph")
    if len(g.vertices) == 1:
        return BlockCutTree((Block(0, Graph(g.vertices, frozenset())),))

    # on vertex numbers from the root 0, neighbours in ascending order
    verts, nbr = g.index.verts, g.index.nbr
    disc = [0] + [-1] * (len(verts) - 1)
    low = [0] * len(verts)
    clock = 1
    estack: list[tuple[int, int]] = []
    block_edge_sets: list[set[Edge]] = []

    stack: list[tuple[int, int, Iterator[int]]] = [(0, -1, iter(_bits(nbr[0])))]
    while stack:
        v, parent, it = stack[-1]
        for w in it:
            if w == parent:
                continue
            if disc[w] >= 0:
                if disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
                continue
            estack.append((v, w))
            disc[w] = low[w] = clock
            clock += 1
            stack.append((w, v, iter(_bits(nbr[w]))))
            break
        else:  # every neighbour of v is seen: v is done
            stack.pop()
            if parent < 0:
                continue
            low[parent] = min(low[parent], low[v])
            if low[v] >= disc[parent]:
                blk: set[Edge] = set()
                while True:
                    x, y = e = estack.pop()
                    blk.add((verts[min(x, y)], verts[max(x, y)]))
                    if e == (parent, v):
                        break
                block_edge_sets.append(blk)
    if estack:
        raise GraphError("internal error: unassigned edges after block scan")

    raw = [g.edge_subgraph(es) for es in block_edge_sets]
    raw.sort(key=lambda b: (tuple(b.sorted_vertices()), tuple(b.sorted_edges())))
    return BlockCutTree(tuple(Block(i, bg) for i, bg in enumerate(raw)))


def minimal_subtree(t: BlockCutTree, marked: Iterable[int]) -> BlockCutTree:
    """Smallest subtree of the block-cut tree spanning the marked blocks."""
    want = set(marked)
    unknown = want - set(t.block_ids())
    if unknown:
        raise GraphError(f"unknown block ids {sorted(unknown)!r}")
    if not want:
        raise GraphError("need at least one marked block")

    # tree nodes: a block by its id, a cutvertex by its label
    nbrs: dict[object, set[object]] = {b.id: set() for b in t.blocks}
    for bid, c in t.links:
        nbrs[bid].add(c)
        nbrs.setdefault(c, set()).add(bid)

    # peel unmarked leaves; a node whose degree falls to one is a new leaf
    leaves = [x for x, ns in nbrs.items() if len(ns) <= 1 and x not in want]
    while leaves:
        x = leaves.pop()
        for y in nbrs.pop(x):
            nbrs[y].discard(x)
            if len(nbrs[y]) == 1 and y not in want:
                leaves.append(y)
    return BlockCutTree(tuple(b for b in t.blocks if b.id in nbrs))


def choose_leaf_block(t: BlockCutTree) -> Block:
    """The first block, in id order, that is a leaf of the tree."""
    if not t.blocks:
        raise GraphError("empty block tree")
    cuts = t.cutvertices
    for b in t.blocks:
        if len(cuts & b.graph.vertices) <= 1:
            return b
    raise GraphError("internal error: tree without leaf blocks")


def branch_vertices(g: Graph, ctx: Graph) -> frozenset[str]:
    """Vertices of g whose degree in the context graph is at least 3."""
    if not g.vertices <= ctx.vertices:
        raise GraphError("subgraph vertices must lie in the context graph")
    if not g.edges <= ctx.edges:
        raise GraphError("subgraph edges must lie in the context graph")
    nbr, vidx = ctx.index.nbr, ctx.index.vidx
    return frozenset(v for v in g.vertices if nbr[vidx[v]].bit_count() >= 3)


_KIND_RANK = {"between": 0, "closed": 1, "pendant": 2}


class Segment(NamedTuple):
    """One replicable chain of g.

    kind 'between': ends = (a, b) branch vertices, a <= b, interior
    ordered from a.  kind 'pendant': ends = (branch, tip) where the tip
    has g-degree 1 and context degree at most 2; interior excludes the
    tip.  kind 'closed': ends = (a,), a cycle attached at one branch
    vertex.  length counts edges.
    """

    kind: str
    ends: tuple[str, ...]
    interior: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.interior) + 1

    def sort_key(self):
        return (_KIND_RANK[self.kind], self.ends, self.interior)


def segment_decomposition(g: Graph, ctx: Graph) -> list[Segment]:
    """Split the edges of g into segments between branch vertices."""
    return _segments(g, branch_vertices(g, ctx))


def _segments(g: Graph, branch: frozenset[str]) -> list[Segment]:
    """segment_decomposition with branch = branch_vertices(g, ctx)."""
    if not g.is_connected():
        raise GraphError("segment decomposition requires a connected graph")
    if not branch:
        raise GraphError("no branch vertices: nothing to decompose against")
    verts, nbr = g.index.verts, g.index.nbr
    at_branch = sum(1 << g.index.vidx[v] for v in branch)
    visited: set[int] = set()  # each edge as the mask of its two ends
    segments: list[Segment] = []

    for b in _bits(at_branch):
        for nb in _bits(nbr[b]):
            if (1 << b | 1 << nb) in visited:
                continue
            interior: list[int] = []
            prev, cur = b, nb
            visited.add(1 << b | 1 << nb)
            while not at_branch >> cur & 1 and nbr[cur].bit_count() == 2:
                interior.append(cur)
                prev, cur = cur, (nbr[cur] & ~(1 << prev)).bit_length() - 1
                visited.add(1 << prev | 1 << cur)
            inner = tuple(verts[x] for x in interior)
            if at_branch >> cur & 1:
                if cur == b:
                    # the walk leaves b by its lower neighbour first
                    segments.append(Segment("closed", (verts[b],), inner))
                else:
                    segments.append(Segment(
                        "between", (verts[min(b, cur)], verts[max(b, cur)]),
                        inner if b < cur else inner[::-1]))
            else:
                # non-branch, degree != 2 can only be a tip of g-degree 1
                segments.append(
                    Segment("pendant", (verts[b], verts[cur]), inner))
    if len(visited) != len(g.edges):
        raise GraphError("internal error: segment walk missed edges")
    segments.sort(key=Segment.sort_key)
    return segments


class Shape(enum.Enum):
    CYCLE = "Cycle"
    PATH = "Path"
    ISOLATED_VERTEX = "IsolatedVertex"
    HAS_DEGREE3_VERTEX = "HasDegree3Vertex"


def classify_shape(g: Graph) -> Shape:
    """Classify a connected graph by maximum degree at most 2 or not."""
    if not g.vertices:
        raise GraphError("cannot classify the empty graph")
    if not g.is_connected():
        raise GraphError("classification requires a connected graph")
    degrees = [ns.bit_count() for ns in g.index.nbr]
    if len(degrees) == 1:
        return Shape.ISOLATED_VERTEX
    if any(d >= 3 for d in degrees):
        return Shape.HAS_DEGREE3_VERTEX
    if all(d == 2 for d in degrees):
        return Shape.CYCLE
    return Shape.PATH
