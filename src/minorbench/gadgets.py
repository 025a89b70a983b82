"""Gadget constructions: segment blowups and counterexample assemblies.

The blowup of a subgraph g in a context graph keeps one copy of every
branch vertex and replaces each segment by r parallel copies, so that
deleting any r-1 edges leaves at least one intact copy per segment.

The two assembly builders combine a user-supplied robust core graph
with blowups and raw copies of the remaining material of a host graph,
either per connected component or per block of the block-cut tree.
Provenance tags on the result record which part produced each vertex;
the vertices contributed by the core are retrievable via core_region.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from .graph import (Edge, Graph, GraphError, ParseError, _parse_edge_block,
                    connected_components, derived_label, relabeled_union)
from .decompose import (Block, Shape, _segments, block_cut_tree,
                        branch_vertices, choose_leaf_block, classify_shape,
                        minimal_subtree)
from .embed import MinorPredicate, is_minor

__all__ = [
    "BuildTrace", "CoreSpec", "assemble_block_counterexample",
    "assemble_component_counterexample", "core_region", "load_core_spec",
    "segment_blowup",
]


def segment_blowup(g: Graph, ctx: Graph, r: int) -> Graph:
    """Replace every segment of g by r parallel copies.

    Branch vertices keep their labels.  A between segment of length l
    becomes r internally disjoint paths of length max(l, 2) joining the
    two branch copies; a pendant segment of length l becomes r paths of
    length l sharing only the branch copy; a closed segment of length l
    becomes r cycles of length max(l, 3) through the branch copy.
    """
    if r < 1:
        raise GraphError("replication count must be at least 1")
    branch = branch_vertices(g, ctx)
    # provenance also serves as the set of labels taken so far: a
    # generated label that is taken gains "+" until it is free
    prov: dict[str, str] = {v: f"branch:{v}" for v in branch}
    edges: list[Edge] = []
    for j, seg in enumerate(_segments(g, branch)):
        a, end = seg.ends[0], seg.ends[-1]
        # each copy runs from a through span - 1 fresh vertices; between
        # and closed copies then close at their end vertex
        span, closes = {"between": (max(seg.length, 2), True),
                        "closed": (max(seg.length, 3), True),
                        "pendant": (seg.length + 1, False)}[seg.kind]
        stem, tag = f"{a}~{end}.{j}.", f"path:{a}~{end}.{j}:copy"
        for i in range(r):
            prev = a
            for k in range(1, span):
                cur = f"{stem}{i}.{k}"
                while cur in prov:
                    cur += "+"
                prov[cur] = f"{tag}{i}:pos{k}"
                edges.append((prev, cur) if prev < cur else (cur, prev))
                prev = cur
            if closes:
                edges.append((prev, end) if prev < end else (end, prev))
    return Graph(frozenset(prov), frozenset(edges), prov)


class _Spec(NamedTuple):
    """The fields of a CoreSpec, which checks them when it is made."""

    core: Graph
    roots: Mapping[str, str] = MappingProxyType({})
    k: int = 1
    r: int = 1


class CoreSpec(_Spec):
    """Externally supplied robust core graph with its claimed parameters.

    roots maps cutvertex labels of the host's distinguished block to
    vertices of the core; k is the packing bound the core claims to beat
    and r the deletion robustness it claims to survive.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if spec.k < 1 or spec.r < 1:
            raise GraphError("spec parameters k and r must be positive")
        for s, sp in spec.roots.items():
            if sp not in spec.core.vertices:
                raise GraphError(f"dangling root target {sp!r}")
        return spec

    @classmethod
    def _make(cls, iterable):  # so that _replace checks as well
        return cls(*iterable)


def load_core_spec(text: str) -> CoreSpec:
    """Parse a core-spec document: an edge list, root lines, k and r.

    The graph block comes first in the plain edge-list format; the
    remaining lines are ``root s -> s'`` mappings and the two parameter
    lines ``k <int>`` and ``r <int>``, in any order.
    """
    core, rest = _parse_edge_block(text)
    roots: dict[str, str] = {}
    params: dict[str, int] = {}
    for lineno, ln in rest:
        toks = ln.split()
        if toks[0] == "root":
            if len(toks) != 4 or toks[2] != "->":
                raise ParseError(f"expected 'root s -> t', got {ln!r}", lineno)
            s, t = toks[1], toks[3]
            if s in roots:
                raise ParseError(f"duplicate root for {s!r}", lineno)
            if t not in core.vertices:
                raise ParseError(f"dangling root target {t!r}", lineno)
            roots[s] = t
        elif toks[0] in ("k", "r") and len(toks) == 2 and toks[1].isdecimal():
            if toks[0] in params:
                raise ParseError(f"duplicate {toks[0]!r} line", lineno)
            params[toks[0]] = int(toks[1])
        else:
            raise ParseError(f"unrecognized spec line {ln!r}", lineno)
    if len(params) < 2:
        raise ParseError("spec must define both k and r")
    return CoreSpec(core, roots, params["k"], params["r"])


def _kept_branches(blowup: Graph) -> dict[str, str]:
    return {v: v for v, tag in blowup.provenance.items()
            if tag.startswith("branch:")}


def _pieces(blocks: list[Block]) -> list[Graph]:
    """The connected components of the union of the given blocks."""
    return connected_components(Graph(
        frozenset(v for b in blocks for v in b.graph.vertices),
        frozenset(e for b in blocks for e in b.graph.edges)))


def _with_tag(g: Graph, prefix: str) -> Graph:
    return Graph(g.vertices, g.edges, {v: f"{prefix}:{v}" for v in g.vertices})


def core_region(g: Graph) -> frozenset[str]:
    """Vertices of an assembly contributed by the core part."""
    if g.provenance is None:
        raise GraphError("graph carries no provenance")
    return frozenset(v for v, tag in g.provenance.items()
                     if any(t.startswith("core:") for t in tag.split()))


def assemble_component_counterexample(h: Graph, anchor: str,
                                      spec: CoreSpec, r: int) -> Graph:
    """Swap the component of h holding vertex anchor for the core.

    Other components where the anchor component is not a minor appear r
    times verbatim; those containing it as a minor are blown up, after
    all the copies.  All parts stay disjoint.  The anchor component must
    have a degree-3 vertex (a cycle, path, or single vertex never needs
    this treatment).  Minor tests run through is_minor, so
    BudgetExceeded may propagate.
    """
    if r < 1:
        raise GraphError("replication count must be at least 1")
    if spec.roots:
        raise GraphError("component assembly takes a spec without roots")
    comps = connected_components(h)
    own = next((c for c in comps if anchor in c.vertices), None)
    if own is None:
        raise GraphError(f"no component contains vertex {anchor!r}")
    if classify_shape(own) is not Shape.HAS_DEGREE3_VERTEX:
        raise GraphError("anchor component has maximum degree at most 2")
    parts: list[Graph] = [_with_tag(spec.core, "core")]
    blowups: list[Graph] = []
    for comp in comps:
        if comp is own:
            continue
        if is_minor(own, comp):
            blowups.append(segment_blowup(comp, h, r))
        else:
            parts.extend(_with_tag(comp, f"copy{j}") for j in range(r))
    return relabeled_union(parts + blowups)


class BuildTrace(NamedTuple):
    """Audit record of a block assembly: classifications and gluing."""

    mode = "blocks"
    anchor_block: tuple[str, ...]
    predicate_blocks: tuple[tuple[str, ...], ...]
    containing_blocks: tuple[tuple[str, ...], ...]
    chain_blocks: tuple[tuple[str, ...], ...]
    outside_components: tuple[tuple[str, ...], ...]
    trivial_paths: tuple[tuple[str, ...], ...]
    roots: tuple[tuple[str, str], ...]
    identifications: tuple[tuple[str, tuple[str, ...]], ...]
    core_vertices: tuple[str, ...]

    def to_json_obj(self) -> dict:
        """The fields by name, tuples left for canonical_json to write
        as lists."""
        return {"mode": self.mode, **self._asdict()}


def assemble_block_counterexample(h: Graph, predicate: MinorPredicate,
                                  spec: CoreSpec, r: int
                                  ) -> tuple[Graph, BuildTrace]:
    """Swap a leaf predicate block of h for the core, glue the rest back.

    The distinguished block is the first leaf, in block order, of the
    minimal block subtree over the blocks satisfying the predicate.
    Blocks containing it as a minor are blown up, as are the non-trivial
    connecting blocks on the subtree between them and paths formed by
    the trivial ones; material hanging outside that subtree is copied r
    times.  Copies of the same host vertex are identified with each
    other, and the spec roots are identified with the copies of their
    cutvertices.  Minor tests run through is_minor, so BudgetExceeded
    may propagate.
    """
    if r < 1:
        raise GraphError("replication count must be at least 1")
    tree = block_cut_tree(h)
    marked = [b.id for b in tree.blocks if predicate.holds(b.graph)]
    if not marked:
        raise GraphError("no block satisfies the predicate")
    anchor = choose_leaf_block(minimal_subtree(tree, marked))
    if anchor.is_trivial or len(anchor.graph.vertices) < 3:
        raise GraphError("chosen block is trivial; nothing to replace")

    cut_in_anchor = tree.cutvertices & anchor.graph.vertices
    if set(spec.roots) != cut_in_anchor:
        raise GraphError(
            f"spec roots {sorted(spec.roots)} do not match the cutvertices "
            f"{sorted(cut_in_anchor)} of the chosen block")

    containing = [b for b in tree.blocks
                  if b.id != anchor.id and is_minor(anchor.graph, b.graph)]
    pinned = {anchor.id} | {b.id for b in containing}
    sub = minimal_subtree(tree, pinned)
    sub_ids = set(sub.block_ids())
    chain = [b for b in sub.blocks if b.id not in pinned]
    hangers = _pieces([b for b in tree.blocks if b.id not in sub_ids])
    trivial_paths = _pieces([b for b in chain if b.is_trivial])
    sub_vertices = {v for b in sub.blocks for v in b.graph.vertices}

    # parts and, per part, where the copies of original host vertices live
    parts: list[Graph] = [_with_tag(spec.core, "core")]
    copies: list[dict[str, str]] = [dict(spec.roots)]
    for blk in containing:
        parts.append(segment_blowup(blk.graph, h, r))
        copies.append(_kept_branches(parts[-1]))
    hanger_attach: list[str] = []
    for d in hangers:
        attach = sorted(d.vertices & sub_vertices)
        if len(attach) != 1:
            raise GraphError("internal error: hanging component without a "
                             "unique attachment vertex")
        hanger_attach.append(attach[0])
        for j in range(r):
            parts.append(_with_tag(d, f"copy{j}"))
            copies.append({attach[0]: attach[0]})
    for part in [b.graph for b in chain if not b.is_trivial] + trivial_paths:
        parts.append(segment_blowup(part, h, r))
        copies.append(_kept_branches(parts[-1]))

    occurrences: dict[str, list[str]] = {}
    for i, table in enumerate(copies):
        for orig, local in table.items():
            occurrences.setdefault(orig, []).append(derived_label(local, i))
    groups = [frozenset(locs) for orig, locs in sorted(occurrences.items())
              if len(locs) >= 2]
    for attach in hanger_attach:
        if len(occurrences[attach]) < 2:
            raise GraphError("internal error: hanging component attaches at a "
                             "vertex with no copy in the assembly")

    out = relabeled_union(parts, groups)

    trace = BuildTrace(
        anchor_block=tuple(anchor.graph.sorted_vertices()),
        predicate_blocks=tuple(tuple(tree.blocks[i].graph.sorted_vertices())
                               for i in marked),
        containing_blocks=tuple(tuple(b.graph.sorted_vertices()) for b in containing),
        chain_blocks=tuple(tuple(b.graph.sorted_vertices()) for b in chain),
        outside_components=tuple(tuple(d.sorted_vertices()) for d in hangers),
        trivial_paths=tuple(tuple(p.sorted_vertices()) for p in trivial_paths),
        roots=tuple(sorted(spec.roots.items())),
        identifications=tuple(sorted((min(gp), tuple(sorted(gp))) for gp in groups)),
        core_vertices=tuple(sorted(core_region(out))),
    )
    return out, trace
