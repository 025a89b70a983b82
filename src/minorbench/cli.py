"""Command-line front end.

Exit codes: 0 holds / success, 1 refuted (a witness is part of the
report), 2 budget-exhausted, 64 usage errors, 65 unreadable or
malformed inputs and domain errors.

Reports go to stdout as canonical JSON (key-sorted, fixed layout, no
timing fields), so identical invocations produce byte-identical
output; a one-line human summary with the wall time since the command
started goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from time import perf_counter

from .graph import (Graph, GraphError, connected_components, parse_graph,
                    parse_graph6, serialize)
from .decompose import (_segments, block_cut_tree, branch_vertices,
                        classify_shape)
from .embed import (DEFAULT_NODE_BUDGET, BudgetExceeded, MinorEmbedding,
                    MinorPredicate, find_expansion, verify_embedding)
from .gadgets import (assemble_block_counterexample,
                      assemble_component_counterexample, load_core_spec,
                      segment_blowup)
from .verify import (_EXIT, _OUTCOME, DEFAULT_SEED, Budget, Outcome, Report,
                     _sorted_footprint, canonical_json,
                     check_assembly_robustness, check_branch_count,
                     check_expansion_locality, check_gadget_robustness,
                     check_generic_counterexample, check_hereditary_sampled,
                     graph_json, max_edge_disjoint_packing,
                     min_edge_hitting_set)

USAGE_EXIT = 64
DATA_EXIT = 65


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit remapped to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> Graph:
    text = _read_text(path)
    if path.endswith(".g6"):
        return parse_graph6(text)
    return parse_graph(text)


def _load_graphs(*paths: str) -> list[Graph]:
    """The graph at each path, reading and parsing a path named more
    than once (such as ``-`` for stdin) only the first time."""
    loaded = {p: _load_graph(p) for p in dict.fromkeys(paths)}
    return [loaded[p] for p in paths]


def _parse_budget(text: str) -> Budget:
    parts = text.split(":")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError("budget is NODES[:SEARCHES]")
    return Budget(*map(_int_at_least(1), parts))


def _int_at_least(low: int):
    """argparse type for integers no smaller than low."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return n
    return parse


def _parse_roots(text: str) -> dict[str, str]:
    roots: dict[str, str] = {}
    for pair in text.split(","):
        if pair.count("=") != 1:
            raise GraphError(f"roots entry {pair!r} is not 'pattern=host'")
        u, v = pair.split("=")
        u, v = u.strip(), v.strip()
        if not u or not v:
            raise GraphError(f"roots entry {pair!r} is not 'pattern=host'")
        if u in roots:
            raise GraphError(f"duplicate root for {u!r}")
        roots[u] = v
    return roots


def _parse_region(text: str) -> list[str]:
    if text.startswith("@"):
        return [ln.strip() for ln in _read_text(text[1:]).splitlines()
                if ln.strip()]
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _json_object(obj):
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _write_out(text: str, args) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(rep: Report, args) -> int:
    _write_out(rep.to_json(), args)
    print(f"{rep.check}: {rep.outcome.value} in "
          f"{perf_counter() - args.started:.2f}s", file=sys.stderr)
    return rep.exit_code


def _emit_graph(g: Graph, args) -> int:
    _write_out(serialize(g, args.format), args)
    return 0


# -- inspection commands -----------------------------------------------------

def cmd_components(args) -> int:
    comps = connected_components(_load_graph(args.file))
    if args.format == "json":
        _write_out(canonical_json(
            {"components": [graph_json(c) for c in comps]}), args)
        return 0
    _write_out("".join(f"component {i}: n={len(c.vertices)} m={len(c.edges)} "
                       f"vertices: {' '.join(c.sorted_vertices())}\n"
                       for i, c in enumerate(comps, start=1)), args)
    return 0


def cmd_blocks(args) -> int:
    tree = block_cut_tree(_load_graph(args.file))
    if args.format == "json":
        obj = {
            "blocks": [{"id": b.id, "trivial": b.is_trivial,
                        "vertices": b.graph.sorted_vertices(),
                        "edges": [[u, v] for u, v in b.graph.sorted_edges()]}
                       for b in tree.blocks],
            "cutvertices": sorted(tree.cutvertices),
            "links": [[bid, c] for bid, c in sorted(tree.links)],
        }
        _write_out(canonical_json(obj), args)
        return 0
    lines = []
    for b in tree.blocks:
        kind = ("trivial" if b.is_trivial else
                "2-connected" if b.graph.edges else "isolated")
        lines.append(f"block {b.id} ({kind}): "
                     f"{' '.join(b.graph.sorted_vertices())}")
    lines.append(" ".join(["cutvertices:", *sorted(tree.cutvertices)]))
    _write_out("\n".join(lines) + "\n", args)
    return 0


def cmd_segments(args) -> int:
    g, ctx = _load_graphs(args.file, args.ctx)
    branch = branch_vertices(g, ctx)
    segs = _segments(g, branch)
    if args.format == "json":
        obj = {"branch_vertices": sorted(branch),
               "segments": [{"kind": s.kind, "ends": list(s.ends),
                             "interior": list(s.interior),
                             "length": s.length} for s in segs]}
        _write_out(canonical_json(obj), args)
        return 0
    lines = []
    for s in segs:
        via = f" via {' '.join(s.interior)}" if s.interior else ""
        lines.append(f"{s.kind} {' '.join(s.ends)} length {s.length}{via}")
    lines.append("branch vertices: " + " ".join(sorted(branch)))
    _write_out("\n".join(lines) + "\n", args)
    return 0


def cmd_classify(args) -> int:
    comps = connected_components(_load_graph(args.file))
    if not comps:
        raise GraphError("cannot classify the empty graph")
    _write_out("".join(classify_shape(c).value + "\n" for c in comps), args)
    return 0


# -- construction commands ---------------------------------------------------

def cmd_gtimes(args) -> int:
    g, ctx = _load_graphs(args.file, args.ctx)
    if args.check_branch_count:
        return _emit_report(check_branch_count(g, ctx, args.r), args)
    return _emit_graph(segment_blowup(g, ctx, args.r), args)


def cmd_hstar1(args) -> int:
    h = _load_graph(args.file)
    spec = load_core_spec(_read_text(args.spec))
    out = assemble_component_counterexample(h, args.anchor, spec, args.r)
    return _emit_graph(out, args)


def cmd_hstar2(args) -> int:
    h, target = _load_graphs(args.file, args.predicate)
    spec = load_core_spec(_read_text(args.spec))
    pred = MinorPredicate(f"contains-minor:{args.predicate}", target)
    out, trace = assemble_block_counterexample(h, pred, spec, args.r)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(trace.to_json_obj()))
    return _emit_graph(out, args)


# -- query commands ----------------------------------------------------------

def cmd_minor(args) -> int:
    h, g = _load_graphs(args.pattern, args.host)
    if args.verify:
        with open(args.verify, encoding="utf-8") as fh:
            obj = json.load(fh)
        try:
            if "branch_sets" not in _json_object(obj):
                details = _json_object(obj.get("details", {}))
                obj = details.get("embedding") or details.get("witness_embedding")
            emb = (None if obj is None
                   else MinorEmbedding.from_json_obj(_json_object(obj)))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed witness: {exc}") from None
        if emb is None:
            raise GraphError("no embedding found in the witness file")
        ok = verify_embedding(h, g, emb)
        rep = Report("witness-verify",
                     Outcome.HOLDS if ok else Outcome.REFUTED,
                     {"witness": args.verify}, {"nodes": 0})
        return _emit_report(rep, args)
    res = find_expansion(h, g, node_budget=args.budget)
    details: dict = {"pattern": graph_json(h), "host_vertices": len(g.vertices)}
    if res.embedding is not None:
        details["embedding"] = res.embedding.to_json_obj()
    rep = Report("minor-test", _OUTCOME[res.status], details,
                 {"nodes": res.nodes})
    return _emit_report(rep, args)


def cmd_pack(args) -> int:
    h, g = _load_graphs(args.pattern, args.host)
    res = max_edge_disjoint_packing(h, g, cap=args.cap,
                                    node_budget=args.budget)
    details = {"count": res.count, "cap": args.cap,
               "witness": [_sorted_footprint(fp) for fp in res.witness]}
    rep = Report("packing",
                 Outcome.HOLDS if res.exact else Outcome.BUDGET,
                 details, {"nodes": res.nodes})
    return _emit_report(rep, args)


def cmd_hit(args) -> int:
    h, g = _load_graphs(args.pattern, args.host)
    res = min_edge_hitting_set(h, g, bound=args.bound, budget=args.budget)
    if not res.exact:
        outcome = Outcome.BUDGET
    elif res.size is None:
        outcome = Outcome.REFUTED
    else:
        outcome = Outcome.HOLDS
    details = {"size": res.size, "bound": args.bound,
               "hitting_edges": None if res.hitting_edges is None
               else [[u, v] for u, v in res.hitting_edges]}
    if outcome is Outcome.BUDGET:
        details["stopped_at"] = [[u, v] for u, v in res.stopped_at]
    rep = Report("hitting", outcome, details,
                 {"nodes": res.nodes, "searches": res.searches,
                  "subsets_checked": res.subsets})
    return _emit_report(rep, args)


# -- verification commands ---------------------------------------------------

def cmd_robust(args) -> int:
    if args.roots and not args.host:
        raise GraphError("--roots only applies together with --host")
    if args.ctx:
        pattern, ctx = _load_graphs(args.file, args.ctx)
        rep = check_gadget_robustness(pattern, ctx, args.r, args.budget)
    else:
        pattern, host = _load_graphs(args.file, args.host)
        roots = _parse_roots(args.roots) if args.roots else None
        rep = check_assembly_robustness(pattern, host, args.r, roots,
                                        args.budget)
    return _emit_report(rep, args)


def cmd_locality(args) -> int:
    h, hstar, anchor = _load_graphs(args.pattern, args.host, args.anchor)
    region = _parse_region(args.region)
    rep = check_expansion_locality(h, hstar, anchor, region, args.budget)
    return _emit_report(rep, args)


def cmd_gencheck(args) -> int:
    anchor = _load_graph(args.anchor)
    spec = load_core_spec(_read_text(args.spec))
    rep = check_generic_counterexample(anchor, spec, args.budget)
    return _emit_report(rep, args)


def cmd_hereditary(args) -> int:
    print(f"seed: {args.seed}", file=sys.stderr)
    target, *corpus = _load_graphs(args.target, *args.corpus)
    pred = MinorPredicate(f"contains-minor:{args.target}", target)
    rep = check_hereditary_sampled(pred, corpus, args.trials, args.steps,
                                   args.seed)
    return _emit_report(rep, args)


# -- wiring -------------------------------------------------------------------

def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=_int_at_least(1),
                   default=DEFAULT_NODE_BUDGET, metavar="NODES",
                   help="search nodes per search")


def _add_scan_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=_parse_budget, default=Budget(),
                   metavar="NODES[:SEARCHES]",
                   help="search nodes per search / searches per command")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", metavar="PATH",
                   help="write to PATH instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main() call, not at
    import, and shared by later calls in the same process."""
    parser = _Parser(prog="minorbench",
                     description="graph-minor gadget construction and "
                                 "verification workbench")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("components", help="list connected components")
    p.add_argument("file")
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_output(p)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("blocks", help="block-cut tree of a connected graph")
    p.add_argument("file")
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_output(p)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("segments",
                       help="segment decomposition against a context graph")
    p.add_argument("file")
    p.add_argument("--ctx", required=True, metavar="CTXFILE")
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_output(p)
    p.set_defaults(func=cmd_segments)

    p = sub.add_parser("classify",
                       help="shape of each component (Cycle, Path, ...)")
    p.add_argument("file")
    _add_output(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gtimes",
                       help="replace every segment by r parallel copies")
    p.add_argument("file")
    p.add_argument("--ctx", required=True, metavar="CTXFILE")
    p.add_argument("-r", type=_int_at_least(1), required=True,
                   help="replication count")
    p.add_argument("--format", choices=["edge-list", "dot"],
                   default="edge-list")
    p.add_argument("--check-branch-count", action="store_true",
                   help="report on the branch-vertex correspondence instead")
    _add_output(p)
    p.set_defaults(func=cmd_gtimes)

    p = sub.add_parser("hstar1",
                       help="assemble the component-level counterexample")
    p.add_argument("file", help="host graph")
    p.add_argument("spec", help="core spec document")
    p.add_argument("--anchor", required=True, metavar="VERTEX",
                   help="any vertex of the anchor component")
    p.add_argument("-r", type=_int_at_least(1), required=True)
    p.add_argument("--format", choices=["edge-list", "dot"],
                   default="edge-list")
    _add_output(p)
    p.set_defaults(func=cmd_hstar1)

    p = sub.add_parser("hstar2",
                       help="assemble the block-level counterexample")
    p.add_argument("file", help="host graph")
    p.add_argument("spec", help="core spec document")
    p.add_argument("--predicate", required=True, metavar="TARGETFILE",
                   help="block predicate: contains this graph as a minor")
    p.add_argument("-r", type=_int_at_least(1), required=True)
    p.add_argument("--trace", metavar="PATH",
                   help="also write the build trace as JSON")
    p.add_argument("--format", choices=["edge-list", "dot"],
                   default="edge-list")
    _add_output(p)
    p.set_defaults(func=cmd_hstar2)

    p = sub.add_parser("minor", help="test pattern <= host and emit a model")
    p.add_argument("pattern")
    p.add_argument("host")
    p.add_argument("--verify", metavar="WITNESS",
                   help="check a stored embedding instead of searching")
    _add_budget(p)
    _add_output(p)
    p.set_defaults(func=cmd_minor)

    p = sub.add_parser("pack",
                       help="maximum edge-disjoint expansion packing")
    p.add_argument("pattern")
    p.add_argument("host")
    p.add_argument("--cap", type=_int_at_least(1), default=None,
                   help="stop once this many disjoint copies are found")
    _add_budget(p)
    _add_output(p)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("hit", help="minimum expansion-hitting edge set")
    p.add_argument("pattern")
    p.add_argument("host")
    p.add_argument("--bound", type=_int_at_least(0), default=None,
                   help="largest hitting-set size to try")
    _add_scan_budget(p)
    _add_output(p)
    p.set_defaults(func=cmd_hit)

    p = sub.add_parser("robust",
                       help="expansions survive all small edge deletions")
    p.add_argument("file", help="pattern graph")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--ctx", metavar="CTXFILE",
                      help="scan the blowup of the pattern in this context")
    mode.add_argument("--host", metavar="HOSTFILE",
                      help="scan this host graph directly")
    p.add_argument("-r", type=_int_at_least(1), required=True,
                   help="deletion radius: all deletions of fewer edges")
    p.add_argument("--roots", metavar="P=H,..",
                   help="with --host: pin pattern vertices to host vertices")
    _add_scan_budget(p)
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="accepted for compatibility; has no effect")
    _add_output(p)
    p.set_defaults(func=cmd_robust)

    p = sub.add_parser("locality",
                       help="expansions realize the anchor inside a region")
    p.add_argument("pattern")
    p.add_argument("host")
    p.add_argument("anchor", help="anchor subgraph of the pattern")
    p.add_argument("--region", required=True, metavar="V1,V2,..|@FILE",
                   help="host vertices forming the region")
    _add_budget(p)
    _add_output(p)
    p.set_defaults(func=cmd_locality)

    p = sub.add_parser("gencheck",
                       help="core beats the packing bound yet resists "
                            "deletions")
    p.add_argument("anchor", help="anchor pattern graph")
    p.add_argument("spec", help="core spec document")
    _add_scan_budget(p)
    _add_output(p)
    p.set_defaults(func=cmd_gencheck)

    p = sub.add_parser("hereditary",
                       help="minor steps never create the target minor")
    p.add_argument("target", help="target pattern graph")
    p.add_argument("corpus", nargs="+", help="corpus graph files")
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--steps", type=_int_at_least(1), default=4,
                   help="maximum minor operations per trial")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output(p)
    p.set_defaults(func=cmd_hereditary)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    args.started = perf_counter()
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT[Outcome.BUDGET]
    except (GraphError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
