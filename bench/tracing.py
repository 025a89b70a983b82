"""Spans around calls into minorbench's six modules, from outside them.

``Tracer.install`` replaces every public function of ``graph``,
``decompose``, ``gadgets``, ``embed``, ``verify`` and ``cli`` with a
wrapper, under every name a module imported it as (``verify.find_expansion``
as well as ``embed.find_expansion``), and ``uninstall`` puts the originals
back.  Nothing under ``src/`` changes.

A span records its name (``module.function`` of the defining module),
start, end, parent span and the job id as its request id.  A generator's
span covers only the time its frame runs: it is on the span stack while
the generator computes an item, and off it while the caller uses the
item, so the caller's own calls are not charged to the generator.
Spans stay in memory until ``write`` puts them in a JSON-lines file.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("graph", "decompose", "gadgets", "embed", "verify", "cli")
FOOTPRINTS = "embed.iter_expansion_footprints"
# Per-edge helpers: called millions of times per run, each call cheaper
# than a span, so wrapping them would measure the tracer.
UNTRACED = {"graph.edge", "graph.derived_label"}
SCANS = {"verify.check_gadget_robustness", "verify.check_assembly_robustness",
         "verify.check_generic_counterexample"}


class Span:
    __slots__ = ("id", "parent", "name", "job", "start", "end", "busy",
                 "info")

    def __init__(self, sid, parent, name, job, start):
        self.id, self.parent, self.name, self.job = sid, parent, name, job
        self.start = self.end = start
        self.busy = 0.0
        self.info = None

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "job": self.job, "start": self.start, "end": self.end,
                "busy": self.busy, **(self.info or {})}


def _info(name: str, bound: inspect.BoundArguments | None, result) -> dict:
    """Counts read off a call's arguments and result, per function."""
    if name == "embed.find_expansion":
        return {"nodes": result.nodes, "status": result.status.value}
    if name in SCANS:
        return {"probes": result.stats["subsets_checked"],
                "jobs": bound.arguments.get("jobs", 1)}
    if name == "verify.max_edge_disjoint_packing":
        return {"nodes": result.nodes}
    if name == "verify.min_edge_hitting_set":
        return {"subsets": result.subsets}
    if name == "verify.check_expansion_locality":
        return {"footprints": result.stats["footprints"],
                "restricted_searches": result.stats["restricted_searches"]}
    if name == "gadgets.segment_blowup":
        return {"vertices_out": len(result.vertices)}
    if name == "verify.canonical_json":
        return {"bytes": len(result.encode("utf-8"))}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job: str | None = None
        self.footprints: dict[int, list] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, name, self.job, perf_counter())
        self.spans.append(span)
        return span

    def _call(self, name, fn, sig, args, kwargs):
        span = self._open(name)
        self.stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            span.end = perf_counter()
            span.busy = span.end - span.start
        bound = sig.bind(*args, **kwargs) if name in SCANS else None
        span.info = _info(name, bound, result) or None
        return result

    def _iterate(self, name, gen, counter):
        span = None
        items = 0
        before = counter.nodes if counter is not None else 0
        try:
            while True:
                if span is None:
                    span = self._open(name)
                t = perf_counter()
                self.stack.append(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.stack.pop()
                    span.end = perf_counter()
                    span.busy += span.end - t
                items += 1
                if name == FOOTPRINTS:
                    self.footprints.setdefault(span.id, []).append(item[1])
                yield item
        finally:
            gen.close()
            if span is not None:
                span.info = {"items": items}
                if counter is not None:
                    span.info["nodes"] = counter.nodes - before

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counter = (sig.bind(*args, **kwargs).arguments["counter"]
                           if name == FOOTPRINTS else None)
                return self._iterate(name, fn(*args, **kwargs), counter)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._call(name, fn, sig, args, kwargs)
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the six modules, everywhere it
        is bound in the package."""
        mods = [sys.modules["minorbench"]] + [sys.modules[f"minorbench.{m}"]
                                              for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, mods[1:]):
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__
                        and name not in UNTRACED):
                    wrappers[id(fn)] = self._wrap(name, fn)
        for mod in mods:
            for attr, fn in list(vars(mod).items()):
                if id(fn) in wrappers and inspect.isfunction(fn):
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


# -- per-layer metrics ---------------------------------------------------------

def minimal_count(footprints: list) -> int:
    """How many footprints have no other footprint as a proper subset.

    Footprints are visited by size; ``without[e]`` marks the minimal ones
    found so far that avoid edge e, so the minimal footprints inside F are
    those avoiding every edge outside F."""
    index: dict = {}
    masks = []
    for fp in footprints:
        mask = 0
        for e in fp:
            mask |= 1 << index.setdefault(e, len(index))
        masks.append(mask)
    masks.sort(key=lambda m: m.bit_count())
    without = [0] * len(index)
    found = 0
    for mask in masks:
        inside = (1 << found) - 1
        for e in range(len(index)):
            if not mask >> e & 1:
                inside &= without[e]
        if inside:
            continue
        for e in range(len(index)):
            if not mask >> e & 1:
                without[e] |= 1 << found
        found += 1
    return found


def metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    spans = tr.spans

    def info(s: Span, key: str, default=0):
        return (s.info or {}).get(key, default)

    child_busy = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_busy[s.parent] += s.busy

    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name, key=None):
        return sum(info(s, key) if key else s.busy for s in named(name))

    def ancestor(s: Span, names) -> Span | None:
        p = s.parent
        while p is not None:
            if spans[p].name in names:
                return spans[p]
            p = spans[p].parent
        return None

    def excl(ss):
        return sum(s.busy - child_busy[s.id] for s in ss)

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for layer in LAYERS:
        put(f"{layer}.self_s",
            excl(s for s in spans if s.name.startswith(layer + ".")), "s")
    put("cli.main.calls", len(named("cli.main")), "count")
    put("verify.canonical_json.s", total("verify.canonical_json"), "s")
    put("verify.canonical_json.bytes",
        total("verify.canonical_json", "bytes"), "bytes")
    for fn in ("parse_graph", "delete_edges"):
        put(f"graph.{fn}.calls", len(named(f"graph.{fn}")), "count")
        put(f"graph.{fn}.s", total(f"graph.{fn}"), "s")
    for fn in ("relabeled_union", "connected_components"):
        put(f"graph.{fn}.s", total(f"graph.{fn}"), "s")
    for fn in ("block_cut_tree", "segment_decomposition", "branch_vertices"):
        put(f"decompose.{fn}.calls", len(named(f"decompose.{fn}")), "count")
        put(f"decompose.{fn}.s", total(f"decompose.{fn}"), "s")
    put("gadgets.segment_blowup.calls",
        len(named("gadgets.segment_blowup")), "count")
    put("gadgets.segment_blowup.s", total("gadgets.segment_blowup"), "s")
    put("gadgets.segment_blowup.vertices_out",
        total("gadgets.segment_blowup", "vertices_out"), "count")
    put("gadgets.assemble.s",
        excl([*named("gadgets.assemble_component_counterexample"),
              *named("gadgets.assemble_block_counterexample")]), "s")
    put("embed.is_minor.calls", len(named("embed.is_minor")), "count")
    put("embed.is_minor.s", total("embed.is_minor"), "s")

    fe = named("embed.find_expansion")
    nodes = total("embed.find_expansion", "nodes")
    put("embed.find_expansion.calls", len(fe), "count")
    put("embed.find_expansion.s", total("embed.find_expansion"), "s")
    put("embed.find_expansion.nodes", nodes, "count")
    for status, key in (("found", "found"), ("none", "none"),
                        ("budget-exhausted", "budget")):
        put(f"embed.find_expansion.{key}",
            sum(1 for s in fe if info(s, "status") == status), "count")
    put("embed.find_expansion.us_per_node",
        total("embed.find_expansion") / nodes * 1e6 if nodes else 0.0, "us")

    fp = FOOTPRINTS
    yielded = total(fp, "items")
    minimal = sum(minimal_count(f) for f in tr.footprints.values())
    put("embed.footprints.yielded", yielded, "count")
    put("embed.footprints.s", total(fp), "s")
    put("embed.footprints.nodes", total(fp, "nodes"), "count")
    put("embed.footprints.minimal_frac",
        minimal / yielded if yielded else 0.0, "ratio")

    pack = "verify.max_edge_disjoint_packing"
    scans = [s for s in spans if s.name in SCANS and info(s, "jobs", 1) == 1]
    scan_ids = {s.id for s in scans}
    probes = sum(info(s, "probes") for s in scans)
    searches = [s for s in fe if (a := ancestor(s, SCANS)) is not None
                and a.id in scan_ids]
    # gencheck packs before it scans; that time belongs to verify.pack.*
    nested = {"embed.find_expansion", "graph.delete_edges", pack}
    inner = sum(s.busy for s in spans if s.name in nested
                and (a := ancestor(s, SCANS | nested)) is not None
                and a.id in scan_ids)
    put("verify.scan.probes", probes, "count")
    put("verify.scan.searches", len(searches), "count")
    put("verify.scan.searches_per_probe",
        len(searches) / probes if probes else 0.0, "ratio")
    put("verify.scan.self_s", sum(s.busy for s in scans) - inner, "s")
    put("verify.scan.jobs2_s", sum(s.busy for s in spans if s.name in SCANS
                                   and info(s, "jobs", 1) > 1), "s")

    pack_fp = [s for s in named(fp) if ancestor(s, {pack})]
    put("verify.pack.search_nodes",
        total(pack, "nodes") - sum(info(s, "nodes") for s in pack_fp), "count")
    put("verify.pack.self_s", excl(named(pack)), "s")

    hit = "verify.min_edge_hitting_set"
    hit_inner = [s for s in spans
                 if s.name in ("embed.find_expansion", "graph.delete_edges")
                 and ancestor(s, {hit})]
    put("verify.hit.subsets", total(hit, "subsets"), "count")
    put("verify.hit.searches",
        sum(1 for s in hit_inner if s.name == "embed.find_expansion"),
        "count")
    put("verify.hit.self_s",
        total(hit) - sum(s.busy for s in hit_inner), "s")

    loc = "verify.check_expansion_locality"
    put("verify.locality.footprints", total(loc, "footprints"), "count")
    put("verify.locality.restricted_searches",
        total(loc, "restricted_searches"), "count")
    put("trace.spans", len(spans), "count")
    return out
