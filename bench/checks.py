"""Correctness checks on minorbench outputs that do not trust the engine.

Every check returns a list of problems; an empty list means the output
is correct.  Models, footprints, decompositions and blowup sizes are
re-derived here from first principles (breadth-first search, chain walks,
edge counting).  The engine is called in one place only, ``engine_model``,
to look for a model inside a packing footprint or in a host minus a
hitting set, and a model it returns is verified here again.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

G = namedtuple("G", "vertices edges")


def norm(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


def graph(vertices, edges) -> G:
    es = frozenset(norm(u, v) for u, v in edges)
    return G(frozenset(vertices) | {x for e in es for x in e}, es)


def parse_edge_list(text: str) -> G:
    """Read the edge-list format (``n m`` header, n names, m pairs)."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    n, m = (int(x) for x in lines[0].split())
    if len(lines) != 1 + n + m:
        raise ValueError(f"header says {n} + {m} lines, got {len(lines) - 1}")
    return graph(lines[1:1 + n], (ln.split() for ln in lines[1 + n:]))


def adjacency(g: G) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def connected(vs: set[str], edges) -> bool:
    """Whether the subgraph of ``edges`` induced on ``vs`` is connected."""
    if not vs:
        return False
    adj = {v: set() for v in vs}
    for u, v in edges:
        if u in vs and v in vs:
            adj[u].add(v)
            adj[v].add(u)
    start = next(iter(vs))
    seen, todo = {start}, [start]
    while todo:
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return seen == vs


# -- models, packings, hitting sets -----------------------------------------

def model_problems(pattern: G, host: G, model: dict) -> list[str]:
    """Branch sets disjoint, non-empty and connected; edge images distinct
    host edges joining the right branch sets.  The engine's own
    ``verify_embedding`` must reach the same verdict."""
    bs = {u: set(vs) for u, vs in model["branch_sets"].items()}
    if set(bs) != pattern.vertices:
        return ["branch sets do not cover the pattern vertices"]
    probs = []
    seen: set[str] = set()
    for u, s in sorted(bs.items()):
        if not s <= host.vertices:
            probs.append(f"branch set of {u} leaves the host")
        if s & seen:
            probs.append(f"branch set of {u} overlaps another")
        seen |= s
        if not connected(s, host.edges):
            probs.append(f"branch set of {u} is empty or disconnected")
    images = {norm(*he): norm(*ge) for he, ge in model["edge_images"]}
    if set(images) != pattern.edges:
        probs.append("edge images do not cover the pattern edges")
    if len(set(images.values())) != len(images):
        probs.append("two pattern edges share a host edge")
    for (u, w), (a, b) in sorted(images.items()):
        if (a, b) not in host.edges:
            probs.append(f"edge image {a}-{b} is not a host edge")
        bu, bw = bs.get(u, set()), bs.get(w, set())
        if not ((a in bu and b in bw) or (a in bw and b in bu)):
            probs.append(f"edge image {a}-{b} does not join {u} and {w}")
    if engine_accepts(pattern, host, model) != (not probs):
        probs.append("verify_embedding disagrees with the independent check")
    return probs


def engine_accepts(pattern: G, host: G, model: dict) -> bool:
    from minorbench import Graph, MinorEmbedding, verify_embedding
    return verify_embedding(Graph.build(pattern.vertices, pattern.edges),
                            Graph.build(host.vertices, host.edges),
                            MinorEmbedding.from_json_obj(model))


def engine_model(pattern: G, host: G) -> dict | None:
    """A model of pattern in host found by the engine, or None."""
    from minorbench import Graph, find_expansion
    res = find_expansion(Graph.build(pattern.vertices, pattern.edges),
                         Graph.build(host.vertices, host.edges),
                         node_budget=None)
    return None if res.embedding is None else res.embedding.to_json_obj()


def packing_problems(pattern: G, host: G, witness: list,
                     count: int) -> list[str]:
    """``count`` pairwise edge-disjoint footprints, each holding a model."""
    fps = [frozenset(norm(*e) for e in fp) for fp in witness]
    probs = []
    if len(fps) != count:
        probs.append(f"witness has {len(fps)} footprints, expected {count}")
    for i, fp in enumerate(fps):
        if not fp <= host.edges:
            probs.append(f"footprint {i} uses edges outside the host")
            continue
        model = engine_model(pattern, graph((), fp))
        if model is None:
            probs.append(f"footprint {i} holds no model of the pattern")
        else:
            probs += [f"footprint {i}: {p}" for p in
                      model_problems(pattern, graph((), fp), model)]
    for (i, a), (j, b) in combinations(enumerate(fps), 2):
        if a & b:
            probs.append(f"footprints {i} and {j} share edges")
    return probs


def hitting_problems(pattern: G, host: G, witness: list,
                     size: int) -> list[str]:
    """``size`` distinct host edges whose deletion leaves no model."""
    xs = [norm(*e) for e in witness]
    probs = []
    if len(xs) != size:
        probs.append(f"hitting set has {len(xs)} edges, expected {size}")
    if len(set(xs)) != len(xs):
        probs.append("hitting set repeats an edge")
    if not set(xs) <= host.edges:
        return probs + ["hitting set names edges outside the host"]
    rest = G(host.vertices, host.edges - set(xs))
    if engine_model(pattern, rest) is not None:
        probs.append("a model survives the hitting set")
    return probs


# -- decompositions and blowups ---------------------------------------------

def segments_oracle(g: G, ctx: G) -> tuple[set[str], list[tuple]]:
    """Branch vertices and (kind, ends, length) of every segment of g."""
    cadj, gadj = adjacency(ctx), adjacency(g)
    branch = {v for v in g.vertices if len(cadj[v]) >= 3}
    seen: set[tuple[str, str]] = set()
    segs = []
    for b in sorted(branch):
        for nb in sorted(gadj[b]):
            if norm(b, nb) in seen:
                continue
            seen.add(norm(b, nb))
            prev, cur, length = b, nb, 1
            while cur not in branch and len(gadj[cur]) == 2:
                (nxt,) = gadj[cur] - {prev}
                seen.add(norm(cur, nxt))
                prev, cur, length = cur, nxt, length + 1
            if cur == b:
                segs.append(("closed", (b,), length))
            elif cur in branch:
                segs.append(("between", norm(b, cur), length))
            else:
                segs.append(("pendant", (b, cur), length))
    return branch, sorted(segs)


def blowup_size(g: G, ctx: G, r: int) -> tuple[int, int]:
    """Vertex and edge counts of the r-fold segment blowup of g in ctx."""
    branch, segs = segments_oracle(g, ctx)
    n, m = len(branch), 0
    for kind, _, length in segs:
        span = {"between": max(length, 2), "closed": max(length, 3),
                "pendant": length}[kind]
        n += r * (span if kind == "pendant" else span - 1)
        m += r * span
    return n, m


def segments_problems(obj: dict, g: G, ctx: G) -> list[str]:
    branch, segs = segments_oracle(g, ctx)
    probs = []
    if obj["branch_vertices"] != sorted(branch):
        probs.append("branch vertices differ from the context degrees")
    got = sorted((s["kind"], tuple(s["ends"]), s["length"])
                 for s in obj["segments"])
    if got != segs:
        probs.append("segments differ from the chain walk")
    return probs


def blowup_problems(text: str, g: G, ctx: G, r: int) -> list[str]:
    out = parse_edge_list(text)
    want = blowup_size(g, ctx, r)
    got = (len(out.vertices), len(out.edges))
    return [] if got == want else [f"blowup has n, m = {got}, expected {want}"]


def branch_count_problems(obj: dict, g: G, ctx: G, r: int) -> list[str]:
    branch, _ = segments_oracle(g, ctx)
    n, m = blowup_size(g, ctx, r)
    d = obj["details"]
    probs = []
    if obj["outcome"] != "holds":
        probs.append(f"branch count {obj['outcome']}, expected holds")
    if d["expected"] != sorted(branch) or d["found"] != sorted(branch):
        probs.append("branch vertices differ from the context degrees")
    if (d["blowup_vertices"], d["blowup_edges"]) != (n, m):
        probs.append("blowup size differs from the segment count")
    return probs


def blocks_problems(obj: dict, blocks: list[frozenset],
                    cuts: set[str]) -> list[str]:
    probs = []
    if obj["cutvertices"] != sorted(cuts):
        probs.append("cutvertices differ from the generated ones")
    got = sorted(sorted(b["vertices"]) for b in obj["blocks"])
    if got != sorted(sorted(b) for b in blocks):
        probs.append("blocks differ from the generated ones")
    return probs


def outcome_problems(obj: dict, outcome: str, **stats) -> list[str]:
    """Report outcome, and exact values for selected stats and details."""
    probs = []
    if obj["outcome"] != outcome:
        probs.append(f"outcome {obj['outcome']}, expected {outcome}")
    for key, want in stats.items():
        got = obj["stats"].get(key, obj["details"].get(key))
        if got != want:
            probs.append(f"{key} = {got!r}, expected {want!r}")
    return probs
