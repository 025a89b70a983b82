"""Seeded inputs and job lists for the four benchmark workloads.

A job is one ``minorbench`` command line run through ``cli.main`` plus
the check its output must pass.  Every input is written by this module
into the run's work directory; the program sees only those files.

Why each workload exists, and which metrics it should move, is recorded
in README.md beside this file.

Sample-based inputs get a seeded name prefix rather than fresh names.
A common prefix keeps every comparison between vertex names, including
the names the program derives from them, the same as without it, so
the search explores the same tree for every seed.  Fresh random names
change the scan of the tailed square by up to three times in search
nodes, which would turn the seed-to-seed spread into a property of the
names instead of machine noise.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

import checks
from checks import G

WORKLOADS = ("scan", "gadget", "pack", "build")

# gadget: probes per radius and their node cap.  Each probe either finds
# a model in under 20 nodes or uses up the cap, and about half of them
# use it up.  Short passes let a run take the median of several.
GADGET_PROBES = {3: 150, 4: 150}
GADGET_CAP = 1000

# build: sizes of the generated hosts.  Each host's blocks (kinds and
# sizes) are fixed too, so the seed varies only where they are glued and
# what the vertices are called, and the work per pass stays about even.
BUILD_SIZES = tuple(range(20, 61, 3))


@dataclass
class Result:
    code: int | None
    stdout: str
    files: dict[str, str] = field(default_factory=dict)


@dataclass
class Job:
    id: str
    argv: list[str]
    check: Callable[[Result], list[str]]
    same_as: str | None = None      # stdout must equal this job's, byte for byte
    reads: tuple[str, ...] = ()     # files of earlier jobs the check reads

    @property
    def outputs(self) -> list[str]:
        return [self.argv[i + 1] for i, a in enumerate(self.argv[:-1])
                if a in ("-o", "--trace")]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    graphs: list[str]
    specs: list[str]


# -- job checks ----------------------------------------------------------------

def expect(code: int, then: Callable[[Result], list[str]] | None = None):
    def check(res: Result) -> list[str]:
        if res.code != code:
            return [f"exit code {res.code}, expected {code}"]
        return then(res) if then else []
    return check


def on_report(fn):
    return lambda res: fn(json.loads(res.stdout))


def on_file(name: str, fn):
    return lambda res: fn(res.files[name])


def holds(**stats):
    return expect(0, on_report(lambda o: checks.outcome_problems(o, "holds",
                                                                 **stats)))


def text_is(want: str):
    return expect(0, lambda res: [] if res.stdout == want
                  else [f"output {res.stdout!r}, expected {want!r}"])


def model_found(pattern: G, host: G, source: str | None = None):
    def check(o: dict) -> list[str]:
        return (checks.outcome_problems(o, "holds")
                or checks.model_problems(
                    pattern, host, o["details"]["embedding"]))
    if source is None:
        return expect(0, on_report(check))
    return expect(0, on_file(source, lambda t: check(json.loads(t))))


def found_or_exhausted(pattern: G, host: G):
    """A verified model, or the end of the node cap (exit 2)."""
    found = model_found(pattern, host)
    return lambda res: [] if res.code == 2 else found(res)


def packs(pattern: G, host: G, count: int):
    return expect(0, on_report(lambda o: checks.outcome_problems(
        o, "holds", count=count) or checks.packing_problems(
        pattern, host, o["details"]["witness"], count)))


def hits(pattern: G, host: G, size: int):
    return expect(0, on_report(lambda o: checks.outcome_problems(
        o, "holds", size=size) or checks.hitting_problems(
        pattern, host, o["details"]["hitting_edges"], size)))


def components_are(*parts):
    want = [sorted(c) for c in parts]
    return expect(0, on_report(lambda o: [] if [
        c["vertices"] for c in o["components"]] == want
        else ["components differ"]))


def sized(name: str, n: int, m: int):
    def check(text: str) -> list[str]:
        g = checks.parse_edge_list(text)
        got = (len(g.vertices), len(g.edges))
        return [] if got == (n, m) else [f"{name} has n, m = {got}, "
                                         f"expected {(n, m)}"]
    return expect(0, on_file(name, check))


# -- input files ---------------------------------------------------------------

class Inputs:
    """Writes a workload's input files and remembers what it wrote."""

    def __init__(self, root: Path, workdir: Path, rng: random.Random):
        self.samples = root / "samples"
        self.dir = workdir
        self.prefix = "".join(rng.choice(string.ascii_lowercase)
                              for _ in range(3))
        self.graphs: list[str] = []
        self.specs: list[str] = []

    def write(self, name: str, text: str, kind: str = "graph") -> str:
        """Write an input file; graphs and specs are parsed at set-up."""
        (self.dir / name).write_text(text, encoding="utf-8")
        if kind == "graph":
            self.graphs.append(name)
        elif kind == "spec":
            self.specs.append(name)
        return name

    def graph(self, name: str, g: G) -> str:
        lines = [f"{len(g.vertices)} {len(g.edges)}", *sorted(g.vertices),
                 *(f"{u} {v}" for u, v in sorted(g.edges))]
        return self.write(name, "\n".join(lines) + "\n")

    def sample(self, name: str) -> tuple[str, G]:
        """Copy a sample with the run's prefix on every vertex name."""
        text = (self.samples / name).read_text(encoding="utf-8")
        lines = [ln.strip() for ln in text.splitlines()
                 if ln.strip() and not ln.strip().startswith("#")]
        n, m = (int(x) for x in lines[0].split())
        p = self.prefix
        out = [lines[0], *(p + v for v in lines[1:1 + n])]
        out += [" ".join(p + v for v in ln.split())
                for ln in lines[1 + n:1 + n + m]]
        for ln in lines[1 + n + m:]:
            toks = ln.split()
            out.append(f"root {p}{toks[1]} -> {p}{toks[3]}"
                       if toks[0] == "root" else ln)
        kind = "spec" if len(lines) > 1 + n + m else "graph"
        self.write(name, "\n".join(out) + "\n", kind)
        return name, checks.parse_edge_list("\n".join(out[:1 + n + m]))


def complete(names: list[str]) -> G:
    return checks.graph(names, combinations(names, 2))


def k4_gadget(k4: G, r: int) -> G:
    """The r-fold segment blowup of K4 in itself: every edge becomes r
    paths of length two, named as ``segment_blowup`` names them."""
    edges = []
    for j, (a, b) in enumerate(sorted(k4.edges)):
        for i in range(r):
            mid = f"{a}~{b}.{j}.{i}.1"
            edges += [(a, mid), (mid, b)]
    return checks.graph(k4.vertices, edges)


def block_host(rng: random.Random, shape: random.Random, n: int,
               prefix: str) -> tuple[G, list[frozenset], set[str], list[str]]:
    """A connected host of about n vertices glued from blocks at single
    vertices: cycles (degree-2 chains), K4s and pendant paths (bridges).
    ``shape`` draws the blocks, ``rng`` where they attach and the names.
    Returns the graph with its blocks, cutvertices and first cycle (in
    cyclic order, at least 4 long), known by construction."""
    names = [f"{prefix}v{i}" for i in rng.sample(range(n + 8), n + 8)]
    first = shape.randint(4, 8)
    verts = list(range(first))
    blocks = [list(range(first))]
    edges = [(i, (i + 1) % first) for i in range(first)]
    while len(verts) < n:
        at = rng.choice(verts)
        kind = shape.choices(("cycle", "k4", "path"), (5, 1, 2))[0]
        size = {"cycle": shape.randint(2, 7), "k4": 3,
                "path": shape.randint(1, 4)}[kind]
        new = list(range(len(verts), len(verts) + size))
        verts += new
        if kind == "cycle":
            ring = [at, *new]
            edges += list(zip(ring, ring[1:] + ring[:1]))
            blocks.append(ring)
        elif kind == "k4":
            edges += list(combinations([at, *new], 2))
            blocks.append([at, *new])
        else:
            chain = [at, *new]
            edges += list(zip(chain, chain[1:]))
            blocks += [list(e) for e in zip(chain, chain[1:])]
    g = checks.graph((names[v] for v in verts),
                     ((names[a], names[b]) for a, b in edges))
    seen: set[int] = set()
    cuts: set[str] = set()
    for b in blocks:
        cuts |= {names[v] for v in b if v in seen}
        seen |= set(b)
    return (g, [frozenset(names[v] for v in b) for b in blocks], cuts,
            names[:first])


def triangle_model(tri: G, ring: list[str], valid: bool) -> str:
    """A triangle model splitting a cycle into three arcs, as JSON.  The
    invalid one maps a pattern edge to a chord the cycle does not have."""
    x, y, z = sorted(tri.vertices)
    c = ring
    images = {(x, y): (c[0], c[1]), (y, z): (c[1], c[2]),
              (x, z): (c[-1] if valid else c[2], c[0])}
    return json.dumps({
        "branch_sets": {x: [c[0]], y: [c[1]], z: sorted(c[2:])},
        "edge_images": [[list(he), list(checks.norm(*ge))]
                        for he, ge in sorted(images.items())]})


# -- workloads -------------------------------------------------------------------

def robust_holds(m: int, r: int):
    """An exhaustive scan of all C(m, r - 1) deletion sets that holds."""
    return holds(subsets_checked=comb(m, r - 1), host_edges=m,
                 mode="exhaustive")


def scan_jobs(ins: Inputs) -> list[Job]:
    sq, sq_g = ins.sample("square-with-tail.el")
    ctx, ctx_g = ins.sample("square-with-tail-context.el")

    def scan(r: int) -> Callable[[Result], list[str]]:
        return robust_holds(checks.blowup_size(sq_g, ctx_g, r)[1], r)

    jobs = [Job(f"robust-r{r}", ["robust", sq, "--ctx", ctx, "-r", str(r)],
                scan(r)) for r in (3, 4, 5)]
    jobs.append(Job("robust-r4-jobs2",
                    ["robust", sq, "--ctx", ctx, "-r", "4", "--jobs", "2"],
                    scan(4), same_as="robust-r4"))
    return jobs + rooted_jobs(ins)


def rooted_jobs(ins: Inputs) -> list[Job]:
    twt, _ = ins.sample("triangle-with-tail.el")
    rcore, rcore_g = ins.sample("rooted-core.txt")
    tri, _ = ins.sample("triangle.el")
    anchor, _ = ins.sample("anchor-triangle.el")
    k4, _ = ins.sample("k4.el")
    core, _ = ins.sample("complete-core.txt")
    core_el = ins.graph("rooted-core.el", rcore_g)
    # built2: the core K5 with two copies of the tail glued at s'
    return [
        Job("hstar2", ["hstar2", twt, rcore, "--predicate", tri, "-r", "2",
                       "-o", "built2.el"], sized("built2.el", 7, 12)),
        Job("robust-rooted-built2",
            ["robust", twt, "--host", "built2.el", "-r", "2",
             "--roots", f"{ins.prefix}s={ins.prefix}s#1"],
            robust_holds(12, 2)),
        # a cycle through a K5 vertex survives any two deletions: the
        # vertex keeps two neighbours and K4 minus two edges stays connected
        Job("robust-rooted-core",
            ["robust", anchor, "--host", core_el, "-r", "3",
             "--roots", f"{ins.prefix}s={ins.prefix}s'"],
            robust_holds(10, 3)),
        # K4 (6 edges) fits once in K5 (10 edges); K5 minus an edge keeps a K4
        Job("gencheck-complete", ["gencheck", k4, core],
            holds(packing_found=1)),
        # K5 splits into two triangles and a 4-cycle; a fourth cycle
        # would need 12 edges
        Job("gencheck-rooted", ["gencheck", anchor, rcore],
            holds(packing_found=3)),
    ]


def gadget_jobs(ins: Inputs, rng: random.Random) -> list[Job]:
    k4, k4_g = ins.sample("k4.el")
    jobs = [Job("robust-k4-r2", ["robust", k4, "--ctx", k4, "-r", "2"],
                robust_holds(checks.blowup_size(k4_g, k4_g, 2)[1], 2))]
    for r, count in GADGET_PROBES.items():
        host = k4_gadget(k4_g, r)
        edges = sorted(host.edges)
        picked: set[tuple] = set()
        while len(picked) < count:
            picked.add(tuple(sorted(rng.sample(edges, r - 1))))
        # robust by construction: r - 1 deletions leave every segment one
        # of its r paths, so "none" is a wrong verdict
        for i, xs in enumerate(sorted(picked)):
            probe = G(host.vertices, host.edges - set(xs))
            name = ins.graph(f"gadget-r{r}-{i:03d}.el", probe)
            jobs.append(Job(f"minor-r{r}-{i:03d}",
                            ["minor", k4, name, "--budget", str(GADGET_CAP)],
                            found_or_exhausted(k4_g, probe)))
    return jobs


def pack_jobs(ins: Inputs) -> list[Job]:
    tri, tri_g = ins.sample("triangle.el")
    k4, k4_g = ins.sample("k4.el")
    k7_g = complete([f"{ins.prefix}{i}" for i in range(1, 8)])
    k6_g = complete([f"{ins.prefix}{i}" for i in range(1, 7)])
    k7, k6 = ins.graph("k7.el", k7_g), ins.graph("k6.el", k6_g)
    return [
        # K7 splits into the 7 triangles of the Fano plane
        Job("pack-k3-k7", ["pack", tri, k7], packs(tri_g, k7_g, 7)),
        # no independent fact: the count is frozen from the seed commit
        Job("pack-k4-k6", ["pack", k4, k6], packs(k4_g, k6_g, 1)),
        # a graph without cycles keeps at most a spanning tree: 15 - 5
        Job("hit-k3-k6", ["hit", tri, k6], hits(tri_g, k6_g, 10)),
    ]


def build_jobs(ins: Inputs, rng: random.Random) -> list[Job]:
    p = ins.prefix
    sq, sq_g = ins.sample("square-with-tail.el")
    ctx, ctx_g = ins.sample("square-with-tail-context.el")
    tri, tri_g = ins.sample("triangle.el")
    k4, k4_g = ins.sample("k4.el")
    two, two_g = ins.sample("two-part-host.el")
    twt, _ = ins.sample("triangle-with-tail.el")
    anchor, _ = ins.sample("anchor-triangle.el")
    core, _ = ins.sample("complete-core.txt")
    rcore, _ = ins.sample("rooted-core.txt")

    def pack_built(res: Result) -> list[str]:
        host = checks.parse_edge_list(res.files["built.el"])
        o = json.loads(res.stdout)
        return (checks.outcome_problems(o, "holds", count=1)
                or checks.packing_problems(two_g, host,
                                           o["details"]["witness"], 1))

    jobs = [
        # the quick tour of the README, with the facts it shows
        Job("tour-blocks", ["blocks", sq], text_is(
            f"block 0 (2-connected): {p}u1 {p}u2 {p}v {p}w\n"
            f"block 1 (trivial): {p}w {p}w1\ncutvertices: {p}w\n")),
        Job("tour-segments", ["segments", sq, "--ctx", ctx], text_is(
            f"between {p}v {p}w length 1\n"
            f"between {p}v {p}w length 3 via {p}u1 {p}u2\n"
            f"pendant {p}w {p}w1 length 1\nbranch vertices: {p}v {p}w\n")),
        Job("tour-gtimes", ["gtimes", sq, "--ctx", ctx, "-r", "3",
                            "-o", "blown.el"],
            expect(0, on_file("blown.el", lambda t: checks.blowup_problems(
                t, sq_g, ctx_g, 3)))),
        Job("tour-branch-count", ["gtimes", sq, "--ctx", ctx, "-r", "3",
                                  "--check-branch-count"],
            expect(0, on_report(lambda o: checks.branch_count_problems(
                o, sq_g, ctx_g, 3)))),
        Job("tour-robust", ["robust", sq, "--ctx", ctx, "-r", "3"],
            robust_holds(checks.blowup_size(sq_g, ctx_g, 3)[1], 3)),
        Job("tour-minor", ["minor", tri, k4, "-o", "model.json"],
            model_found(tri_g, k4_g, source="model.json")),
        Job("tour-verify", ["minor", tri, k4, "--verify", "model.json"],
            holds()),
        # the K4 component becomes the core K5; the edge y z is copied twice
        Job("tour-hstar1", ["hstar1", two, core, "--anchor", f"{p}p",
                            "-r", "2", "-o", "built.el"],
            sized("built.el", 9, 12)),
        Job("tour-robust-built", ["robust", two, "--host", "built.el",
                                  "-r", "2"], robust_holds(12, 2)),
        # K4 plus an edge needs 6 of the 10 core edges: one copy fits
        Job("tour-pack-built", ["pack", two, "built.el", "--cap", "4"],
            expect(0, pack_built), reads=("built.el",)),
        Job("tour-gencheck", ["gencheck", k4, core], holds(packing_found=1)),
        Job("tour-hstar2", ["hstar2", twt, rcore, "--predicate", tri,
                            "-r", "2", "--trace", "trace.json",
                            "-o", "built2.el"],
            expect(0, lambda res: sized("built2.el", 7, 12)(res) + (
                [] if json.loads(res.files["trace.json"])["mode"]
                == "blocks" else ["build trace mode is not blocks"]))),
        Job("tour-robust-rooted",
            ["robust", twt, "--host", "built2.el", "-r", "2",
             "--roots", f"{p}s={p}s#1"], robust_holds(12, 2)),
        Job("tour-locality",
            ["locality", twt, "built2.el", anchor,
             "--region", ",".join(p + x for x in
                                  ("c1#0", "c2#0", "c3#0", "c4#0", "s#1"))],
            holds()),
        Job("tour-components", ["components", two, "--format", "json"],
            components_are([p + x for x in "pqst"], [p + "y", p + "z"])),
        Job("tour-classify", ["classify", two],
            text_is("HasDegree3Vertex\nPath\n")),
        # K4 has cycle rank 6 - 4 + 1 = 3
        Job("tour-hit", ["hit", tri, k4], hits(tri_g, k4_g, 3)),
    ]
    for i, n in enumerate(BUILD_SIZES):
        g, blocks, cuts, ring = block_host(
            rng, random.Random(f"host:{i}"), n, f"{p}h{i}")
        h = ins.graph(f"host{i:02d}.el", g)
        good, bad = (ins.write(f"{kind}{i:02d}.json",
                               triangle_model(tri_g, ring, kind == "good"),
                               kind="witness") for kind in ("good", "bad"))
        jobs += [
            Job(f"h{i}-components", ["components", h, "--format", "json"],
                components_are(g.vertices)),
            Job(f"h{i}-blocks", ["blocks", h, "--format", "json"],
                expect(0, on_report(lambda o, b=blocks, c=cuts:
                                    checks.blocks_problems(o, b, c)))),
            Job(f"h{i}-classify", ["classify", h],
                text_is("HasDegree3Vertex\n")),
            Job(f"h{i}-segments", ["segments", h, "--ctx", h,
                                   "--format", "json"],
                expect(0, on_report(lambda o, g=g:
                                    checks.segments_problems(o, g, g)))),
            *(Job(f"h{i}-gtimes-r{r}", ["gtimes", h, "--ctx", h, "-r", str(r)],
                  expect(0, lambda res, g=g, r=r: checks.blowup_problems(
                      res.stdout, g, g, r))) for r in range(2, 6)),
            *(Job(f"h{i}-branch-count-r{r}",
                  ["gtimes", h, "--ctx", h, "-r", str(r),
                   "--check-branch-count"],
                  expect(0, on_report(lambda o, g=g, r=r:
                                      checks.branch_count_problems(
                                          o, g, g, r)))) for r in range(3, 6)),
            Job(f"h{i}-verify", ["minor", tri, h, "--verify", good], holds()),
            Job(f"h{i}-verify-bad", ["minor", tri, h, "--verify", bad],
                expect(1, on_report(lambda o: checks.outcome_problems(
                    o, "refuted")))),
        ]
    return jobs


def make(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into workdir."""
    rng = random.Random(f"{name}:{seed}")
    ins = Inputs(root, workdir, rng)
    if name == "scan":
        jobs = scan_jobs(ins)
    elif name == "gadget":
        jobs = gadget_jobs(ins, rng)
    elif name == "pack":
        jobs = pack_jobs(ins)
    elif name == "build":
        jobs = build_jobs(ins, rng)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, jobs, ins.graphs, ins.specs)
