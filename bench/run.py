"""Run one workload of the minorbench benchmark and print its metrics.

    python3 bench/run.py --workload scan --seed 1 --seconds 23 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 23 --trace 0

Run from any directory; the program is imported from ``src/`` beside
this directory.  The workload's inputs are generated from the seed into
``.bench_work/`` and removed at exit.  The job list is run in process
through ``minorbench.cli.main``, pass after pass, for about ``--seconds``
seconds and at least twice; every job's output is checked after each
pass, outside the timed region.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
a discarded warm-up pass runs first, then one pass with every public
function of the six modules wrapped in a span (see tracing.py), then
passes without, and it reports the per-layer metrics of the traced
pass; the spans go to
``.bench_out/spans-<workload>-<seed>.jsonl``.

Stdout holds a header line, one line per metric with its unit and
sample count, and last a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status is 0 when the
run completed, whether or not every job passed its checks.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_STARTS = 30  # fresh interpreters per set-up measurement
# Reported times are seconds at a fixed reference speed: measured seconds
# times REF_S over what the reference loop takes around that moment.  On
# a shared machine the CPU speed swings by a third or more for seconds to
# minutes at a time; the loop slows with the program, so the ratio moves
# far less than the raw seconds (see README.md).
REF_S = 0.03
LOOP = 330_000  # iterations of the reference loop that takes REF_S
SAMPLE_EVERY = 0.2  # seconds between two speed samples during a pass
SAMPLE_PART = 10  # a speed sample runs LOOP // SAMPLE_PART iterations

import workloads  # noqa: E402
from workloads import Result  # noqa: E402


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def call(main, argv: list[str]) -> tuple[int | None, str, str]:
    """Run one command line in process; exit code None means it raised."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def reference_loop(n: int = LOOP) -> int:
    """Fixed pure-Python work, outside anything a program change touches."""
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def loop_time() -> float:
    """Seconds one reference loop takes now."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class Clock:
    """Adds up passes in seconds and in seconds at the reference speed.

    While a pass runs, a timer signal interrupts the job every
    SAMPLE_EVERY seconds to time a part of the reference loop.  The
    stretch between two samples is scaled by REF_S over their mean, so
    a job of several seconds is scaled by the speed during it, not only
    at its ends.  The samples' own time is left out of both sums."""

    def __init__(self):
        self.raw = self.scaled = 0.0
        self.samples: list[float] = []
        self.running = False

    def _sample(self, *_) -> None:
        # Off outside a pass (a signal pending at __exit__) and during a
        # sample (a signal that arrives while the process was stalled).
        if not self.running:
            return
        self.running = False
        t0 = time.perf_counter()
        reference_loop(LOOP // SAMPLE_PART)
        t1 = time.perf_counter()
        ref = (t1 - t0) * SAMPLE_PART
        if self._end is not None:
            self.raw += t0 - self._end
            self.scaled += (t0 - self._end) * REF_S / ((self._ref + ref) / 2)
        self._ref, self._end = ref, t1
        self.samples.append(ref)
        self.running = True

    def __enter__(self):
        self.running, self._end = True, None
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        self.running = False


def read(name: str) -> str | None:
    try:
        return Path(name).read_text(encoding="utf-8")
    except OSError:
        return None


class Runner:
    """Runs passes over a job list and keeps the verdict tallies."""

    def __init__(self, cli, jobs: list[workloads.Job], tracer=None):
        self.cli, self.jobs, self.tracer = cli, jobs, tracer
        self.first: dict[str, tuple] = {}
        self.attempted = self.failed = self.unresolved = 0
        self.problems: list[str] = []

    def run_pass(self, clock: Clock | None = None,
                 traced: bool = False) -> tuple[float, float]:
        """One pass over every job, then its checks.  Returns the seconds
        the jobs took, and the same at the reference speed (0 without a
        clock)."""
        for job in self.jobs:
            for name in job.outputs:
                Path(name).unlink(missing_ok=True)
        gc.collect()
        raw = []
        before = (clock.raw, clock.scaled) if clock else (0.0, 0.0)
        if traced:
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            with clock or contextlib.nullcontext():
                for job in self.jobs:
                    if traced:
                        self.tracer.job = job.id
                    raw.append(call(self.cli.main, job.argv))
        finally:
            if traced:
                self.tracer.uninstall()
        elapsed, scaled = time.perf_counter() - t0, 0.0
        if clock:
            elapsed, scaled = clock.raw - before[0], clock.scaled - before[1]
        stdout = {job.id: out for job, (_, out, _) in zip(self.jobs, raw)}
        for job, (code, out, err) in zip(self.jobs, raw):
            files = {f: read(f) for f in [*job.outputs, *job.reads]}
            self.judge(job, Result(code, out, files), err, stdout)
        return elapsed, scaled

    def judge(self, job, res: Result, err: str, stdout: dict) -> None:
        try:
            problems = list(job.check(res))
        except Exception as exc:  # a malformed output fails its job
            problems = [f"check raised {exc!r}"]
        digest = (res.code, res.stdout, sorted(res.files.items()))
        if self.first.setdefault(job.id, digest) != digest:
            problems.append("output differs from the first pass")
        if job.same_as and res.stdout != stdout[job.same_as]:
            problems.append(f"stdout differs from {job.same_as}")
        self.attempted += 1
        self.unresolved += res.code == 2
        if problems:
            self.failed += 1
            tail = err.strip().splitlines()[-1:]
            self.problems.append(f"{job.id}: {'; '.join(problems + tail)}")


def measure_setup(wl: workloads.Workload) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it has imported the
    CLI and parsed the workload's inputs, and the reference loop timed
    right after each start.  The first start is discarded because it may
    fill the disk cache."""
    Path("setup.json").write_text(json.dumps(
        {"graphs": wl.graphs, "specs": wl.specs}), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "startup.py"), str(SRC), "setup.json"]
    starts, loops = [], []
    for i in range(SETUP_STARTS + 1):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if i:
            starts.append(float(proc.stdout.split()[-1]) - t0)
            loops.append(loop_time())
    return starts, loops


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    from minorbench import cli
    import tracing

    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "git_sha": git_sha(), "load1_start": os.getloadavg()[0]}
    print("header " + json.dumps(header), flush=True)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    home = os.getcwd()
    tracer = tracing.Tracer() if args.trace else None
    try:
        wl = workloads.make(args.workload, args.seed, ROOT, work)
        os.chdir(work)
        runner = Runner(cli, wl.jobs, tracer)
        setup, setup_ref = ([], []) if tracer else measure_setup(wl)
        clock = None if tracer else Clock()
        traced = None
        start = time.perf_counter()
        if tracer:
            # a discarded warm-up pass, so that the traced pass is not
            # the cold one and trace.overhead_s is the tracer's cost only
            runner.run_pass()
            traced = runner.run_pass(traced=True)[0]
        walls: list[float] = []
        scaled: list[float] = []
        while (len(walls) + (traced is not None) < 2
               or time.perf_counter() - start + statistics.median(walls)
               <= args.seconds):
            wall, at_ref = runner.run_pass(clock)
            walls.append(wall)
            scaled.append(at_ref)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    n = len(walls)
    if tracer:
        layer = tracing.metrics(tracer)
        layer["trace.overhead_s"] = (traced - statistics.median(walls), "s")
        metrics = {k: (v, u, 1) for k, (v, u) in layer.items()}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl",
                     header)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (statistics.median(t * REF_S / ref for t, ref
                                          in zip(setup, setup_ref)),
                        "s", len(setup)),
            "wall_s": (statistics.median(scaled), "s", n),
            "peak_rss_mb": (rss_mb, "MB", 1),
        }
        q = statistics.quantiles(clock.samples, n=4)
        print(f"unscaled setup {statistics.median(setup):.6g} s, wall "
              f"{statistics.median(walls):.6g} s; reference loop "
              f"{statistics.median(setup_ref):.6g} s over the set-up, "
              f"quartiles {q[0]:.6g} {q[1]:.6g} {q[2]:.6g} s over "
              f"{len(clock.samples)} samples in the passes, against "
              f"{REF_S} s")
    for p in runner.problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    passes = n + 2 * (traced is not None)
    print(f"jobs {len(wl.jobs)} per pass, {runner.attempted} attempted "
          f"over {passes} passes, {runner.failed} failed "
          f"(failed_frac {runner.failed / runner.attempted:.4f}), "
          f"{runner.unresolved} budget-exhausted (unresolved_frac "
          f"{runner.unresolved / runner.attempted:.4f})")
    for name, (value, unit, count) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={count})")
    print("footer " + json.dumps({"load1_end": os.getloadavg()[0],
                                  "pass_s": walls,
                                  "pass_scaled_s": scaled if clock else []}))
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if not (SRC / "minorbench" / "cli.py").is_file() or \
            not (ROOT / "samples").is_dir():
        print(f"error: no minorbench sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
