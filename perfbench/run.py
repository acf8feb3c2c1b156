"""positroid-lab benchmark: three seeded workloads, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload amp-m2-sweep --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, one process, no threads):

- ``amp-m2-sweep``: warm library, amplituhedron membership at Gr(2,6), m=2;
- ``trop-subdiv``: warm library, regular subdivisions of positive (3,6)
  and generic (2,5) heights, in the order positive, generic, generic;
- ``cli-cold``: a fresh ``positroid-lab`` process per command, over a
  fixed mix of seven commands, in at least two whole passes.

With ``--trace 0`` nothing is instrumented and the run reports the
end-to-end metrics; with ``--trace 1`` it runs a fixed number of
operations untraced and then traced, and reports the per-layer metrics.
Each ``*_cal`` metric divides a time by the median time of a fixed
stdlib Fraction slice run between operations on the same CPU, which
removes most of the drift in host speed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from importlib import import_module
from pathlib import Path
from random import Random

import oracle
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = [*workloads.LIBRARY, "cli-cold"]
REFERENCE_SEED = 0
DIGEST_OPS = 8          # the output digest covers the first ops of a run
MIN_OPS = 100           # so that op_p90_cal has at least ten ops beyond it
TRACE_OPS = 12          # ops per pass in a traced run, so calls repeat exactly
CAL_PER_OP = 2          # calibration slices after each library op
CAL_WINDOW = 5          # a segment is scaled by the slices of the segments this near
SEGMENT_S = 0.2         # a CLI command is stopped for calibration this often
CAL_PER_SEGMENT = 2
CLI_PASSES = 2          # least number of passes over the command mix
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.0
CHILD_TIMEOUT_S = 170


def load_library() -> None:
    """Import positroid_lab from this checkout's ``src`` and nowhere else."""
    if not (SRC / "positroid_lab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no positroid_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = import_module("positroid_lab")
    if Path(pkg.__file__).resolve().parent != SRC / "positroid_lab":
        raise SystemExit(f"benchmark: imported positroid_lab from {pkg.__file__}")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "POSITROID_LAB_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def calibrate(count: int) -> list[float]:
    return [timed(oracle.calibration_slice)[0] for _ in range(count)]


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so the calibration
    slices and the measured work see the same core.  The host's speed
    varies per core and over seconds; slices run on the other core do
    not track it."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Timeline:
    """Measured work as a sequence of segments, each followed by
    calibration slices.  A library op is one segment; a CLI command is
    split into several."""

    def __init__(self):
        self.seg_op: list[int] = []
        self.seg_s: list[float] = []
        self.cal_s: list[list[float]] = []

    def add(self, op: int, seconds: float, slices: int) -> None:
        self.seg_op.append(op)
        self.seg_s.append(seconds)
        self.cal_s.append(calibrate(slices))

    def op_times(self) -> tuple[list[float], list[float]]:
        """Seconds and calibrated units per op.  A segment is divided by
        the median slice time of the segments at most ``CAL_WINDOW``
        away, so drift in host speed during a run cancels out."""
        ops = max(self.seg_op) + 1
        op_s, op_cal = [0.0] * ops, [0.0] * ops
        for i, (op, t) in enumerate(zip(self.seg_op, self.seg_s)):
            near = self.cal_s[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1]
            op_s[op] += t
            op_cal[op] += t / statistics.median(x for xs in near for x in xs)
        return op_s, op_cal


def quantile(values, q: int) -> float:
    """q-th percentile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()


def reference_digest(key: str) -> str | None:
    return json.loads((HERE / "reference.json").read_text()).get(key)


def op_metrics(op_s: list, op_cal: list) -> dict:
    """Calibrated throughput and latency.  Throughput uses the geometric
    mean op cost, as suites of unlike commands are scored, so each
    command of the cli mix weighs the same."""
    print(f"raw: {len(op_s)} ops, {len(op_s) / sum(op_s):.4g} ops/s, "
          f"p50 {statistics.median(op_s) * 1e3:.4g} ms", file=sys.stderr)
    return {
        "ops_per_kcal": (1e3 / statistics.geometric_mean(op_cal), "1/kcal"),
        "op_p50_cal": (statistics.median(op_cal), "cal"),
        "op_p90_cal": (quantile(op_cal, 90), "cal"),
    }


class Tally:
    """Attempted and failed operations, and failed run-level checks."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.run_errors: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:3])

    def flag(self, error: str) -> None:
        self.run_errors.append(error)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.run_errors


# ---------------------------------------------------------------- library

def setup_probe(name: str) -> float:
    """Set-up time of a library workload in a fresh process."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--setup-only"], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: set-up probe failed\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_op(w, inp, tally: Tally):
    """One timed library call, then the checks; returns (seconds, text)."""
    t0 = time.perf_counter()
    try:
        out = w.run(inp)
    except Exception as e:  # a failing op is counted, not fatal
        dt = time.perf_counter() - t0
        tally.record([f"{type(e).__name__}: {e}"])
        return dt, f"error {type(e).__name__}"
    dt = time.perf_counter() - t0
    try:
        errors, text = w.check(inp, out)
    except Exception as e:
        errors, text = [f"check raised {type(e).__name__}: {e}"], "unchecked"
    tally.record(errors)
    return dt, text


def library_run(name: str, seed: int, seconds: float):
    w = workloads.LIBRARY[name]()
    first, _ = timed(w.setup)
    setups = [first]
    while len(setups) < SETUP_MIN or (sum(setups) < SETUP_BUDGET_S
                                      and len(setups) < SETUP_MAX):
        setups.append(setup_probe(name))
    warm = Random(f"{name}:warm-up")
    for i in range(len(w.kinds)):
        w.run(w.make_input(warm, i))
    rng = Random(f"{name}:{seed}")
    tally, timeline, texts = Tally(), Timeline(), []
    end = time.perf_counter() + seconds
    i = 0
    while i < MIN_OPS or time.perf_counter() < end:
        dt, text = run_op(w, w.make_input(rng, i), tally)
        timeline.add(i, dt, CAL_PER_OP)
        if i < DIGEST_OPS:
            texts.append(text)
        i += 1
    metrics = op_metrics(*timeline.op_times())
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return tally, digest(texts), metrics


def library_trace(name: str, seed: int):
    t = tracing.Tracer()
    import_s, _ = timed(lambda: [import_module("positroid_lab.cli"),
                                 tracing.load_layers()])
    w = workloads.LIBRARY[name]()
    t.install()
    with t.span("bench.setup"):
        w.setup()
    t.uninstall()
    rng = Random(f"{name}:{seed}")
    inputs = [w.make_input(rng, i) for i in range(TRACE_OPS)]
    tally = Tally()
    plain = [run_op(w, inp, tally) for inp in inputs]
    t.install()
    traced = []
    for inp in inputs:
        with t.span("bench.op"):
            traced.append(run_op(w, inp, tally))
    t.uninstall()
    if [x[1] for x in plain] != [x[1] for x in traced]:
        tally.flag("traced and untraced outputs differ")
    overhead = sum(x[0] for x in traced) / sum(x[0] for x in plain) - 1
    OUT.mkdir(exist_ok=True)
    t.dump(OUT / f"trace-{name}.json", {"workload": name, "seed": seed})
    metrics = tracing.per_layer_metrics(t.summary(), import_s, overhead)
    metrics.update(cli_command_metrics())
    return tally, digest(x[1] for x in plain[:DIGEST_OPS]), metrics


# ---------------------------------------------------------------- CLI

def run_command(cmd, tally: Tally, timeline: Timeline, op: int,
                traced_out: Path | None = None) -> str:
    """One cold invocation; returns its canonical output text.

    The command is stopped every ``SEGMENT_S`` seconds while calibration
    slices run on the same CPU, so that each stretch of the command is
    scaled by the host speed of that moment, as library ops are.
    """
    if traced_out is None:
        argv = [sys.executable, "-m", "positroid_lab.cli", *cmd.argv]
    else:
        argv = [sys.executable, str(HERE / "cli_child.py"), str(traced_out), *cmd.argv]
    work = OUT / "work"
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=out, stderr=err)
        exited = os.pidfd_open(proc.pid)
        try:
            started = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                done = select.select([exited], [], [], SEGMENT_S)[0]
                if not done:
                    os.kill(proc.pid, signal.SIGSTOP)
                seg = time.perf_counter() - t0
                timeline.add(op, seg, CAL_PER_SEGMENT)
                if done:
                    break
                if time.perf_counter() - started > CHILD_TIMEOUT_S:
                    proc.kill()
                os.kill(proc.pid, signal.SIGCONT)
            proc.wait()
        finally:
            os.close(exited)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    stdout, stderr = (work / "stdout").read_bytes(), (work / "stderr").read_bytes()
    if proc.returncode != 0:
        tally.record([f"{cmd.label}: exit {proc.returncode}: "
                      f"{stderr.decode(errors='replace')[-300:]}"])
        return f"{cmd.label} exit {proc.returncode}"
    try:
        errors, text = cmd.check(json.loads(stdout))
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        errors, text = [f"unreadable output: {type(e).__name__}: {e}"], "unreadable"
    tally.record([f"{cmd.label}: {e}" for e in errors])
    return text


def cli_setup_s() -> float:
    """Median cold start of ``positroid-lab --help``: interpreter, imports
    and argument parser, which every command pays before any work."""
    times = []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX):
        dt, proc = timed(lambda: subprocess.run(
            [sys.executable, "-m", "positroid_lab.cli", "--help"], env=child_env(),
            cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S))
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: positroid-lab --help failed\n{proc.stderr.decode()}")
        times.append(dt)
    return statistics.median(times)


def cli_commands(seed: int):
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    return workloads.cli_commands(Random(f"cli-cold:{seed}"), work, ROOT)


def check_fixed_outputs(cmds, texts, tally: Tally) -> None:
    """Commands whose output does not depend on the seed are compared
    with their reference digest on every run."""
    for cmd, text in zip(cmds, texts):
        ref = reference_digest(f"cli-cold/{cmd.label}")
        print(f"digest cli-cold/{cmd.label} {digest([text])}", file=sys.stderr)
        if ref is not None and digest([text]) != ref:
            tally.flag(f"{cmd.label}: output differs from the reference")


def cli_command_metrics(cmds=(), op_s=(), op_cal=()) -> dict:
    """Cold time per command group, the sum over its commands; zero for
    workloads that run no command."""
    out = {}
    for group in ("cell", "tilings", "trop", "amp"):
        mine = [i for i, c in enumerate(cmds) if c.group == group]
        out[f"cli.cmd_{group}_s"] = (sum(op_s[i] for i in mine), "s")
        out[f"cli.cmd_{group}_cal"] = (sum(op_cal[i] for i in mine), "cal")
    return out


def cli_run(seed: int, seconds: float):
    setup_s = cli_setup_s()
    cmds = cli_commands(seed)
    tally, timeline, texts = Tally(), Timeline(), []
    end = time.perf_counter() + seconds
    op = 0
    while op < CLI_PASSES * len(cmds) or time.perf_counter() < end:
        for cmd in cmds:
            text = run_command(cmd, tally, timeline, op)
            if op < len(cmds):
                texts.append(text)
            op += 1
    check_fixed_outputs(cmds, texts, tally)
    metrics = op_metrics(*timeline.op_times())
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB")
    return tally, digest(texts), metrics


def cli_trace(seed: int):
    cmds = cli_commands(seed)
    tally, plain, traced = Tally(), Timeline(), Timeline()
    plain_texts = [run_command(cmd, tally, plain, i) for i, cmd in enumerate(cmds)]
    paths = [OUT / f"trace-cli-cold-{cmd.label}.json" for cmd in cmds]
    traced_texts = [run_command(cmd, tally, traced, i, traced_out=path)
                    for i, (cmd, path) in enumerate(zip(cmds, paths))]
    summaries = [json.loads(path.read_text()) for path in paths]
    if plain_texts != traced_texts:
        tally.flag("traced and untraced outputs differ")
    check_fixed_outputs(cmds, plain_texts, tally)
    overhead = sum(traced.seg_s) / sum(plain.seg_s) - 1
    merged = tracing.merge(s["summary"] for s in summaries)
    import_s = statistics.median(s["import_s"] for s in summaries)
    metrics = tracing.per_layer_metrics(merged, import_s, overhead)
    metrics.update(cli_command_metrics(cmds, *plain.op_times()))
    return tally, digest(plain_texts), metrics


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so that a stopped command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    os.environ.pop("POSITROID_LAB_THREADS", None)
    pin_to_one_cpu()
    load_library()
    if args.setup_only:
        t, _ = timed(workloads.LIBRARY[args.workload]().setup)
        print(json.dumps({"setup_s": t}))
        return 0
    try:
        if args.workload == "cli-cold":
            run = cli_trace(args.seed) if args.trace else cli_run(args.seed, args.seconds)
        elif args.trace:
            run = library_trace(args.workload, args.seed)
        else:
            run = library_run(args.workload, args.seed, args.seconds)
    except workloads.SetupError as e:
        raise SystemExit(f"benchmark: {e}")
    tally, run_digest, metrics = run
    ref = reference_digest(args.workload) if args.seed == REFERENCE_SEED else None
    if ref is not None and run_digest != ref:
        tally.flag(f"output digest {run_digest} differs from the reference {ref}")
    print(f"digest {args.workload} seed={args.seed} {run_digest}", file=sys.stderr)
    for e in tally.run_errors + tally.errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
