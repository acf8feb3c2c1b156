"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

Checks that one seed gives identical inputs, that traced and untraced
operations give identical outputs, and that the output checks catch a
planted wrong verdict in each workload.  Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from random import Random

import run
import tracer as tracing
import workloads

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def same_seed_same_inputs() -> None:
    for name, cls in workloads.LIBRARY.items():
        draws = [[cls().make_input(rng, i) for i in range(6)]
                 for rng in (Random(f"{name}:7"), Random(f"{name}:7"))]
        expect(draws[0] == draws[1], f"{name}: seed 7 gives identical inputs")
    work = run.OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    files = ("heights.json", "tiling.json")
    snaps = []
    for _ in range(2):
        cmds = workloads.cli_commands(Random("cli-cold:7"), work, run.ROOT)
        snaps.append(([c.argv for c in cmds], [(work / f).read_text() for f in files]))
    expect(snaps[0] == snaps[1], "cli-cold: seed 7 gives identical commands and files")


def traced_equals_untraced(w, inputs) -> None:
    plain = [w.check(inp, w.run(inp))[1] for inp in inputs]
    t = tracing.Tracer()
    t.install()
    try:
        traced = [w.check(inp, w.run(inp))[1] for inp in inputs]
    finally:
        t.uninstall()
    expect(plain == traced and len(t.spans) > 0,
           f"{w.name}: traced and untraced outputs are identical")


def planted(w, inp, out, corrupt, what: str) -> None:
    errors, _ = w.check(inp, corrupt(out))
    expect(bool(errors), f"{w.name}: a planted {what} is caught")


def amp_plants() -> None:
    w = workloads.AmpSweep()
    w.setup()
    inputs = [w.make_input(Random("selftest"), i) for i in range(2)]
    traced_equals_untraced(w, inputs)
    inp = inputs[0]
    out = w.run(inp)
    expect(not w.check(inp, out)[0], f"{w.name}: the true answer passes")
    C, Y, inside, chambers, interior, seeds = out
    hit = inside.index(True)
    planted(w, inp, out, lambda o: (C, Y, inside[:hit] + [False] + inside[hit + 1:],
                                    chambers, interior, seeds), "missed tile")
    planted(w, inp, out, lambda o: (C, Y, inside, [True] * len(chambers), interior, seeds),
            "second w-chamber")
    planted(w, inp, out, lambda o: (C, Y, inside, chambers, False, seeds),
            "failed interior test")
    flipped = [{k: v if v == "boundary" else -v for k, v in values.items()}
               for values in seeds]
    planted(w, inp, out, lambda o: (C, Y, inside, chambers, interior, flipped),
            "cluster sign flip")


def trop_plants() -> None:
    w = workloads.TropSubdiv()
    w.setup()
    inputs = [w.make_input(Random("selftest"), i) for i in range(2)]
    traced_equals_untraced(w, inputs)
    for inp in inputs:
        out = w.run(inp)
        D, positroids, finest = out
        expect(not w.check(inp, out)[0], f"{w.name}: the true {inp[0]} answer passes")
        cell = D.cells[0]
        moved = dataclasses.replace(cell, witness=tuple(x + 1 for x in cell.witness[:1])
                                    + cell.witness[1:])
        bad = dataclasses.replace(D, cells=(moved,) + D.cells[1:])
        planted(w, inp, out, lambda o: (bad, positroids, finest), f"{inp[0]} wrong witness")
        planted(w, inp, out, lambda o: (dataclasses.replace(D, cells=D.cells[1:]),
                                        positroids, finest), f"{inp[0]} missing cell")
        if inp[0] == "positive":
            planted(w, inp, out, lambda o: (D, positroids, not finest), "wrong finest flag")
            planted(w, inp, out, lambda o: (D, False, finest), "non-positroid verdict")


def cli_plants() -> None:
    work = run.OUT / "work"
    cmds = {c.label: c for c in workloads.cli_commands(Random("cli-cold:7"), work, run.ROOT)}
    for label, corrupt, what in [
        ("amp-verify-tiling", lambda d: {**d, "valid": False}, "rejected tiling"),
        ("amp-sample", lambda d: {**d, "samples": [
            {**s, "twistors": {k: "1/1" for k in s["twistors"]}} for s in d["samples"]]},
         "wrong twistor"),
        ("cell-graph", lambda d: {**d, "matchings": [
            m for m in d["matchings"] if m["boundary"] != [1, 2, 3]]}, "missing basis"),
    ]:
        cmd = cmds[label]
        proc = subprocess.run([sys.executable, "-m", "positroid_lab.cli", *cmd.argv],
                              env=run.child_env(), cwd=run.ROOT, capture_output=True,
                              timeout=run.CHILD_TIMEOUT_S)
        payload = json.loads(proc.stdout)
        expect(proc.returncode == 0 and not cmd.check(payload)[0],
               f"cli-cold {label}: the true answer passes")
        expect(bool(cmd.check(corrupt(payload))[0]), f"cli-cold {label}: a planted {what} is caught")


def main() -> int:
    run.load_library()
    same_seed_same_inputs()
    amp_plants()
    trop_plants()
    cli_plants()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
