"""Run one positroid-lab command under the tracer.

    python3 perfbench/cli_child.py <trace file> <positroid-lab arguments...>

Measures the cold import of ``positroid_lab.cli``, wraps the layer entry
points, runs the command in this process with its normal output and exit
code, and writes the spans and their summary to the trace file.
"""

import sys
import time

t0 = time.perf_counter()
import positroid_lab.cli as cli  # noqa: E402  (the import is what is timed)

import_s = time.perf_counter() - t0

import tracer  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer.load_layers()
    t = tracer.Tracer()
    t.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        t.dump(path, {"import_s": import_s, "argv": argv})


if __name__ == "__main__":
    sys.exit(main())
