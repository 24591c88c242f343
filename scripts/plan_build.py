#!/usr/bin/env python3
"""Build time and peak memory of the analytic walk's plan.

Each argument names a tuple of stage alphabets, in stage order: a
comma-separated list of rectangular QAM shapes MIxMQ, each optionally
repeated with *count. For example, 4x4*5 is five 16-QAM stages and
8x8,4x4,2x2 is 64-QAM, 16-QAM and QPSK. Each tuple's plan is built once,
in mode "auto", in a fresh interpreter that imports the package from the
src/ next to this script. The script prints, per tuple, the plan's rows,
the seconds the build took and that interpreter's peak resident set
(ru_maxrss) in MB.

To compare two trees, run a copy of this script in each, alternately.

Usage:
    python scripts/plan_build.py 4x4*5 2x2*13
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

BUILD = """
import resource, sys, time
from nomalab.analytic import _plan
from nomalab.constellation import build_rect_qam
consts = tuple(build_rect_qam(mi, mq) for mi, mq in {shapes!r})
start = time.perf_counter()
rows = _plan(consts, "auto")[3].size
seconds = time.perf_counter() - start
print(rows, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def parse_tuple(text: str) -> list[tuple[int, int]]:
    """The (MI, MQ) shapes, in stage order, that text names."""
    shapes = []
    for item in text.split(","):
        shape, _, count = item.partition("*")
        mi, _, mq = shape.partition("x")
        try:
            shapes += [(int(mi), int(mq))] * int(count or 1)
        except ValueError:
            raise SystemExit(f"bad alphabet tuple {text!r}: expected MIxMQ[*count],...")
    return shapes


def build(shapes: list[tuple[int, int]]) -> tuple[int, float, float]:
    """(rows, build seconds, peak RSS in MB) of one plan, built in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", BUILD.format(shapes=shapes)], env=env,
                          capture_output=True, text=True, check=False)
    if done.returncode:  # a plan past PLAN_ROWS, say: its error's last line
        raise SystemExit(done.stderr.strip().splitlines()[-1])
    rows, seconds, rss = done.stdout.split()
    return int(rows), float(seconds), float(rss)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("tuples", nargs="+", help="alphabet tuples, e.g. 4x4*5 or 8x8,4x4,2x2")
    args = ap.parse_args()
    plans = [(text, parse_tuple(text)) for text in args.tuples]
    print(f"{'tuple':<16} {'rows':>9} {'build_s':>8} {'maxrss_mb':>9}")
    for text, shapes in plans:
        rows, seconds, rss = build(shapes)
        print(f"{text:<16} {rows:>9} {seconds:>8.4f} {rss:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
