#!/usr/bin/env python3
"""Print the src/ lines that no run reached, merged over build trees.

Usage (from the repository root, after the runs):

    python3 scripts/coverage_report.py --title "pass A" TREE [TREE ...]

Runs `gcov --json-format --stdout` over every .gcda file under each
TREE and sums the line counts per source line across translation units
and trees.  A header line counts as run when any unit ran it; a line
compiled only in one tree (say the LTE_SIMD=OFF scalar remainder) counts
as run when that tree ran it.  Prints the never-run lines of each file
under src/ as ranges, then one total.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict
from itertools import groupby
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GCOV_BATCH = 64


def gcov_documents(gcda_files):
    """Yield one gcov JSON document per translation unit."""
    for i in range(0, len(gcda_files), GCOV_BATCH):
        batch = [str(p) for p in gcda_files[i:i + GCOV_BATCH]]
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout", *batch],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"coverage_report: gcov failed on {batch[0]}...")
        for line in proc.stdout.splitlines():
            if line.strip():
                yield json.loads(line)


def merge(trees):
    """{source path under src/: {line: summed count}}"""
    counts = defaultdict(lambda: defaultdict(int))
    for tree in trees:
        gcda = sorted(Path(tree).rglob("*.gcda"))
        if not gcda:
            sys.exit(f"coverage_report: no .gcda files under {tree}")
        for doc in gcov_documents(gcda):
            cwd = doc["current_working_directory"]
            for entry in doc["files"]:
                path = Path(os.path.normpath(os.path.join(cwd, entry["file"])))
                if SRC not in path.parents:
                    continue
                lines = counts[path.relative_to(ROOT).as_posix()]
                for line in entry["lines"]:
                    lines[line["line_number"]] += line["count"]
    return counts


def ranges(numbers):
    """[3, 4, 5, 9] -> "3-5, 9"."""
    out = []
    for _, run in groupby(enumerate(numbers), lambda t: t[1] - t[0]):
        run = [n for _, n in run]
        out.append(f"{run[0]}-{run[-1]}" if len(run) > 1 else f"{run[0]}")
    return ", ".join(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--title", default="coverage")
    parser.add_argument("trees", nargs="+")
    args = parser.parse_args()

    counts = merge(args.trees)
    total = uncovered = 0
    print(f"== {args.title}: src/ lines no run reached")
    for path in sorted(counts):
        lines = counts[path]
        missed = sorted(n for n, c in lines.items() if c == 0)
        total += len(lines)
        uncovered += len(missed)
        if missed:
            print(f"{path:40s} {len(missed):5d}  {ranges(missed)}")
    ran = 100.0 * (total - uncovered) / total if total else 0.0
    print(f"== {args.title}: {uncovered} of {total} executable src/ lines "
          f"uncovered ({ran:.1f}% ran)")


if __name__ == "__main__":
    main()
