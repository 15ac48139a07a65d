#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, for
``BENCHMARK.json``'s ``run_seconds``; the parent runs first in even
pairs and the change first in odd ones. For every end-to-end metric the
summary gives each side's median and quartiles over the pairs where both
sides gave a value, the pairs the change wins out of all pairs run,
whether a claimed gain holds (the change wins at least 9 of every 10
pairs run, a pair without both values counting as lost, and its median
is better than the parent's by more than the parent's quartile
distance), and whether it is worse than the parent's by more than the
metric's ``bound``, a fraction of the parent's median (what every change
must avoid); that verdict is ``unresolved`` when the parent's quartile
distance is wider than the bound and some parent run is not beaten by
every change run. Failed and attempted operations are counted per side;
a run that ends without a result line counts as one failed. Each side
gets one empty bytecode cache (``PYTHONPYCACHEPREFIX``) for the whole
invocation, so neither side reads modules a checkout's ``__pycache__``
holds, and one untimed warm-up run per side, before the pairs, compiles
what that side imports; every timed run then reads compiled modules, as
a run on installed bytecode does. The caches are removed at the end.
What a run without bytecode pays on top, inside ``setup_s``, is shown by
one line per side: the time to compile that checkout's ``src/histner``
and ``perfbench`` sources, the least of 5 passes of ``compile()``.

Usage: python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_result(stdout: str) -> dict | None:
    """The JSON result on the last line of a run's output, or ``None``."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             cache: Path) -> tuple[dict | None, str]:
    """The run's result, or ``None`` and why there is none: the exit code
    and the last line of stderr. The run reads and writes bytecode in
    ``cache`` only."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(cache)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, env=env)
    result = parse_result(proc.stdout) if proc.returncode == 0 else None
    stderr = proc.stderr.strip().splitlines()
    return result, f"no result (exit {proc.returncode}: {stderr[-1] if stderr else 'no stderr'})"


def compile_ms(checkout: Path) -> tuple[float, int]:
    """The least time, in ms, that one of 5 passes takes to compile every
    source of ``checkout``'s ``src/histner`` and ``perfbench``, and how many
    sources there are."""
    sources = [(path.read_text(encoding="utf-8"), str(path))
               for directory in ("src/histner", "perfbench")
               for path in sorted((checkout / directory).rglob("*.py"))]
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for text, name in sources:
            compile(text, name, "exec")
        best = min(best, time.perf_counter() - start)
    return 1000 * best, len(sources)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], end_to_end: list[dict]) -> list[str]:
    """Summary lines for ``pairs``, each ``{"parent": result, "change": result}``
    where a result is a run's JSON result or ``None``."""
    lines = [f"{'metric':20s} {'parent median [q1, q3]':>36s} {'change median [q1, q3]':>36s}"
             f" {'wins':>6s}  {'claim holds':>15s}  worse by > bound"]
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = [{side: pair[side]["metrics"][name]["value"] for side in SIDES}
                  for pair in pairs
                  if all(pair[side] and name in pair[side]["metrics"] for side in SIDES)]
        if not values:
            lines.append(f"{name:20s} no pair with both results")
            continue
        stats = {side: quartiles([v[side] for v in values]) for side in SIDES}
        cells = [f"{q2:.6g} [{q1:.6g}, {q3:.6g}]" for q1, q2, q3 in stats.values()]
        wins = sum(sign * (v["change"] - v["parent"]) > 0 for v in values)
        q1, median, q3 = stats["parent"]
        gain, bound = sign * (stats["change"][1] - median), metric["bound"] * abs(median)
        # a spread wider than the bound cannot show the change within it, unless
        # every change run beats every parent run
        separated = (min(sign * v["change"] for v in values)
                     > max(sign * v["parent"] for v in values))
        verdicts = ["yes" if 10 * wins >= 9 * len(pairs) and gain > q3 - q1 else "no",
                    "yes" if -gain > bound else
                    "unresolved" if q3 - q1 > bound and not separated else "no"]
        lines.append(f"{name:20s} {cells[0]:>36s} {cells[1]:>36s} {wins:>3d}/{len(pairs):<2d}"
                     f"  {verdicts[0]:>15s}  {verdicts[1]}")
    for side in SIDES:
        results = [pair[side] for pair in pairs]
        failed = sum(r["failed"] if r else 1 for r in results)
        attempted = sum(r["attempted"] if r else 1 for r in results)
        lines.append(f"{side}: {failed} failed / {attempted} attempted")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as tmp:
        caches = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:  # untimed: it fills the side's cache and counts in no pair
            run_once(checkouts[side], args.workload, args.seed, 0, caches[side])
        for i in range(args.pairs):
            pair = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                pair[side], why = run_once(checkouts[side], args.workload, args.seed,
                                           bench["run_seconds"], caches[side])
                metrics = pair[side]["metrics"] if pair[side] else {}
                shown = "  ".join(f"{name} {m['value']:.6g}" for name, m in metrics.items())
                print(f"pair {i} {side}: {shown if pair[side] else why}", flush=True)
            pairs.append(pair)
    print(f"workload {args.workload}  seed {args.seed}  pairs {args.pairs}  "
          f"seconds {bench['run_seconds']}")
    for side in SIDES:
        ms, n = compile_ms(checkouts[side])
        print(f"compile {side}: {ms:.1f} ms for {n} sources of src/histner and perfbench "
              "(min of 5 compile() passes)")
    print("\n".join(summarize(pairs, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
