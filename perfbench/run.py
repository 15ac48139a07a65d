"""histner benchmark: one workload, one process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload train-cli-v32k --seed 0 --seconds 30 --trace 0

Set-up builds the workload's inputs from ``--seed`` several times and keeps
the last; passes then repeat until ``--seconds`` have gone by (at least the
workload's minimum). Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` adds one pass with the span recorder on and reports the
per-layer metrics instead, and writes the spans to ``.perfbench/``.
"""

import time

_START = time.perf_counter()

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

#: ROADMAP baseline for one training step (32 sentences, loss_rev, one BLAS
#: thread, mean of 30 steps): forward, fwd+loss+backward, clip, Adam in ms.
BASELINE_STEP_MS = {4096: (2.7, 8.5, 1.3, 9.8), 32768: (5.0, 13.6, 8.0, 67.8)}
STEP_PHASES = (
    ("forward", "model.forward_windows", "training.compute_losses"),
    ("fwd+loss+backward", "training.compute_losses", None),
    ("clip", "training.clip_gradients", None),
    ("Adam", "training.adam_step", "training.train"),
)


@dataclass
class Pass:
    wall: float
    phases: dict
    result: object


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_pass(workload, ctx, ops, out: Path, recording=contextlib.nullcontext()) -> Pass:
    out.mkdir(parents=True)
    ops.seconds.clear()
    start = time.perf_counter()
    with recording:
        result = workload.run(ctx, ops, out)
    wall = time.perf_counter() - start
    phases = dict(ops.seconds)
    workload.check(ctx, result, ops)
    shutil.rmtree(out)
    return Pass(wall, phases, result)


def end_to_end(passes: list[Pass], import_s: float, setup_times: list[float]) -> dict:
    med = statistics.median
    return {
        "setup_s": (import_s + med(setup_times), "s"),
        "wall_s": (med(p.wall for p in passes), "s"),
        "model_tokens_per_s": (
            med(p.result.model_tokens / p.phases["model"] for p in passes), "tok/s"),
        "f1": (med(p.result.f1 for p in passes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def print_step_phases(recorder, vocab: int) -> None:
    """Per-step phase medians of this run beside the ROADMAP baseline; a
    phase more than 2x away from its baseline is flagged (information)."""
    print(f"step phases (median ms) at vocab {vocab} vs ROADMAP baseline:")
    for i, (label, span, parent) in enumerate(STEP_PHASES):
        samples = recorder.durations_ms(span, parent)
        if not samples:
            print(f"  {label:18s} no training steps in this workload")
            continue
        now = statistics.median(samples)
        cells = "  ".join(f"v{v}={b[i]:.1f}" for v, b in BASELINE_STEP_MS.items())
        ratio = now / BASELINE_STEP_MS[vocab][i]
        flag = "  FLAG >2x from baseline" if not 0.5 <= ratio <= 2.0 else ""
        print(f"  {label:18s} {now:8.2f} (n={len(samples)})  baseline {cells}"
              f"  ratio {ratio:.2f}{flag}")


def trace_report(recorder, traced: Pass, passes: list[Pass], workload, env: dict,
                 seed: int) -> dict:
    """Per-layer metrics of the traced pass (and the traced set-up); prints
    the span table and step phases and writes the spans to ``WORK``."""
    import spans

    metrics = recorder.layer_metrics()
    overhead = traced.wall - statistics.median(p.wall for p in passes)
    metrics["bench.trace_overhead_s"] = (overhead, "s")
    print(f"{'span':34s} {'calls':>7s} {'self_s':>9s}")
    for name in spans.SPANS:
        calls = metrics[f"{name}.calls"][0]
        shown = f"{metrics[f'{name}.self_s'][0]:9.4f}" if calls else "  missing"
        print(f"{name:34s} {int(calls):7d} {shown}")
    print(f"tracing overhead: {overhead:+.3f}s (traced wall {traced.wall:.3f}s)")
    print_step_phases(recorder, workload.vocab)
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{workload.name}-seed{seed}.json"
    recorder.write(path, {"env": env, "workload": workload.name,
                          "metrics": {k: v for k, (v, _) in metrics.items()}})
    print(f"spans written to {path}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "histner" / "__init__.py").is_file():
        print(f"error: histner sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import histner
    import spans
    import workloads

    if Path(histner.__file__).resolve().parent != (SRC / "histner").resolve():
        print(f"error: histner imported from {histner.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    env = environment(args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload]()
    ops = workloads.Ops()
    recorder = spans.Recorder() if args.trace else None
    workdir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    setup_times: list[float] = []
    passes: list[Pass] = []
    traced: Pass | None = None
    try:
        if recorder:
            recorder.install()
        for i in range(SETUP_REPEATS):
            (workdir / f"setup{i}").mkdir(parents=True)
            last = recorder is not None and i == SETUP_REPEATS - 1
            start = time.perf_counter()
            with recorder.recording("setup") if last else contextlib.nullcontext():
                ctx = ops.call("setup", workload.setup, args.seed, workdir / f"setup{i}")
            setup_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        while len(passes) < workload.min_passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(workload, ctx, ops, workdir / f"pass{len(passes)}"))
            if len(passes) > 1:
                ops.check(passes[-1].result.outputs == passes[0].result.outputs,
                          "outputs identical across passes")
        if recorder:
            traced = run_pass(workload, ctx, ops, workdir / "traced",
                              recorder.recording("pass-traced"))
            ops.check(traced.result.outputs == passes[0].result.outputs,
                      "traced pass outputs identical to untraced ones")
    except Exception:
        traceback.print_exc(file=sys.stderr)
        if ops.failed == 0:
            ops.attempted += 1
            ops.failed += 1
    finally:
        if recorder:
            recorder.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for i, p in enumerate(passes):
        phases = "  ".join(f"{k} {v:.3f}s" for k, v in sorted(p.phases.items()))
        info = "  ".join(f"{k} {v:.4f}" for k, v in p.result.info.items())
        print(f"pass {i}: wall {p.wall:.3f}s  {phases}  f1 {p.result.f1:.4f}  {info}")
    print(f"setup: import {import_s:.3f}s  runs " + " ".join(f"{t:.3f}s" for t in setup_times))

    metrics = {}
    if recorder:
        if traced:
            metrics = trace_report(recorder, traced, passes, workload, env, args.seed)
    elif passes:
        metrics = end_to_end(passes, import_s, setup_times)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    print(f"error_rate {ops.failed / max(ops.attempted, 1):.4f} "
          f"({ops.failed} failed / {ops.attempted} attempted)")
    print(json.dumps({
        "correct": bool(passes) and ops.failed == 0,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
