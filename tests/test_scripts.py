"""Smoke runs of the experiment scripts at one epoch, and checks of the
benchmark's hooks into the package."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from histner import training
from histner.corpus import Region

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_adaptation_benchmark():
    lines = run_script("run_adaptation_benchmark.py", "--seeds", "0", "--epochs", "1")
    assert lines[0].split()[:2] == ["seed", "baseline"]
    rows = [line.split() for line in lines if line.split()[:1] in (["0"], ["mean"])]
    assert [r[0] for r in rows] == ["0", "mean"]
    assert all(len(r) == 6 for r in rows)


def test_source_loc():
    rows = [line.split("\t") for line in run_script("source_loc.py")]
    for directory, files in (("src/histner", (ROOT / "src" / "histner").rglob("*.py")),
                             ("tests", (ROOT / "tests").glob("*.py")),
                             ("scripts", (ROOT / "scripts").glob("*.py")),
                             ("perfbench", (ROOT / "perfbench").glob("*.py"))):
        counts = {name: int(n) for n, name in rows if name.startswith(directory + "/")}
        assert counts == {
            str(f.relative_to(ROOT)): sum(1 for line in f.read_text().splitlines()
                                          if line.strip() and not line.lstrip().startswith("#"))
            for f in files
        }
        assert [int(n) for n, name in rows if name == f"total {directory}"] == [sum(counts.values())]
    assert len(rows) == len({name for _, name in rows})


def test_crossregion_matrix():
    lines = run_script("run_crossregion_matrix.py", "--epochs", "1")
    for region in Region:
        row = next(line for line in lines if line.startswith(region.display))
        assert len(row.split()) == 1 + len(Region)


def test_benchmark_spans_name_package_attributes(monkeypatch):
    # the traced benchmark run wraps each span's attribute through __dict__
    # and fails with a KeyError on a name that no longer exists
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", spans)  # for its dataclasses
    spec.loader.exec_module(spans)
    for name in spans.SPANS:
        module, *owners, attr = name.split(".")
        owner = importlib.import_module(f"histner.{module}")
        for part in owners:
            owner = owner.__dict__[part]
        assert attr in owner.__dict__, name


def test_benchmark_workloads_name_package_attributes():
    # every ``<module>.<attr>`` chain that the workloads read must resolve,
    # and every call through one must still accept the arguments it passes
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    modules = {name: importlib.import_module(f"histner.{name}") for name in
               ("analysis", "cli", "corpus", "metrics", "model", "synthetic", "training")}

    def resolve(node):
        if isinstance(node, ast.Name) and node.id in modules:
            return modules[node.id], node.id
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            if owner is not None:
                name = f"{owner[1]}.{node.attr}"
                assert hasattr(owner[0], node.attr), name
                return getattr(owner[0], node.attr), name
        return None

    names, bound = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (found := resolve(node)) is not None:
            names.add(found[1])
        if isinstance(node, ast.Call) and (found := resolve(node.func)) is not None:
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                continue  # what a * or ** argument holds is not known here
            inspect.signature(found[0]).bind(*node.args, **{k.arg: k for k in node.keywords})
            bound.add(found[1])
    assert {"corpus.SplitSpec", "synthetic.RegionalConfig", "model.predict_tags",
            "training.predict_corpus"} <= names
    assert {"corpus.Document", "corpus.Sentence"} <= bound


def _traced_benchmark_run(workload):
    """One traced pass of a benchmark workload; it writes only under .perfbench/."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    return result["metrics"]


def test_benchmark_traced_run():
    metrics = _traced_benchmark_run("train-cli-v32k")
    for name in ("autodiff.backward", "training.compute_losses", "model.forward_windows"):
        assert metrics[f"{name}.calls"]["value"] > 0, name


def test_benchmark_traced_inference_run():
    metrics = _traced_benchmark_run("corpus-infer-v32k")
    assert metrics["model.forward_windows.calls"]["value"] > 0
    assert metrics["model.forward_windows.rows_per_call"]["value"] <= training._CHUNK_ROWS


def _result_line(failed=0, **values):
    return json.dumps({"correct": not failed, "attempted": 4, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}})


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_summary_of_canned_results():
    bench_pairs = _bench_pairs()
    end_to_end = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
                  {"name": "tok_s", "better": "higher", "bound": 0.25},
                  {"name": "wall_s", "better": "lower", "bound": 0.25}]
    parent_rss, change_rss = [67.0, 68.0, 67.5, 67.2, 67.4], [62.0, 62.5, 62.2, 67.3, 62.1]
    # the change's wall_s median, 1.3, is worse than the parent's 1.0 by more than 25 %
    parent_wall, change_wall = [1.0, 0.9, 1.1, 1.0, 1.0], [1.3, 1.2, 1.4, 1.3, 0.8]
    outputs = [{"parent": "env: {}\n" + _result_line(peak_rss_mb=p, tok_s=100.0 + i, wall_s=pw),
                "change": "pass 0: ...\n" + _result_line(peak_rss_mb=c, tok_s=100.0, wall_s=cw)}
               for i, (p, c, pw, cw) in enumerate(zip(parent_rss, change_rss,
                                                      parent_wall, change_wall))]
    outputs.append({"parent": _result_line(failed=1), "change": "Traceback (most recent call last)"})
    pairs = [{side: bench_pairs.parse_result(out) for side, out in pair.items()}
             for pair in outputs]
    assert pairs[-1]["change"] is None
    lines = bench_pairs.summarize(pairs, end_to_end)
    rows = {line.split()[0]: line for line in lines[1:]}
    # parent 67.0 67.2 67.4 67.5 68.0: median 67.4, quartiles 67.2 and 67.5
    assert "67.4 [67.2, 67.5]" in rows["peak_rss_mb"]
    assert "62.2 [62.1, 62.5]" in rows["peak_rss_mb"]
    # its median is better by more than the parent's quartile distance, but 4 wins
    # of the 6 pairs run are fewer than 9 of 10, so no claim holds
    assert rows["peak_rss_mb"].split()[-3:] == ["4/6", "no", "no"]
    # the change reads 100 throughout; it wins no pair and its median is lower,
    # by 2 %, within the bound
    assert rows["tok_s"].split()[-3:] == ["0/6", "no", "no"]
    assert "1 [1, 1]" in rows["wall_s"] and "1.3 [1.2, 1.3]" in rows["wall_s"]
    assert rows["wall_s"].split()[-3:] == ["1/6", "no", "yes"]
    assert lines[-2:] == ["parent: 1 failed / 24 attempted", "change: 1 failed / 21 attempted"]
    # ten pairs whose change median beats the parent's by far more than its quartile
    # distance: the claim holds at 9 wins and is refused at 8
    parent_tok = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]
    for wins in (8, 9):
        change_tok = [150.0] * wins + [90.0] * (10 - wins)
        pairs = [{"parent": json.loads(_result_line(tok_s=p)), "change": json.loads(_result_line(tok_s=c))}
                 for p, c in zip(parent_tok, change_tok)]
        row = bench_pairs.summarize(pairs, end_to_end[1:2])[1]
        assert row.split()[-3:] == [f"{wins}/10", "yes" if wins == 9 else "no", "no"]
    # 8 wins and 2 change runs without a result: the 2 pairs count as lost
    pairs = [{"parent": json.loads(_result_line(tok_s=p)),
              "change": json.loads(_result_line(tok_s=150.0)) if i < 8 else None}
             for i, p in enumerate(parent_tok)]
    row = bench_pairs.summarize(pairs, end_to_end[1:2])[1]
    assert row.split()[-3:] == ["8/10", "no", "no"]


def test_bench_pairs_calls_a_bound_unresolved_when_the_parent_spread_exceeds_it():
    bench_pairs = _bench_pairs()
    end_to_end = [{"name": "setup_s", "better": "lower", "bound": 0.25}]
    # parent median 0.17 with quartiles 0.15 and 0.21: a spread of 0.06, wider
    # than the bound, 0.25 * 0.17
    parent = [0.15, 0.21, 0.17, 0.15, 0.21]
    verdicts = {}
    for case, change in {"level": [0.16, 0.18, 0.17, 0.19, 0.14],
                         "every run better": [0.10, 0.11, 0.12, 0.13, 0.14],
                         "worse by > bound": [0.30, 0.30, 0.30, 0.30, 0.30]}.items():
        pairs = [{"parent": json.loads(_result_line(setup_s=p)),
                  "change": json.loads(_result_line(setup_s=c))} for p, c in zip(parent, change)]
        row = bench_pairs.summarize(pairs, end_to_end)[1]
        assert "0.17 [0.15, 0.21]" in row
        verdicts[case] = row.split()[-1]
    assert verdicts == {"level": "unresolved", "every run better": "no", "worse by > bound": "yes"}


def test_bench_pairs_says_why_a_run_gave_no_result(tmp_path, capsys):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(
        "import sys\nprint('starting', file=sys.stderr)\n"
        "print('workload w: no such workload', file=sys.stderr)\nsys.exit(2)\n")
    assert _bench_pairs().main([str(checkout), str(checkout), "--workload", "w",
                                "--seed", "0", "--pairs", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    why = "no result (exit 2: workload w: no such workload)"
    assert out[:2] == [f"pair 0 parent: {why}", f"pair 0 change: {why}"]
    assert out[-2:] == ["parent: 1 failed / 1 attempted", "change: 1 failed / 1 attempted"]


def test_bench_pairs_prints_each_sides_compile_time(tmp_path, capsys):
    for side, n_package in (("parent", 1), ("change", 2)):
        checkout = tmp_path / side
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text("import sys\nsys.exit(2)\n")
        (checkout / "src" / "histner").mkdir(parents=True)
        for i in range(n_package):
            (checkout / "src" / "histner" / f"m{i}.py").write_text("x = 1\n")
    assert _bench_pairs().main([str(tmp_path / "parent"), str(tmp_path / "change"),
                                "--workload", "w", "--seed", "0", "--pairs", "1"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("compile")]
    # each side counts its package sources and perfbench's run.py
    pattern = (r"compile (\w+): \d+\.\d ms for (\d+) sources of src/histner and perfbench "
               r"\(min of 5 compile\(\) passes\)")
    assert [re.fullmatch(pattern, line).groups() for line in lines] == [("parent", "2"),
                                                                        ("change", "3")]


def test_bench_pairs_gives_each_side_one_fresh_bytecode_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    checkouts = {side: tmp_path / side for side in ("parent", "change")}
    log = tmp_path / "runs.jsonl"
    for checkout in checkouts.values():
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "helper.py").write_text("")
        # each run logs its checkout, its bytecode prefix, whether the helper's
        # bytecode was cached before the import, and its --seconds
        (checkout / "perfbench" / "run.py").write_text(
            "import importlib.util, json, os, sys\n"
            "cached = os.path.exists(importlib.util.cache_from_source("
            "os.path.join(sys.path[0], 'helper.py')))\n"
            "import helper\n"
            f"with open({str(log)!r}, 'a') as f:\n"
            "    print(json.dumps([os.path.basename(os.getcwd()), sys.pycache_prefix, cached,\n"
            "                      sys.argv[sys.argv.index('--seconds') + 1]]), file=f)\n"
            f"print({_result_line(wall_s=1.0)!r})\n")
    assert _bench_pairs().main([str(checkouts["parent"]), str(checkouts["change"]),
                                "--workload", "w", "--seed", "0", "--pairs", "2"]) == 0
    runs = [json.loads(line) for line in log.read_text().splitlines()]
    timed = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    # an untimed warm-up per side, then the pairs in alternating order
    assert [(side, seconds) for side, _, _, seconds in runs] == [
        ("parent", "0"), ("change", "0"), ("parent", timed), ("change", timed),
        ("change", timed), ("parent", timed)]
    # the warm-up compiles into the side's cache and every timed run reads it
    assert [cached for _, _, cached, _ in runs] == [False, False, True, True, True, True]
    prefixes = {side: {Path(prefix) for name, prefix, _, _ in runs if name == side}
                for side in checkouts}
    assert all(len(found) == 1 for found in prefixes.values())
    assert prefixes["parent"] != prefixes["change"]
    for prefix in prefixes["parent"] | prefixes["change"]:
        assert not prefix.exists()
        assert not any(prefix.is_relative_to(checkout) for checkout in checkouts.values())
    assert not any((checkout / "perfbench" / "__pycache__").exists()
                   for checkout in checkouts.values())
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["parent: 0 failed / 8 attempted", "change: 0 failed / 8 attempted"]
