"""Smoke runs of the experiment scripts at one epoch, and checks of the
benchmark's hooks into the package."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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
    lines = run_script("source_loc.py")
    counts = {name: int(n) for n, name in (line.split() for line in lines)}
    files = {str(f.relative_to(ROOT)): f for f in (ROOT / "src" / "histner").rglob("*.py")}
    assert counts.pop("total") == sum(counts.values())
    assert counts == {
        name: sum(1 for line in f.read_text().splitlines()
                  if line.strip() and not line.lstrip().startswith("#"))
        for name, f in files.items()
    }


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
