#!/usr/bin/env python3
"""Print the sha256 of every output file of a fixed set of seeded histner
runs, one ``<sha256>  <run>/<file>`` line each, in run order; the runs'
``manifest.json`` files, which hold a timestamp, are left out.

The runs, with BLAS pinned to one thread, take about a second:

* ``histner stats`` of two generated corpora: ``separable_corpus(0)`` at
  vocab 64, whose training windows read 44 of the table's 65 rows, and
  ``regional_corpus(0)`` at vocab 4096, whose training windows read 129 of
  4097; Adam holds the moments of those rows only;
* ``histner train`` on each corpus in each mode;
* ``histner eval`` and ``histner export-embeddings`` on each training run's
  best checkpoint.

Run it once with each side's package on ``PYTHONPATH`` and compare the two
outputs; equal lines mean byte-identical outputs.

Usage: PYTHONPATH=src python scripts/output_digests.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from histner import cli, corpus, synthetic, training  # noqa: E402

#: The training settings of every run, small enough for a second in all.
TRAIN = {"epochs": 4, "lr": 5e-3, "lam": 0.1}
TAGGER = {"embed_dim": 16, "hidden_dim": 32}


def corpora():
    """Each corpus's name, its documents and the tagger's vocabulary for it."""
    regional = synthetic.regional_corpus(0, config=synthetic.RegionalConfig(15, 5, vocab_size=4096))
    return (("v64", synthetic.separable_corpus(0, n_sentences=60, vocab_size=64), 64),
            ("v4096", regional.train + regional.valid + regional.test, 4096))


def run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"histner {argv[0]} exited with {code}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = []
        for name, docs, vocab in corpora():
            data, config = tmp / f"{name}.jsonl", tmp / f"{name}.json"
            corpus.save_jsonl(docs, data)
            config.write_text(json.dumps({"tagger": {**TAGGER, "vocab_size": vocab},
                                          "train": TRAIN}))
            runs.append(f"stats-{name}")
            run("stats", "--input", str(data), "--out", str(tmp / runs[-1]))
            for mode in training.MODES:
                trained = f"train-{mode}-{name}"
                run("train", "--input", str(data), "--out", str(tmp / trained), "--seed", "0",
                    "--config", str(config), "--mode", mode)
                best = str(tmp / trained / "checkpoint_best.npz")
                runs += [trained, f"eval-{mode}-{name}", f"export-embeddings-{mode}-{name}"]
                for command in ("eval", "export-embeddings"):
                    run(command, "--input", str(data), "--out", str(tmp / f"{command}-{mode}-{name}"),
                        "--checkpoint", best)
        for name in runs:
            for path in sorted((tmp / name).iterdir()):
                if path.name != "manifest.json":
                    print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}")


if __name__ == "__main__":
    main()
