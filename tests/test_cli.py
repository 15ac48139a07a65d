import json
from pathlib import Path

import numpy as np
import pytest

from histner import cli
from histner.corpus import dumps_jsonl, save_jsonl
from histner.model import CHECKPOINT_VERSION
from histner.synthetic import regional_corpus, separable_corpus

DATA = Path(__file__).parent / "data"


@pytest.fixture
def corpus_file(tmp_path):
    corpus = separable_corpus(0, n_sentences=80, vocab_size=512)
    path = tmp_path / "corpus.jsonl"
    save_jsonl(corpus, path)
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "tagger": {"vocab_size": 512, "embed_dim": 8, "hidden_dim": 16},
        "train": {"epochs": 2},
    }))
    return path


def run(argv):
    return cli.main([str(a) for a in argv])


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["frobnicate"])
        assert err.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, corpus_file):
        with pytest.raises(SystemExit) as err:
            run(["stats", "--input", corpus_file, "--bogus"])
        assert err.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["--version"])
        assert err.value.code == 0


class TestStats:
    def test_prints_table(self, corpus_file, capsys):
        assert run(["stats", "--input", corpus_file]) == 0
        out = capsys.readouterr().out
        assert "sentences: 80" in out
        assert "Tokens/Entity" in out

    def test_writes_json_and_manifest(self, corpus_file, tmp_path):
        out = tmp_path / "out"
        assert run(["stats", "--input", corpus_file, "--out", out]) == 0
        payload = json.loads((out / "stats.json").read_text())
        assert payload["sentences"] == 80
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "stats"
        assert manifest["inputs"][0]["sha256"]

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        assert run(["stats", "--input", tmp_path / "nope.jsonl"]) == 1


class TestValidate:
    def test_clean_corpus(self, corpus_file):
        assert run(["validate", "--input", corpus_file]) == 0

    def test_violations_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"doc_id": "d", "region": "Moldavia", "tokens": ["a", "b"], "tags": ["O"]}\n'
        )
        assert run(["validate", "--input", bad]) == 1
        assert "violation" in capsys.readouterr().err


class TestConvert:
    def test_brat_to_jsonl_matches_golden(self, tmp_path):
        out = tmp_path / "conv"
        code = run([
            "convert", "--from", "brat", "--to", "jsonl",
            "--input", DATA / "sample.txt", "--region", "Moldavia", "--out", out,
        ])
        assert code == 0
        got = (out / "corpus.jsonl").read_text(encoding="utf-8")
        golden = (DATA / "golden_sample.jsonl").read_text(encoding="utf-8")
        assert got == golden

    def test_jsonl_to_conll(self, corpus_file, tmp_path):
        out = tmp_path / "conll"
        assert run(["convert", "--from", "jsonl", "--to", "conll",
                    "--input", corpus_file, "--out", out]) == 0
        content = (out / "corpus.conll").read_text()
        assert "\t" in content.splitlines()[0]

    def test_brat_region_from_directory_name(self, tmp_path):
        region_dir = tmp_path / "wallachia"
        region_dir.mkdir()
        (region_dir / "x.txt").write_text("Mihai vine.\n")
        (region_dir / "x.ann").write_text("T1\tPERSON 0 5\tMihai\n")
        out = tmp_path / "conv"
        assert run(["convert", "--from", "brat", "--to", "jsonl",
                    "--input", tmp_path, "--out", out]) == 0
        assert '"region": "Wallachia"' in (out / "corpus.jsonl").read_text()


class TestSplit:
    def test_writes_three_files(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "splits"
        assert run(["split", "--input", corpus_file, "--out", out, "--seed", 3]) == 0
        counts = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert counts == {"train": 64, "valid": 8, "test": 8}
        for name in ("train", "valid", "test"):
            assert (out / f"{name}.jsonl").exists()

    def test_split_file_override(self, corpus_file, tmp_path):
        from histner.corpus import load_jsonl

        corpus = load_jsonl(corpus_file)
        mapping = {
            "train": [d.id for d in corpus[:-2]],
            "valid": [corpus[-2].id],
            "test": [corpus[-1].id],
        }
        split_file = tmp_path / "split.json"
        split_file.write_text(json.dumps(mapping))
        out = tmp_path / "splits"
        assert run(["split", "--input", corpus_file, "--out", out,
                    "--split-file", split_file]) == 0
        valid = load_jsonl(out / "valid.jsonl")
        assert [d.id for d in valid] == mapping["valid"]


class TestIaa:
    def test_self_agreement(self, corpus_file, capsys):
        assert run(["iaa", "--input", corpus_file, "--input-b", corpus_file]) == 0
        out = capsys.readouterr().out
        assert "kappa" in out
        assert "1.0000" in out


class TestTfidf:
    def test_tsv_output(self, corpus_file, capsys):
        assert run(["tfidf", "--input", corpus_file, "--k", 3]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(len(line.split("\t")) == 4 for line in lines)


class TestTrainEval:
    def test_train_outputs_and_determinism(self, corpus_file, config_file, tmp_path):
        outputs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            code = run([
                "train", "--input", corpus_file, "--out", out,
                "--config", config_file, "--seed", 7, "--mode", "baseline",
            ])
            assert code == 0
            outputs.append(out)
        for fname in ("history.json", "eval.json"):
            a = (outputs[0] / fname).read_bytes()
            b = (outputs[1] / fname).read_bytes()
            assert a == b, f"{fname} differs between identical runs"
        for fname in ("checkpoint_best.npz", "checkpoint_final.npz",
                      "eval.tsv", "manifest.json"):
            assert (outputs[0] / fname).exists()

    def test_eval_checkpoint(self, corpus_file, config_file, tmp_path, capsys):
        train_out = tmp_path / "train"
        run(["train", "--input", corpus_file, "--out", train_out,
             "--config", config_file, "--seed", 1])
        capsys.readouterr()
        eval_out = tmp_path / "eval"
        code = run([
            "eval", "--input", corpus_file, "--out", eval_out,
            "--checkpoint", train_out / "checkpoint_best.npz",
        ])
        assert code == 0
        payload = json.loads((eval_out / "eval.json").read_text())
        assert set(payload) == {"overall", "per_region", "per_label"}
        assert "Total" in capsys.readouterr().out

    def test_flags_override_config_file(self, corpus_file, config_file, tmp_path):
        out = tmp_path / "run"
        run(["train", "--input", corpus_file, "--out", out,
             "--config", config_file, "--seed", 2, "--epochs", 1])
        history = json.loads((out / "history.json").read_text())
        assert len(history) == 1

    def test_export_embeddings(self, corpus_file, config_file, tmp_path):
        train_out = tmp_path / "train"
        run(["train", "--input", corpus_file, "--out", train_out,
             "--config", config_file, "--seed", 1])
        emb_out = tmp_path / "emb"
        code = run([
            "export-embeddings", "--input", corpus_file, "--out", emb_out,
            "--checkpoint", train_out / "checkpoint_best.npz",
        ])
        assert code == 0
        lines = (emb_out / "embeddings.tsv").read_text().strip().splitlines()
        assert len(lines) == 80
        assert len(lines[0].split("\t")) == 16 + 1


class TestCrossRegion:
    def test_matrix_written(self, tmp_path, capsys):
        from histner.synthetic import RegionalConfig

        corpus_path = tmp_path / "regional.jsonl"
        splits = regional_corpus(0, coupled=True,
                                 config=RegionalConfig(n_train_per_region=30,
                                                       n_eval_per_region=8))
        docs = splits.train + splits.valid + splits.test
        save_jsonl(docs, corpus_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "tagger": {"vocab_size": 4096, "embed_dim": 16, "hidden_dim": 32},
            "train": {"epochs": 2},
        }))
        out = tmp_path / "xr"
        code = run([
            "crossregion", "--input", corpus_path, "--out", out,
            "--config", cfg, "--seed", 0,
        ])
        assert code == 0
        payload = json.loads((out / "crossregion.json").read_text())
        assert len(payload["f1"]) == 4
        assert len(payload["f1"][0]) == 4
        assert payload["regions"][0] == "Bessarabia"


_RECORD = {"doc_id": "d", "region": "Moldavia", "tokens": ["Ion", "vine"], "tags": ["B-PERSON", "O"]}


def _jsonl_case(*records):
    """Build a ``validate`` run on a JSONL file holding the given lines."""
    def build(tmp_path, corpus_file):
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(
            (r if isinstance(r, str) else json.dumps(r)) + "\n" for r in records))
        return ["validate", "--input", path]
    return build


def _checkpoint_case(write):
    def build(tmp_path, corpus_file):
        path = tmp_path / "bad.npz"
        write(path)
        return ["eval", "--input", corpus_file, "--checkpoint", path, "--out", tmp_path / "o"]
    return build


def _config_case(payload):
    def build(tmp_path, corpus_file):
        path = tmp_path / "bad_config.json"
        path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
        return ["train", "--input", corpus_file, "--config", path, "--out", tmp_path / "o"]
    return build


def _split_file_case(content: bytes):
    def build(tmp_path, corpus_file):
        path = tmp_path / "bad_split.json"
        path.write_bytes(content)
        return ["split", "--input", corpus_file, "--split-file", path, "--out", tmp_path / "o"]
    return build


def _non_utf8_corpus_case(tmp_path, corpus_file):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b"\xff" + corpus_file.read_bytes())
    return ["stats", "--input", path]


MALFORMED = {
    "record is a JSON array": (_jsonl_case(_RECORD, [1, 2]), "line 2"),
    "tokens is a string": (_jsonl_case({**_RECORD, "tokens": "Ion", "tags": ["O"] * 3}), "line 1"),
    "tags hold a number": (_jsonl_case({**_RECORD, "tags": ["B-PERSON", 0]}), "line 1"),
    "year is a string": (_jsonl_case({**_RECORD, "year": "1900"}), "line 1"),
    "year out of range": (_jsonl_case(_RECORD, {**_RECORD, "year": 1700}), "line 2"),
    "checkpoint is not an npz": (
        _checkpoint_case(lambda p: p.write_text("not a checkpoint\n")), "bad.npz"),
    "checkpoint metadata unreadable": (
        _checkpoint_case(lambda p: np.savez(p, __meta__=np.frombuffer(b"{nope", np.uint8))),
        "bad.npz"),
    "checkpoint config value invalid": (
        _checkpoint_case(lambda p: np.savez(p, __meta__=np.frombuffer(json.dumps(
            {"version": CHECKPOINT_VERSION, "config": {"hidden_dim": 0}}).encode(), np.uint8))),
        "bad.npz"),
    "unknown tagger config key": (
        _config_case({"tagger": {"vocab_sz": 512}}), "vocab_sz"),
    "unknown train config key": (
        _config_case({"train": {"epochs": 1, "warmup": 3}}), "warmup"),
    "train config int is a string": (_config_case({"train": {"epochs": "2"}}), "epochs"),
    "train config int is a float": (_config_case({"train": {"batch_size": 8.0}}), "batch_size"),
    "train config float is a bool": (_config_case({"train": {"lr": True}}), "lr"),
    "train config mode is a number": (_config_case({"train": {"mode": 1}}), "mode"),
    "negative weight decay": (_config_case({"train": {"weight_decay": -0.1}}), "weight_decay"),
    "tagger config int is a string": (_config_case({"tagger": {"hidden_dim": "16"}}), "hidden_dim"),
    "tagger config int is a bool": (_config_case({"tagger": {"embed_dim": True}}), "embed_dim"),
    "tagger config sets the tag count": (_config_case({"tagger": {"n_tags": 11}}), "n_tags"),
    "tagger config sets the domain count": (
        _config_case({"tagger": {"n_domains": 4}}), "n_domains"),
    "corpus is not UTF-8": (_non_utf8_corpus_case, "latin1.jsonl: not UTF-8"),
    "config file is not UTF-8": (_config_case(b'\xff{"train": {}}'), "bad_config.json: not UTF-8"),
    "config file is invalid JSON": (_config_case(b'{"train": '), "bad_config.json: invalid JSON"),
    "config file is not an object": (_config_case([1, 2]), "bad_config.json"),
    "split file is not UTF-8": (_split_file_case(b"\xff{}"), "bad_split.json: not UTF-8"),
    "split file is invalid JSON": (_split_file_case(b"{nope"), "bad_split.json: invalid JSON"),
    "split file is not an object": (_split_file_case(b"5"), "bad_split.json"),
    "split file part is not a list": (
        _split_file_case(b'{"train": 5, "valid": [], "test": []}'), "'train' list"),
}


@pytest.mark.parametrize("case", list(MALFORMED), ids=list(MALFORMED))
def test_malformed_input_is_one_error_line(case, corpus_file, tmp_path, capsys):
    build, fragment = MALFORMED[case]
    argv = build(tmp_path, corpus_file)
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    assert fragment in errors[0]
    assert "Traceback" not in err
