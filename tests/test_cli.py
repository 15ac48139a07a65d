import contextlib
import functools
import hashlib
import io
import json
import logging
import math
import struct
import tempfile
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histner import cli
from histner.corpus import dumps_jsonl, save_jsonl
from histner.model import CHECKPOINT_VERSION, TaggerConfig, init_params
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

    def test_empty_sentence_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({**_RECORD, "tokens": [], "tags": []}) + "\n")
        assert run(["validate", "--input", bad]) == 1
        assert "d[0]: sentence has no tokens" in capsys.readouterr().err.splitlines()


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
        assert json.loads((out / "manifest.json").read_text())["config"]["split_file"] is None


_RECORD = {"doc_id": "d", "region": "Moldavia", "tokens": ["Ion", "vine"], "tags": ["B-PERSON", "O"]}


def _jsonl_case(*records, command="validate", out=False):
    """Build a ``command`` run (its words split on spaces) on a JSONL file
    holding the given lines, writing to ``--out`` when ``out`` is set."""
    def build(tmp_path, corpus_file):
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(
            (r if isinstance(r, str) else json.dumps(r)) + "\n" for r in records))
        return [*command.split(), "--input", path, *(["--out", tmp_path / "o"] if out else [])]
    return build


def _checkpoint_case(write):
    def build(tmp_path, corpus_file):
        path = tmp_path / "bad.npz"
        write(path)
        return ["eval", "--input", corpus_file, "--checkpoint", path, "--out", tmp_path / "o"]
    return build


def _param_case(convert, key="extractor.embed"):
    """An ``eval`` run on a checkpoint whose ``key`` array is ``convert``ed."""
    def write(path):
        init_params(TaggerConfig(vocab_size=512, embed_dim=8, hidden_dim=16)).save(path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays[key] = convert(arrays[key])
        np.savez(path, **arrays)
    return _checkpoint_case(write)


def _with_value(value):
    """A copy of an array with one element set to ``value``."""
    def convert(arr):
        arr = arr.copy()
        arr.flat[3] = value
        return arr
    return convert


def _meta_case(config, version=CHECKPOINT_VERSION):
    """An ``eval`` run on a checkpoint whose metadata records ``config``."""
    return _checkpoint_case(lambda p: np.savez(p, __meta__=np.frombuffer(json.dumps(
        {"version": version, "config": config}).encode(), np.uint8)))


def _corrupt_meta(path):
    """A saved checkpoint with one byte of its metadata overwritten, so its
    stored checksum no longer matches."""
    init_params(TaggerConfig(vocab_size=512, embed_dim=8, hidden_dim=16)).save(path)
    data = bytearray(path.read_bytes())
    data[data.index(b'"version"') + 1] ^= 0xFF
    path.write_bytes(bytes(data))


def _flag_entry(entry: int, method: int, first_byte: int | None = None):
    """A saved checkpoint whose ``entry``-th zip entry is flagged with
    compression ``method`` in the central directory, its stored bytes left
    as they are except, if given, the first."""
    def write(path):
        init_params(TaggerConfig(vocab_size=512, embed_dim=8, hidden_dim=16)).save(path)
        data = bytearray(path.read_bytes())
        at = -1
        for _ in range(entry + 1):
            at = data.index(b"PK\x01\x02", at + 1)
        struct.pack_into("<H", data, at + 10, method)
        if first_byte is not None:
            local = struct.unpack_from("<I", data, at + 42)[0]
            name_len, extra_len = struct.unpack_from("<HH", data, local + 26)
            data[local + 30 + name_len + extra_len] = first_byte
        path.write_bytes(bytes(data))
    return _checkpoint_case(write)


def _iaa_case(rewrite):
    """An ``iaa`` run of the corpus against a second layer that is the
    corpus with its second record replaced by ``rewrite(record)``."""
    def build(tmp_path, corpus_file):
        path = tmp_path / "layer_b.jsonl"
        lines = corpus_file.read_text().splitlines()
        lines[1] = json.dumps(rewrite(json.loads(lines[1])))
        path.write_text("\n".join(lines) + "\n")
        return ["iaa", "--input", corpus_file, "--input-b", path]
    return build


def _config_case(payload):
    def build(tmp_path, corpus_file):
        path = tmp_path / "bad_config.json"
        path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
        return ["train", "--input", corpus_file, "--config", path, "--out", tmp_path / "o"]
    return build


def _flags_case(command, *flags):
    """A ``command`` run on the corpus with ``flags`` added."""
    def build(tmp_path, corpus_file):
        return [command, "--input", corpus_file, *flags, "--out", tmp_path / "o"]
    return build


def _split_file_case(content: bytes):
    def build(tmp_path, corpus_file):
        path = tmp_path / "bad_split.json"
        path.write_bytes(content)
        return ["split", "--input", corpus_file, "--split-file", path, "--out", tmp_path / "o"]
    return build


def _train_with_record(record):
    """A ``train`` run on the fixture corpus with ``record`` appended."""
    def build(tmp_path, corpus_file):
        path = tmp_path / "with_record.jsonl"
        path.write_text(corpus_file.read_text() + json.dumps(record) + "\n")
        return ["train", "--input", path, "--out", tmp_path / "o"]
    return build


def _empty_sentence_test_case(tmp_path, corpus_file):
    """A ``train`` run whose split file puts a document with an empty
    sentence in the test part, which is scored only after training."""
    path = tmp_path / "with_empty.jsonl"
    empty = json.dumps({**_RECORD, "doc_id": "empty", "tokens": [], "tags": []})
    path.write_text(corpus_file.read_text() + empty + "\n")
    doc_ids = list(dict.fromkeys(json.loads(line)["doc_id"]
                                 for line in corpus_file.read_text().splitlines()))
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"train": doc_ids[:-2], "valid": doc_ids[-2:-1],
                                 "test": [doc_ids[-1], "empty"]}))
    return ["train", "--input", path, "--split-file", split, "--epochs", "1",
            "--out", tmp_path / "o"]


def _brat_case(files: dict[str, str], *flags, file=""):
    """A BRAT ``convert`` run on a directory holding ``files``, written as
    given, or on the one of them that ``file`` names."""
    def build(tmp_path, corpus_file):
        root = tmp_path / "brat"
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text, encoding="utf-8", newline="")
        return ["convert", "--from", "brat", "--to", "jsonl", "--input", root / file, *flags,
                "--out", tmp_path / "o"]
    return build


def _crlf_sample(offsets_count_cr: bool):
    """``tests/data/sample.txt`` and its ``.ann`` with ``\\r\\n`` line ends.
    The offsets count each ``\\r`` if ``offsets_count_cr``, else they are
    the ``\\n`` file's."""
    text = (DATA / "sample.txt").read_text(encoding="utf-8")
    lines = []
    for line in (DATA / "sample.ann").read_text(encoding="utf-8").splitlines():
        ident, span, surface = line.split("\t")
        label, *offsets = span.split(" ")
        if offsets_count_cr:
            offsets = [int(o) + text.count("\n", 0, int(o)) for o in offsets]
        lines.append(f"{ident}\t{label} {offsets[0]} {offsets[1]}\t{surface}\r\n")
    return _brat_case({"sample.txt": text.replace("\n", "\r\n"), "sample.ann": "".join(lines)},
                      "--region", "Moldavia")


def _save_small_params(path):
    init_params(TaggerConfig(vocab_size=512, embed_dim=8, hidden_dim=16)).save(path)


def _overflowing_params(path):
    """A checkpoint whose embeddings and hidden weights are all 1e300:
    finite, so it loads, but the feature layer's matmul overflows."""
    params = init_params(TaggerConfig(vocab_size=512, embed_dim=8, hidden_dim=16))
    params.extractor["embed"][:] = 1e300
    params.extractor["w_hidden"][:] = 1e300
    params.save(path)


def _model_case(command, records, write=_save_small_params):
    """A ``command`` run on a JSONL file holding ``records``, with the
    checkpoint that ``write`` saves."""
    def build(tmp_path, corpus_file):
        path, checkpoint = tmp_path / "records.jsonl", tmp_path / "model.npz"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        write(checkpoint)
        return [command, "--input", path, "--checkpoint", checkpoint, "--out", tmp_path / "o"]
    return build


def _split_by_region_case(command, test_regions):
    """A ``command`` run whose split file puts each region's first sentence
    in valid, its second in test if the region is in ``test_regions``, and
    the rest in train."""
    def build(tmp_path, corpus_file):
        parts, seen, per_region = {"train": [], "valid": [], "test": []}, {}, {}
        for line in corpus_file.read_text().splitlines():
            record = json.loads(line)
            index = seen[record["doc_id"]] = seen.get(record["doc_id"], -1) + 1
            k = per_region[record["region"]] = per_region.get(record["region"], -1) + 1
            part = ("valid" if k == 0 else "test" if k == 1 and record["region"] in test_regions
                    else "train")
            parts[part].append(f"{record['doc_id']}#{index}")
        path = tmp_path / "split.json"
        path.write_text(json.dumps(parts))
        return [command, "--input", corpus_file, "--split-file", path, "--out", tmp_path / "o"]
    return build


def _empty_part_case(empty, other):
    """A ``train`` run whose split file leaves the ``empty`` part empty and
    puts the last document in the ``other`` part, the rest in train."""
    def build(tmp_path, corpus_file):
        doc_ids = list(dict.fromkeys(json.loads(line)["doc_id"]
                                     for line in corpus_file.read_text().splitlines()))
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"train": doc_ids[:-1], empty: [], other: doc_ids[-1:]}))
        return ["train", "--input", corpus_file, "--split-file", path, "--out", tmp_path / "o"]
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
    "region is a bool": (_jsonl_case({**_RECORD, "region": True}), "line 1"),
    "token text is empty": (
        _jsonl_case(_RECORD, {**_RECORD, "tokens": ["Ion", ""]}), "bad.jsonl: line 2: empty token text"),
    **{f"{command.split()[0]} token holds {name}": (
        _jsonl_case(_RECORD, {**_RECORD, "tokens": ["Ion", sep]}, command=command, out=True),
        f"bad.jsonl: line 2: token 1 {sep!r} holds a tab or a line break")
       for command in ("convert --from jsonl --to conll", "tfidf")
       for name, sep in (("a tab", "\t"), ("a LF", "\n"), ("a CR", "\r"))},
    "document years disagree": (
        _jsonl_case({**_RECORD, "year": 1900}, {**_RECORD, "year": 1900}, "",
                    {**_RECORD, "year": 1850}),
        "bad.jsonl: line 4: document 'd' has year 1850, but 1900 at line 1"),
    "document year missing on a later line": (
        _jsonl_case({**_RECORD, "year": 1900}, _RECORD),
        "bad.jsonl: line 2: document 'd' has year None, but 1900 at line 1"),
    "train corpus has an empty sentence": (
        _train_with_record({**_RECORD, "doc_id": "empty", "tokens": [], "tags": []}),
        "has no tokens"),
    "valid split is empty": (_empty_part_case("valid", "test"), "error: empty valid split"),
    "test split is empty": (_empty_part_case("test", "valid"), "error: empty test split"),
    "crossregion test part lacks a region": (
        _split_by_region_case("crossregion", ("Bessarabia", "Transylvania", "Wallachia")),
        "error: region Moldavia has no evaluation sentences"),
    "test split has an empty sentence": (
        _empty_sentence_test_case, "with_empty.jsonl: empty[0]: sentence has no tokens"),
    "second iaa layer has a bad record": (_iaa_case(lambda r: [1, 2]), "layer_b.jsonl: line 2"),
    "iaa layers differ in token text": (
        _iaa_case(lambda r: {**r, "tokens": [t + "x" for t in r["tokens"]]}),
        "document 'separable-000', sentence 1: token text, region or tag count differs"),
    "iaa layer has an unknown tag": (
        _iaa_case(lambda r: {**r, "tags": ["B-PERSONA", *r["tags"][1:]]}),
        "layer_b.jsonl: separable-000[1]: unknown tag 'B-PERSONA' at position 0"),
    "stats corpus has an unknown tag": (
        _jsonl_case(_RECORD, {**_RECORD, "tags": ["B-PERSON", "I-PERSONA"]}, command="stats"),
        "bad.jsonl: d[1]: unknown tag 'I-PERSONA' at position 1"),
    "train corpus has an unknown tag": (
        _train_with_record({**_RECORD, "tags": ["B-PERSON", "I-PERSONA"]}),
        "with_record.jsonl: d[0]: unknown tag 'I-PERSONA' at position 1"),
    "eval corpus has an unknown tag": (
        _model_case("eval", [_RECORD, {**_RECORD, "doc_id": "e",
                                       "tags": ["B-PERSON", "I-PERSONA"]}]),
        "records.jsonl: e[0]: unknown tag 'I-PERSONA' at position 1"),
    "iaa layers differ in region": (
        _iaa_case(lambda r: {**r, "region": "Wallachia"}),
        "document 'separable-000', sentence 1: token text, region or tag count differs"),
    "checkpoint is not an npz": (
        _checkpoint_case(lambda p: p.write_text("not a checkpoint\n")), "bad.npz"),
    "checkpoint metadata unreadable": (
        _checkpoint_case(lambda p: np.savez(p, __meta__=np.frombuffer(b"{nope", np.uint8))),
        "bad.npz"),
    "checkpoint config value invalid": (_meta_case({"hidden_dim": 0}), "bad.npz"),
    "checkpoint version is not 1": (
        _meta_case({}, version=2), "bad.npz: unsupported checkpoint version 2"),
    "checkpoint vocab_size cannot be allocated": (_meta_case({"vocab_size": 2**62}), "bad.npz"),
    "checkpoint metadata bytes corrupted": (_checkpoint_case(_corrupt_meta), "bad.npz"),
    "checkpoint entry flagged bzip2": (_flag_entry(0, 12), "bad.npz"),
    "checkpoint table entry flagged lzma": (
        _flag_entry(1, 14), "bad.npz: parameter extractor.embed"),
    "checkpoint entry flagged deflate, invalid block": (_flag_entry(0, 8, 0x06), "bad.npz"),
    "checkpoint table is an object array": (
        _param_case(lambda a: a.astype(object)), "bad.npz: parameter extractor.embed"),
    "checkpoint table holds strings": (
        _param_case(lambda a: a.astype(str)), "bad.npz: parameter extractor.embed"),
    "checkpoint table holds a NaN": (
        _param_case(_with_value(np.nan)), "bad.npz: parameter extractor.embed"),
    "checkpoint NER weights hold an infinity": (
        _param_case(_with_value(np.inf), "ner_head.w"), "bad.npz: parameter ner_head.w"),
    "checkpoint overflows the forward": (
        _model_case("export-embeddings", [_RECORD], _overflowing_params),
        "op 'matmul' produced non-finite values"),
    "eval corpus is empty": (_model_case("eval", []), "records.jsonl: no sentences"),
    "export-embeddings corpus is empty": (
        _model_case("export-embeddings", []), "records.jsonl: no sentences"),
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
    "tagger vocab_size cannot be allocated": (
        _config_case({"tagger": {"vocab_size": 10**30}}), "vocab_size"),
    "tagger config seed is negative": (_config_case({"tagger": {"seed": -1}}), "seed"),
    "train config seed is negative": (_config_case({"train": {"seed": -1}}), "seed"),
    "split seed flag is negative": (_flags_case("split", "--seed", "-1"), "seed"),
    "train seed flag is negative": (_flags_case("train", "--seed", "-1"), "seed"),
    "train lr flag is NaN": (_flags_case("train", "--lr", "nan"), "lr"),
    "train config lam is NaN": (
        _config_case({"train": {"mode": "loss_rev", "lam": float("nan")}}), "lam"),
    "train config clip_norm is infinite": (
        _config_case({"train": {"clip_norm": float("inf")}}), "clip_norm"),
    "train config lr beyond float range": (_config_case({"train": {"lr": 10**400}}), "lr"),
    "train config weight_decay beyond float range": (
        _config_case({"train": {"weight_decay": 10**400}}), "weight_decay"),
    "train config lam beyond float range": (
        _config_case({"train": {"mode": "loss_rev", "lam": 10**400}}), "lam"),
    "unknown top-level config key": (
        _config_case({"tagger": {"vocab_size": 512}, "trian": {"epochs": 1}}), "trian"),
    "tagger config sets the tag count": (_config_case({"tagger": {"n_tags": 11}}), "n_tags"),
    "tagger config sets the domain count": (
        _config_case({"tagger": {"n_domains": 4}}), "n_domains"),
    "two BRAT files share a stem": (
        _brat_case({f"{region}/a.{ext}": text for region in ("bessarabia", "moldavia")
                    for ext, text in (("txt", "Ion vine.\n"), ("ann", "T1\tPERSON 0 3\tIon\n"))}),
        "bessarabia/a.txt and moldavia/a.txt give one document id 'a'"),
    "BRAT .txt without its .ann": (
        _brat_case({"moldavia/a.txt": "Ion vine.\n", "moldavia/a.ann": "T1\tPERSON 0 3\tIon\n",
                    "moldavia/b.txt": "Ion pleca.\n"}),
        "moldavia/b.txt has no .ann file"),
    "BRAT .ann without its .txt": (
        _brat_case({"moldavia/a.txt": "Ion vine.\n", "moldavia/a.ann": "T1\tPERSON 0 3\tIon\n",
                    "moldavia/c.ann": "T1\tPERSON 0 3\tIon\n"}),
        "moldavia/c.ann has no .txt file"),
    "BRAT span runs over a line break": (
        _brat_case({"x.txt": "abc\ndef\n", "x.ann": "T1\tPERSON 2 5\tc\nd\n"},
                   "--region", "Moldavia"),
        "error: x.ann: line 1: surface 'c' does not match text slice 'c\\nd'"),
    "BRAT span on a blank line": (
        _brat_case({"x.txt": "Ion vine\n \nla Iasi\n",
                    "x.ann": "T1\tPERSON 0 3\tIon\nT2\tDATE 9 10\t \n"},
                   "--region", "Moldavia"),
        "error: x.ann: span [9, 10) ' ' covers no token"),
    "BRAT annotation line has two fields": (
        _brat_case({"moldavia/a.txt": "Ion vine.\n", "moldavia/a.ann": "T1\tPERSON 0 3\tIon\n",
                    "moldavia/b.txt": "Ion pleca.\n", "moldavia/b.ann": "T1\tPERSON\n"}),
        "error: moldavia/b.ann: line 1: expected 'ID<TAB>LABEL START END<TAB>SURFACE', "
        "got 2 fields"),
    "BRAT CRLF text, offsets skip each CR": (
        _crlf_sample(offsets_count_cr=False),
        "error: sample.ann: line 3: surface '1884' does not match text slice ' 188'; "
        r"offsets count the .txt as stored, each \r\n as two characters"),
    "BRAT directory holds no pair": (
        _brat_case({"moldavia/notes.md": "Ion vine.\n"}), "no .txt/.ann pairs for "),
    "BRAT annotation id is empty": (
        _brat_case({"x.txt": "Ion vine.\n", "x.ann": "T1\tPERSON 0 3\tIon\n\tDATE 4 8\tvine\n"},
                   "--region", "Moldavia"),
        "error: x.ann: line 2: empty annotation id"),
    "BRAT span descriptor has two fields": (
        _brat_case({"x.txt": "Ion vine.\n", "x.ann": "T1\tPERSON 0\tIon\n"}, "--region", "Moldavia"),
        "error: x.ann: line 1: malformed span descriptor 'PERSON 0'"),
    "BRAT span offset is not an integer": (
        _brat_case({"x.txt": "Ion vine.\n", "x.ann": "T1\tPERSON 0 3.0\tIon\n"},
                   "--region", "Moldavia"),
        "error: x.ann: line 1: non-integer offsets in 'PERSON 0 3.0'"),
    "BRAT spans nest": (
        _brat_case({"x.txt": "Ion Pop vine.\n",
                    "x.ann": "T1\tPERSON 0 7\tIon Pop\nT2\tDATE 4 7\tPop\n"},
                   "--region", "Moldavia"),
        "error: x.ann: aligned spans violate the no-nesting rule: nested spans, "
        "line 1 PERSON [0, 7) and line 2 DATE [4, 7)"),
    "BRAT region from a directory that names none": (
        _brat_case({"in/x.txt": "Ion vine.\n", "in/x.ann": "T1\tPERSON 0 3\tIon\n"}),
        "error: in/x.ann: unknown region 'in', taken from the name of its directory; "
        "give one with --region"),
    "BRAT --region names no region": (
        _brat_case({"in/x.txt": "Ion vine.\n", "in/x.ann": "T1\tPERSON 0 3\tIon\n"},
                   "--region", "Atlantis"),
        "error: --region: unknown region 'Atlantis'"),
    "BRAT file input has a bad annotation": (
        _brat_case({"x.txt": "Ion vine.\n",
                    "x.ann": "T1\tPERSON 0 3\tIon\nT2\tPLACE 4 8\tvine\n"},
                   "--region", "Moldavia", file="x.txt"),
        "error: x.ann: line 2: unknown entity label 'PLACE'"),
    "corpus is not UTF-8": (_non_utf8_corpus_case, "latin1.jsonl: not UTF-8"),
    "config file is not UTF-8": (_config_case(b'\xff{"train": {}}'), "bad_config.json: not UTF-8"),
    "config file is invalid JSON": (_config_case(b'{"train": '), "bad_config.json: invalid JSON"),
    "config file is not an object": (_config_case([1, 2]), "bad_config.json"),
    "split file is not UTF-8": (_split_file_case(b"\xff{}"), "bad_split.json: not UTF-8"),
    "split file is invalid JSON": (_split_file_case(b"{nope"), "bad_split.json: invalid JSON"),
    "split file is not an object": (_split_file_case(b"5"), "bad_split.json"),
    "split file part is not a list": (
        _split_file_case(b'{"train": 5, "valid": [], "test": []}'), "'train' list"),
    # json.loads raises a plain ValueError for an integer of more than 4300 digits
    "config int too long to convert": (
        _config_case(b'{"train": {"epochs": 1' + b"0" * 5000 + b"}}"),
        "bad_config.json: invalid JSON"),
    "corpus line int too long to convert": (
        _jsonl_case(_RECORD, '{"year": 1' + "0" * 5000 + "}"), "line 2: invalid JSON"),
    "split file int too long to convert": (
        _split_file_case(b'{"train": [1' + b"0" * 5000 + b"]}"), "bad_split.json: invalid JSON"),
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
    if "--out" in argv:
        assert not Path(argv[argv.index("--out") + 1]).exists()


def test_iaa_names_layer_a_before_layer_b_for_an_unknown_tag(tmp_path, capsys):
    # layer B's unknown tag comes first in its file, but layer A is searched first
    layers = {"a.jsonl": [_RECORD, {**_RECORD, "tags": ["B-PERSON", "I-PERSONA"]}],
              "b.jsonl": [{**_RECORD, "tags": ["B-PERSONA", "O"]}, _RECORD]}
    for name, records in layers.items():
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(["iaa", "--input", tmp_path / "a.jsonl", "--input-b", tmp_path / "b.jsonl"]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'a.jsonl'}: d[1]: unknown tag 'I-PERSONA' at position 1\n")


#: The corpus of one sentence, "Ion Pop vine", whose first two tokens are one entity.
_ION_POP = json.dumps({"doc_id": "a", "region": "Moldavia", "tokens": ["Ion", "Pop", "vine"],
                       "tags": ["B-PERSON", "I-PERSON", "O"]}).encode() + b"\n"

#: BRAT input that converts, and the bytes of the ``corpus.jsonl`` it gives.
BRAT_CONVERTED = {
    **{f"BRAT span holds {name}": (
        _brat_case({"moldavia/a.txt": f"Ion{sep}Pop vine\n",
                    "moldavia/a.ann": f"T1\tPERSON 0 7\tIon{sep}Pop\n"}),
        _ION_POP)
       for name, sep in (("U+2028", "\u2028"), ("U+0085", "\x85"), ("U+000C", "\x0c"))},
    "BRAT CRLF text, offsets count each CR": (
        _crlf_sample(offsets_count_cr=True), (DATA / "golden_sample.jsonl").read_bytes()),
}


@pytest.mark.parametrize("case", list(BRAT_CONVERTED), ids=list(BRAT_CONVERTED))
def test_brat_input_converts(case, corpus_file, tmp_path):
    build, expected = BRAT_CONVERTED[case]
    assert run(build(tmp_path, corpus_file)) == 0
    assert (tmp_path / "o" / "corpus.jsonl").read_bytes() == expected


def test_brat_nfd_text_converts_as_its_nfc_form(tmp_path):
    # s and t with a comma below (U+0219, U+021B) and with a cedilla (U+015F,
    # U+0163) stay distinct
    text = "Ia\u0219i \u0219i Bra\u0219ov, \u00een \u0163ara Rom\u00e2neasc\u0103.\n"
    converted = []
    for form in ("NFC", "NFD"):
        form_text = unicodedata.normalize(form, text)
        surfaces = [unicodedata.normalize(form, w) for w in ("Ia\u0219i", "Bra\u0219ov")]
        ann = "".join(f"T{n}\tLOCATION {form_text.index(w)} {form_text.index(w) + len(w)}\t{w}\n"
                      for n, w in enumerate(surfaces, start=1))
        (tmp_path / form).mkdir()
        build = _brat_case({"moldavia/a.txt": form_text, "moldavia/a.ann": ann})
        assert run(build(tmp_path / form, None)) == 0
        converted.append((tmp_path / form / "o" / "corpus.jsonl").read_bytes())
    assert converted[0] == converted[1]
    record = json.loads(converted[0])
    assert record["tokens"] == ["Ia\u0219i", "\u0219i", "Bra\u0219ov", ",", "\u00een", "\u0163ara",
                                "Rom\u00e2neasc\u0103", "."]
    assert record["tags"] == ["B-LOCATION", "O", "B-LOCATION", "O", "O", "O", "O", "O"]


def _split_file(tmp_path, corpus_file):
    """A split file that puts the corpus's last two documents in valid and test."""
    doc_ids = list(dict.fromkeys(json.loads(line)["doc_id"]
                                 for line in corpus_file.read_text().splitlines()))
    path = tmp_path / "split.json"
    path.write_text(json.dumps({"train": doc_ids[:-2], "valid": doc_ids[-2:-1],
                                "test": doc_ids[-1:]}))
    return path


def _small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"tagger": {"vocab_size": 512, "embed_dim": 8, "hidden_dim": 16},
                                "train": {"epochs": 1}}))
    return path


def _json_file(name, check):
    return lambda out, stdout: check(json.loads((out / name).read_text()))


#: A command run with its ``--out`` files, and a check of those files
#: against its standard output.
PUBLISHED = {
    "stats": (lambda tmp, c: ["stats", "--input", c], ["stats.json"],
              _json_file("stats.json", lambda payload: payload["sentences"] == 80)),
    "validate": (lambda tmp, c: ["validate", "--input", c], ["violations.json"],
                 _json_file("violations.json", lambda payload: payload == [])),
    "iaa": (lambda tmp, c: ["iaa", "--input", c, "--input-b", c], ["iaa.json"],
            _json_file("iaa.json", lambda payload: payload["overall"]["kappa"] == 1.0)),
    "tfidf": (lambda tmp, c: ["tfidf", "--input", c, "--k", 3], ["tfidf.tsv"],
              lambda out, stdout: (out / "tfidf.tsv").read_text() == stdout),
    "split with a split file": (
        lambda tmp, c: ["split", "--input", c, "--split-file", _split_file(tmp, c)],
        ["train.jsonl", "valid.jsonl", "test.jsonl"],
        lambda out, stdout: json.loads(stdout) == {
            name: len((out / f"{name}.jsonl").read_text().splitlines())
            for name in ("train", "valid", "test")}),
    "train with a split file": (
        lambda tmp, c: ["train", "--input", c, "--split-file", _split_file(tmp, c),
                        "--config", _small_config(tmp), "--seed", 1],
        ["history.json", "checkpoint_best.npz", "checkpoint_final.npz", "eval.json", "eval.tsv"],
        lambda out, stdout: (out / "eval.tsv").read_text() in stdout),
}


@pytest.mark.parametrize("case", list(PUBLISHED), ids=list(PUBLISHED))
def test_out_holds_the_files_and_a_digest_of_every_input(case, corpus_file, tmp_path, capsys):
    build, names, check = PUBLISHED[case]
    argv = build(tmp_path, corpus_file)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, "--out", out]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, "manifest.json"])
    assert check(out, capsys.readouterr().out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == argv[0]
    read = [path for flag, path in zip(argv, argv[1:])
            if flag in ("--input", "--input-b", "--checkpoint", "--split-file")]
    assert manifest["inputs"] == [
        {"path": str(p), "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()} for p in read]


def test_unknown_log_level_is_one_error_line(corpus_file, monkeypatch, capsys):
    monkeypatch.setenv("HISTNER_LOG", "verbose")
    assert run(["stats", "--input", corpus_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: HISTNER_LOG: unknown logging level 'verbose'"]


def test_log_level_follows_each_call(corpus_file, monkeypatch, capsys):
    histner_logger = logging.getLogger("histner")
    before = histner_logger.level
    try:
        for name, level in (("warning", logging.WARNING), ("debug", logging.DEBUG)):
            monkeypatch.setenv("HISTNER_LOG", name)
            assert run(["stats", "--input", corpus_file]) == 0
            assert histner_logger.getEffectiveLevel() == level, name
    finally:
        histner_logger.setLevel(before)


# A bounded fuzz of the file boundary: one record of a valid corpus, and the
# split file, are mutated; every command must then succeed or end in one
# error line. Numeric --config sizes are left out: they allocate what they ask.

_FUZZ_RECORDS = [
    {**_RECORD, "doc_id": "d1", "year": 1900},
    {**_RECORD, "doc_id": "d1", "tokens": ["la", "Iasi"], "tags": ["O", "B-LOCATION"],
     "year": 1900},
    {**_RECORD, "doc_id": "d2", "region": "Wallachia", "year": 1880},
    {**_RECORD, "doc_id": "d3", "region": "Transylvania", "tokens": ["anul", "1848"],
     "tags": ["O", "B-DATE"], "year": 1848},
    {**_RECORD, "doc_id": "d4", "region": "Bessarabia", "year": 1920},
]
_FUZZ_SPLIT = {"train": ["d1", "d2"], "valid": ["d3"], "test": ["d4"]}

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4,
)


@st.composite
def _mutated_json(draw, obj: dict) -> str:
    """``obj`` as JSON with one key replaced by any small JSON value or
    dropped, or arbitrary text in its place."""
    action = draw(st.sampled_from(["replace", "drop", "text"]))
    if action == "text":
        return draw(st.text(max_size=20))
    key = draw(st.sampled_from(sorted(obj)))
    obj = {k: v for k, v in obj.items() if k != key}
    if action == "replace":
        obj[key] = draw(_JSON_VALUES)
    return json.dumps(obj)


@st.composite
def _fuzz_inputs(draw):
    lines = [json.dumps(r) for r in _FUZZ_RECORDS]
    index = draw(st.integers(0, len(lines) - 1))
    lines[index] = draw(_mutated_json(_FUZZ_RECORDS[index]))
    split = dict(_FUZZ_SPLIT)
    if draw(st.booleans()):
        part = draw(st.sampled_from(sorted(split)))
        split[part] = [*split[part], draw(_JSON_VALUES)]
        split_text = json.dumps(split)
    else:
        split_text = draw(_mutated_json(split))
    return "\n".join(lines) + "\n", split_text


def _run_captured(argv) -> tuple[int, str]:
    """Run a command; its exit code and everything it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(_fuzz_inputs())
def test_fuzzed_inputs_end_in_success_or_one_error_line(inputs):
    corpus_text, split_text = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        good, bad, split = tmp / "good.jsonl", tmp / "bad.jsonl", tmp / "split.json"
        good.write_text("".join(json.dumps(r) + "\n" for r in _FUZZ_RECORDS), encoding="utf-8")
        bad.write_text(corpus_text, encoding="utf-8")
        split.write_text(split_text, encoding="utf-8")
        for argv in (
            ["stats", "--input", bad],
            ["validate", "--input", bad],
            ["split", "--input", bad, "--out", tmp / "split_bad"],
            ["split", "--input", good, "--split-file", split, "--out", tmp / "split_file"],
            ["iaa", "--input", good, "--input-b", bad],
            ["tfidf", "--input", bad],
        ):
            code, err = _run_captured(argv)
            lines = err.splitlines()
            errors = [line for line in lines if line.startswith("error:")]
            if argv[0] == "validate" and code == 1 and not errors:
                # a corpus that loads but breaks the annotation rules
                assert lines and lines[-1].endswith(" violations"), (argv[0], lines)
            else:
                assert code == 0 or (code == 1 and len(errors) == 1), (argv[0], code, lines)
            assert "Traceback" not in err


# A bounded fuzz of the checkpoint file: up to 8 bytes of a saved checkpoint
# are overwritten. Every number of its config has at most two digits, so no
# overwrite can ask for a large allocation.

@functools.cache
def _fuzz_checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.npz"
        init_params(TaggerConfig(vocab_size=64, embed_dim=8, hidden_dim=16)).save(path)
        return path.read_bytes()


@st.composite
def _damaged_checkpoints(draw) -> bytes:
    data = bytearray(_fuzz_checkpoint())
    at = draw(st.integers(0, len(data) - 1))
    patch = draw(st.binary(min_size=1, max_size=8))
    data[at : at + len(patch)] = patch
    return bytes(data[: len(_fuzz_checkpoint())])


@settings(max_examples=100, deadline=None)
@given(_damaged_checkpoints())
def test_fuzzed_checkpoint_ends_in_success_or_one_error_line(checkpoint):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus, path = tmp / "corpus.jsonl", tmp / "checkpoint.npz"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in _FUZZ_RECORDS), encoding="utf-8")
        path.write_bytes(checkpoint)
        for command in ("eval", "export-embeddings"):
            code, err = _run_captured(
                [command, "--input", corpus, "--checkpoint", path, "--out", tmp / command])
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert code == 0 or (code == 1 and len(errors) == 1), (command, code, err)
            assert "Traceback" not in err


# A bounded fuzz of --config: one value of a valid config is replaced, or an
# unknown key is added. Integers stay within 12 of zero, so no draw can ask
# for a large allocation or a long run. Floats include NaN and infinities.

_FUZZ_CONFIG = {
    "tagger": {"vocab_size": 64, "embed_dim": 4, "hidden_dim": 8, "context_window": 1,
               "seed": 0},
    "train": {"mode": "grad_rev", "epochs": 1, "lr": 0.01, "weight_decay": 0.01,
              "batch_size": 4, "clip_norm": 2.0, "lam": 0.1, "seed": 0},
}

_SMALL_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-12, 12) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4,
)


@st.composite
def _fuzz_configs(draw) -> str:
    config = json.loads(json.dumps(_FUZZ_CONFIG))
    section = draw(st.sampled_from(sorted(config)))
    action = draw(st.sampled_from(["replace", "replace section", "add key"]))
    if action == "replace":
        key = draw(st.sampled_from(sorted(config[section])))
        config[section][key] = draw(_SMALL_JSON_VALUES)
    elif action == "replace section":
        config[section] = draw(_SMALL_JSON_VALUES)
    else:
        target = draw(st.sampled_from([config, config[section]]))
        key = draw(st.text(max_size=8).filter(lambda k: k not in target))
        target[key] = draw(_SMALL_JSON_VALUES)
    return json.dumps(config)


@functools.cache
def _fuzz_train_corpus() -> str:
    """Ten sentences of one region, so the split leaves one for validation."""
    docs = separable_corpus(0, n_sentences=10, vocab_size=64)
    records = [{**json.loads(line), "region": "Moldavia"}
               for line in dumps_jsonl(docs).splitlines()]
    return "".join(json.dumps(r) + "\n" for r in records)


def _nonfinite_paths(value, path=()):
    """The key path to each NaN or infinite float in a parsed JSON value."""
    if isinstance(value, float) and not math.isfinite(value):
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _nonfinite_paths(item, (*path, key))
    elif isinstance(value, list):
        for item in value:
            yield from _nonfinite_paths(item, path)


@settings(max_examples=40, deadline=None)
@given(_fuzz_configs())
def test_fuzzed_config_ends_in_success_or_one_error_line(config_text):
    parsed = json.loads(config_text)
    offending = [(key,) for key in parsed if key not in ("tagger", "train")]
    offending += _nonfinite_paths(parsed)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus, config = tmp / "corpus.jsonl", tmp / "config.json"
        corpus.write_text(_fuzz_train_corpus(), encoding="utf-8")
        config.write_text(config_text, encoding="utf-8")
        code, err = _run_captured(
            ["train", "--input", corpus, "--config", config, "--out", tmp / "o"])
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 0 or (code == 1 and len(errors) == 1), (code, err)
        assert "Traceback" not in err
        if offending:
            # a key is named as written or as its repr, escapes and all
            assert code == 1 and any(repr(key)[1:-1] in errors[0]
                                     for path in offending for key in path), (offending, err)
