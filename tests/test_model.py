import dataclasses
import json
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest

from histner import autodiff as ad
from histner import model as M
from histner import training as T
from histner.corpus import TAG_ALPHABET, Region
from histner.errors import ConfigError, DataError, NonFiniteError, ShapeError

from conftest import make_sentence

SMALL = dict(vocab_size=512, embed_dim=8, hidden_dim=16, context_window=2)


def small_config(seed=0):
    return M.TaggerConfig(seed=seed, **SMALL)


def _rewrite_config(path, **entries):
    """Add ``entries`` to the config recorded in a checkpoint's metadata."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    meta["config"].update(entries)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class TestConfig:
    def test_defaults(self):
        cfg = M.TaggerConfig()
        assert cfg.vocab_size == 2**15
        assert cfg.embed_dim == 64
        assert cfg.hidden_dim == 128
        assert cfg.context_window == 2
        params = M.init_params(small_config())
        assert params.ner_head["w"].shape == (SMALL["hidden_dim"], 11)
        assert params.domain_head["w"].shape == (SMALL["hidden_dim"], 4)

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            M.TaggerConfig(embed_dim=0).validate()

    def test_tag_count_pinned(self, tmp_path):
        path = tmp_path / "model.npz"
        M.init_params(small_config()).save(path)
        _rewrite_config(path, n_tags=9, n_domains=4)
        with pytest.raises(DataError, match="model.npz.*n_tags"):
            M.TaggerParams.load(path)

    @pytest.mark.parametrize("kwargs", [
        dict(vocab_size="512"), dict(embed_dim=8.0), dict(hidden_dim=True), dict(seed=None),
    ])
    def test_wrong_type_names_the_field(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            M.TaggerConfig(**kwargs).validate()

    def test_numpy_integers_accepted(self):
        M.TaggerConfig(seed=np.int64(3), vocab_size=np.int32(64)).validate()


class TestInitParams:
    def test_deterministic_per_seed(self):
        a, b = M.init_params(small_config(7)), M.init_params(small_config(7))
        for (ka, va), (kb, vb) in zip(a.items_flat(), b.items_flat()):
            assert ka == kb
            assert np.array_equal(va, vb)

    def test_different_seeds_differ(self):
        a, b = M.init_params(small_config(1)), M.init_params(small_config(2))
        assert not np.array_equal(a.extractor["embed"], b.extractor["embed"])

    def test_biases_zero(self):
        params = M.init_params(small_config())
        assert not params.extractor["b_hidden"].any()
        assert not params.ner_head["b"].any()
        assert not params.domain_head["b"].any()

    def test_scale_follows_fan_in(self):
        params = M.init_params(small_config())
        input_dim = 5 * SMALL["embed_dim"]
        assert np.abs(params.extractor["w_hidden"]).max() <= 1 / np.sqrt(input_dim)
        assert np.abs(params.ner_head["w"]).max() <= 1 / np.sqrt(SMALL["hidden_dim"])

    def test_partition_total_and_disjoint(self):
        params = M.init_params(small_config())
        names = [key for key, _ in params.items_flat()]
        assert len(names) == len(set(names))


class TestFeaturize:
    def test_stable(self):
        a = M.featurize(["Ion", "Ion"], 512)
        assert a[0] == a[1]

    def test_case_folding(self):
        ids = M.featurize(["Ion", "ion", "ION"], 512)
        assert len(set(ids.tolist())) == 1

    def test_range(self):
        ids = M.featurize([f"tok{i}" for i in range(200)], 64)
        assert ids.min() >= 0
        assert ids.max() < 64

    def test_known_hash_value(self):
        # FNV-1a of "a" is 0xaf63dc4c8601ec8c
        assert M.featurize(["a"], 2**15)[0] == 0xAF63DC4C8601EC8C % 2**15


class TestWindowMatrix:
    def test_padding_at_boundaries(self):
        ids = np.array([10, 20, 30])
        win = M.window_matrix(ids, window=1, pad_id=99)
        assert win.tolist() == [[99, 10, 20], [10, 20, 30], [20, 30, 99]]

    def test_single_token(self):
        win = M.window_matrix(np.array([5]), window=2, pad_id=0)
        assert win.tolist() == [[0, 0, 5, 0, 0]]

    def test_sentence_shorter_than_window(self):
        win = M.window_matrix(np.array([5, 6]), window=3, pad_id=0)
        assert win.tolist() == [[0, 0, 0, 5, 6, 0, 0], [0, 0, 5, 6, 0, 0, 0]]

    def test_empty(self):
        assert M.window_matrix(np.array([], dtype=np.int64), window=2, pad_id=0).shape == (0, 5)


def windows(params, ids):
    """One sentence's window-id matrix under the config of ``params``."""
    cfg = params.config
    return M.window_matrix(ids, cfg.context_window, cfg.pad_id)


class TestForward:
    def test_output_shapes(self):
        params = M.init_params(small_config())
        ids = M.featurize(["unu", "doi", "trei"], 512)
        graph = M.forward_windows(params, windows(params, ids))
        assert graph.ner_logits.shape == (3, 11)
        assert graph.domain_logits.shape == (3, 4)
        assert graph.features.shape == (3, SMALL["hidden_dim"])

    def test_empty_sentence_rejected(self):
        params = M.init_params(small_config())
        with pytest.raises(DataError):
            M.forward_windows(params, windows(params, np.array([], dtype=np.int64)))

    @pytest.mark.parametrize("shape", [(3, 2 * SMALL["context_window"]), (3,)],
                             ids=["one slot short", "not a matrix"])
    def test_window_shape_rejected(self, shape):
        params = M.init_params(small_config())
        with pytest.raises(ShapeError, match="window matrix has shape"):
            M.forward_windows(params, np.zeros(shape, dtype=np.int64))

    def test_zeroing_domain_head_keeps_ner_logits(self):
        params = M.init_params(small_config())
        ids = M.featurize(["unu", "doi"], 512)
        win = windows(params, ids)
        before = M.forward_windows(params, win).ner_logits.value.copy()
        zeroed = params.copy()
        zeroed.domain_head["w"][...] = 0.0
        zeroed.domain_head["b"][...] = 0.0
        after = M.forward_windows(zeroed, win)
        assert np.array_equal(after.ner_logits.value, before)
        assert not np.array_equal(
            after.domain_logits.value, M.forward_windows(params, win).domain_logits.value
        )

    def test_head_independence_gradients(self):
        # each head's loss has identically zero gradient on the other head
        params = M.init_params(small_config())
        win = windows(params, M.featurize(["unu", "doi", "trei"], 512))
        graph = M.forward_windows(params, win)
        loss_ner = ad.mean(ad.softmax_cross_entropy(graph.ner_logits, np.array([0, 1, 2])))
        ad.backward(loss_ner)
        assert not graph.gradient(("domain_head", "w")).any()
        assert not graph.gradient(("domain_head", "b")).any()

        graph = M.forward_windows(params, win)
        loss_dom = ad.mean(ad.softmax_cross_entropy(graph.domain_logits, np.array([0, 0, 1])))
        ad.backward(loss_dom)
        assert not graph.gradient(("ner_head", "w")).any()
        assert not graph.gradient(("ner_head", "b")).any()


#: Every public inference entry point, run on a list of sentences; each checks
#: the whole table once, ``forward_windows`` only the rows it reads.
ENTRY_POINTS = {
    "predict_tags": lambda params, sentences: M.predict_tags(params, sentences[0].token_texts),
    "predict_corpus": T.predict_corpus,
    "evaluate": T.evaluate,
    "domain_accuracy": T.domain_accuracy,
    "dumps_embeddings": T.dumps_embeddings,
    "fit_domain_probe": lambda params, sentences: T.fit_domain_probe(params, sentences, epochs=1),
}


def _two_sentences():
    return [make_sentence(["unu", "doi"], ["O", "B-DATE"], Region.MOLDAVIA),
            make_sentence(["doi", "unu", "trei"], ["O", "O", "O"], Region.WALLACHIA)]


class TestGatherBoundary:
    """The window rows are gathered from the table outside the graph; each
    entry point checks the whole table before its first forward pass."""

    @pytest.mark.parametrize("bad_id", [-1, SMALL["vocab_size"] + 1])
    def test_id_outside_table_rejected(self, bad_id):
        params = M.init_params(small_config())
        win = M.window_matrix(M.featurize(["unu", "doi"], 512), 2, params.config.pad_id)
        win[1, 3] = bad_id
        with pytest.raises(ShapeError):
            M.forward_windows(params, win)

    def test_pad_id_accepted(self):
        params = M.init_params(small_config())
        win = np.full((1, 5), params.config.pad_id)
        assert M.forward_windows(params, win).features.shape == (1, SMALL["hidden_dim"])

    def test_nan_in_unread_row_rejected(self):
        sentences = _two_sentences()
        params = M.init_params(small_config())
        ids = M.featurize(["unu", "doi", "trei"], 512)
        unread = next(r for r in range(512) if r not in set(ids.tolist()))
        params.extractor["embed"][unread, 0] = np.nan
        for run in ENTRY_POINTS.values():
            with pytest.raises(NonFiniteError, match="embedding table"):
                run(params, sentences)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, -1])
    def test_non_finite_at_either_end_of_the_table_rejected(self, value, at):
        # row 0 is read by no window of these sentences; the padding row (the last) is
        sentences = _two_sentences()
        params = M.init_params(small_config())
        assert 0 not in M.featurize(["unu", "doi", "trei"], 512)
        params.extractor["embed"].flat[at] = value
        for run in ENTRY_POINTS.values():
            with pytest.raises(NonFiniteError, match="embedding table"):
                run(params, sentences)

    def test_huge_finite_table_accepted_without_warning(self):
        # the squares of 1e200 overflow; every element is still finite
        params = M.init_params(small_config())
        table = params.extractor["embed"]
        table[...] = np.where(np.random.default_rng(0).random(table.shape) < 0.5, -1e200, 1e200)
        win = M.window_matrix(M.featurize(["unu", "doi"], 512), 2, params.config.pad_id)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = M.forward_windows(params, win)
        assert np.isfinite(graph.ner_logits.value).all()

    def test_huge_finite_table_accepted_without_warning_at_every_entry_point(self):
        params = M.init_params(small_config())
        table = params.extractor["embed"]
        table[...] = np.where(np.random.default_rng(0).random(table.shape) < 0.5, -1e200, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in ENTRY_POINTS.values():
                run(params, _two_sentences())


class TestRowSparse:
    @pytest.mark.parametrize("n_rows", [4097, 32769])
    @pytest.mark.parametrize("bound_over_norm", [
        1.01,          # below the margin: the rough norm decides, no clip
        1 + 1e-7,      # inside the margin, at or under the bound: no clip
        1 - 1e-7,      # inside the margin, over the bound: clips
        0.5,           # above the bound: clips
    ])
    def test_clip_gradients_scales_as_the_dense_reference(self, n_rows, bound_over_norm):
        # the reference densifies every gradient and scales all of them by
        # max_norm / sqrt(sum((g * g).sum())) when that norm exceeds max_norm
        rng = np.random.default_rng(n_rows)
        for _ in range(5):
            rows = rng.choice(n_rows, size=int(rng.integers(1, 150)), replace=False)
            rows = np.unique(np.concatenate([rows, [0, n_rows - 1]]))
            values = rng.normal(size=(len(rows), 64)) * 10.0 ** rng.integers(-6, 3)
            grads = {M.EMBED: M.RowSparse(rows, values, n_rows),
                     ("extractor", "w_hidden"): rng.normal(size=(320, 16)),
                     ("ner_head", "b"): rng.normal(size=11)}
            dense = {key: g.dense() if isinstance(g, M.RowSparse) else g.copy()
                     for key, g in grads.items()}
            norm = float(np.sqrt(sum(float((d * d).sum()) for d in dense.values())))
            max_norm = norm * bound_over_norm
            out = T.clip_gradients(grads, max_norm)
            for key, d in dense.items():
                given = grads[key].dense() if key == M.EMBED else grads[key]
                assert np.array_equal(given, d), key  # the caller's gradients are untouched
                clipped = out[key].dense() if key == M.EMBED else out[key]
                expected = d * (max_norm / norm) if norm > max_norm else d
                assert np.array_equal(clipped, expected), key
            assert (out is not grads) == (norm > max_norm)

    def test_empty(self):
        grad = M.RowSparse(np.zeros(0, dtype=np.int64), np.zeros((0, 4)), 10)
        assert not grad.dense().any()


def _scatter_2d(graph):
    """The table gradient as one 2-D ``np.add.at`` over whole slot rows."""
    n, slots = graph.win_ids.shape
    ids = graph.win_ids[:, ::-1].T.ravel()
    per_id = graph.inputs.grad.reshape(n, slots, -1)[:, ::-1].transpose(1, 0, 2).reshape(n * slots, -1)
    rows, row_of_id = np.unique(ids, return_inverse=True)
    values = np.zeros((len(rows), per_id.shape[1]))
    np.add.at(values, row_of_id, per_id)
    return rows, values


class TestEmbedGradient:
    @pytest.mark.parametrize("kind", ["pad-heavy", "hot-ids", "all-distinct"])
    def test_flat_scatter_equals_2d_scatter_bitwise(self, kind):
        params = M.init_params(small_config())
        pad, slots = params.config.pad_id, 2 * SMALL["context_window"] + 1
        rng = np.random.default_rng(len(kind))
        for _ in range(10):
            if kind == "pad-heavy":
                win = np.where(rng.random((60, slots)) < 0.6, pad, rng.integers(0, 512, (60, slots)))
                assert (win == pad).sum() >= 100
            elif kind == "hot-ids":
                win = rng.choice(rng.integers(0, 512, 4), size=(60, slots))
            else:
                win = rng.permutation(512)[: 100].reshape(20, slots)
            graph = M.forward_windows(params, win)
            grad = rng.normal(size=graph.inputs.shape) * 10.0 ** rng.integers(-8, 3)
            grad[rng.random(grad.shape) < 0.2] = 0.0
            grad[rng.random(grad.shape) < 0.2] = -0.0
            graph.inputs.grad = grad
            got = graph.embed_gradient()
            rows, values = _scatter_2d(graph)
            assert np.array_equal(got.rows, rows)
            assert got.values.shape == values.shape
            assert got.values.tobytes() == values.tobytes()


class TestPredict:
    def test_deterministic(self):
        params = M.init_params(small_config())
        texts = ["unu", "doi", "trei"]
        assert M.predict_tags(params, texts) == M.predict_tags(params, texts)

    def test_argmax_shift_invariance(self):
        params = M.init_params(small_config())
        texts = ["unu", "doi"]
        base = M.predict_tags(params, texts)
        shifted = params.copy()
        shifted.ner_head["b"][...] += 3.5
        assert M.predict_tags(shifted, texts) == base

    def test_untrained_tag_distribution_near_uniform(self):
        # over many random initializations, any fixed tag wins the argmax
        # for roughly 1/11 of tokens
        rng = np.random.default_rng(0)
        hits = total = 0
        for seed in range(30):
            params = M.init_params(small_config(seed))
            texts = [f"t{rng.integers(10_000)}" for _ in range(200)]
            ids = M.featurize(texts, 512)
            logits = M.forward_windows(params, windows(params, ids)).ner_logits.value
            tag_ids = np.argmax(logits, axis=1)
            hits += int((tag_ids == 0).sum())
            total += len(tag_ids)
        assert abs(hits / total - 1 / 11) < 0.03


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = M.init_params(small_config(3))
        path = tmp_path / "model.npz"
        params.save(path)
        loaded = M.TaggerParams.load(path)
        assert loaded.config == params.config
        for (ka, va), (kb, vb) in zip(params.items_flat(), loaded.items_flat()):
            assert ka == kb
            assert np.array_equal(va, vb)

    def test_entries_are_savez_bytes(self, tmp_path):
        params = M.init_params(small_config(3))
        params.save(tmp_path / "model.npz")
        meta = {"version": M.CHECKPOINT_VERSION, "config": dataclasses.asdict(params.config)}
        np.savez(tmp_path / "savez.npz",
                 __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **{f"{g}.{n}": arr for (g, n), arr in params.items_flat()})
        with zipfile.ZipFile(tmp_path / "model.npz") as got, \
                zipfile.ZipFile(tmp_path / "savez.npz") as want:
            assert got.namelist() == want.namelist()
            for name in want.namelist():
                assert got.read(name) == want.read(name), name

    def test_save_makes_no_copy_of_the_table(self, tmp_path):
        params = M.init_params(M.TaggerConfig())
        table = params.extractor["embed"].nbytes
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            params.save(tmp_path / "model.npz")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < 0.1 * table, (peak - held) / table

    def test_load_holds_one_table(self, tmp_path):
        path = tmp_path / "model.npz"
        M.init_params(M.TaggerConfig()).save(path)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            params = M.TaggerParams.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = params.extractor["embed"].nbytes
        assert peak - held < 1.2 * table, (peak - held) / table

    def test_fortran_ordered_entries_load_c_contiguous(self, tmp_path):
        params = M.init_params(small_config(4))
        meta = {"version": M.CHECKPOINT_VERSION, "config": dataclasses.asdict(params.config)}
        np.savez(tmp_path / "model.npz",
                 __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **{f"{g}.{n}": np.asfortranarray(arr) for (g, n), arr in params.items_flat()})
        loaded = M.TaggerParams.load(tmp_path / "model.npz")
        for (ka, va), (kb, vb) in zip(params.items_flat(), loaded.items_flat()):
            assert ka == kb
            assert vb.flags.c_contiguous and vb.flags.writeable, ka
            assert np.array_equal(va, vb), ka

    def test_shape_mismatch_rejected(self, tmp_path):
        params = M.init_params(small_config(1))
        path = tmp_path / "model.npz"
        params.save(path)
        import numpy as _np
        import json as _json

        with _np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["ner_head.w"] = arrays["ner_head.w"][:, :5]
        with open(path, "wb") as fh:
            _np.savez(fh, **arrays)
        with pytest.raises(DataError):
            M.TaggerParams.load(path)

    def test_fixed_head_sizes_in_metadata_accepted(self, tmp_path):
        # checkpoints written before the head sizes were fixed record them
        params = M.init_params(small_config(2))
        path = tmp_path / "model.npz"
        params.save(path)
        _rewrite_config(path, n_tags=11, n_domains=4)
        loaded = M.TaggerParams.load(path)
        assert loaded.config == params.config
        for (_, a), (_, b) in zip(params.items_flat(), loaded.items_flat()):
            assert np.array_equal(a, b)

    def test_other_domain_count_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        M.init_params(small_config()).save(path)
        _rewrite_config(path, n_domains=2)
        with pytest.raises(DataError, match="model.npz.*n_domains"):
            M.TaggerParams.load(path)

    def test_invalid_config_value_names_the_file(self, tmp_path):
        path = tmp_path / "model.npz"
        M.init_params(small_config()).save(path)
        _rewrite_config(path, hidden_dim=0)
        with pytest.raises(DataError, match="model.npz.*hidden_dim"):
            M.TaggerParams.load(path)

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(DataError):
            M.TaggerParams.load(path)

    def test_predictions_survive_roundtrip(self, tmp_path):
        params = M.init_params(small_config(5))
        path = tmp_path / "model.npz"
        params.save(path)
        texts = ["alpha", "beta", "gamma"]
        assert M.predict_tags(M.TaggerParams.load(path), texts) == M.predict_tags(params, texts)
