import dataclasses
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from histner import autodiff
from histner import model as M
from histner import training as T
from histner.corpus import (
    TAG_ALPHABET,
    TAG_TO_ID,
    Region,
    Sentence,
    SplitSpec,
    Splits,
    decode_iob,
    iter_sentences,
    split_dataset,
)
from histner.errors import ConfigError, DataError, TagError, TrainingError
from histner.metrics import strict_f1, token_accuracy
from histner.synthetic import (
    SOURCE_DOMAIN,
    TARGET_DOMAIN,
    cross_domain_f1,
    separable_corpus,
    two_domain_corpus,
)

import reference_ops as ad
from conftest import dense_losses, make_sentence

SMALL = dict(vocab_size=512, embed_dim=8, hidden_dim=16, context_window=2)


def small_config(seed=0):
    return M.TaggerConfig(seed=seed, **SMALL)


def random_batch(rng, config, n_sentences=4, max_len=8):
    sentences = []
    for _ in range(n_sentences):
        n = int(rng.integers(2, max_len))
        texts = [f"w{rng.integers(200)}" for _ in range(n)]
        tags = [
            ["O", "B-PERSON", "B-DATE", "I-DATE"][rng.integers(4)] for _ in range(n)
        ]
        tags = _repair(tags)
        region = Region(int(rng.integers(4)))
        sentences.append(make_sentence(texts, tags, region))
    return T.encode_sentences(sentences, config)


def _repair(tags):
    from histner.corpus import decode_iob, encode_iob

    return encode_iob(decode_iob(tags), len(tags))


def _norm_close(a, b, rtol=1e-12):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-30)
    return np.abs(a - b).max() <= rtol * scale


class TestTrainConfig:
    def test_defaults(self):
        cfg = T.TrainConfig()
        assert cfg.epochs == 15
        assert cfg.weight_decay == 0.01
        assert cfg.batch_size == 32
        assert cfg.clip_norm == 2.0
        assert cfg.lam == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [dict(mode="other"), dict(lam=-0.1), dict(clip_norm=0.0), dict(epochs=0), dict(lr=0.0),
         dict(weight_decay=-0.01), dict(batch_size=0), dict(seed=-1), dict(lam=float("nan")),
         dict(lr=float("inf")), dict(clip_norm=np.float64("inf")), dict(weight_decay=10**400)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            T.TrainConfig(**kwargs).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [dict(epochs="2"), dict(epochs=2.0), dict(batch_size=True), dict(lr="1e-3"),
         dict(weight_decay=False), dict(mode=None), dict(seed=1.5)],
    )
    def test_wrong_type_names_the_field(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            T.TrainConfig(**kwargs).validate()

    def test_int_accepted_for_float(self):
        T.TrainConfig(lr=1, weight_decay=0, clip_norm=np.float64(2.0)).validate()


@pytest.mark.parametrize("cls", [M.TaggerConfig, T.TrainConfig, SplitSpec])
def test_bounds_table_names_declared_fields(cls):
    # a key that is no field would be a bound that is never checked
    names = {f.name for f in dataclasses.fields(cls)}
    assert set(cls.BOUNDS) <= names
    assert "BOUNDS" not in names and "BOUNDS" not in vars(cls())


class TestComputeLosses:
    def test_lambda_zero_loss_rev_equals_baseline_bitwise(self):
        rng = np.random.default_rng(0)
        config = small_config()
        params = M.init_params(config)
        batch = random_batch(rng, config)
        base, base_grads = dense_losses(params, batch, "baseline", 0.0)
        rev, rev_grads = dense_losses(params, batch, "loss_rev", 0.0)
        assert rev.l_total == base.l_y
        for key in base_grads:
            if key[0] in ("extractor", "ner_head"):
                assert np.array_equal(base_grads[key], rev_grads[key]), key

    def test_lambda_zero_grad_rev_matches_baseline(self):
        rng = np.random.default_rng(1)
        config = small_config()
        params = M.init_params(config)
        batch = random_batch(rng, config)
        _, base_grads = dense_losses(params, batch, "baseline", 0.0)
        _, gr_grads = dense_losses(params, batch, "grad_rev", 0.0)
        for key in base_grads:
            if key[0] in ("extractor", "ner_head"):
                assert np.array_equal(base_grads[key], gr_grads[key]), key

    def test_baseline_domain_gradients_zero(self):
        rng = np.random.default_rng(2)
        config = small_config()
        params = M.init_params(config)
        batch = random_batch(rng, config)
        _, grads = T.compute_losses(params, batch, "baseline", 0.1)
        assert not grads[("domain_head", "w")].any()
        assert not grads[("domain_head", "b")].any()

    def test_grad_rev_and_loss_rev_share_extractor_gradients(self):
        rng = np.random.default_rng(3)
        config = small_config()
        params = M.init_params(config)
        batch = random_batch(rng, config)
        _, g = dense_losses(params, batch, "grad_rev", 0.1)
        _, l = dense_losses(params, batch, "loss_rev", 0.1)
        for key in g:
            if key[0] in ("extractor", "ner_head"):
                assert _norm_close(g[key], l[key]), key

    def test_domain_head_gradient_scaling(self):
        rng = np.random.default_rng(4)
        config = small_config()
        params = M.init_params(config)
        batch = random_batch(rng, config)
        lam = 0.37
        _, g = T.compute_losses(params, batch, "grad_rev", lam)
        _, l = T.compute_losses(params, batch, "loss_rev", lam)
        for name in ("w", "b"):
            key = ("domain_head", name)
            assert _norm_close(l[key], -lam * g[key])

    def test_domain_head_update_signs_opposite(self):
        rng = np.random.default_rng(5)
        config = small_config()
        params = M.init_params(config)
        batch = random_batch(rng, config)
        _, g = T.compute_losses(params, batch, "grad_rev", 0.1)
        _, l = T.compute_losses(params, batch, "loss_rev", 0.1)
        gw, lw = g[("domain_head", "w")], l[("domain_head", "w")]
        nonzero = gw != 0.0
        assert np.all(np.sign(gw[nonzero]) == -np.sign(lw[nonzero]))

    def test_loss_breakdown_per_mode(self):
        rng = np.random.default_rng(6)
        config = small_config()
        params = M.init_params(config)
        batch = random_batch(rng, config)
        base, _ = T.compute_losses(params, batch, "baseline", 0.1)
        assert base.l_total == base.l_y
        grad, _ = T.compute_losses(params, batch, "grad_rev", 0.1)
        assert grad.l_total == pytest.approx(grad.l_y + grad.l_d, abs=1e-12)
        rev, _ = T.compute_losses(params, batch, "loss_rev", 0.1)
        assert rev.l_total == pytest.approx(rev.l_y - 0.1 * rev.l_d, abs=1e-12)

    def test_empty_batch_rejected(self):
        params = M.init_params(small_config())
        with pytest.raises(DataError):
            T.compute_losses(params, [], "baseline", 0.0)

    def test_unknown_mode_rejected(self):
        config = small_config()
        batch = random_batch(np.random.default_rng(7), config)
        with pytest.raises(ConfigError, match="unknown mode 'adversarial'"):
            T.compute_losses(M.init_params(config), batch, "adversarial", 0.1)

    def test_negative_lambda_rejected(self):
        config = small_config()
        batch = random_batch(np.random.default_rng(8), config)
        with pytest.raises(ConfigError, match="lambda must be >= 0"):
            T.compute_losses(M.init_params(config), batch, "loss_rev", -0.1)

    @pytest.mark.parametrize("mode", T.MODES)
    def test_gradients_match_finite_differences(self, mode):
        # criterion 2's check, at its 1e-4, on the path train() runs: the
        # gather outside the graph and the row-sparse table gradient. Each
        # group is checked against the scalar its mode's routing differentiates.
        lam, eps = 0.1, 1e-5
        rng = np.random.default_rng(11)
        config = small_config(seed=2)
        params = M.init_params(config)
        batch = random_batch(rng, config)
        _, grads = dense_losses(params, batch, mode, lam)

        def routed(key):
            losses, _ = T.compute_losses(params, batch, mode, lam)
            if mode == "baseline" or (mode == "grad_rev" and key[0] == "ner_head"):
                return losses.l_y
            if mode == "grad_rev" and key[0] == "domain_head":
                return losses.l_d
            return losses.l_y - lam * losses.l_d

        width = config.embed_dim
        read = np.unique(np.concatenate([s.windows for s in batch]))
        unread = np.setdiff1d(np.arange(config.vocab_size + 1), read)
        coords = []
        for key, arr in params.items_flat():
            if key == M.EMBED:
                rows = [*rng.choice(read, min(8, len(read)), replace=False),
                        *rng.choice(unread, 8, replace=False)]
                coords += [(key, int(r) * width + int(rng.integers(width))) for r in rows]
            else:
                coords += [(key, int(j)) for j in rng.choice(arr.size, min(8, arr.size),
                                                             replace=False)]
        worst = 0.0
        for key, j in coords:
            arr = params.groups()[key[0]][key[1]]
            saved = arr.flat[j]
            arr.flat[j] = saved + eps
            f_plus = routed(key)
            arr.flat[j] = saved - eps
            f_minus = routed(key)
            arr.flat[j] = saved
            fd = (f_plus - f_minus) / (2 * eps)
            auto = grads[key].flat[j]
            if key == M.EMBED and j // width in unread:
                assert auto == 0.0 and fd == 0.0, j // width
            worst = max(worst, abs(auto - fd) / max(abs(auto), abs(fd), 1e-8))
        assert worst < 1e-4


class TestClipGradients:
    def _grads(self, values):
        return {("extractor", "w"): np.asarray(values, dtype=np.float64)}

    def test_below_threshold_unchanged(self):
        grads = self._grads([0.6, 0.8])
        clipped = T.clip_gradients(grads, 2.0)
        assert np.array_equal(clipped[("extractor", "w")], grads[("extractor", "w")])

    def test_above_threshold_scaled(self):
        grads = self._grads([0.0, 4.0])
        clipped = T.clip_gradients(grads, 2.0)
        assert np.allclose(clipped[("extractor", "w")], [0.0, 2.0], atol=1e-15)

    def test_post_clip_norm(self):
        rng = np.random.default_rng(0)
        grads = {
            ("extractor", "a"): rng.normal(size=(5, 5)),
            ("ner_head", "b"): rng.normal(size=7),
        }
        clipped = T.clip_gradients(grads, 0.5)
        assert T.global_grad_norm(clipped) == pytest.approx(0.5, abs=1e-12)

    def test_direction_preserved(self):
        rng = np.random.default_rng(1)
        grads = {("extractor", "a"): rng.normal(size=20) * 10}
        clipped = T.clip_gradients(grads, 1.0)
        a = grads[("extractor", "a")]
        b = clipped[("extractor", "a")]
        cosine = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_exact_norm_taken_only_near_the_bound(self, monkeypatch):
        calls = []
        exact = T.global_grad_norm
        monkeypatch.setattr(T, "global_grad_norm", lambda g: calls.append(1) or exact(g))
        # a global norm of 0.5
        table = M.RowSparse(np.array([1, 4]), np.array([[0.3, 0.0], [0.0, 0.4]]), 6)
        for max_norm, exact_taken, clipped in ((5.0, False, False),
                                               (0.5 * (1 + 1e-7), True, False),
                                               (0.5 * (1 - 1e-7), True, True)):
            calls.clear()
            grads = {M.EMBED: table, ("ner_head", "b"): np.zeros(3)}
            out = T.clip_gradients(grads, max_norm)
            assert calls == ([1] if exact_taken else []), max_norm
            assert (out is not grads) == clipped, max_norm


class TestAdam:
    def _single(self, value):
        params = M.init_params(small_config())
        key = ("ner_head", "b")
        params.ner_head["b"] = np.array([value])
        state = T.AdamState(m={key: np.zeros(1)}, v={key: np.zeros(1)})
        return params, key, state

    def test_zero_grad_zero_decay_no_change(self):
        params, key, state = self._single(1.5)
        T.adam_step(params, {key: np.zeros(1)}, state, lr=0.1)
        assert params.ner_head["b"][0] == 1.5
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        for g in (0.5, -2.0, 7.3):
            params, key, state = self._single(0.0)
            T.adam_step(params, {key: np.array([g])}, state, lr=1e-3)
            assert params.ner_head["b"][0] == pytest.approx(-1e-3 * np.sign(g), abs=1e-6)

    def test_untouched_rows_only_decay(self):
        params = M.init_params(small_config())
        held = np.array([3, 17, 40, 512])
        state = T.AdamState(rows={M.EMBED: held})
        table = params.extractor["embed"]
        before = table.copy()
        rows = np.array([3, 17, 512])
        grad = M.RowSparse(rows, np.ones((3, SMALL["embed_dim"])), len(table))
        T.adam_step(params, {M.EMBED: grad}, state, lr=0.1, weight_decay=0.01)
        untouched = np.setdiff1d(np.arange(len(table)), rows)
        decayed = before - 0.1 * 0.01 * before
        assert np.array_equal(table[untouched], decayed[untouched])
        assert not np.array_equal(table[rows], decayed[rows])
        assert state.rows[M.EMBED] is held
        assert state.m[M.EMBED].shape == state.v[M.EMBED].shape == (4, SMALL["embed_dim"])
        assert not state.m[M.EMBED][2].any() and not state.v[M.EMBED][2].any()

    @pytest.mark.parametrize("grad", [
        np.ones((SMALL["vocab_size"] + 1, SMALL["embed_dim"])),
        M.RowSparse(np.array([3, 4]), np.ones((2, SMALL["embed_dim"])), SMALL["vocab_size"] + 1),
        M.RowSparse(np.array([600]), np.ones((1, SMALL["embed_dim"])), SMALL["vocab_size"] + 1),
    ], ids=["dense", "row-between-held-rows", "row-past-held-rows"])
    def test_gradient_outside_held_rows_rejected(self, grad):
        params = M.init_params(small_config())
        state = T.AdamState(rows={M.EMBED: np.array([3, 17, 512])})
        before = params.extractor["embed"].copy()
        with pytest.raises(DataError, match=r"gradient of .*embed.* outside its 3 held rows"):
            T.adam_step(params, {M.EMBED: grad}, state, lr=0.1, weight_decay=0.01)
        assert np.array_equal(params.extractor["embed"], before)
        assert M.EMBED not in state.m

    @pytest.mark.parametrize("weight_decay", [0.01, 0.0])
    def test_huge_finite_table_passes_the_decay_check(self, weight_decay):
        # the squares of 1e200 overflow each block's sum; every element is still finite
        params = M.init_params(small_config())
        table = params.extractor["embed"]
        table[...] = np.where(np.random.default_rng(0).random(table.shape) < 0.5, -1e200, 1e200)
        grad = M.RowSparse(np.array([3, 17]), np.ones((2, SMALL["embed_dim"])), len(table))
        T.adam_step(params, {M.EMBED: grad}, T.AdamState(), lr=0.1, weight_decay=weight_decay)
        assert np.isfinite(table).all()

    def test_gradient_shape_mismatch_rejected(self):
        params, key, state = self._single(1.0)
        with pytest.raises(DataError, match=r"gradient shape \(2,\) != param shape \(1,\)"):
            T.adam_step(params, {key: np.zeros(2)}, state, lr=0.1)
        assert params.ner_head["b"][0] == 1.0

    def test_decoupled_decay_only(self):
        params, key, state = self._single(1.0)
        T.adam_step(params, {key: np.zeros(1)}, state, lr=0.1, weight_decay=0.01)
        assert params.ner_head["b"][0] == pytest.approx(0.999, abs=1e-15)
        T.adam_step(params, {key: np.zeros(1)}, state, lr=0.1, weight_decay=0.01)
        assert params.ner_head["b"][0] == pytest.approx(0.999**2, abs=1e-15)


def _split_sentences(corpus, seed=0):
    splits = split_dataset(corpus, SplitSpec(seed=seed))
    return (
        list(iter_sentences(splits.train)),
        list(iter_sentences(splits.valid)),
        list(iter_sentences(splits.test)),
    )


class TestTrain:
    def test_deterministic_history(self):
        corpus = separable_corpus(0, n_sentences=60, vocab_size=512)
        train_s, valid_s, _ = _split_sentences(corpus)
        cfg = T.TrainConfig(epochs=2, seed=3)
        a = T.train(train_s, valid_s, small_config(3), cfg)
        b = T.train(train_s, valid_s, small_config(3), cfg)
        assert json.dumps(a.history) == json.dumps(b.history)
        for (ka, va), (kb, vb) in zip(
            a.final_params.items_flat(), b.final_params.items_flat()
        ):
            assert np.array_equal(va, vb), ka

    def test_invalid_config_rejected_before_training(self):
        with pytest.raises(ConfigError):
            T.train([], [], small_config(), T.TrainConfig(mode="nope"))

    def test_empty_split_rejected(self):
        with pytest.raises(DataError):
            T.train([], [], small_config(), T.TrainConfig())

    def test_empty_valid_split_rejected(self):
        train_s, _, _ = _split_sentences(separable_corpus(1, n_sentences=40, vocab_size=512))
        with pytest.raises(DataError, match="^empty valid split$"):
            T.train(train_s, [], small_config(), T.TrainConfig(epochs=1))

    def test_baseline_solves_separable_corpus(self):
        # unambiguous single-token entities: memorization suffices
        corpus = separable_corpus(0, n_sentences=200)
        train_s, valid_s, _ = _split_sentences(corpus)
        result = T.train(
            train_s, valid_s, M.TaggerConfig(seed=0),
            T.TrainConfig(epochs=15, lr=1e-2, seed=0),
        )
        assert max(h["valid_f1"] for h in result.history) == 1.0

    def test_history_keys(self):
        corpus = separable_corpus(1, n_sentences=40, vocab_size=512)
        train_s, valid_s, _ = _split_sentences(corpus)
        result = T.train(train_s, valid_s, small_config(), T.TrainConfig(epochs=1))
        assert set(result.history[0]) == {
            "epoch", "l_y", "l_d", "l_total", "valid_f1", "valid_acc", "valid_domain_acc",
        }

    def test_best_checkpoint_ties_to_earlier_epoch(self):
        corpus = separable_corpus(2, n_sentences=120, vocab_size=2048)
        train_s, valid_s, _ = _split_sentences(corpus)
        result = T.train(
            train_s, valid_s,
            M.TaggerConfig(seed=0, vocab_size=2048, embed_dim=16, hidden_dim=32),
            T.TrainConfig(epochs=12, seed=0),
        )
        f1s = [h["valid_f1"] for h in result.history]
        first_best = f1s.index(max(f1s))
        assert result.best_epoch == first_best

    # A huge learning rate makes the next forward pass overflow.
    def test_diverged_step_names_epoch_and_batch(self):
        train_s, valid_s, _ = _split_sentences(separable_corpus(1, n_sentences=40, vocab_size=512))
        config = T.TrainConfig(epochs=1, lr=1e300, batch_size=8)
        with pytest.raises(TrainingError, match="epoch 0, batch at 8"):
            T.train(train_s, valid_s, small_config(), config)

    # Training checks the whole table at every step, rows no batch reads included.
    def test_nan_in_unread_row_between_steps_names_epoch_and_batch(self, monkeypatch):
        train_s, valid_s, _ = _split_sentences(separable_corpus(1, n_sentences=40, vocab_size=512))
        read = {int(i) for s in T.encode_sentences(train_s + valid_s, small_config())
                for i in s.windows.ravel()}
        unread = next(r for r in range(512) if r not in read)
        adam_step = T.adam_step

        def spy(params, *args, **kwargs):
            adam_step(params, *args, **kwargs)
            params.extractor["embed"][unread, 0] = np.nan

        monkeypatch.setattr(T, "adam_step", spy)
        config = T.TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(TrainingError, match="epoch 0, batch at 8: .*non-finite"):
            T.train(train_s, valid_s, small_config(), config)

    def test_nan_in_unread_row_between_steps_without_weight_decay(self, monkeypatch):
        # with no decay to make, the decay pass still checks the table once per step
        train_s, valid_s, _ = _split_sentences(separable_corpus(1, n_sentences=40, vocab_size=512))
        read = {int(i) for s in T.encode_sentences(train_s + valid_s, small_config())
                for i in s.windows.ravel()}
        unread = next(r for r in range(512) if r not in read)
        adam_step = T.adam_step

        def spy(params, *args, **kwargs):
            adam_step(params, *args, **kwargs)
            params.extractor["embed"][unread, 0] = np.nan

        monkeypatch.setattr(T, "adam_step", spy)
        config = T.TrainConfig(epochs=1, batch_size=8, weight_decay=0.0)
        with pytest.raises(TrainingError, match="epoch 0, batch at 8: embedding table has non-finite"):
            T.train(train_s, valid_s, small_config(), config)

    def test_diverged_validation_names_epoch(self):
        train_s, valid_s, _ = _split_sentences(separable_corpus(1, n_sentences=40, vocab_size=512))
        config = T.TrainConfig(epochs=1, lr=1e300, batch_size=len(train_s))
        with pytest.raises(TrainingError, match="epoch 0, validation"):
            T.train(train_s, valid_s, small_config(), config)


class TestPredictEncoded:
    def test_batch_permutation_permutes_outputs(self):
        rng = np.random.default_rng(9)
        config = small_config()
        params = M.init_params(config)
        batch = random_batch(rng, config, n_sentences=6)
        preds = T.predict_encoded(params, batch)
        order = [3, 1, 5, 0, 4, 2]
        permuted = T.predict_encoded(params, [batch[i] for i in order])
        for out_pos, src_pos in enumerate(order):
            assert np.array_equal(permuted[out_pos], preds[src_pos])


def _greedy_packs(lengths, budget):
    """Sentence lengths packed whole and in order: a sentence opens a new pack
    when the current one cannot take it within ``budget`` rows."""
    packs = []
    for n in lengths:
        if packs and sum(packs[-1]) + n <= budget:
            packs[-1].append(n)
        else:
            packs.append([n])
    return packs


def _sentences_of_lengths(lengths):
    return [make_sentence([f"w{(i * 7 + k) % 300}" for k in range(n)], ["O"] * n,
                          Region(i % len(Region)))
            for i, n in enumerate(lengths)]


class TestRowPacking:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 3 * T._CHUNK_ROWS), min_size=1, max_size=6))
    @example([T._CHUNK_ROWS - 1, 1, 1])
    @example([T._CHUNK_ROWS, T._CHUNK_ROWS + 1, 3 * T._CHUNK_ROWS, 2])
    @example([3] * 400)
    def test_whole_sentences_in_order_within_the_row_budget(self, lengths):
        sentences = _sentences_of_lengths(lengths)
        params = M.init_params(small_config())
        if 0 in lengths:
            with pytest.raises(DataError, match=f"^sentence {lengths.index(0)} has no tokens$"):
                T.predict_corpus(params, sentences)
            return
        chunks = []
        real_forward = M.forward_windows

        def forward_spy(params, windows, **kwargs):
            chunks.append(windows)
            return real_forward(params, windows, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(M, "forward_windows", forward_spy)
            predicted = T.predict_corpus(params, sentences)
        encoded = T.encode_sentences(sentences, params.config)
        # every sentence once, in order: the chunks concatenate to the corpus
        assert np.array_equal(np.concatenate(chunks), np.concatenate([s.windows for s in encoded]))
        ends = np.cumsum(lengths).tolist()
        chunk_ends = np.cumsum([len(c) for c in chunks]).tolist()
        assert set(chunk_ends) <= set(ends)
        for lo, hi in zip([0] + chunk_ends, chunk_ends):
            n_sentences = sum(lo < end <= hi for end in ends)
            assert hi - lo <= T._CHUNK_ROWS or n_sentences == 1
        assert [len(c) for c in chunks] == [sum(p) for p in _greedy_packs(lengths, T._CHUNK_ROWS)]
        assert predicted == [M.predict_tags(params, s.token_texts) for s in sentences]


    @pytest.mark.parametrize("run", ["predict_corpus", "domain_accuracy", "export_embeddings",
                                     "fit_domain_probe"])
    def test_one_graph_alive_at_a_time(self, run, monkeypatch, tmp_path):
        # the row budget bounds memory only if a chunk's graph is freed
        # before the next one is built
        sentences = _sentences_of_lengths([200] * 8)
        graphs, real_forward = [], M.forward_windows

        def forward_spy(params, windows, **kwargs):
            assert all(ref() is None for ref in graphs)
            graph = real_forward(params, windows, **kwargs)
            graphs.append(weakref.ref(graph))
            return graph

        monkeypatch.setattr(M, "forward_windows", forward_spy)
        args = (tmp_path / "e.tsv",) if run == "export_embeddings" else ()
        getattr(T, run)(M.init_params(small_config()), sentences, *args)
        assert len(graphs) == len(_greedy_packs([200] * 8, T._CHUNK_ROWS)) > 1


class TestTableScans:
    """The whole table is read for its finiteness once per inference call and
    once per training step, by ``autodiff.all_finite`` or by the decay pass."""

    @staticmethod
    def _spy(monkeypatch, shape):
        scans, real_all_finite, real_decay = [], autodiff.all_finite, T._decay

        def all_finite(arr):
            if arr.shape == shape:
                scans.append("all_finite")
            return real_all_finite(arr)

        def decay(arr, factor):
            if arr.shape == shape:
                scans.append("decay")
            return real_decay(arr, factor)

        monkeypatch.setattr(autodiff, "all_finite", all_finite)
        monkeypatch.setattr(T, "_decay", decay)
        return scans

    @pytest.mark.parametrize("run", ["predict_corpus", "evaluate", "domain_accuracy",
                                     "dumps_embeddings", "fit_domain_probe"])
    def test_one_scan_per_inference_call(self, run, monkeypatch):
        sentences = _sentences_of_lengths([200] * 8)
        params = M.init_params(small_config())
        chunks, real_forward = [], M.forward_windows

        def forward_spy(params, windows, **kwargs):
            chunks.append(len(windows))
            return real_forward(params, windows, **kwargs)

        scans = self._spy(monkeypatch, params.extractor["embed"].shape)
        monkeypatch.setattr(M, "forward_windows", forward_spy)
        getattr(T, run)(params, sentences)
        assert len(chunks) == 4
        assert scans == ["all_finite"]

    @pytest.mark.parametrize("weight_decay", [0.05, 0.0])
    def test_one_scan_per_training_step(self, weight_decay, monkeypatch):
        train_s, valid_s, _ = _split_sentences(separable_corpus(1, n_sentences=40, vocab_size=512))
        config = T.TrainConfig(epochs=2, batch_size=8, weight_decay=weight_decay)
        scans = self._spy(monkeypatch, (SMALL["vocab_size"] + 1, SMALL["embed_dim"]))
        T.train(train_s, valid_s, small_config(), config)
        steps = -(-len(train_s) // config.batch_size)
        # each epoch: one decay pass per step, then one check for the validation pass
        assert scans == (["decay"] * steps + ["all_finite"]) * config.epochs


class TestEmptySentence:
    """An empty sentence is an error wherever it sits in the list."""

    @pytest.mark.parametrize("where", ["after a sentence", "64 before a sentence"])
    @pytest.mark.parametrize("run", ["evaluate", "domain_accuracy", "predict_corpus",
                                     "export_embeddings"])
    def test_every_inference_entry_raises_the_same_error(self, where, run, tmp_path):
        sent = make_sentence(["unu", "doi"], ["O", "O"], Region.MOLDAVIA)
        empty = make_sentence([], [], Region.MOLDAVIA)
        sentences, index = ([sent, empty], 1) if where == "after a sentence" else ([empty] * 64 + [sent], 0)
        params = M.init_params(small_config())
        args = (tmp_path / "e.tsv",) if run == "export_embeddings" else ()
        with pytest.raises(DataError, match=f"^sentence {index} has no tokens$"):
            getattr(T, run)(params, sentences, *args)

    @pytest.mark.parametrize("run, message", [("domain_accuracy", "empty subset"),
                                              ("fit_domain_probe", "empty probe training set")])
    def test_no_sentences_rejected(self, run, message):
        with pytest.raises(DataError, match=message):
            getattr(T, run)(M.init_params(small_config()), [])


class TestIterableInput:
    """Every sentence entry point reads its sentences once, so the generator
    ``iter_sentences`` gives exactly what the list of its sentences gives."""

    @staticmethod
    def _call(run, splits, read):
        """``run`` on the sentences of ``splits`` as ``read`` gives them; arrays as bytes."""
        if run == "train":
            result = T.train(read(splits.train), read(splits.valid), small_config(),
                             T.TrainConfig(epochs=2, batch_size=8))
            return result.history, [a.tobytes() for _, a in result.best_params.items_flat()]
        params = M.init_params(small_config())
        if run == "fit_domain_probe":
            probe = T.fit_domain_probe(params, read(splits.train), epochs=2)
            return [a.tobytes() for _, a in probe.items_flat()]
        return getattr(T, run)(params, read(splits.train))

    @staticmethod
    def _outcome(run, splits, read):
        try:
            return TestIterableInput._call(run, splits, read)
        except DataError as exc:
            return f"DataError: {exc}"

    @pytest.mark.parametrize("run", ["predict_corpus", "dumps_embeddings", "domain_accuracy",
                                     "evaluate", "fit_domain_probe", "train"])
    def test_generator_gives_the_result_of_the_list(self, run):
        splits = split_dataset(separable_corpus(2, n_sentences=40, vocab_size=512), SplitSpec(seed=0))
        expected = self._call(run, splits, lambda docs: list(iter_sentences(docs)))
        assert expected and self._call(run, splits, iter_sentences) == expected

    @pytest.mark.parametrize("run, expected", [
        ("predict_corpus", []), ("dumps_embeddings", ""),
        ("domain_accuracy", "DataError: empty subset"),
        ("evaluate", "DataError: empty evaluation subset"),
        ("fit_domain_probe", "DataError: empty probe training set"),
        ("train", "DataError: empty train split")])
    def test_empty_generator_is_the_empty_list(self, run, expected):
        splits = Splits(train=[], valid=[], test=[])
        assert self._outcome(run, splits, lambda docs: []) == expected
        assert self._outcome(run, splits, iter_sentences) == expected


class TestEvaluate:
    def test_perfect_predictor_scores_one(self):
        corpus = separable_corpus(0, n_sentences=200)
        train_s, valid_s, test_s = _split_sentences(corpus)
        result = T.train(
            train_s, valid_s, M.TaggerConfig(seed=0),
            T.TrainConfig(epochs=15, lr=1e-2, seed=0),
        )
        report = T.evaluate(result.best_params, valid_s)
        assert report.overall_f1.f1 == 1.0
        for score in report.per_region.values():
            assert score.f1.f1 == 1.0

    def test_all_o_predictor(self):
        sents = [
            make_sentence(["a", "b", "c", "d"], ["B-DATE", "O", "O", "O"], Region.MOLDAVIA)
        ]
        params = M.init_params(small_config())
        zeroed = params.copy()
        zeroed.ner_head["w"][...] = 0.0
        zeroed.ner_head["b"][...] = -1e9
        zeroed.ner_head["b"][0] = 1e9
        report = T.evaluate(zeroed, sents)
        assert report.overall_f1.f1 == 0.0
        assert report.overall_accuracy == pytest.approx(0.75)

    def test_empty_subset_rejected(self):
        with pytest.raises(DataError):
            T.evaluate(M.init_params(small_config()), [])

    def test_unknown_tag_rejected(self):
        sents = [make_sentence(["a", "b"], ["O", "O"]), make_sentence(["c", "d"], ["B-DATE", "I-DAT"])]
        with pytest.raises(TagError, match="^unknown tag 'I-DAT' at position 1$"):
            T.evaluate(M.init_params(small_config()), sents)

    def test_report_structure(self):
        corpus = separable_corpus(3, n_sentences=80, vocab_size=512)
        train_s, valid_s, _ = _split_sentences(corpus)
        report = T.evaluate(M.init_params(small_config()), valid_s)
        payload = report.to_json_dict()
        assert set(payload) == {"overall", "per_region", "per_label"}
        text = report.render_text()
        for header in ("Region", "Acc", "F1", "Total"):
            assert header in text

    @given(st.data(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_groups_equal_scoring_each_subset(self, data, seed):
        sentences = []
        for _ in range(data.draw(st.integers(1, 12))):
            n = data.draw(st.integers(1, 8))
            texts = [f"w{data.draw(st.integers(0, 40))}" for _ in range(n)]
            tags = data.draw(st.lists(st.sampled_from(TAG_ALPHABET), min_size=n, max_size=n))
            sentences.append(make_sentence(texts, tags, data.draw(st.sampled_from(list(Region)))))
        params = M.init_params(small_config(seed))
        report = T.evaluate(params, sentences)
        predicted = T.predict_corpus(params, sentences)

        def scores(idx):
            gold = [sentences[i] for i in idx]
            pred = [predicted[i] for i in idx]
            return (token_accuracy([s.tags for s in gold], pred),
                    strict_f1([decode_iob(s.tags) for s in gold], [decode_iob(t) for t in pred]))

        expected = {}
        for region in Region:
            idx = [i for i, s in enumerate(sentences) if s.region == region]
            if idx:
                accuracy, f1 = scores(idx)
                expected[region] = T.RegionScore(accuracy=accuracy, f1=f1.overall)
        assert report.per_region == expected
        accuracy, f1 = scores(range(len(sentences)))
        assert (report.overall_accuracy, report.overall_f1) == (accuracy, f1.overall)
        assert report.per_label == {l.name: p for l, p in f1.per_label.items()}


class TestValidationPass:
    def test_validation_encoded_once_and_forwarded_once_per_epoch(self, monkeypatch):
        sents = list(iter_sentences(separable_corpus(4, n_sentences=200, vocab_size=512)))
        train_s, valid_s = sents[:40], sents[40:190]
        config = T.TrainConfig(epochs=3, batch_size=16, seed=0)
        encodes, forwards = [], []
        real_encode, real_forward = T.encode_sentences, M.forward_windows

        def encode_spy(sentences, tagger_config):
            encodes.append(len(sentences))
            return real_encode(sentences, tagger_config)

        def forward_spy(params, windows, **kwargs):
            forwards.append("step" if kwargs else "validation")
            return real_forward(params, windows, **kwargs)

        monkeypatch.setattr(T, "encode_sentences", encode_spy)
        monkeypatch.setattr(M, "forward_windows", forward_spy)
        result = T.train(train_s, valid_s, small_config(), config)
        assert sorted(encodes) == [len(train_s), len(valid_s)]
        packs = _greedy_packs([len(s) for s in valid_s], T._CHUNK_ROWS)
        assert forwards.count("validation") == config.epochs * len(packs)
        assert forwards.count("step") == config.epochs * -(-len(train_s) // config.batch_size)
        last = result.history[-1]
        report = T.evaluate(result.final_params, valid_s)
        assert (last["valid_f1"], last["valid_acc"]) == (report.overall_f1.f1, report.overall_accuracy)
        assert last["valid_domain_acc"] == T.domain_accuracy(result.final_params, valid_s)


class TestInterRegional:
    def test_structure_and_coupling(self):
        from histner.synthetic import regional_corpus

        splits = regional_corpus(0, coupled=True)
        tcfg = M.TaggerConfig(vocab_size=4096, embed_dim=32, hidden_dim=64, seed=0)
        result = T.inter_regional(splits, tcfg, T.TrainConfig(epochs=6, seed=0))
        assert result.matrix.shape == (4, 4)
        assert [r.name for r in result.regions] == [r.name for r in Region]
        coupled = min(result.matrix[0, 1], result.matrix[1, 0])
        cross = [
            result.matrix[i, j]
            for i in range(4)
            for j in range(4)
            if i != j and {i, j} != {0, 1}
        ]
        assert coupled > max(cross)

    def test_missing_region_rejected(self):
        splits = two_domain_corpus(0)
        tcfg = M.TaggerConfig(vocab_size=4096, seed=0)
        with pytest.raises(DataError) as err:
            T.inter_regional(splits, tcfg, T.TrainConfig(epochs=1))
        assert "Moldavia" in str(err.value) or "Wallachia" in str(err.value)

    def test_region_without_validation_rejected_before_training(self, monkeypatch):
        # without validation sentences a model would pick its epoch on the test part
        from histner.synthetic import RegionalConfig, regional_corpus

        splits = regional_corpus(0, config=RegionalConfig(n_train_per_region=10,
                                                          n_eval_per_region=4))
        without = Splits(splits.train, [d for d in splits.valid if d.region != Region.WALLACHIA],
                         splits.test)

        def fail(*args):
            raise AssertionError("trained before the parts were checked")

        monkeypatch.setattr(T, "train", fail)
        with pytest.raises(DataError, match="region Wallachia has no validation sentences"):
            T.inter_regional(without, M.TaggerConfig(vocab_size=512, seed=0), T.TrainConfig(epochs=1))

    def test_region_without_test_sentences_rejected_before_training(self, monkeypatch):
        from histner.synthetic import RegionalConfig, regional_corpus

        splits = regional_corpus(0, config=RegionalConfig(n_train_per_region=10,
                                                          n_eval_per_region=4))
        without = Splits(splits.train, splits.valid,
                         [d for d in splits.test if d.region != Region.MOLDAVIA])

        def fail(*args):
            raise AssertionError("trained before the parts were checked")

        monkeypatch.setattr(T, "train", fail)
        with pytest.raises(DataError, match="region Moldavia has no evaluation sentences"):
            T.inter_regional(without, M.TaggerConfig(vocab_size=512, seed=0), T.TrainConfig(epochs=1))


class TestExportEmbeddings:
    def test_tsv_shape_and_determinism(self, tmp_path):
        corpus = separable_corpus(4, n_sentences=30, vocab_size=512)
        sents = list(iter_sentences(corpus))
        params = M.init_params(small_config())
        path_a = tmp_path / "a.tsv"
        path_b = tmp_path / "b.tsv"
        T.export_embeddings(params, sents, path_a)
        T.export_embeddings(params, sents, path_b)
        content = path_a.read_text()
        assert content == path_b.read_text()
        lines = content.strip().split("\n")
        assert len(lines) == len(sents)
        cells = lines[0].split("\t")
        assert len(cells) == SMALL["hidden_dim"] + 1
        assert cells[0] in {r.display for r in Region}
        assert all(len(c.split(".")[1]) == 6 for c in cells[1:])

    def test_empty_sentence_rejected(self, tmp_path):
        sents = [make_sentence(["unu"], ["O"], Region.MOLDAVIA),
                 make_sentence([], [], Region.MOLDAVIA)]
        with pytest.raises(DataError):
            T.export_embeddings(M.init_params(small_config()), sents, tmp_path / "e.tsv")

    def test_identical_sentences_identical_rows(self, tmp_path):
        sent = make_sentence(["unu", "doi"], ["O", "O"], Region.MOLDAVIA)
        twin = make_sentence(["unu", "doi"], ["O", "O"], Region.MOLDAVIA)
        params = M.init_params(small_config())
        path = tmp_path / "e.tsv"
        T.export_embeddings(params, [sent, twin], path)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == rows[1]


def _cells(values):
    """``_tsv_cells`` of a (rows, cols) array, as text."""
    return T._tsv_cells(np.asarray(values, dtype=float)).tobytes().replace(b"\0", b"").decode()


#: Values in [0, 1] whose six-decimal rounding is a tie or nearly one: the
#: dyadic ties k/2^j, each of some (m + 0.5)/1e6 and its two neighbours, the
#: least subnormal, and 0.9999995, which rounds up to 1.
_TIES = ([k / 2**j for j in range(1, 8) for k in range(2**j + 1)]
         + [float(np.nextafter(t, to)) for m in [*range(0, 10**6, 4999), 999999]
            for t in [(m + 0.5) / 1e6] for to in (0.0, t, 2.0)]
         + [5e-324, 0.9999995])


class TestTsvCells:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1.0, 1.0))
    @example(0.0078125)
    @example(-0.0078125)
    @example(float(np.nextafter(0.0000005, 1.0)))
    @example(float(np.nextafter(0.0000005, 0.0)))
    @example(float(np.nextafter(0.0078125, 1.0)))
    @example(float(np.nextafter(0.7654325, 0.0)))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(1.0)
    @example(-1.0)
    @example(0.9999995)
    def test_one_value_as_percent_writes_it(self, v):
        assert _cells([[v]]) == "%.6f\n" % v

    def test_ties_and_their_neighbours(self):
        values = np.array(_TIES + [-v for v in _TIES]).reshape(-1, 1)
        assert _cells(values) == "".join("%.6f\n" % v for v in values[:, 0])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.data())
    def test_rows_as_percent_writes_them(self, n_rows, n_cols, data):
        values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n_rows * n_cols,
                                    max_size=n_rows * n_cols))
        rows = np.array(values).reshape(n_rows, n_cols)
        assert _cells(rows) == "".join("\t".join("%.6f" % v for v in row) + "\n" for row in rows)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_dumps_embeddings_equals_the_per_row_reference(self, seed):
        from histner.synthetic import regional_corpus

        sentences = list(iter_sentences(regional_corpus(seed).train))
        params = M.init_params(M.TaggerConfig(vocab_size=4096, embed_dim=32, hidden_dim=64, seed=seed))
        assert T.dumps_embeddings(params, sentences) == ad.dumps_embeddings(params, sentences)


class TestDomainProbe:
    def test_probe_touches_only_domain_head(self):
        corpus = separable_corpus(5, n_sentences=40, vocab_size=512)
        sents = list(iter_sentences(corpus))
        params = M.init_params(small_config())
        probe = T.fit_domain_probe(params, sents, epochs=2, seed=0)
        assert np.array_equal(probe.extractor["embed"], params.extractor["embed"])
        assert np.array_equal(probe.ner_head["w"], params.ner_head["w"])
        assert not np.array_equal(probe.domain_head["w"], params.domain_head["w"])

    def test_probe_keeps_moments_for_domain_head_only(self, monkeypatch):
        states = []
        real_adam_step = T.adam_step

        def spy(params, grads, state, lr, weight_decay=0.0):
            states.append(state)
            real_adam_step(params, grads, state, lr, weight_decay)

        monkeypatch.setattr(T, "adam_step", spy)
        sents = list(iter_sentences(separable_corpus(5, n_sentences=40, vocab_size=512)))
        T.fit_domain_probe(M.init_params(small_config()), sents, epochs=1, seed=0)
        domain_keys = {("domain_head", "w"), ("domain_head", "b")}
        assert states and set(states[-1].m) == set(states[-1].v) == domain_keys

    def test_frozen_groups_shared_read_only(self):
        sents = list(iter_sentences(separable_corpus(5, n_sentences=40, vocab_size=512)))
        params = M.init_params(small_config())
        probe = T.fit_domain_probe(params, sents, epochs=1, seed=0)
        for group in ("extractor", "ner_head"):
            for name, arr in getattr(probe, group).items():
                assert np.shares_memory(arr, getattr(params, group)[name]), (group, name)
                assert not arr.flags.writeable, (group, name)
        with pytest.raises(ValueError):
            probe.extractor["embed"][0] += 1.0
        for name, arr in probe.domain_head.items():
            assert not np.shares_memory(arr, params.domain_head[name]), name
            assert arr.flags.writeable, name
        assert all(arr.flags.writeable for _, arr in probe.copy().items_flat())

    @pytest.mark.parametrize("kwargs", [dict(epochs=-1), dict(lr=-0.5), dict(seed=-1),
                                        dict(lr=float("nan")), dict(lr=float("inf"))],
                             ids=["epochs", "lr-negative", "seed", "lr-nan", "lr-inf"])
    def test_invalid_settings_rejected_before_any_work(self, kwargs, monkeypatch):
        def fail(*args):
            raise AssertionError("encoded before the settings were checked")

        monkeypatch.setattr(T, "encode_sentences", fail)
        sents = list(iter_sentences(separable_corpus(5, n_sentences=8, vocab_size=512)))
        with pytest.raises(ConfigError):
            T.fit_domain_probe(M.init_params(small_config()), sents, **kwargs)


def _reference_encode_sentences(sentences, config):
    """The per-sentence loop the one-pass encoding replaced: hash each token,
    check the tags, then build the sentence's windows on their own."""
    encoded = []
    for sent in sentences:
        ids = np.array([M._fnv1a(t.lower().encode("utf-8")) % config.vocab_size
                        for t in sent.token_texts], dtype=np.int64)
        try:
            tag_ids = np.array([TAG_TO_ID[t] for t in sent.tags], dtype=np.int64)
        except KeyError as exc:
            raise TagError(f"unknown tag {exc.args[0]!r} at position "
                           f"{list(sent.tags).index(exc.args[0])}")
        if len(tag_ids) != len(ids):
            raise DataError(f"{len(tag_ids)} tags for {len(ids)} tokens")
        if not len(ids):
            raise DataError(f"sentence {len(encoded)} has no tokens")
        windows = M.window_matrix(ids, config.context_window, config.pad_id)
        encoded.append(T.EncodedSentence(windows, tag_ids, int(sent.region)))
    return encoded


#: Token texts that repeat and differ only by case, so that distinct texts
#: share a hash.
_TEXTS = ["ion", "Ion", "ION", "la", "Iasi", "IASI", "ţară", "Ţară", "1848"]


@st.composite
def _sentence_lists(draw):
    """Up to six sentences of up to five tokens, some of them shorter than
    the window; now and then one has an unknown tag or one tag too many."""
    sentences = []
    for _ in range(draw(st.integers(0, 6))):
        texts = draw(st.lists(st.sampled_from(_TEXTS), max_size=5))
        tags = draw(st.lists(st.sampled_from(TAG_ALPHABET), min_size=len(texts),
                             max_size=len(texts)))
        fault = draw(st.sampled_from([None] * 8 + ["tag", "count"]))
        if fault == "tag":
            tags = [*tags, "B-PERSONA"][-max(1, len(tags)):]
        elif fault == "count":
            tags = [*tags, "O"]
        sentences.append(make_sentence(texts, tags, draw(st.sampled_from(list(Region)))))
    return sentences


class TestEncodeSentences:
    @settings(max_examples=150, deadline=None)
    @given(_sentence_lists(), st.integers(1, 3), st.sampled_from([1, 7, 512]))
    def test_equals_per_sentence_reference(self, sentences, window, vocab_size):
        config = M.TaggerConfig(vocab_size=vocab_size, context_window=window)
        try:
            reference = _reference_encode_sentences(sentences, config)
        except (TagError, DataError) as exc:
            with pytest.raises(type(exc)) as err:
                T.encode_sentences(sentences, config)
            assert str(err.value) == str(exc)
            return
        encoded = T.encode_sentences(sentences, config)
        assert len(encoded) == len(reference)
        for got, want in zip(encoded, reference):
            assert got.windows.shape == want.windows.shape
            assert got.tag_ids.shape == want.tag_ids.shape
            assert np.array_equal(got.windows, want.windows)
            assert np.array_equal(got.tag_ids, want.tag_ids)
            assert got.region_id == want.region_id

    @pytest.mark.parametrize("faults, error", [
        (["count", "tag"], DataError),
        (["tag", "count"], TagError),
        ([None, "tag", "count"], TagError),
    ])
    def test_first_bad_sentence_raises(self, faults, error):
        bad_tags = {None: ["O", "O"], "tag": ["O", "B-PERSONA"], "count": ["O"]}
        sentences = [make_sentence(["unu", "doi"], bad_tags[f]) for f in faults]
        with pytest.raises(error):
            T.encode_sentences(sentences, small_config())


# Per-sentence and full-graph loops the chunked inference path replaced,
# kept as references: the chunked results must equal theirs exactly.

def _reference_domain_accuracy(params, sentences):
    correct = total = 0
    for enc in T.encode_sentences(sentences, params.config):
        pred = np.argmax(M.forward_windows(params, enc.windows).domain_logits.value, axis=1)
        correct += int((pred == enc.region_id).sum())
        total += len(enc)
    return correct / total


def _reference_export_embeddings(params, sentences, path):
    lines = []
    for sent, enc in zip(sentences, T.encode_sentences(sentences, params.config)):
        mean_h = M.forward_windows(params, enc.windows).features.value.mean(axis=0)
        lines.append(sent.region.display + "\t" + "\t".join(f"{v:.6f}" for v in mean_h))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _reference_probe(params, sentences, epochs, lr, batch_size=32, seed=0):
    """The extractor's full forward and backward on every probe batch."""
    probe = params.copy()
    encoded = T.encode_sentences(sentences, probe.config)
    state = T.AdamState()
    rng = np.random.default_rng(seed)
    domain_keys = [("domain_head", "w"), ("domain_head", "b")]
    for _ in range(epochs):
        order = rng.permutation(len(encoded))
        for lo in range(0, len(order), batch_size):
            batch = [encoded[i] for i in order[lo : lo + batch_size]]
            windows = np.concatenate([s.windows for s in batch], axis=0)
            regions = np.concatenate([np.full(len(s), s.region_id) for s in batch])
            graph = M.forward_windows(probe, windows)
            ad.backward(ad.mean(ad.softmax_cross_entropy(graph.domain_logits, regions)))
            grads = {key: graph.gradient(key) for key in domain_keys}
            T.adam_step(probe, grads, state, lr, weight_decay=0.0)
    return probe


@pytest.fixture(scope="module")
def trained_two_domain():
    """A briefly trained benchmark-shaped tagger and 150 two-domain
    sentences: enough for several inference chunks and probe batches."""
    splits = two_domain_corpus(0)
    sents = list(iter_sentences(splits.train))[::2]
    config = M.TaggerConfig(vocab_size=4096, embed_dim=32, hidden_dim=64, seed=0)
    result = T.train(sents, sents[:20], config, T.TrainConfig(epochs=1, lr=2e-3, seed=0))
    return result.best_params, sents


class TestChunkedInferenceMatchesReference:
    def test_domain_accuracy(self, trained_two_domain):
        params, sents = trained_two_domain
        assert T.domain_accuracy(params, sents) == _reference_domain_accuracy(params, sents)

    def test_export_embeddings_bytes(self, trained_two_domain, tmp_path):
        params, sents = trained_two_domain
        T.export_embeddings(params, sents, tmp_path / "chunked.tsv")
        _reference_export_embeddings(params, sents, tmp_path / "reference.tsv")
        assert (tmp_path / "chunked.tsv").read_bytes() == (tmp_path / "reference.tsv").read_bytes()

    def test_frozen_feature_probe_head_bitwise(self, trained_two_domain):
        params, sents = trained_two_domain
        probe = T.fit_domain_probe(params, sents, epochs=3, lr=7e-3, seed=1)
        reference = _reference_probe(params, sents, epochs=3, lr=7e-3, seed=1)
        for name in ("w", "b"):
            assert np.array_equal(probe.domain_head[name], reference.domain_head[name]), name


class TestCrossDomainF1:
    def test_equals_mean_of_per_region_evaluations(self, trained_two_domain):
        params, _ = trained_two_domain
        test_s = list(iter_sentences(two_domain_corpus(0).test))
        reference = np.mean([
            T.evaluate(params, [s for s in test_s if s.region is r]).overall_f1.f1
            for r in (SOURCE_DOMAIN, TARGET_DOMAIN)
        ])
        assert 0 < cross_domain_f1(params, test_s) == reference

    def test_missing_region_rejected(self, trained_two_domain):
        params, sents = trained_two_domain
        with pytest.raises(DataError, match="Transylvania"):
            cross_domain_f1(params, [s for s in sents if s.region is SOURCE_DOMAIN])


# The dense training step the row-sparse embedding boundary replaced, kept
# as a reference: a per-slot lookup + concat graph over the whole table, a
# clip norm over the dense table gradient, and Adam over every row. The
# row-sparse step must reproduce it bitwise.

def _reference_gradients(params, batch, mode, lam):
    leaves = {key: ad.Node(arr) for key, arr in params.items_flat()}
    windows = np.concatenate([s.windows for s in batch], axis=0)
    slots = [ad.embedding_lookup(leaves[M.EMBED], windows[:, j])
             for j in range(windows.shape[1])]
    h = ad.tanh(ad.add(ad.matmul(ad.concat(slots, axis=1), leaves[("extractor", "w_hidden")]),
                       leaves[("extractor", "b_hidden")]))
    ner = ad.add(ad.matmul(h, leaves[("ner_head", "w")]), leaves[("ner_head", "b")])
    h_domain = ad.scale_gradient(h, -lam) if mode == "grad_rev" else h
    dom = ad.add(ad.matmul(h_domain, leaves[("domain_head", "w")]), leaves[("domain_head", "b")])
    l_y = ad.mean(ad.softmax_cross_entropy(ner, np.concatenate([s.tag_ids for s in batch])))
    regions = np.concatenate([np.full(len(s), s.region_id) for s in batch])
    l_d = ad.mean(ad.softmax_cross_entropy(dom, regions))
    if mode == "baseline":
        ad.backward(l_y)
    elif mode == "grad_rev":
        ad.backward(ad.add(l_y, l_d))
    else:
        ad.backward(ad.sub(l_y, ad.mul(l_d, lam)))
    return {key: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
            for key, leaf in leaves.items()}


def _reference_train(train_s, tagger_config, config):
    """Final parameters of ``train`` with the dense step, and the number of
    steps on which clipping fired."""
    params = M.init_params(tagger_config)
    encoded = T.encode_sentences(train_s, tagger_config)
    m1 = {key: np.zeros_like(arr) for key, arr in params.items_flat()}
    m2 = {key: np.zeros_like(arr) for key, arr in params.items_flat()}
    rng = np.random.default_rng(config.seed)
    t = clipped = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(encoded))
        for lo in range(0, len(order), config.batch_size):
            batch = [encoded[i] for i in order[lo : lo + config.batch_size]]
            grads = _reference_gradients(params, batch, config.mode, config.lam)
            norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
            if norm > config.clip_norm:
                clipped += 1
                grads = {key: g * (config.clip_norm / norm) for key, g in grads.items()}
            t += 1
            arrays = dict(params.items_flat())
            for key, g in grads.items():
                arr = arrays[key]
                arr -= config.lr * config.weight_decay * arr
                m1[key] = 0.9 * m1[key] + (1 - 0.9) * g
                m2[key] = 0.999 * m2[key] + (1 - 0.999) * g * g
                m_hat = m1[key] / (1 - 0.9 ** t)
                v_hat = m2[key] / (1 - 0.999 ** t)
                arr -= config.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return params, clipped


class TestRowSparseStepMatchesDenseReference:
    # The corpus has 45 word types: at vocab 2048 Adam holds the rows the
    # training windows read; at vocab 64 those are over half the table, and
    # Adam updates the whole table from the first step.
    @pytest.mark.parametrize("mode", T.MODES)
    @pytest.mark.parametrize("vocab_size", [2048, 64], ids=["sparse", "sparse-then-dense"])
    def test_trained_parameters_bitwise(self, mode, vocab_size, monkeypatch):
        corpus = separable_corpus(6, n_sentences=60, vocab_size=vocab_size)
        train_s, valid_s, _ = _split_sentences(corpus)
        tagger_config = M.TaggerConfig(vocab_size=vocab_size, embed_dim=8, hidden_dim=16, seed=2)
        config = T.TrainConfig(mode=mode, epochs=3, lr=5e-3, weight_decay=0.05,
                               batch_size=8, clip_norm=1.1, lam=0.3, seed=4)
        reference, clipped = _reference_train(train_s, tagger_config, config)
        steps = config.epochs * -(-len(train_s) // config.batch_size)
        assert 0 < clipped < steps
        updated = []  # rows of the table each Adam step updated
        adam_update = T._adam_update

        def spy(arr, m_, v_, grad, lr, t):
            if grad.shape[1:] == (tagger_config.embed_dim,):
                updated.append(len(grad))
            return adam_update(arr, m_, v_, grad, lr, t)

        monkeypatch.setattr(T, "_adam_update", spy)
        trained = T.train(train_s, valid_s, tagger_config, config).final_params
        for (key, got), (_, want) in zip(trained.items_flat(), reference.items_flat()):
            assert np.array_equal(got, want), key
        whole_table = updated.count(vocab_size + 1)
        assert len(updated) == steps
        assert whole_table == (steps if vocab_size == 64 else 0)

    @pytest.mark.parametrize("mode", T.MODES)
    def test_compute_losses_gradients_bitwise(self, mode):
        rng = np.random.default_rng(7)
        config = small_config()
        params = M.init_params(config)
        batch = random_batch(rng, config, n_sentences=6)
        _, grads = dense_losses(params, batch, mode, 0.2)
        reference = _reference_gradients(params, batch, mode, 0.2)
        assert list(grads) == list(reference)
        for key in reference:
            assert np.array_equal(grads[key], reference[key]), key


class TestCompactMoments:
    def test_scattered_moments_match_dense_reference_every_step(self, monkeypatch):
        # vocab 2048: the moments are held for the rows the training windows
        # read; vocab 64: those are over half the table, so the moments take
        # the table's shape
        adam_step = T.adam_step
        for vocab_size, compact in ((2048, True), (64, False)):
            corpus = separable_corpus(6, n_sentences=60, vocab_size=vocab_size)
            train_s, valid_s, _ = _split_sentences(corpus)
            tagger_config = M.TaggerConfig(vocab_size=vocab_size, embed_dim=8, hidden_dim=16, seed=2)
            config = T.TrainConfig(epochs=3, lr=5e-3, weight_decay=0.05, batch_size=8, seed=4)
            shape = (tagger_config.vocab_size + 1, tagger_config.embed_dim)
            reference = {"m": np.zeros(shape), "v": np.zeros(shape)}
            read = np.unique(np.concatenate(
                [s.windows.ravel() for s in T.encode_sentences(train_s, tagger_config)]))
            steps = []

            def spy(params, grads, state, lr, weight_decay=0.0):
                adam_step(params, grads, state, lr, weight_decay)
                g = grads[M.EMBED].dense()
                reference["m"] = 0.9 * reference["m"] + (1 - 0.9) * g
                reference["v"] = 0.999 * reference["v"] + (1 - 0.999) * g * g
                rows = state.rows.get(M.EMBED)
                assert (rows is not None) == compact
                for name in ("m", "v"):
                    held = getattr(state, name)[M.EMBED]
                    if compact:
                        assert np.array_equal(rows, read)
                        assert len(held) == len(rows) <= T._SPARSE_SHARE * shape[0]
                        held = M.RowSparse(rows, held, shape[0]).dense()
                    assert np.array_equal(held, reference[name]), (name, vocab_size, len(steps))
                steps.append(state.step)

            monkeypatch.setattr(T, "adam_step", spy)
            T.train(train_s, valid_s, tagger_config, config)
            assert steps == list(range(1, config.epochs * -(-len(train_s) // 8) + 1))


class TestMemory:
    # tracemalloc sees numpy's buffers; sizes are in units of the CLI's
    # default embedding table, (2^15 + 1) x 64 float64
    TABLE = (2**15 + 1) * 64 * 8

    def test_train_holds_the_table_and_one_best_copy(self):
        corpus = separable_corpus(0, n_sentences=60, vocab_size=2**15)
        train_s, valid_s, _ = _split_sentences(corpus)
        tracemalloc.start()
        try:
            T.train(train_s, valid_s, M.TaggerConfig(), T.TrainConfig(epochs=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * self.TABLE, peak / self.TABLE

    def test_probe_holds_the_head_only(self):
        # the frozen groups are shared, so the features are most of the peak
        sents = list(iter_sentences(separable_corpus(0, n_sentences=60, vocab_size=2**15)))
        params = M.init_params(M.TaggerConfig())
        tracemalloc.start()
        try:
            T.fit_domain_probe(params, sents, epochs=2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * self.TABLE, peak / self.TABLE
