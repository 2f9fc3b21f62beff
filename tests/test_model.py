"""Toy transformer tests: deterministic init, forward contracts, greedy
decoding, and the .eem container."""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eeinfer.model
from eeinfer.bench import Arms, compare_arms
from eeinfer.encryption import decrypt_tokens, encrypt_model, encrypt_tokens, keygen
from eeinfer.errors import (
    ConfigError,
    DomainError,
    FormatError,
    IntegrityError,
    NumericsError,
    RangeError,
    ShapeError,
    VersionError,
)
from eeinfer.model import (
    CIPHERTEXT,
    MODEL_MAGIC,
    NORM_KINDS,
    PLAINTEXT,
    KVCache,
    ModelBundle,
    ModelConfig,
    TokenSeq,
    apply_layer_range,
    config_fingerprint,
    embed_positions,
    expected_tensor_shapes,
    final_logits,
    forward,
    greedy_decode,
    init_model,
    load_model,
    make_config,
    save_model,
)
from eeinfer.tensor_ops import ACTIVATION_KINDS, layer_norm, matmul

# sha256 of forward(init_model(make_config(32,16,2,2,32,8), seed=42), [1,2,3])
# logits bytes, produced once by the reference run and frozen as a regression
# pin on the whole numeric path
GOLDEN_LOGITS_SHA256 = "5ef97aa8a3e037dee3ba96a383dcb0364a8aa7326a99330422787d92d8800980"


# (tensor, entry, value) that the parent of the finite-weights check decoded
# on silently on make_config(16, 8, 1, 2, 16, 16), seed 1, prompt 1 2 3 (argmax
# picks the first NaN logit): 3 3 3 3, 5 13 7 7, 0 0 0 0, and 7 15 15 15 for
# an embedding row the request never reads
NON_FINITE_ENTRIES = [("lm_head.b", (3,), np.nan), ("lm_head.W", (0, 7), np.inf),
                      ("layer0.ffn.W2", (0, 0), np.nan), ("embedding", (14, 0), -np.inf)]


def with_entry(model: ModelBundle, name: str, index: tuple[int, ...], value: float) -> dict:
    """``model``'s tensors with one entry of ``name`` set to ``value``."""
    tensors = dict(model.tensors)
    tensors[name] = tensors[name].copy()
    tensors[name][index] = value
    return tensors


def zero_lm_head(model: ModelBundle) -> ModelBundle:
    tensors = dict(model.tensors)
    tensors["lm_head.W"] = np.zeros_like(tensors["lm_head.W"])
    tensors["lm_head.b"] = np.zeros_like(tensors["lm_head.b"])
    return ModelBundle(model.config, model.domain, tensors)


class TestConfig:
    def test_make_config_derives_d_head(self, tiny_config):
        assert tiny_config.d_head * tiny_config.n_heads == tiny_config.d_model

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            make_config(vocab_size=128, d_model=32, n_layers=1, n_heads=3, d_ff=64, max_seq_len=8)

    def test_inconsistent_d_head_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(
                vocab_size=8, d_model=8, n_layers=1, n_heads=2, d_head=3, d_ff=8, max_seq_len=4
            )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"vocab_size": 1},
            {"max_seq_len": 0},
            {"norm_kind": "batchnorm"},
            {"act_kind": "tanh"},
            {"pos_kind": "rotary"},
            {"norm_eps": -1.0},
            {"norm_eps": "x"},
            {"norm_eps": True},
            {"norm_eps": float("inf")},
            {"norm_eps": float("nan")},
        ],
    )
    def test_invariant_violations(self, overrides):
        base = dict(
            vocab_size=8, d_model=8, n_layers=1, n_heads=2, d_head=4, d_ff=8, max_seq_len=4
        )
        base.update(overrides)
        with pytest.raises(ConfigError):
            ModelConfig(**base)

    def test_dict_round_trip(self, tiny_config):
        assert ModelConfig.from_dict(tiny_config.to_dict()) == tiny_config

    def test_from_dict_rejects_unknown_and_missing(self):
        with pytest.raises(ConfigError, match="unknown"):
            ModelConfig.from_dict({"vocab_size": 8, "bogus": 1})
        with pytest.raises(ConfigError, match="missing"):
            ModelConfig.from_dict({"vocab_size": 8})

    def test_fingerprint_tracks_config(self, tiny_config, micro_config):
        assert config_fingerprint(tiny_config) == config_fingerprint(tiny_config)
        assert config_fingerprint(tiny_config) != config_fingerprint(micro_config)


class TestTokenSeq:
    def test_bad_domain(self):
        with pytest.raises(DomainError):
            TokenSeq((1, 2), "cleartext")

    def test_negative_id(self):
        with pytest.raises(RangeError):
            TokenSeq((1, -2), PLAINTEXT)

    def test_ids_coerced_to_ints(self):
        s = TokenSeq((np.int64(3), 4), PLAINTEXT)
        assert s.ids == (3, 4) and all(type(i) is int for i in s.ids)

    def test_unchecked_sequence_sets_every_field(self, tiny_model):
        # greedy_decode builds its outputs by TokenSeq._from_checked, which
        # skips __post_init__, so a field added to the class must be set there
        # as well, to what the checked constructor would give
        out = greedy_decode(tiny_model, TokenSeq((4, 9), PLAINTEXT), 2)
        for seq in (out, TokenSeq._from_checked((3, 1, 4), PLAINTEXT)):
            assert type(seq) is TokenSeq
            assert set(vars(seq)) == {f.name for f in dataclasses.fields(TokenSeq)}
            assert vars(seq) == vars(TokenSeq(seq.ids, seq.domain))


class TestInit:
    def test_same_seed_bit_identical(self, tiny_config):
        a = init_model(tiny_config, 42)
        b = init_model(tiny_config, 42)
        for name in a.tensors:
            assert a.tensors[name].tobytes() == b.tensors[name].tobytes()

    def test_different_seeds_differ(self, tiny_config):
        a = init_model(tiny_config, 1)
        b = init_model(tiny_config, 2)
        assert a.tensors["embedding"].tobytes() != b.tensors["embedding"].tobytes()

    def test_norm_params_are_ones_and_zeros(self, tiny_model):
        assert np.array_equal(tiny_model.tensors["final_norm.gain"], np.ones(16))
        assert np.array_equal(tiny_model.tensors["final_norm.offset"], np.zeros(16))

    def test_rmsnorm_has_no_offsets(self, micro_model):
        assert not any(name.endswith(".offset") for name in micro_model.tensors)

    def test_bundle_rejects_wrong_tensor_set(self, tiny_config, tiny_model):
        tensors = dict(tiny_model.tensors)
        del tensors["lm_head.b"]
        with pytest.raises(IntegrityError, match="missing"):
            ModelBundle(tiny_config, PLAINTEXT, tensors)

    def test_bundle_rejects_wrong_shape(self, tiny_config, tiny_model):
        tensors = dict(tiny_model.tensors)
        tensors["lm_head.b"] = np.zeros(7)
        with pytest.raises(IntegrityError, match="shape"):
            ModelBundle(tiny_config, PLAINTEXT, tensors)

    @pytest.mark.parametrize("name, index, value", NON_FINITE_ENTRIES)
    def test_bundle_rejects_non_finite_entries(self, name, index, value, tmp_path):
        config = make_config(16, 8, 1, 2, 16, 16)
        model = init_model(config, 1)
        tensors = with_entry(model, name, index, value)
        with pytest.raises(NumericsError, match=f"tensor '{name}' holds a NaN or infinite entry"):
            ModelBundle(config, PLAINTEXT, tensors)
        # a file written with the entry is refused on load: save_model only
        # reads config, domain and tensors
        path = tmp_path / "bad.eem"
        save_model(types.SimpleNamespace(config=config, domain=PLAINTEXT, tensors=tensors), path)
        with pytest.raises(NumericsError, match=name):
            load_model(path)

    def test_bundle_immutable(self, tiny_model):
        with pytest.raises(AttributeError):
            tiny_model.domain = CIPHERTEXT
        with pytest.raises(TypeError):
            tiny_model.tensors["embedding"] = np.zeros((32, 16))
        with pytest.raises(ValueError):
            tiny_model.tensors["embedding"][0, 0] = 1.0


class TestForward:
    def test_shape_and_finite(self, tiny_model):
        logits = forward(tiny_model, TokenSeq((1, 2, 3), PLAINTEXT))
        assert logits.shape == (3, 32)
        assert np.isfinite(logits).all()

    def test_zero_lm_head_uniform(self, tiny_model):
        zeroed = zero_lm_head(tiny_model)
        logits = forward(zeroed, TokenSeq((1, 2, 3), PLAINTEXT))
        assert np.array_equal(logits, np.zeros((3, 32)))
        arms = Arms(zeroed, keygen(zeroed.config, 0, identity=True))
        fid, _ = compare_arms(arms, [TokenSeq((1, 2, 3), PLAINTEXT)], n_new=0)
        assert fid.scores_vi[0] == pytest.approx(1 / 32, abs=1e-15)

    def test_golden_logits_checksum(self, tiny_model):
        logits = forward(tiny_model, TokenSeq((1, 2, 3), PLAINTEXT))
        assert hashlib.sha256(logits.tobytes()).hexdigest() == GOLDEN_LOGITS_SHA256

    def test_deterministic_repeat(self, tiny_model):
        a = forward(tiny_model, TokenSeq((5, 0, 7, 7), PLAINTEXT))
        b = forward(tiny_model, TokenSeq((5, 0, 7, 7), PLAINTEXT))
        assert a.tobytes() == b.tobytes()

    def test_domain_guard(self, tiny_model):
        with pytest.raises(DomainError):
            forward(tiny_model, TokenSeq((1, 2), CIPHERTEXT))

    def test_overlength_rejected(self, tiny_model):
        with pytest.raises(ShapeError):
            forward(tiny_model, TokenSeq(tuple(range(9)), PLAINTEXT))

    def test_empty_prompt_rejected(self, tiny_model):
        with pytest.raises(ShapeError):
            forward(tiny_model, TokenSeq((), PLAINTEXT))

    def test_out_of_range_token(self, tiny_model):
        with pytest.raises(RangeError):
            forward(tiny_model, TokenSeq((32,), PLAINTEXT))

    @settings(derandomize=True, max_examples=40)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 3))
    def test_causality(self, tiny_model, seed, n_changed):
        # prefix logits must not move when a suffix token changes; exact
        # because masked weights are exact zeros
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 32, size=6)
        other = ids.copy()
        pos = 6 - n_changed
        other[pos:] = (other[pos:] + 1 + rng.integers(0, 30, size=n_changed)) % 32
        a = forward(tiny_model, TokenSeq(tuple(ids), PLAINTEXT))
        b = forward(tiny_model, TokenSeq(tuple(other), PLAINTEXT))
        assert a[:pos].tobytes() == b[:pos].tobytes()


class TestGreedy:
    def test_n_new_zero_returns_prompt(self, tiny_model):
        p = TokenSeq((4, 9), PLAINTEXT)
        out = greedy_decode(tiny_model, p, 0)
        assert out.ids == p.ids and out.domain == PLAINTEXT

    def test_negative_n_new(self, tiny_model):
        with pytest.raises(RangeError):
            greedy_decode(tiny_model, TokenSeq((4,), PLAINTEXT), -1)

    def test_deterministic(self, tiny_model):
        a = greedy_decode(tiny_model, TokenSeq((4, 9), PLAINTEXT), 5)
        b = greedy_decode(tiny_model, TokenSeq((4, 9), PLAINTEXT), 5)
        assert a.ids == b.ids

    def test_output_in_range_and_tagged(self, tiny_model):
        out = greedy_decode(tiny_model, TokenSeq((4, 9), PLAINTEXT), 6)
        assert len(out) == 8 and out.domain == PLAINTEXT
        assert all(0 <= i < 32 for i in out.ids)

    def test_tie_break_lowest_index(self, tiny_model):
        # all-zero logits tie every token; argmax must take index 0
        out = greedy_decode(zero_lm_head(tiny_model), TokenSeq((4, 9), PLAINTEXT), 3)
        assert out.ids == (4, 9, 0, 0, 0)

    def test_overlength_rejected_up_front(self, tiny_model):
        with pytest.raises(ShapeError):
            greedy_decode(tiny_model, TokenSeq((1, 2, 3, 4), PLAINTEXT), 5)

    def test_confidence_in_unit_interval(self, tiny_model):
        arms = Arms(tiny_model, keygen(tiny_model.config, 0, identity=True))
        fid, _ = compare_arms(arms, [TokenSeq((3, 1), PLAINTEXT)], n_new=0)
        assert 0.0 < fid.scores_vi[0] <= 1.0


class TestIncremental:
    @pytest.mark.parametrize("kinds", [("layernorm", "gelu"), ("rmsnorm", "silu")])
    @pytest.mark.parametrize("encrypted", [False, True])
    def test_cached_steps_equal_forward_bytes(self, kinds, encrypted):
        # 40 positions, so attention rows are long enough for a pairwise sum
        # to round differently from a sequential one; then the toy config
        # (vocab 128, d_model 32, 2 layers, 4 heads), whose 16-row prefill
        # runs 16 rows to a matmul call and its steps one
        for dims, prompt_len, n_new in [((48, 16, 2, 2, 32, 40), 12, 28),
                                        ((128, 32, 2, 4, 64, 64), 16, 32)]:
            config = make_config(*dims, norm_kind=kinds[0], act_kind=kinds[1])
            model = init_model(config, 5)
            if encrypted:
                model = encrypt_model(keygen(config, 6), model)
            prompt = TokenSeq(tuple(range(3, 3 + prompt_len)), model.domain)
            out = greedy_decode(model, prompt, n_new)
            full = forward(model, out)
            cache = KVCache(model, 0, config.n_layers - 1)
            steps = [forward(cache, prompt)]
            for pos in range(len(prompt), len(out)):
                steps.append(forward(cache, TokenSeq(out.ids[pos : pos + 1], model.domain)))
            cached = np.concatenate(steps)
            for pos in range(len(out)):
                assert cached[pos].tobytes() == full[pos].tobytes(), (dims, pos)
            # greedy decoding picked the argmax of the full pass at every step
            picked = np.argmax(full[len(prompt) - 1 : -1], axis=1)
            assert out.ids[len(prompt) :] == tuple(int(t) for t in picked), dims

    def test_rows_split_over_a_cache_equal_one_pass(self, tiny_model):
        x = embed_positions(tiny_model, (1, 2, 3, 4))
        cache = KVCache(tiny_model, 1, 1)
        parts = [apply_layer_range(cache, x[:3], 1, 1), apply_layer_range(cache, x[3:], 1, 1)]
        whole = apply_layer_range(KVCache(tiny_model, 1, 1), x, 1, 1)
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        assert cache.length == 4

    def test_causal_mask_builds_no_index_arrays(self, tiny_model, monkeypatch):
        # the mask is one comparison of position ranges: np.triu_indices cost
        # about 25 us a call, even for a one-row cached step with nothing masked
        prompt = TokenSeq((1, 2, 3), PLAINTEXT)
        out, logits = greedy_decode(tiny_model, prompt, 4), forward(tiny_model, prompt)

        def refuse(*args, **kwargs):
            raise AssertionError("np.triu_indices called")

        monkeypatch.setattr(np, "triu_indices", refuse)
        assert greedy_decode(tiny_model, prompt, 4) == out
        assert forward(tiny_model, prompt).tobytes() == logits.tobytes()

    def test_cached_step_kernel_calls(self, monkeypatch):
        # toy config: one fused QKV product per layer, and every head's scores
        # and context in one batched product each
        config = make_config(vocab_size=128, d_model=32, n_layers=2, n_heads=4, d_ff=64,
                             max_seq_len=64)
        cache = KVCache(init_model(config, 42), 0, config.n_layers - 1)
        forward(cache, TokenSeq(tuple(range(16)), PLAINTEXT))
        calls = {"matmul": 0, "softmax_rows": 0}
        for name in calls:
            def counted(*args, _fn=getattr(eeinfer.model, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(eeinfer.model, name, counted)
        forward(cache, TokenSeq((3,), PLAINTEXT))
        assert calls == {"matmul": 13, "softmax_rows": 2}

    def test_batched_step_kernel_calls(self, monkeypatch):
        # five requests' cached step: the same calls as one request's
        config = make_config(vocab_size=128, d_model=32, n_layers=2, n_heads=4, d_ff=64,
                             max_seq_len=64)
        cache = KVCache(init_model(config, 42), 0, config.n_layers - 1, 5)
        forward(cache, [TokenSeq(tuple(range(i, i + 16)), PLAINTEXT) for i in range(5)])
        calls = {"matmul": 0, "softmax_rows": 0}
        for name in calls:
            def counted(*args, _fn=getattr(eeinfer.model, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(eeinfer.model, name, counted)
        forward(cache, [TokenSeq((i,), PLAINTEXT) for i in range(5)])
        assert calls == {"matmul": 13, "softmax_rows": 2}

    def test_layer_range_checked(self, tiny_model):
        with pytest.raises(ShapeError):
            KVCache(tiny_model, 1, 2)
        x = embed_positions(tiny_model, (1, 2))
        with pytest.raises(ShapeError):
            apply_layer_range(KVCache(tiny_model, 0, 0), x, 0, 1)
        with pytest.raises(ShapeError):
            forward(KVCache(tiny_model, 1, 1), TokenSeq((1, 2), PLAINTEXT))

    def test_row_count_checked(self):
        # rows must be a whole, non-zero number per request, and fit in max_seq_len
        x = np.random.default_rng(0).normal(size=(6, 16))
        model = init_model(make_config(32, 16, 2, 2, 32, 4), 1)
        cache = KVCache(model, 0, 1)
        with pytest.raises(ShapeError, match="max_seq_len 4"):
            apply_layer_range(cache, x, 0, 1)
        assert cache.length == 0
        model = init_model(make_config(32, 16, 2, 2, 32, 8), 1)
        with pytest.raises(ShapeError, match="3 rows for a cache of 2 requests"):
            apply_layer_range(KVCache(model, 0, 1, 2), x[:3], 0, 1)
        with pytest.raises(ShapeError, match="0 rows .* at least one"):
            apply_layer_range(KVCache(model, 0, 1), x[:0], 0, 1)
        for requests in (0, -1):
            with pytest.raises(ShapeError, match="requests must be an integer >= 1"):
                KVCache(model, 0, 1, requests)

    def test_positions_past_max_seq_len_refused(self, tiny_model):
        # two ids from the last position would share its positional row, and
        # one id past it would embed as zero rows
        last = tiny_model.config.max_seq_len - 1
        assert embed_positions(tiny_model, (1,), start=last).shape == (1, tiny_model.config.d_model)
        with pytest.raises(ShapeError, match=f"positions {last}..{last + 1} exceed max_seq_len"):
            embed_positions(tiny_model, (1, 2), start=last)
        with pytest.raises(ShapeError, match=f"positions {last + 1}..{last + 1} exceed max_seq_len"):
            embed_positions(tiny_model, (1,), start=last + 1)
        with pytest.raises(ShapeError, match="exceed max_seq_len"):
            embed_positions(tiny_model, [(1, 2), (3, 4)], start=last)

    def test_positions_before_zero_refused(self, tiny_model):
        # a negative start would slice positional rows from the end of the
        # table (start -3: positions max_seq_len - 3 on), or too few of them
        with pytest.raises(ShapeError, match="start position must be an integer >= 0, got -3"):
            embed_positions(tiny_model, [3, 4], start=-3)
        with pytest.raises(ShapeError, match="start position must be an integer >= 0, got -1"):
            embed_positions(tiny_model, [3, 4], start=-1)
        with pytest.raises(ShapeError, match="start position must be an integer >= 0"):
            embed_positions(tiny_model, [(3, 4)], start=-1)

    def test_ids_outside_the_vocab_or_not_integers_refused(self):
        # -1 would embed id 7 and 8 fail as a bare IndexError; a float would
        # be truncated to its integer part and True taken as id 1
        model = init_model(make_config(8, 8, 1, 1, 16, 6), 1)
        for ids, bad in [([-1], "token id -1 "), ([8], "token id 8 "), ([[2, 3], [9, 1]], "id 9 "),
                         ([1.5], "1.5"), (np.array([[1.9]]), "1.9"), ([True], "True")]:
            with pytest.raises(RangeError, match=bad):
                embed_positions(model, ids)
        for empty in ([], [[]]):
            assert embed_positions(model, empty).shape == (0, 8)
        rows = model.tensors["embedding"][[0, 7]] + model.tensors["pos_embedding"][:2]
        for ids in ([0, 7], np.array([0, 7], dtype=np.uint8)):
            assert embed_positions(model, ids).tobytes() == rows.tobytes()

    def test_cache_is_allocated_once(self, tiny_model):
        # every layer's buffer holds max_seq_len positions from the start,
        # and a prefill and one-row steps write into those same arrays
        cfg = tiny_model.config
        cache = KVCache(tiny_model, 0, cfg.n_layers - 1, 2)
        buffers = list(cache.kv)
        shape = (2, 2, cfg.n_heads, cfg.max_seq_len, cfg.d_head)
        assert [kv.shape for kv in buffers] == [shape] * cfg.n_layers
        forward(cache, [TokenSeq((1, 2, 3), PLAINTEXT), TokenSeq((4, 5, 6), PLAINTEXT)])
        for pos in range(3, cfg.max_seq_len):
            forward(cache, [TokenSeq((pos,), PLAINTEXT), TokenSeq((pos + 1,), PLAINTEXT)])
            assert all(new is old for new, old in zip(cache.kv, buffers, strict=True))
        assert cache.length == cfg.max_seq_len


@functools.cache
def _batch_model(norm_kind: str, act_kind: str, encrypted: bool) -> ModelBundle:
    config = make_config(48, 16, 2, 2, 32, 24, norm_kind=norm_kind, act_kind=act_kind)
    model = init_model(config, 11)
    return encrypt_model(keygen(config, 12), model) if encrypted else model


# sha256 per (norm, activation) on _batch_model's config: plaintext forward
# logits of PAIR_PROMPT, encrypted forward logits of it under key seed 12, and
# the ids of PAIR_BATCH decoded for 12 steps as one batch; pinned like
# GOLDEN_LOGITS_SHA256, on every numeric path the kernels offer
PAIR_PROMPT = (3, 14, 15, 9, 2, 6, 5, 35)
PAIR_BATCH = [tuple((7 * r + 5 * i) % 48 for i in range(6)) for r in range(3)]
PAIR_GOLDENS = {
    ("layernorm", "relu"): (
        "81f137d70a8ef54cf016fc76e2dcbeba38f21381815a7b0b91be855357065ff4",
        "9a31d67ac44fe5a6f8fc67edd8a5991fdebcfac196bedfc9f1699c227958f82c",
        "b1d9f0aaea0faf966d7fa72d72293068d507a46273e2383ebc0bf7e09543868c",
    ),
    ("layernorm", "gelu"): (
        "a3865c842aecc7190ca23900e197ae909310ef6e51d8533380394593ce4258ad",
        "7db6cdaa4153236276b8fa8821bb193b6741a3acca964c05f86d58dbddb92da9",
        "0618f0f12c8c06ac4068c0c04177d091253737af8585c88357bd854051e6ac4e",
    ),
    ("layernorm", "silu"): (
        "e14c1a047193b731c71f9e67f1450b7c7ff79b43de6cb8d9815828e08b147347",
        "d43462efb3d7e24b4a41c5f5d5553c081af4b6c0d636f2ede5464ba3a52eaf69",
        "0618f0f12c8c06ac4068c0c04177d091253737af8585c88357bd854051e6ac4e",
    ),
    ("rmsnorm", "relu"): (
        "9cf7296e36481f775f78a803a7f352c912c965a504667b48a0c316145b2c1d8f",
        "90371b339a27eefbe456699b29e19633dac7a71f1ddaed064949e53c5bd0949c",
        "854b5d6310d96b69f29528194aed99f1c20ee2fb9d92622896567173077f9402",
    ),
    ("rmsnorm", "gelu"): (
        "04764f4bef41a97d7ddf5d6d5f55cb9762f47ef5b6a5895d489651b0ec80d614",
        "ee467ca53243db766ec802286ace19e77683ee8cca5209485f59597786cbe247",
        "d9af0a4f95813254ac1f94d5712a1cd8dfa854dc90f6184ff1dddc5c95605352",
    ),
    ("rmsnorm", "silu"): (
        "0a3b09bbd78a9782c0770eabd9c719eecfa5360ad143239bb570ec8b9dce502a",
        "4d05d0a13c8305922ad8c670e17975672d8f6009838ae0c170e29041a684f66f",
        "d9af0a4f95813254ac1f94d5712a1cd8dfa854dc90f6184ff1dddc5c95605352",
    ),
}


@pytest.mark.parametrize("kinds", sorted(PAIR_GOLDENS))
def test_golden_per_norm_and_activation(kinds):
    plain, enc = _batch_model(*kinds, False), _batch_model(*kinds, True)
    key = keygen(plain.config, 12)
    prompt = TokenSeq(PAIR_PROMPT, PLAINTEXT)
    outs = greedy_decode(plain, [TokenSeq(p, PLAINTEXT) for p in PAIR_BATCH], 12)
    got = (
        hashlib.sha256(forward(plain, prompt).tobytes()).hexdigest(),
        hashlib.sha256(forward(enc, encrypt_tokens(key, prompt)).tobytes()).hexdigest(),
        hashlib.sha256(json.dumps([list(out.ids) for out in outs]).encode()).hexdigest(),
    )
    assert got == PAIR_GOLDENS[kinds]


# the 8 greedy ids after "3 14 15 9 2 6" per (norm, activation) on the toy
# config, model seed 42, every tensor but the norms' scaled by 5: at the init
# std of 0.02 the FFN inputs are so small that gelu and silu pick the same ids
SCALED_TOY_IDS = {
    ("layernorm", "relu"): (58, 58, 58, 58, 58, 58, 58, 21),
    ("layernorm", "gelu"): (10, 58, 58, 10, 58, 58, 52, 58),
    ("layernorm", "silu"): (10, 58, 98, 10, 58, 58, 52, 58),
    ("rmsnorm", "relu"): (58, 58, 31, 58, 31, 58, 58, 21),
    ("rmsnorm", "gelu"): (10, 58, 31, 58, 23, 58, 31, 113),
    ("rmsnorm", "silu"): (10, 58, 31, 58, 25, 94, 58, 21),
}


@pytest.mark.parametrize("kinds", sorted(SCALED_TOY_IDS))
def test_golden_greedy_ids_per_norm_and_activation(kinds):
    config = make_config(128, 32, 2, 4, 64, 64, norm_kind=kinds[0], act_kind=kinds[1])
    tensors = {
        name: arr if "norm." in name else 5 * arr
        for name, arr in init_model(config, seed=42).tensors.items()
    }
    model = ModelBundle(config, PLAINTEXT, tensors)
    prompt = TokenSeq((3, 14, 15, 9, 2, 6), PLAINTEXT)
    out = greedy_decode(model, prompt, 8)
    assert out.ids[len(prompt) :] == SCALED_TOY_IDS[kinds]
    # no other (norm, activation) pair decodes these ids
    assert sum(ids == SCALED_TOY_IDS[kinds] for ids in SCALED_TOY_IDS.values()) == 1
    # the encrypted arm decodes the same ids
    key = keygen(config, 7)
    enc_out = greedy_decode(encrypt_model(key, model), encrypt_tokens(key, prompt), 8)
    assert decrypt_tokens(key, enc_out) == out


def reference_greedy(model: ModelBundle, prompts: list[TokenSeq], n_new: int) -> list[TokenSeq]:
    """The decode loop as it was before greedy_decode stepped through the
    pieces: the prefill and every step through forward on the cache."""
    cache = KVCache(model, 0, model.config.n_layers - 1, len(prompts))
    ids = [list(p.ids) for p in prompts]
    fresh = prompts
    for _ in range(n_new):
        chosen = np.argmax(forward(cache, fresh)[:, -1], axis=1).tolist()
        for row, t in zip(ids, chosen):
            row.append(t)
        fresh = [TokenSeq((t,), model.domain) for t in chosen]
    return [TokenSeq(tuple(row), model.domain) for row in ids]


@pytest.mark.parametrize("norm_kind", NORM_KINDS)
@pytest.mark.parametrize("act_kind", ACTIVATION_KINDS)
@pytest.mark.parametrize("encrypted", [False, True])
@settings(deadline=None, derandomize=True, max_examples=12)
@given(st.integers(1, 4), st.integers(1, 12), st.integers(0, 6), st.integers(0, 2**31 - 1))
def test_greedy_decode_equals_reference_loop(norm_kind, act_kind, encrypted, b, length, n_new, seed):
    model = _batch_model(norm_kind, act_kind, encrypted)
    rng = np.random.default_rng(seed)
    prompts = [
        TokenSeq(tuple(rng.integers(0, 48, size=length).tolist()), model.domain) for _ in range(b)
    ]
    assert greedy_decode(model, prompts, n_new) == reference_greedy(model, prompts, n_new)


class TestRows:
    @pytest.mark.parametrize("shape", [(16,), (2, 1, 16), (2, 15), (2, 17), (0,)])
    def test_rows_that_are_not_d_model_wide_refused(self, tiny_model, shape):
        x = np.ones(shape)
        cache = KVCache(tiny_model, 0, 1)
        with pytest.raises(ShapeError, match="2-D with d_model 16 columns"):
            apply_layer_range(cache, x, 0, 1)
        assert cache.length == 0
        with pytest.raises(ShapeError, match="2-D with d_model 16 columns"):
            final_logits(tiny_model, x)

    def test_float32_and_integer_rows_give_float64_bytes(self, tiny_model):
        rng = np.random.default_rng(4)
        for rows in (rng.normal(size=(3, 16)).astype(np.float32), rng.integers(-3, 4, (3, 16))):
            wide = rows.astype(np.float64)
            got = apply_layer_range(KVCache(tiny_model, 0, 1), rows, 0, 1)
            assert got.tobytes() == apply_layer_range(KVCache(tiny_model, 0, 1), wide, 0, 1).tobytes()
            assert final_logits(tiny_model, rows).tobytes() == final_logits(tiny_model, wide).tobytes()

    def test_fortran_ordered_rows_give_the_c_ordered_bytes(self, tiny_model):
        # numpy sums each row of an F-ordered matrix sequentially, not
        # pairwise, so the rows are taken in C order before any norm
        rows = np.random.default_rng(5).normal(size=(8, 16))
        fortran = np.asfortranarray(rows)
        got = apply_layer_range(KVCache(tiny_model, 0, 1), fortran, 0, 1)
        assert got.tobytes() == apply_layer_range(KVCache(tiny_model, 0, 1), rows, 0, 1).tobytes()
        assert final_logits(tiny_model, fortran).tobytes() == final_logits(tiny_model, rows).tobytes()


class TestBatch:
    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(
        st.sampled_from(NORM_KINDS), st.sampled_from(ACTIVATION_KINDS), st.booleans(),
        st.integers(1, 8), st.integers(1, 12), st.integers(0, 8), st.integers(0, 2**31 - 1),
    )
    def test_batch_equals_one_request_at_a_time(
        self, norm_kind, act_kind, encrypted, b, length, n_new, seed
    ):
        model = _batch_model(norm_kind, act_kind, encrypted)
        rng = np.random.default_rng(seed)
        prompts = [
            TokenSeq(tuple(rng.integers(0, 48, size=length).tolist()), model.domain)
            for _ in range(b)
        ]
        outs = greedy_decode(model, prompts, n_new)
        assert outs == [greedy_decode(model, p, n_new) for p in prompts]
        # every cached step of the batch, request by request, against the
        # same steps taken with a cache of that request alone
        last = model.config.n_layers - 1
        cache = KVCache(model, 0, last, b)
        alone = [KVCache(model, 0, last) for _ in prompts]
        batched = [forward(cache, prompts)]
        single = [[forward(c, p)] for c, p in zip(alone, prompts)]
        for pos in range(length, length + n_new):
            step = [TokenSeq(out.ids[pos : pos + 1], model.domain) for out in outs]
            batched.append(forward(cache, step))
            for steps, c, seq in zip(single, alone, step):
                steps.append(forward(c, seq))
        for r, steps in enumerate(single):
            got = np.concatenate([logits[r] for logits in batched])
            assert got.tobytes() == np.concatenate(steps).tobytes(), r

    def test_batch_shape_errors(self, tiny_model):
        with pytest.raises(ShapeError, match="at least one"):
            greedy_decode(tiny_model, [], 2)
        unequal = [TokenSeq((1, 2, 3), PLAINTEXT), TokenSeq((4, 5), PLAINTEXT)]
        with pytest.raises(ShapeError, match="3 and 2"):
            greedy_decode(tiny_model, unequal, 2)
        with pytest.raises(ShapeError, match="3 and 2"):
            forward(tiny_model, unequal)
        cache = KVCache(tiny_model, 0, tiny_model.config.n_layers - 1, 2)
        with pytest.raises(ShapeError, match="1 sequences for a cache of 2"):
            forward(cache, [TokenSeq((1,), PLAINTEXT)])

    def test_single_prompt_returns_one_sequence(self, tiny_model):
        prompt = TokenSeq((4, 9), PLAINTEXT)
        [batched] = greedy_decode(tiny_model, [prompt], 3)
        assert greedy_decode(tiny_model, prompt, 3) == batched
        assert forward(tiny_model, [prompt])[0].tobytes() == forward(tiny_model, prompt).tobytes()


class TestTake:
    @pytest.mark.parametrize("norm_kind", NORM_KINDS)
    @pytest.mark.parametrize("encrypted", [False, True])
    def test_decode_from_a_taken_cache_equals_fresh_decodes(self, norm_kind, encrypted):
        # mixed and repeated source requests: a repeated one is a fork
        model = _batch_model(norm_kind, "gelu", encrypted)
        rng = np.random.default_rng(3)
        prefixes = [tuple(rng.integers(0, 48, size=4).tolist()) for _ in range(3)]
        source = KVCache(model, 0, model.config.n_layers - 1, 3)
        forward(source, [TokenSeq(p, model.domain) for p in prefixes])
        kept = [kv.copy() for kv in source.kv]
        picks = [2, 0, 2, 1, 2]
        tails = [TokenSeq(tuple(rng.integers(0, 48, size=3).tolist()), model.domain) for _ in picks]
        fresh = [TokenSeq(prefixes[i] + t.ids, model.domain) for i, t in zip(picks, tails)]
        logits = forward(source.take(picks), tails)
        for r, seq in enumerate(fresh):
            assert logits[r].tobytes() == forward(model, seq)[4:].tobytes(), r
        outs = greedy_decode(source.take(picks), tails, 6)
        assert [out.ids for out in outs] == [
            greedy_decode(model, seq, 6).ids[4:] for seq in fresh
        ]
        assert all(out.domain == model.domain for out in outs)
        # the source is read, never written
        assert source.length == 4
        assert all(kv.tobytes() == old.tobytes() for kv, old in zip(source.kv, kept))

    def test_take_of_a_shard_layer_range(self):
        model = init_model(make_config(48, 16, 3, 2, 32, 12), 5)
        rng = np.random.default_rng(8)
        prefix = rng.normal(size=(2, 5, 16))  # two requests' rows into layer 1
        source = KVCache(model, 1, 2, 2)
        apply_layer_range(source, prefix.reshape(-1, 16), 1, 2)
        picks = [1, 1, 0]
        tails = rng.normal(size=(3, 2, 16))
        got = apply_layer_range(source.take(picks), tails.reshape(-1, 16), 1, 2).reshape(3, 2, 16)
        for r, i in enumerate(picks):
            rows = np.concatenate([prefix[i], tails[r]])
            whole = apply_layer_range(KVCache(model, 1, 2), rows, 1, 2)
            assert got[r].tobytes() == whole[5:].tobytes(), r

    def test_take_of_an_empty_cache(self, tiny_model):
        # a decode over it is a fresh decode, prompt included
        empty = KVCache(tiny_model, 0, tiny_model.config.n_layers - 1, 2).take([1, 0, 1])
        assert (empty.requests, empty.length) == (3, 0)
        prompt = TokenSeq((1, 2), PLAINTEXT)
        assert greedy_decode(empty, [prompt] * 3, 2) == [greedy_decode(tiny_model, prompt, 2)] * 3


class TestLayout:
    """The right operands of the model's products are stored backwards in
    memory (a negative last-axis stride), which spares matmul a reversal per
    call; C order would give the same bytes, only slower, so these tests are
    what keeps it."""

    @pytest.mark.parametrize("norm_kind", NORM_KINDS)
    def test_weights_are_stored_backwards_once(self, norm_kind):
        cfg = make_config(24, 8, 2, 2, 12, 6, norm_kind=norm_kind)
        rng = np.random.default_rng(9)
        given = {n: rng.normal(size=s) for n, s in expected_tensor_shapes(cfg).items()}
        model = ModelBundle(cfg, PLAINTEXT, given)
        for i, layer in enumerate(model.layers):
            p = f"layer{i}."
            weights = [w for w in layer if isinstance(w, np.ndarray) and w.ndim == 2]
            names = ["attn.Wq|attn.Wk|attn.Wv", "attn.Wo", "ffn.W1", "ffn.W2"]
            assert len(weights) == len(names)
            for w, name in zip(weights, names):
                expected = np.concatenate([given[p + n] for n in name.split("|")], axis=1)
                assert w.strides[-1] < 0 and not w.flags.writeable, p + name
                assert w.tobytes() == expected.tobytes(), p + name
            # Wq, Wk and Wv are views of the fused weight, not a second copy
            for c in "qkv":
                assert np.shares_memory(model.tensors[f"{p}attn.W{c}"], weights[0]), c
        w = model.head[1]
        assert w.strides[-1] < 0 and w.tobytes() == given["lm_head.W"].tobytes()
        for name, arr in given.items():
            assert model.tensors[name].tobytes() == arr.tobytes(), name

    def test_cache_buffers_are_stored_backwards(self, tiny_model):
        cfg, rng = tiny_model.config, np.random.default_rng(4)
        prompts = [TokenSeq(tuple(rng.integers(0, 32, size=3).tolist()), PLAINTEXT) for _ in range(2)]
        source = KVCache(tiny_model, 0, cfg.n_layers - 1, 2)
        greedy_decode(source, prompts, 2)
        taken = source.take([1, 0, 1])
        fresh = KVCache(tiny_model, 0, cfg.n_layers - 1, 3)
        greedy_decode(fresh, [prompts[1], prompts[0], prompts[1]], 2)
        for cache in (source, taken, fresh):
            assert cache.length == 4
            assert all(kv.strides[-1] < 0 and kv.strides[-2] < 0 for kv in cache.kv)
        for got, want in zip(taken.kv, fresh.kv):
            assert got[:, :, :, :4].tobytes() == want[:, :, :, :4].tobytes()
        # layer 0's keys and values from the public kernels, rows 0..2
        t, ids = tiny_model.tensors, [seq.ids for seq in prompts]
        h = layer_norm(embed_positions(tiny_model, ids), t["layer0.attn_norm.gain"],
                       t["layer0.attn_norm.offset"], cfg.effective_norm_eps)
        for half, c in enumerate("kv"):
            rows = matmul(h, t[f"layer0.attn.W{c}"]) + t[f"layer0.attn.b{c}"]
            want = rows.reshape(2, 3, cfg.n_heads, cfg.d_head).transpose(0, 2, 1, 3)
            assert source.kv[0][half, :, :, :3].tobytes() == want.tobytes(), c


class TestContainer:
    def test_round_trip_bit_exact(self, tiny_model, tmp_path):
        p = tmp_path / "m.eem"
        save_model(tiny_model, p)
        loaded = load_model(p)
        assert loaded.config == tiny_model.config
        assert loaded.domain == tiny_model.domain
        for name in tiny_model.tensors:
            assert loaded.tensors[name].tobytes() == tiny_model.tensors[name].tobytes()

    def test_domain_tag_round_trip(self, tiny_model, tmp_path):
        # same tensors, ciphertext tag: the tag must survive the container
        enc_like = ModelBundle(tiny_model.config, CIPHERTEXT, dict(tiny_model.tensors))
        p = tmp_path / "c.eem"
        save_model(enc_like, p)
        assert load_model(p).domain == CIPHERTEXT

    def test_truncated_file(self, tiny_model, tmp_path):
        p = tmp_path / "m.eem"
        save_model(tiny_model, p)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError):
            load_model(p)

    def test_truncated_header(self, tiny_model, tmp_path):
        p = tmp_path / "m.eem"
        save_model(tiny_model, p)
        p.write_bytes(p.read_bytes()[:10])
        with pytest.raises(FormatError):
            load_model(p)

    def test_bad_magic(self, tiny_model, tmp_path):
        p = tmp_path / "m.eem"
        save_model(tiny_model, p)
        data = bytearray(p.read_bytes())
        data[0] ^= 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_model(p)

    def test_corrupt_payload_byte(self, tiny_model, tmp_path):
        p = tmp_path / "m.eem"
        save_model(tiny_model, p)
        data = bytearray(p.read_bytes())
        data[-5] ^= 0x01
        p.write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match="CRC32"):
            load_model(p)

    @staticmethod
    def _rewrite_header(path, mutate):
        data = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", data, len(MODEL_MAGIC))
        start = len(MODEL_MAGIC) + 4
        header = json.loads(data[start : start + hlen])
        mutate(header)
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(
            data[: len(MODEL_MAGIC)]
            + struct.pack("<I", len(new_header))
            + new_header
            + data[start + hlen :]
        )

    def test_edited_vocab_size_is_integrity_error(self, tiny_model, tmp_path):
        p = tmp_path / "m.eem"
        save_model(tiny_model, p)
        self._rewrite_header(p, lambda h: h["config"].__setitem__("vocab_size", 64))
        with pytest.raises(IntegrityError):
            load_model(p)

    def test_non_numeric_norm_eps_is_format_error(self, tiny_model, tmp_path):
        p = tmp_path / "m.eem"
        save_model(tiny_model, p)
        self._rewrite_header(p, lambda h: h["config"].__setitem__("norm_eps", "x"))
        with pytest.raises(FormatError, match="norm_eps"):
            load_model(p)

    @pytest.mark.parametrize("tensors", [5, None, True])
    def test_tensors_field_not_a_list_is_format_error(self, tiny_model, tmp_path, tensors):
        # iterating one used to end in a bare TypeError
        p = tmp_path / "m.eem"
        save_model(tiny_model, p)
        self._rewrite_header(p, lambda h: h.__setitem__("tensors", tensors))
        with pytest.raises(FormatError, match="tensors"):
            load_model(p)

    def test_version_bump_rejected(self, tiny_model, tmp_path):
        p = tmp_path / "m.eem"
        save_model(tiny_model, p)
        self._rewrite_header(p, lambda h: h.__setitem__("format_version", 99))
        with pytest.raises(VersionError):
            load_model(p)

    def test_header_garbage_is_format_error(self, tiny_model, tmp_path):
        p = tmp_path / "m.eem"
        save_model(tiny_model, p)
        data = bytearray(p.read_bytes())
        data[len(MODEL_MAGIC) + 4] = 0xFF  # first header byte: no longer JSON
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="JSON"):
            load_model(p)


def test_expected_shapes_cover_init(tiny_config, tiny_model):
    shapes = expected_tensor_shapes(tiny_config)
    assert set(shapes) == set(tiny_model.tensors)
    for name, shape in shapes.items():
        assert tiny_model.tensors[name].shape == shape
