"""Encryption engine tests. The weight-transform rules are cross-checked
against explicit permutation-matrix products, which are bit-exact because a
permutation matmul only ever gathers single elements."""
from __future__ import annotations

import hashlib
import json
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eeinfer.bench import Arms, compare_arms
from eeinfer.encryption import (
    KEY_MAGIC,
    EEKey,
    _block_table,
    check_pairing,
    decrypt_logits,
    decrypt_tokens,
    encrypt_model,
    encrypt_tokens,
    keygen,
    load_key,
    save_key,
)
from eeinfer.errors import (
    DomainError,
    FormatError,
    IntegrityError,
    PairingError,
    RangeError,
    ShapeError,
    VersionError,
)
from eeinfer.model import (
    CIPHERTEXT,
    PLAINTEXT,
    ModelBundle,
    TokenSeq,
    forward,
    greedy_decode,
    init_model,
    make_config,
    save_model,
)
from eeinfer.tensor_ops import PermTable, matmul

# first seed whose initial 5-element draw is [2, 0, 1, 4, 3], found by search
SEED_FOR_20143 = 178

# SHA-256 of save_key(key) and of save_model(encrypt_model(key, model)) bytes,
# recorded before key tables and tensor rewrites were read from the layout
# tables: (config kwargs, model seed, key seed, key digest, model digest)
GOLDEN_FILES = [
    (
        dict(vocab_size=32, d_model=16, n_layers=2, n_heads=2, d_ff=32, max_seq_len=8),
        42, 1234,
        "8adf3789734c1916f6a0c5b7e662c6b55a90d9f3d5cb28b718bd61feb9ab8931",
        "41f6caeff05a2ac5b431f2cdb53351c0e9e60e91fb6b76f3382bd18a7db69547",
    ),
    (
        dict(vocab_size=16, d_model=8, n_layers=1, n_heads=1, d_ff=16, max_seq_len=6,
             norm_kind="rmsnorm", act_kind="relu"),
        7, 5,
        "679de5d96978b718db4406ea9b21d39a8d5b02184fb637264a9f5bb27b88a6a7",
        "d5bed8c361b5d50d0ce13c6a064c08a3fd41f0f742eff42487f6905c0794fe35",
    ),
]


@pytest.fixture(scope="module")
def tiny_key(tiny_config):
    return keygen(tiny_config, 1234)


@pytest.fixture(scope="module")
def tiny_enc(tiny_model, tiny_key):
    return encrypt_model(tiny_key, tiny_model)


class TestKeygen:
    def test_deterministic(self, tiny_config):
        assert keygen(tiny_config, 9) == keygen(tiny_config, 9)

    def test_seed_changes_key(self, tiny_config):
        assert keygen(tiny_config, 1) != keygen(tiny_config, 2)

    def test_identity_mode(self, tiny_config, tiny_model):
        key = keygen(tiny_config, 5, identity=True)
        assert key.is_identity
        enc = encrypt_model(key, tiny_model)
        for name in tiny_model.tensors:
            assert enc.tensors[name].tobytes() == tiny_model.tensors[name].tobytes()

    def test_documented_seed_example(self):
        cfg = make_config(vocab_size=5, d_model=4, n_layers=1, n_heads=1, d_ff=4, max_seq_len=4)
        key = keygen(cfg, SEED_FOR_20143)
        assert key.vocab_perm.map.tolist() == [2, 0, 1, 4, 3]
        enc = encrypt_tokens(key, TokenSeq((0, 3), PLAINTEXT))
        assert enc.ids == (2, 4)

    def test_fingerprint_binds_config(self, tiny_config, micro_config):
        assert keygen(tiny_config, 1).model_fingerprint != keygen(micro_config, 1).model_fingerprint

    def test_table_sizes(self, tiny_config, tiny_key):
        assert tiny_key.layout == dict(vocab_n=32, resid_n=16, n_layers=2, n_heads=2,
                                       ffn_n=32, head_n=8)
        groups = tiny_key.groups()
        assert groups["vocab", None] == (tiny_key.vocab_perm,)
        assert tiny_key.vocab_perm.n == tiny_config.vocab_size
        assert groups["resid", None][0].n == tiny_config.d_model
        for i in range(tiny_config.n_layers):
            assert [t.n for t in groups["ffn", i]] == [tiny_config.d_ff]
            for kind in ("qk", "v"):
                assert [t.n for t in groups[kind, i]] == [tiny_config.d_head] * tiny_config.n_heads
        assert len(groups) == 2 + 3 * tiny_config.n_layers


class TestTokenCrypto:
    def test_identity_key_noop(self, tiny_config):
        key = keygen(tiny_config, 0, identity=True)
        assert encrypt_tokens(key, TokenSeq((7, 7, 7), PLAINTEXT)).ids == (7, 7, 7)

    def test_explicit_inverse_lookup(self):
        cfg = make_config(vocab_size=5, d_model=4, n_layers=1, n_heads=1, d_ff=4, max_seq_len=4)
        key = keygen(cfg, SEED_FOR_20143)  # vocab map [2,0,1,4,3]
        assert decrypt_tokens(key, TokenSeq((2, 4), CIPHERTEXT)).ids == (0, 3)

    def test_round_trip_random_sequences(self, tiny_key):
        rng = np.random.default_rng(3)
        for _ in range(200):
            ids = tuple(int(x) for x in rng.integers(0, 32, size=rng.integers(1, 9)))
            s = TokenSeq(ids, PLAINTEXT)
            assert decrypt_tokens(tiny_key, encrypt_tokens(tiny_key, s)).ids == ids

    def test_domain_guards(self, tiny_key):
        with pytest.raises(DomainError):
            encrypt_tokens(tiny_key, TokenSeq((1,), CIPHERTEXT))
        with pytest.raises(DomainError):
            decrypt_tokens(tiny_key, TokenSeq((1,), PLAINTEXT))

    def test_range_guard(self, tiny_key):
        with pytest.raises(RangeError):
            encrypt_tokens(tiny_key, TokenSeq((32,), PLAINTEXT))

    @settings(derandomize=True, max_examples=100)
    @given(st.lists(st.integers(0, 31), min_size=1, max_size=12))
    def test_round_trip_property(self, tiny_key, ids):
        s = TokenSeq(tuple(ids), PLAINTEXT)
        back = decrypt_tokens(tiny_key, encrypt_tokens(tiny_key, s))
        assert back.ids == s.ids and back.domain == PLAINTEXT


class TestEncryptModel:
    def test_domain_tag_and_shapes(self, tiny_model, tiny_enc):
        assert tiny_enc.domain == CIPHERTEXT
        for name in tiny_model.tensors:
            assert tiny_enc.tensors[name].shape == tiny_model.tensors[name].shape

    def test_double_encryption_rejected(self, tiny_key, tiny_enc):
        with pytest.raises(DomainError):
            encrypt_model(tiny_key, tiny_enc)

    def test_pairing_guard(self, micro_config, tiny_model):
        with pytest.raises(PairingError):
            encrypt_model(keygen(micro_config, 1), tiny_model)

    def test_check_pairing_rejects_forged_sizes(self, tiny_config):
        key = keygen(tiny_config, 1)
        # a wrong-sized table cannot be built into a key at all
        with pytest.raises(PairingError):
            EEKey(key.seed, key.model_fingerprint, key.layout,
                  (PermTable.identity(5),) + key.tables[1:])
        # a layout forged to fit it builds, but does not pair: right fingerprint,
        # wrong vocabulary size
        forged = EEKey(key.seed, key.model_fingerprint, {**key.layout, "vocab_n": 5},
                       (PermTable.identity(5),) + key.tables[1:])
        with pytest.raises(PairingError):
            check_pairing(forged, tiny_config)

    def test_blindness_embedding_reordered(self, tiny_model, tiny_enc):
        assert (
            tiny_enc.tensors["embedding"].tobytes()
            != tiny_model.tensors["embedding"].tobytes()
        )

    def test_check_pairing_rejects_regrouped_tables(self):
        """The layout alone groups the tables. One that regroups them so that
        the flat stream of sizes still lines up (d_ff == d_head: ten layers
        of one FFN table and no heads) builds, but must not pair; one that
        regroups them into other sizes cannot be built."""
        two_heads = make_config(vocab_size=9, d_model=8, n_layers=2, n_heads=2, d_ff=4, max_seq_len=4)
        key = keygen(two_heads, 3)
        regrouped = EEKey(key.seed, key.model_fingerprint,
                          {**key.layout, "n_layers": 10, "n_heads": 0}, key.tables)
        assert [t.n for t in regrouped.tables] == [t.n for t in key.tables]
        assert regrouped.groups().keys() != key.groups().keys()
        with pytest.raises(PairingError):
            check_pairing(regrouped, two_heads)
        with pytest.raises(PairingError):
            encrypt_model(regrouped, init_model(two_heads, 1))
        with pytest.raises(PairingError):
            EEKey(key.seed, key.model_fingerprint, {**key.layout, "n_heads": 1}, key.tables)

    def test_matrix_form_oracle_bit_exact(self):
        """Every tensor must equal the explicit matrix conjugation."""
        for norm_kind, act_kind in (("layernorm", "gelu"), ("rmsnorm", "silu")):
            self._check_matrix_form(norm_kind, act_kind)

    def _check_matrix_form(self, norm_kind, act_kind):
        cfg = make_config(vocab_size=11, d_model=8, n_layers=2, n_heads=2, d_ff=10, max_seq_len=5,
                          norm_kind=norm_kind, act_kind=act_kind)
        # random values everywhere, so that permuted norm gains and offsets differ
        rng = np.random.default_rng(5)
        m = init_model(cfg, 31)
        m = ModelBundle(cfg, PLAINTEXT, {n: rng.normal(size=a.shape) for n, a in m.tensors.items()})
        key = keygen(cfg, 77)
        enc = encrypt_model(key, m)
        groups = key.groups()
        pv = key.vocab_perm.matrix()
        pr = groups["resid", None][0].matrix()

        def conj(w, p_in, p_out):
            # stored orientation (in, out): expected = P_in @ W @ P_out.T
            return matmul(matmul(p_in, w), p_out.T)

        def vec(b, p_out):
            return matmul(b[None, :], p_out.T)[0]

        t = m.tensors
        expected = {
            "embedding": conj(t["embedding"], pv, pr),
            "pos_embedding": matmul(t["pos_embedding"], pr.T),
            "lm_head.W": conj(t["lm_head.W"], pr, pv),
            "lm_head.b": vec(t["lm_head.b"], pv),
        }
        norms = ["final_norm"]
        for i in range(cfg.n_layers):
            p = f"layer{i}"
            pqk = _block_table(groups["qk", i], cfg.d_head).matrix()
            pvv = _block_table(groups["v", i], cfg.d_head).matrix()
            pf = groups["ffn", i][0].matrix()
            expected[f"{p}.attn.Wq"] = conj(t[f"{p}.attn.Wq"], pr, pqk)
            expected[f"{p}.attn.Wk"] = conj(t[f"{p}.attn.Wk"], pr, pqk)
            expected[f"{p}.attn.Wv"] = conj(t[f"{p}.attn.Wv"], pr, pvv)
            expected[f"{p}.attn.Wo"] = conj(t[f"{p}.attn.Wo"], pvv, pr)
            expected[f"{p}.attn.bq"] = vec(t[f"{p}.attn.bq"], pqk)
            expected[f"{p}.attn.bk"] = vec(t[f"{p}.attn.bk"], pqk)
            expected[f"{p}.attn.bv"] = vec(t[f"{p}.attn.bv"], pvv)
            expected[f"{p}.attn.bo"] = vec(t[f"{p}.attn.bo"], pr)
            expected[f"{p}.ffn.W1"] = conj(t[f"{p}.ffn.W1"], pr, pf)
            expected[f"{p}.ffn.b1"] = vec(t[f"{p}.ffn.b1"], pf)
            expected[f"{p}.ffn.W2"] = conj(t[f"{p}.ffn.W2"], pf, pr)
            expected[f"{p}.ffn.b2"] = vec(t[f"{p}.ffn.b2"], pr)
            norms += [f"{p}.attn_norm", f"{p}.ffn_norm"]
        for norm in norms:
            expected[f"{norm}.gain"] = vec(t[f"{norm}.gain"], pr)
            if norm_kind == "layernorm":
                expected[f"{norm}.offset"] = vec(t[f"{norm}.offset"], pr)
        assert set(expected) == set(enc.tensors)
        for name, want in expected.items():
            assert enc.tensors[name].tobytes() == want.tobytes(), (norm_kind, name)
        assert (enc.tensors["final_norm.gain"] != t["final_norm.gain"]).any()


class TestDecryptLogits:
    def test_identity_unchanged(self, tiny_config):
        key = keygen(tiny_config, 3, identity=True)
        logits = np.arange(64, dtype=np.float64).reshape(2, 32)
        assert np.array_equal(decrypt_logits(key, logits), logits)

    def test_one_hot_moves_to_plaintext_slot(self, tiny_key):
        e = 13
        row = np.zeros((1, 32))
        row[0, e] = 1.0
        out = decrypt_logits(tiny_key, row)
        assert out[0, tiny_key.vocab_perm.inv_map[e]] == 1.0
        assert out.sum() == 1.0

    def test_column_mismatch(self, tiny_key):
        with pytest.raises(ShapeError):
            decrypt_logits(tiny_key, np.zeros((1, 31)))

    def test_argmax_invariance(self, tiny_model, tiny_key, tiny_enc):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ids = tuple(int(x) for x in rng.integers(0, 32, size=4))
            c = encrypt_tokens(tiny_key, TokenSeq(ids, PLAINTEXT))
            enc_logits = forward(tiny_enc, c)
            enc_argmax = int(np.argmax(enc_logits[-1]))
            dec_argmax = int(np.argmax(decrypt_logits(tiny_key, enc_logits)[-1]))
            assert dec_argmax == int(tiny_key.vocab_perm.inv_map[enc_argmax])


class TestEquivariance:
    def test_random_key_logits_and_tokens(self, tiny_model, tiny_key):
        rng = np.random.default_rng(2)
        prompts = [
            TokenSeq(tuple(int(x) for x in rng.integers(0, 32, size=5)), PLAINTEXT)
            for _ in range(10)
        ]
        _, rep = compare_arms(Arms(tiny_model, tiny_key), prompts, n_new=3)
        assert rep.max_abs_logit_diff <= 1e-9
        assert rep.token_match and rep.recoverability_ok
        assert rep.n_prompts == 10

    def test_min_top2_margin_over_decoded_positions(self, tiny_model, tiny_key):
        arms = Arms(tiny_model, tiny_key)
        prompt = TokenSeq((4, 9, 1), PLAINTEXT)
        _, rep = compare_arms(arms, [prompt], n_new=4)
        out = greedy_decode(tiny_model, prompt, 4)
        margins = []
        for pos in range(2, 6):  # the rows that chose tokens 3..6
            row = np.sort(forward(tiny_model, TokenSeq(out.ids[: pos + 1], PLAINTEXT))[-1])
            margins.append(row[-1] - row[-2])
        assert rep.min_top2_margin == min(margins) > 0
        _, rep = compare_arms(arms, [prompt], n_new=0)
        assert rep.min_top2_margin == math.inf

    def test_identity_key_exact_zero(self, tiny_model, tiny_config):
        arms = Arms(tiny_model, keygen(tiny_config, 0, identity=True))
        _, rep = compare_arms(arms, [TokenSeq((1, 2, 3), PLAINTEXT)], n_new=2)
        assert rep.max_abs_logit_diff == 0.0

    def test_mismatched_key_pairing_error(self, tiny_model, micro_config):
        with pytest.raises(PairingError):
            Arms(tiny_model, keygen(micro_config, 1))

    def test_greedy_equivalence_direct(self, tiny_model, tiny_key, tiny_enc):
        p = TokenSeq((3, 14, 15), PLAINTEXT)
        plain = greedy_decode(tiny_model, p, 4)
        cipher = greedy_decode(tiny_enc, encrypt_tokens(tiny_key, p), 4)
        assert decrypt_tokens(tiny_key, cipher).ids == plain.ids


class TestKeyContainer:
    def test_round_trip(self, tiny_key, tmp_path):
        p = tmp_path / "k.eekey"
        save_key(tiny_key, p)
        assert load_key(p) == tiny_key

    @pytest.mark.parametrize("cfg_kwargs,model_seed,key_seed,key_sha,model_sha", GOLDEN_FILES)
    def test_golden_file_bytes(self, cfg_kwargs, model_seed, key_seed, key_sha, model_sha, tmp_path):
        cfg = make_config(**cfg_kwargs)
        key = keygen(cfg, key_seed)
        save_key(key, tmp_path / "k.eekey")
        save_model(encrypt_model(key, init_model(cfg, model_seed)), tmp_path / "m.eem")
        assert hashlib.sha256((tmp_path / "k.eekey").read_bytes()).hexdigest() == key_sha
        assert hashlib.sha256((tmp_path / "m.eem").read_bytes()).hexdigest() == model_sha
        assert load_key(tmp_path / "k.eekey") == key

    def test_same_key_same_bytes(self, tiny_key, tmp_path):
        a, b = tmp_path / "a.eekey", tmp_path / "b.eekey"
        save_key(tiny_key, a)
        save_key(tiny_key, b)
        assert a.read_bytes() == b.read_bytes()

    def test_flipped_payload_byte(self, tiny_key, tmp_path):
        p = tmp_path / "k.eekey"
        save_key(tiny_key, p)
        data = bytearray(p.read_bytes())
        data[-10] ^= 0x01
        p.write_bytes(bytes(data))
        with pytest.raises(IntegrityError):
            load_key(p)

    def test_version_bump(self, tiny_key, tmp_path):
        p = tmp_path / "k.eekey"
        save_key(tiny_key, p)
        data = p.read_bytes()
        (hlen,) = struct.unpack_from("<I", data, len(KEY_MAGIC))
        start = len(KEY_MAGIC) + 4
        header = json.loads(data[start : start + hlen])
        header["format_version"] = 2
        nh = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        p.write_bytes(data[: len(KEY_MAGIC)] + struct.pack("<I", len(nh)) + nh + data[start + hlen :])
        with pytest.raises(VersionError):
            load_key(p)

    def test_table_not_a_bijection(self, tiny_key, tmp_path):
        # a valid CRC over a residual table that repeats an entry: a malformed
        # file, reported at the table's first byte
        p = tmp_path / "k.eekey"
        save_key(tiny_key, p)
        data = bytearray(p.read_bytes())
        (hlen,) = struct.unpack_from("<I", data, len(KEY_MAGIC))
        body_start = len(KEY_MAGIC) + 4 + hlen
        resid = body_start + 4 * tiny_key.vocab_perm.n
        data[resid : resid + 4] = data[resid + 4 : resid + 8]  # entry 0 repeats entry 1
        data[-4:] = struct.pack("<I", zlib.crc32(data[body_start:-4]) & 0xFFFFFFFF)
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="key table 1") as info:
            load_key(p)
        assert info.value.offset == resid

    def test_truncation(self, tiny_key, tmp_path):
        p = tmp_path / "k.eekey"
        save_key(tiny_key, p)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) - 30])
        with pytest.raises(FormatError):
            load_key(p)

    def test_loaded_key_still_decrypts(self, tiny_model, tiny_key, tiny_enc, tmp_path):
        p = tmp_path / "k.eekey"
        save_key(tiny_key, p)
        key2 = load_key(p)
        prompt = TokenSeq((9, 2), PLAINTEXT)
        a = forward(tiny_model, prompt)
        b = decrypt_logits(key2, forward(tiny_enc, encrypt_tokens(key2, prompt)))
        assert np.max(np.abs(a - b)) <= 1e-9
