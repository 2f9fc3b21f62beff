"""Keyed permutation transforms: the encryption engine.

A key is a bundle of permutations: one over the vocabulary, one over the
residual stream (shared by every layer, because residual additions force all
residual-facing interfaces to agree), one per layer over the FFN hidden axis,
and per layer per head one shared table for Q/K (so attention scores cancel,
P^T P = I inside Q K^T) and one for V.

encrypt_model rewrites weights by pure integer gathers, no arithmetic, so the
transformed model is produced exactly and the identity key is a byte-level
no-op. The encrypted model then runs the completely unmodified forward pass:
same operation count, same layer order, same shapes.

Weights are stored (in_dim, out_dim); in that orientation the column-vector
rule W' = A W B^T becomes stored' = stored[inv_B rows][:, inv_A cols]. The
test suite cross-checks every family against explicit permutation-matrix
products, which are bit-exact because each output element is a single gather.
"""
from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .containers import read_container, write_container
from .errors import (
    DomainError,
    FormatError,
    IntegrityError,
    PairingError,
    RangeError,
    ShapeError,
    VersionError,
)
from .model import (
    CIPHERTEXT,
    PLAINTEXT,
    ModelBundle,
    ModelConfig,
    TokenSeq,
    config_fingerprint,
    forward,
    greedy_decode,
)
from .tensor_ops import PermTable, as_matrix

KEY_MAGIC = b"EEKEY001"
KEY_FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class EEKey:
    """A full permutation bundle bound to one model configuration."""

    version: int
    seed: int
    model_fingerprint: str
    vocab_perm: PermTable
    resid_perm: PermTable
    ffn_perms: tuple[PermTable, ...]
    qk_perms: tuple[tuple[PermTable, ...], ...]  # [layer][head], shared by Q and K
    v_perms: tuple[tuple[PermTable, ...], ...]  # [layer][head]

    def __post_init__(self) -> None:
        n_layers = len(self.ffn_perms)
        if len(self.qk_perms) != n_layers or len(self.v_perms) != n_layers:
            raise PairingError("per-layer table counts disagree inside the key")
        for qk_layer, v_layer in zip(self.qk_perms, self.v_perms):
            if len(qk_layer) != len(v_layer):
                raise PairingError("per-head table counts disagree inside the key")

    @property
    def n_layers(self) -> int:
        return len(self.ffn_perms)

    @property
    def is_identity(self) -> bool:
        tables = [self.vocab_perm, self.resid_perm, *self.ffn_perms]
        for layer_tables in (*self.qk_perms, *self.v_perms):
            tables.extend(layer_tables)
        return all(t.is_identity for t in tables)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EEKey):
            return NotImplemented
        return (
            self.version == other.version
            and self.seed == other.seed
            and self.model_fingerprint == other.model_fingerprint
            and self.vocab_perm == other.vocab_perm
            and self.resid_perm == other.resid_perm
            and self.ffn_perms == other.ffn_perms
            and self.qk_perms == other.qk_perms
            and self.v_perms == other.v_perms
        )


@dataclass(frozen=True)
class EquivarianceReport:
    """Plaintext against decrypted ciphertext inference over a prompt set.

    ``min_top2_margin`` is the smallest gap between the largest and the
    second-largest plaintext logit over every position whose argmax greedy
    decoding emitted (``inf`` when n_new is 0). A token match resting on a
    margin near the logit difference could flip under rounding.
    """

    n_prompts: int
    max_abs_logit_diff: float
    token_match: bool
    recoverability_ok: bool
    tol: float
    min_top2_margin: float

    @property
    def logits_within_tol(self) -> bool:
        return self.max_abs_logit_diff <= self.tol


def keygen(config: ModelConfig, seed: int, identity: bool = False) -> EEKey:
    """Draw every table with a seeded generator (Fisher-Yates shuffles).

    Draw order is fixed: vocabulary, residual, then per layer the FFN table,
    the per-head Q/K tables, and the per-head V tables. identity=True is the
    reserved mode that yields the do-nothing key (seed is still recorded).
    """
    rng = np.random.default_rng(seed)

    def draw(n: int) -> PermTable:
        if identity:
            return PermTable.identity(n)
        return PermTable.random(n, rng)

    vocab = draw(config.vocab_size)
    resid = draw(config.d_model)
    ffn: list[PermTable] = []
    qk: list[tuple[PermTable, ...]] = []
    v: list[tuple[PermTable, ...]] = []
    for _ in range(config.n_layers):
        ffn.append(draw(config.d_ff))
        qk.append(tuple(draw(config.d_head) for _ in range(config.n_heads)))
        v.append(tuple(draw(config.d_head) for _ in range(config.n_heads)))
    return EEKey(
        version=KEY_FORMAT_VERSION,
        seed=int(seed),
        model_fingerprint=config_fingerprint(config),
        vocab_perm=vocab,
        resid_perm=resid,
        ffn_perms=tuple(ffn),
        qk_perms=tuple(qk),
        v_perms=tuple(v),
    )


def check_pairing(key: EEKey, config: ModelConfig) -> None:
    """Key/model binding: fingerprint first, then structural sizes."""
    if key.model_fingerprint != config_fingerprint(config):
        raise PairingError(
            "key fingerprint does not match this model config; "
            "generate the key for the exact config it will encrypt"
        )
    ok = (
        key.vocab_perm.n == config.vocab_size
        and key.resid_perm.n == config.d_model
        and key.n_layers == config.n_layers
        and all(t.n == config.d_ff for t in key.ffn_perms)
        and all(len(layer) == config.n_heads for layer in key.qk_perms)
        and all(t.n == config.d_head for layer in key.qk_perms for t in layer)
        and all(t.n == config.d_head for layer in key.v_perms for t in layer)
    )
    if not ok:
        raise PairingError("key table sizes do not fit the model config")


def encrypt_tokens(key: EEKey, s: TokenSeq) -> TokenSeq:
    if s.domain != PLAINTEXT:
        raise DomainError("encrypt_tokens expects a plaintext sequence")
    _check_token_range(key, s)
    return TokenSeq(tuple(int(key.vocab_perm.map[i]) for i in s.ids), CIPHERTEXT)


def decrypt_tokens(key: EEKey, s: TokenSeq) -> TokenSeq:
    if s.domain != CIPHERTEXT:
        raise DomainError("decrypt_tokens expects a ciphertext sequence")
    _check_token_range(key, s)
    return TokenSeq(tuple(int(key.vocab_perm.inv_map[i]) for i in s.ids), PLAINTEXT)


def _check_token_range(key: EEKey, s: TokenSeq) -> None:
    if s.ids and max(s.ids) >= key.vocab_perm.n:
        raise RangeError(
            f"token id {max(s.ids)} out of range for vocabulary size {key.vocab_perm.n}"
        )


def _block_table(per_head: Sequence[PermTable], d_head: int) -> PermTable:
    """Per-head tables glued into one table over the concatenated head axis."""
    parts = [t.map + h * d_head for h, t in enumerate(per_head)]
    return PermTable(np.concatenate(parts))


def encrypt_model(key: EEKey, m: ModelBundle) -> ModelBundle:
    """Offline one-time transform; every rewrite is an integer gather."""
    if m.domain != PLAINTEXT:
        raise DomainError("model is already in the ciphertext domain")
    check_pairing(key, m.config)
    cfg = m.config
    inv_v = key.vocab_perm.inv_map
    inv_r = key.resid_perm.inv_map
    src = m.tensors
    out: dict[str, np.ndarray] = {
        "embedding": src["embedding"][np.ix_(inv_v, inv_r)],
        "pos_embedding": src["pos_embedding"][:, inv_r],
    }
    has_offset = cfg.norm_kind == "layernorm"
    for i in range(cfg.n_layers):
        p = f"layer{i}"
        inv_qk = _block_table(key.qk_perms[i], cfg.d_head).inv_map
        inv_vv = _block_table(key.v_perms[i], cfg.d_head).inv_map
        inv_f = key.ffn_perms[i].inv_map
        out[f"{p}.attn_norm.gain"] = src[f"{p}.attn_norm.gain"][inv_r]
        if has_offset:
            out[f"{p}.attn_norm.offset"] = src[f"{p}.attn_norm.offset"][inv_r]
        out[f"{p}.attn.Wq"] = src[f"{p}.attn.Wq"][np.ix_(inv_r, inv_qk)]
        out[f"{p}.attn.Wk"] = src[f"{p}.attn.Wk"][np.ix_(inv_r, inv_qk)]
        out[f"{p}.attn.Wv"] = src[f"{p}.attn.Wv"][np.ix_(inv_r, inv_vv)]
        out[f"{p}.attn.Wo"] = src[f"{p}.attn.Wo"][np.ix_(inv_vv, inv_r)]
        out[f"{p}.attn.bq"] = src[f"{p}.attn.bq"][inv_qk]
        out[f"{p}.attn.bk"] = src[f"{p}.attn.bk"][inv_qk]
        out[f"{p}.attn.bv"] = src[f"{p}.attn.bv"][inv_vv]
        out[f"{p}.attn.bo"] = src[f"{p}.attn.bo"][inv_r]
        out[f"{p}.ffn_norm.gain"] = src[f"{p}.ffn_norm.gain"][inv_r]
        if has_offset:
            out[f"{p}.ffn_norm.offset"] = src[f"{p}.ffn_norm.offset"][inv_r]
        out[f"{p}.ffn.W1"] = src[f"{p}.ffn.W1"][np.ix_(inv_r, inv_f)]
        out[f"{p}.ffn.b1"] = src[f"{p}.ffn.b1"][inv_f]
        out[f"{p}.ffn.W2"] = src[f"{p}.ffn.W2"][np.ix_(inv_f, inv_r)]
        out[f"{p}.ffn.b2"] = src[f"{p}.ffn.b2"][inv_r]
    out["final_norm.gain"] = src["final_norm.gain"][inv_r]
    if has_offset:
        out["final_norm.offset"] = src["final_norm.offset"][inv_r]
    out["lm_head.W"] = src["lm_head.W"][np.ix_(inv_r, inv_v)]
    out["lm_head.b"] = src["lm_head.b"][inv_v]
    return ModelBundle(cfg, CIPHERTEXT, out)


def decrypt_logits(key: EEKey, logits: object) -> np.ndarray:
    """Un-permute the vocabulary axis: out[:, i] = logits[:, vocab_map[i]]."""
    arr = as_matrix(logits, "logits")
    if arr.shape[1] != key.vocab_perm.n:
        raise ShapeError(
            f"logits have {arr.shape[1]} columns, key expects {key.vocab_perm.n}"
        )
    return arr[:, key.vocab_perm.map]


def verify_equivariance(
    m: ModelBundle,
    key: EEKey,
    prompts: Sequence[TokenSeq],
    n_new: int,
    tol: float = 1e-9,
) -> EquivarianceReport:
    """Run the plaintext and ciphertext pipelines side by side and compare."""
    if m.domain != PLAINTEXT:
        raise DomainError("verify_equivariance expects the plaintext model")
    check_pairing(key, m.config)
    enc = encrypt_model(key, m)
    max_diff = 0.0
    token_match = True
    recoverable = True
    margin = math.inf
    for prompt in prompts:
        c_prompt = encrypt_tokens(key, prompt)
        recoverable &= decrypt_tokens(key, c_prompt).ids == prompt.ids
        if n_new == 0:
            plain_logits = forward(m, prompt)
        else:
            plain_out = greedy_decode(m, prompt, n_new)
            cipher_out = decrypt_tokens(key, greedy_decode(enc, c_prompt, n_new))
            token_match &= plain_out.ids == cipher_out.ids
            # forward is row-local: its rows equal what decoding saw at each position,
            # and its first len(prompt) rows equal a pass over the prompt alone
            plain_logits = forward(m, TokenSeq(plain_out.ids[:-1], PLAINTEXT))
            top2 = np.sort(plain_logits[len(prompt) - 1 :], axis=1)[:, -2:]
            margin = min(margin, float(np.min(top2[:, 1] - top2[:, 0])))
        cipher_logits = decrypt_logits(key, forward(enc, c_prompt))
        diff = plain_logits[: len(prompt)] - cipher_logits
        max_diff = max(max_diff, float(np.max(np.abs(diff))))
    return EquivarianceReport(
        n_prompts=len(prompts),
        max_abs_logit_diff=max_diff,
        token_match=token_match,
        recoverability_ok=recoverable,
        tol=tol,
        min_top2_margin=margin,
    )


def _key_tables(key: EEKey) -> list[PermTable]:
    """Canonical flat order: vocab, resid, then per layer ffn, qk heads, v heads."""
    tables = [key.vocab_perm, key.resid_perm]
    for i in range(key.n_layers):
        tables.append(key.ffn_perms[i])
        tables.extend(key.qk_perms[i])
        tables.extend(key.v_perms[i])
    return tables


def save_key(key: EEKey, path: str | Path) -> None:
    n_heads = len(key.qk_perms[0]) if key.qk_perms else 0
    header = {
        "format_version": key.version,
        "seed": key.seed,
        "model_fingerprint": key.model_fingerprint,
        "layout": {
            "vocab_n": key.vocab_perm.n,
            "resid_n": key.resid_perm.n,
            "n_layers": key.n_layers,
            "n_heads": n_heads,
            "ffn_n": key.ffn_perms[0].n if key.ffn_perms else 0,
            "head_n": key.qk_perms[0][0].n if n_heads else 0,
        },
    }
    payload = b"".join(t.map.astype("<u4").tobytes() for t in _key_tables(key))
    payload += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    write_container(path, KEY_MAGIC, header, payload)


def load_key(path: str | Path) -> EEKey:
    header, payload, payload_base = read_container(path, KEY_MAGIC)
    version = header.get("format_version")
    if version != KEY_FORMAT_VERSION:
        raise VersionError(f"unsupported key format version {version!r}")
    try:
        layout = header["layout"]
        seed = int(header["seed"])
        fingerprint = str(header["model_fingerprint"])
        vocab_n = int(layout["vocab_n"])
        resid_n = int(layout["resid_n"])
        n_layers = int(layout["n_layers"])
        n_heads = int(layout["n_heads"])
        ffn_n = int(layout["ffn_n"])
        head_n = int(layout["head_n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"key header is malformed: {exc}") from exc
    sizes = [vocab_n, resid_n]
    for _ in range(n_layers):
        sizes.append(ffn_n)
        sizes.extend([head_n] * (2 * n_heads))
    expected_len = 4 * sum(sizes) + 4  # tables plus trailing checksum
    if len(payload) != expected_len:
        raise FormatError(
            f"key payload holds {len(payload)} bytes, layout implies {expected_len}",
            offset=payload_base,
        )
    body, (crc,) = payload[:-4], struct.unpack("<I", payload[-4:])
    if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
        raise IntegrityError("key table payload failed its CRC32 check")
    tables: list[PermTable] = []
    at = 0
    for n in sizes:
        chunk = np.frombuffer(body, dtype="<u4", count=n, offset=at * 4)
        tables.append(PermTable(chunk.astype(np.int64)))
        at += n
    vocab, resid = tables[0], tables[1]
    ffn: list[PermTable] = []
    qk: list[tuple[PermTable, ...]] = []
    v: list[tuple[PermTable, ...]] = []
    cursor = 2
    for _ in range(n_layers):
        ffn.append(tables[cursor])
        cursor += 1
        qk.append(tuple(tables[cursor : cursor + n_heads]))
        cursor += n_heads
        v.append(tuple(tables[cursor : cursor + n_heads]))
        cursor += n_heads
    return EEKey(
        version=version,
        seed=seed,
        model_fingerprint=fingerprint,
        vocab_perm=vocab,
        resid_perm=resid,
        ffn_perms=tuple(ffn),
        qk_perms=tuple(qk),
        v_perms=tuple(v),
    )
