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
rule W' = A W B^T becomes stored' = stored[inv_B rows][:, inv_A cols]: each
axis is gathered with the inverse of the table of its kind in
model.TENSOR_LAYOUT. The test suite cross-checks every tensor against
explicit permutation-matrix products, which are bit-exact because each output
element is a single gather.
"""
from __future__ import annotations

import struct
import zlib
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

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
    tensor_layout,
)
from .tensor_ops import PermTable, as_matrix

KEY_MAGIC = b"EEKEY001"
KEY_FORMAT_VERSION = 1
# the fields of the .eekey header's "layout" object, which key_layout reads
LAYOUT_FIELDS = ("vocab_n", "resid_n", "n_layers", "n_heads", "ffn_n", "head_n")


@dataclass(frozen=True)
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
    def layout(self) -> dict[str, int]:
        """The LAYOUT_FIELDS of the key's .eekey header. n_heads is the most
        heads any layer holds, so key_layout(layout) names every layer's head
        tables; check_pairing rejects a key whose layers differ in it."""
        heads = [t for layer in self.qk_perms for t in layer]
        return {
            "vocab_n": self.vocab_perm.n,
            "resid_n": self.resid_perm.n,
            "n_layers": self.n_layers,
            "n_heads": max(map(len, self.qk_perms), default=0),
            "ffn_n": self.ffn_perms[0].n if self.ffn_perms else 0,
            "head_n": heads[0].n if heads else 0,
        }

    @property
    def is_identity(self) -> bool:
        return all(t.is_identity for _, _, t in _key_entries(self))


def key_layout(layout: Mapping[str, int]) -> list[tuple[str, int | None, int]]:
    """The key's tables in canonical flat order, as (axis kind, layer, size):
    vocabulary, residual, then per layer the FFN table, the n_heads Q/K tables
    and the n_heads V tables. Layer is None for the tables all layers share.
    ``layout`` holds the LAYOUT_FIELDS of a .eekey header (EEKey.layout).
    """
    entries = [("vocab", None, layout["vocab_n"]), ("resid", None, layout["resid_n"])]
    for i in range(layout["n_layers"]):
        entries.append(("ffn", i, layout["ffn_n"]))
        entries.extend([("qk", i, layout["head_n"])] * layout["n_heads"])
        entries.extend([("v", i, layout["head_n"])] * layout["n_heads"])
    return entries


def _config_layout(config: ModelConfig) -> dict[str, int]:
    sizes = (config.vocab_size, config.d_model, config.n_layers, config.n_heads,
             config.d_ff, config.d_head)
    return dict(zip(LAYOUT_FIELDS, sizes))


def _key_groups(key: EEKey) -> dict[tuple[str, int | None], tuple[PermTable, ...]]:
    """The key's tables by (axis kind, layer), heads in order."""
    groups = {("vocab", None): (key.vocab_perm,), ("resid", None): (key.resid_perm,)}
    for i in range(key.n_layers):
        groups["ffn", i] = (key.ffn_perms[i],)
        groups["qk", i] = key.qk_perms[i]
        groups["v", i] = key.v_perms[i]
    return groups


def _key_entries(key: EEKey) -> list[tuple[str, int | None, PermTable]]:
    """Every table of the key with its (axis kind, layer), in key_layout order."""
    groups = _key_groups(key)
    labels = dict.fromkeys((kind, layer) for kind, layer, _ in key_layout(key.layout))
    return [(kind, layer, t) for kind, layer in labels for t in groups[kind, layer]]


def _assemble(seed: int, fingerprint: str, layout: dict, tables: list[PermTable]) -> EEKey:
    """The key whose tables, in key_layout(layout) order, are ``tables``."""
    groups: dict[tuple[str, int | None], tuple[PermTable, ...]] = defaultdict(tuple)
    for (kind, layer, _), table in zip(key_layout(layout), tables):
        groups[kind, layer] += (table,)
    layers = range(layout["n_layers"])
    return EEKey(
        version=KEY_FORMAT_VERSION,
        seed=seed,
        model_fingerprint=fingerprint,
        vocab_perm=groups["vocab", None][0],
        resid_perm=groups["resid", None][0],
        ffn_perms=tuple(groups["ffn", i][0] for i in layers),
        qk_perms=tuple(groups["qk", i] for i in layers),
        v_perms=tuple(groups["v", i] for i in layers),
    )


def keygen(config: ModelConfig, seed: int, identity: bool = False) -> EEKey:
    """Draw every table with a seeded generator (Fisher-Yates shuffles).

    Draw order is key_layout's order. identity=True is the reserved mode that
    yields the do-nothing key (seed is still recorded).
    """
    rng = np.random.default_rng(seed)
    layout = _config_layout(config)
    tables = [
        PermTable.identity(n) if identity else PermTable.random(n, rng)
        for _, _, n in key_layout(layout)
    ]
    return _assemble(int(seed), config_fingerprint(config), layout, tables)


def check_pairing(key: EEKey, config: ModelConfig) -> None:
    """Key/model binding: fingerprint first, then the key's tables against
    the config's key_layout, kind, layer and size."""
    if key.model_fingerprint != config_fingerprint(config):
        raise PairingError(
            "key fingerprint does not match this model config; "
            "generate the key for the exact config it will encrypt"
        )
    found = [(kind, layer, t.n) for kind, layer, t in _key_entries(key)]
    if found != key_layout(_config_layout(config)):
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
    """Offline one-time transform; every rewrite is an integer gather. A Q/K
    or V axis takes its layer's head tables glued into one; pos axes stay."""
    if m.domain != PLAINTEXT:
        raise DomainError("model is already in the ciphertext domain")
    check_pairing(key, m.config)
    inverse = {
        label: _block_table(tables, m.config.d_head).inv_map
        for label, tables in _key_groups(key).items()
    }
    out: dict[str, np.ndarray] = {}
    for name, layer, axes in tensor_layout(m.config):
        t = m.tensors[name]
        for axis, kind in enumerate(axes):
            if kind != "pos":
                # vocab and resid tables are shared by every layer
                label = (kind, None) if (kind, None) in inverse else (kind, layer)
                t = np.take(t, inverse[label], axis=axis)
        out[name] = t
    return ModelBundle(m.config, CIPHERTEXT, out)


def decrypt_logits(key: EEKey, logits: object) -> np.ndarray:
    """Un-permute the vocabulary axis: out[:, i] = logits[:, vocab_map[i]]."""
    arr = as_matrix(logits, "logits")
    if arr.shape[1] != key.vocab_perm.n:
        raise ShapeError(
            f"logits have {arr.shape[1]} columns, key expects {key.vocab_perm.n}"
        )
    return arr[:, key.vocab_perm.map]


def save_key(key: EEKey, path: str | Path) -> None:
    header = {
        "format_version": key.version,
        "seed": key.seed,
        "model_fingerprint": key.model_fingerprint,
        "layout": key.layout,
    }
    payload = b"".join(t.map.astype("<u4").tobytes() for _, _, t in _key_entries(key))
    payload += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    write_container(path, KEY_MAGIC, header, payload)


def load_key(path: str | Path) -> EEKey:
    header, payload, payload_base = read_container(path, KEY_MAGIC)
    version = header.get("format_version")
    if version != KEY_FORMAT_VERSION:
        raise VersionError(f"unsupported key format version {version!r}")
    try:
        seed = int(header["seed"])
        fingerprint = str(header["model_fingerprint"])
        layout = {field: int(header["layout"][field]) for field in LAYOUT_FIELDS}
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"key header is malformed: {exc}") from exc
    sizes = [n for _, _, n in key_layout(layout)]
    expected_len = 4 * sum(sizes) + 4  # tables plus trailing checksum
    if len(payload) != expected_len:
        raise FormatError(
            f"key payload holds {len(payload)} bytes, layout implies {expected_len}",
            offset=payload_base,
        )
    body, (crc,) = payload[:-4], struct.unpack("<I", payload[-4:])
    if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
        raise IntegrityError("key table payload failed its CRC32 check")
    flat = np.frombuffer(body, dtype="<u4").astype(np.int64)
    tables = [PermTable(part) for part in np.split(flat, np.cumsum(sizes)[:-1])]
    return _assemble(seed, fingerprint, layout, tables)
