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
    ConfigError,
    DomainError,
    FormatError,
    IntegrityError,
    PairingError,
    RangeError,
    ShapeError,
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
# the fields of the .eekey header's "layout" object, which key_layout reads
LAYOUT_FIELDS = ("vocab_n", "resid_n", "n_layers", "n_heads", "ffn_n", "head_n")


@dataclass(frozen=True)
class EEKey:
    """A full permutation bundle bound to one model configuration: the
    LAYOUT_FIELDS of its .eekey header and every table in key_layout(layout)
    order, which is also the order of the file and of keygen's draws."""

    seed: int
    model_fingerprint: str
    layout: dict[str, int]
    tables: tuple[PermTable, ...]

    def __post_init__(self) -> None:
        if [t.n for t in self.tables] != [n for _, _, n in key_layout(self.layout)]:
            raise PairingError("key table sizes do not fit the key's layout")

    @property
    def vocab_perm(self) -> PermTable:
        return self.tables[0]

    @property
    def is_identity(self) -> bool:
        return all(t.is_identity for t in self.tables)

    def groups(self) -> dict[tuple[str, int | None], tuple[PermTable, ...]]:
        """The tables by (axis kind, layer), heads in order."""
        groups: dict[tuple[str, int | None], tuple[PermTable, ...]] = defaultdict(tuple)
        for (kind, layer, _), table in zip(key_layout(self.layout), self.tables):
            groups[kind, layer] += (table,)
        return dict(groups)


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


def keygen(config: ModelConfig, seed: int, identity: bool = False) -> EEKey:
    """Draw every table with a seeded generator (Fisher-Yates shuffles).

    Draw order is key_layout's order. identity=True is the reserved mode that
    yields the do-nothing key (seed is still recorded).
    """
    rng = np.random.default_rng(seed)
    layout = _config_layout(config)
    tables = tuple(
        PermTable.identity(n) if identity else PermTable.random(n, rng)
        for _, _, n in key_layout(layout)
    )
    return EEKey(int(seed), config_fingerprint(config), layout, tables)


def check_pairing(key: EEKey, config: ModelConfig) -> None:
    """Key/model binding: fingerprint first, then the key's layout against
    the config's, which fixes every table's kind, layer and size."""
    if key.model_fingerprint != config_fingerprint(config):
        raise PairingError(
            "key fingerprint does not match this model config; "
            "generate the key for the exact config it will encrypt"
        )
    if key.layout != _config_layout(config):
        raise PairingError("key layout does not fit the model config")


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
        for label, tables in key.groups().items()
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
        "seed": key.seed,
        "model_fingerprint": key.model_fingerprint,
        "layout": key.layout,
    }
    payload = b"".join(t.map.astype("<u4").tobytes() for t in key.tables)
    payload += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    write_container(path, KEY_MAGIC, header, payload)


def load_key(path: str | Path) -> EEKey:
    header, payload, payload_base = read_container(path, KEY_MAGIC)
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
    tables: list[PermTable] = []
    start = 0
    for n in sizes:
        try:
            tables.append(PermTable(flat[start : start + n]))
        except ConfigError as exc:
            raise FormatError(
                f"key table {len(tables)} is malformed: {exc}", offset=payload_base + 4 * start
            ) from exc
        start += n
    return EEKey(seed, fingerprint, layout, tuple(tables))
