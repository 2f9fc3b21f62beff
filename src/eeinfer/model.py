"""Toy decoder-only transformer with deterministic init and greedy decoding.

The forward pass is assembled from three pieces (embed_positions,
apply_layer_range, final_logits) so a sharded runner can execute exactly the
same arithmetic as the monolithic path, piece by piece. Every reduction goes
through the deterministic kernel in tensor_ops, which is what makes
"bit-identical output" a meaningful contract rather than a hope.

The layer arithmetic lives in one place, apply_layer_range. It takes a
KVCache of its layer range and runs the rows of the next positions against
the cached keys and values, then writes theirs into the cache's next free
slots; on a fresh cache the rows are a whole sequence from position 0. The
cache's buffers are sized for max_seq_len positions when it is made and
written in place, so a step copies no cached prefix. Each layer reads its
tensors from a record that ModelBundle derives once. forward takes the model
or a cache over every layer, and greedy decoding prefills a cache with the
prompt through forward, then steps through the three pieces, as a pipeline
shard does. Because the kernels are row-local, the cached rows equal a full
forward pass byte for byte.

Operands are checked once, where they enter: ModelBundle checks every
weight, embed_positions the ids and positions, apply_layer_range and
final_logits the rows. The kernels run unchecked from there (tensor_ops
says which bodies this module binds).

A cache holds B requests, and the rows of all of them travel as one
request-major (B * rows, d_model) array, so every weight product takes all B
requests' rows in one call and attention runs over a (B * heads) leading
axis. A single request is a batch of one on the same path, and row-locality
again gives each request the bytes it would get alone.

Sequences carry a domain tag (plaintext or ciphertext) and the model refuses
to run on the wrong one; that tag is the misuse guard the encryption layer
relies on.
"""
from __future__ import annotations

import hashlib
import math
import zlib
from dataclasses import asdict, dataclass, fields
from itertools import groupby
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .containers import canonical_json, read_container, write_container
from .errors import (
    ConfigError,
    DomainError,
    FormatError,
    IntegrityError,
    NumericsError,
    RangeError,
    ShapeError,
    check_int,
)
from .tensor_ops import ACTIVATION_KINDS, activate, softmax_rows
# the unchecked bodies: ModelBundle checked the weights, and apply_layer_range
# and final_logits check the rows once per call
from .tensor_ops import _layer_norm as layer_norm, _matmul as matmul, _rms_norm as rms_norm

PLAINTEXT = "plaintext"
CIPHERTEXT = "ciphertext"
DOMAINS = (PLAINTEXT, CIPHERTEXT)

NORM_KINDS = ("layernorm", "rmsnorm")
POS_KINDS = ("learned-absolute",)

MODEL_MAGIC = b"EEMODEL1"

WEIGHT_STD = 0.02


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters; weights are stored (in_dim, out_dim) so x @ W applies them."""

    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_head: int
    d_ff: int
    max_seq_len: int
    norm_kind: str = "layernorm"
    act_kind: str = "gelu"
    pos_kind: str = "learned-absolute"
    norm_eps: float | None = None  # None = per-kind default (1e-5 layernorm, 1e-6 rmsnorm)

    def __post_init__(self) -> None:
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_head", "d_ff", "max_seq_len"):
            lo = 2 if name == "vocab_size" else 1
            object.__setattr__(self, name, check_int(getattr(self, name), name, ConfigError, lo))
        if self.n_heads * self.d_head != self.d_model:
            raise ConfigError(
                f"n_heads * d_head must equal d_model "
                f"({self.n_heads} * {self.d_head} != {self.d_model})"
            )
        if self.norm_kind not in NORM_KINDS:
            raise ConfigError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")
        if self.act_kind not in ACTIVATION_KINDS:
            raise ConfigError(f"act_kind must be one of {ACTIVATION_KINDS}, got {self.act_kind!r}")
        if self.pos_kind not in POS_KINDS:
            raise ConfigError(f"pos_kind must be one of {POS_KINDS}, got {self.pos_kind!r}")
        eps = self.norm_eps
        # NaN fails every comparison, so this refuses it too
        if eps is not None and (
            isinstance(eps, bool) or not isinstance(eps, (int, float)) or not 0 < eps < math.inf
        ):
            raise ConfigError(f"norm_eps must be a finite number > 0 or None, got {eps!r}")

    @property
    def effective_norm_eps(self) -> float:
        if self.norm_eps is not None:
            return self.norm_eps
        return 1e-5 if self.norm_kind == "layernorm" else 1e-6

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        # kinds and eps have defaults; the size fields must be present
        required = known - {"norm_eps", "norm_kind", "act_kind", "pos_kind"}
        missing = required - set(d)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        return cls(**d)


def make_config(
    vocab_size: int,
    d_model: int,
    n_layers: int,
    n_heads: int,
    d_ff: int,
    max_seq_len: int,
    **kwargs: object,
) -> ModelConfig:
    """Convenience constructor that derives d_head = d_model / n_heads."""
    n_heads = check_int(n_heads, "n_heads", ConfigError, lo=1)
    if d_model % n_heads != 0:
        raise ConfigError(f"d_model {d_model} is not divisible by n_heads {n_heads}")
    return ModelConfig(
        vocab_size=vocab_size,
        d_model=d_model,
        n_layers=n_layers,
        n_heads=n_heads,
        d_head=d_model // n_heads,
        d_ff=d_ff,
        max_seq_len=max_seq_len,
        **kwargs,  # type: ignore[arg-type]
    )


def config_fingerprint(config: ModelConfig) -> str:
    """sha256 over the canonical JSON form; keys bind to this."""
    return hashlib.sha256(canonical_json(config.to_dict()).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TokenSeq:
    """Token ids plus the domain they live in. Cross-domain use is an error."""

    ids: tuple[int, ...]
    domain: str

    def __post_init__(self) -> None:
        if self.domain not in DOMAINS:
            raise DomainError(f"domain must be one of {DOMAINS}, got {self.domain!r}")
        ids = tuple([check_int(i, "token id", RangeError) for i in self.ids])
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return len(self.ids)


# The tensor directory: each tensor's name and what each of its axes indexes.
# Every axis kind but "pos" has key tables (encryption.key_layout); "qk" and
# "v" are the Q/K and V heads side by side. Rows named layer{i}. repeat for
# every layer, in place; norm offsets exist for layernorm only. Row order is
# the directory order and init_model's draw order.
TENSOR_LAYOUT: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("embedding", ("vocab", "resid")),
    ("pos_embedding", ("pos", "resid")),
    ("layer{i}.attn_norm.gain", ("resid",)),
    ("layer{i}.attn_norm.offset", ("resid",)),
    ("layer{i}.attn.Wq", ("resid", "qk")),
    ("layer{i}.attn.Wk", ("resid", "qk")),
    ("layer{i}.attn.Wv", ("resid", "v")),
    ("layer{i}.attn.Wo", ("v", "resid")),
    ("layer{i}.attn.bq", ("qk",)),
    ("layer{i}.attn.bk", ("qk",)),
    ("layer{i}.attn.bv", ("v",)),
    ("layer{i}.attn.bo", ("resid",)),
    ("layer{i}.ffn_norm.gain", ("resid",)),
    ("layer{i}.ffn_norm.offset", ("resid",)),
    ("layer{i}.ffn.W1", ("resid", "ffn")),
    ("layer{i}.ffn.b1", ("ffn",)),
    ("layer{i}.ffn.W2", ("ffn", "resid")),
    ("layer{i}.ffn.b2", ("resid",)),
    ("final_norm.gain", ("resid",)),
    ("final_norm.offset", ("resid",)),
    ("lm_head.W", ("resid", "vocab")),
    ("lm_head.b", ("vocab",)),
)


def tensor_layout(config: ModelConfig) -> list[tuple[str, int | None, tuple[str, ...]]]:
    """TENSOR_LAYOUT spelled out for one config, in directory order, as
    (name, layer, axis kinds); layer is None outside the layer{i}. rows."""
    entries: list[tuple[str, int | None, tuple[str, ...]]] = []
    for per_layer, block in groupby(TENSOR_LAYOUT, key=lambda row: "{i}" in row[0]):
        rows = [row for row in block if config.norm_kind == "layernorm" or ".offset" not in row[0]]
        for layer in range(config.n_layers) if per_layer else (None,):
            entries.extend((name.format(i=layer), layer, axes) for name, axes in rows)
    return entries


def expected_tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical tensor directory: names, shapes, and (for init) draw order."""
    size = {
        "vocab": config.vocab_size,
        "pos": config.max_seq_len,
        "resid": config.d_model,
        "qk": config.n_heads * config.d_head,
        "v": config.n_heads * config.d_head,
        "ffn": config.d_ff,
    }
    return {name: tuple(size[kind] for kind in axes) for name, _, axes in tensor_layout(config)}


class ModelBundle:
    """Immutable (config, domain, tensors) triple of checked shapes and finite entries.

    ``layers`` and ``head`` are derived from the tensors, not stored with
    them, so that a step reads each tensor by position. Per layer: the
    attention norm, Wq|Wk|Wv and bq|bk|bv side by side (one product makes all
    three), Wo, bo, the FFN norm, W1, b1, W2 and b2; the head is the final
    norm, lm_head.W and lm_head.b. A norm is its gain and, for layernorm, its
    offset.
    """

    __slots__ = ("config", "domain", "tensors", "layers", "head")

    def __init__(self, config: ModelConfig, domain: str, tensors: Mapping[str, np.ndarray]) -> None:
        if domain not in DOMAINS:
            raise DomainError(f"domain must be one of {DOMAINS}, got {domain!r}")
        expected = expected_tensor_shapes(config)
        missing = set(expected) - set(tensors)
        extra = set(tensors) - set(expected)
        if missing or extra:
            raise IntegrityError(
                f"tensor set disagrees with config (missing: {sorted(missing)}, "
                f"unexpected: {sorted(extra)})"
            )
        frozen: dict[str, np.ndarray] = {}
        for name, shape in expected.items():
            arr = np.ascontiguousarray(np.asarray(tensors[name], dtype=np.float64))
            if arr.shape != shape:
                raise IntegrityError(
                    f"tensor {name!r} has shape {arr.shape}, config implies {shape}"
                )
            # a ufunc reduce: argmax would pick a NaN logit and decode on silently
            if not np.logical_and.reduce(np.isfinite(arr), axis=None):
                raise NumericsError(f"tensor {name!r} holds a NaN or infinite entry")
            arr = arr.copy()
            arr.setflags(write=False)
            frozen[name] = arr
        parts = ("gain", "offset") if config.norm_kind == "layernorm" else ("gain",)

        def norm(prefix: str) -> tuple[np.ndarray, ...]:
            return tuple(frozen[f"{prefix}.{part}"] for part in parts)

        layers = []
        for layer in range(config.n_layers):
            p = f"layer{layer}."
            w_qkv, b_qkv = (
                np.concatenate([frozen[f"{p}attn.{kind}{c}"] for c in "qkv"], axis=-1)
                for kind in ("W", "b")
            )
            w_qkv.setflags(write=False)
            b_qkv.setflags(write=False)
            layers.append((
                norm(f"{p}attn_norm"), w_qkv, b_qkv, frozen[f"{p}attn.Wo"], frozen[f"{p}attn.bo"],
                norm(f"{p}ffn_norm"), frozen[f"{p}ffn.W1"], frozen[f"{p}ffn.b1"],
                frozen[f"{p}ffn.W2"], frozen[f"{p}ffn.b2"],
            ))
        head = (norm("final_norm"), frozen["lm_head.W"], frozen["lm_head.b"])
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "tensors", MappingProxyType(frozen))
        object.__setattr__(self, "layers", tuple(layers))
        object.__setattr__(self, "head", head)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ModelBundle is immutable")


def init_model(config: ModelConfig, seed: int) -> ModelBundle:
    """Seeded deterministic init: weights and biases normal(0, 0.02), norm
    gains 1, norm offsets 0. Draw order is the expected_tensor_shapes order."""
    rng = np.random.default_rng(check_int(seed, "seed", ConfigError))
    tensors: dict[str, np.ndarray] = {}
    for name, shape in expected_tensor_shapes(config).items():
        if name.endswith(".gain"):
            tensors[name] = np.ones(shape, dtype=np.float64)
        elif name.endswith(".offset"):
            tensors[name] = np.zeros(shape, dtype=np.float64)
        else:
            tensors[name] = rng.normal(0.0, WEIGHT_STD, size=shape)
    return ModelBundle(config, PLAINTEXT, tensors)


def _validate_batch(model: ModelBundle, batch: list[TokenSeq], extra: int) -> int:
    """Refuse a batch of token sequences on ``model`` with ``extra`` more
    positions each: the n_new of a decode, checked once and returned as an
    int, or the cached length ahead of a forward pass. The batch must not be
    empty and its sequences must all have the same length."""
    if not batch:
        raise ShapeError("a batch needs at least one token sequence")
    extra = check_int(extra, "n_new", RangeError)
    for tokens in batch:
        if len(tokens) != len(batch[0]):
            raise ShapeError(
                f"sequences in a batch must have equal lengths, got {len(batch[0])} "
                f"and {len(tokens)}"
            )
        if tokens.domain != model.domain:
            raise DomainError(
                f"token sequence is {tokens.domain} but the model is {model.domain}; "
                "encrypt/decrypt at the boundary instead of mixing domains"
            )
        if len(tokens) == 0:
            raise ShapeError("prompt must contain at least one token")
        if len(tokens) + extra > model.config.max_seq_len:
            raise ShapeError(
                f"sequence length {len(tokens)}+{extra} exceeds max_seq_len "
                f"{model.config.max_seq_len}"
            )
        if max(tokens.ids) >= model.config.vocab_size:
            raise RangeError(
                f"token id {max(tokens.ids)} out of range for vocab_size {model.config.vocab_size}"
            )
    return extra


def embed_positions(model: ModelBundle, ids: Sequence, start: int = 0) -> np.ndarray:
    """Token embedding plus learned absolute positional rows; ids[0] sits at
    position ``start``. ids is one request's ids or a (B, rows) batch of
    them; the result is request-major, (B * rows, d_model). The ids must be
    integers in 0..vocab_size - 1 and the positions must fit in
    0..max_seq_len - 1."""
    idx = np.asarray(ids)
    if idx.size == 0:
        idx = idx.astype(np.int64)
    elif idx.dtype.kind not in "iu":
        # a float would be truncated and a bool taken as 0 or 1
        raise RangeError(f"token ids must be integers, got {idx.dtype} id {idx.flat[0].item()!r}")
    else:
        # ufunc reduces, as ndarray.min and max go through numpy's Python wrapper
        lo, hi = np.minimum.reduce(idx, axis=None), np.maximum.reduce(idx, axis=None)
        if lo < 0 or hi >= model.config.vocab_size:
            raise RangeError(
                f"token id {lo if lo < 0 else hi} out of range for vocab_size "
                f"{model.config.vocab_size}"
            )
    # a negative slice start would count from the end of the table
    start = check_int(start, "start position", ShapeError)
    end = start + idx.shape[-1]
    if end > model.config.max_seq_len:
        raise ShapeError(
            f"positions {start}..{end - 1} exceed max_seq_len {model.config.max_seq_len}"
        )
    pos = model.tensors["pos_embedding"][start:end]
    return (model.tensors["embedding"][idx] + pos).reshape(-1, model.config.d_model)


class KVCache:
    """Keys and values of the positions a layer range has processed so far,
    for each of ``requests`` requests.

    Passed to apply_layer_range (or, over every layer, to forward in place
    of the model), it makes the rows given there the next positions of its
    requests: they attend to every cached position of their own request as
    well, and their keys and values fill the next free slots. Each layer's
    buffer holds max_seq_len positions from the start, so no call copies the
    cached prefix. A cache belongs to one model and one set of requests,
    which all have the same length.
    """

    def __init__(self, model: ModelBundle, first: int, last: int, requests: int = 1) -> None:
        top = model.config.n_layers - 1
        first = check_int(first, "first layer", ShapeError, hi=top)
        last = check_int(last, "last layer", ShapeError, lo=first, hi=top)
        requests = check_int(requests, "requests", ShapeError, lo=1)
        self.model = model
        self.layers = range(first, last + 1)
        self.requests = requests
        self.length = 0  # positions processed so far; the next row's position
        cfg = model.config
        # per layer: keys then values, (2, requests, heads, max_seq_len, d_head)
        shape = (2, requests, cfg.n_heads, cfg.max_seq_len, cfg.d_head)
        self.kv = [np.empty(shape, dtype=np.float64) for _ in self.layers]


def _as_rows(model: ModelBundle, x: object) -> np.ndarray:
    """x as float64 residual-stream rows, refused unless (rows, d_model)."""
    rows = np.asarray(x, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.config.d_model:
        raise ShapeError(
            f"rows must be 2-D with d_model {model.config.d_model} columns, got shape "
            f"{rows.shape}"
        )
    return rows


def apply_layer_range(
    cache: KVCache, x: np.ndarray, first: int, last: int
) -> np.ndarray:
    """Run layers first..last inclusive on a residual-stream state.

    The cache holds exactly that layer range, and x holds, request after
    request, each request's rows of the positions after the cached ones,
    which the cache then holds too: (B * rows, d_model), converted to
    float64. Each request needs at least one row, and the rows must fit in
    max_seq_len.
    """
    first = check_int(first, "first layer", ShapeError)
    last = check_int(last, "last layer", ShapeError)
    if cache.layers != range(first, last + 1):
        raise ShapeError(
            f"cache holds layers {cache.layers.start}..{cache.layers.stop - 1}, "
            f"not {first}..{last}"
        )
    x = _as_rows(cache.model, x)
    model, cfg, b = cache.model, cache.model.config, cache.requests
    start, rows = cache.length, x.shape[0] // b
    if rows == 0 or rows * b != x.shape[0]:
        raise ShapeError(
            f"{x.shape[0]} rows for a cache of {b} requests; each request needs the same "
            "number of rows, at least one"
        )
    end = start + rows
    if end > cfg.max_seq_len:
        raise ShapeError(f"positions {start}..{end - 1} exceed max_seq_len {cfg.max_seq_len}")
    heads, d_head, d_model = cfg.n_heads, cfg.d_head, cfg.d_model
    scale = math.sqrt(d_head)
    norm, eps = (layer_norm if cfg.norm_kind == "layernorm" else rms_norm), cfg.effective_norm_eps
    # row r sits at position start + r and sees positions 0..start + r; a
    # single row sees every cached position
    masked = np.arange(end) > np.arange(start, end)[:, None] if rows > 1 else None
    for kv, layer in zip(cache.kv, model.layers[first : last + 1]):
        attn_norm, w_qkv, b_qkv, w_o, b_o, ffn_norm, w_1, b_1, w_2, b_2 = layer
        # (b, rows, q|k|v, heads, d_head), a view of the product
        qkv = matmul(norm(x, *attn_norm, eps=eps), w_qkv)
        qkv += b_qkv
        qkv = qkv.reshape(b, rows, 3, heads, d_head)
        kv[:, :, :, start:end] = qkv[:, :, 1:].transpose(2, 0, 3, 1, 4)
        # each (b*heads, positions, d_head): every request's heads on the
        # leading axis, so that each attention operation is one call
        q = qkv[:, :, 0].transpose(0, 2, 1, 3).reshape(b * heads, rows, d_head)
        cached = kv[:, :, :, :end].reshape(2, b * heads, end, d_head)
        scores = matmul(q, cached[0].transpose(0, 2, 1))
        scores /= scale
        if masked is not None:
            np.copyto(scores, -np.inf, where=masked)  # causal mask
        weights = softmax_rows(scores.reshape(b * heads * rows, end)).reshape(scores.shape)
        ctx = matmul(weights, cached[1])
        ctx = ctx.reshape(b, heads, rows, d_head).transpose(0, 2, 1, 3).reshape(b * rows, d_model)
        # the bias, then the residual, added in place on the fresh product:
        # the bytes of x + (product + bias), since addition commutes exactly
        attended = matmul(ctx, w_o)
        attended += b_o
        attended += x
        hidden = matmul(norm(attended, *ffn_norm, eps=eps), w_1)
        hidden += b_1
        x = matmul(activate(cfg.act_kind, hidden), w_2)
        x += b_2
        x += attended
    cache.length = end
    return x


def final_logits(model: ModelBundle, x: np.ndarray) -> np.ndarray:
    """The final norm and lm_head on (rows, d_model) rows, converted to
    float64: (rows, vocab_size) logits."""
    x = _as_rows(model, x)
    norm = layer_norm if model.config.norm_kind == "layernorm" else rms_norm
    final_norm, w, bias = model.head
    logits = matmul(norm(x, *final_norm, eps=model.config.effective_norm_eps), w)
    logits += bias
    return logits


def forward(
    model: ModelBundle | KVCache, tokens: TokenSeq | Sequence[TokenSeq]
) -> np.ndarray:
    """Per-position logits, shape (len(tokens), vocab_size); for a list of B
    equal-length sequences, (B, len(each), vocab_size).

    With a KVCache over every layer in place of the model, the tokens
    continue the cached sequences, one per request, and the cache then holds
    them too.
    """
    batch = [tokens] if isinstance(tokens, TokenSeq) else list(tokens)
    cache = model if isinstance(model, KVCache) else KVCache(
        model, 0, model.config.n_layers - 1, len(batch)
    )
    model = cache.model
    _validate_batch(model, batch, cache.length)
    if len(batch) != cache.requests:
        raise ShapeError(f"{len(batch)} sequences for a cache of {cache.requests} requests")
    x = embed_positions(model, [seq.ids for seq in batch], start=cache.length)
    x = apply_layer_range(cache, x, 0, model.config.n_layers - 1)
    logits = final_logits(model, x)
    if isinstance(tokens, TokenSeq):
        return logits
    return logits.reshape(len(batch), -1, logits.shape[1])


def greedy_decode(
    model: ModelBundle, prompts: TokenSeq | Sequence[TokenSeq], n_new: int
) -> TokenSeq | list[TokenSeq]:
    """Append argmax tokens one at a time; ties go to the lowest index.

    prompts is one TokenSeq, and one comes back, or a list of equal-length
    ones, decoded together as one batch, and a list comes back. The prompts
    are checked once and prefill a KV cache through forward; each later
    step runs the tokens chosen last through the three pieces a pipeline
    shard runs (embed_positions, apply_layer_range, final_logits). Each
    request gets the tokens it would get alone.
    """
    batch = [prompts] if isinstance(prompts, TokenSeq) else list(prompts)
    n_new = _validate_batch(model, batch, n_new)
    last = model.config.n_layers - 1
    cache = KVCache(model, 0, last, len(batch))
    new = np.empty((len(batch), n_new), dtype=np.int64)
    for step in range(n_new):
        if step == 0:
            logits = forward(cache, batch)[:, -1]
        else:
            x = embed_positions(model, new[:, step - 1 : step], start=cache.length)
            logits = final_logits(model, apply_layer_range(cache, x, 0, last))
        new[:, step] = logits.argmax(axis=1)
    out = [TokenSeq(seq.ids + tuple(row), model.domain) for seq, row in zip(batch, new.tolist())]
    return out[0] if isinstance(prompts, TokenSeq) else out


def save_model(model: ModelBundle, path: str | Path) -> None:
    directory = []
    chunks: list[bytes] = []
    offset = 0
    for name in expected_tensor_shapes(model.config):
        arr = model.tensors[name]
        raw = arr.astype("<f8", copy=False).tobytes(order="C")
        directory.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "offset": offset,
                "length": len(raw),
                "crc32": zlib.crc32(raw) & 0xFFFFFFFF,
            }
        )
        chunks.append(raw)
        offset += len(raw)
    header = {
        "config": model.config.to_dict(),
        "domain": model.domain,
        "tensors": directory,
    }
    write_container(path, MODEL_MAGIC, header, b"".join(chunks))


def load_model(path: str | Path) -> ModelBundle:
    header, payload, payload_base = read_container(path, MODEL_MAGIC)
    for field_name in ("config", "domain", "tensors"):
        if field_name not in header:
            raise FormatError(f"model header missing {field_name!r} field")
    try:
        config = ModelConfig.from_dict(header["config"])
    except (ConfigError, TypeError) as exc:
        raise FormatError(f"model header config is invalid: {exc}") from exc
    domain = header["domain"]
    if domain not in DOMAINS:
        raise FormatError(f"model header domain {domain!r} is invalid")
    if not isinstance(header["tensors"], list):
        raise FormatError("model header tensors field must be a list")
    tensors: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        try:
            name = entry["name"]
            if not isinstance(name, str):
                raise FormatError(f"tensor directory entry name {name!r} is not a string")
            shape = tuple(
                check_int(s, f"tensor {name!r} shape", FormatError) for s in entry["shape"]
            )
            offset = check_int(entry["offset"], f"tensor {name!r} offset", FormatError)
            length = check_int(entry["length"], f"tensor {name!r} length", FormatError)
            crc = check_int(entry["crc32"], f"tensor {name!r} crc32", FormatError, hi=2**32 - 1)
        except (KeyError, TypeError) as exc:
            raise FormatError(f"malformed tensor directory entry: {exc}") from exc
        expected_len = int(np.prod(shape)) * 8 if shape else 8
        if length != expected_len:
            raise FormatError(
                f"tensor {name!r} length {length} disagrees with shape {shape}",
                offset=payload_base + offset,
            )
        if offset + length > len(payload):
            raise FormatError(
                f"tensor {name!r} payload is truncated", offset=payload_base + offset
            )
        raw = payload[offset : offset + length]
        if (zlib.crc32(raw) & 0xFFFFFFFF) != crc:
            raise IntegrityError(f"tensor {name!r} failed its CRC32 check")
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
    return ModelBundle(config, domain, tensors)
