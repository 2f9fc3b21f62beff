"""Deterministic simulator for sharded ciphertext inference.

The encrypted model is split into contiguous layer ranges hosted on simulated
worker nodes, and every shard keeps a KV cache of its layers for the request.
The client sends the ciphertext prompt to the first shard once, then per
generated token only the id chosen last. Encrypted residual activations
travel shard to shard as checksummed binary frames that carry only the rows
of the positions the next shard has not seen: the whole prompt at the first
step, one row per step after it. In every message of step t the rows end at
position P + t, P being the prompt length. The last shard computes logits
and returns the argmax token id, still in ciphertext. One hop builds and
checks one frame on the sending side and parses it once on the receiving
side, checking only its bytes. A seeded virtual clock assigns each delivery a
latency; a request draws all of them at once and sums them in order, the
same values as one draw per delivery, so a run is a pure function of (model,
plan, broker config, prompt) and replays bit-for-bit.

Shard s starts on node s, and the spares are numbered after the shards.
Failure injection marks a node crashed once the global delivery counter
reaches the configured step; the next message bound for it triggers
reassignment of its shard to the lowest-numbered idle spare, or a pipeline
error when no spare is left. The spare starts with an empty cache, so the
hop into it resends the whole prefix (every token id for the first shard,
every row the upstream shard has emitted for later ones) and the spare
prefills from that.

The transcript records every exchange (token fields verbatim, activation
payloads as SHA-256 hashes) and is the input to the blindness audit, which
verifies that no plaintext token sequence or plaintext boundary activation
ever appeared on the wire.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .containers import jsonl_text, write_jsonl
from .errors import (
    ConfigError,
    DomainError,
    FormatError,
    IntegrityError,
    PipelineError,
    RangeError,
    ShapeError,
    VersionError,
    check_float,
    check_int,
)
from .model import (
    CIPHERTEXT,
    KVCache,
    ModelBundle,
    ModelConfig,
    TokenSeq,
    _validate_batch,
    apply_layer_range,
    embed_positions,
    final_logits,
)

FRAME_MAGIC = b"EEFR"
# version 2: a frame carries only the rows its receiver has not cached
FRAME_VERSION = 2
_FRAME_HEADER = struct.Struct("<4sBQHII")
_CRC = struct.Struct("<I")
_WIRE_F8 = np.dtype("<f8")


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous layer ranges, one per shard; shard s starts on node s."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.ranges:
            raise ConfigError("a shard plan needs at least one range")
        ranges = []
        for first, last in self.ranges:
            first = check_int(first, "first layer", ConfigError)
            ranges.append((first, check_int(last, "last layer", ConfigError, lo=first)))
        ranges = tuple(ranges)
        for (_, prev_last), (nxt_first, _) in zip(ranges, ranges[1:]):
            if nxt_first != prev_last + 1:
                raise ConfigError("shard ranges must be contiguous and ordered")
        object.__setattr__(self, "ranges", ranges)


def plan_shards(config: ModelConfig, n: int) -> ShardPlan:
    """Balanced contiguous split; earlier shards absorb the remainder."""
    n = check_int(n, "shard count", ConfigError, lo=1, hi=config.n_layers)
    base, rem = divmod(config.n_layers, n)
    ranges = []
    first = 0
    for s in range(n):
        size = base + (1 if s < rem else 0)
        ranges.append((first, first + size - 1))
        first += size
    return ShardPlan(ranges=tuple(ranges))


def _plan_matches(plan: ShardPlan, config: ModelConfig) -> None:
    if plan.ranges[0][0] != 0 or plan.ranges[-1][1] != config.n_layers - 1:
        raise ConfigError(
            f"plan covers layers {plan.ranges[0][0]}..{plan.ranges[-1][1]}, "
            f"model has layers 0..{config.n_layers - 1}"
        )


@dataclass(frozen=True, eq=False)
class ActivationFrame:
    """One hop's encrypted residual activations (seq_len x d_model, f64): the
    rows of the positions the receiving shard has not cached yet."""

    request_id: int
    shard_index: int
    payload: np.ndarray

    def __post_init__(self) -> None:
        request_id = check_int(self.request_id, "request_id", RangeError, hi=2**64 - 1)
        shard_index = check_int(self.shard_index, "shard_index", RangeError, hi=2**16 - 1)
        payload = np.array(self.payload, dtype=np.float64, order="C")
        if payload.ndim != 2 or payload.shape[0] < 1 or payload.shape[1] < 1:
            raise ShapeError(f"payload must be 2D and non-empty, got shape {payload.shape}")
        payload.setflags(write=False)
        vars(self).update(request_id=request_id, shard_index=shard_index, payload=payload)

    @classmethod
    def _from_wire(cls, request_id: int, shard_index: int, payload: np.ndarray) -> ActivationFrame:
        """A frame from the fields ``decode_frame`` parsed, without running
        ``__post_init__``: the header's u64 and u16 fields bound both ids, and
        the payload is already an owned, non-empty, read-only float64 array.
        Every field is set here, so a new field must be set here too."""
        frame = object.__new__(cls)
        vars(frame).update(request_id=request_id, shard_index=shard_index, payload=payload)
        return frame

    @property
    def seq_len(self) -> int:
        return self.payload.shape[0]

    @property
    def d_model(self) -> int:
        return self.payload.shape[1]


def encode_frame(frame: ActivationFrame) -> bytes:
    header = _FRAME_HEADER.pack(
        FRAME_MAGIC,
        FRAME_VERSION,
        frame.request_id,
        frame.shard_index,
        frame.seq_len,
        frame.d_model,
    )
    payload = frame.payload.astype("<f8", copy=False).tobytes()
    body = header + payload
    return body + _CRC.pack(zlib.crc32(body))


def decode_frame(data: bytes) -> ActivationFrame:
    if len(data) < _FRAME_HEADER.size:
        raise FormatError("frame truncated before the header ends", offset=len(data))
    magic, version, request_id, shard_index, seq_len, d_model = _FRAME_HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise FormatError(f"bad frame magic {magic!r}", offset=0)
    # every version so far shares this header, and none allows an empty payload
    if seq_len == 0 or d_model == 0:
        raise FormatError("frame declares an empty payload")
    if version != FRAME_VERSION:
        raise VersionError(f"unsupported frame version {version}")
    expected = _FRAME_HEADER.size + seq_len * d_model * 8 + _CRC.size
    if len(data) < expected:
        raise FormatError(
            f"frame truncated: expected {expected} bytes, got {len(data)}", offset=len(data)
        )
    if len(data) > expected:
        raise FormatError(f"{len(data) - expected} trailing bytes after frame", offset=expected)
    (stored_crc,) = _CRC.unpack_from(data, expected - _CRC.size)
    actual_crc = zlib.crc32(data[: expected - _CRC.size])
    if stored_crc != actual_crc:
        raise IntegrityError(
            f"frame checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )
    payload = np.ndarray((seq_len, d_model), _WIRE_F8, data, _FRAME_HEADER.size)
    payload = payload.astype(np.float64)
    payload.setflags(write=False)
    return ActivationFrame._from_wire(request_id, shard_index, payload)


class InProcessTransport:
    """Default binding: an ordered, reliable in-process byte queue."""

    def __init__(self) -> None:
        self._queue: deque[bytes] = deque()

    def send(self, data: bytes) -> None:
        self._queue.append(bytes(data))

    def recv(self) -> bytes:
        if not self._queue:
            raise PipelineError("transport queue is empty")
        return self._queue.popleft()

    def close(self) -> None:
        self._queue.clear()


@dataclass(frozen=True)
class BrokerConfig:
    """Seeded latency model, crash injections, and the spare-node pool."""

    seed: int = 0
    latency_lo: float = 0.0
    latency_hi: float = 0.0
    failures: tuple[tuple[int, int], ...] = ()
    spares: int = 0

    def __post_init__(self) -> None:
        seed = check_int(self.seed, "seed", ConfigError)
        lo = check_float(self.latency_lo, "latency_lo", ConfigError)
        hi = check_float(self.latency_hi, "latency_hi", ConfigError, lo=lo)
        spares = check_int(self.spares, "spares", ConfigError)
        failures = tuple(
            (check_int(n, "failure node", ConfigError), check_int(t, "failure step", ConfigError))
            for n, t in self.failures
        )
        vars(self).update(seed=seed, latency_lo=lo, latency_hi=hi, spares=spares, failures=failures)


class Transcript:
    """Ordered record of every simulated exchange."""

    def __init__(self) -> None:
        self.entries: list[dict] = []

    def add(self, **entry) -> None:
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def hash(self) -> str:
        """SHA-256 of the bytes ``save_transcript`` writes."""
        return hashlib.sha256(jsonl_text(self.entries).encode("utf-8")).hexdigest()


def save_transcript(transcript: Transcript, path: str | Path) -> None:
    write_jsonl(path, transcript.entries)


def _payload_hash(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest()


def run_pipeline(
    enc_model: ModelBundle,
    plan: ShardPlan,
    broker: BrokerConfig,
    prompt: TokenSeq,
    n_new: int,
    request_id: int = 0,
    transport=None,
) -> tuple[TokenSeq, Transcript]:
    """Greedy-decode n_new tokens through the shard pipeline.

    Bit-identical to monolithic ciphertext-domain decoding: shards apply the
    same layer code to the same rows, the kernels are row-local so a cached
    step equals a full pass, and frame serialization round-trips f64
    activations exactly.
    """
    if enc_model.domain != CIPHERTEXT:
        raise DomainError("the shard pipeline runs the encrypted model only")
    _plan_matches(plan, enc_model.config)
    n_new = _validate_batch(enc_model, [prompt], n_new)
    # checked before the first message; the frame header holds a u64
    request_id = check_int(request_id, "request_id", RangeError, hi=2**64 - 1)

    n_shards = len(plan.ranges)
    transport = transport if transport is not None else InProcessTransport()
    transcript = Transcript()
    entries = transcript.entries
    assignment = list(range(n_shards))
    n_nodes = n_shards + broker.spares
    caches = [KVCache(enc_model, first, last) for first, last in plan.ranges]
    # the clock after each delivery: one latency draw per delivery, summed in
    # order, the same values as one scalar draw and one += per delivery; a sum
    # past the largest float is refused at its delivery, below
    draws = np.random.default_rng(broker.seed).uniform(
        broker.latency_lo, broker.latency_hi, size=n_new * (n_shards + 1)
    )
    with np.errstate(over="ignore"):
        times = np.add.accumulate(draws).tolist()
    dead_from: dict[int, int] = {}  # the delivery count from which a node is dead
    for node, step in broker.failures:
        dead_from[node] = min(step, dead_from.get(node, step))
    clock = 0.0
    deliveries = 0

    def deliver(shard: int | None = None) -> None:
        """Advance the clock and the delivery counter for one message; one
        bound for a shard whose node is dead first moves it to a spare."""
        nonlocal clock, deliveries
        # a spare is picked among nodes alive at this delivery count, and a
        # dead node stays dead, so one move always lands on a live node
        if shard is not None and deliveries >= dead_from.get(assignment[shard], math.inf):
            node = assignment[shard]
            transcript.add(kind="failure", node=node, time=clock)
            candidates = [
                n
                for n in range(n_nodes)
                if n not in assignment and deliveries < dead_from.get(n, math.inf)
            ]
            if not candidates:
                raise PipelineError(
                    f"node {node} failed and no spare node can host shard {shard}"
                )
            transcript.add(
                kind="reassign", shard=shard, from_node=node, to_node=candidates[0], time=clock
            )
            assignment[shard] = candidates[0]
            # the cache died with the node
            caches[shard] = KVCache(enc_model, *plan.ranges[shard])
        clock = times[deliveries]
        deliveries += 1
        if not math.isfinite(clock):
            # finite bounds can still add up past the largest float
            raise ConfigError(
                f"latency bounds ({broker.latency_lo!r}, {broker.latency_hi!r}) overflow the "
                f"virtual clock at delivery {deliveries}"
            )

    ids = list(prompt.ids)
    # emitted[s, p]: the row shard s has emitted at position p, which hop
    # s + 1 sends; a spare prefills from every row before len(ids)
    cfg = enc_model.config
    emitted = np.empty((n_shards - 1, cfg.max_seq_len, cfg.d_model))
    for token_index in range(n_new):
        for s, (first, last) in enumerate(plan.ranges):
            deliver(s)
            cache = caches[s]
            if s == 0:
                # the bytes json.dumps gives for {"request_id": ..., "token_ids": [...]}
                rows = ", ".join(map(str, ids[cache.length :])).encode()
                transport.send(b'{"request_id": %d, "token_ids": [%s]}' % (request_id, rows))
                token_ids = json.loads(transport.recv().decode())["token_ids"]
                entries.append(
                    {"step": deliveries, "time": clock, "token_index": token_index,
                     "to_node": assignment[0], "shard": 0, "kind": "tokens_in",
                     "token_ids": token_ids}
                )
                x = embed_positions(enc_model, token_ids, start=cache.length)
            else:
                rows = emitted[s - 1, cache.length : len(ids)]
                transport.send(encode_frame(ActivationFrame(request_id, s, rows)))
                frame = decode_frame(transport.recv())
                entries.append(
                    {"step": deliveries, "time": clock, "token_index": token_index,
                     "to_node": assignment[s], "shard": s, "kind": "frame",
                     "from_node": assignment[s - 1], "seq_len": frame.seq_len,
                     "payload_sha256": _payload_hash(frame.payload)}
                )
                x = frame.payload
            x = apply_layer_range(cache, x, first, last)
            if s < len(emitted):
                # x holds the rows that end at position len(ids)
                emitted[s, len(ids) - x.shape[0] : len(ids)] = x
        logits = final_logits(enc_model, x[-1:])
        next_id = int(np.argmax(logits[0]))
        deliver()
        transport.send(b'{"request_id": %d, "token_id": %d}' % (request_id, next_id))
        token_id = int(json.loads(transport.recv().decode())["token_id"])
        entries.append(
            {"step": deliveries, "time": clock, "token_index": token_index, "kind": "token_out",
             "from_node": assignment[-1], "token_id": token_id}
        )
        ids.append(token_id)
    return TokenSeq(tuple(ids), CIPHERTEXT), transcript


@dataclass(frozen=True)
class PlaintextContext:
    """What the client knows in plaintext; the auditor checks none of it
    leaked. ``output`` is the whole decoded sequence, the prompt included."""

    prompt: TokenSeq
    output: TokenSeq
    model: ModelBundle | None = None
    plan: ShardPlan | None = None

    def __post_init__(self) -> None:
        if self.output.ids[: len(self.prompt)] != self.prompt.ids:
            raise ShapeError("the output must be the whole decoded sequence, prompt first")


@dataclass(frozen=True)
class AuditResult:
    passed: bool
    failures: tuple[str, ...]
    warnings: tuple[str, ...]
    checked_entries: int


def _contains(haystack: list[int], needle: tuple[int, ...]) -> bool:
    if not needle or len(needle) > len(haystack):
        return False
    k = len(needle)
    return any(tuple(haystack[i : i + k]) == needle for i in range(len(haystack) - k + 1))


def audit_blindness(transcript: Transcript, ctx: PlaintextContext) -> AuditResult:
    """Scan a transcript for plaintext leakage.

    Checks: (a) neither the plaintext prompt nor the plaintext continuation
    appears as a contiguous subsequence of any tokens_in field, of the first
    shard's token stream rebuilt from those fields, or of the token_out
    stream; (b) when the plaintext model and plan are provided, no frame
    payload hash equals the hash of any run of as many consecutive rows of a
    plaintext boundary activation, from one plaintext pass through the plan.
    Without both the model and the plan, (b) is skipped with a warning.

    The tokens_in field of step t holds the ids that end at position P + t,
    P being the prompt length: one id per step after the first, or the whole
    prefix in transcripts that resend it. A field that cannot end there, or
    that disagrees with ids already placed at its positions, is a failure,
    since the stream the first shard saw is then not one the audit can
    rebuild.
    """
    if not transcript.entries:
        return AuditResult(
            passed=True,
            failures=(),
            warnings=("transcript is empty; blindness holds vacuously",),
            checked_entries=0,
        )
    prompt_ids = ctx.prompt.ids
    needles = (("prompt", prompt_ids), ("output", ctx.output.ids[len(prompt_ids) :]))

    failures: list[str] = []
    stream: list[int | None] = []  # the first shard's input, by position
    token_out_stream: list[int] = []
    checked = 0
    for idx, entry in enumerate(transcript.entries):
        kind = entry.get("kind")
        if kind == "tokens_in":
            checked += 1
            ids = [int(t) for t in entry["token_ids"]]
            for name, needle in needles:
                if _contains(ids, needle):
                    failures.append(f"entry {idx}: plaintext {name} appears in a tokens_in field")
            end = len(prompt_ids) + int(entry["token_index"])
            start = end - len(ids)
            stream.extend([None] * (end - len(stream)))
            if start < 0:
                failures.append(f"entry {idx}: {len(ids)} token ids cannot end at position {end}")
            elif any(old not in (None, new) for old, new in zip(stream[start:end], ids)):
                failures.append(
                    f"entry {idx}: token ids for positions {start}..{end - 1} disagree "
                    "with those sent before"
                )
            else:
                stream[start:end] = ids
        elif kind == "token_out":
            checked += 1
            token_out_stream.append(int(entry["token_id"]))
        elif kind == "frame":
            checked += 1

    for name, needle in needles:
        if _contains(stream, needle):
            failures.append(f"plaintext {name} appears in the first shard's token stream")
        if _contains(token_out_stream, needle):
            failures.append(f"plaintext {name} appears in the token_out stream")

    warnings: list[str] = []
    if ctx.model is None or ctx.plan is None:
        warnings.append("need both model and plan to check boundary activations; skipped")
    else:
        boundaries = _plaintext_boundaries(ctx)
        windows: dict[int, set[str]] = {}  # hashes of every run of n rows, by n
        for idx, entry in enumerate(transcript.entries):
            if entry.get("kind") != "frame":
                continue
            n = int(entry["seq_len"])
            if n not in windows:
                windows[n] = {
                    _payload_hash(b[i : i + n]) for b in boundaries for i in range(len(b) - n + 1)
                }
            if entry.get("payload_sha256") in windows[n]:
                failures.append(
                    f"entry {idx}: frame payload equals a plaintext boundary activation"
                )

    return AuditResult(
        passed=not failures,
        failures=tuple(failures),
        warnings=tuple(warnings),
        checked_entries=checked,
    )


def _plaintext_boundaries(ctx: PlaintextContext) -> list[np.ndarray]:
    """What a plaintext run would send into shards 1.. at every position it
    processed (the whole output but its last token), from one pass through
    the plan."""
    ids = ctx.output.ids[: max(len(ctx.output.ids) - 1, len(ctx.prompt.ids))]
    if not ids:
        return []
    x = embed_positions(ctx.model, ids)
    boundaries = []
    for first, last in ctx.plan.ranges[:-1]:
        x = apply_layer_range(KVCache(ctx.model, first, last), x, first, last)
        boundaries.append(x)
    return boundaries
