"""Spans around the package's public functions, installed from outside it.

The traced run swaps each public function for a timing wrapper at the name
its caller looks it up under (``eeinfer.model.matmul`` is what
``apply_layer_range`` calls, ``eeinfer.attack.greedy_decode`` is what the
oracle calls) and puts every original back afterwards. The untraced run
installs nothing. Spans are plain lists in memory, recorded only inside a
root span that the benchmark opens around one of its own operations, and
written out once the run ends.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import eeinfer.attack
import eeinfer.encryption
import eeinfer.model
import eeinfer.shard_sim

# (module holding the name, attribute, span name)
TARGETS = (
    (eeinfer.model, "matmul", "tensor_ops.matmul"),
    (eeinfer.model, "softmax_rows", "tensor_ops.softmax_rows"),
    (eeinfer.model, "layer_norm", "tensor_ops.layer_norm"),
    (eeinfer.model, "rms_norm", "tensor_ops.rms_norm"),
    (eeinfer.model, "activate", "tensor_ops.activate"),
    (eeinfer.model, "embed_positions", "model.embed_positions"),
    (eeinfer.model, "apply_layer_range", "model.apply_layer_range"),
    (eeinfer.model, "final_logits", "model.final_logits"),
    (eeinfer.model, "forward", "model.forward"),
    (eeinfer.model, "greedy_decode", "model.greedy_decode"),
    (eeinfer.model, "init_model", "model.init_model"),
    (eeinfer.model, "save_model", "model.save_model"),
    (eeinfer.model, "load_model", "model.load_model"),
    (eeinfer.encryption, "keygen", "encryption.keygen"),
    (eeinfer.encryption, "save_key", "encryption.save_key"),
    (eeinfer.encryption, "load_key", "encryption.load_key"),
    (eeinfer.encryption, "encrypt_model", "encryption.encrypt_model"),
    (eeinfer.encryption, "encrypt_tokens", "encryption.encrypt_tokens"),
    (eeinfer.encryption, "decrypt_tokens", "encryption.decrypt_tokens"),
    (eeinfer.shard_sim, "embed_positions", "model.embed_positions"),
    (eeinfer.shard_sim, "apply_layer_range", "model.apply_layer_range"),
    (eeinfer.shard_sim, "final_logits", "model.final_logits"),
    (eeinfer.shard_sim, "encode_frame", "shard_sim.encode_frame"),
    (eeinfer.shard_sim, "decode_frame", "shard_sim.decode_frame"),
    (eeinfer.shard_sim, "run_pipeline", "shard_sim.run_pipeline"),
    (eeinfer.shard_sim, "audit_blindness", "shard_sim.audit_blindness"),
    (eeinfer.attack, "greedy_decode", "model.greedy_decode"),
    (eeinfer.attack, "generate_corpus", "attack.generate_corpus"),
    (eeinfer.attack, "hill_climb", "attack.hill_climb"),
    (eeinfer.attack, "random_sampling", "attack.random_sampling"),
)

# span attributes: matmul keeps (m, k, n), a layer range keeps (rows, first layer)
_ATTRS = {
    "tensor_ops.matmul": lambda a, b: (np.shape(a)[0], np.shape(a)[1], np.shape(b)[1]),
    "model.apply_layer_range": lambda model, x, first, last: (np.shape(x)[0], first),
}

TRANSPORT = "shard_sim.transport"


class Tracer:
    """Span store: parallel lists indexed by span id; parent -1 marks a root."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.attrs: list[tuple | None] = []
        self._stack: list[int] = []

    @property
    def recording(self) -> bool:
        return bool(self._stack)

    def open(self, name: str, attrs: tuple | None = None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.attrs.append(attrs)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def write(self, path: Path) -> None:
        """Columnar JSON: a name table and one row per span, times in ns."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [index[n], p, round((s - t0) * 1e9), round((e - t0) * 1e9), a]
            for n, p, s, e, a in zip(self.names, self.parents, self.starts, self.ends, self.attrs)
        ]
        doc = {"names": table, "columns": ["name", "parent", "start_ns", "end_ns", "attrs"], "spans": rows}
        path.write_text(json.dumps(doc, separators=(",", ":"), default=int), encoding="utf-8")


def _wrap(tracer: Tracer, name: str, fn):
    attrs = _ATTRS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        idx = tracer.open(name, attrs(*args, **kwargs) if attrs else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
    try:
        for (mod, attr, name), (_, _, fn) in zip(TARGETS, saved):
            setattr(mod, attr, _wrap(tracer, name, fn))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


class CountingTransport:
    """Delegates to InProcessTransport and counts the bytes sent, split into
    activation frames and token messages. With a tracer it also times the
    transport calls."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self._inner = eeinfer.shard_sim.InProcessTransport()
        self._tracer = tracer
        self.frame_bytes = 0
        self.token_msg_bytes = 0

    def send(self, data: bytes) -> None:
        if data[: len(eeinfer.shard_sim.FRAME_MAGIC)] == eeinfer.shard_sim.FRAME_MAGIC:
            self.frame_bytes += len(data)
        else:
            self.token_msg_bytes += len(data)
        self._timed(self._inner.send, data)

    def recv(self) -> bytes:
        return self._timed(self._inner.recv)

    def close(self) -> None:
        self._inner.close()

    def _timed(self, fn, *args):
        if self._tracer is None or not self._tracer.recording:
            return fn(*args)
        idx = self._tracer.open(TRANSPORT)
        try:
            return fn(*args)
        finally:
            self._tracer.close(idx)


DECODE_OPS = ("op.blind", "op.plain", "op.ttft", "op.pipeline")
SEARCH_OPS = ("op.hill", "op.sample")

# name, unit; the values are per round of the workload unless the name says otherwise
PER_LAYER = (
    ("tensor_ops.matmul.calls", "count"),
    ("tensor_ops.matmul.s", "s"),
    ("tensor_ops.matmul.rows_mean", "rows/call"),
    ("tensor_ops.matmul.gflop", "GFLOP"),
    ("tensor_ops.softmax_rows.s", "s"),
    ("tensor_ops.layer_norm.s", "s"),
    ("tensor_ops.activate.s", "s"),
    ("model.forward.calls", "count"),
    ("model.positions", "count"),
    ("model.positions_per_token", "ratio"),
    ("model.apply_layer_range.self_s", "s"),
    ("model.greedy_decode.self_s", "s"),
    ("encryption.encrypt_tokens.s", "s"),
    ("encryption.decrypt_tokens.s", "s"),
    ("encryption.keygen.s", "s"),
    ("encryption.encrypt_model.s", "s"),
    ("encryption.load_key.s", "s"),
    ("model.load_model.s", "s"),
    ("shard_sim.hop_compute.s", "s"),
    ("shard_sim.frames", "count"),
    ("shard_sim.encode_frame.s", "s"),
    ("shard_sim.decode_frame.s", "s"),
    ("shard_sim.frame_bytes", "bytes"),
    ("shard_sim.token_msg_bytes", "bytes"),
    ("shard_sim.transport.s", "s"),
    ("shard_sim.run_pipeline.self_s", "s"),
    ("shard_sim.reassignments", "count"),
    ("shard_sim.audit.recompute_s", "s"),
    ("shard_sim.audit.self_s", "s"),
    ("attack.evals", "count"),
    ("attack.oracle.decodes", "count"),
    ("attack.oracle.s", "s"),
    ("attack.evals_per_oracle_decode", "ratio"),
    ("attack.search.self_s", "s"),
    ("attack.generate_corpus.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)


def layer_metrics(tracer: Tracer, rounds: int, setups: int, counts: dict) -> dict[str, float]:
    """Per-layer figures from the recorded spans.

    Figures under the benchmark's timed operations are divided by ``rounds``;
    set-up figures (keygen, encrypt_model, load_key, load_model,
    generate_corpus) by ``setups``. ``counts`` carries what the workload
    counted itself over the traced rounds: generated tokens of the decode
    operations, transport bytes, reassignments and attack evaluations.
    """
    n = len(tracer.names)
    root = [0] * n
    dur = [0.0] * n
    child = [0.0] * n
    for i in range(n):
        p = tracer.parents[i]
        root[i] = i if p < 0 else root[p]
        dur[i] = tracer.ends[i] - tracer.starts[i]
        if p >= 0:
            child[p] += dur[i]
    total: dict[tuple[str, str], float] = defaultdict(float)
    self_time: dict[tuple[str, str], float] = defaultdict(float)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    positions = 0
    mm_rows = 0
    mm_flop = 0
    for i in range(n):
        key = (tracer.names[root[i]], tracer.names[i])
        total[key] += dur[i]
        self_time[key] += dur[i] - child[i]
        calls[key] += 1
        attrs = tracer.attrs[i]
        if key[1] == "tensor_ops.matmul" and key[0] != "setup":
            mm_rows += attrs[0]
            mm_flop += 2 * attrs[0] * attrs[1] * attrs[2]
        elif key[1] == "model.apply_layer_range" and key[0] in DECODE_OPS and attrs[1] == 0:
            positions += attrs[0]

    def over(ops, span, table=total):
        return sum(table[(op, span)] for op in ops)

    timed = DECODE_OPS + ("op.audit",) + SEARCH_OPS
    mm_calls = over(timed, "tensor_ops.matmul", calls)
    oracle_decodes = over(SEARCH_OPS, "model.greedy_decode", calls)
    return {
        "tensor_ops.matmul.calls": mm_calls / rounds,
        "tensor_ops.matmul.s": over(timed, "tensor_ops.matmul") / rounds,
        "tensor_ops.matmul.rows_mean": mm_rows / max(mm_calls, 1),
        "tensor_ops.matmul.gflop": mm_flop / 1e9 / rounds,
        "tensor_ops.softmax_rows.s": over(timed, "tensor_ops.softmax_rows") / rounds,
        "tensor_ops.layer_norm.s": over(timed, "tensor_ops.layer_norm") / rounds,
        "tensor_ops.activate.s": over(timed, "tensor_ops.activate") / rounds,
        "model.forward.calls": over(timed, "model.forward", calls) / rounds,
        "model.positions": positions / rounds,
        "model.positions_per_token": positions / max(counts["decode_tokens"], 1),
        "model.apply_layer_range.self_s": over(timed, "model.apply_layer_range", self_time) / rounds,
        "model.greedy_decode.self_s": over(timed, "model.greedy_decode", self_time) / rounds,
        "encryption.encrypt_tokens.s": over(DECODE_OPS, "encryption.encrypt_tokens") / rounds,
        "encryption.decrypt_tokens.s": over(DECODE_OPS, "encryption.decrypt_tokens") / rounds,
        "encryption.keygen.s": total[("setup", "encryption.keygen")] / setups,
        "encryption.encrypt_model.s": total[("setup", "encryption.encrypt_model")] / setups,
        "encryption.load_key.s": total[("setup", "encryption.load_key")] / setups,
        "model.load_model.s": total[("setup", "model.load_model")] / setups,
        "shard_sim.hop_compute.s": total[("op.pipeline", "model.apply_layer_range")] / rounds,
        "shard_sim.frames": calls[("op.pipeline", "shard_sim.encode_frame")] / rounds,
        "shard_sim.encode_frame.s": total[("op.pipeline", "shard_sim.encode_frame")] / rounds,
        "shard_sim.decode_frame.s": total[("op.pipeline", "shard_sim.decode_frame")] / rounds,
        "shard_sim.frame_bytes": counts["frame_bytes"] / rounds,
        "shard_sim.token_msg_bytes": counts["token_msg_bytes"] / rounds,
        "shard_sim.transport.s": total[("op.pipeline", TRANSPORT)] / rounds,
        "shard_sim.run_pipeline.self_s": self_time[("op.pipeline", "shard_sim.run_pipeline")] / rounds,
        "shard_sim.reassignments": counts["reassignments"] / rounds,
        "shard_sim.audit.recompute_s": (
            total[("op.audit", "model.embed_positions")] + total[("op.audit", "model.apply_layer_range")]
        ) / rounds,
        "shard_sim.audit.self_s": self_time[("op.audit", "shard_sim.audit_blindness")] / rounds,
        "attack.evals": counts["evals"] / rounds,
        "attack.oracle.decodes": oracle_decodes / rounds,
        "attack.oracle.s": over(SEARCH_OPS, "model.greedy_decode") / rounds,
        "attack.evals_per_oracle_decode": counts["evals"] / max(oracle_decodes, 1),
        "attack.search.self_s": (
            self_time[("op.hill", "attack.hill_climb")] + self_time[("op.sample", "attack.random_sampling")]
        ) / rounds,
        "attack.generate_corpus.s": total[("setup", "attack.generate_corpus")] / setups,
    }
