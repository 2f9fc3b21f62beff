"""Fidelity, equivariance and latency of plaintext vs ciphertext inference.

compare_arms runs both arms once per prompt and reads two reports from the
same logits. Fidelity compares per-prompt confidence scores (probability of
the argmax next token) between the plaintext pipeline and the full
ciphertext pipeline after decryption: 1 - mean relative gap. Equivariance
compares the logits themselves, the decoded tokens and the token round trip.
Latency times both full pipelines over the same prompts (token encryption
and decryption included on the ciphertext arm) in one loop: per repeat, both
arms run back to back on each prompt, and the first arm flips after every
prompt, the order carrying over into the next repeat. It reports median
seconds plus the median of the per-repeat overhead percentages.
"""
from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .containers import json_ids, read_jsonl, write_jsonl
from .encryption import EEKey, decrypt_logits, decrypt_tokens, encrypt_model, encrypt_tokens
from .errors import ConfigError, DomainError, PairingError, RangeError, ShapeError
from .model import (
    CIPHERTEXT,
    PLAINTEXT,
    ModelBundle,
    ModelConfig,
    TokenSeq,
    forward,
    greedy_decode,
)
from .tensor_ops import softmax_rows


def _score_arrays(scores_vi, scores_ee) -> tuple[np.ndarray, np.ndarray]:
    vi = np.asarray(scores_vi, dtype=np.float64)
    ee = np.asarray(scores_ee, dtype=np.float64)
    if vi.ndim != 1 or ee.ndim != 1:
        raise ShapeError("score lists must be one-dimensional")
    if vi.shape != ee.shape:
        raise ShapeError(f"score lists differ in length: {vi.shape[0]} vs {ee.shape[0]}")
    if vi.shape[0] == 0:
        raise DomainError("fidelity of empty score lists is undefined")
    for name, arr in (("scores_vi", vi), ("scores_ee", ee)):
        if not ((0 <= arr) & (arr <= 1)).all():
            raise RangeError(f"{name} has entries outside [0, 1]")
    return vi, ee


@dataclass(frozen=True)
class FidelityReport:
    """Paired confidence scores and the fidelity they imply,
    1 - mean(|ee - vi| / max(ee, vi))."""

    scores_vi: tuple[float, ...]
    scores_ee: tuple[float, ...]
    n: int = field(init=False)
    fidelity: float = field(init=False)
    skipped_zero_pairs: int = field(init=False)

    def __post_init__(self) -> None:
        vi, ee = _score_arrays(self.scores_vi, self.scores_ee)
        peak = np.maximum(vi, ee)
        both_zero = peak == 0.0
        # a 0/0 pair means both arms agree exactly; it contributes no gap
        gaps = np.where(both_zero, 0.0, np.abs(ee - vi) / np.where(both_zero, 1.0, peak))
        object.__setattr__(self, "scores_vi", tuple(vi.tolist()))
        object.__setattr__(self, "scores_ee", tuple(ee.tolist()))
        object.__setattr__(self, "n", len(vi))
        object.__setattr__(self, "fidelity", float(1.0 - gaps.mean()))
        object.__setattr__(self, "skipped_zero_pairs", int(both_zero.sum()))


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
    min_top2_margin: float


@dataclass(frozen=True)
class LatencyReport:
    """Median pipeline seconds per arm plus the overhead percentage, read
    from each arm's per-repeat samples.

    ``delta_t_pct`` is the median of the per-repeat paired overheads, so a
    change in host speed between repeats, which both arms of a repeat share,
    drops out.
    """

    vi_samples: tuple[float, ...]
    ee_samples: tuple[float, ...]
    vi_seconds: float = field(init=False)
    ee_seconds: float = field(init=False)
    delta_t_pct: float = field(init=False)
    delta_t_std_pct: float = field(init=False)
    repeats: int = field(init=False)
    batch_size: int = field(init=False, default=1)

    def __post_init__(self) -> None:
        if not self.vi_samples or len(self.vi_samples) != len(self.ee_samples):
            raise ShapeError("latency needs one sample per arm per repeat, and a repeat")
        if not all(0 < s < math.inf for s in (*self.vi_samples, *self.ee_samples)):
            raise RangeError("latency samples must be finite and > 0 seconds")
        # each repeat's EE-over-VI overhead, in percent
        deltas = [(ee - vi) / vi * 100.0 for vi, ee in zip(self.vi_samples, self.ee_samples)]
        object.__setattr__(self, "vi_seconds", statistics.median(self.vi_samples))
        object.__setattr__(self, "ee_seconds", statistics.median(self.ee_samples))
        object.__setattr__(self, "delta_t_pct", statistics.median(deltas))
        object.__setattr__(self, "delta_t_std_pct", float(np.std(deltas)))
        object.__setattr__(self, "repeats", len(self.vi_samples))


def _check_arms(model_vi: ModelBundle, model_ee: ModelBundle, key: EEKey) -> None:
    """The EE arm must be the VI arm encrypted under the key, byte for byte."""
    if model_vi.domain != PLAINTEXT:
        raise DomainError("the VI arm needs a plaintext model")
    if model_ee.domain != CIPHERTEXT:
        raise DomainError("the EE arm needs a ciphertext model")
    expected = encrypt_model(key, model_vi).tensors
    if model_ee.config != model_vi.config or any(
        model_ee.tensors[name].tobytes() != t.tobytes() for name, t in expected.items()
    ):
        raise PairingError("the EE arm is not the VI arm encrypted under this key")


def _confidence(row: np.ndarray) -> float:
    """Softmax probability of the argmax token of one logit row, shape (1, V)."""
    return float(softmax_rows(row)[0].max())


def compare_arms(
    model_vi: ModelBundle,
    model_ee: ModelBundle,
    key: EEKey,
    prompts: Sequence[TokenSeq],
    n_new: int,
) -> tuple[FidelityReport, EquivarianceReport]:
    """Plaintext against decrypted ciphertext inference over a prompt set.

    Per prompt, each arm decodes n_new tokens greedily and makes one forward
    pass. Both reports read those logits: fidelity the argmax probability at
    the last prompt position, equivariance the prompt rows, the tokens and
    the plaintext top-2 margin.
    """
    _check_arms(model_vi, model_ee, key)
    if not prompts:
        raise DomainError("fidelity needs at least one prompt")
    return _compare_arms(model_vi, model_ee, key, prompts, n_new)


def _compare_arms(
    model_vi: ModelBundle,
    model_ee: ModelBundle,
    key: EEKey,
    prompts: Sequence[TokenSeq],
    n_new: int,
) -> tuple[FidelityReport, EquivarianceReport]:
    """compare_arms on arms and prompts already checked: measure_latency's
    checks cover compare_arms' too."""
    scores_vi: list[float] = []
    scores_ee: list[float] = []
    max_diff = 0.0
    token_match = True
    recoverable = True
    margin = math.inf
    for prompt in prompts:
        c_prompt = encrypt_tokens(key, prompt)
        recoverable &= decrypt_tokens(key, c_prompt).ids == prompt.ids
        if n_new == 0:
            plain_logits = forward(model_vi, prompt)
        else:
            plain_out = greedy_decode(model_vi, prompt, n_new)
            cipher_out = decrypt_tokens(key, greedy_decode(model_ee, c_prompt, n_new))
            token_match &= plain_out.ids == cipher_out.ids
            # forward is row-local: its rows equal what decoding saw at each position,
            # and its first len(prompt) rows equal a pass over the prompt alone
            plain_logits = forward(model_vi, TokenSeq(plain_out.ids[:-1], PLAINTEXT))
            top2 = np.sort(plain_logits[len(prompt) - 1 :], axis=1)[:, -2:]
            margin = min(margin, float(np.min(top2[:, 1] - top2[:, 0])))
        cipher_logits = decrypt_logits(key, forward(model_ee, c_prompt))
        scores_vi.append(_confidence(plain_logits[len(prompt) - 1 : len(prompt)]))
        scores_ee.append(_confidence(cipher_logits[-1:]))
        diff = plain_logits[: len(prompt)] - cipher_logits
        max_diff = max(max_diff, float(np.max(np.abs(diff))))
    fid = FidelityReport(tuple(scores_vi), tuple(scores_ee))
    eq = EquivarianceReport(
        n_prompts=len(prompts),
        max_abs_logit_diff=max_diff,
        token_match=token_match,
        recoverability_ok=recoverable,
        min_top2_margin=margin,
    )
    return fid, eq


def measure_latency(
    model_vi: ModelBundle,
    model_ee: ModelBundle,
    key: EEKey,
    prompts: Sequence[TokenSeq],
    n_new: int,
    repeats: int,
) -> LatencyReport:
    """Median wall-clock seconds per arm over the same prompts and length.

    The EE arm is the full pipeline: encrypt tokens, decode on the encrypted
    model, decrypt tokens. Each arm runs once over every prompt untimed, VI
    first; then the loop the module docstring names sums each arm's seconds
    per repeat, so drift in host speed lands on both arms alike. The
    reported overhead is the median of the per-repeat paired overheads.
    """
    if repeats < 3:
        raise ConfigError(f"repeats must be >= 3 for a stable median, got {repeats}")
    if not prompts:
        raise DomainError("latency measurement needs at least one prompt")
    _check_arms(model_vi, model_ee, key)
    arms = (
        lambda p: greedy_decode(model_vi, p, n_new),
        lambda p: decrypt_tokens(key, greedy_decode(model_ee, encrypt_tokens(key, p), n_new)),
    )
    for arm in arms:
        for p in prompts:
            arm(p)
    samples = []
    order = [0, 1]  # indices into arms, VI first
    for _ in range(repeats):
        totals = [0.0, 0.0]
        for p in prompts:
            for i in order:
                t0 = time.perf_counter()
                arms[i](p)
                totals[i] += time.perf_counter() - t0
            order.reverse()
        samples.append(totals)
    vi_samples, ee_samples = zip(*samples)
    return LatencyReport(vi_samples, ee_samples)


def emit_report(
    fid: FidelityReport,
    lat: LatencyReport,
    path: str | Path,
    model_name: str = "toy-decoder",
) -> tuple[Path, Path]:
    """Write <path>.report.json and <path>.report.md; returns both paths."""
    base = Path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    json_path = base.with_name(base.name + ".report.json")
    md_path = base.with_name(base.name + ".report.md")

    # sort_keys fixes the key order and tuples are written as JSON arrays
    doc = {"model": model_name, "fidelity": asdict(fid), "latency": asdict(lat)}
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")

    row = (
        f"| {model_name} | {lat.vi_seconds:.6f} | {lat.ee_seconds:.6f} "
        f"| {lat.delta_t_pct:.2f} | {fid.fidelity * 100.0:.2f} "
        f"| {lat.delta_t_std_pct:.2f} |"
    )
    lines = [
        "# Inference benchmark",
        "",
        f"Prompts: {fid.n}; repeats: {lat.repeats}; batch size: {lat.batch_size}.",
        "",
        "| Model | VI(s) | EE(s) | dT(%) | Fid(%) | dT Std(%) |",
        "| --- | --- | --- | --- | --- | --- |",
        row,
        "",
    ]
    md_path.write_text("\n".join(lines), encoding="utf-8")
    return json_path, md_path


def random_prompts(config: ModelConfig, n: int, length: int, seed: int) -> list[TokenSeq]:
    """n uniform plaintext prompts of the given length."""
    if n < 1 or length < 1:
        raise ConfigError("n and length must be >= 1")
    if length > config.max_seq_len:
        raise ShapeError(f"prompt length {length} exceeds max_seq_len {config.max_seq_len}")
    rng = np.random.default_rng(seed)
    return [
        TokenSeq(tuple(int(t) for t in rng.integers(0, config.vocab_size, size=length)), PLAINTEXT)
        for _ in range(n)
    ]


def save_prompts(prompts: Sequence[TokenSeq], path: str | Path) -> None:
    write_jsonl(path, ({"input_ids": list(p.ids)} for p in prompts))


def load_prompts(path: str | Path) -> list[TokenSeq]:
    return read_jsonl(path, "prompt", lambda obj: TokenSeq(json_ids(obj["input_ids"]), PLAINTEXT))
