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
from .errors import ConfigError, DomainError, RangeError, ShapeError, check_float, check_int
from .model import PLAINTEXT, ModelBundle, ModelConfig, TokenSeq, forward, greedy_decode
from .tensor_ops import softmax_rows


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
        shape_vi, shape_ee = np.shape(self.scores_vi), np.shape(self.scores_ee)
        if len(shape_vi) != 1 or len(shape_ee) != 1:
            raise ShapeError("score lists must be one-dimensional")
        if shape_vi != shape_ee:
            raise ShapeError(f"score lists differ in length: {shape_vi[0]} vs {shape_ee[0]}")
        if shape_vi[0] == 0:
            raise DomainError("fidelity of empty score lists is undefined")
        arms = [[check_float(s, f"{name} entry", RangeError, hi=1) for s in getattr(self, name)]
                for name in ("scores_vi", "scores_ee")]
        vi, ee = np.asarray(arms, dtype=np.float64)
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
        vi, ee = (tuple(check_float(s, "latency sample", RangeError, open_lo=True) for s in arm)
                  for arm in (self.vi_samples, self.ee_samples))
        vars(self).update(vi_samples=vi, ee_samples=ee)
        # each repeat's EE-over-VI overhead, in percent
        deltas = [(ee - vi) / vi * 100.0 for vi, ee in zip(self.vi_samples, self.ee_samples)]
        object.__setattr__(self, "vi_seconds", statistics.median(self.vi_samples))
        object.__setattr__(self, "ee_seconds", statistics.median(self.ee_samples))
        object.__setattr__(self, "delta_t_pct", statistics.median(deltas))
        object.__setattr__(self, "delta_t_std_pct", float(np.std(deltas)))
        object.__setattr__(self, "repeats", len(self.vi_samples))


@dataclass(frozen=True)
class Arms:
    """The two arms of a comparison: the plaintext (VI) model, the key, and
    the ciphertext (EE) model, which is the VI model encrypted under the key.

    encrypt_model refuses a ciphertext VI model (DomainError) and a key made
    for another config (PairingError).
    """

    vi: ModelBundle
    key: EEKey
    ee: ModelBundle = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ee", encrypt_model(self.key, self.vi))


def _confidence(row: np.ndarray) -> float:
    """Softmax probability of the argmax token of one logit row, shape (1, V)."""
    return float(softmax_rows(row)[0].max())


def compare_arms(
    arms: Arms, prompts: Sequence[TokenSeq], n_new: int
) -> tuple[FidelityReport, EquivarianceReport]:
    """Plaintext against decrypted ciphertext inference over a prompt set.

    Per prompt, each arm decodes n_new tokens greedily and makes one forward
    pass. Both reports read those logits: fidelity the argmax probability at
    the last prompt position, equivariance the prompt rows, the tokens and
    the plaintext top-2 margin.
    """
    if not prompts:
        raise DomainError("fidelity needs at least one prompt")
    vi, ee, key = arms.vi, arms.ee, arms.key
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
            plain_logits = forward(vi, prompt)
        else:
            plain_out = greedy_decode(vi, prompt, n_new)
            cipher_out = decrypt_tokens(key, greedy_decode(ee, c_prompt, n_new))
            token_match &= plain_out.ids == cipher_out.ids
            # forward is row-local: its rows equal what decoding saw at each position,
            # and its first len(prompt) rows equal a pass over the prompt alone
            plain_logits = forward(vi, TokenSeq(plain_out.ids[:-1], PLAINTEXT))
            top2 = np.sort(plain_logits[len(prompt) - 1 :], axis=1)[:, -2:]
            margin = min(margin, float(np.min(top2[:, 1] - top2[:, 0])))
        cipher_logits = decrypt_logits(key, forward(ee, c_prompt))
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
    arms: Arms, prompts: Sequence[TokenSeq], n_new: int, repeats: int
) -> LatencyReport:
    """Median wall-clock seconds per arm over the same prompts and length.

    The EE arm is the full pipeline: encrypt tokens, decode on the encrypted
    model, decrypt tokens. Each arm runs once over every prompt untimed, VI
    first; then the loop the module docstring names sums each arm's seconds
    per repeat, so drift in host speed lands on both arms alike. The
    reported overhead is the median of the per-repeat paired overheads.
    """
    # three repeats at least, for a stable median
    repeats = check_int(repeats, "repeats", ConfigError, lo=3)
    if not prompts:
        raise DomainError("latency measurement needs at least one prompt")
    vi, ee, key = arms.vi, arms.ee, arms.key
    pipelines = (
        lambda p: greedy_decode(vi, p, n_new),
        lambda p: decrypt_tokens(key, greedy_decode(ee, encrypt_tokens(key, p), n_new)),
    )
    for pipeline in pipelines:
        for p in prompts:
            pipeline(p)
    samples = []
    order = [0, 1]  # indices into pipelines, VI first
    for _ in range(repeats):
        totals = [0.0, 0.0]
        for p in prompts:
            for i in order:
                t0 = time.perf_counter()
                pipelines[i](p)
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
    n = check_int(n, "n", ConfigError, lo=1)
    length = check_int(length, "length", ConfigError, lo=1)
    if length > config.max_seq_len:
        raise ShapeError(f"prompt length {length} exceeds max_seq_len {config.max_seq_len}")
    rng = np.random.default_rng(check_int(seed, "seed", ConfigError))
    return [
        TokenSeq(tuple(int(t) for t in rng.integers(0, config.vocab_size, size=length)), PLAINTEXT)
        for _ in range(n)
    ]


def save_prompts(prompts: Sequence[TokenSeq], path: str | Path) -> None:
    write_jsonl(path, ({"input_ids": list(p.ids)} for p in prompts))


def load_prompts(path: str | Path) -> list[TokenSeq]:
    return read_jsonl(path, "prompt", lambda obj: TokenSeq(json_ids(obj["input_ids"]), PLAINTEXT))
