"""Recovery attacks against the vocabulary permutation.

An eavesdropper sees ciphertext (input, output) pairs and tries to find the
mapping ciphertext -> plaintext. Losses score a candidate mapping:

* unigram / bigram: L1 distance between the decrypted corpus statistics
  and reference statistics (frequency cues).
* consistency: fraction of pairs where replaying the decrypted input
  through a plaintext oracle model does not reproduce the decrypted output.
  The true mapping scores 0 on a greedy-generated corpus.

Each loss component is computed by one private function over statistics of
the ciphertext corpus. One method, ``_Search.evaluate``, scores every
candidate, for total_loss and for the optimizers alike: it weighs the
components, counts the evaluation and records the running best, so a
candidate map only relabels precomputed counts.

Optimizers search permutation space: exhaustive enumeration (tiny
vocabularies only), best-of-M random draws, and 2-swap hill climbing with
random restarts. All three report an AttackState whose trace records every
improvement of the running best.

Random sampling draws its candidates a block at a time, with one
``Generator.permuted`` call over rows of the identity: row by row, these are
the maps of as many successive ``permutation`` draws, and the generator ends
in the same state. One numpy pass scores the unigram losses of the whole
block, each row reduced on its own with the bits of a 1-D sum. Hill
climbing builds and scores the next swaps of its sweep the same way, and
drops the scores left after an accept unread. Scoring a row is not an
evaluation: ``_Search.evaluate`` then takes the rows one at a time, in
order, with their precomputed scores, and only it applies the bound, asks
the oracle and extends the trace. A random draw whose weighted unigram term
(0 with that term off) already reaches the best so far is counted by
``_Search.sample`` without an ``evaluate`` call: ``evaluate`` would stop it
at its first bound check, because the bigram term is never negative, and a
draw stopped there changes nothing but the count. The draws between two
calls are counted before the next one, so every draw, evaluation count,
trace index, memo key and result is that of scoring one candidate at a
time.

Oracle continuations are memoized by decrypted input; the oracle is a pure
function, so memoization never changes a loss value, only the cost of
computing it. The oracle takes a list of requests and decodes its memo misses
in one batched greedy decode per distinct (prompt length, n_new). A miss of
two or more ids continues from a cache of every vocabulary token at position
0, prefilled once: it takes its first id's cached position and decodes the
ids after it, with the bytes of a fresh decode, since every kernel is
row-local. A candidate
decrypts every corpus pair with one gather over the corpus ids laid end to
end; a pair's prompt and expected continuation are slices of those int64
bytes, which key the memo and compare with its continuations as they are. An
evaluation first scores every pair whose continuation the memo already holds,
at no decoding cost. It then hands the oracle its memo misses one window at a
time: the next misses it is certain to check, because its early stop (below)
cannot fire before them even if each of them mismatches. The mismatch count
only grows and the hits are all counted before any miss, so every miss decoded
here is one that a pair-by-pair check in index order would also have decoded:
the oracle decodes a subset of that check's prompts. A complete evaluation
checks the same pairs in either order, and a given-up one is never accepted,
so no loss, flag or trace changes.

Hill climbing keeps every corpus pair's mismatch flag for its incumbent map,
and their count next to them, and scores a swap of ciphertext tokens i and j
by re-checking only the pairs that contain i or j (Jakobsen's swap update for
substitution ciphers): no other pair can change, and the mismatch count is an
integer, so the loss is bit-identical to a full evaluation. Candidate
evaluations may stop early once a partial lower bound proves the candidate
cannot beat the incumbent; such evaluations never produce accepted states, so
reported losses are always fully evaluated.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .containers import json_ids, read_jsonl, write_jsonl
from .bench import random_prompts
from .encryption import check_pairing, encrypt_tokens
from .errors import ConfigError, RangeError, RefusalError, ShapeError, check_int
from .model import PLAINTEXT, KVCache, ModelBundle, TokenSeq, forward, greedy_decode
from .tensor_ops import PermTable

BRUTE_FORCE_MAX_VOCAB = 9

# random sampling draws and scores its candidates this many at a time. At
# budget 20 000 on vocab 50 it ran about 1.7x as fast as one draw at a time
# with blocks of 64, and 1.8x with 256 up to the whole budget; 1024 keeps a
# block's maps and losses to 16 KiB per vocabulary token (800 KiB at vocab
# 50), where the whole budget at once would hold 16 MiB
_SAMPLE_BLOCK = 1024
# hill climbing scores the next this many swaps of its sweep at a time, and
# drops the rest of a chunk unread after an accept. At budget 20 000 on vocab
# 50, chunks of one swap ran about 1.6x slower than scoring swaps one by one
# without blocks, and chunks of 64 about 10-15% faster
_SWAP_CHUNK = 64


@dataclass(frozen=True)
class TranscriptCorpus:
    """Ciphertext (input_ids, output_ids) pairs captured off the wire."""

    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    vocab_size: int

    def __post_init__(self) -> None:
        vocab = check_int(self.vocab_size, "vocab_size", ConfigError, lo=2)
        object.__setattr__(self, "vocab_size", vocab)
        if not self.pairs:
            raise ConfigError("corpus must contain at least one pair")
        norm = []
        for pair_in, pair_out in self.pairs:
            pi, po = (tuple([check_int(t, "token id", RangeError, hi=vocab - 1) for t in seq])
                      for seq in (pair_in, pair_out))
            if not pi or not po:
                raise ConfigError("corpus pairs need a non-empty input and output")
            norm.append((pi, po))
        object.__setattr__(self, "pairs", tuple(norm))

    def all_tokens(self) -> np.ndarray:
        flat = [t for pi, po in self.pairs for t in pi + po]
        return np.asarray(flat, dtype=np.int64)


def save_corpus(corpus: TranscriptCorpus, path: str | Path) -> None:
    write_jsonl(path, ({"input_ids": list(i), "output_ids": list(o)} for i, o in corpus.pairs))


def load_corpus(path: str | Path, vocab_size: int) -> TranscriptCorpus:
    pairs = read_jsonl(
        path, "corpus", lambda obj: (json_ids(obj["input_ids"]), json_ids(obj["output_ids"]))
    )
    return TranscriptCorpus(pairs=tuple(pairs), vocab_size=vocab_size)


def generate_corpus(
    model: ModelBundle,
    key,
    n_pairs: int,
    prompt_len: int,
    n_new: int,
    seed: int,
) -> TranscriptCorpus:
    """Greedy-generate plaintext pairs and publish them encrypted."""
    check_pairing(key, model.config)
    # random_prompts checks n_pairs, prompt_len and the seed
    n_new = check_int(n_new, "n_new", ConfigError, lo=1)
    prompts = random_prompts(model.config, n_pairs, prompt_len, seed)
    pairs = []
    for prompt, full in zip(prompts, greedy_decode(model, prompts, n_new)):
        out = TokenSeq(full.ids[prompt_len:], PLAINTEXT)
        pairs.append((encrypt_tokens(key, prompt).ids, encrypt_tokens(key, out).ids))
    return TranscriptCorpus(pairs=tuple(pairs), vocab_size=model.config.vocab_size)


def _token_freq(corpus: TranscriptCorpus) -> np.ndarray:
    """Frequencies of the ciphertext corpus tokens (inputs and outputs)."""
    counts = np.bincount(corpus.all_tokens(), minlength=corpus.vocab_size)
    return counts / counts.sum()


def _decrypt_freq(enc_freq: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """The decrypted distribution of each row of a (B, n) block of maps: the
    encrypted one rescattered, in one fancy-index scatter."""
    dec = np.empty(maps.shape, dtype=np.float64)
    dec[np.arange(maps.shape[0])[:, None], maps] = enc_freq
    return dec


def _bigram_counts(corpus: TranscriptCorpus) -> list[tuple[int, int, dict[int, int]]]:
    """(context, context count, successor counts) over ciphertext ids, in
    first-seen order.

    Adjacency runs across each pair's input->output boundary: the output is
    the continuation of the input, so that bigram is real.
    """
    rows: dict[int, dict[int, int]] = {}
    for pair_in, pair_out in corpus.pairs:
        seq = pair_in + pair_out
        for a, b in zip(seq, seq[1:]):
            row = rows.setdefault(a, {})
            row[b] = row.get(b, 0) + 1
    return [(ctx, sum(row.values()), row) for ctx, row in rows.items()]


def empirical_unigram(corpus: TranscriptCorpus, perm: PermTable) -> np.ndarray:
    """Distribution of perm-decrypted corpus tokens (inputs and outputs)."""
    _check_perm(perm, corpus.vocab_size)
    return _decrypt_freq(_token_freq(corpus), perm.map[None])[0]


def empirical_bigram(corpus: TranscriptCorpus, perm: PermTable) -> dict[int, dict[int, float]]:
    """Sparse conditional next-token distributions of the decrypted corpus."""
    _check_perm(perm, corpus.vocab_size)
    return {
        int(perm.map[ctx]): {int(perm.map[nxt]): c / n_ctx for nxt, c in row.items()}
        for ctx, n_ctx, row in _bigram_counts(corpus)
    }


class GreedyOracle:
    """Plaintext greedy-continuation oracle with exact memoization.

    Misses of two or more ids continue from a cache of every vocabulary
    token at position 0, prefilled once on the first such miss: a miss
    takes its first id's cached position and decodes only the ids after it.
    Every kernel is row-local, so a continuation has the bytes of a fresh
    decode. The cache holds vocab_size * n_layers * 2 * max_seq_len *
    d_model float64 entries."""

    def __init__(self, model: ModelBundle) -> None:
        if model.domain != PLAINTEXT:
            raise ConfigError("the oracle needs the plaintext model")
        self.model = model
        # (bytes of the ids as int64, n_new) -> bytes of the continuation as int64
        self._memo: dict[tuple[bytes, int], bytes] = {}
        self._first: KVCache | None = None  # position 0 of every token, one request each

    def _first_positions(self) -> KVCache:
        if self._first is None:
            cfg = self.model.config
            self._first = KVCache(self.model, 0, cfg.n_layers - 1, cfg.vocab_size)
            forward(self._first, [TokenSeq((v,), PLAINTEXT) for v in range(cfg.vocab_size)])
        return self._first

    def continuations(self, requests: Sequence[tuple[np.ndarray, int]]) -> list[np.ndarray]:
        """For each (ids, n_new) request, the n_new ids greedy decoding
        appends to ids, as a read-only int64 array; ids that are not
        integers are refused with RangeError, not truncated. The memo misses
        are decoded in one greedy_decode call per distinct (len(ids), n_new),
        those of two or more ids from the cached first positions."""
        memo = self._memo
        keys = []
        misses: dict[tuple[int, int], dict[tuple[bytes, int], np.ndarray]] = {}
        for ids, n_new in requests:
            ids = np.asarray(ids)
            if ids.dtype != np.int64:
                # a float would be truncated and a bool taken as 0 or 1
                if ids.size and ids.dtype.kind not in "iu":
                    raise RangeError(
                        f"token ids must be integers, got {ids.dtype} id {ids.flat[0].item()!r}"
                    )
                ids = ids.astype(np.int64)
            key = (ids.tobytes(), n_new)
            keys.append(key)
            if key not in memo:
                misses.setdefault((len(ids), n_new), {})[key] = ids
        vocab = self.model.config.vocab_size
        for (length, n_new), group in misses.items():
            source, cached = self.model, 0
            if length > 1:
                firsts = [check_int(ids[0], "token id", RangeError, hi=vocab - 1)
                          for ids in group.values()]
                source, cached = self._first_positions().take(firsts), 1
            prompts = [TokenSeq(tuple(ids[cached:].tolist()), PLAINTEXT) for ids in group.values()]
            for key, out in zip(group, greedy_decode(source, prompts, n_new)):
                memo[key] = np.asarray(out.ids[length - cached :], dtype=np.int64).tobytes()
        return [np.frombuffer(memo[key], dtype=np.int64) for key in keys]

    def known(self, ids: bytes, n_new: int) -> bytes | None:
        """The memoized continuation of the ids whose int64 bytes are ``ids``,
        as int64 bytes, or None if it was never decoded; never decodes.

        Equal int64 bytes are equal ids, so a caller can compare the result
        with the bytes of the continuation it expects."""
        return self._memo.get((ids, n_new))


def _check_perm(perm: PermTable, vocab_size: int) -> None:
    if perm.n != vocab_size:
        raise ShapeError(f"permutation size {perm.n} does not match vocab_size {vocab_size}")


def _unigram_l1(enc_freq: np.ndarray, maps: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The unigram L1 loss of each row of a (B, n) block of maps.

    Each row is reduced on its own, in numpy's pairwise order for a
    contiguous row, so a row's loss has the bits of the 1-D sum of that
    row's |dec - ref|."""
    dec = _decrypt_freq(enc_freq, maps)
    dec -= ref
    np.abs(dec, out=dec)
    return np.add.reduce(dec, axis=1)


def _bigram_l1(
    counts: list[tuple[int, int, dict[int, int]]],
    perm_map: np.ndarray,
    ref_bigram: Mapping[int, Mapping[int, float]],
) -> float:
    total = sum(n_ctx for _, n_ctx, _ in counts)
    loss = 0.0
    for enc_ctx, n_ctx, row in counts:
        ref_row = ref_bigram.get(int(perm_map[enc_ctx]))
        if ref_row is None:
            l1 = 2.0
        else:
            emp = {int(perm_map[b]): c / n_ctx for b, c in row.items()}
            keys = set(emp) | set(ref_row)
            l1 = sum(abs(emp.get(k, 0.0) - float(ref_row.get(k, 0.0))) for k in keys)
        loss += (n_ctx / total) * l1
    return loss


def _check_distribution(probs: np.ndarray, what: str) -> None:
    """Refuse a reference distribution unless its entries are finite and >= 0
    and sum to 1 within 1e-9."""
    # NaN fails every comparison, so this refuses it too
    if not ((0 <= probs) & (probs < np.inf)).all() or abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ConfigError(f"{what} must be finite and >= 0 and sum to 1")


@dataclass
class AttackConfig:
    """Loss landscape definition plus the optimizer budget and seed."""

    corpus: TranscriptCorpus
    lambda_uni: float = 0.0
    lambda_bi: float = 0.0
    lambda_cons: float = 0.0
    ref_unigram: np.ndarray | None = None
    ref_bigram: Mapping[int, Mapping[int, float]] | None = None
    oracle: GreedyOracle | None = None
    seed: int = 0
    budget: int = 1000

    def __post_init__(self) -> None:
        for name in ("lambda_uni", "lambda_bi", "lambda_cons"):
            # NaN fails every comparison, so this refuses it too
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
        if self.lambda_uni == 0 and self.lambda_bi == 0 and self.lambda_cons == 0:
            raise ConfigError("at least one loss component must have positive weight")
        self.seed = check_int(self.seed, "seed", ConfigError)
        self.budget = check_int(self.budget, "budget", ConfigError, lo=1)
        v = self.corpus.vocab_size
        if self.lambda_uni > 0:
            if self.ref_unigram is None:
                raise ConfigError("lambda_uni > 0 requires ref_unigram")
            ref = np.asarray(self.ref_unigram, dtype=np.float64)
            if ref.shape != (v,):
                raise ShapeError(f"ref_unigram shape {ref.shape} does not match vocab {v}")
            _check_distribution(ref, "ref_unigram")
            self.ref_unigram = ref
        if self.lambda_bi > 0:
            if self.ref_bigram is None:
                raise ConfigError("lambda_bi > 0 requires ref_bigram")
            for ctx, row in self.ref_bigram.items():
                check_int(ctx, "ref_bigram context", ConfigError, hi=v - 1)
                if not row:
                    raise ConfigError(f"ref_bigram context {ctx} has no successors")
                for nxt in row:
                    check_int(nxt, f"ref_bigram successor of context {ctx}", ConfigError, hi=v - 1)
                probs = np.asarray([float(p) for p in row.values()])
                _check_distribution(probs, f"ref_bigram row for context {ctx}")
        if self.lambda_cons > 0:
            if self.oracle is None:
                raise ConfigError("lambda_cons > 0 requires an oracle model")
            oracle_config = self.oracle.model.config
            if oracle_config.vocab_size != v:
                raise ConfigError(
                    f"oracle vocab {oracle_config.vocab_size} does not match corpus vocab {v}"
                )
            longest = max(len(pi) + len(po) for pi, po in self.corpus.pairs)
            if longest > oracle_config.max_seq_len:
                raise ConfigError(
                    f"corpus pair of total length {longest} exceeds the oracle's "
                    f"max_seq_len {oracle_config.max_seq_len}"
                )


@dataclass(frozen=True)
class AttackState:
    """Optimizer result: best candidate, its loss, and the improvement trace."""

    perm: PermTable
    loss: float
    component_breakdown: Mapping[str, float]
    evals_used: int
    trace: tuple[tuple[int, float], ...]
    terminated: str


def save_attack_result(state: AttackState, cfg: AttackConfig, path: str | Path) -> None:
    doc = {
        "perm_map": state.perm.map.tolist(),
        "loss": state.loss,
        "component_breakdown": dict(state.component_breakdown),
        "weights": {
            "lambda_uni": cfg.lambda_uni,
            "lambda_bi": cfg.lambda_bi,
            "lambda_cons": cfg.lambda_cons,
        },
        "evals_used": state.evals_used,
        "budget": cfg.budget,
        "seed": cfg.seed,
        "trace": [[i, loss] for i, loss in state.trace],
        "terminated": state.terminated,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def total_loss(perm: PermTable, cfg: AttackConfig) -> tuple[float, dict[str, float]]:
    """Weighted sum of the enabled components plus the raw breakdown."""
    _check_perm(perm, cfg.corpus.vocab_size)
    value, breakdown, _ = _Search(cfg).evaluate(perm.map)
    return value, breakdown


class _Search:
    """One search on one loss landscape: the corpus statistics every
    candidate's score reads, the evaluation count, the best fully evaluated
    candidate and its improvement trace."""

    def __init__(self, cfg: AttackConfig) -> None:
        self.cfg = cfg
        self._enc_freq = _token_freq(cfg.corpus)
        # every pair's input then output ids, end to end, and per pair the
        # byte offsets of its input, output and end in them, and its n_new:
        # one gather and one tobytes decrypt every pair of a candidate
        flat: list[int] = []
        self._spans: list[tuple[int, int, int, int]] = []
        for pi, po in cfg.corpus.pairs:
            at = 8 * len(flat)
            flat += pi + po
            self._spans.append((at, at + 8 * len(pi), 8 * len(flat), len(po)))
        self._flat = np.asarray(flat, dtype=np.int64)
        # ciphertext token -> the pairs that contain it, in input or output
        self._touching: list[set[int]] = [set() for _ in range(cfg.corpus.vocab_size)]
        for k, (pi, po) in enumerate(cfg.corpus.pairs):
            for t in pi + po:
                self._touching[t].add(k)
        if cfg.lambda_bi > 0:
            self._bigrams = _bigram_counts(cfg.corpus)
        self.evals = 0
        self.loss = float("inf")
        self.map: np.ndarray | None = None
        self.breakdown: dict[str, float] = {}
        self.trace: list[tuple[int, float]] = []

    def unigrams(self, maps: np.ndarray) -> list[float] | list[None]:
        """The unigram loss of each row of a (B, n) block of maps, for
        ``evaluate``'s ``unigram``; None for each row when that term is off."""
        if self.cfg.lambda_uni > 0:
            return _unigram_l1(self._enc_freq, maps, self.cfg.ref_unigram).tolist()
        return [None] * maps.shape[0]

    def evaluate(
        self,
        perm_map: np.ndarray,
        bound: float | None = None,
        swap: tuple[int, int, dict[int, bool], int] | None = None,
        unigram: float | None = None,
    ) -> tuple[float, dict[str, float] | None, dict[int, bool] | None]:
        """Count and score one candidate: (loss, breakdown, mismatch flags of
        the re-checked pairs). A complete evaluation strictly below the best
        so far becomes the best and extends the trace.

        ``unigram`` is perm_map's row of ``unigrams`` over a block; without
        it the candidate is scored as a block of one, with the same bits.

        A full evaluation re-checks every corpus pair against the oracle.
        ``swap=(i, j, flags, mismatches)`` says perm_map is an incumbent with
        per-pair mismatch flags ``flags``, ``mismatches`` of them set, whose
        entries i and j were swapped: only the pairs containing ciphertext
        token i or j can change, so only they are re-checked. The count of
        mismatches is an integer either way, so the loss is bit-identical to
        a full evaluation.

        Each pair's prompt and expected continuation are slices of the int64
        bytes of every pair decrypted by perm_map at once: the memo is probed
        with the prompt's bytes and answers with the continuation's, so a pair
        is checked by comparing bytes. The pairs whose continuation the oracle
        already holds are scored first; the misses are then decoded one window
        at a time, in index order. With a bound, evaluation stops before a
        window as soon as the running lower bound reaches it; then breakdown
        and flags are None, and the returned value is only a lower bound. The
        count is an integer whatever the order, so a complete evaluation is
        bit-identical to one in index order; complete or not, it decodes a
        subset of the prompts a pair-by-pair check in index order would.

        ``sample`` counts a random draw without calling this method when this
        method would stop it at its first bound check; every other
        evaluation, and every evaluation of the other searches, is a call."""
        self.evals += 1
        cfg = self.cfg
        total = 0.0
        breakdown: dict[str, float] = {}
        if cfg.lambda_uni > 0:
            l_uni = self.unigrams(perm_map[None])[0] if unigram is None else unigram
            breakdown["unigram"] = l_uni
            total += cfg.lambda_uni * l_uni
        if cfg.lambda_bi > 0:
            l_bi = _bigram_l1(self._bigrams, perm_map, cfg.ref_bigram)
            breakdown["bigram"] = l_bi
            total += cfg.lambda_bi * l_bi
        if bound is not None and total >= bound:
            return total, None, None
        flags: dict[int, bool] = {}
        if cfg.lambda_cons > 0:
            spans, oracle, n_pairs = self._spans, cfg.oracle, len(self._spans)
            if swap is None:
                check, count = range(n_pairs), 0
            else:
                i, j, incumbent, mismatches = swap
                check = sorted(self._touching[i] | self._touching[j])
                count = mismatches - sum(incumbent[k] for k in check)
            # every pair decrypted, as int64 bytes: equal bytes are equal ids
            dec = perm_map[self._flat].tobytes()
            # the pairs the oracle already holds are scored first, for free
            misses = []
            for k in check:
                start, mid, end, n_new = spans[k]
                replay = oracle.known(dec[start:mid], n_new)
                if replay is None:
                    misses.append(k)
                else:
                    flags[k] = bad = replay != dec[mid:end]
                    count += bad
            done = 0
            while done < len(misses):
                # the count only grows, so the lower bound below only rises:
                # the next m pairs are all checked if it stays short of the
                # bound even when m - 1 of them mismatch (no bound: every pair)
                m = 0 if bound is not None else len(misses) - done
                while done + m < len(misses) and not (
                    total + cfg.lambda_cons * ((count + m) / n_pairs) >= bound
                ):
                    m += 1
                if m == 0:
                    return total + cfg.lambda_cons * (count / n_pairs), None, None
                window = misses[done : done + m]
                requests = [
                    (np.frombuffer(dec[spans[k][0] : spans[k][1]], dtype=np.int64), spans[k][3])
                    for k in window
                ]
                for k, replay in zip(window, oracle.continuations(requests)):
                    flags[k] = bad = replay.tobytes() != dec[spans[k][1] : spans[k][2]]
                    count += bad
                done += m
            l_cons = count / n_pairs
            breakdown["consistency"] = l_cons
            total += cfg.lambda_cons * l_cons
        if total < self.loss:
            self.loss, self.map, self.breakdown = total, perm_map.copy(), breakdown
            self.trace.append((self.evals, total))
        return total, breakdown, flags

    def sample(self, block: np.ndarray) -> None:
        """Evaluate each row of a (B, n) block of random draws in order, as
        ``evaluate(row, bound=self.loss, unigram=...)`` would, but only count
        a row whose weighted unigram term (0 with that term off) already
        reaches the best so far: ``evaluate`` would stop it at its first
        bound check, since its total starts at that term and a non-negative
        bigram term cannot lower it."""
        unigrams = self.unigrams(block)
        lambda_uni = self.cfg.lambda_uni
        terms = lambda_uni * np.asarray(unigrams) if lambda_uni > 0 else np.zeros(len(block))
        done = 0
        # the best only falls, so the rows that need a call are among these
        for r in np.flatnonzero(terms < self.loss).tolist():
            if terms[r] < self.loss:
                self.evals += r - done
                self.evaluate(block[r], bound=self.loss, unigram=unigrams[r])
                done = r + 1
        self.evals += len(block) - done

    def state(self, terminated: str) -> AttackState:
        return AttackState(
            perm=PermTable(self.map),
            loss=self.loss,
            component_breakdown=self.breakdown,
            evals_used=self.evals,
            trace=tuple(self.trace),
            terminated=terminated,
        )


def brute_force(cfg: AttackConfig) -> AttackState:
    """Lexicographic enumeration of the n! candidates, at most cfg.budget of
    them; the exact minimizer when the budget covers all n!.

    Ties keep the first (lexicographically smallest) map. Terminates
    "exhaustive" once every candidate was scored, "budget_exhausted" before.
    Refuses vocabularies above 9 tokens: the candidate count grows
    factorially.
    """
    n = cfg.corpus.vocab_size
    if n > BRUTE_FORCE_MAX_VOCAB:
        raise RefusalError(
            f"brute force over a {n}-token vocabulary means {n}! candidate "
            f"permutations; enumeration is capped at {BRUTE_FORCE_MAX_VOCAB}"
        )
    search = _Search(cfg)
    buf = np.empty(n, dtype=np.int64)
    for cand in itertools.islice(itertools.permutations(range(n)), cfg.budget):
        buf[:] = cand
        search.evaluate(buf)
    exhaustive = search.evals == math.factorial(n)
    return search.state("exhaustive" if exhaustive else "budget_exhausted")


def random_sampling(cfg: AttackConfig, M: int) -> AttackState:
    """Best of M seeded uniform permutation draws; evals_used = M."""
    M = check_int(M, "M", ConfigError, lo=1)
    n = cfg.corpus.vocab_size
    search = _Search(cfg)
    rng = np.random.default_rng(cfg.seed)
    for done in range(0, M, _SAMPLE_BLOCK):
        # row by row, the draws of as many successive rng.permutation(n)
        identity = np.tile(np.arange(n, dtype=np.int64), (min(_SAMPLE_BLOCK, M - done), 1))
        search.sample(rng.permuted(identity, axis=1))
    return search.state("completed")


def hill_climb(cfg: AttackConfig, restarts: int = 1) -> AttackState:
    """2-swap local search: random-order sweeps over all n(n-1)/2
    transpositions, accepting strict improvements only.

    An accept starts a fresh sweep; a completed sweep with no accept certifies
    a 2-swap local optimum (a loss of exactly 0 certifies immediately, it is
    the global minimum). The budget is shared sequentially across restarts,
    and each restart starts from its own seeded uniform draw. Result is the
    best restart, ties broken by lexicographic map.
    """
    restarts = check_int(restarts, "restarts", ConfigError, lo=1)
    n = cfg.corpus.vocab_size
    search = _Search(cfg)
    # every transposition (i, j), i < j, in lexicographic order
    swap_i, swap_j = np.triu_indices(n, 1)
    seeds = np.random.SeedSequence(cfg.seed).spawn(restarts)
    budget = cfg.budget

    results: list[tuple[float, tuple[int, ...], dict[str, float], bool]] = []

    for r in range(restarts):
        if search.evals >= budget:
            break
        rng = np.random.default_rng(seeds[r])
        cur = rng.permutation(n).astype(np.int64)
        # the first, full evaluation supplies every pair's mismatch flag
        cur_loss, cur_breakdown, flags = search.evaluate(cur)
        mismatches = sum(flags.values())
        certified = cur_loss == 0.0

        while not certified and search.evals < budget:
            order = rng.permutation(swap_i.size)
            for i, j, cand, unigram in _swapped(search, cur, swap_i[order], swap_j[order]):
                if search.evals >= budget:
                    break
                value, breakdown, changed = search.evaluate(
                    cand, bound=cur_loss, swap=(i, j, flags, mismatches), unigram=unigram
                )
                if breakdown is not None and value < cur_loss:
                    cur, cur_loss, cur_breakdown = cand, value, breakdown
                    mismatches += sum(changed.values()) - sum(flags[k] for k in changed)
                    flags.update(changed)
                    certified = cur_loss == 0.0
                    break
            else:
                certified = True  # full clean sweep

        results.append((cur_loss, tuple(int(t) for t in cur), cur_breakdown, certified))

    # the best restart, not the first to reach the best loss
    search.loss, ids, search.breakdown, certified = min(
        results, key=lambda item: (item[0], item[1])
    )
    search.map = np.asarray(ids, dtype=np.int64)
    return search.state("certified" if certified else "budget_exhausted")


def _swapped(search: _Search, cur: np.ndarray, swap_i: np.ndarray, swap_j: np.ndarray):
    """(i, j, cur with entries i and j swapped, its unigram loss) for each
    swap in turn, built and scored _SWAP_CHUNK swaps at a time."""
    for lo in range(0, swap_i.size, _SWAP_CHUNK):
        ii, jj = swap_i[lo : lo + _SWAP_CHUNK], swap_j[lo : lo + _SWAP_CHUNK]
        rows = np.arange(ii.size)
        block = np.repeat(cur[None], ii.size, axis=0)
        block[rows, ii], block[rows, jj] = cur[jj], cur[ii]
        yield from zip(ii.tolist(), jj.tolist(), block, search.unigrams(block))


def recovery_rate(perm: PermTable, true_perm: PermTable, corpus: TranscriptCorpus) -> float:
    """Frequency-weighted fraction of corpus tokens mapped like the truth."""
    _check_perm(perm, corpus.vocab_size)
    _check_perm(true_perm, corpus.vocab_size)
    tokens = corpus.all_tokens()
    return float(np.mean(perm.map[tokens] == true_perm.map[tokens]))
