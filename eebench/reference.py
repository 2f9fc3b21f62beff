"""An independent forward pass and the checks built on it.

Plain numpy float64 with ``@``, written from the tensor names and shapes of
``model.expected_tensor_shapes``. It shares no kernel with the package:
BLAS sums in its own order, so its logits differ from the program's in the
last bits. A generated token is therefore checked against the reference
argmax, and a position whose reference top-2 margin is within ``TIE_TOL``
counts as a near-tie rather than a failure.
"""
from __future__ import annotations

import math

import numpy as np

TIE_TOL = 1e-9

_erf = np.frompyfunc(math.erf, 1, 1)


def _norm(t, prefix: str, x: np.ndarray, cfg) -> np.ndarray:
    eps = cfg.effective_norm_eps
    if cfg.norm_kind == "layernorm":
        c = x - x.mean(axis=1, keepdims=True)
        return c / np.sqrt((c * c).mean(axis=1, keepdims=True) + eps) * t[prefix + ".gain"] + t[prefix + ".offset"]
    return x / np.sqrt((x * x).mean(axis=1, keepdims=True) + eps) * t[prefix + ".gain"]


def _act(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "gelu":
        return x * 0.5 * (1.0 + _erf(x / math.sqrt(2.0)).astype(np.float64))
    return x / (1.0 + np.exp(-x))


def logits(model, ids) -> np.ndarray:
    """Per-position logits of a decoder-only transformer with learned positions."""
    cfg, t = model.config, model.tensors
    ids = np.asarray(ids, dtype=np.int64)
    n, dh = ids.shape[0], cfg.d_head
    x = t["embedding"][ids] + t["pos_embedding"][:n]
    future = np.triu(np.ones((n, n), dtype=bool), k=1)
    for li in range(cfg.n_layers):
        p = f"layer{li}"
        h = _norm(t, p + ".attn_norm", x, cfg)
        q = h @ t[p + ".attn.Wq"] + t[p + ".attn.bq"]
        k = h @ t[p + ".attn.Wk"] + t[p + ".attn.bk"]
        v = h @ t[p + ".attn.Wv"] + t[p + ".attn.bv"]
        ctx = np.empty_like(x)
        for head in range(cfg.n_heads):
            c = slice(head * dh, (head + 1) * dh)
            s = q[:, c] @ k[:, c].T / math.sqrt(dh)
            s[future] = -np.inf
            e = np.exp(s - s.max(axis=1, keepdims=True))
            ctx[:, c] = (e / e.sum(axis=1, keepdims=True)) @ v[:, c]
        x = x + ctx @ t[p + ".attn.Wo"] + t[p + ".attn.bo"]
        h = _norm(t, p + ".ffn_norm", x, cfg)
        x = x + _act(cfg.act_kind, h @ t[p + ".ffn.W1"] + t[p + ".ffn.b1"]) @ t[p + ".ffn.W2"] + t[p + ".ffn.b2"]
    return _norm(t, "final_norm", x, cfg) @ t["lm_head.W"] + t["lm_head.b"]


def _top2_margin(row: np.ndarray) -> float:
    top = np.partition(row, -2)[-2:]
    return float(top[1] - top[0])


def teacher_forced(model, ids, prompt_len: int) -> tuple[int, int, float]:
    """Check every generated token of ``ids`` against the reference argmax.

    One reference pass over the whole sequence gives the logits each
    generated position was chosen from. Returns (mismatches, near_ties,
    smallest top-2 margin).
    """
    rows = logits(model, ids[:-1])
    mismatches = near_ties = 0
    smallest = math.inf
    for pos in range(prompt_len - 1, len(ids) - 1):
        margin = _top2_margin(rows[pos])
        smallest = min(smallest, margin)
        if int(np.argmax(rows[pos])) != ids[pos + 1]:
            if margin <= TIE_TOL:
                near_ties += 1
            else:
                mismatches += 1
    return mismatches, near_ties, smallest


def continuation(model, ids, n_new: int) -> tuple[tuple[int, ...], bool]:
    """Greedy continuation by the reference; the flag marks a near-tie on the way."""
    ids = list(ids)
    tie = False
    for _ in range(n_new):
        row = logits(model, ids)[-1]
        tie |= _top2_margin(row) <= TIE_TOL
        ids.append(int(np.argmax(row)))
    return tuple(ids[len(ids) - n_new :]), tie


def attack_loss(perm_map, cfg) -> tuple[float, float]:
    """The loss ``cfg`` (an ``AttackConfig`` with unigram and consistency
    terms) gives a candidate decryption map, recomputed from its inputs:
    the corpus, the reference unigram, the weights and the oracle's model.

    Returns (loss, slack): the loss is exact unless a reference continuation
    passed a near-tie, and ``slack`` bounds how far those pairs can move it.
    """
    perm_map = np.asarray(perm_map, dtype=np.int64)
    corpus = cfg.corpus
    tokens = np.asarray([t for pi, po in corpus.pairs for t in pi + po], dtype=np.int64)
    dec = np.bincount(perm_map[tokens], minlength=corpus.vocab_size) / tokens.shape[0]
    l_uni = float(np.abs(dec - cfg.ref_unigram).sum())
    mismatches = ties = 0
    for pi, po in corpus.pairs:
        got, tie = continuation(cfg.oracle.model, perm_map[list(pi)], len(po))
        ties += tie
        mismatches += got != tuple(int(t) for t in perm_map[list(po)])
    n = len(corpus.pairs)
    return cfg.lambda_uni * l_uni + cfg.lambda_cons * (mismatches / n), cfg.lambda_cons * ties / n
