"""Acceptance suite: the nine headline guarantees, one test per criterion.

Each test prints a [PASS] line with the measured values once its assertions
hold; pytest itself reports the failure otherwise.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from eeinfer.attack import (
    AttackConfig,
    GreedyOracle,
    brute_force,
    empirical_unigram,
    generate_corpus,
    hill_climb,
    random_sampling,
)
from eeinfer.bench import compare_arms, measure_latency, random_prompts
from eeinfer.encryption import (
    decrypt_tokens,
    encrypt_model,
    encrypt_tokens,
    keygen,
)
from eeinfer.model import PLAINTEXT, TokenSeq, greedy_decode, init_model, make_config
from eeinfer.shard_sim import (
    BrokerConfig,
    PlaintextContext,
    audit_blindness,
    plan_shards,
    run_pipeline,
)
from eeinfer.tensor_ops import PermTable, activate, layer_norm, rms_norm

TOY = make_config(128, 32, 2, 4, 64, 64)


@pytest.fixture(scope="module")
def toy_model():
    return init_model(TOY, seed=42)


@pytest.fixture(scope="module")
def toy_key():
    return keygen(TOY, seed=2024)


@pytest.fixture(scope="module")
def toy_enc(toy_model, toy_key):
    return encrypt_model(toy_key, toy_model)


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


def test_criterion_1_equivariance(toy_model, capsys):
    start = time.perf_counter()
    key = keygen(TOY, seed=2024)
    prompts = random_prompts(TOY, 20, 16, seed=7)
    _, report = compare_arms(toy_model, encrypt_model(key, toy_model), key, prompts, n_new=0)
    elapsed = time.perf_counter() - start
    assert not key.is_identity
    assert report.n_prompts == 20
    assert report.max_abs_logit_diff <= 1e-9
    assert elapsed < 10.0
    announce(
        capsys,
        f"[PASS] criterion 1: equivariance max|logit diff| = "
        f"{report.max_abs_logit_diff:.3e} <= 1e-9 over 20 prompts "
        f"({elapsed:.2f}s < 10s)",
    )


def test_criterion_2_recoverability(toy_key, capsys):
    rng = np.random.default_rng(1234)
    mismatches = 0
    for _ in range(10_000):
        length = int(rng.integers(1, 33))
        ids = tuple(int(t) for t in rng.integers(0, TOY.vocab_size, size=length))
        seq = TokenSeq(ids, PLAINTEXT)
        if decrypt_tokens(toy_key, encrypt_tokens(toy_key, seq)) != seq:
            mismatches += 1
    assert mismatches == 0
    announce(
        capsys,
        "[PASS] criterion 2: recoverability 10000/10000 token sequences "
        "round-trip exactly (0 mismatches)",
    )


def test_criterion_3_output_consistency(toy_model, toy_enc, toy_key, capsys):
    prompts = random_prompts(TOY, 20, 16, seed=7)
    _, report = compare_arms(toy_model, toy_enc, toy_key, prompts, n_new=32)
    assert report.token_match
    assert report.recoverability_ok
    announce(
        capsys,
        "[PASS] criterion 3: output consistency 20/20 prompts, 32 greedy "
        "tokens each, decrypted EE equals VI exactly",
    )


def test_criterion_4_fidelity(toy_model, toy_enc, toy_key, capsys):
    prompts = random_prompts(TOY, 100, 8, seed=11)
    random_report, _ = compare_arms(toy_model, toy_enc, toy_key, prompts, n_new=0)
    assert random_report.fidelity >= 0.999999

    id_key = keygen(TOY, seed=0, identity=True)
    id_enc = encrypt_model(id_key, toy_model)
    id_report, _ = compare_arms(toy_model, id_enc, id_key, prompts, n_new=0)
    assert id_report.fidelity == 1.0
    announce(
        capsys,
        f"[PASS] criterion 4: fidelity {random_report.fidelity:.9f} >= 0.999999 "
        f"over 100 prompts (random key); identity key exactly "
        f"{id_report.fidelity}",
    )


def test_criterion_5_latency_overhead(toy_model, toy_enc, toy_key, capsys):
    prompts = random_prompts(TOY, 10, 16, seed=5)
    report = measure_latency(toy_model, toy_enc, toy_key, prompts, n_new=32, repeats=10)
    assert abs(report.delta_t_pct) <= 5.0
    announce(
        capsys,
        f"[PASS] criterion 5: latency overhead dT = {report.delta_t_pct:+.2f}% "
        f"(|dT| <= 5%), std {report.delta_t_std_pct:.2f}%, repeats=10",
    )


def test_criterion_6_brute_force_attack(capsys):
    start = time.perf_counter()
    config = make_config(6, 8, 1, 1, 16, 16)
    model = init_model(config, seed=3)
    key = keygen(config, seed=77)
    corpus = generate_corpus(model, key, n_pairs=30, prompt_len=3, n_new=2, seed=5)
    cfg = AttackConfig(corpus=corpus, lambda_cons=1.0, oracle=GreedyOracle(model))
    state = brute_force(cfg)
    elapsed = time.perf_counter() - start
    assert state.loss == 0.0
    assert state.perm == key.vocab_perm.inverse()
    assert state.evals_used == 720
    assert elapsed < 60.0
    announce(
        capsys,
        f"[PASS] criterion 6: brute force recovered the true permutation at "
        f"loss 0.0 after exactly 720 candidates ({elapsed:.2f}s < 60s)",
    )


def test_criterion_7_hill_climbing_attack(capsys):
    config = make_config(50, 8, 1, 1, 16, 8)
    model = init_model(config, seed=13)
    key = keygen(config, seed=501)
    corpus = generate_corpus(model, key, n_pairs=30, prompt_len=2, n_new=1, seed=9)
    truth = key.vocab_perm.inverse()
    cfg = AttackConfig(
        corpus=corpus,
        lambda_uni=1.0,
        lambda_cons=1.0,
        ref_unigram=empirical_unigram(corpus, truth),
        oracle=GreedyOracle(model),
        seed=1,
        budget=20_000,
    )
    hill = hill_climb(cfg, restarts=5)
    losses = [loss for _, loss in hill.trace]
    assert losses == sorted(losses, reverse=True) and len(set(losses)) == len(losses)
    assert hill.terminated in ("certified", "budget_exhausted")
    assert hill.evals_used <= 20_000

    rand = random_sampling(cfg, M=20_000)
    assert hill.loss <= rand.loss
    announce(
        capsys,
        f"[PASS] criterion 7: hill climbing loss {hill.loss:.6f} "
        f"({hill.terminated}, {hill.evals_used} evals, trace strictly "
        f"decreasing) <= random sampling {rand.loss:.6f} at the same budget",
    )


def test_criterion_8_shard_exactness_and_blindness(capsys):
    config = make_config(32, 16, 4, 2, 32, 16)
    model = init_model(config, seed=21)
    prompt = TokenSeq((3, 14, 15, 9, 2, 6), PLAINTEXT)
    plan = plan_shards(config, 4)
    broker = BrokerConfig(
        seed=17, latency_lo=0.001, latency_hi=0.01, failures=((2, 10),), spares=1
    )

    key = keygen(config, seed=55)
    enc = encrypt_model(key, model)
    enc_prompt = encrypt_tokens(key, prompt)
    out, transcript = run_pipeline(enc, plan, broker, enc_prompt, 8)
    assert out == greedy_decode(enc, enc_prompt, 8)
    kinds = [e["kind"] for e in transcript.entries]
    assert "failure" in kinds and "reassign" in kinds

    replay_out, replay = run_pipeline(enc, plan, broker, enc_prompt, 8)
    assert replay_out == out
    assert replay.hash() == transcript.hash()

    plain_out = decrypt_tokens(key, out)
    ctx = PlaintextContext(prompt=prompt, output=plain_out, model=model, plan=plan)
    assert audit_blindness(transcript, ctx).passed

    id_key = keygen(config, seed=0, identity=True)
    id_enc = encrypt_model(id_key, model)
    id_out, id_transcript = run_pipeline(
        id_enc, plan, broker, encrypt_tokens(id_key, prompt), 8
    )
    id_ctx = PlaintextContext(
        prompt=prompt, output=decrypt_tokens(id_key, id_out), model=model, plan=plan
    )
    assert not audit_blindness(id_transcript, id_ctx).passed
    announce(
        capsys,
        "[PASS] criterion 8: 4-shard pipeline with crash+reassignment is "
        "token-identical to monolithic decode; replay reproduces the "
        "transcript hash; audit passes (random key) and fails (identity key)",
    )


def test_criterion_9_kernel_equivariance(capsys):
    rng = np.random.default_rng(99)
    violations = 0
    worst = 0.0
    checks = 0
    for _ in range(1000):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(2, 33))
        x = rng.normal(0.0, 3.0, size=(rows, cols))
        gamma = rng.normal(0.0, 3.0, size=cols)
        beta = rng.normal(0.0, 3.0, size=cols)
        idx = rng.permutation(cols)
        cases = [
            ("relu", activate("relu", x)[:, idx] - activate("relu", x[:, idx])),
            ("gelu", activate("gelu", x)[:, idx] - activate("gelu", x[:, idx])),
            ("silu", activate("silu", x)[:, idx] - activate("silu", x[:, idx])),
            (
                "layer_norm",
                layer_norm(x, gamma, beta)[:, idx]
                - layer_norm(x[:, idx], gamma[idx], beta[idx]),
            ),
            (
                "rms_norm",
                rms_norm(x, gamma)[:, idx] - rms_norm(x[:, idx], gamma[idx]),
            ),
        ]
        for _, diff in cases:
            checks += 1
            dev = float(np.abs(diff).max())
            worst = max(worst, dev)
            if dev > 1e-12:
                violations += 1
    assert violations == 0
    assert checks == 5000
    announce(
        capsys,
        f"[PASS] criterion 9: kernel equivariance, 5000 operator checks over "
        f"1000 draws, 0 violations (max deviation {worst:.3e} <= 1e-12)",
    )
