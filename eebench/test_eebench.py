"""Tests of the benchmark itself: python3 -m pytest eebench"""
from __future__ import annotations

import bootstrap  # noqa: F401  (must precede numpy and eeinfer)

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eeinfer.attack as A
import eeinfer.encryption as E
import eeinfer.model as M
import eeinfer.shard_sim as S
import reference
import spans
import workloads

ORIGINALS = {(mod.__name__, attr): getattr(mod, attr) for mod, attr, _ in spans.TARGETS}
TINY = workloads.Mix(blind_prompts=1, pipeline_requests=1, attack_budget=20)


def _untouched() -> bool:
    return all(getattr(mod, attr) is ORIGINALS[(mod.__name__, attr)] for mod, attr, _ in spans.TARGETS)


@pytest.fixture(scope="module")
def system(tmp_path_factory) -> workloads.System:
    return workloads.set_up(3, tmp_path_factory.mktemp("setup"))


def test_installed_wraps_every_target_and_restores_it_after_an_error():
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.installed(tracer):
            assert all(getattr(mod, attr) is not ORIGINALS[(mod.__name__, attr)] for mod, attr, _ in spans.TARGETS)
            raise RuntimeError("leave the block early")
    assert _untouched()


def test_traced_round_records_every_layer_and_restores_every_name(system):
    tracer = spans.Tracer()
    run = workloads.Run(system, TINY, seed=5)
    with spans.installed(tracer):
        _, counts = run.round(0, tracer)
    assert _untouched()
    assert not run.errors and not run.failures
    figures = spans.layer_metrics(tracer, rounds=1, setups=1, counts=counts)
    setup_only = {"encryption.keygen.s", "encryption.encrypt_model.s", "encryption.load_key.s",
                  "model.load_model.s", "attack.generate_corpus.s"}
    for name, _ in spans.PER_LAYER:
        if name.startswith("trace.") or name in setup_only:
            continue
        assert figures[name] > 0, name
    # every recorded span sits under one of the benchmark's own operations
    assert all(tracer.names[i].startswith("op.") for i, p in enumerate(tracer.parents) if p < 0)


def test_untraced_round_runs_the_original_functions(system, monkeypatch):
    seen = []

    class Probe(spans.CountingTransport):
        def send(self, data: bytes) -> None:
            seen.append(_untouched())
            super().send(data)

    monkeypatch.setattr(workloads, "CountingTransport", Probe)
    run = workloads.Run(system, TINY, seed=5)
    run.round(0)
    assert seen and all(seen)
    assert _untouched()
    assert M.matmul is ORIGINALS[("eeinfer.model", "matmul")]
    assert not run.errors and not run.failures


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"norm_kind": "rmsnorm", "act_kind": "relu"}, {"act_kind": "silu"}],
)
def test_reference_forward_agrees_with_the_program(kwargs):
    config = M.make_config(40, 16, 2, 2, 24, 12, **kwargs)
    model = M.init_model(config, 9)
    ids = tuple(range(3, 15))
    program = M.forward(model, M.TokenSeq(ids, M.PLAINTEXT))
    assert np.abs(reference.logits(model, ids) - program).max() < 1e-12


def test_teacher_forced_check_catches_a_wrong_token(system):
    prompt = M.TokenSeq(tuple(range(workloads.BLIND_PROMPT)), M.PLAINTEXT)
    ids = M.greedy_decode(system.toy, prompt, 6).ids
    assert reference.teacher_forced(system.toy, ids, len(prompt))[:2] == (0, 0)
    wrong = ids[:-1] + ((ids[-1] + 1) % workloads.TOY.vocab_size,)
    assert reference.teacher_forced(system.toy, wrong, len(prompt))[0] == 1


def test_counted_frame_bytes_match_the_frame_layout(system):
    prompt = E.encrypt_tokens(system.demo_key, M.TokenSeq((1, 2, 3, 4, 5, 6), M.PLAINTEXT))
    transport = spans.CountingTransport()
    _, transcript = S.run_pipeline(system.demo_enc, system.plan, workloads._broker(1), prompt,
                                   workloads.PIPE_NEW, transport=transport)
    frames = [e for e in transcript.entries if e["kind"] == "frame"]
    sample = S.encode_frame(S.ActivationFrame(0, 1, np.zeros((frames[0]["seq_len"], workloads.DEMO.d_model))))
    per_frame = workloads.FRAME_HEADER_BYTES + workloads.FRAME_CRC_BYTES
    assert len(sample) == per_frame + frames[0]["seq_len"] * workloads.DEMO.d_model * 8
    assert transport.frame_bytes == sum(per_frame + e["seq_len"] * workloads.DEMO.d_model * 8 for e in frames)
    assert transport.token_msg_bytes > 0


def test_audit_verdict_follows_the_ciphertext_on_a_key_that_fixes_the_output(tmp_path):
    # on this seed the pipeline model emits token 20 again and again, and the
    # key maps 20 to 20: the ciphertext is the plaintext, and the audit says so
    run = workloads.Run(workloads.set_up(1973939093, tmp_path), TINY, 1973939093)
    run.round(0)
    assert run.verbatim_leaks == 1 and not run.errors
    assert workloads._verbatim_leak((1, 2), (3, 4), (9, 1, 2, 7))
    assert workloads._verbatim_leak((1, 2), (3, 4), (9, 8, 3, 4))
    assert not workloads._verbatim_leak((1, 2), (3, 4), (9, 8, 7, 3))


def test_attack_loss_recomputation_matches_the_program(system):
    cfg = workloads._attack_config(system, 0, 10)
    rng = np.random.default_rng(0)
    for perm in [system.victim_key.vocab_perm.inverse()] + [
        A.PermTable(rng.permutation(workloads.ATTACK.vocab_size)) for _ in range(5)
    ]:
        loss, slack = reference.attack_loss(perm.map, cfg)
        assert abs(loss - A.total_loss(perm, cfg)[0]) <= slack + 1e-12


def test_refuses_to_run_without_the_source_tree(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    args = ["--workload", "blind-decode", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, *command[1:], *args], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_lists_what_the_run_prints():
    doc = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.PER_LAYER)
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)
