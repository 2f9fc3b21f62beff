"""Tests for the fidelity and latency benchmark harness."""
from __future__ import annotations

import hashlib
import json
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eeinfer.bench import (
    FidelityReport,
    LatencyReport,
    ee_first_token_confidence,
    emit_report,
    fidelity,
    load_prompts,
    measure_latency,
    random_prompts,
    run_fidelity_suite,
    save_prompts,
)
from eeinfer.encryption import encrypt_model, keygen
from eeinfer.errors import (
    ConfigError,
    DomainError,
    FormatError,
    PairingError,
    RangeError,
    ShapeError,
)
from eeinfer.model import PLAINTEXT, TokenSeq, first_token_confidence, init_model, make_config

score_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=12
)


class TestFidelity:
    def test_identical_lists_give_one(self):
        assert fidelity([0.2, 0.9, 0.5], [0.2, 0.9, 0.5]) == 1.0

    def test_hand_value(self):
        assert fidelity([0.5, 0.8], [1.0, 0.8]) == pytest.approx(0.75)

    def test_zero_pair_skipped(self):
        value = fidelity([0.0, 0.5], [0.0, 0.5])
        assert value == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            fidelity([0.5], [0.5, 0.6])

    def test_empty(self):
        with pytest.raises(DomainError):
            fidelity([], [])

    def test_out_of_range_scores(self):
        with pytest.raises(RangeError):
            fidelity([1.5], [0.5])
        with pytest.raises(RangeError):
            fidelity([0.5], [-0.1])

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(scores=score_lists)
    def test_self_fidelity_is_one(self, scores):
        assert fidelity(scores, scores) == 1.0

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(a=score_lists, b=score_lists)
    def test_symmetric_and_bounded(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        forward_value = fidelity(a, b)
        assert forward_value == fidelity(b, a)
        assert 0.0 <= forward_value <= 1.0


class TestFidelityReport:
    def test_consistency_enforced(self):
        with pytest.raises(ConfigError):
            FidelityReport(
                n=2,
                scores_vi=(0.5, 0.8),
                scores_ee=(1.0, 0.8),
                fidelity=0.9,
                skipped_zero_pairs=0,
            )

    def test_length_enforced(self):
        with pytest.raises(ShapeError):
            FidelityReport(
                n=3, scores_vi=(0.5,), scores_ee=(0.5,), fidelity=1.0, skipped_zero_pairs=0
            )

    def test_skip_count_enforced(self):
        with pytest.raises(ConfigError):
            FidelityReport(
                n=2,
                scores_vi=(0.0, 0.5),
                scores_ee=(0.0, 0.5),
                fidelity=1.0,
                skipped_zero_pairs=0,
            )


@pytest.fixture(scope="module")
def bench_setup(tiny_model):
    key = keygen(tiny_model.config, seed=99)
    return tiny_model, encrypt_model(key, tiny_model), key


class TestFidelitySuite:
    def test_identity_key_exact_one(self, tiny_model):
        key = keygen(tiny_model.config, seed=0, identity=True)
        enc = encrypt_model(key, tiny_model)
        prompts = random_prompts(tiny_model.config, 10, 5, seed=1)
        report = run_fidelity_suite(tiny_model, enc, key, prompts)
        assert report.fidelity == 1.0
        assert report.n == 10
        assert report.scores_vi == report.scores_ee

    def test_random_key_near_one(self, bench_setup):
        vi, ee, key = bench_setup
        prompts = random_prompts(vi.config, 20, 6, seed=2)
        report = run_fidelity_suite(vi, ee, key, prompts)
        assert report.fidelity >= 1.0 - 1e-6
        assert report.skipped_zero_pairs == 0

    def test_ee_confidence_matches_plaintext(self, bench_setup):
        vi, ee, key = bench_setup
        prompt = random_prompts(vi.config, 1, 7, seed=3)[0]
        a = first_token_confidence(vi, prompt)
        b = ee_first_token_confidence(ee, key, prompt)
        assert a == pytest.approx(b, abs=1e-12)

    def test_mismatched_key_pairing_error(self, bench_setup):
        vi, ee, _ = bench_setup
        other = keygen(make_config(32, 16, 2, 2, 32, 8), seed=1000)
        other_model_key = keygen(make_config(16, 8, 1, 1, 16, 6), seed=5)
        prompts = random_prompts(vi.config, 2, 4, seed=4)
        with pytest.raises(PairingError):
            run_fidelity_suite(vi, ee, other_model_key, prompts)
        # same config but a different seeded key still pairs fine
        report = run_fidelity_suite(vi, encrypt_model(other, vi), other, prompts)
        assert report.fidelity >= 1.0 - 1e-6

    def test_arm_encrypted_under_another_key_pairing_error(self, bench_setup):
        vi, _, key = bench_setup
        other = encrypt_model(keygen(vi.config, seed=1000), vi)
        prompts = random_prompts(vi.config, 2, 4, seed=4)
        with pytest.raises(PairingError):
            run_fidelity_suite(vi, other, key, prompts)
        with pytest.raises(PairingError):
            measure_latency(vi, other, key, prompts, n_new=2, repeats=3)

    def test_domain_guards(self, bench_setup):
        vi, ee, key = bench_setup
        prompts = random_prompts(vi.config, 2, 4, seed=5)
        with pytest.raises(DomainError):
            run_fidelity_suite(ee, ee, key, prompts)
        with pytest.raises(DomainError):
            run_fidelity_suite(vi, vi, key, prompts)
        with pytest.raises(DomainError):
            run_fidelity_suite(vi, ee, key, [])


class TestLatency:
    def test_repeats_guard(self, bench_setup):
        vi, ee, key = bench_setup
        prompts = random_prompts(vi.config, 1, 4, seed=6)
        for bad in (1, 2):
            with pytest.raises(ConfigError):
                measure_latency(vi, ee, key, prompts, n_new=2, repeats=bad)

    def test_report_fields(self, bench_setup):
        vi, ee, key = bench_setup
        prompts = random_prompts(vi.config, 2, 4, seed=7)
        report = measure_latency(vi, ee, key, prompts, n_new=3, repeats=3)
        assert report.repeats == 3 and report.batch_size == 1
        assert len(report.vi_samples) == 3 and len(report.ee_samples) == 3
        assert report.vi_seconds > 0 and report.ee_seconds > 0
        # the median of the per-repeat paired overheads, not the gap of the medians
        paired = [(ee - vi) / vi * 100 for vi, ee in zip(report.vi_samples, report.ee_samples)]
        assert report.delta_t_pct == pytest.approx(statistics.median(paired))
        assert report.delta_t_std_pct >= 0

    def test_identity_twin_overhead_small(self, micro_model):
        # identity-encrypted twin runs the same arithmetic; the bound is
        # loose because container schedulers add noise
        key = keygen(micro_model.config, seed=0, identity=True)
        enc = encrypt_model(key, micro_model)
        prompts = random_prompts(micro_model.config, 2, 3, seed=8)
        report = measure_latency(micro_model, enc, key, prompts, n_new=3, repeats=5)
        assert abs(report.delta_t_pct) <= 50.0

    def test_invariant_enforced(self):
        with pytest.raises(ConfigError):
            LatencyReport(
                vi_seconds=1.0,
                ee_seconds=1.1,
                delta_t_pct=50.0,
                delta_t_std_pct=0.0,
                repeats=3,
                batch_size=1,
            )


    def test_invariant_uses_paired_samples(self):
        # the overhead is the median of the repeats' paired overheads (+50%,
        # -5%, +10% here), not the gap between the medians (-5%)
        fields = dict(vi_seconds=2.0, ee_seconds=1.9, delta_t_std_pct=0.0, repeats=3,
                      batch_size=1, vi_samples=(1.0, 2.0, 4.0), ee_samples=(1.5, 1.9, 4.4))
        LatencyReport(delta_t_pct=10.0, **fields)
        with pytest.raises(ConfigError):
            LatencyReport(delta_t_pct=-5.0, **fields)


class TestReportEmission:
    def test_files_and_round_trip(self, tmp_path, bench_setup):
        vi, ee, key = bench_setup
        prompts = random_prompts(vi.config, 3, 4, seed=9)
        fid = run_fidelity_suite(vi, ee, key, prompts)
        lat = measure_latency(vi, ee, key, prompts, n_new=2, repeats=3)
        json_path, md_path = emit_report(fid, lat, tmp_path / "out" / "bench")
        assert json_path.name == "bench.report.json"
        assert md_path.name == "bench.report.md"
        doc = json.loads(json_path.read_text())
        assert doc["fidelity"] == fid.to_dict()
        assert doc["latency"] == lat.to_dict()
        md = md_path.read_text()
        assert "| Model | VI(s) | EE(s) | dT(%) | Fid(%) | dT Std(%) |" in md
        data_rows = [
            line
            for line in md.splitlines()
            if line.startswith("|") and "Model" not in line and "---" not in line
        ]
        assert len(data_rows) == 1
        cells = [c.strip() for c in data_rows[0].strip("|").split("|")]
        # percentage columns carry exactly two decimals
        for cell in (cells[3], cells[4], cells[5]):
            whole, frac = cell.split(".")
            assert len(frac) == 2


class TestPromptIO:
    def test_round_trip(self, tmp_path, tiny_config):
        prompts = random_prompts(tiny_config, 5, 6, seed=10)
        path = tmp_path / "prompts.jsonl"
        save_prompts(prompts, path)
        assert load_prompts(path) == prompts

    def test_golden_file_bytes(self, tmp_path, tiny_config):
        # computed before prompts were written through containers.write_jsonl
        save_prompts(random_prompts(tiny_config, 5, 6, seed=10), tmp_path / "p.jsonl")
        digest = hashlib.sha256((tmp_path / "p.jsonl").read_bytes()).hexdigest()
        assert digest == "7c1a2a3110a68166a2c95c11838520226c6f25f505720c233a9f5c0fb78b4aa7"

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"input_ids": [1, 2]}\nnot json\n')
        with pytest.raises(FormatError, match="line 2"):
            load_prompts(path)

    def test_random_prompts_validation(self, tiny_config):
        with pytest.raises(ConfigError):
            random_prompts(tiny_config, 0, 4, seed=0)
        with pytest.raises(ShapeError):
            random_prompts(tiny_config, 1, tiny_config.max_seq_len + 1, seed=0)

    def test_random_prompts_deterministic(self, tiny_config):
        assert random_prompts(tiny_config, 3, 4, seed=11) == random_prompts(
            tiny_config, 3, 4, seed=11
        )
