"""Tests for the fidelity and latency benchmark harness."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eeinfer.bench import (
    FidelityReport,
    LatencyReport,
    compare_arms,
    emit_report,
    load_prompts,
    measure_latency,
    random_prompts,
    save_prompts,
)
from eeinfer.encryption import decrypt_tokens, encrypt_model, keygen
from eeinfer.errors import (
    ConfigError,
    DomainError,
    FormatError,
    PairingError,
    RangeError,
    ShapeError,
)
from eeinfer.model import (
    PLAINTEXT,
    ModelBundle,
    TokenSeq,
    forward,
    greedy_decode,
    init_model,
    make_config,
)
from eeinfer.tensor_ops import softmax_rows

score_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=12
)


class TestFidelity:
    def test_identical_lists_give_one(self):
        assert FidelityReport([0.2, 0.9, 0.5], [0.2, 0.9, 0.5]).fidelity == 1.0

    def test_hand_value(self):
        assert FidelityReport([0.5, 0.8], [1.0, 0.8]).fidelity == pytest.approx(0.75)

    def test_zero_pair_skipped(self):
        value = FidelityReport([0.0, 0.5], [0.0, 0.5]).fidelity
        assert value == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            FidelityReport([0.5], [0.5, 0.6])

    def test_empty(self):
        with pytest.raises(DomainError):
            FidelityReport([], [])

    def test_out_of_range_scores(self):
        with pytest.raises(RangeError):
            FidelityReport([1.5], [0.5])
        with pytest.raises(RangeError):
            FidelityReport([0.5], [-0.1])

    @pytest.mark.parametrize("vi, ee", [((math.nan,), (0.5,)), ((0.5, 0.2), (0.5, math.nan))])
    def test_nan_scores(self, vi, ee):
        # NaN is not in [0, 1]; a NaN fidelity would reach emit_report as the
        # non-JSON token NaN
        with pytest.raises(RangeError):
            FidelityReport(vi, ee)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(scores=score_lists)
    def test_self_fidelity_is_one(self, scores):
        assert FidelityReport(scores, scores).fidelity == 1.0

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(a=score_lists, b=score_lists)
    def test_symmetric_and_bounded(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        forward_value = FidelityReport(a, b).fidelity
        assert forward_value == FidelityReport(b, a).fidelity
        assert 0.0 <= forward_value <= 1.0


class TestFidelityReport:
    def test_figures_from_scores(self):
        report = FidelityReport((0.0, 0.5, 0.8), (0.0, 1.0, 0.8))
        assert (report.n, report.skipped_zero_pairs) == (3, 1)
        # the 0/0 pair adds no gap but still counts in the mean
        assert report.fidelity == pytest.approx(1.0 - 0.5 / 3)

    def test_length_enforced(self):
        with pytest.raises(ShapeError):
            FidelityReport((0.5,), (0.5, 0.6))
        with pytest.raises(DomainError):
            FidelityReport((), ())
        with pytest.raises(RangeError):
            FidelityReport((1.5,), (0.5,))


@pytest.fixture(scope="module")
def bench_setup(tiny_model):
    key = keygen(tiny_model.config, seed=99)
    return tiny_model, encrypt_model(key, tiny_model), key


class TestFidelitySuite:
    def test_identity_key_exact_one(self, tiny_model):
        key = keygen(tiny_model.config, seed=0, identity=True)
        enc = encrypt_model(key, tiny_model)
        prompts = random_prompts(tiny_model.config, 10, 5, seed=1)
        report, _ = compare_arms(tiny_model, enc, key, prompts, n_new=0)
        assert report.fidelity == 1.0
        assert report.n == 10
        assert report.scores_vi == report.scores_ee

    def test_random_key_near_one(self, bench_setup):
        vi, ee, key = bench_setup
        prompts = random_prompts(vi.config, 20, 6, seed=2)
        report, _ = compare_arms(vi, ee, key, prompts, n_new=0)
        assert report.fidelity >= 1.0 - 1e-6
        assert report.skipped_zero_pairs == 0

    def test_ee_confidence_matches_plaintext(self, bench_setup):
        vi, ee, key = bench_setup
        prompt = random_prompts(vi.config, 1, 7, seed=3)[0]
        report, _ = compare_arms(vi, ee, key, [prompt], n_new=0)
        (a,), (b,) = report.scores_vi, report.scores_ee
        assert a == pytest.approx(b, abs=1e-12)
        # the softmax probability of the argmax token at the last prompt position
        assert a == float(softmax_rows(forward(vi, prompt)[-1:])[0].max())

    def test_mismatched_key_pairing_error(self, bench_setup):
        vi, ee, _ = bench_setup
        other = keygen(make_config(32, 16, 2, 2, 32, 8), seed=1000)
        other_model_key = keygen(make_config(16, 8, 1, 1, 16, 6), seed=5)
        prompts = random_prompts(vi.config, 2, 4, seed=4)
        with pytest.raises(PairingError):
            compare_arms(vi, ee, other_model_key, prompts, n_new=0)
        # same config but a different seeded key still pairs fine
        report, _ = compare_arms(vi, encrypt_model(other, vi), other, prompts, n_new=0)
        assert report.fidelity >= 1.0 - 1e-6

    def test_arm_encrypted_under_another_key_pairing_error(self, bench_setup):
        vi, _, key = bench_setup
        other = encrypt_model(keygen(vi.config, seed=1000), vi)
        prompts = random_prompts(vi.config, 2, 4, seed=4)
        with pytest.raises(PairingError):
            compare_arms(vi, other, key, prompts, n_new=0)
        with pytest.raises(PairingError):
            measure_latency(vi, other, key, prompts, n_new=2, repeats=3)

    def test_domain_guards(self, bench_setup):
        vi, ee, key = bench_setup
        prompts = random_prompts(vi.config, 2, 4, seed=5)
        with pytest.raises(DomainError):
            compare_arms(ee, ee, key, prompts, n_new=0)
        with pytest.raises(DomainError):
            compare_arms(vi, vi, key, prompts, n_new=0)
        with pytest.raises(DomainError):
            compare_arms(vi, ee, key, [], n_new=0)


# The README quickstart: init-model --seed 42, keygen --seed 7 and make-prompts
# --n 5 --length 16 --seed 7. Values recorded from the two separate passes
# (a fidelity suite and an equivariance check) that compare_arms replaced.
QUICKSTART_SCORES_VI = (
    "0x1.5dfb1d35f3a44p-7", "0x1.58f5a64450bafp-7", "0x1.52527ab87f212p-7",
    "0x1.4f353b440ec6dp-7", "0x1.68a1220407acfp-7",
)
QUICKSTART_SCORES_EE = (
    "0x1.5dfb1d35f3a42p-7", "0x1.58f5a64450bafp-7", "0x1.52527ab87f212p-7",
    "0x1.4f353b440ec6cp-7", "0x1.68a1220407acfp-7",
)
QUICKSTART_FIDELITY_BLOCK_SHA256 = (
    "e4bfdfe3aa52f17d2a2d35e58cc0f1f0f9c592bd3f9ba515af92b59f1deded17"
)


@pytest.mark.parametrize("n_new, margin", [(0, "inf"), (8, "0x1.61b2ea4990180p-9")])
def test_golden_quickstart_reports(tmp_path, n_new, margin):
    config = make_config(128, 32, 2, 4, 64, 64)
    vi = init_model(config, seed=42)
    key = keygen(config, seed=7)
    prompts = random_prompts(config, 5, 16, seed=7)
    fid, eq = compare_arms(vi, encrypt_model(key, vi), key, prompts, n_new)
    assert (fid.n, fid.skipped_zero_pairs) == (5, 0)
    assert tuple(s.hex() for s in fid.scores_vi) == QUICKSTART_SCORES_VI
    assert tuple(s.hex() for s in fid.scores_ee) == QUICKSTART_SCORES_EE
    assert fid.fidelity.hex() == "0x1.fffffffffffffp-1"
    assert eq.n_prompts == 5 and eq.token_match and eq.recoverability_ok
    assert eq.max_abs_logit_diff.hex() == "0x1.4000000000000p-52"
    assert eq.min_top2_margin.hex() == margin
    lat = LatencyReport((1.0, 1.0, 1.0), (1.5, 1.5, 1.5))
    json_path, _ = emit_report(fid, lat, tmp_path / "bench")
    block = json.loads(json_path.read_text())["fidelity"]
    digest = hashlib.sha256(json.dumps(block, sort_keys=True).encode()).hexdigest()
    assert digest == QUICKSTART_FIDELITY_BLOCK_SHA256


@pytest.mark.parametrize("key_seed", [98, 99])
def test_argmax_tie_shows_as_zero_margin(tiny_model, key_seed):
    # plaintext tokens 3 and 5 get equal lm_head columns and a large equal bias,
    # so their logits tie bit for bit at every position; argmax takes the lower
    # index, which in the ciphertext domain is whichever the key sends lower
    tensors = dict(tiny_model.tensors)
    w, b = tensors["lm_head.W"].copy(), tensors["lm_head.b"].copy()
    w[:, 5], b[3], b[5] = w[:, 3], 50.0, 50.0
    vi = ModelBundle(tiny_model.config, PLAINTEXT, {**tensors, "lm_head.W": w, "lm_head.b": b})
    key = keygen(vi.config, seed=key_seed)
    prompts = random_prompts(vi.config, 2, 4, seed=8)
    _, eq = compare_arms(vi, encrypt_model(key, vi), key, prompts, n_new=3)
    assert eq.min_top2_margin == 0.0
    cipher = key.vocab_perm.map
    assert eq.token_match == (cipher[3] < cipher[5])


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

    def test_call_order(self, bench_setup, monkeypatch):
        vi, ee, key = bench_setup
        prompts = random_prompts(vi.config, 3, 4, seed=12)
        calls = []

        def recording_decode(model, prompt, n_new):
            arm = "V" if model is vi else "E"
            calls.append((arm, prompt if arm == "V" else decrypt_tokens(key, prompt)))
            return greedy_decode(model, prompt, n_new)

        monkeypatch.setattr("eeinfer.bench.greedy_decode", recording_decode)
        measure_latency(vi, ee, key, prompts, n_new=1, repeats=3)
        # one warmup pass per arm, VI first; then per repeat both arms on each
        # prompt, the first arm flipping after every prompt and across repeats
        warmup = [("V", p) for p in prompts] + [("E", p) for p in prompts]
        pairs = ["VE", "EV", "VE", "EV", "VE", "EV", "VE", "EV", "VE"]
        timed = [(arm, prompts[i % 3]) for i, pair in enumerate(pairs) for arm in pair]
        assert calls == warmup + timed

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("arm", ["vi", "ee"])
    def test_samples_must_be_finite_and_positive(self, arm, bad):
        # a sample is a finite, positive number of seconds; dT divides by the VI ones
        samples = {"vi": [1.0, 1.0, 1.0], "ee": [1.5, 1.5, 1.5]}
        samples[arm][1] = bad
        with pytest.raises(RangeError):
            LatencyReport(tuple(samples["vi"]), tuple(samples["ee"]))

    def test_figures_from_samples(self):
        # the overhead is the median of the repeats' paired overheads (+50%,
        # -5%, +10% here), not the gap between the medians (-5%)
        report = LatencyReport((1.0, 2.0, 4.0), (1.5, 1.9, 4.4))
        assert (report.vi_seconds, report.ee_seconds) == (2.0, 1.9)
        assert report.delta_t_pct == pytest.approx(10.0)
        assert report.delta_t_std_pct == pytest.approx(float(np.std([50.0, -5.0, 10.0])))
        assert (report.repeats, report.batch_size) == (3, 1)
        for vi, ee in (((), ()), ((1.0, 2.0), (1.0,))):
            with pytest.raises(ShapeError):
                LatencyReport(vi, ee)


class TestReportEmission:
    def test_files_and_round_trip(self, tmp_path, bench_setup):
        vi, ee, key = bench_setup
        prompts = random_prompts(vi.config, 3, 4, seed=9)
        fid, _ = compare_arms(vi, ee, key, prompts, n_new=2)
        lat = measure_latency(vi, ee, key, prompts, n_new=2, repeats=3)
        json_path, md_path = emit_report(fid, lat, tmp_path / "out" / "bench")
        assert json_path.name == "bench.report.json"
        assert md_path.name == "bench.report.md"
        doc = json.loads(json_path.read_text())
        assert doc["fidelity"] == json.loads(json.dumps(dataclasses.asdict(fid)))
        assert doc["latency"] == json.loads(json.dumps(dataclasses.asdict(lat)))
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

    @pytest.mark.parametrize(
        "ids", ['[1.5]', '["3"]', '[true]', '["x"]', '[[1]]', '"12"', '{"1": 2}', 'null']
    )
    def test_non_integer_ids_are_malformed(self, tmp_path, ids):
        # [1.5, "3", true] used to load as (1, 3, 1), and ["x"] to fail with a
        # bare ValueError
        path = tmp_path / "bad.jsonl"
        path.write_text(f'{{"input_ids": [1, 2]}}\n{{"input_ids": {ids}}}\n')
        with pytest.raises(FormatError, match="prompt line 2 is malformed"):
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
