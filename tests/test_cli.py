"""End-to-end tests for the command-line interface."""
from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from eeinfer import errors
from eeinfer.cli import COMMANDS, REQUIRED, _build_parser, _resolve, _rows, main
from eeinfer.encryption import encrypt_model, load_key
from eeinfer.model import (CIPHERTEXT, greedy_decode, init_model, load_model, make_config,
                           save_model)


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with artifacts built through the CLI itself."""
    d = tmp_path_factory.mktemp("cli")
    paths = {
        "model": d / "model.eem",
        "config": d / "config.json",
        "key": d / "key.eekey",
        "idkey": d / "idkey.eekey",
        "enc": d / "enc.eem",
        "idenc": d / "idenc.eem",
        "prompts": d / "prompts.jsonl",
        "toy6": d / "toy6.eem",
        "toy6_config": d / "toy6_config.json",
        "toy6_key": d / "toy6.eekey",
        "corpus": d / "corpus.jsonl",
        "refs": d / "refs",
        "dir": d,
    }
    assert run_cli(
        "init-model", "--vocab-size", 32, "--d-model", 16, "--n-layers", 2,
        "--n-heads", 2, "--d-ff", 32, "--max-seq-len", 16, "--seed", 42,
        "--out", paths["model"], "--config-out", paths["config"],
    ) == 0
    assert run_cli(
        "keygen", "--model-config", paths["config"], "--seed", 7, "--out", paths["key"]
    ) == 0
    assert run_cli(
        "keygen", "--model-config", paths["config"], "--seed", 0, "--identity",
        "--out", paths["idkey"],
    ) == 0
    assert run_cli(
        "encrypt-model", "--model", paths["model"], "--key", paths["key"],
        "--out", paths["enc"],
    ) == 0
    assert run_cli(
        "encrypt-model", "--model", paths["model"], "--key", paths["idkey"],
        "--out", paths["idenc"],
    ) == 0
    assert run_cli(
        "make-prompts", "--model", paths["model"], "--n", 5, "--length", 4,
        "--seed", 1, "--out", paths["prompts"],
    ) == 0
    assert run_cli(
        "init-model", "--vocab-size", 6, "--d-model", 8, "--n-layers", 1,
        "--n-heads", 1, "--d-ff", 16, "--max-seq-len", 16, "--seed", 3,
        "--out", paths["toy6"], "--config-out", paths["toy6_config"],
    ) == 0
    assert run_cli(
        "keygen", "--model-config", paths["toy6_config"], "--seed", 77,
        "--out", paths["toy6_key"],
    ) == 0
    assert run_cli(
        "make-corpus", "--model", paths["toy6"], "--key", paths["toy6_key"],
        "--n-pairs", 30, "--prompt-len", 3, "--n-new", 2, "--seed", 5,
        "--out", paths["corpus"], "--refs-out", paths["refs"],
    ) == 0
    return paths


class TestSetupCommands:
    def test_init_model_deterministic(self, ws, tmp_path):
        twin = tmp_path / "twin.eem"
        assert run_cli(
            "init-model", "--vocab-size", 32, "--d-model", 16, "--n-layers", 2,
            "--n-heads", 2, "--d-ff", 32, "--max-seq-len", 16, "--seed", 42,
            "--out", twin,
        ) == 0
        assert twin.read_bytes() == ws["model"].read_bytes()

    def test_d_head_flag_is_gone(self, tmp_path):
        # d_head is always d_model / n_heads, which make_config derives
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "init-model", "--vocab-size", 32, "--d-model", 16, "--n-layers", 2,
                "--n-heads", 2, "--d-ff", 32, "--max-seq-len", 16, "--seed", 42,
                "--d-head", 8, "--out", tmp_path / "m.eem",
            )
        assert exc.value.code == 2

    def test_keygen_deterministic(self, ws, tmp_path):
        twin = tmp_path / "twin.eekey"
        assert run_cli(
            "keygen", "--model-config", ws["config"], "--seed", 7, "--out", twin
        ) == 0
        assert twin.read_bytes() == ws["key"].read_bytes()

    def test_keygen_identity_flag(self, ws):
        assert load_key(ws["idkey"]).is_identity
        assert not load_key(ws["key"]).is_identity

    def test_missing_required_is_usage_error(self, capsys):
        assert run_cli("keygen", "--seed", 7) == 2
        assert "missing required" in capsys.readouterr().err

    def test_resolved_config_recorded(self, ws):
        doc = json.loads((ws["dir"] / "key.eekey.resolved_config.json").read_text())
        assert doc["command"] == "keygen"
        assert doc["config"]["seed"] == 7
        assert doc["config"]["identity"] is False

    def test_identity_encryption_preserves_payload(self, ws):
        plain = load_model(ws["model"])
        enc = load_model(ws["idenc"])
        assert enc.domain == CIPHERTEXT
        for name, tensor in plain.tensors.items():
            assert enc.tensors[name].tobytes() == tensor.tobytes()

    def test_encrypt_model_pairing_mismatch(self, ws, tmp_path):
        out = tmp_path / "bad.eem"
        assert run_cli(
            "encrypt-model", "--model", ws["toy6"], "--key", ws["key"], "--out", out,
        ) == 5
        # a failed command leaves neither its output nor a record of its flags
        assert not out.exists()
        assert not (tmp_path / "bad.eem.resolved_config.json").exists()

    def test_model_file_with_wrong_magic(self, ws, tmp_path, capsys):
        code = run_cli("infer", "--model", ws["key"], "--prompt", "1", "--n-new", 1)
        assert code == 3

    def test_corrupted_model_payload(self, ws, tmp_path):
        blob = bytearray(ws["enc"].read_bytes())
        blob[-5] ^= 0x01
        bad = tmp_path / "corrupt.eem"
        bad.write_bytes(bytes(blob))
        assert run_cli("infer", "--model", bad, "--key", ws["key"],
                       "--prompt", "1", "--n-new", 1) == 4


class TestInfer:
    def test_vi_and_ee_print_identical_ids(self, ws, capsys):
        assert run_cli("infer", "--model", ws["model"], "--prompt", "1,2,3",
                       "--n-new", 5) == 0
        vi = capsys.readouterr().out.strip()
        assert run_cli("infer", "--model", ws["enc"], "--key", ws["key"],
                       "--prompt", "1,2,3", "--n-new", 5) == 0
        ee = capsys.readouterr().out.strip()
        assert vi == ee
        assert len(vi.split()) == 8

    def test_zero_new_tokens_echo(self, ws, capsys):
        assert run_cli("infer", "--model", ws["model"], "--prompt", "4 9 2",
                       "--n-new", 0) == 0
        assert capsys.readouterr().out.strip() == "4 9 2"

    def test_ciphertext_model_without_key(self, ws, capsys):
        assert run_cli("infer", "--model", ws["enc"], "--prompt", "1", "--n-new", 1) == 6
        assert "key" in capsys.readouterr().err

    def test_key_with_plaintext_model(self, ws):
        assert run_cli("infer", "--model", ws["model"], "--key", ws["key"],
                       "--prompt", "1", "--n-new", 1) == 6

    def test_bad_prompt_ids(self, ws):
        assert run_cli("infer", "--model", ws["model"], "--prompt", "1,x",
                       "--n-new", 1) == 2

    @pytest.mark.parametrize("name, index, value", [
        ("lm_head.b", (3,), np.nan), ("lm_head.W", (0, 7), np.inf),
        ("layer0.ffn.W2", (0, 0), np.nan), ("embedding", (14, 0), -np.inf)])
    def test_non_finite_weight_is_numerics_error(self, tmp_path, capsys, name, index, value):
        # before the check, each of these decoded 1 2 3 on without an error
        model = init_model(make_config(16, 8, 1, 2, 16, 16), 1)
        tensors = dict(model.tensors)
        tensors[name] = tensors[name].copy()
        tensors[name][index] = value
        path = tmp_path / "bad.eem"
        save_model(types.SimpleNamespace(config=model.config, domain=model.domain,
                                         tensors=tensors), path)
        assert run_cli("infer", "--model", path, "--prompt", "1 2 3", "--n-new", 4) == 14
        assert capsys.readouterr().out == ""


class TestFidelityCommand:
    def test_identity_key_reports_one(self, ws, capsys):
        out = ws["dir"] / "fid_id"
        assert run_cli(
            "fidelity", "--vi-model", ws["model"], "--key", ws["idkey"],
            "--prompts", ws["prompts"], "--out", out, "--n-new", 2, "--repeats", 3,
        ) == 0
        printed = capsys.readouterr().out
        assert "fidelity 1.00000000" in printed
        assert "max |logit diff| 0, tokens match, smallest top-2 margin" in printed
        doc = json.loads((ws["dir"] / "fid_id.report.json").read_text())
        assert doc["fidelity"]["fidelity"] == 1.0
        md = (ws["dir"] / "fid_id.report.md").read_text()
        assert "| 100.00 |" in md

    def test_random_key_near_one(self, ws):
        out = ws["dir"] / "fid_rand"
        assert run_cli(
            "fidelity", "--vi-model", ws["model"], "--key", ws["key"],
            "--prompts", ws["prompts"], "--out", out, "--n-new", 2, "--repeats", 3,
        ) == 0
        doc = json.loads((ws["dir"] / "fid_rand.report.json").read_text())
        assert doc["fidelity"]["fidelity"] >= 1 - 1e-6

    def test_key_for_another_model_refused_first(self, ws, tmp_path, capsys):
        # the key is refused before --repeats and the (empty) prompts file are read
        prompts = tmp_path / "empty.jsonl"
        prompts.write_text("")
        assert run_cli(
            "fidelity", "--vi-model", ws["model"], "--key", ws["toy6_key"],
            "--prompts", prompts, "--out", tmp_path / "f", "--n-new", 2, "--repeats", 2,
        ) == 5
        assert "fidelity" not in capsys.readouterr().out
        assert not (tmp_path / "f.report.json").exists()

    def test_ee_model_flag_is_gone(self, ws, tmp_path):
        # the EE arm is built from --vi-model and --key
        with pytest.raises(SystemExit) as info:
            run_cli(
                "fidelity", "--vi-model", ws["model"], "--ee-model", ws["enc"],
                "--key", ws["key"], "--prompts", ws["prompts"], "--out", tmp_path / "f",
            )
        assert info.value.code == 2

    def test_too_few_repeats_refused_before_decoding(self, ws, tmp_path, monkeypatch):
        calls = []

        def counting_decode(*args):
            calls.append(args)
            return greedy_decode(*args)

        monkeypatch.setattr("eeinfer.bench.greedy_decode", counting_decode)
        out = tmp_path / "fid_two"
        assert run_cli(
            "fidelity", "--vi-model", ws["model"], "--key", ws["key"],
            "--prompts", ws["prompts"], "--out", out, "--n-new", 2, "--repeats", 2,
        ) == 7
        assert calls == []
        assert not (tmp_path / "fid_two.report.json").exists()
        assert not (tmp_path / "fid_two.resolved_config.json").exists()

    def test_arms_checked_once(self, ws, tmp_path, monkeypatch):
        # building the arms encrypts the VI model; both reports share them
        calls = []

        def counting_encrypt(*args):
            calls.append(args)
            return encrypt_model(*args)

        monkeypatch.setattr("eeinfer.bench.encrypt_model", counting_encrypt)
        assert run_cli(
            "fidelity", "--vi-model", ws["model"], "--key", ws["key"],
            "--prompts", ws["prompts"], "--out", tmp_path / "fid_once",
            "--n-new", 2, "--repeats", 3,
        ) == 0
        assert len(calls) == 1

    def test_empty_prompts_file(self, ws, tmp_path, capsys):
        prompts = tmp_path / "empty.jsonl"
        prompts.write_text("")
        assert run_cli(
            "fidelity", "--vi-model", ws["model"], "--key", ws["key"],
            "--prompts", prompts, "--out", tmp_path / "f", "--n-new", 2, "--repeats", 3,
        ) == 6
        assert "latency measurement needs at least one prompt" in capsys.readouterr().err


class TestAttackCommand:
    def test_brute_recovers_true_perm(self, ws):
        out = ws["dir"] / "brute.json"
        assert run_cli(
            "attack", "--method", "brute", "--corpus", ws["corpus"],
            "--vocab-size", 6, "--lambda-cons", "1.0",
            "--oracle-model", ws["toy6"], "--out", out,
        ) == 0
        doc = json.loads(out.read_text())
        truth = load_key(ws["toy6_key"]).vocab_perm.inverse()
        assert doc["loss"] == 0.0
        assert doc["perm_map"] == truth.map.tolist()
        assert doc["evals_used"] == 720
        assert doc["terminated"] == "exhaustive"

    def test_random_single_sample(self, ws):
        out = ws["dir"] / "rand.json"
        assert run_cli(
            "attack", "--method", "random", "--corpus", ws["corpus"],
            "--vocab-size", 6, "--lambda-cons", "1.0",
            "--oracle-model", ws["toy6"], "--budget", 1, "--seed", 4,
            "--out", out,
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["evals_used"] == doc["budget"] == 1
        assert len(doc["trace"]) == 1

    def test_samples_is_not_a_second_budget(self, ws, tmp_path):
        # --budget is the random search's sample count: a second count flag
        # would let the result file record a budget the search never used
        common = ("attack", "--method", "random", "--corpus", ws["corpus"],
                  "--vocab-size", 6, "--lambda-cons", "1.0", "--oracle-model", ws["toy6"])
        with pytest.raises(SystemExit) as exc:
            run_cli(*common, "--samples", 1, "--out", tmp_path / "a.json")
        assert exc.value.code == 2
        cfg = tmp_path / "attack.json"
        cfg.write_text(json.dumps({"samples": 3}))
        assert run_cli(*common, "--config", cfg, "--out", tmp_path / "b.json") == 7
        assert not (tmp_path / "a.json").exists() and not (tmp_path / "b.json").exists()

    @pytest.mark.parametrize("method", ["brute", "random"])
    def test_restarts_is_for_hill_only(self, ws, tmp_path, capsys, method):
        # only hill climbing restarts: another search would record a restart
        # count it never used
        common = ("attack", "--method", method, "--corpus", ws["corpus"],
                  "--vocab-size", 6, "--lambda-cons", "1.0", "--oracle-model", ws["toy6"])
        assert run_cli(*common, "--restarts", 2, "--out", tmp_path / "a.json") == 2
        assert "--restarts" in capsys.readouterr().err
        cfg = tmp_path / "attack.json"
        cfg.write_text(json.dumps({"restarts": 2}))
        assert run_cli(*common, "--config", cfg, "--out", tmp_path / "b.json") == 2
        assert not list(tmp_path.glob("[ab].json*"))
        assert run_cli(*common, "--restarts", 1, "--budget", 2, "--out", tmp_path / "c.json") == 0

    def test_hill_with_refs_trace_monotone(self, ws):
        out = ws["dir"] / "hill.json"
        assert run_cli(
            "attack", "--method", "hill", "--corpus", ws["corpus"],
            "--vocab-size", 6, "--lambda-uni", "1.0", "--lambda-cons", "1.0",
            "--ref-unigram", str(ws["refs"]) + ".unigram.json",
            "--oracle-model", ws["toy6"], "--budget", 2000, "--restarts", 3,
            "--seed", 11, "--out", out,
        ) == 0
        doc = json.loads(out.read_text())
        losses = [loss for _, loss in doc["trace"]]
        assert losses == sorted(losses, reverse=True)
        assert doc["terminated"] in ("certified", "budget_exhausted")
        assert doc["weights"]["lambda_uni"] == 1.0

    def test_config_file_with_cli_override(self, ws, tmp_path):
        cfg = tmp_path / "attack.json"
        cfg.write_text(json.dumps({
            "method": "random", "corpus": str(ws["corpus"]), "vocab_size": 6,
            "lambda_cons": 1.0, "oracle_model": str(ws["toy6"]),
            "budget": 3, "seed": 1, "out": str(tmp_path / "a.json"),
        }))
        out_override = tmp_path / "b.json"
        assert run_cli("attack", "--config", cfg, "--out", out_override) == 0
        assert out_override.exists()
        resolved = json.loads((tmp_path / "b.json.resolved_config.json").read_text())
        assert resolved["config"]["out"] == str(out_override)
        assert resolved["config"]["budget"] == 3
        assert json.loads(out_override.read_text())["evals_used"] == 3

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_weight_is_config_error(self, ws, tmp_path, value):
        # --lambda-uni nan used to skip every loss term and exit 0 with loss 0
        out = tmp_path / "w.json"
        assert run_cli(
            "attack", "--method", "hill", "--corpus", ws["corpus"], "--vocab-size", 6,
            "--lambda-uni", value, "--ref-unigram", str(ws["refs"]) + ".unigram.json",
            "--budget", 10, "--out", out,
        ) == 7
        assert not out.exists()

    def test_null_in_config_takes_the_default(self, ws, tmp_path):
        # a null used to reach hill_climb as restarts=None: a TypeError traceback
        common = ("attack", "--method", "hill", "--corpus", ws["corpus"], "--vocab-size", 6,
                  "--lambda-cons", "1.0", "--oracle-model", ws["toy6"], "--budget", 20)
        assert run_cli(*common, "--out", tmp_path / "a.json") == 0
        cfg = tmp_path / "null.json"
        cfg.write_text(json.dumps({"restarts": None}))
        assert run_cli(*common, "--config", cfg, "--out", tmp_path / "b.json") == 0
        assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()
        resolved = json.loads((tmp_path / "b.json.resolved_config.json").read_text())
        assert resolved["config"]["restarts"] == 1
        cfg.write_text(json.dumps({"not_a_flag": None}))
        assert run_cli(*common, "--config", cfg, "--out", tmp_path / "c.json") == 7

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--ref-unigram", "[NaN, 0.5, 0.5, 0.0, 0.0, 0.0]"),
            ("--ref-bigram", '{"0": {"1": 1.5, "2": -0.5}}'),
            ("--ref-bigram", '{"0": {"1": 1.5, "2": NaN}}'),
        ],
        ids=["unigram-nan", "bigram-negative", "bigram-nan"],
    )
    def test_reference_that_is_not_a_distribution_is_config_error(self, ws, tmp_path, flag, text):
        # a NaN unigram used to exit 0 and write NaN, which is not JSON, as the loss
        ref = tmp_path / "ref.json"
        ref.write_text(text)
        weight = "--lambda-uni" if flag == "--ref-unigram" else "--lambda-bi"
        out = tmp_path / "a.json"
        assert run_cli(
            "attack", "--method", "hill", "--corpus", ws["corpus"], "--vocab-size", 6,
            weight, "1.0", flag, ref, "--budget", 10, "--out", out,
        ) == 7
        assert not out.exists()

    def test_bigram_successor_out_of_range_is_config_error(self, ws, tmp_path):
        # successor ids outside the vocabulary used to exit 0 with loss 2.000000
        ref = tmp_path / "far.json"
        ref.write_text('{"0": {"999": 1.0}, "1": {"-3": 1.0}}')
        out = tmp_path / "a.json"
        assert run_cli(
            "attack", "--method", "random", "--corpus", ws["corpus"], "--vocab-size", 6,
            "--lambda-bi", "1.0", "--ref-bigram", ref, "--budget", 10, "--out", out,
        ) == 7
        assert not out.exists()

    def test_config_file_unknown_key(self, ws, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"methd": "brute"}))
        assert run_cli("attack", "--config", cfg, "--out", tmp_path / "x.json") == 7

    def test_refusal_exit_code(self, ws, tmp_path):
        # vocab 32 corpus: brute force must refuse
        big_corpus = tmp_path / "big.jsonl"
        big_corpus.write_text('{"input_ids": [1, 2], "output_ids": [3]}\n')
        assert run_cli(
            "attack", "--method", "brute", "--corpus", big_corpus,
            "--vocab-size", 32, "--lambda-cons", "1.0",
            "--oracle-model", ws["model"], "--out", tmp_path / "r.json",
        ) == 9


    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--ref-unigram", "[0.5, "),
            ("--ref-unigram", '["a", 0.5]'),
            ("--ref-unigram", "[true, 0.0]"),
            ("--ref-unigram", b"[0.5, 0.5\xff]"),
            ("--ref-bigram", "{"),
            ("--ref-bigram", '{"0": {"1": null}}'),
            ("--ref-bigram", '{"0": {"1": "1"}}'),
            ("--ref-bigram", '{"0": {"1": true}}'),
        ],
        ids=["unigram-not-json", "unigram-entry-string", "unigram-entry-bool",
             "unigram-not-utf8", "bigram-not-json", "bigram-entry-null",
             "bigram-entry-string", "bigram-entry-bool"],
    )
    def test_malformed_reference_file_is_format_error(self, ws, tmp_path, capsys, flag, text):
        ref = tmp_path / "ref.json"
        ref.write_bytes(text if isinstance(text, bytes) else text.encode())
        weight = "--lambda-uni" if flag == "--ref-unigram" else "--lambda-bi"
        assert run_cli(
            "attack", "--method", "random", "--corpus", ws["corpus"], "--vocab-size", 6,
            weight, "1.0", flag, ref, "--budget", 1, "--out", tmp_path / "a.json",
        ) == 3
        assert f"FormatError: {flag[6:]} reference {ref}" in capsys.readouterr().err


class TestShardSimCommand:
    def test_pipeline_with_failure_matches_infer(self, ws, capsys):
        assert run_cli("infer", "--model", ws["enc"], "--key", ws["key"],
                       "--prompt", "3,1,4,1,5", "--n-new", 6) == 0
        expected = capsys.readouterr().out.strip()
        out = ws["dir"] / "shard_run"
        assert run_cli(
            "shard-sim", "--model", ws["enc"], "--key", ws["key"],
            "--prompt", "3,1,4,1,5", "--n-new", 6, "--shards", 2,
            "--seed", 13, "--latency-lo", "0.001", "--latency-hi", "0.01",
            "--fail", "0:4", "--spares", 1, "--out", out,
        ) == 0
        printed = capsys.readouterr().out
        assert printed.strip().splitlines()[-1] == expected
        assert "audit passed" in printed
        lines = (ws["dir"] / "shard_run.transcript.jsonl").read_text().splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert "reassign" in kinds
        audit = json.loads((ws["dir"] / "shard_run.audit.json").read_text())
        assert list(audit) == ["passed", "failures", "warnings", "checked_entries"]
        assert audit["passed"] is True
        # without the plaintext model the CLI audit compares no frame, and says so
        assert audit["warnings"]

    def test_identity_key_audit_fails(self, ws, capsys):
        out = ws["dir"] / "shard_id"
        assert run_cli(
            "shard-sim", "--model", ws["idenc"], "--key", ws["idkey"],
            "--prompt", "3,1,4,1,5", "--n-new", 4, "--shards", 2, "--out", out,
        ) == 0
        assert "audit FAILED" in capsys.readouterr().out
        audit = json.loads((ws["dir"] / "shard_id.audit.json").read_text())
        assert audit["passed"] is False
        assert audit["failures"]

    def test_plaintext_model_rejected(self, ws, tmp_path):
        assert run_cli(
            "shard-sim", "--model", ws["model"], "--prompt", "1,2",
            "--n-new", 2, "--shards", 2, "--out", tmp_path / "x",
        ) == 6

    @pytest.mark.parametrize("dest", ["fail", "n_new"])
    def test_null_in_config_takes_the_default(self, ws, tmp_path, capsys, dest):
        # a null used to reach the pipeline as None: a TypeError traceback
        common = ("shard-sim", "--model", ws["enc"], "--key", ws["key"], "--prompt", "1,2,3",
                  "--shards", 2, "--out", tmp_path / "x")
        assert run_cli(*common) == 0
        expected = capsys.readouterr().out
        cfg = tmp_path / "null.json"
        cfg.write_text(json.dumps({dest: None}))
        assert run_cli(*common, "--config", cfg) == 0
        assert capsys.readouterr().out == expected

    def test_no_spare_failure_is_pipeline_error(self, ws, tmp_path):
        assert run_cli(
            "shard-sim", "--model", ws["enc"], "--key", ws["key"],
            "--prompt", "1,2,3", "--n-new", 4, "--shards", 2,
            "--fail", "0:3", "--spares", 0, "--out", tmp_path / "x",
        ) == 13

    @pytest.mark.parametrize(
        "bounds", [("--latency-hi", "inf"), ("--latency-lo", "nan", "--latency-hi", "nan")]
    )
    def test_non_finite_latency_is_config_error(self, ws, tmp_path, bounds):
        # an infinite bound used to end in a numpy OverflowError traceback
        assert run_cli(
            "shard-sim", "--model", ws["enc"], "--key", ws["key"], "--prompt", "1,2,3",
            "--n-new", 2, "--shards", 2, *bounds, "--out", tmp_path / "x",
        ) == 7

    def test_clock_overflow_is_config_error(self, ws, tmp_path, capsys):
        # finite bounds whose sum overflows the virtual clock used to exit 0
        # with "time": Infinity in the transcript
        out = tmp_path / "x"
        assert run_cli(
            "shard-sim", "--model", ws["enc"], "--key", ws["key"], "--prompt", "1,2,3",
            "--n-new", 2, "--shards", 2, "--latency-lo", "1e308", "--latency-hi", "1e308",
            "--out", out,
        ) == 7
        assert "overflow the virtual clock" in capsys.readouterr().err
        assert not (tmp_path / "x.transcript.jsonl").exists()

    def test_bad_fail_flag(self, ws, tmp_path):
        short, fractional = tmp_path / "short.json", tmp_path / "fractional.json"
        short.write_text(json.dumps({"fail": [[1]]}))
        fractional.write_text(json.dumps({"fail": [[1.5, 2]], "spares": 1}))
        for bad in (("--fail", "nonsense"), ("--fail", "a:b"),
                    ("--config", short), ("--config", fractional)):
            assert run_cli(
                "shard-sim", "--model", ws["enc"], "--key", ws["key"],
                "--prompt", "1,2,3", "--n-new", 2, "--shards", 2,
                *bad, "--out", tmp_path / "x",
            ) == 2


class TestKeygenCommand:
    @pytest.mark.parametrize("eps", ["x", True, float("inf")])
    def test_bad_norm_eps_is_config_error(self, ws, tmp_path, eps):
        # "x" used to end in a TypeError traceback; true and Infinity were
        # accepted into the key's fingerprint
        config = json.loads(ws["config"].read_text())
        config["norm_eps"] = eps
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "k.eekey"
        assert run_cli("keygen", "--model-config", path, "--seed", 1, "--out", out) == 7
        assert not out.exists()


class TestCorpusRefs:
    def test_refs_emitted(self, ws):
        uni = json.loads((ws["dir"] / "refs.unigram.json").read_text())
        assert len(uni) == 6
        assert sum(uni) == pytest.approx(1.0)
        bi = json.loads((ws["dir"] / "refs.bigram.json").read_text())
        for row in bi.values():
            assert sum(row.values()) == pytest.approx(1.0)


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "eeinfer.cli", "init-model", "--vocab-size", "8",
         "--d-model", "8", "--n-layers", "1", "--n-heads", "1", "--d-ff", "16",
         "--max-seq-len", "8", "--seed", "1", "--out", str(tmp_path / "m.eem")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "m.eem").exists()


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(sub.choices)


def _error_classes() -> list[type]:
    return [
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.EEError) and obj is not errors.EEError
    ]


def test_every_error_class_has_a_specific_exit_code():
    classes = _error_classes()
    assert len(classes) >= 10
    for klass in classes:
        assert klass("boom").exit_code != 1, klass.__name__


def test_readme_exit_code_table_matches_error_classes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    documented = {int(code) for code in re.findall(r"^\| (\d+) \|", section, re.M)}
    # 0 success, 1 unexpected error, 2 usage; every other code belongs to an error class
    assert documented == {0, 1, 2} | {klass.exit_code for klass in _error_classes()}


def _fitting_value(kwargs: dict) -> object:
    """A --config value that fits a flag declared with ``kwargs``."""
    if "choices" in kwargs:
        return kwargs["choices"][0]
    return 1 if "type" in kwargs else "x"


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_required_flags_are_the_rows_marked_required(command, tmp_path, capsys):
    rows = _rows(command)
    required = sorted(dest for dest, (_, default, _) in rows.items() if default is REQUIRED)
    assert required
    assert run_cli(command) == 2
    assert capsys.readouterr().err == (
        "error: missing required arguments: " + ", ".join(required) + "\n"
    )
    # a null in --config leaves a required flag as unset as leaving it out
    for dest in required:
        config = tmp_path / f"{dest}.json"
        config.write_text(json.dumps({
            other: None if other == dest else _fitting_value(rows[other][2])
            for other in required
        }))
        assert run_cli(command, "--config", config) == 2
        assert capsys.readouterr().err == f"error: missing required arguments: {dest}\n"


def test_init_model_takes_every_required_flag_from_config(ws, tmp_path):
    out = tmp_path / "sub" / "model.eem"
    config = tmp_path / "init.json"
    config.write_text(json.dumps({
        "vocab_size": 32, "d_model": 16, "n_layers": 2, "n_heads": 2, "d_ff": 32,
        "max_seq_len": 16, "seed": 42, "out": str(out),
    }))
    assert run_cli("init-model", "--config", config) == 0
    assert out.read_bytes() == ws["model"].read_bytes()
    doc = json.loads((tmp_path / "sub" / "model.eem.resolved_config.json").read_text())
    assert doc["command"] == "init-model"
    assert doc["config"]["out"] == str(out)


@pytest.mark.parametrize(
    "command, values",
    [
        ("keygen", {"identity": "no", "seed": 1}),
        ("keygen", {"seed": "3"}),
        ("infer", {"n_new": 2.5, "prompt": "1 2"}),
    ],
    ids=["identity-string", "seed-string", "n_new-float"],
)
def test_config_value_of_the_wrong_type_is_config_error(ws, tmp_path, command, values):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(values))
    out = tmp_path / "k.eekey"
    flags = {
        "keygen": ["--model-config", ws["config"], "--out", out],
        "infer": ["--model", ws["model"]],
    }
    assert run_cli(command, *flags[command], "--config", config) == 7
    assert not out.exists()


SEED_COMMANDS = ["attack", "init-model", "keygen", "make-corpus", "make-prompts", "shard-sim"]


def test_seed_commands_are_the_rows_with_a_seed():
    assert SEED_COMMANDS == sorted(c for c in COMMANDS if "seed" in _rows(c))


@pytest.mark.parametrize("command", SEED_COMMANDS)
def test_negative_seed_is_refused(command, tmp_path, capsys):
    # a negative seed used to reach numpy and end in a ValueError traceback
    with pytest.raises(SystemExit) as info:
        main([command, "--seed", "-1"])
    assert info.value.code == 2
    assert "a seed must be >= 0, got -1" in capsys.readouterr().err
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"seed": -1}))
    assert run_cli(command, "--config", config) == 7
    assert "config file value -1 does not fit --seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["keygen", "attack"])
def test_json_file_that_is_not_json_is_format_error(ws, tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": ')
    args = {
        "keygen": ["--model-config", bad, "--seed", 1, "--out", tmp_path / "k.eekey"],
        "attack": ["--config", bad],
    }
    assert run_cli(command, *args[command]) == 3
    assert f"{bad} is not valid JSON" in capsys.readouterr().err


def test_fidelity_prompt_with_a_non_integer_id_is_format_error(ws, tmp_path, capsys):
    prompts = tmp_path / "p.jsonl"
    prompts.write_text('{"input_ids": [1, 2.5, 3]}\n')
    assert run_cli(
        "fidelity", "--vi-model", ws["model"], "--key", ws["key"],
        "--prompts", prompts, "--out", tmp_path / "f", "--n-new", 2, "--repeats", 3,
    ) == 3
    assert "prompt line 1 is malformed" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_config_keys_equal_argparse_dests(command, tmp_path):
    dests = {a.dest for a in _subcommands()[command]._actions} - {"help", "config"}
    parser = _build_parser()
    every_key = tmp_path / "every.json"
    every_key.write_text(json.dumps({dest: None for dest in dests}))
    _, _, resolved = _resolve(parser.parse_args([command, "--config", str(every_key)]))
    assert set(resolved) == dests
    extra_key = tmp_path / "extra.json"
    extra_key.write_text(json.dumps({"not_a_flag": 1}))
    with pytest.raises(errors.ConfigError):
        _resolve(parser.parse_args([command, "--config", str(extra_key)]))
