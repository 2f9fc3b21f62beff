#!/usr/bin/env python3
"""Fidelity and latency benchmark on the toy decoder.

Builds the reference model, encrypts it under a random key and under the
identity key, then reports confidence fidelity and pipeline latency for
both. Artifacts land in --out-dir: one .report.json/.report.md pair per key.
"""
from __future__ import annotations

import argparse
from pathlib import Path

from eeinfer.bench import compare_arms, emit_report, measure_latency, random_prompts
from eeinfer.encryption import encrypt_model, keygen
from eeinfer.model import init_model, make_config


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results/bench")
    ap.add_argument("--seed", type=int, default=2024, help="key seed")
    ap.add_argument("--n-prompts", type=int, default=100)
    ap.add_argument("--prompt-len", type=int, default=16)
    ap.add_argument("--n-new", type=int, default=16)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    config = make_config(128, 32, 2, 4, 64, 64)
    model = init_model(config, seed=42)
    prompts = random_prompts(config, args.n_prompts, args.prompt_len, seed=7)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name, key in (
        ("random-key", keygen(config, seed=args.seed)),
        ("identity-key", keygen(config, seed=0, identity=True)),
    ):
        enc = encrypt_model(key, model)
        lat = measure_latency(
            model, enc, key, prompts[:10], n_new=args.n_new, repeats=args.repeats
        )
        fid, _ = compare_arms(model, enc, key, prompts, n_new=0)
        json_path, md_path = emit_report(fid, lat, out_dir / name, model_name=name)
        print(
            f"{name}: fidelity {fid.fidelity:.9f} over {fid.n} prompts, "
            f"dT {lat.delta_t_pct:+.2f}% (std {lat.delta_t_std_pct:.2f}%)"
        )
        print(f"  wrote {json_path} and {md_path}")


if __name__ == "__main__":
    main()
