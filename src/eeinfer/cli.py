"""Command-line entry point.

One executable with subcommands covering the full workflow: build a toy
model, generate a key, encrypt the model offline, run plaintext or blind
inference, benchmark fidelity and latency, mount recovery attacks, and
simulate the sharded pipeline with a blindness audit.

Every subcommand accepts --config pointing at a JSON object of flag values
(underscored names); explicit command-line flags win. Each subcommand's flags
are declared once, in COMMANDS; the parser, the keys --config accepts and the
required flags (the rows whose default is REQUIRED) all come from that table.
main, not the subcommands, checks that every required flag is set, creates
the parent directory of each --out and --*-out path before the command runs,
and after it succeeds records its fully resolved parameters next to --out as
<out>.resolved_config.json so the run can be replayed exactly.

Exit codes: 0 success; 2 usage; an EEError's own exit_code (see errors.py);
1 anything unexpected.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import attack as attack_mod
from . import bench as bench_mod
from . import shard_sim as shard_mod
from .encryption import (
    check_pairing,
    decrypt_tokens,
    encrypt_model,
    encrypt_tokens,
    keygen,
    load_key,
    save_key,
)
from .errors import ConfigError, DomainError, EEError, FormatError
from .model import (
    CIPHERTEXT,
    PLAINTEXT,
    ModelConfig,
    TokenSeq,
    greedy_decode,
    init_model,
    load_model,
    make_config,
    save_model,
)


class _Usage(Exception):
    """Missing or contradictory arguments; maps to exit code 2."""


def _parse_ids(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError as exc:
        raise _Usage(f"token ids must be integers: {exc}") from exc


def _load_json(path: str, what: str, kind: type) -> object:
    """The JSON value in a file named on the command line, which must be a
    ``kind`` (dict or list); anything else is a FormatError naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, kind):
        raise FormatError(f"{what} {path} must be a JSON {'object' if kind is dict else 'list'}")
    return doc


# ---------------------------------------------------------------- subcommands


def cmd_init_model(resolved: dict) -> None:
    config = make_config(
        resolved["vocab_size"], resolved["d_model"], resolved["n_layers"],
        resolved["n_heads"], resolved["d_ff"], resolved["max_seq_len"],
        norm_kind=resolved["norm_kind"], act_kind=resolved["act_kind"],
    )
    model = init_model(config, resolved["seed"])
    save_model(model, resolved["out"])
    if resolved["config_out"]:
        Path(resolved["config_out"]).write_text(
            json.dumps(config.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
    print(f"wrote plaintext model to {resolved['out']}")


def cmd_keygen(resolved: dict) -> None:
    config = ModelConfig.from_dict(_load_json(resolved["model_config"], "model config", dict))
    key = keygen(config, resolved["seed"], identity=resolved["identity"])
    save_key(key, resolved["out"])
    kind = "identity" if key.is_identity else "random"
    print(f"wrote {kind} key to {resolved['out']}")


def cmd_encrypt_model(resolved: dict) -> None:
    model = load_model(resolved["model"])
    key = load_key(resolved["key"])
    encrypted = encrypt_model(key, model)
    save_model(encrypted, resolved["out"])
    print(f"wrote ciphertext model to {resolved['out']}")


def cmd_infer(resolved: dict) -> None:
    model = load_model(resolved["model"])
    prompt_ids = _parse_ids(resolved["prompt"])
    if resolved["key"] is None:
        if model.domain == CIPHERTEXT:
            raise DomainError(
                "a ciphertext model needs --key to encrypt the prompt and "
                "decrypt the output"
            )
        out = greedy_decode(model, TokenSeq(prompt_ids, PLAINTEXT), resolved["n_new"])
    else:
        key = load_key(resolved["key"])
        check_pairing(key, model.config)
        if model.domain != CIPHERTEXT:
            raise DomainError("--key is for ciphertext models; this one is plaintext")
        enc_prompt = encrypt_tokens(key, TokenSeq(prompt_ids, PLAINTEXT))
        enc_out = greedy_decode(model, enc_prompt, resolved["n_new"])
        out = decrypt_tokens(key, enc_out)
    print(" ".join(str(t) for t in out.ids))


def cmd_fidelity(resolved: dict) -> None:
    arms = bench_mod.Arms(load_model(resolved["vi_model"]), load_key(resolved["key"]))
    prompts = bench_mod.load_prompts(resolved["prompts"])
    lat = bench_mod.measure_latency(
        arms, prompts, n_new=resolved["n_new"], repeats=resolved["repeats"]
    )
    fid, eq = bench_mod.compare_arms(arms, prompts, resolved["n_new"])
    json_path, md_path = bench_mod.emit_report(
        fid, lat, resolved["out"], model_name=resolved["model_name"]
    )
    print(f"fidelity {fid.fidelity:.8f} over {fid.n} prompts")
    print(f"delta_t {lat.delta_t_pct:+.2f}% (std {lat.delta_t_std_pct:.2f}%)")
    print(
        f"equivariance: max |logit diff| {eq.max_abs_logit_diff:.3g}, tokens "
        f"{'match' if eq.token_match else 'DIFFER'}, smallest top-2 margin "
        f"{eq.min_top2_margin:.3g}"
    )
    print(f"wrote {json_path} and {md_path}")


def _as_number(value: object) -> float:
    """A JSON number as a float; a string, boolean, null or list raises TypeError."""
    if not _fits(_FLOAT, value):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _load_ref_unigram(path: str) -> np.ndarray:
    doc = _load_json(path, "unigram reference", list)
    try:
        return np.asarray([_as_number(p) for p in doc], dtype=np.float64)
    except TypeError as exc:
        raise FormatError(f"unigram reference {path} is malformed: {exc}") from exc


def _load_ref_bigram(path: str) -> dict[int, dict[int, float]]:
    doc = _load_json(path, "bigram reference", dict)
    try:
        return {
            int(ctx): {int(nxt): _as_number(p) for nxt, p in row.items()}
            for ctx, row in doc.items()
        }
    except (ValueError, AttributeError, TypeError) as exc:
        raise FormatError(f"bigram reference {path} is malformed: {exc}") from exc


# --method name -> the search it runs on (AttackConfig, resolved flags)
_ATTACKS = {
    "brute": lambda cfg, resolved: attack_mod.brute_force(cfg),
    "random": lambda cfg, resolved: attack_mod.random_sampling(cfg, M=cfg.budget),
    "hill": lambda cfg, resolved: attack_mod.hill_climb(cfg, restarts=resolved["restarts"]),
}


def cmd_attack(resolved: dict) -> None:
    method = resolved["method"]
    if method != "hill" and resolved["restarts"] != 1:
        # only hill climbing restarts, and the resolved config records only what a search used
        raise _Usage(f"--restarts is for --method hill, not --method {method}")
    corpus = attack_mod.load_corpus(resolved["corpus"], resolved["vocab_size"])
    ref_unigram = (
        _load_ref_unigram(resolved["ref_unigram"]) if resolved["ref_unigram"] else None
    )
    ref_bigram = (
        _load_ref_bigram(resolved["ref_bigram"]) if resolved["ref_bigram"] else None
    )
    oracle = None
    if resolved["oracle_model"]:
        oracle = attack_mod.GreedyOracle(load_model(resolved["oracle_model"]))
    cfg = attack_mod.AttackConfig(
        corpus=corpus,
        lambda_uni=resolved["lambda_uni"],
        lambda_bi=resolved["lambda_bi"],
        lambda_cons=resolved["lambda_cons"],
        ref_unigram=ref_unigram,
        ref_bigram=ref_bigram,
        oracle=oracle,
        seed=resolved["seed"],
        budget=resolved["budget"],
    )
    state = _ATTACKS[method](cfg, resolved)
    attack_mod.save_attack_result(state, cfg, resolved["out"])
    print(
        f"{method}: loss {state.loss:.6f} after {state.evals_used} evaluations "
        f"({state.terminated})"
    )
    print(f"wrote {resolved['out']}")


def _parse_failures(raw) -> tuple[tuple[int, int], ...]:
    pairs = []
    for item in raw:
        try:
            node, step = item.split(":") if isinstance(item, str) else item
            # through str, so a config's 1.5 or true is refused, not truncated
            pairs.append((int(str(node)), int(str(step))))
        except (TypeError, ValueError) as exc:
            raise _Usage(f"--fail takes node:step, got {item!r}") from exc
    return tuple(pairs)


def cmd_shard_sim(resolved: dict) -> None:
    model = load_model(resolved["model"])
    plan = shard_mod.plan_shards(model.config, resolved["shards"])
    broker = shard_mod.BrokerConfig(
        seed=resolved["seed"],
        latency_lo=resolved["latency_lo"],
        latency_hi=resolved["latency_hi"],
        failures=_parse_failures(resolved["fail"]),
        spares=resolved["spares"],
    )
    prompt_ids = _parse_ids(resolved["prompt"])
    key = load_key(resolved["key"]) if resolved["key"] else None
    if key is not None:
        check_pairing(key, model.config)
        enc_prompt = encrypt_tokens(key, TokenSeq(prompt_ids, PLAINTEXT))
    else:
        enc_prompt = TokenSeq(prompt_ids, CIPHERTEXT)
    out, transcript = shard_mod.run_pipeline(
        model, plan, broker, enc_prompt, resolved["n_new"]
    )
    base = Path(resolved["out"])
    transcript_path = base.with_name(base.name + ".transcript.jsonl")
    shard_mod.save_transcript(transcript, transcript_path)
    print(f"transcript hash {transcript.hash()}")
    if key is not None:
        plain_out = decrypt_tokens(key, out)
        ctx = shard_mod.PlaintextContext(
            prompt=TokenSeq(prompt_ids, PLAINTEXT), output=plain_out
        )
        audit = shard_mod.audit_blindness(transcript, ctx)
        audit_path = base.with_name(base.name + ".audit.json")
        audit_path.write_text(json.dumps(asdict(audit), indent=2) + "\n", encoding="utf-8")
        print(f"audit {'passed' if audit.passed else 'FAILED'}; wrote {audit_path}")
        print(" ".join(str(t) for t in plain_out.ids))
    else:
        print(" ".join(str(t) for t in out.ids))


def cmd_make_corpus(resolved: dict) -> None:
    model = load_model(resolved["model"])
    key = load_key(resolved["key"])
    corpus = attack_mod.generate_corpus(
        model,
        key,
        n_pairs=resolved["n_pairs"],
        prompt_len=resolved["prompt_len"],
        n_new=resolved["n_new"],
        seed=resolved["seed"],
    )
    attack_mod.save_corpus(corpus, resolved["out"])
    if resolved["refs_out"]:
        truth = key.vocab_perm.inverse()
        uni = attack_mod.empirical_unigram(corpus, truth)
        bi = attack_mod.empirical_bigram(corpus, truth)
        refs_base = Path(resolved["refs_out"])
        uni_path = refs_base.with_name(refs_base.name + ".unigram.json")
        bi_path = refs_base.with_name(refs_base.name + ".bigram.json")
        uni_path.write_text(json.dumps(uni.tolist()) + "\n", encoding="utf-8")
        # json writes the int keys as strings
        bi_path.write_text(json.dumps(bi) + "\n", encoding="utf-8")
        print(f"wrote references {uni_path} and {bi_path}")
    print(f"wrote {len(corpus.pairs)} ciphertext pairs to {resolved['out']}")


def cmd_make_prompts(resolved: dict) -> None:
    model = load_model(resolved["model"])
    prompts = bench_mod.random_prompts(
        model.config, resolved["n"], resolved["length"], resolved["seed"]
    )
    bench_mod.save_prompts(prompts, resolved["out"])
    print(f"wrote {len(prompts)} prompts to {resolved['out']}")


# ------------------------------------------------------------------ plumbing

def _seed(text: str) -> int:
    """A --seed value: numpy's generators take integers >= 0 only."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a seed must be >= 0, got {value}")
    return value


_INT = {"type": int}
_SEED = {"type": _seed}
_FLOAT = {"type": float}
_STR: dict = {}
# The default of a flag a command cannot run without: main refuses the command
# while such a flag is unset.
REQUIRED = object()

# Per subcommand: its handler and one row per flag, (flag, default, argparse
# keywords). The flag's underscored name is its argparse dest and the key
# --config accepts for it.
COMMANDS: dict[str, tuple] = {
    "init-model": (cmd_init_model, (
        ("--vocab-size", REQUIRED, _INT),
        ("--d-model", REQUIRED, _INT),
        ("--n-layers", REQUIRED, _INT),
        ("--n-heads", REQUIRED, _INT),
        ("--d-ff", REQUIRED, _INT),
        ("--max-seq-len", REQUIRED, _INT),
        ("--norm-kind", "layernorm", _STR),
        ("--act-kind", "gelu", _STR),
        ("--seed", REQUIRED, _SEED),
        ("--out", REQUIRED, _STR),
        ("--config-out", None, _STR),
    )),
    "keygen": (cmd_keygen, (
        ("--model-config", REQUIRED, _STR),
        ("--seed", REQUIRED, _SEED),
        ("--out", REQUIRED, _STR),
        ("--identity", False, {"action": "store_true"}),
    )),
    "encrypt-model": (cmd_encrypt_model, (
        ("--model", REQUIRED, _STR),
        ("--key", REQUIRED, _STR),
        ("--out", REQUIRED, _STR),
    )),
    "infer": (cmd_infer, (
        ("--model", REQUIRED, _STR),
        ("--key", None, _STR),
        ("--prompt", REQUIRED, _STR),
        ("--n-new", REQUIRED, _INT),
    )),
    "fidelity": (cmd_fidelity, (
        ("--vi-model", REQUIRED, _STR),
        ("--key", REQUIRED, _STR),
        ("--prompts", REQUIRED, _STR),
        ("--out", REQUIRED, _STR),
        ("--n-new", 8, _INT),
        ("--repeats", 5, _INT),
        ("--model-name", "toy-decoder", _STR),
    )),
    "attack": (cmd_attack, (
        ("--method", REQUIRED, {"choices": list(_ATTACKS)}),
        ("--corpus", REQUIRED, _STR),
        ("--vocab-size", REQUIRED, _INT),
        ("--out", REQUIRED, _STR),
        ("--lambda-uni", 0.0, _FLOAT),
        ("--lambda-bi", 0.0, _FLOAT),
        ("--lambda-cons", 0.0, _FLOAT),
        ("--ref-unigram", None, _STR),
        ("--ref-bigram", None, _STR),
        ("--oracle-model", None, _STR),
        ("--seed", 0, _SEED),
        ("--budget", 1000, _INT),
        ("--restarts", 1, _INT),
    )),
    "shard-sim": (cmd_shard_sim, (
        ("--model", REQUIRED, _STR),
        ("--key", None, _STR),
        ("--prompt", REQUIRED, _STR),
        ("--shards", REQUIRED, _INT),
        ("--n-new", 8, _INT),
        ("--seed", 0, _SEED),
        ("--latency-lo", 0.0, _FLOAT),
        ("--latency-hi", 0.0, _FLOAT),
        ("--fail", (), {"action": "append", "metavar": "NODE:STEP"}),
        ("--spares", 0, _INT),
        ("--out", REQUIRED, _STR),
    )),
    "make-corpus": (cmd_make_corpus, (
        ("--model", REQUIRED, _STR),
        ("--key", REQUIRED, _STR),
        ("--n-pairs", REQUIRED, _INT),
        ("--prompt-len", REQUIRED, _INT),
        ("--n-new", REQUIRED, _INT),
        ("--seed", REQUIRED, _SEED),
        ("--out", REQUIRED, _STR),
        ("--refs-out", None, _STR),
    )),
    "make-prompts": (cmd_make_prompts, (
        ("--model", REQUIRED, _STR),
        ("--n", REQUIRED, _INT),
        ("--length", REQUIRED, _INT),
        ("--seed", REQUIRED, _SEED),
        ("--out", REQUIRED, _STR),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eeinfer",
        description="Blind transformer inference with equivariant encryption.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON file of flag values")
        for flag, _, kwargs in flags:
            # absent flags stay out of the namespace so --config values can fill them
            p.add_argument(flag, default=argparse.SUPPRESS, **kwargs)
    return parser


def _fits(kwargs: dict, value: object) -> bool:
    """Whether a --config value has the type the flag's own parsing gives."""
    if kwargs.get("action") == "store_true":
        return isinstance(value, bool)
    if kwargs.get("action") == "append":
        return isinstance(value, list)
    if isinstance(value, bool):
        return False
    if kwargs.get("type") is int:
        return isinstance(value, int)
    if kwargs.get("type") is _seed:
        return isinstance(value, int) and value >= 0
    if kwargs.get("type") is float:
        return isinstance(value, (int, float))
    return isinstance(value, str) and value in kwargs.get("choices", (value,))


def _rows(command: str) -> dict[str, tuple]:
    """The flag rows of ``command`` keyed by dest, the flag's underscored name."""
    return {row[0][2:].replace("-", "_"): row for row in COMMANDS[command][1]}


def _resolve(args: argparse.Namespace) -> tuple:
    ns = vars(args).copy()
    command = ns.pop("command")
    config_path = ns.pop("config", None)
    rows = _rows(command)
    defaults = {dest: default for dest, (_, default, _) in rows.items()}
    file_values = {}
    if config_path:
        file_values = _load_json(config_path, "config file", dict)
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ConfigError(
                f"config file has unknown keys for {command}: {', '.join(sorted(unknown))}"
            )
        # a null leaves its flag at the default, as leaving the key out does
        file_values = {dest: value for dest, value in file_values.items() if value is not None}
        for dest, value in file_values.items():
            flag, _, kwargs = rows[dest]
            if not _fits(kwargs, value):
                raise ConfigError(f"config file value {value!r} does not fit {flag}")
    resolved = {**defaults, **file_values, **ns}
    return COMMANDS[command][0], command, resolved


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        func, command, resolved = _resolve(args)
        missing = sorted(dest for dest, value in resolved.items() if value is REQUIRED)
        if missing:
            raise _Usage("missing required arguments: " + ", ".join(missing))
        for dest, path in resolved.items():
            if (dest == "out" or dest.endswith("_out")) and path is not None:
                Path(path).parent.mkdir(parents=True, exist_ok=True)
        func(resolved)
        if "out" in resolved:
            doc = {"command": command, "config": {k: resolved[k] for k in sorted(resolved)}}
            Path(resolved["out"] + ".resolved_config.json").write_text(
                json.dumps(doc, indent=2) + "\n", encoding="utf-8"
            )
        return 0
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EEError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
