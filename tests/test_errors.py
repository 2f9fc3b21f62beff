"""The number rules of eeinfer.errors, entry point by entry point.

Every count, size, index and seed the library takes is an int or a numpy
integer in its range (check_int). A float, a bool or an out-of-range value
raises the site's EEError subclass, never a bare TypeError or ValueError, and
a numpy integer is accepted and stored as a plain int. The integer fields of
a .eekey or .eem header follow the same rule and raise FormatError.

Every other scalar number (a norm's eps, a loss weight, a reference
probability, a latency bound or sample, a confidence score) is an int, a
float or a numpy number, finite and in its range (check_float). A bool, a
string, None, NaN, an infinity or a value below the range raises the site's
class, and an accepted value is stored as a plain int or float.

The other shared rules follow: token ids given as arrays (check_ids) and the
arguments of a decode over a cache, each refused before anything runs.
"""
from __future__ import annotations

import types
from typing import Callable, NamedTuple

import numpy as np
import pytest

import eeinfer.model
from eeinfer.attack import (
    AttackConfig,
    GreedyOracle,
    TranscriptCorpus,
    generate_corpus,
    hill_climb,
    load_corpus,
    random_sampling,
    save_corpus,
)
from eeinfer.bench import Arms, FidelityReport, LatencyReport, measure_latency, random_prompts
from eeinfer.containers import read_container, write_container
from eeinfer.encryption import (
    KEY_MAGIC,
    LAYOUT_FIELDS,
    decrypt_tokens,
    encrypt_tokens,
    keygen,
    load_key,
    save_key,
)
from eeinfer.errors import ConfigError, EEError, FormatError, RangeError, ShapeError
from eeinfer.model import (
    CIPHERTEXT,
    MODEL_MAGIC,
    PLAINTEXT,
    KVCache,
    ModelConfig,
    TokenSeq,
    apply_layer_range,
    embed_positions,
    forward,
    greedy_decode,
    init_model,
    load_model,
    make_config,
    save_model,
)
from eeinfer.shard_sim import ActivationFrame, BrokerConfig, ShardPlan, plan_shards, run_pipeline
from eeinfer.tensor_ops import layer_norm, rms_norm

CONFIG = make_config(vocab_size=16, d_model=8, n_layers=2, n_heads=2, d_ff=16, max_seq_len=8)
CONFIG_INTS = ("vocab_size", "d_model", "n_layers", "n_heads", "d_head", "d_ff", "max_seq_len")


@pytest.fixture(scope="module")
def w(tmp_path_factory) -> types.SimpleNamespace:
    model = init_model(CONFIG, 1)
    key = keygen(CONFIG, 2)
    arms = Arms(model, key)
    corpus = generate_corpus(model, key, 3, 2, 2, seed=0)
    corpus_path = tmp_path_factory.mktemp("errors") / "corpus.jsonl"
    save_corpus(corpus, corpus_path)
    return types.SimpleNamespace(
        model=model,
        key=key,
        arms=arms,
        enc=arms.ee,
        prompt=TokenSeq((1, 2), PLAINTEXT),
        enc_prompt=encrypt_tokens(key, TokenSeq((1, 2), PLAINTEXT)),
        corpus=corpus,
        corpus_path=corpus_path,
        attack=AttackConfig(
            corpus=corpus, lambda_uni=1.0, ref_unigram=np.full(16, 1 / 16), budget=4
        ),
    )


def _config(name, v):
    return ModelConfig(**{**CONFIG.to_dict(), name: v})


def _attack(w, **kwargs):
    return AttackConfig(corpus=w.corpus, lambda_uni=1.0, ref_unigram=np.full(16, 1 / 16), **kwargs)


def _pipeline(w, **kwargs):
    plan = plan_shards(CONFIG, 2)
    return run_pipeline(w.enc, plan, BrokerConfig(), w.enc_prompt, **{"n_new": 1, **kwargs})


class Site(NamedTuple):
    """An entry point: call(w, value), the class it raises, a value it
    accepts, a value out of range, and how to read the stored value back from
    the call's result (None: the call stores nothing to read)."""

    name: str
    call: Callable
    error: type
    good: int
    bad: int
    stored: Callable | None


INT_ARGS = [Site(*row) for row in [
    *[
        (f"ModelConfig.{name}", lambda w, v, name=name: _config(name, v), ConfigError,
         CONFIG.to_dict()[name], 1 if name == "vocab_size" else 0,
         lambda r, name=name: getattr(r, name))
        for name in CONFIG_INTS
    ],
    ("make_config n_heads", lambda w, v: make_config(16, 8, 2, v, 16, 8), ConfigError, 2, 0,
     lambda r: r.n_heads),
    ("TokenSeq id", lambda w, v: TokenSeq((0, v), PLAINTEXT), RangeError, 3, -1,
     lambda r: r.ids[1]),
    ("greedy_decode id", lambda w, v: greedy_decode(w.model, TokenSeq((0, v), PLAINTEXT), 1),
     RangeError, 3, 16, lambda r: r.ids[1]),
    ("encrypt_tokens id", lambda w, v: encrypt_tokens(w.key, TokenSeq((0, v), PLAINTEXT)),
     RangeError, 3, 16, None),
    ("decrypt_tokens id", lambda w, v: decrypt_tokens(w.key, TokenSeq((0, v), CIPHERTEXT)),
     RangeError, 3, 16, None),
    ("init_model seed", lambda w, v: init_model(CONFIG, v), ConfigError, 1, -1, None),
    ("KVCache first", lambda w, v: KVCache(w.model, v, 1), ShapeError, 1, -1,
     lambda r: r.layers.start),
    ("KVCache last", lambda w, v: KVCache(w.model, 0, v), ShapeError, 1, 2,
     lambda r: r.layers.stop - 1),
    ("KVCache requests", lambda w, v: KVCache(w.model, 0, 1, v), ShapeError, 2, 0,
     lambda r: r.requests),
    ("apply_layer_range first",
     lambda w, v: apply_layer_range(KVCache(w.model, 0, 1), np.ones((1, 8)), v, 1), ShapeError,
     0, -1, None),
    ("apply_layer_range last",
     lambda w, v: apply_layer_range(KVCache(w.model, 0, 1), np.ones((1, 8)), 0, v), ShapeError,
     1, 2, None),
    ("greedy_decode n_new", lambda w, v: greedy_decode(w.model, w.prompt, v), RangeError, 2, -1,
     lambda r: len(r) - 2),
    ("KVCache.take index", lambda w, v: KVCache(w.model, 0, 1, 2).take([0, v]), RangeError, 1, 2,
     None),
    ("embed_positions start", lambda w, v: embed_positions(w.model, [1], start=v), ShapeError,
     3, -1, None),
    ("keygen seed", lambda w, v: keygen(CONFIG, v), ConfigError, 2, -1, lambda r: r.seed),
    ("plan_shards n", lambda w, v: plan_shards(CONFIG, v), ConfigError, 2, 3,
     lambda r: len(r.ranges)),
    ("ShardPlan range", lambda w, v: ShardPlan(((0, v),)), ConfigError, 1, -1,
     lambda r: r.ranges[0][1]),
    ("ActivationFrame request_id", lambda w, v: ActivationFrame(v, 0, np.ones((1, 1))),
     RangeError, 2**64 - 1, 2**64, lambda r: r.request_id),
    ("ActivationFrame shard_index", lambda w, v: ActivationFrame(0, v, np.ones((1, 1))),
     RangeError, 2**16 - 1, 2**16, lambda r: r.shard_index),
    ("BrokerConfig seed", lambda w, v: BrokerConfig(seed=v), ConfigError, 3, -1,
     lambda r: r.seed),
    ("BrokerConfig spares", lambda w, v: BrokerConfig(spares=v), ConfigError, 1, -1,
     lambda r: r.spares),
    ("BrokerConfig failure node", lambda w, v: BrokerConfig(failures=((v, 2),)), ConfigError,
     1, -1, lambda r: r.failures[0][0]),
    ("BrokerConfig failure step", lambda w, v: BrokerConfig(failures=((1, v),)), ConfigError,
     2, -1, lambda r: r.failures[0][1]),
    ("run_pipeline request_id", lambda w, v: _pipeline(w, request_id=v), RangeError, 7, 2**64,
     None),
    ("run_pipeline n_new", lambda w, v: _pipeline(w, n_new=v), RangeError, 2, -1,
     lambda r: len(r[0]) - 2),
    ("AttackConfig budget", lambda w, v: _attack(w, budget=v), ConfigError, 4, 0,
     lambda r: r.budget),
    ("AttackConfig seed", lambda w, v: _attack(w, seed=v), ConfigError, 5, -1, lambda r: r.seed),
    ("AttackConfig ref_bigram context",
     lambda w, v: AttackConfig(corpus=w.corpus, lambda_bi=1.0, ref_bigram={v: {1: 1.0}}),
     ConfigError, 3, 16, None),
    ("AttackConfig ref_bigram successor",
     lambda w, v: AttackConfig(corpus=w.corpus, lambda_bi=1.0, ref_bigram={0: {v: 1.0}}),
     ConfigError, 3, 16, None),
    ("hill_climb restarts", lambda w, v: hill_climb(w.attack, restarts=v), ConfigError, 2, 0,
     None),
    ("random_sampling M", lambda w, v: random_sampling(w.attack, v), ConfigError, 3, 0,
     lambda r: r.evals_used),
    ("TranscriptCorpus id", lambda w, v: TranscriptCorpus((((v,), (1,)),), 16), RangeError, 15,
     16, lambda r: r.pairs[0][0][0]),
    ("TranscriptCorpus vocab_size", lambda w, v: TranscriptCorpus((((1,), (1,)),), v),
     ConfigError, 16, 1, lambda r: r.vocab_size),
    ("load_corpus vocab_size", lambda w, v: load_corpus(w.corpus_path, v), ConfigError, 16, 1,
     lambda r: r.vocab_size),
    *[
        (f"generate_corpus {name}",
         lambda w, v, name=name: generate_corpus(
             w.model, w.key, **{"n_pairs": 2, "prompt_len": 2, "n_new": 1, "seed": 0, name: v}),
         ConfigError, 1, -1 if name == "seed" else 0, None)
        for name in ("n_pairs", "prompt_len", "n_new", "seed")
    ],
    *[
        (f"random_prompts {name}",
         lambda w, v, name=name: random_prompts(
             CONFIG, **{"n": 2, "length": 2, "seed": 0, name: v}),
         ConfigError, 1, -1 if name == "seed" else 0, None)
        for name in ("n", "length", "seed")
    ],
    ("measure_latency repeats",
     lambda w, v: measure_latency(w.arms, [w.prompt], 1, v), ConfigError, 3, 2,
     lambda r: r.repeats),
]]


@pytest.mark.parametrize("site", INT_ARGS, ids=[site.name for site in INT_ARGS])
@pytest.mark.parametrize("which", ["float", "whole float", "bool", "out of range"])
def test_non_integer_or_out_of_range_refused(w, site, which):
    # a whole float equal to the accepted value is refused too, not truncated
    value = {"float": 1.5, "whole float": float(site.good), "bool": True,
             "out of range": site.bad}[which]
    with pytest.raises(EEError) as info:
        site.call(w, value)
    assert type(info.value) is site.error


@pytest.mark.parametrize("site", INT_ARGS, ids=[site.name for site in INT_ARGS])
def test_numpy_integer_accepted_and_stored_as_int(w, site):
    kind = np.uint64 if site.good >= 2**63 else np.int64
    result = site.call(w, kind(site.good))
    if site.stored is not None:
        stored = site.stored(result)
        assert stored == site.good and type(stored) is int


def _key_field(field):
    return lambda h, v: h["layout"].__setitem__(field, v)


def _tensor_field(field):
    def edit(h, v):
        if field == "shape":
            h["tensors"][0]["shape"][0] = v
        else:
            h["tensors"][0][field] = v
    return edit


# (header field, file kind, edit(header, value), a value out of range)
HEADER_FIELDS = [
    ("key seed", "key", lambda h, v: h.__setitem__("seed", v), -1),
    *[(f"key layout {field}", "key", _key_field(field), 0) for field in LAYOUT_FIELDS],
    *[(f"model tensor {field}", "model", _tensor_field(field), -1)
      for field in ("shape", "offset", "length")],
    ("model tensor crc32", "model", _tensor_field("crc32"), 2**32),
    # a name must be a string: a list once ended in a bare TypeError
    ("model tensor name", "model", _tensor_field("name"), [1]),
]


@pytest.mark.parametrize(
    "kind, edit, bad", [row[1:] for row in HEADER_FIELDS], ids=[row[0] for row in HEADER_FIELDS]
)
@pytest.mark.parametrize("which", ["float", "bool", "out of range"])
def test_header_integer_refused(w, tmp_path, kind, edit, bad, which):
    value = {"float": 1.5, "bool": True, "out of range": bad}[which]
    path = tmp_path / f"f.{kind}"
    save, load, magic = {
        "key": (lambda: save_key(w.key, path), load_key, KEY_MAGIC),
        "model": (lambda: save_model(w.model, path), load_model, MODEL_MAGIC),
    }[kind]
    save()
    header, payload, _ = read_container(path, magic)
    edit(header, value)
    write_container(path, magic, header, payload)
    with pytest.raises(EEError) as info:
        load(path)
    assert type(info.value) is FormatError


@pytest.mark.parametrize("ids", [np.array([1.7, 2.2]), [True, False], np.array([3.0])],
                         ids=["float", "bool", "whole float"])
def test_oracle_refuses_ids_that_are_not_integers(w, ids):
    # a float was truncated to its integer part and a bool taken as 0 or 1
    oracle = GreedyOracle(w.model)
    with pytest.raises(RangeError, match="token ids must be integers"):
        oracle.continuations([(ids, 1)])
    assert not oracle._memo and oracle._first is None


def _weights(w, name, v):
    # every loss on, so that each weight may take any value its rule accepts
    weights = {"lambda_uni": 1.0, "lambda_bi": 1.0, "lambda_cons": 1.0, name: v}
    return AttackConfig(corpus=w.corpus, ref_unigram=np.full(16, 1 / 16),
                        ref_bigram={0: {1: 1.0}}, oracle=GreedyOracle(w.model), **weights)


class FloatSite(NamedTuple):
    """A float entry point: call(w, value), the class it raises, a float it
    accepts (1 is accepted everywhere too), a value below its range, and how
    to read the stored value back from the call's result (None: the call
    stores nothing to read)."""

    name: str
    call: Callable
    error: type
    good: float
    below: float
    stored: Callable | None


FLOAT_ARGS = [FloatSite(*row) for row in [
    # a norm's eps: what ModelConfig refuses as norm_eps the public kernels
    # refuse too, by the same rule, bar 0, which a kernel takes (its hand
    # cases use it) and a config refuses (a zero row would divide 0 by 0)
    ("layer_norm", lambda w, v: layer_norm([[1.0, 2.0]], [1.0, 1.0], [0.0, 0.0], eps=v),
     ConfigError, 0.5, -1e-300, None),
    ("rms_norm", lambda w, v: rms_norm([[1.0, 2.0]], [1.0, 1.0], eps=v), ConfigError, 0.5,
     -1e-300, None),
    ("ModelConfig.norm_eps", lambda w, v: _config("norm_eps", v), ConfigError, 1e-5, 0,
     lambda r: r.norm_eps),
    *[
        (f"AttackConfig {name}", lambda w, v, name=name: _weights(w, name, v), ConfigError, 0.5,
         -1e-300, lambda r, name=name: getattr(r, name))
        for name in ("lambda_uni", "lambda_bi", "lambda_cons")
    ],
    # a one-successor row, so that the accepted value is 1 and "1.0" parses
    # to a distribution
    ("AttackConfig ref_bigram probability",
     lambda w, v: AttackConfig(corpus=w.corpus, lambda_bi=1.0, ref_bigram={0: {1: v}}),
     ConfigError, 1.0, -1, None),
    ("BrokerConfig latency_lo", lambda w, v: BrokerConfig(latency_lo=v, latency_hi=2),
     ConfigError, 0.5, -1e-300, lambda r: r.latency_lo),
    # the upper bound's range starts at the lower bound
    ("BrokerConfig latency_hi", lambda w, v: BrokerConfig(latency_lo=0.25, latency_hi=v),
     ConfigError, 0.5, 0.125, lambda r: r.latency_hi),
    *[
        (f"LatencyReport {arm} sample",
         lambda w, v, arm=arm: LatencyReport(**{"vi_samples": (1.0,) * 3,
                                                "ee_samples": (1.0,) * 3, arm: (v, 1.0, 1.0)}),
         RangeError, 0.5, 0, lambda r, arm=arm: getattr(r, arm)[0])
        for arm in ("vi_samples", "ee_samples")
    ],
    *[
        (f"FidelityReport {arm} score",
         lambda w, v, arm=arm: FidelityReport(**{"scores_vi": (0.5,), "scores_ee": (0.5,),
                                                 arm: (v,)}),
         RangeError, 0.5, -1e-300, lambda r, arm=arm: getattr(r, arm)[0])
        for arm in ("scores_vi", "scores_ee")
    ],
]]
FLOAT_SITE = {site.name: site for site in FLOAT_ARGS}


@pytest.mark.parametrize("site", FLOAT_ARGS, ids=[site.name for site in FLOAT_ARGS])
@pytest.mark.parametrize("which", ["int", "float", "numpy float"])
def test_number_accepted_and_stored_as_plain_number(w, site, which):
    value = {"int": 1, "float": site.good, "numpy float": np.float64(site.good)}[which]
    result = site.call(w, value)
    if site.stored is not None:
        # an int may be stored as it is or as a float (a score is kept as a float)
        stored = site.stored(result)
        assert stored == value and type(stored) in ((int, float) if which == "int" else (float,))


# None is a value of norm_eps: the per-kind default
FLOAT_REFUSALS = [
    (site, which)
    for site in FLOAT_ARGS
    for which in ["bool", "string", "None", "nan", "inf", "-inf", "below range"]
    if (site.name, which) != ("ModelConfig.norm_eps", "None")
]


@pytest.mark.parametrize(
    "site, which", FLOAT_REFUSALS, ids=[f"{which}-{site.name}" for site, which in FLOAT_REFUSALS]
)
def test_non_number_or_out_of_range_float_refused(w, site, which):
    # a string that parses to an accepted value is refused too, not parsed
    value = {"bool": True, "string": str(site.good), "None": None, "nan": float("nan"),
             "inf": float("inf"), "-inf": float("-inf"), "below range": site.below}[which]
    with pytest.raises(EEError) as info:
        site.call(w, value)
    assert type(info.value) is site.error
    assert "must be a finite number" in str(info.value)


@pytest.mark.parametrize("site", ["layer_norm", "rms_norm", "ModelConfig.norm_eps"])
@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1, -1e-300, True, "x"], ids=repr)
def test_norm_eps_refused(w, site, eps):
    with pytest.raises(ConfigError, match="must be a finite number"):
        FLOAT_SITE[site].call(w, eps)


def test_norm_eps_zero_is_a_kernel_value_only(w):
    assert np.isfinite(FLOAT_SITE["layer_norm"].call(w, 0)).all()
    assert np.isfinite(FLOAT_SITE["rms_norm"].call(w, 0.0)).all()
    with pytest.raises(ConfigError, match="norm_eps must be a finite number > 0"):
        FLOAT_SITE["ModelConfig.norm_eps"].call(w, 0.0)


def _no_product(*args):
    raise AssertionError("a product ran before the refusal")


def _prefilled(w, length):
    cache = KVCache(w.model, 0, 1, 2)
    forward(cache, [TokenSeq(tuple(range(1, length + 1)), PLAINTEXT)] * 2)
    return cache


# (the cache, the number of prompts, n_new) of a decode over a cache that is
# refused; the prompts are w.prompt, two ids, and max_seq_len is 8
DECODE_OVER_A_CACHE = {
    "cache of layer 0 alone": (lambda w: KVCache(w.model, 0, 0), 1, 1),
    "cache of 2 requests, 1 prompt": (lambda w: _prefilled(w, 2), 1, 1),
    "cache of 2 requests, 3 prompts": (lambda w: _prefilled(w, 2), 3, 1),
    "2 cached + 2 + 5 positions": (lambda w: _prefilled(w, 2), 2, 5),
    "7 cached + 2 + 0 positions": (lambda w: _prefilled(w, 7), 2, 0),
}


@pytest.mark.parametrize("case", DECODE_OVER_A_CACHE)
def test_decode_over_a_cache_refused_before_any_compute(w, monkeypatch, case):
    make, prompts, n_new = DECODE_OVER_A_CACHE[case]
    cache = make(w)
    length = cache.length
    monkeypatch.setattr(eeinfer.model, "matmul", _no_product)
    with pytest.raises(ShapeError):
        greedy_decode(cache, [w.prompt] * prompts, n_new)
    assert cache.length == length


def test_take_refuses_no_requests(w):
    with pytest.raises(ShapeError, match="at least one request index"):
        _prefilled(w, 2).take([])
