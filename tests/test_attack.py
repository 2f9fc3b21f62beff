"""Tests for the vocabulary-recovery attack framework."""
from __future__ import annotations

import base64
import dataclasses
import functools
import hashlib
import itertools
import json
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eeinfer.attack as attack
from eeinfer.attack import (
    AttackConfig,
    AttackState,
    GreedyOracle,
    TranscriptCorpus,
    brute_force,
    empirical_bigram,
    empirical_unigram,
    generate_corpus,
    hill_climb,
    load_corpus,
    random_sampling,
    recovery_rate,
    save_attack_result,
    save_corpus,
    total_loss,
)
from eeinfer.encryption import decrypt_tokens, keygen
from eeinfer.errors import (
    ConfigError,
    FormatError,
    PairingError,
    RangeError,
    RefusalError,
    ShapeError,
)
from eeinfer.model import PLAINTEXT, KVCache, TokenSeq, greedy_decode, init_model, make_config
from eeinfer.tensor_ops import PermTable


def perm_of(*ids: int) -> PermTable:
    return PermTable(np.asarray(ids, dtype=np.int64))


def unigram_loss(perm, corpus, ref):
    return total_loss(perm, AttackConfig(corpus=corpus, lambda_uni=1.0, ref_unigram=ref))[0]


def bigram_loss(perm, corpus, ref):
    return total_loss(perm, AttackConfig(corpus=corpus, lambda_bi=1.0, ref_bigram=ref))[0]


def consistency_penalty(perm, corpus, oracle):
    return total_loss(perm, AttackConfig(corpus=corpus, lambda_cons=1.0, oracle=oracle))[0]


def unigram_reference(enc_freq, perm_map, ref):
    """One candidate's unigram L1 loss, written out: rescatter the encrypted
    frequencies, then one 1-D sum."""
    dec = np.empty(enc_freq.shape[0])
    dec[perm_map] = enc_freq
    return float(np.abs(dec - ref).sum())


@pytest.fixture(scope="module")
def small_model():
    # vocab 6 so brute force stays within its enumeration cap; seed chosen so
    # the generated corpus pins a unique zero-consistency permutation
    return init_model(make_config(6, 8, 1, 1, 16, 16), seed=3)


@pytest.fixture(scope="module")
def small_key(small_model):
    return keygen(small_model.config, seed=77)


@pytest.fixture(scope="module")
def small_corpus(small_model, small_key):
    return generate_corpus(small_model, small_key, n_pairs=30, prompt_len=3, n_new=2, seed=5)


@pytest.fixture(scope="module")
def small_oracle(small_model):
    return GreedyOracle(small_model)


@pytest.fixture(scope="module")
def vocab50_cfg():
    """The vocab-50 victim, key and corpus of scripts/run_attacks.py with its
    unigram plus consistency loss, at budget 3000."""
    config = make_config(50, 8, 1, 1, 16, 8)
    model = init_model(config, seed=13)
    key = keygen(config, seed=501)
    corpus = generate_corpus(model, key, n_pairs=30, prompt_len=2, n_new=1, seed=9)
    return AttackConfig(
        corpus=corpus, lambda_uni=1.0, lambda_cons=1.0,
        ref_unigram=empirical_unigram(corpus, key.vocab_perm.inverse()),
        oracle=GreedyOracle(model), seed=1, budget=3000,
    )


class TestCorpus:
    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            TranscriptCorpus(pairs=(), vocab_size=4)

    def test_rejects_empty_sides(self):
        with pytest.raises(ConfigError):
            TranscriptCorpus(pairs=(((1,), ()),), vocab_size=4)
        with pytest.raises(ConfigError):
            TranscriptCorpus(pairs=(((), (1,)),), vocab_size=4)

    def test_rejects_out_of_range(self):
        with pytest.raises(RangeError):
            TranscriptCorpus(pairs=(((0, 4), (1,)),), vocab_size=4)

    def test_all_tokens_order(self):
        corpus = TranscriptCorpus(pairs=(((0, 1), (2,)), ((3,), (0,))), vocab_size=4)
        assert corpus.all_tokens().tolist() == [0, 1, 2, 3, 0]

    def test_round_trip(self, tmp_path, small_corpus):
        path = tmp_path / "corpus.jsonl"
        save_corpus(small_corpus, path)
        loaded = load_corpus(path, vocab_size=small_corpus.vocab_size)
        assert loaded == small_corpus

    def test_golden_file_bytes(self, tmp_path, small_corpus):
        # computed before corpora were written through containers.write_jsonl
        save_corpus(small_corpus, tmp_path / "corpus.jsonl")
        digest = hashlib.sha256((tmp_path / "corpus.jsonl").read_bytes()).hexdigest()
        assert digest == "b201f2ae6a54e90c9e22f23645447da6fc61b66a358fa50a4196311a5c3d19fa"

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"input_ids": [1], "output_ids": [2]}\n{"input_ids": [1]}\n')
        with pytest.raises(FormatError, match="line 2"):
            load_corpus(path, vocab_size=4)

    @pytest.mark.parametrize(
        "ids", ['[1.5]', '["3"]', '[true]', '["x"]', '[[1]]', '"12"', '{"1": 2}', 'null']
    )
    @pytest.mark.parametrize("side", ["input_ids", "output_ids"])
    def test_non_integer_ids_are_malformed(self, tmp_path, side, ids):
        # a float, string or boolean id used to load as an int, or fail later
        # with a bare TypeError or ValueError
        fields = {"input_ids": "[1]", "output_ids": "[2]", side: ids}
        bad_line = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        path = tmp_path / "bad.jsonl"
        path.write_text('{"input_ids": [1], "output_ids": [2]}\n' + bad_line + "\n")
        with pytest.raises(FormatError, match="corpus line 2 is malformed"):
            load_corpus(path, vocab_size=4)

    def test_generate_under_another_configs_key_is_pairing_error(self, small_model):
        # a key of a larger vocabulary used to encrypt the pairs without complaint
        other = keygen(make_config(8, 8, 1, 1, 16, 16), seed=77)
        with pytest.raises(PairingError):
            generate_corpus(small_model, other, 4, 3, 2, seed=9)

    def test_generate_is_deterministic_ciphertext(self, small_model, small_key):
        a = generate_corpus(small_model, small_key, 4, 3, 2, seed=9)
        b = generate_corpus(small_model, small_key, 4, 3, 2, seed=9)
        assert a == b
        # decrypting any pair with the key gives a valid greedy continuation
        oracle = GreedyOracle(small_model)
        enc_in, enc_out = a.pairs[0]
        dec_in = decrypt_tokens(small_key, TokenSeq(enc_in, "ciphertext"))
        dec_out = decrypt_tokens(small_key, TokenSeq(enc_out, "ciphertext"))
        [got] = oracle.continuations([(np.asarray(dec_in.ids), len(dec_out.ids))])
        assert tuple(got) == dec_out.ids


class TestUnigram:
    def test_zero_when_ref_matches(self):
        corpus = TranscriptCorpus(pairs=(((0, 0), (1,)),), vocab_size=2)
        ref = np.array([2 / 3, 1 / 3])
        assert unigram_loss(perm_of(0, 1), corpus, ref) == 0.0

    def test_hand_value(self):
        # tokens (0,0,1) under identity: emp = [2/3, 1/3]; ref = [1/3, 2/3]
        corpus = TranscriptCorpus(pairs=(((0, 0), (1,)),), vocab_size=2)
        ref = np.array([1 / 3, 2 / 3])
        assert unigram_loss(perm_of(0, 1), corpus, ref) == pytest.approx(2 / 3)
        # swapping the labels aligns with the reference exactly
        assert unigram_loss(perm_of(1, 0), corpus, ref) == 0.0

    def test_max_is_two(self):
        corpus = TranscriptCorpus(pairs=(((0, 0), (0,)),), vocab_size=2)
        assert unigram_loss(perm_of(0, 1), corpus, np.array([0.0, 1.0])) == pytest.approx(2.0)

    def test_missing_ref(self, small_corpus):
        with pytest.raises(ConfigError):
            unigram_loss(perm_of(*range(6)), small_corpus, None)

    def test_wrong_sizes(self, small_corpus):
        with pytest.raises(ShapeError):
            unigram_loss(perm_of(0, 1), small_corpus, np.full(6, 1 / 6))
        with pytest.raises(ShapeError):
            unigram_loss(perm_of(*range(6)), small_corpus, np.full(3, 1 / 3))

    def test_empirical_sums_to_one(self, small_corpus):
        dist = empirical_unigram(small_corpus, perm_of(*range(6)))
        assert dist.sum() == pytest.approx(1.0)
        assert dist.shape == (6,)

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(v=st.integers(2, 300), b=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_block_rows_equal_the_one_candidate_reference(self, v, b, seed):
        """Each row of a block's losses has the bits of that map's loss
        scored on its own."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 4, size=v)
        counts[rng.integers(v)] += 1
        enc_freq = counts / counts.sum()
        ref = rng.dirichlet(np.ones(v))
        maps = rng.permuted(np.tile(np.arange(v, dtype=np.int64), (b, 1)), axis=1)
        got = attack._unigram_l1(enc_freq, maps, ref)
        assert got.shape == (b,)
        assert [x.hex() for x in got.tolist()] == [
            unigram_reference(enc_freq, m, ref).hex() for m in maps
        ]


class TestBigram:
    def test_boundary_bigram_counted(self):
        corpus = TranscriptCorpus(pairs=(((0, 1), (2,)),), vocab_size=3)
        table = empirical_bigram(corpus, perm_of(0, 1, 2))
        assert table == {0: {1: 1.0}, 1: {2: 1.0}}

    def test_zero_against_own_stats(self, small_corpus):
        perm = perm_of(*range(6))
        ref = empirical_bigram(small_corpus, perm)
        assert bigram_loss(perm, small_corpus, ref) == pytest.approx(0.0)

    def test_hand_value(self):
        # decrypted seq (0,1,0): ctx 0 -> {1:1} vs ref {0:.5,1:.5} gives L1=1,
        # ctx 1 -> {0:1} matches ref exactly; weights 1/2 each
        corpus = TranscriptCorpus(pairs=(((0, 1), (0,)),), vocab_size=2)
        ref = {0: {0: 0.5, 1: 0.5}, 1: {0: 1.0}}
        assert bigram_loss(perm_of(0, 1), corpus, ref) == pytest.approx(0.5)

    def test_unseen_context_costs_two(self):
        corpus = TranscriptCorpus(pairs=(((0,), (0,)),), vocab_size=2)
        ref = {1: {0: 1.0}}
        assert bigram_loss(perm_of(0, 1), corpus, ref) == pytest.approx(2.0)

    def test_missing_ref(self, small_corpus):
        with pytest.raises(ConfigError):
            bigram_loss(perm_of(*range(6)), small_corpus, None)


class TestConsistency:
    def test_true_perm_scores_zero(self, small_corpus, small_key, small_oracle):
        truth = small_key.vocab_perm.inverse()
        assert consistency_penalty(truth, small_corpus, small_oracle) == 0.0

    def test_wrong_perm_scores_positive(self, small_corpus, small_key, small_oracle):
        truth = small_key.vocab_perm.inverse().map.copy()
        truth[0], truth[1] = truth[1], truth[0]
        value = consistency_penalty(PermTable(truth), small_corpus, small_oracle)
        assert 0.0 < value <= 1.0

    def test_missing_oracle(self, small_corpus):
        with pytest.raises(ConfigError):
            consistency_penalty(perm_of(*range(6)), small_corpus, None)

    def test_oracle_requires_plaintext(self, small_model, small_key):
        from eeinfer.encryption import encrypt_model

        with pytest.raises(ConfigError):
            GreedyOracle(encrypt_model(small_key, small_model))

    def test_oracle_memoizes(self, small_model):
        oracle = GreedyOracle(small_model)
        [first] = oracle.continuations([(np.array([0, 1]), 2)])
        assert len(oracle._memo) == 1
        [again] = oracle.continuations([(np.array([0, 1]), 2)])
        assert tuple(again) == tuple(first)
        assert len(oracle._memo) == 1
        oracle.continuations([(np.array([0, 1]), 3)])
        assert len(oracle._memo) == 2

    def test_oracle_memo_keys_on_ids_not_bytes(self, small_model):
        # int32 [0, 0] has the bytes of int64 [0]; the two prompts still differ
        oracle = GreedyOracle(small_model)
        oracle.continuations([(np.array([0, 0], dtype=np.int32), 2)])
        [got] = oracle.continuations([(np.array([0], dtype=np.int64), 2)])
        assert len(oracle._memo) == 2
        want = greedy_decode(small_model, TokenSeq((0,), PLAINTEXT), 2).ids[1:]
        assert tuple(got) == want

    def test_oracle_decodes_misses_once_per_length_and_n_new(self, small_model):
        oracle = GreedyOracle(small_model)
        oracle.continuations([(np.array([5, 5]), 1)])
        requests = [
            (np.array([0, 1]), 2), (np.array([5, 5]), 1), (np.array([2, 3]), 2),
            (np.array([0, 1]), 2), (np.array([4]), 2), (np.array([3, 0]), 1),
        ]
        batches = []
        taken = []
        real, real_take = attack.greedy_decode, KVCache.take

        def take(cache, firsts):
            taken.append(firsts)
            return real_take(cache, firsts)

        def counted(source, prompts, n_new):
            # a routed call continues a cache taken from the first positions,
            # with the ids after each prompt's first: record the whole prompt
            firsts = taken.pop() if isinstance(source, KVCache) else [None] * len(prompts)
            batches.append(
                ([(() if f is None else (f,)) + p.ids for f, p in zip(firsts, prompts)], n_new)
            )
            return real(source, prompts, n_new)

        with patch.object(attack, "greedy_decode", counted), patch.object(KVCache, "take", take):
            got = oracle.continuations(requests)
        assert not taken
        # the hit is not decoded and the repeat is decoded once
        assert sorted(batches) == [([(0, 1), (2, 3)], 2), ([(3, 0)], 1), ([(4,)], 2)]
        for (ids, n_new), out in zip(requests, got):
            single = greedy_decode(small_model, TokenSeq(tuple(ids), PLAINTEXT), n_new)
            assert tuple(out) == single.ids[len(ids) :]


    @pytest.mark.parametrize("n_new", [1, 2])
    def test_oracle_continuations_equal_fresh_decodes(self, tiny_model, n_new):
        # one call holds prompts of 1, 2 and 3 ids; those of two or more
        # continue from the cached first positions, every first id among them
        rng = np.random.default_rng(n_new)
        tails = [rng.integers(0, 32, size=length - 1) for length in (1, 2, 3) for _ in range(3)]
        requests = [(np.array([first, *tail]), n_new) for tail in tails for first in range(32)]
        got = GreedyOracle(tiny_model).continuations(requests)
        by_tail = {}
        for (ids, _), out in zip(requests, got):
            single = greedy_decode(tiny_model, TokenSeq(tuple(ids.tolist()), PLAINTEXT), n_new)
            assert out.tolist() == list(single.ids[len(ids) :]), ids
            by_tail.setdefault(ids[1:].tobytes(), set()).add(out.tobytes())
        # the first id changes the continuation of some longer prompts
        assert max(len(outs) for tail, outs in by_tail.items() if tail) > 1

    def test_oracle_without_a_long_miss_caches_no_first_positions(self, small_model):
        oracle = GreedyOracle(small_model)
        oracle.continuations([(np.array([3]), 2), (np.array([1]), 1)])
        assert oracle._first is None


class TestTotalLoss:
    def test_weighted_sum_of_components(self, small_corpus, small_oracle):
        perm = perm_of(5, 4, 3, 2, 1, 0)
        ref_uni = empirical_unigram(small_corpus, perm_of(*range(6)))
        ref_bi = empirical_bigram(small_corpus, perm_of(*range(6)))
        cfg = AttackConfig(
            corpus=small_corpus,
            lambda_uni=2.0,
            lambda_bi=0.5,
            lambda_cons=3.0,
            ref_unigram=ref_uni,
            ref_bigram=ref_bi,
            oracle=small_oracle,
        )
        value, breakdown = total_loss(perm, cfg)
        l_uni = unigram_loss(perm, small_corpus, ref_uni)
        l_bi = bigram_loss(perm, small_corpus, ref_bi)
        l_cons = consistency_penalty(perm, small_corpus, small_oracle)
        assert breakdown == {
            "unigram": pytest.approx(l_uni),
            "bigram": pytest.approx(l_bi),
            "consistency": pytest.approx(l_cons),
        }
        assert value == pytest.approx(2.0 * l_uni + 0.5 * l_bi + 3.0 * l_cons)

    def test_pair_order_does_not_matter(self, small_corpus, small_oracle):
        ref_uni = empirical_unigram(small_corpus, perm_of(*range(6)))
        shuffled = TranscriptCorpus(
            pairs=tuple(reversed(small_corpus.pairs)), vocab_size=6
        )
        perm = perm_of(2, 0, 1, 5, 3, 4)
        for corpus in (small_corpus, shuffled):
            cfg = AttackConfig(
                corpus=corpus,
                lambda_uni=1.0,
                lambda_cons=1.0,
                ref_unigram=ref_uni,
                oracle=small_oracle,
            )
            if corpus is small_corpus:
                base = total_loss(perm, cfg)[0]
            else:
                assert total_loss(perm, cfg)[0] == pytest.approx(base)

    def test_config_rejects_all_zero_weights(self, small_corpus):
        with pytest.raises(ConfigError):
            AttackConfig(corpus=small_corpus)

    @pytest.mark.parametrize("weight", ["lambda_uni", "lambda_bi", "lambda_cons"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_config_rejects_non_finite_weight(self, small_corpus, small_oracle, weight, value):
        # NaN used to pass both the sign check and the positive-weight check,
        # and then every loss term was skipped
        identity = perm_of(*range(6))
        weights = {"lambda_uni": 1.0, "lambda_bi": 1.0, "lambda_cons": 1.0, weight: value}
        with pytest.raises(ConfigError, match=weight):
            AttackConfig(
                corpus=small_corpus,
                ref_unigram=empirical_unigram(small_corpus, identity),
                ref_bigram=empirical_bigram(small_corpus, identity),
                oracle=small_oracle,
                **weights,
            )

    def test_config_rejects_missing_refs(self, small_corpus, small_oracle):
        with pytest.raises(ConfigError):
            AttackConfig(corpus=small_corpus, lambda_uni=1.0)
        with pytest.raises(ConfigError):
            AttackConfig(corpus=small_corpus, lambda_bi=1.0)
        with pytest.raises(ConfigError):
            AttackConfig(corpus=small_corpus, lambda_cons=1.0)

    def test_config_rejects_bad_ref_unigram(self, small_corpus):
        with pytest.raises(ConfigError):
            AttackConfig(
                corpus=small_corpus, lambda_uni=1.0, ref_unigram=np.full(6, 0.5)
            )

    def test_config_rejects_bad_bigram_row(self, small_corpus):
        with pytest.raises(ConfigError):
            AttackConfig(
                corpus=small_corpus, lambda_bi=1.0, ref_bigram={0: {1: 0.7, 2: 0.7}}
            )

    @pytest.mark.parametrize("bad", [np.nan, -0.5, np.inf, -np.inf])
    def test_config_rejects_non_distribution_refs(self, small_corpus, bad):
        # one rule for the unigram and every bigram row: NaN used to pass the
        # unigram check, and a bigram row was checked only for its sum
        unigram = np.array([bad, 0.5, 0.5, 0.0, 0.0, 0.0])
        with pytest.raises(ConfigError):
            AttackConfig(corpus=small_corpus, lambda_uni=1.0, ref_unigram=unigram)
        with pytest.raises(ConfigError):
            AttackConfig(corpus=small_corpus, lambda_bi=1.0, ref_bigram={0: {1: 1.5, 2: bad}})

    def test_config_rejects_vocab_mismatched_oracle(self, small_corpus, micro_model):
        with pytest.raises(ConfigError):
            AttackConfig(corpus=small_corpus, lambda_cons=1.0, oracle=GreedyOracle(micro_model))

    def test_perm_size_checked(self, small_corpus):
        cfg = AttackConfig(
            corpus=small_corpus, lambda_uni=1.0, ref_unigram=np.full(6, 1 / 6)
        )
        with pytest.raises(ShapeError):
            total_loss(perm_of(0, 1), cfg)


def _uni_cfg(corpus, ref, **kw) -> AttackConfig:
    return AttackConfig(corpus=corpus, lambda_uni=1.0, ref_unigram=ref, **kw)


class TestBruteForce:
    def test_recovers_planted_perm(self):
        # vocab 3, frequencies 3:2:1; reference says plaintext frequencies are
        # 1:2:3, so only the reversal map attains zero
        corpus = TranscriptCorpus(pairs=(((0, 0, 0), (1, 1, 2)),), vocab_size=3)
        ref = np.array([1 / 6, 2 / 6, 3 / 6])
        state = brute_force(_uni_cfg(corpus, ref))
        assert state.perm.map.tolist() == [2, 1, 0]
        assert state.loss == 0.0
        assert state.evals_used == 6
        assert state.terminated == "exhaustive"

    def test_trace_strictly_decreasing_and_lexicographic_ties(self):
        # uniform reference: every perm ties at loss 0, first enumerated wins
        corpus = TranscriptCorpus(pairs=(((0, 1), (2,)),), vocab_size=3)
        state = brute_force(_uni_cfg(corpus, np.full(3, 1 / 3)))
        assert state.perm.map.tolist() == [0, 1, 2]
        losses = [loss for _, loss in state.trace]
        assert losses == sorted(losses, reverse=True) and len(set(losses)) == len(losses)

    def test_budget_caps_the_enumeration(self):
        # 4! = 24 candidates: a budget of 10 scores the first 10 in
        # lexicographic order and keeps the first best of them
        corpus = TranscriptCorpus(pairs=(((0, 0, 0, 1), (1, 2, 3)),), vocab_size=4)
        cfg = _uni_cfg(corpus, np.array([0.1, 0.2, 0.3, 0.4]), budget=10)
        state = brute_force(cfg)
        assert state.evals_used == 10
        assert state.terminated == "budget_exhausted"
        first_ten = [perm_of(*cand) for cand in itertools.permutations(range(4))][:10]
        assert state.perm == min(first_ten, key=lambda perm: total_loss(perm, cfg)[0])
        full = brute_force(_uni_cfg(corpus, cfg.ref_unigram, budget=24))
        assert (full.evals_used, full.terminated) == (24, "exhaustive")

    def test_refuses_large_vocab(self):
        corpus = TranscriptCorpus(pairs=(((0,), (1,)),), vocab_size=12)
        with pytest.raises(RefusalError):
            brute_force(_uni_cfg(corpus, np.full(12, 1 / 12)))

    def test_consistency_recovers_true_perm(self, small_corpus, small_key, small_oracle):
        cfg = AttackConfig(corpus=small_corpus, lambda_cons=1.0, oracle=small_oracle)
        state = brute_force(cfg)
        assert state.loss == 0.0
        assert state.perm == small_key.vocab_perm.inverse()
        assert recovery_rate(state.perm, small_key.vocab_perm.inverse(), small_corpus) == 1.0


class TestRandomSampling:
    def test_evals_used_is_m(self, small_corpus):
        ref = empirical_unigram(small_corpus, perm_of(*range(6)))
        state = random_sampling(_uni_cfg(small_corpus, ref, seed=3), M=25)
        assert state.evals_used == 25
        assert state.terminated == "completed"
        assert state.trace and state.trace[0][0] == 1

    def test_prefix_property(self, small_corpus):
        ref = empirical_unigram(small_corpus, perm_of(*range(6)))
        short = random_sampling(_uni_cfg(small_corpus, ref, seed=3), M=5)
        long = random_sampling(_uni_cfg(small_corpus, ref, seed=3), M=40)
        assert short.trace == tuple(t for t in long.trace if t[0] <= 5)
        assert long.loss <= short.loss

    def test_never_worse_than_single_draw(self, small_corpus, small_oracle):
        ref = empirical_unigram(small_corpus, perm_of(*range(6)))
        cfg = AttackConfig(
            corpus=small_corpus,
            lambda_uni=1.0,
            lambda_cons=1.0,
            ref_unigram=ref,
            oracle=small_oracle,
            seed=12,
        )
        one = random_sampling(cfg, M=1)
        many = random_sampling(cfg, M=60)
        assert many.loss <= one.loss
        assert one.loss == pytest.approx(total_loss(one.perm, cfg)[0])

    def test_rejects_bad_m(self, small_corpus):
        ref = empirical_unigram(small_corpus, perm_of(*range(6)))
        with pytest.raises(ConfigError):
            random_sampling(_uni_cfg(small_corpus, ref), M=0)

    def test_blocks_equal_one_draw_at_a_time(self, vocab50_cfg):
        """Across two block boundaries, drawing and scoring a block at a time
        gives the state and the oracle memo of one permutation draw and one
        evaluation per candidate."""
        m = 2 * attack._SAMPLE_BLOCK + 3
        ours, theirs = (
            dataclasses.replace(vocab50_cfg, oracle=GreedyOracle(vocab50_cfg.oracle.model))
            for _ in range(2)
        )
        got = random_sampling(ours, m)
        search = attack._Search(theirs)
        rng = np.random.default_rng(theirs.seed)
        for _ in range(m):
            cand = rng.permutation(theirs.corpus.vocab_size).astype(np.int64)
            search.evaluate(cand, bound=search.loss)
        want = search.state("completed")
        _assert_same_state(got, want)
        assert got.evals_used == m
        assert sorted(ours.oracle._memo) == sorted(theirs.oracle._memo)

    @pytest.mark.parametrize(
        "weights", [w for w in itertools.product((0.0, 1.0), (0.0, 0.5), (0.0, 1.0)) if any(w)]
    )
    def test_bound_decided_draws_are_counted_without_a_call(
        self, small_model, small_key, small_corpus, weights
    ):
        """Counting the rows whose weighted unigram term reaches the best so
        far without an evaluate call gives the state and the oracle memo of
        one call per row, for every weighting. On vocab 6 the draws reach a
        loss of 0, after which rows are counted with the unigram term off
        too."""
        m = attack._SAMPLE_BLOCK + 977
        truth = small_key.vocab_perm.inverse()
        lambda_uni, lambda_bi, lambda_cons = weights
        ours, theirs = (
            AttackConfig(
                corpus=small_corpus, lambda_uni=lambda_uni, lambda_bi=lambda_bi,
                lambda_cons=lambda_cons, ref_unigram=empirical_unigram(small_corpus, truth),
                ref_bigram=empirical_bigram(small_corpus, truth),
                oracle=GreedyOracle(small_model), seed=2,
            )
            for _ in range(2)
        )
        calls = 0
        real = attack._Search.evaluate

        def counted(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return real(self, *args, **kwargs)

        with patch.object(attack._Search, "evaluate", counted):
            got = random_sampling(ours, m)
        search = attack._Search(theirs)
        rng = np.random.default_rng(theirs.seed)
        for _ in range(m):
            cand = rng.permutation(theirs.corpus.vocab_size).astype(np.int64)
            search.evaluate(cand, bound=search.loss, unigram=search.unigrams(cand[None])[0])
        want = search.state("completed")
        _assert_same_state(got, want)
        assert got.evals_used == m
        assert sorted(ours.oracle._memo) == sorted(theirs.oracle._memo)
        # the best reached 0 within the draws, and later draws were counted
        assert want.loss == 0.0 and want.trace[-1][0] < m
        assert calls < m


def _assert_same_state(got, want):
    """Every AttackState field equal, the losses to the bit."""
    assert got.perm.map.tolist() == want.perm.map.tolist()
    assert got.loss.hex() == want.loss.hex()
    assert {k: x.hex() for k, x in got.component_breakdown.items()} == {
        k: x.hex() for k, x in want.component_breakdown.items()
    }
    assert (got.evals_used, got.trace, got.terminated) == (
        want.evals_used, want.trace, want.terminated
    )


# first seed whose restart-0 draw is small_key's true map [2, 5, 4, 3, 0, 1],
# found by search
SEED_FOR_TRUTH = 578


class TestHillClimb:
    def test_certifies_zero_loss_from_true_start(self, small_corpus, small_key, small_oracle):
        truth = small_key.vocab_perm.inverse()
        cfg = AttackConfig(
            corpus=small_corpus, lambda_cons=1.0, oracle=small_oracle,
            seed=SEED_FOR_TRUTH, budget=500,
        )
        state = hill_climb(cfg, restarts=1)
        assert state.loss == 0.0
        assert state.evals_used == 1
        assert state.terminated == "certified"
        assert state.perm == truth

    def test_trace_strictly_decreasing(self, small_corpus, small_oracle):
        ref = empirical_unigram(small_corpus, perm_of(*range(6)))
        cfg = AttackConfig(
            corpus=small_corpus,
            lambda_uni=1.0,
            lambda_cons=1.0,
            ref_unigram=ref,
            oracle=small_oracle,
            seed=4,
            budget=300,
        )
        state = hill_climb(cfg, restarts=3)
        losses = [loss for _, loss in state.trace]
        evals = [i for i, _ in state.trace]
        assert losses == sorted(losses, reverse=True) and len(set(losses)) == len(losses)
        assert evals == sorted(evals) and len(set(evals)) == len(evals)
        assert state.evals_used <= cfg.budget
        assert state.terminated in ("certified", "budget_exhausted")
        assert state.loss == pytest.approx(total_loss(state.perm, cfg)[0])

    def test_certifies_local_optimum_with_ample_budget(self, small_corpus):
        ref = empirical_unigram(small_corpus, perm_of(*range(6)))
        cfg = _uni_cfg(small_corpus, ref, seed=8, budget=100_000)
        state = hill_climb(cfg, restarts=2)
        assert state.terminated == "certified"
        # certified states cannot be improved by any single transposition
        base = state.perm.map
        for i in range(6):
            for j in range(i + 1, 6):
                cand = base.copy()
                cand[i], cand[j] = cand[j], cand[i]
                assert total_loss(PermTable(cand), cfg)[0] >= state.loss

    def test_budget_exhaustion(self, small_corpus, small_oracle):
        cfg = AttackConfig(
            corpus=small_corpus, lambda_cons=1.0, oracle=small_oracle, seed=1, budget=4
        )
        state = hill_climb(cfg, restarts=2)
        assert state.evals_used <= 4

    def test_deterministic(self, small_corpus, small_oracle):
        ref = empirical_unigram(small_corpus, perm_of(*range(6)))
        cfg = AttackConfig(
            corpus=small_corpus,
            lambda_uni=1.0,
            lambda_cons=2.0,
            ref_unigram=ref,
            oracle=small_oracle,
            seed=21,
            budget=400,
        )
        a = hill_climb(cfg, restarts=3)
        b = hill_climb(cfg, restarts=3)
        assert a.perm == b.perm and a.loss == b.loss and a.trace == b.trace

    def test_beats_random_sampling_at_same_budget(self, small_model, small_key):
        corpus = generate_corpus(small_model, small_key, 25, 3, 2, seed=31)
        truth = small_key.vocab_perm.inverse()
        ref = empirical_unigram(corpus, truth)
        cfg = AttackConfig(
            corpus=corpus,
            lambda_uni=1.0,
            lambda_cons=1.0,
            ref_unigram=ref,
            oracle=GreedyOracle(small_model),
            seed=2,
            budget=600,
        )
        hill = hill_climb(cfg, restarts=3)
        rand = random_sampling(cfg, M=cfg.budget)
        assert hill.loss <= rand.loss

    def test_rejects_bad_restarts(self, small_corpus):
        ref = empirical_unigram(small_corpus, perm_of(*range(6)))
        with pytest.raises(ConfigError):
            hill_climb(_uni_cfg(small_corpus, ref), restarts=0)


@functools.cache
def _oracle(vocab_size: int) -> GreedyOracle:
    return GreedyOracle(init_model(make_config(vocab_size, 8, 1, 1, 16, 16), seed=vocab_size))


@st.composite
def swap_landscapes(draw):
    """A small random corpus over vocab v, some of its pairs consistent under
    a drawn true map, with drawn loss weights; a start map; a swap; a bound."""
    v = draw(st.integers(2, 6))
    oracle = _oracle(v)
    truth = np.asarray(draw(st.permutations(range(v))), dtype=np.int64)
    encrypt = np.argsort(truth)
    tokens = st.integers(0, v - 1)
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        pi = draw(st.lists(tokens, min_size=1, max_size=3))
        n_new = draw(st.integers(1, 2))
        if draw(st.booleans()):
            # the ciphertext of the oracle's own continuation under truth
            [replay] = oracle.continuations([(truth[pi], n_new)])
            po = [int(encrypt[t]) for t in replay]
        else:
            po = draw(st.lists(tokens, min_size=n_new, max_size=n_new))
        pairs.append((tuple(pi), tuple(po)))
    corpus = TranscriptCorpus(pairs=tuple(pairs), vocab_size=v)
    cfg = AttackConfig(
        corpus=corpus,
        lambda_uni=draw(st.sampled_from([0.0, 1.0])),
        lambda_bi=draw(st.sampled_from([0.0, 0.5])),
        lambda_cons=draw(st.sampled_from([0.5, 1.0, 3.0])),
        ref_unigram=empirical_unigram(corpus, PermTable(truth)),
        ref_bigram=empirical_bigram(corpus, PermTable(truth)),
        oracle=oracle,
        seed=draw(st.integers(0, 100)),
        budget=60,
    )
    start = np.asarray(draw(st.permutations(range(v))), dtype=np.int64)
    i, j = draw(st.lists(tokens, min_size=2, max_size=2, unique=True))
    bound = draw(st.none() | st.floats(0.0, 4.0))
    return cfg, start, (i, j), bound


def _assert_swap_matches_full(cfg, cand, bound, flags, got):
    """A swap evaluation of ``cand`` from an incumbent with ``flags`` agrees
    with a full evaluation of ``cand`` on a search of its own."""
    value, breakdown, changed = got
    full, full_breakdown, full_flags = attack._Search(cfg).evaluate(cand)
    if breakdown is not None:
        assert value.hex() == full.hex()
        assert {k: x.hex() for k, x in breakdown.items()} == {
            k: x.hex() for k, x in full_breakdown.items()
        }
        assert {**flags, **changed} == full_flags
    else:
        assert full >= bound


class TestSwapEvaluation:
    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(case=swap_landscapes())
    def test_swap_evaluation_equals_full_evaluation(self, case):
        cfg, start, (i, j), bound = case
        search = attack._Search(cfg)
        _, _, flags = search.evaluate(start)
        cand = start.copy()
        cand[i], cand[j] = cand[j], cand[i]
        got = search.evaluate(cand, bound, (i, j, flags, sum(flags.values())))
        _assert_swap_matches_full(cfg, cand, bound, flags, got)

        # every swap evaluation of a hill climb from the start map, so after
        # each accept, is checked the same way against its incumbent's flags
        real = attack._Search.evaluate

        def checked(self, perm_map, bound=None, swap=None, unigram=None):
            got = real(self, perm_map, bound, swap, unigram)
            if swap is not None:
                # the count kept next to the flags is theirs after every accept
                assert swap[3] == sum(swap[2].values())
                _assert_swap_matches_full(self.cfg, perm_map, bound, swap[2], got)
            return got

        with patch.object(attack._Search, "evaluate", checked):
            hill_climb(cfg, restarts=2)

    def test_swaps_consult_the_oracle_for_few_pairs(self, vocab50_cfg):
        lookups = 0
        real_continuations, real_known = GreedyOracle.continuations, GreedyOracle.known

        def counted_continuations(self, requests):
            nonlocal lookups
            lookups += len(requests)
            return real_continuations(self, requests)

        def counted_known(self, ids, n_new):
            nonlocal lookups
            lookups += 1
            return real_known(self, ids, n_new)

        with patch.object(GreedyOracle, "continuations", counted_continuations), patch.object(
            GreedyOracle, "known", counted_known
        ):
            state = hill_climb(vocab50_cfg, restarts=5)
        # a swap touches about 1.4 of the 30 pairs; re-checking every pair up
        # to the give-up costs about 23 lookups an evaluation. Memo probes and
        # decode requests both count
        assert lookups < 4 * state.evals_used


def _index_order_evaluation(cfg, perm_map, bound, swap):
    """The reference for _Search.evaluate: the pairs to re-check are checked
    one at a time in index order, giving up before a pair once the running
    lower bound reaches the bound. Returns (value, breakdown, flags, the memo
    keys it decoded); breakdown and flags are None after a give-up."""
    search = attack._Search(cfg)
    total, breakdown = 0.0, {}
    if cfg.lambda_uni > 0:
        breakdown["unigram"] = unigram_reference(search._enc_freq, perm_map, cfg.ref_unigram)
        total += cfg.lambda_uni * breakdown["unigram"]
    if cfg.lambda_bi > 0:
        breakdown["bigram"] = attack._bigram_l1(search._bigrams, perm_map, cfg.ref_bigram)
        total += cfg.lambda_bi * breakdown["bigram"]
    pairs, oracle = cfg.corpus.pairs, cfg.oracle
    if swap is None:
        check, count = range(len(pairs)), 0
    else:
        i, j, incumbent, _ = swap
        check = [k for k, (pi, po) in enumerate(pairs) if {i, j} & set(pi + po)]
        count = sum(bad for k, bad in incumbent.items() if k not in check)
    before = set(oracle._memo)
    if bound is not None and total >= bound:
        return total, None, None, set()
    flags = {}
    for k in check:
        lower = total + cfg.lambda_cons * (count / len(pairs))
        if bound is not None and lower >= bound:
            return lower, None, None, set(oracle._memo) - before
        pi, po = pairs[k]
        [replay] = oracle.continuations([(perm_map[list(pi)], len(po))])
        flags[k] = bad = replay.tolist() != perm_map[list(po)].tolist()
        count += bad
    breakdown["consistency"] = count / len(pairs)
    total += cfg.lambda_cons * breakdown["consistency"]
    return total, breakdown, flags, set(oracle._memo) - before


class TestEvaluationOrder:
    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(
        case=swap_landscapes(),
        warm=st.lists(st.booleans(), min_size=8, max_size=8),
        use_swap=st.booleans(),
        bound_at_loss=st.booleans(),
    )
    def test_memo_hits_first_agrees_with_index_order(self, case, warm, use_swap, bound_at_loss):
        """Scoring the memo hits before decoding any miss changes no complete
        result, and decodes a subset of the index order's prompts."""
        cfg, start, (i, j), bound = case
        model = cfg.oracle.model
        cand = start.copy()
        cand[i], cand[j] = cand[j], cand[i]
        # full evaluations on an oracle of their own, so that the compared
        # memos hold only the warmed prompts
        cold = dataclasses.replace(cfg, oracle=GreedyOracle(model))
        if bound_at_loss:
            # the candidate's own loss as the bound: both orders give up as
            # soon as the last mismatch is counted, each at its own point
            bound = attack._Search(cold).evaluate(cand)[0]
        swap = None
        if use_swap:
            flags = attack._Search(cold).evaluate(start)[2]
            swap = (i, j, flags, sum(flags.values()))
        # the same random subset of the candidate's prompts is memoized on
        # both sides before the evaluation
        prompts = [(cand[list(pi)], len(po)) for (pi, po), w in zip(cfg.corpus.pairs, warm) if w]
        ours, theirs = (dataclasses.replace(cfg, oracle=GreedyOracle(model)) for _ in range(2))
        for side in (ours, theirs):
            side.oracle.continuations(prompts)
        warmed = set(ours.oracle._memo)
        value, breakdown, flags = attack._Search(ours).evaluate(cand, bound, swap)
        decoded = set(ours.oracle._memo) - warmed
        want, want_breakdown, want_flags, want_decoded = _index_order_evaluation(
            theirs, cand, bound, swap
        )
        if breakdown is not None and want_breakdown is not None:
            assert value.hex() == want.hex()
            assert {k: x.hex() for k, x in breakdown.items()} == {
                k: x.hex() for k, x in want_breakdown.items()
            }
            assert flags == want_flags
        elif breakdown is not None:
            assert value >= bound
        elif want_breakdown is not None:
            assert want >= bound
        assert decoded <= want_decoded

    def test_unequal_pair_lengths_agree_with_index_order(self):
        """On pairs whose inputs and outputs differ in length, from each other
        and from pair to pair, full and swap evaluations read each pair's own
        ids: they agree with the index-order reference, with and without a
        bound."""
        v, rng = 6, np.random.default_rng(23)
        oracle = _oracle(v)
        truth = rng.permutation(v)
        encrypt = np.argsort(truth)
        pairs = []
        for k, (n_in, n_new) in enumerate([(1, 3), (4, 1), (2, 2), (3, 1), (1, 1), (4, 3), (2, 3)]):
            pi = rng.integers(0, v, n_in)
            if k % 2:
                po = rng.integers(0, v, n_new)
            else:
                [replay] = oracle.continuations([(truth[pi], n_new)])
                po = encrypt[replay]
            pairs.append((tuple(pi.tolist()), tuple(po.tolist())))
        corpus = TranscriptCorpus(pairs=tuple(pairs), vocab_size=v)
        cfg = AttackConfig(corpus=corpus, lambda_cons=1.0, oracle=oracle)
        full_losses = set()
        for _ in range(30):
            start = rng.permutation(v).astype(np.int64)
            i, j = rng.choice(v, 2, replace=False).tolist()
            cand = start.copy()
            cand[i], cand[j] = cand[j], cand[i]
            flags = _index_order_evaluation(cfg, start, None, None)[2]
            # every prompt of the candidate a memo hit, or every one a miss
            for swap, bound, warm in itertools.product(
                (None, (i, j, flags, sum(flags.values()))), (None, 0.5), (False, True)
            ):
                ours, theirs = (
                    dataclasses.replace(cfg, oracle=GreedyOracle(oracle.model)) for _ in range(2)
                )
                if warm:
                    ours.oracle.continuations([(cand[list(pi)], len(po)) for pi, po in pairs])
                before = set(ours.oracle._memo)
                value, breakdown, got_flags = attack._Search(ours).evaluate(cand, bound, swap)
                want, want_breakdown, want_flags, decoded = _index_order_evaluation(
                    theirs, cand, bound, swap
                )
                if breakdown is not None and want_breakdown is not None:
                    assert value.hex() == want.hex()
                    assert breakdown == want_breakdown and got_flags == want_flags
                    full_losses.add(value)
                elif breakdown is not None:
                    assert value >= bound
                elif want_breakdown is not None:
                    assert want >= bound
                assert set(ours.oracle._memo) - before <= decoded
        # both consistent and inconsistent pairs were scored
        assert len(full_losses) > 2


# after each vocab-50 search on a fresh oracle: the number of memo keys and
# the sha256 of repr(sorted(keys)), recorded once memo hits were scored
# before any miss was decoded
ORACLE_MEMO_AFTER = {
    "random_sampling": (823, "e081061de6e753725d63513c913ae8178614d6a518dc36f8a4d847f917e50a80"),
    "hill_climb": (1078, "cfd3f086cf049147fc0eb5e89c356ac2431dd67eb63f27d60afec728bddcb015"),
}

# the memo keys of the same searches when evaluations checked their pairs in
# index order, as a base64 np.packbits of a 50 x 50 bit map: bit (a, b) is
# set when the 2-token prompt [a, b] was decoded with n_new 1
ORACLE_MEMO_INDEX_ORDER = {
    "random_sampling": (
        "4sAiQCxL2OJTSEZ0ggBWt8GGSESe0RJrSCG4uZjncwwiQSUPQEfDCBAjX6HGa6osjJBp6EKajezTHsIPJWsagi"
        "YBQAGoddAApEzYkYnsipymNrGsEhCMRUoQJJXVfyYirEIApVwcybDZgMd21BKKU4a7al+AgABgDXM2KQCIlDMT"
        "JRSXgTXDw4BMtHpxhNvwARE1CIYx0I0ZqQaIVgEHcwki5RjGAiDLEEO3wGQR/wZGlAkFAzezlIsD8UABkzwlAm"
        "HIjp6lACFRi/kPiZl8//m77/18bSRgY+0MEL15GEPwpQH5F0gKV+zNIh3WUGscQhhPahFGhVh2GqBHHlcf4gFb"
        "It++Qb2IcGjCQ+rVxivse2g4QbBsAQ58+eK0q9sfRIdAcJksgCSRYcBtSCg6BFdwobEkIyV/EA=="
    ),
    "hill_climb": (
        "v/f///9//8PSJbbbmUgkAHDVT/P93vv384gDABYERveg0SU32bngJEgldkcpiTtvf/scp0ASAUSAAIAFAJgYED"
        "SJATdsIEkSUB2BGQJAEBFEYgDBIAVTv/rW/33//GgZAhldiRACRIRTYmqI1CUE27MAJhEkNEBgGkBABZEQA1iO"
        "EURv/f//7//1jDRMbVZsQAkQWAUQ+4puV7/f9+3/5Pn5kQAkACB2Qv6LS/vb/4gCABZDYm6AkAAV3ZxAOEBtFm"
        "agGhAPNYEaA0CEB2Z7bf7tP/4YiAQJKSYH7A0bWjz7/z/Gn9/+74HRIYRfuKggQHFSb3i/Q39f+84CRJNf/uPg"
        "wAU3279oNEhN1u4wCQJbXfP/d8/X/v/n/f/n9/398vwF/XfO4AEQURUF////////wUvwNbX/cA=="
    ),
}


def _bitmap_keys(packed: str) -> set[tuple[bytes, int]]:
    bits = np.unpackbits(np.frombuffer(base64.b64decode(packed), dtype=np.uint8), count=2500)
    rows, cols = np.nonzero(bits.reshape(50, 50))
    return {(np.asarray([a, b], dtype=np.int64).tobytes(), 1) for a, b in zip(rows, cols)}


@pytest.mark.parametrize("search", sorted(ORACLE_MEMO_AFTER))
def test_oracle_decodes_a_subset_of_the_prompts_in_fewer_calls(vocab50_cfg, search):
    cfg = dataclasses.replace(vocab50_cfg, oracle=GreedyOracle(vocab50_cfg.oracle.model))
    calls = 0
    real = attack.greedy_decode

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    with patch.object(attack, "greedy_decode", counted):
        if search == "random_sampling":
            random_sampling(cfg, cfg.budget)
        else:
            hill_climb(cfg, restarts=5)
    keys = sorted(cfg.oracle._memo)
    n_keys, digest = ORACLE_MEMO_AFTER[search]
    assert (len(keys), hashlib.sha256(repr(keys).encode()).hexdigest()) == (n_keys, digest)
    assert set(keys) < _bitmap_keys(ORACLE_MEMO_INDEX_ORDER[search])
    assert calls < n_keys


# (perm map, loss, breakdown, evals_used, trace, terminated); the small-corpus
# entries were computed before the searches shared one best-so-far tracker, the
# vocab-50 one before swaps re-checked only the pairs they touch
GOLDEN_SEARCHES = {
    "random_sampling": (
        [5, 4, 0, 3, 2, 1],
        0.6751804009892245,
        {"unigram": 0.14666666666666667, "bigram": 0.5236941353117823,
         "consistency": 0.26666666666666666},
        40,
        ((1, 1.917939557204263), (2, 1.7804014308426073), (3, 1.7298853449037273),
         (6, 1.6088382132132133), (11, 0.693755189012542), (17, 0.6751804009892245)),
        "completed",
    ),
    "hill_climb": (
        [2, 5, 4, 3, 0, 1],
        0.4368386217099453,
        {"unigram": 0.1866666666666667, "bigram": 0.5003439100865572, "consistency": 0.0},
        94,
        ((1, 1.6648778373962196), (4, 1.5563888336866278), (6, 0.5973079513336866),
         (9, 0.4368386217099453)),
        "certified",
    ),
    # the vocab-50 landscape of scripts/run_attacks.py at budget 3000
    "hill_climb_vocab50": (
        [37, 1, 35, 5, 23, 11, 15, 6, 42, 48, 3, 44, 45, 9, 17, 14, 0, 16, 24, 12, 41, 49, 34, 19,
         21, 10, 46, 40, 47, 33, 31, 39, 25, 8, 2, 22, 13, 43, 27, 20, 4, 30, 32, 29, 28, 36, 7,
         26, 38, 18],
        0.25555555555555554,
        {"unigram": 0.0888888888888889, "consistency": 0.16666666666666666},
        3000,
        (
            (1, 2.2888888888888888), (7, 2.2444444444444445), (8, 2.2222222222222223), (16, 2.2),
            (17, 2.155555555555556), (33, 2.1333333333333337), (55, 2.022222222222222), (59, 2.0),
            (63, 1.9777777777777779), (73, 1.9555555555555557), (80, 1.9333333333333333),
            (81, 1.9333333333333331), (82, 1.911111111111111), (83, 1.8888888888888888),
            (98, 1.8666666666666667), (112, 1.8444444444444446), (124, 1.8),
            (125, 1.7999999999999998), (141, 1.7777777777777777), (145, 1.7333333333333334),
            (174, 1.6333333333333333), (234, 1.6111111111111112), (351, 1.588888888888889),
            (406, 1.5666666666666667), (457, 1.5444444444444445), (464, 1.4777777777777779),
            (617, 1.4555555555555557), (631, 1.4555555555555555), (724, 1.4333333333333331),
            (756, 1.411111111111111), (817, 1.3777777777777778), (1022, 1.3555555555555556),
            (1242, 0.5), (1251, 0.4888888888888889), (1253, 0.4888888888888888),
            (1255, 0.4555555555555555), (1296, 0.4444444444444444), (1394, 0.43333333333333335),
            (1442, 0.4111111111111111), (1577, 0.3888888888888889), (1583, 0.3),
            (1621, 0.2777777777777778), (2552, 0.25555555555555554),
        ),
        "budget_exhausted",
    ),
}


@pytest.mark.parametrize("search", sorted(GOLDEN_SEARCHES))
def test_golden_search_results(
    small_model, small_key, small_corpus, small_oracle, vocab50_cfg, search
):
    if search == "hill_climb_vocab50":
        state = hill_climb(vocab50_cfg, restarts=5)
    else:
        # references from another corpus, so no candidate scores 0
        other = generate_corpus(small_model, small_key, n_pairs=30, prompt_len=3, n_new=2, seed=6)
        truth = small_key.vocab_perm.inverse()
        cfg = AttackConfig(
            corpus=small_corpus, lambda_uni=1.0, lambda_bi=0.5, lambda_cons=1.0,
            ref_unigram=empirical_unigram(other, truth), ref_bigram=empirical_bigram(other, truth),
            oracle=small_oracle, seed=4, budget=120,
        )
        state = random_sampling(cfg, 40) if search == "random_sampling" else hill_climb(cfg, 3)
    got = (state.perm.map.tolist(), state.loss, dict(state.component_breakdown),
           state.evals_used, state.trace, state.terminated)
    assert got == GOLDEN_SEARCHES[search]


class TestRecoveryAndResults:
    def test_recovery_rate_hand_case(self):
        corpus = TranscriptCorpus(pairs=(((0, 0, 1), (2,)),), vocab_size=3)
        truth = perm_of(1, 2, 0)
        agrees_on_zero_only = perm_of(1, 0, 2)
        # token 0 appears twice out of four corpus tokens
        assert recovery_rate(agrees_on_zero_only, truth, corpus) == pytest.approx(0.5)
        assert recovery_rate(truth, truth, corpus) == 1.0

    def test_save_attack_result(self, tmp_path, small_corpus):
        ref = empirical_unigram(small_corpus, perm_of(*range(6)))
        cfg = _uni_cfg(small_corpus, ref, seed=3, budget=50)
        state = hill_climb(cfg, restarts=1)
        path = tmp_path / "attack.json"
        save_attack_result(state, cfg, path)
        doc = json.loads(path.read_text())
        assert doc["perm_map"] == state.perm.map.tolist()
        assert doc["loss"] == state.loss
        assert doc["budget"] == 50 and doc["seed"] == 3
        assert doc["terminated"] == state.terminated
        assert doc["weights"]["lambda_uni"] == 1.0
        assert [tuple(t) for t in doc["trace"]] == list(state.trace)

    @settings(deadline=None, derandomize=True, max_examples=25)
    @given(seed=st.integers(0, 10_000))
    def test_recovery_rate_bounds(self, small_corpus, seed):
        rng = np.random.default_rng(seed)
        a = PermTable(rng.permutation(6))
        b = PermTable(rng.permutation(6))
        value = recovery_rate(a, b, small_corpus)
        assert 0.0 <= value <= 1.0
        assert recovery_rate(a, a, small_corpus) == 1.0

    @settings(deadline=None, derandomize=True, max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_losses_invariant_to_relabeling_conjugation(self, small_corpus, seed):
        # decrypting relabeled ciphertext with the composed map matches the
        # original decryption, so the loss is unchanged
        rng = np.random.default_rng(seed)
        relabel = PermTable(rng.permutation(6))
        cand = PermTable(rng.permutation(6))
        ref = empirical_unigram(small_corpus, perm_of(*range(6)))
        relabeled = TranscriptCorpus(
            pairs=tuple(
                (
                    tuple(int(relabel.map[t]) for t in pi),
                    tuple(int(relabel.map[t]) for t in po),
                )
                for pi, po in small_corpus.pairs
            ),
            vocab_size=6,
        )
        composed = PermTable(cand.map[relabel.inv_map])
        assert unigram_loss(composed, relabeled, ref) == pytest.approx(
            unigram_loss(cand, small_corpus, ref)
        )
