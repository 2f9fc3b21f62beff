"""Tests for the sharded ciphertext pipeline simulator."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
import warnings
import zlib
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eeinfer.encryption import encrypt_model, encrypt_tokens, keygen
from eeinfer.errors import (
    ConfigError,
    DomainError,
    FormatError,
    IntegrityError,
    PipelineError,
    RangeError,
    ShapeError,
    VersionError,
)
from eeinfer.model import (
    CIPHERTEXT,
    PLAINTEXT,
    KVCache,
    TokenSeq,
    apply_layer_range,
    embed_positions,
    greedy_decode,
    init_model,
    make_config,
)
from eeinfer.shard_sim import (
    FRAME_MAGIC,
    FRAME_VERSION,
    ActivationFrame,
    AuditResult,
    BrokerConfig,
    InProcessTransport,
    PlaintextContext,
    ShardPlan,
    Transcript,
    _payload_hash,
    audit_blindness,
    decode_frame,
    encode_frame,
    plan_shards,
    run_pipeline,
    save_transcript,
)


class Recording:
    """A caller-supplied binding: a FIFO that keeps every message."""

    def __init__(self):
        self.queue = deque()
        self.sent = []

    def send(self, data):
        self.sent.append(data)
        self.queue.append(data)

    def recv(self):
        return self.queue.popleft()


@pytest.fixture(scope="module")
def deep_model():
    # 4 layers so the pipeline can split into 4 shards
    return init_model(make_config(32, 16, 4, 2, 32, 16), seed=21)


@pytest.fixture(scope="module")
def deep_key(deep_model):
    return keygen(deep_model.config, seed=55)


@pytest.fixture(scope="module")
def deep_enc(deep_model, deep_key):
    return encrypt_model(deep_key, deep_model)


@pytest.fixture(scope="module")
def enc_prompt(deep_key):
    return encrypt_tokens(deep_key, TokenSeq((3, 14, 15, 9, 2, 6), PLAINTEXT))


class TestPlanning:
    def test_single_shard(self, deep_model):
        plan = plan_shards(deep_model.config, 1)
        assert plan.ranges == ((0, 3),)

    def test_even_split(self, deep_model):
        plan = plan_shards(deep_model.config, 2)
        assert plan.ranges == ((0, 1), (2, 3))

    def test_remainder_goes_first(self):
        config = make_config(16, 8, 5, 1, 16, 8)
        assert plan_shards(config, 2).ranges == ((0, 2), (3, 4))

    def test_bounds(self, deep_model):
        with pytest.raises(ConfigError):
            plan_shards(deep_model.config, 0)
        with pytest.raises(ConfigError):
            plan_shards(deep_model.config, 5)

    def test_plan_validation(self):
        with pytest.raises(ConfigError):
            ShardPlan(ranges=((0, 1), (3, 4)))


class TestFrames:
    def frame(self, seed=0, rows=5, cols=8):
        rng = np.random.default_rng(seed)
        return ActivationFrame(
            request_id=7, shard_index=2, payload=rng.normal(size=(rows, cols))
        )

    def test_round_trip(self):
        frame = self.frame()
        again = decode_frame(encode_frame(frame))
        assert encode_frame(again) == encode_frame(frame)
        assert again.payload.tobytes() == frame.payload.tobytes()

    def test_flipped_payload_byte_detected(self):
        blob = bytearray(encode_frame(self.frame()))
        blob[40] ^= 0x01
        with pytest.raises(IntegrityError):
            decode_frame(bytes(blob))

    def test_flipped_header_byte_detected(self):
        blob = bytearray(encode_frame(self.frame()))
        blob[6] ^= 0x01  # request_id byte
        with pytest.raises(IntegrityError):
            decode_frame(bytes(blob))

    def test_truncation(self):
        blob = encode_frame(self.frame())
        with pytest.raises(FormatError):
            decode_frame(blob[:10])
        with pytest.raises(FormatError):
            decode_frame(blob[:-3])

    def test_trailing_bytes(self):
        with pytest.raises(FormatError):
            decode_frame(encode_frame(self.frame()) + b"xx")

    def test_bad_magic(self):
        blob = bytearray(encode_frame(self.frame()))
        blob[0] = ord("X")
        with pytest.raises(FormatError):
            decode_frame(bytes(blob))

    def test_version_gate(self):
        blob = bytearray(encode_frame(self.frame()))
        blob[4] = 9
        with pytest.raises(VersionError):
            decode_frame(bytes(blob))

    def test_version_1_frame_rejected(self):
        # version 1 frames carried every position; a version 2 receiver
        # would read them as new rows
        assert FRAME_VERSION == 2
        body = struct.pack("<4sBQHII", b"EEFR", 1, 7, 2, 1, 3) + struct.pack("<3d", 1.0, 2.0, 3.0)
        with pytest.raises(VersionError):
            decode_frame(body + struct.pack("<I", zlib.crc32(body)))

    def test_zero_length_payload_declared(self):
        import struct as _struct

        header = _struct.pack("<4sBQHII", b"EEFR", 1, 0, 0, 0, 8)
        blob = header + _struct.pack("<I", __import__("zlib").crc32(header))
        with pytest.raises(FormatError):
            decode_frame(blob)

    def test_frame_validation(self):
        with pytest.raises(ShapeError):
            ActivationFrame(request_id=0, shard_index=0, payload=np.zeros(3))
        with pytest.raises(RangeError):
            ActivationFrame(request_id=-1, shard_index=0, payload=np.zeros((1, 1)))
        with pytest.raises(RangeError):
            ActivationFrame(request_id=0, shard_index=70000, payload=np.zeros((1, 1)))
        # integers only: a float died in encode_frame, a bool encoded as 1
        for request_id, shard_index in ((1.5, 0), (True, 0), (0, 1.0), (0, True)):
            with pytest.raises(RangeError):
                ActivationFrame(request_id, shard_index, np.zeros((1, 1)))
        frame = ActivationFrame(np.uint64(2**64 - 1), np.int16(3), np.zeros((1, 1)))
        assert decode_frame(encode_frame(frame)).request_id == 2**64 - 1

    def test_decoded_frame_sets_every_field(self):
        # decode_frame skips __post_init__, so a field added to the class
        # must be set by ActivationFrame._from_wire as well
        frame = ActivationFrame(request_id=5, shard_index=1, payload=np.ones((2, 3)))
        again = decode_frame(encode_frame(frame))
        assert set(vars(again)) == {f.name for f in dataclasses.fields(ActivationFrame)}
        assert type(again) is ActivationFrame

    def test_payload_is_an_owned_read_only_copy(self):
        # built on the sending side from a view, and parsed from a buffer the
        # receiver may reuse: neither frame shares memory with its source
        rows = np.arange(24.0).reshape(4, 6)
        frame = ActivationFrame(request_id=7, shard_index=2, payload=rows[1:3, ::2])
        blob = bytearray(encode_frame(frame))
        again = decode_frame(blob)
        expected = rows[1:3, ::2].copy()
        rows[:] = -1.0
        blob[24:-4] = bytes(len(blob) - 28)
        for f in (frame, again):
            p = f.payload
            assert p.dtype == np.float64 and p.flags.c_contiguous and p.flags.aligned
            assert p.flags.owndata and not p.flags.writeable
            assert p.tobytes() == expected.tobytes()
        assert (again.request_id, again.shard_index, again.seq_len, again.d_model) == (7, 2, 2, 3)

    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
    )
    def test_round_trip_property(self, seed, rows, cols):
        frame = self.frame(seed=seed, rows=rows, cols=cols)
        assert encode_frame(decode_frame(encode_frame(frame))) == encode_frame(frame)


class TestTransports:
    def test_in_process_fifo(self):
        t = InProcessTransport()
        t.send(b"one")
        t.send(b"two")
        assert t.recv() == b"one"
        assert t.recv() == b"two"
        with pytest.raises(PipelineError):
            t.recv()


class TestPipeline:
    def test_single_shard_equals_monolithic(self, deep_enc, enc_prompt):
        plan = plan_shards(deep_enc.config, 1)
        out, transcript = run_pipeline(deep_enc, plan, BrokerConfig(seed=1), enc_prompt, 6)
        mono = greedy_decode(deep_enc, enc_prompt, 6)
        assert out == mono
        assert len(transcript) == 6 * 2  # tokens_in + token_out per round

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_multi_shard_equals_monolithic(self, deep_enc, enc_prompt, n_shards):
        plan = plan_shards(deep_enc.config, n_shards)
        broker = BrokerConfig(seed=3, latency_lo=0.001, latency_hi=0.02)
        out, transcript = run_pipeline(deep_enc, plan, broker, enc_prompt, 6)
        assert out == greedy_decode(deep_enc, enc_prompt, 6)
        per_round = 2 + (n_shards - 1)
        assert len(transcript) == 6 * per_round

    def test_replay_reproduces_transcript(self, deep_enc, enc_prompt):
        plan = plan_shards(deep_enc.config, 3)
        broker = BrokerConfig(seed=9, latency_lo=0.001, latency_hi=0.05)
        out1, t1 = run_pipeline(deep_enc, plan, broker, enc_prompt, 5)
        out2, t2 = run_pipeline(deep_enc, plan, broker, enc_prompt, 5)
        assert out1 == out2
        assert t1.entries == t2.entries
        assert t1.hash() == t2.hash()
        different = run_pipeline(
            deep_enc, plan, BrokerConfig(seed=10, latency_lo=0.001, latency_hi=0.05),
            enc_prompt, 5,
        )[1]
        assert different.hash() != t1.hash()

    def test_socket_binding_matches_in_process(self, deep_enc, enc_prompt):
        # any object with send/recv can carry the pipeline's messages
        plan = plan_shards(deep_enc.config, 2)
        broker = BrokerConfig(seed=4, latency_lo=0.001, latency_hi=0.01)
        out_q, t_q = run_pipeline(deep_enc, plan, broker, enc_prompt, 4)
        rec = Recording()
        out_r, t_r = run_pipeline(deep_enc, plan, broker, enc_prompt, 4, transport=rec)
        assert out_r == out_q
        assert t_r.hash() == t_q.hash()
        # per token: token ids in, one frame between the two shards, token out
        assert len(rec.sent) == 4 * 3 and not rec.queue
        assert sum(m.startswith(FRAME_MAGIC) for m in rec.sent) == 4
        # token messages are the bytes json.dumps gives; a frame's recorded
        # hash is that of its decoded payload
        for message, entry in zip(rec.sent, t_r.entries):
            if entry["kind"] == "frame":
                assert entry["payload_sha256"] == _payload_hash(decode_frame(message).payload)
            else:
                fields = {k: entry[k] for k in ("token_ids", "token_id") if k in entry}
                assert message == json.dumps({"request_id": 0, **fields}).encode()

    def test_failure_reassigns_and_preserves_output(self, deep_enc, enc_prompt):
        plan = plan_shards(deep_enc.config, 4)
        clean = BrokerConfig(seed=6, latency_lo=0.001, latency_hi=0.01, spares=1)
        out_clean, t_clean = run_pipeline(deep_enc, plan, clean, enc_prompt, 5)
        # node 2 (hosting shard 2) dies once 8 deliveries have happened
        broker = BrokerConfig(
            seed=6, latency_lo=0.001, latency_hi=0.01, failures=((2, 8),), spares=1
        )
        out, transcript = run_pipeline(deep_enc, plan, broker, enc_prompt, 5)
        assert out == out_clean
        kinds = [e["kind"] for e in transcript.entries]
        assert kinds.count("failure") == 1
        assert kinds.count("reassign") == 1
        reassign = next(e for e in transcript.entries if e["kind"] == "reassign")
        assert reassign == {
            "kind": "reassign",
            "shard": 2,
            "from_node": 2,
            "to_node": 4,
            "time": reassign["time"],
        }
        # after the reassignment, shard 2 traffic goes to the spare
        later = [
            e
            for e in transcript.entries
            if e["kind"] == "frame" and e["shard"] == 2 and e["step"] > 8
        ]
        assert later and all(e["to_node"] == 4 for e in later)

    # ((2, 8), (4, 15)): node 4, the spare that took over shard 2, fails too
    @pytest.mark.parametrize(
        "failures", [((2, 8),), ((0, 9),), ((1, 6), (3, 20)), ((2, 8), (4, 15))]
    )
    def test_failover_equals_monolithic_and_resends_only_to_spares(
        self, deep_enc, enc_prompt, failures
    ):
        plan = plan_shards(deep_enc.config, 4)
        broker = BrokerConfig(seed=6, latency_lo=0.001, latency_hi=0.01, failures=failures,
                              spares=len(failures))
        out, transcript = run_pipeline(deep_enc, plan, broker, enc_prompt, 7)
        assert out == greedy_decode(deep_enc, enc_prompt, 7)
        # rows sent end at position P + t: the whole prefix at the first step
        # and into a shard whose node was just replaced, else one row
        n_prompt = len(enc_prompt)
        replaced = set()
        resent = 0
        for e in transcript.entries:
            if e["kind"] == "reassign":
                replaced.add(e["shard"])
            elif e["kind"] in ("tokens_in", "frame"):
                t = e["token_index"]
                full = t == 0 or e["shard"] in replaced
                resent += full and t > 0
                replaced.discard(e["shard"])
                sent = len(e["token_ids"]) if e["kind"] == "tokens_in" else e["seq_len"]
                assert sent == (n_prompt + t if full else 1), e
        assert resent == len(failures)

    def test_spare_prefills_from_the_rows_layers_before_it_emitted(self, deep_enc, enc_prompt):
        # the spare's first frame resends every row shard 1 emitted so far:
        # the bytes of layers 0..1 applied to the ids up to that position
        plan = plan_shards(deep_enc.config, 4)
        broker = BrokerConfig(seed=6, latency_lo=0.001, latency_hi=0.01, failures=((2, 8),),
                              spares=1)
        out, transcript = run_pipeline(deep_enc, plan, broker, enc_prompt, 5)
        entries = transcript.entries
        at = next(i for i, e in enumerate(entries) if e["kind"] == "reassign")
        frame = next(e for e in entries[at:] if e["kind"] == "frame" and e["shard"] == 2)
        assert frame["to_node"] == 4 and frame["token_index"] > 0
        n = frame["seq_len"]
        assert n == len(enc_prompt) + frame["token_index"]
        x = embed_positions(deep_enc, out.ids[:n])
        x = apply_layer_range(KVCache(deep_enc, 0, 1), x, 0, 1)
        assert frame["payload_sha256"] == hashlib.sha256(x.tobytes()).hexdigest()

    def test_golden_failover_run(self, deep_enc, enc_prompt, tmp_path):
        # values computed before the pipeline's hop loop was rewritten; the
        # transcript file's SHA-256 is its hash
        plan = plan_shards(deep_enc.config, 4)
        broker = BrokerConfig(
            seed=3, latency_lo=0.001, latency_hi=0.01, failures=((2, 8),), spares=1
        )
        out, transcript = run_pipeline(deep_enc, plan, broker, enc_prompt, 6)
        assert out.ids == (9, 13, 10, 11, 20, 17, 16, 16, 27, 27, 27, 27)
        assert [e["kind"] for e in transcript.entries].count("reassign") == 1
        golden = "690f5a91046779b8cef413da4186161213a99fb197cfc28d4e3129c78d32dd7c"
        assert transcript.hash() == golden
        path = tmp_path / "run.transcript.jsonl"
        save_transcript(transcript, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == golden

    def test_failure_without_spare_raises(self, deep_enc, enc_prompt):
        plan = plan_shards(deep_enc.config, 4)
        broker = BrokerConfig(seed=6, failures=((2, 8),), spares=0)
        with pytest.raises(PipelineError):
            run_pipeline(deep_enc, plan, broker, enc_prompt, 5)

    def test_domain_guards(self, deep_model, deep_enc, deep_key, enc_prompt):
        plan = plan_shards(deep_model.config, 2)
        with pytest.raises(DomainError):
            run_pipeline(deep_model, plan, BrokerConfig(), enc_prompt, 2)
        plain = TokenSeq((1, 2, 3), PLAINTEXT)
        with pytest.raises(DomainError):
            run_pipeline(deep_enc, plan, BrokerConfig(), plain, 2)

    def test_plan_coverage_checked(self, deep_enc, enc_prompt):
        shallow_plan = ShardPlan(ranges=((0, 1),))
        with pytest.raises(ConfigError):
            run_pipeline(deep_enc, shallow_plan, BrokerConfig(), enc_prompt, 2)

    def test_zero_new_tokens(self, deep_enc, enc_prompt):
        plan = plan_shards(deep_enc.config, 2)
        out, transcript = run_pipeline(deep_enc, plan, BrokerConfig(), enc_prompt, 0)
        assert out == enc_prompt
        assert len(transcript) == 0

    def test_broker_validation(self):
        with pytest.raises(ConfigError):
            BrokerConfig(latency_lo=-1.0)
        with pytest.raises(ConfigError):
            BrokerConfig(latency_lo=0.5, latency_hi=0.1)
        with pytest.raises(ConfigError):
            BrokerConfig(spares=-1)
        with pytest.raises(ConfigError):
            BrokerConfig(failures=((-1, 0),))
        # integers only: a seed numpy would refuse mid-run, a spares count
        # that failed at the first failover, and a node 1.7 that became 1
        for bad in (
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
            {"spares": 1.5},
            {"spares": True},
            {"failures": ((1.7, 3),)},
            {"failures": ((1, 3.0),)},
            {"failures": ((True, 3),)},
        ):
            with pytest.raises(ConfigError):
                BrokerConfig(**bad)
        broker = BrokerConfig(seed=np.int64(3), spares=np.int64(1), failures=((np.int64(2), 4),))
        assert broker.failures == ((2, 4),) and type(broker.failures[0][0]) is int

    @pytest.mark.parametrize("n_shards", [1, 4])
    @pytest.mark.parametrize("request_id", [-1, 2**64, True, 1.5])
    def test_request_id_checked_before_any_message(
        self, deep_enc, enc_prompt, n_shards, request_id
    ):
        rec = Recording()
        with pytest.raises(RangeError, match="request_id"):
            run_pipeline(deep_enc, plan_shards(deep_enc.config, n_shards), BrokerConfig(),
                         enc_prompt, 2, request_id=request_id, transport=rec)
        assert rec.sent == [] and not rec.queue

    def test_largest_request_id_goes_on_the_wire(self, deep_enc, enc_prompt):
        rec = Recording()
        run_pipeline(deep_enc, plan_shards(deep_enc.config, 2), BrokerConfig(), enc_prompt, 1,
                     request_id=2**64 - 1, transport=rec)
        tokens, frame, token_out = rec.sent
        assert tokens.startswith(b'{"request_id": 18446744073709551615, "token_ids": [')
        assert decode_frame(frame).request_id == 2**64 - 1
        assert token_out.startswith(b'{"request_id": 18446744073709551615, "token_id": ')

    @pytest.mark.parametrize(
        "lo, hi", [(0.0, np.inf), (np.inf, np.inf), (np.nan, np.nan), (0.0, np.nan)]
    )
    def test_broker_refuses_non_finite_latency(self, lo, hi):
        with pytest.raises(ConfigError, match="finite"):
            BrokerConfig(latency_lo=lo, latency_hi=hi)

    @pytest.mark.parametrize("lo, hi", [(0.001, 0.01), (0.0, 1e300), (0.25, 0.25)])
    def test_clock_is_one_scalar_draw_per_delivery_summed_in_order(
        self, deep_enc, enc_prompt, lo, hi
    ):
        # the reference loop: one draw and one += per delivery; a failover
        # draws nothing and is logged at the clock of the delivery before it
        plan = plan_shards(deep_enc.config, 3)
        broker = BrokerConfig(seed=13, latency_lo=lo, latency_hi=hi, failures=((1, 4),), spares=1)
        _, transcript = run_pipeline(deep_enc, plan, broker, enc_prompt, 4)
        rng = np.random.default_rng(13)
        clock, expected = 0.0, []
        for entry in transcript.entries:
            if "step" in entry:
                clock += float(rng.uniform(lo, hi))
            expected.append(clock)
        assert [e["time"] for e in transcript.entries] == expected
        assert [e["kind"] for e in transcript.entries].count("reassign") == 1

    @pytest.mark.parametrize("lo, hi", [(1e308, 1e308), (0.0, 1.7e308)])
    def test_clock_overflow_is_config_error(self, deep_enc, enc_prompt, lo, hi):
        # finite bounds whose sum overflows used to put "time": Infinity,
        # which is not JSON, into the transcript
        plan = plan_shards(deep_enc.config, 2)
        broker = BrokerConfig(seed=1, latency_lo=lo, latency_hi=hi)
        with pytest.raises(ConfigError, match=r"latency bounds .*overflow the virtual clock"):
            run_pipeline(deep_enc, plan, broker, enc_prompt, 4)

    @pytest.mark.parametrize("lo, hi", [(1e308, 1e308), (0.0, 1.7e308)])
    def test_clock_overflow_sends_what_it_sent_before(self, deep_enc, enc_prompt, lo, hi):
        # the error text and the one message sent before it, the first
        # token message, were recorded before the latency draws were
        # batched; no warning either
        plan = plan_shards(deep_enc.config, 2)
        rec = Recording()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as info:
                run_pipeline(deep_enc, plan, BrokerConfig(seed=1, latency_lo=lo, latency_hi=hi),
                             enc_prompt, 4, transport=rec)
        assert str(info.value) == (
            f"latency bounds ({lo!r}, {hi!r}) overflow the virtual clock at delivery 2"
        )
        assert hashlib.sha256(b"".join(rec.sent)).hexdigest() == (
            "0a36a0800f36f112ad17f8bb689b4414fdeb408afc705f4b011a23e92a6bfd5a"
        )

    def test_golden_sweep(self):
        # computed before the hop loop took one frame build per hop and one
        # latency draw per request: the wire bytes of every case, then its
        # output ids and transcript hash, or its error class and text
        digest = hashlib.sha256()
        for norm, act in (("layernorm", "gelu"), ("rmsnorm", "silu")):
            config = make_config(32, 16, 4, 2, 32, 16, norm_kind=norm, act_kind=act)
            model = init_model(config, seed=21)
            for identity in (False, True):
                key = keygen(config, seed=55, identity=identity)
                enc = encrypt_model(key, model)
                prompt = encrypt_tokens(key, TokenSeq((3, 14, 15, 9, 2, 6), PLAINTEXT))
                for n in range(1, config.n_layers + 1):
                    last, spare = n - 1, n
                    schedules = (
                        ((), 0),
                        (((last, 5),), 1),  # one failure, one spare
                        (((0, 0),), 1),  # dead before the first delivery
                        (((last, 5),), 0),  # one failure, no spare
                        (((last, 5), (spare, 9)), 2),  # the spare dies too
                        (((0, 0), (spare, 0)), 2),  # the first spare is dead already
                        (((0, 3), (last, 7), (spare, 12)), 2),  # three failures, two spares
                    )
                    for failures, spares in schedules:
                        for lo, hi in ((0.001, 0.01), (0.0, 0.0), (0.0, 1e308)):
                            broker = BrokerConfig(seed=5, latency_lo=lo, latency_hi=hi,
                                                  failures=failures, spares=spares)
                            rec = Recording()
                            try:
                                out, transcript = run_pipeline(
                                    enc, plan_shards(config, n), broker, prompt, 5,
                                    request_id=n, transport=rec,
                                )
                                case = f"{out.ids} {transcript.hash()}"
                            except (ConfigError, PipelineError) as exc:
                                case = f"{type(exc).__name__}: {exc}"
                            for message in rec.sent:
                                digest.update(struct.pack("<I", len(message)) + message)
                            digest.update(case.encode() + b"\n")
        assert digest.hexdigest() == (
            "20a6a2c87f8885181adaa8ee9532ea6bd037da48365ed043fa1a7df358969ba9"
        )


class TestAudit:
    def run_for_audit(self, model, key, n_shards=2, n_new=5, seed=8):
        prompt = TokenSeq((5, 1, 9, 12, 7), PLAINTEXT)
        plan = plan_shards(model.config, n_shards)
        enc = encrypt_model(key, model)
        enc_prompt = encrypt_tokens(key, prompt)
        out, transcript = run_pipeline(
            enc, plan, BrokerConfig(seed=seed, latency_lo=0.001, latency_hi=0.01),
            enc_prompt, n_new,
        )
        plain_out = greedy_decode(model, prompt, n_new)
        ctx = PlaintextContext(prompt=prompt, output=plain_out, model=model, plan=plan)
        return transcript, ctx

    def test_random_key_passes(self, deep_model, deep_key):
        transcript, ctx = self.run_for_audit(deep_model, deep_key)
        result = audit_blindness(transcript, ctx)
        assert result.passed
        assert result.failures == ()
        assert result.checked_entries == len(transcript)

    def test_identity_key_fails(self, deep_model):
        key = keygen(deep_model.config, seed=0, identity=True)
        transcript, ctx = self.run_for_audit(deep_model, key)
        result = audit_blindness(transcript, ctx)
        assert not result.passed
        text = " ".join(result.failures)
        assert "plaintext prompt appears in a tokens_in field" in text
        assert "boundary activation" in text

    def test_identity_key_flags_every_one_row_frame(self, deep_model):
        key = keygen(deep_model.config, seed=0, identity=True)
        transcript, ctx = self.run_for_audit(deep_model, key, n_shards=4, n_new=6)
        frames = [e for e in transcript.entries if e["kind"] == "frame"]
        assert {e["seq_len"] for e in frames if e["token_index"] > 0} == {1}
        result = audit_blindness(transcript, ctx)
        flagged = [f for f in result.failures if "boundary activation" in f]
        assert len(flagged) == len(frames)
        assert "plaintext prompt appears in the first shard's token stream" in result.failures
        assert result.warnings == ()

    @staticmethod
    def full_prefix_transcript(model, plan, prompt, n_new):
        """The schedule of frame version 1: every step resends every token id
        and a frame over every position."""
        out = greedy_decode(model, prompt, n_new)
        transcript = Transcript()
        for t in range(n_new):
            ids = list(out.ids[: len(prompt) + t])
            transcript.add(kind="tokens_in", shard=0, token_index=t, token_ids=ids)
            x = embed_positions(model, ids)
            for s, (first, last) in enumerate(plan.ranges):
                if s:
                    digest = hashlib.sha256(x.astype("<f8").tobytes()).hexdigest()
                    transcript.add(kind="frame", shard=s, token_index=t, seq_len=len(ids),
                                   payload_sha256=digest)
                x = apply_layer_range(KVCache(model, first, last), x, first, last)
            transcript.add(kind="token_out", token_index=t, token_id=out.ids[len(prompt) + t])
        return transcript

    @pytest.mark.parametrize("identity", [True, False])
    def test_full_prefix_transcript(self, deep_model, identity):
        key = keygen(deep_model.config, seed=0 if identity else 55, identity=identity)
        plan = plan_shards(deep_model.config, 4)
        prompt = TokenSeq((5, 1, 9, 12, 7), PLAINTEXT)
        transcript = self.full_prefix_transcript(
            encrypt_model(key, deep_model), plan, encrypt_tokens(key, prompt), 5
        )
        ctx = PlaintextContext(prompt, greedy_decode(deep_model, prompt, 5), deep_model, plan)
        result = audit_blindness(transcript, ctx)
        assert result.warnings == ()
        flagged = [f for f in result.failures if "boundary activation" in f]
        if identity:
            assert len(flagged) == 5 * 3
            assert "entry 0: plaintext prompt appears in a tokens_in field" in result.failures
        else:
            assert result.passed

    def test_frames_compared_with_every_run_of_rows(self, deep_model):
        # a plaintext row is flagged wherever the frame claims to sit
        key = keygen(deep_model.config, seed=0, identity=True)
        transcript, ctx = self.run_for_audit(deep_model, key, n_shards=4, n_new=6)
        frames = [e for e in transcript.entries if e["kind"] == "frame"]
        for e in frames:
            e["token_index"] = 40
        result = audit_blindness(transcript, ctx)
        assert len([f for f in result.failures if "boundary activation" in f]) == len(frames)

    def test_tokens_in_field_that_cannot_end_at_its_position_fails(self, deep_model, deep_key):
        transcript, ctx = self.run_for_audit(deep_model, deep_key)
        leak = [0, *ctx.prompt.ids]
        transcript.add(kind="tokens_in", shard=0, token_index=0, token_ids=leak)
        result = audit_blindness(transcript, ctx)
        idx = len(transcript) - 1
        assert f"entry {idx}: plaintext prompt appears in a tokens_in field" in result.failures
        assert f"entry {idx}: 6 token ids cannot end at position 5" in result.failures

    def test_leak_overwritten_by_a_later_prefix_fails(self, deep_model):
        key = keygen(deep_model.config, seed=55)
        plan = plan_shards(deep_model.config, 4)
        prompt = TokenSeq((5, 1, 9, 12, 7), PLAINTEXT)
        plain_out = greedy_decode(deep_model, prompt, 5)
        transcript = self.full_prefix_transcript(
            encrypt_model(key, deep_model), plan, encrypt_tokens(key, prompt), 5
        )
        ctx = PlaintextContext(prompt, plain_out, deep_model, plan)
        assert audit_blindness(transcript, ctx).passed
        # step 1 leaks the plaintext prefix; step 2 resends the ciphertext one
        idx, step1 = next(
            (i, e) for i, e in enumerate(transcript.entries)
            if e["kind"] == "tokens_in" and e["token_index"] == 1
        )
        step1["token_ids"] = list(plain_out.ids[:6])
        result = audit_blindness(transcript, ctx)
        assert f"entry {idx}: plaintext prompt appears in a tokens_in field" in result.failures
        assert any(f.startswith(f"entry {idx}: token ids for positions 0..5 disagree") for f in result.failures)

    def test_output_without_the_prompt_is_refused(self, deep_model):
        # the frame check replays ctx.output from position 0; an output
        # without the prompt used to flag no frame of the identity key
        prompt = TokenSeq((5, 1, 9, 12, 7), PLAINTEXT)
        continuation = TokenSeq(greedy_decode(deep_model, prompt, 3).ids[len(prompt):], PLAINTEXT)
        with pytest.raises(ShapeError):
            PlaintextContext(prompt, continuation)

    def test_empty_transcript_vacuous(self, deep_model):
        prompt = TokenSeq((1, 2), PLAINTEXT)
        ctx = PlaintextContext(prompt=prompt, output=prompt)
        result = audit_blindness(Transcript(), ctx)
        assert result.passed
        assert result.warnings
        assert result.checked_entries == 0

    def test_partial_context_warns(self, deep_model, deep_key):
        transcript, ctx = self.run_for_audit(deep_model, deep_key)
        partial = PlaintextContext(prompt=ctx.prompt, output=ctx.output, model=deep_model)
        result = audit_blindness(transcript, partial)
        assert result.passed
        assert any("skipped" in w for w in result.warnings)
