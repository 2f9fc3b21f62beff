"""Equivariant encryption for blind transformer inference.

The package is organized around one idea: a keyed bundle of permutations
applied offline to a transformer's weights lets the untransformed forward
pass run on permuted token ids and permuted feature axes, and the client
alone can undo the permutation on the way out. Submodules:

* ``tensor_ops`` - deterministic float64 kernel and permutation tables
* ``model`` - toy decoder-only transformer, greedy decoding, .eem container
* ``encryption`` - key generation, token/model/logit transforms, .eekey container
* ``attack`` - transcript losses and the three permutation-recovery baselines
* ``bench`` - one-pass fidelity and equivariance check, latency harness, reports
* ``shard_sim`` - deterministic sharded-pipeline simulator and blindness audit
* ``cli`` - the ``eeinfer`` command
"""
from __future__ import annotations

from eeinfer.bench import compare_arms
from eeinfer.encryption import (
    EEKey,
    decrypt_logits,
    decrypt_tokens,
    encrypt_model,
    encrypt_tokens,
    keygen,
    load_key,
    save_key,
)
from eeinfer.model import (
    CIPHERTEXT,
    PLAINTEXT,
    ModelBundle,
    ModelConfig,
    TokenSeq,
    forward,
    greedy_decode,
    init_model,
    load_model,
    make_config,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "CIPHERTEXT",
    "EEKey",
    "ModelBundle",
    "ModelConfig",
    "PLAINTEXT",
    "TokenSeq",
    "__version__",
    "compare_arms",
    "decrypt_logits",
    "decrypt_tokens",
    "encrypt_model",
    "encrypt_tokens",
    "forward",
    "greedy_decode",
    "init_model",
    "keygen",
    "load_key",
    "load_model",
    "make_config",
    "save_key",
    "save_model",
]
