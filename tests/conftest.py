from __future__ import annotations

import numpy as np
import pytest

from eeinfer.model import ModelBundle, ModelConfig, init_model, make_config
from eeinfer.tensor_ops import PermTable


def perm_matrix(table: PermTable) -> np.ndarray:
    """Dense permutation matrix P of ``table`` with P[map[i], i] = 1."""
    p = np.zeros((table.n, table.n), dtype=np.float64)
    p[table.map, np.arange(table.n)] = 1.0
    return p


@pytest.fixture(scope="session")
def tiny_config() -> ModelConfig:
    return make_config(vocab_size=32, d_model=16, n_layers=2, n_heads=2, d_ff=32, max_seq_len=8)


@pytest.fixture(scope="session")
def tiny_model(tiny_config: ModelConfig) -> ModelBundle:
    return init_model(tiny_config, 42)


@pytest.fixture(scope="session")
def micro_config() -> ModelConfig:
    # exercises the rmsnorm/relu path (no norm offsets)
    return make_config(
        vocab_size=16,
        d_model=8,
        n_layers=1,
        n_heads=1,
        d_ff=16,
        max_seq_len=6,
        norm_kind="rmsnorm",
        act_kind="relu",
    )


@pytest.fixture(scope="session")
def micro_model(micro_config: ModelConfig) -> ModelBundle:
    return init_model(micro_config, 7)
