"""Dense float64 kernel with a fixed reduction order, plus permutation tables.

Everything downstream leans on three properties of this module:

* ``matmul`` reduces over the inner dimension in ascending index order, always.
  BLAS, and an einsum that sums over k, were measured to break that order
  (blocked/SIMD partial sums), so the product is one explicit fold:
  ``np.add.reduce`` over k of a C-ordered tensor of every product, built by
  a broadcast multiply or by an einsum that sums nothing (``matmul`` says
  which, why C order, and when ``np.add.accumulate`` stands in). That keeps
  repeated runs, and pipelines that split a computation across workers,
  bit-identical. Both operands may carry one matching leading batch axis
  (attention runs every head in one call); each slice of the result has the
  bytes of the 2-D product of that slice.
* Every kernel is row-local: row i of the output depends only on row i of the
  inputs, bit for bit, however many rows there are and however many masked
  (``-inf``) softmax entries follow the row's last live one. That is what
  lets a decoder feed one new row at a time against cached keys and values
  and still reproduce a full forward pass byte for byte.
* The nonlinear operators (relu/gelu/silu, layer_norm, rms_norm, row softmax)
  commute with permutations of the feature axis. The encryption layer is built
  entirely on that fact, and the property suite pins it down.

Every public kernel converts its inputs to float64 arrays, 2-D except for a
batched ``matmul``, and checks their shapes; integer examples in the tests
are exact because float64 holds small integers exactly. ``matmul``,
``layer_norm`` and ``rms_norm`` then call one unchecked body, ``_matmul``,
``_layer_norm`` and ``_rms_norm``, which holds all of their arithmetic. The
model binds those bodies under the public names: its weights were checked
once by ``ModelBundle`` and its rows once on entry to ``apply_layer_range``
or ``final_logits``, so a decode step does not check them again.
``softmax_rows`` and ``activate`` have no such body, since their checks
(NaN, +inf, fully masked rows, the activation kind) test the data. A kernel
never writes into its inputs (the model's tensors are read-only); it reuses
its own temporaries in place instead, with the same operations in the same
order, so the bytes are those of the plain expressions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import erf, expit

from .errors import ConfigError, NumericsError, ShapeError

ACTIVATION_KINDS = ("relu", "gelu", "silu")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# products of two or more rows with at least this many terms (batch * m * k
# * n) are built k-major by einsum: on a 2-core x86 host with numpy 2.4 it
# was 0.82-1.04x the broadcast's time per call at 2048 terms, 0.9-1.2x at
# 1024, and 0.4-0.8x from 4096 on (table in CHANGES.md)
_KMAJOR_TERMS = 2048


def as_matrix(x: object, name: str = "input") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def _as_vector(x: object, length: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != length:
        raise ShapeError(f"{name} must be a vector of length {length}, got shape {arr.shape}")
    return arr


def _dims(shape: tuple[int, ...]) -> str:
    return "x".join(map(str, shape))


def matmul(a: object, b: object) -> np.ndarray:
    """Matrix product with the inner sum taken in ascending index order.

    out[i, j] = ((((0.0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ...) exactly as a
    left-to-right fold from +0.0; the test suite holds it bit-identical to a
    scalar reference loop. The leading +0.0 means a sum is never -0.0, so
    trailing zero terms (masked attention weights) leave it unchanged.

    Operands are (m, k) and (k, n), or (batch, m, k) and (batch, k, n) with
    the same batch size; then out[s] is the 2-D product of a[s] and b[s],
    byte for byte.

    Every product is built at once in a C-ordered tensor, so a call holds
    m * k * n doubles per slice, and np.add.reduce folds it over k. numpy
    sums pairwise only along the fastest axis; C order keeps that axis n
    even when an operand is a transposed view (attention's keys), so the
    fold adds one k at a time. The tensor has one of two layouts, chosen
    from the shapes alone:

    * (batch, m, k, n), from a broadcast multiply, for one-row products
      (every cached decode step) and products of fewer than _KMAJOR_TERMS
      terms in all. A one-column product (n = 1), m * n = 1 included, has
      no other axis and takes np.add.accumulate, which is always sequential.
    * (batch, k, m, n), from an einsum that sums over nothing, for products
      of two or more rows and at least _KMAJOR_TERMS terms (a prefill). An
      entry is 0.0 + a[i,kk]*b[kk,j], which only turns -0.0 into +0.0, and
      the fold from +0.0 absorbs that. The fold over axis -3 runs a block
      of m * n >= 2 entries at a time, so it never sums pairwise. einsum
      builds a term in about 0.8 ns against 1.5 ns, but costs more per call:
      below about 2048 terms, or with one row, it is the slower one.

    With k = 0 every entry is +0.0.
    """
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    batch = av.shape[:-2]
    if av.ndim not in (2, 3) or bv.ndim != av.ndim or bv.shape[:-2] != batch:
        raise ShapeError(
            f"matmul operands must both be 2-D, or 3-D with the same batch size; got "
            f"{_dims(av.shape)} times {_dims(bv.shape)}"
        )
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(
            f"matmul dimension mismatch: {_dims(av.shape)} times {_dims(bv.shape)}"
        )
    return _matmul(av, bv)


def _matmul(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """matmul's arithmetic on float64 operands whose shapes it has checked."""
    k = av.shape[-1]
    # without order="C" a transposed operand can make k the fastest axis,
    # and reduce would sum it pairwise
    if av.shape[-2] > 1 and av.size * bv.shape[-1] >= _KMAJOR_TERMS:
        terms = np.einsum("...mk,...kn->...kmn", av, bv, order="C")
        return np.add.reduce(terms, axis=-3, initial=0.0)
    terms = np.multiply(av[..., None], bv[..., None, :, :], order="C")
    if bv.shape[-1] != 1 or k == 0:
        return np.add.reduce(terms, axis=-2, initial=0.0)
    terms[..., 0, :] += 0.0  # the fold's leading +0.0: -0.0 + 0.0 is +0.0
    return np.add.accumulate(terms, axis=-2, out=terms)[..., -1, :].copy()


def softmax_rows(a: object) -> np.ndarray:
    """Row-wise softmax with max-subtraction stabilization.

    ``-inf`` entries are legal (they encode masked attention positions and
    come out as exact zeros). NaN, +inf, or a row that is entirely masked has
    no meaningful softmax and raises.
    """
    x = as_matrix(a, "softmax input")
    if x.shape[1] == 0:
        raise ShapeError("softmax input has zero columns")
    # a max propagates NaN, so a row's max is NaN if the row holds one, else
    # +inf if it holds one, else -inf only if every entry is masked
    row_max = np.maximum.reduce(x, axis=1, keepdims=True)
    # a ufunc reduce, as ndarray.all goes through numpy's Python wrapper
    if not np.logical_and.reduce(np.isfinite(row_max).ravel()):
        if np.isnan(row_max).any():
            raise NumericsError("softmax input contains NaN")
        if np.isposinf(row_max).any():
            raise NumericsError("softmax input contains +inf")
        raise NumericsError("softmax row is fully masked (all -inf)")
    e = np.exp(x - row_max)
    # a sequential fold: np.add.reduce adds pairwise once a row has 8 or
    # more entries, so its rounding would depend on how many masked zeros
    # follow
    e /= np.add.accumulate(e, axis=1)[:, -1:]
    return e


def activate(kind: str, x: object) -> np.ndarray:
    """Elementwise nonlinearity. gelu is the exact erf form x*Phi(x)."""
    v = as_matrix(x, "activation input")
    if kind == "relu":
        return np.maximum(v, 0.0)
    if kind == "gelu":
        # v * 0.5 * (1.0 + erf(v / sqrt 2)) with the operands of + and *
        # swapped, which IEEE arithmetic gives the same bytes
        out = erf(v * _INV_SQRT2)
        out += 1.0
        out *= v * 0.5
        return out
    if kind == "silu":
        # expit is the numerically stable sigmoid
        out = expit(v)
        out *= v
        return out
    raise ConfigError(f"unknown activation kind {kind!r}, expected one of {ACTIVATION_KINDS}")


def layer_norm(
    x: object,
    gamma: object,
    beta: object,
    eps: float = 1e-5,
) -> np.ndarray:
    """Per-row mean/variance normalization followed by an affine map."""
    v = as_matrix(x, "layer_norm input")
    g = _as_vector(gamma, v.shape[1], "gamma")
    b = _as_vector(beta, v.shape[1], "beta")
    return _layer_norm(v, g, b, eps)


def _layer_norm(v: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """layer_norm's arithmetic on a float64 matrix and vectors of its width."""
    n = v.shape[1]
    centered = v - np.add.reduce(v, axis=1, keepdims=True) / n
    var = np.add.reduce(centered * centered, axis=1, keepdims=True) / n
    centered /= np.sqrt(var + eps)
    centered *= g
    centered += b
    return centered


def rms_norm(x: object, gamma: object, eps: float = 1e-6) -> np.ndarray:
    """Per-row division by the root mean square, then a gamma scale."""
    v = as_matrix(x, "rms_norm input")
    g = _as_vector(gamma, v.shape[1], "gamma")
    return _rms_norm(v, g, eps)


def _rms_norm(v: np.ndarray, g: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """rms_norm's arithmetic on a float64 matrix and a vector of its width."""
    ms = np.add.reduce(v * v, axis=1, keepdims=True) / v.shape[1]
    out = v / np.sqrt(ms + eps)
    out *= g
    return out


@dataclass(frozen=True, eq=False)
class PermTable:
    """A bijection on {0..n-1}; map[i] is the image of i.

    Immutable once built. The permutation-matrix view P has P[map[i], i] = 1,
    so P @ x moves coordinate i of a column vector to slot map[i].
    """

    map: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.map, dtype=np.int64)
        if arr.ndim != 1:
            raise ConfigError(f"permutation map must be 1-D, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ConfigError("permutation over zero elements is not allowed")
        if not np.array_equal(np.sort(arr), np.arange(arr.shape[0])):
            raise ConfigError("permutation map is not a bijection on 0..n-1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "map", arr)

    @property
    def n(self) -> int:
        return int(self.map.shape[0])

    @classmethod
    def identity(cls, n: int) -> "PermTable":
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "PermTable":
        # Generator.permutation is a seeded Fisher-Yates shuffle
        return cls(rng.permutation(n).astype(np.int64))

    @cached_property
    def inv_map(self) -> np.ndarray:
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.map] = np.arange(self.n, dtype=np.int64)
        inv.setflags(write=False)
        return inv

    def inverse(self) -> "PermTable":
        return PermTable(self.inv_map)

    @property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.map, np.arange(self.n)))

    def matrix(self) -> np.ndarray:
        """Dense permutation matrix P with P[map[i], i] = 1."""
        p = np.zeros((self.n, self.n), dtype=np.float64)
        p[self.map, np.arange(self.n)] = 1.0
        return p

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermTable):
            return NotImplemented
        return np.array_equal(self.map, other.map)

    def __repr__(self) -> str:
        return f"PermTable(n={self.n})"

