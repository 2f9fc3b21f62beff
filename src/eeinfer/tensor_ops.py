"""Dense float64 kernel with a fixed reduction order, plus permutation tables.

Everything downstream leans on three properties of this module:

* ``matmul`` reduces over the inner dimension in ascending index order,
  always, in numpy's scalar matmul loop, since BLAS was measured to break
  that order (``matmul`` says how). That keeps repeated runs, and pipelines
  that split a computation across workers, bit-identical. Both operands may
  carry one matching leading batch axis (attention runs every head in one
  call); each slice of the result has the bytes of that slice's product.
* Every kernel is row-local: row i of the output depends only on row i of the
  inputs, bit for bit, however many rows there are and however many masked
  (``-inf``) softmax entries follow the row's last live one. That is what
  lets a decoder feed one new row at a time against cached keys and values
  and still reproduce a full forward pass byte for byte.
* The nonlinear operators (relu/gelu/silu, layer_norm, rms_norm, row softmax)
  commute with permutations of the feature axis. The encryption layer is built
  entirely on that fact, and the property suite pins it down.

A decode step feeds one row per request, so ``matmul`` and the norms take
one row by a cheaper form with the same arithmetic (``_rows`` and
``_layer_norm`` say why the bytes agree). Every public kernel converts its
inputs to float64 arrays and checks their shapes, 2-D except for a batched
``matmul``; integer examples in the tests are exact because float64 holds
small integers exactly. The norm bodies take several rows in C order, since
numpy sums each row of an F-ordered matrix sequentially, not pairwise, so
their bytes do not depend on the input's layout. ``matmul``,
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

    Each row of each slice runs as its own one-row product in numpy's scalar
    matmul loop, which sets an entry to 0 and then adds a[i,kk]*b[kk,j] for
    kk ascending; slices of one row go to that loop as they are. Reversed
    columns (a negative stride) keep the right operand from BLAS, and no
    m * k * n tensor is built. One column (n = 1) would go to BLAS's dot, so
    it takes the broadcast fold, _fold. A numpy whose loop fused the
    multiply-add, or sent such operands to BLAS, would give other bytes: a
    probe at import sets _ROWS_EXACT, and if it fails every product
    takes _fold. The contract covers finite operands; with a NaN the two
    paths may differ in its sign bit. With k = 0 every entry is +0.0.
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
    if _ROWS_EXACT and bv.shape[-1] > 1:
        return _rows(av, bv)
    return _fold(av, bv)


def _rows(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """Every row as a one-row product in numpy's scalar loop; a fresh C-ordered result.
    Slices of one row are such products already and go to the loop as they
    are. Several rows need the split into one-row cores: numpy (2.4 measured)
    hands a multi-row product with reversed columns to BLAS by copying the
    operand, and BLAS sums in another order."""
    out = np.empty(av.shape[:-1] + bv.shape[-1:])
    if av.shape[-2] == 1:
        np.matmul(av, bv[..., ::-1], out=out[..., ::-1])
    else:
        np.matmul(av[..., :, None, :], bv[..., None, :, ::-1], out=out[..., :, None, ::-1])
    return out


def _fold(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """np.add.reduce over k of a C-ordered (..., m, k, n) tensor of every product:
    C order keeps n fastest even for a transposed operand, so k is never summed
    pairwise; with one column, np.add.accumulate keeps the fold sequential."""
    terms = np.multiply(av[..., None], bv[..., None, :, :], order="C")
    if bv.shape[-1] != 1 or av.shape[-1] == 0:
        return np.add.reduce(terms, axis=-2, initial=0.0)
    terms[..., 0, :] += 0.0  # the fold's leading +0.0: -0.0 + 0.0 is +0.0
    return np.add.accumulate(terms, axis=-2, out=terms)[..., -1, :].copy()


def _rows_exact() -> bool:
    """Whether _rows gives _fold's bytes on terms from 2**-60 to 2**60, which a
    pairwise sum, BLAS or a fused multiply-add round differently: on both of
    its forms (several rows, one row), 2-D and batched."""
    rng = np.random.default_rng(0)
    a, b = (rng.normal(size=s) * 2.0 ** rng.integers(-30, 31, size=s)
            for s in ((2, 3, 67), (2, 67, 5)))
    cases = ((a[0], b[0]), (a, b), (a[0, :1], b[0]), (a[:, :1], b))
    return all(_rows(x, y).tobytes() == _fold(x, y).tobytes() for x, y in cases)


_ROWS_EXACT = _rows_exact()


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


def check_eps(eps: object, name: str = "eps", zero: bool = True) -> float:
    """eps as given, refused with ConfigError unless it is an int or a float,
    not a bool, finite and >= 0 (> 0 when zero is False): the one rule for a
    norm's eps, which ModelConfig applies to norm_eps with zero False."""
    # NaN fails every comparison, so this refuses it too
    if (isinstance(eps, bool) or not isinstance(eps, (int, float))
            or not (0 <= eps if zero else 0 < eps) or not eps < math.inf):
        bound = ">= 0" if zero else "> 0"
        raise ConfigError(f"{name} must be a finite number {bound}, got {eps!r}")
    return eps


def layer_norm(
    x: object,
    gamma: object,
    beta: object,
    eps: float = 1e-5,
) -> np.ndarray:
    """Per-row mean/variance normalization followed by an affine map; eps is
    a finite number >= 0."""
    v = as_matrix(x, "layer_norm input")
    g = _as_vector(gamma, v.shape[1], "gamma")
    b = _as_vector(beta, v.shape[1], "beta")
    return _layer_norm(v, g, b, check_eps(eps))


def _scalar_root(s: np.float64) -> float:
    """np.sqrt of a scalar, by math.sqrt where it is defined: both round
    correctly. A negative or NaN s keeps np.sqrt's NaN and warning."""
    return math.sqrt(s) if s >= 0.0 else np.sqrt(s)


def _layer_norm(v: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """layer_norm's arithmetic on a float64 matrix and vectors of its width.

    One row takes its sums as numpy scalars and finishes on scalars, without
    numpy's array machinery: a row has the same pairwise sum either way,
    whatever its stride, and IEEE steps and a correctly rounded root the
    same bytes. Several rows are summed in C order, pairwise per row.
    """
    n = v.shape[1]
    if v.shape[0] == 1:
        centered = v - np.add.reduce(v, None) / n
        centered /= _scalar_root(np.add.reduce(centered * centered, None) / n + eps)
    else:
        v = np.ascontiguousarray(v)
        centered = v - np.add.reduce(v, axis=1, keepdims=True) / n
        centered /= np.sqrt(np.add.reduce(centered * centered, axis=1, keepdims=True) / n + eps)
    centered *= g
    centered += b
    return centered


def rms_norm(x: object, gamma: object, eps: float = 1e-6) -> np.ndarray:
    """Per-row division by the root mean square, then a gamma scale; eps is a
    finite number >= 0."""
    v = as_matrix(x, "rms_norm input")
    g = _as_vector(gamma, v.shape[1], "gamma")
    return _rms_norm(v, g, check_eps(eps))


def _rms_norm(v: np.ndarray, g: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """rms_norm's arithmetic on a float64 matrix and a vector of its width;
    one row finishes on scalars and several are summed in C order, as in
    _layer_norm."""
    n = v.shape[1]
    if v.shape[0] == 1:
        out = v / _scalar_root(np.add.reduce(v * v, None) / n + eps)
    else:
        v = np.ascontiguousarray(v)
        out = v / np.sqrt(np.add.reduce(v * v, axis=1, keepdims=True) / n + eps)
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

