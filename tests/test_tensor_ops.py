"""Kernel tests: hand oracles, bit-exactness of the reduction order, and
permutation-equivariance properties."""
from __future__ import annotations

import functools
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import eeinfer.model
from eeinfer import tensor_ops
from eeinfer.errors import ConfigError, NumericsError, ShapeError
from eeinfer.tensor_ops import (
    ACTIVATION_KINDS,
    PermTable,
    activate,
    as_matrix,
    layer_norm,
    matmul,
    rms_norm,
    softmax_rows,
)

from conftest import perm_matrix

# gelu(1) oracle, computed from the erf definition independently of the
# implementation: 1 * 0.5 * (1 + erf(1/sqrt(2)))
GELU_AT_ONE = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))


def scalar_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference product: explicit scalar left-fold in ascending k order."""
    m, k = a.shape
    _, n = b.shape
    out = np.empty((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for kk in range(k):
                acc += a[i, kk] * b[kk, j]
            out[i, j] = acc
    return out


def wide(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Normal draws scaled by magnitudes from 1e-8 to 1e8."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


def assert_scalar_fold(got: np.ndarray, a: np.ndarray, b: np.ndarray, case: object) -> None:
    """Each slice of ``got`` has the bytes of ``scalar_matmul`` of that slice."""
    if a.ndim == 2:
        got, a, b = got[None], a[None], b[None]
    assert got.shape == a.shape[:-1] + b.shape[-1:], case
    for s in range(a.shape[0]):
        assert got[s].tobytes() == scalar_matmul(a[s], b[s]).tobytes(), case


def on_both_paths(test):
    """Run a matmul test on the row path (``_ROWS_EXACT`` True) and then on the
    broadcast fold that stands in when the import probe fails; the test keeps
    its own name."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        for rows_exact in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tensor_ops, "_ROWS_EXACT", rows_exact)
                test(*args, **kwargs)

    return run


def pairwise_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each entry's terms summed as a balanced tree: an order other than the fold's."""
    terms = a[..., :, None, :] * np.swapaxes(b, -1, -2)[..., None, :, :]
    while terms.shape[-1] > 1:
        if terms.shape[-1] % 2:
            terms = np.concatenate([terms, np.zeros(terms.shape[:-1] + (1,))], axis=-1)
        terms = terms[..., 0::2] + terms[..., 1::2]
    return terms[..., 0] + 0.0


def fused_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The fold in ascending k with a fused multiply-add: each step rounds
    acc + a*b once, computed exactly with fractions."""
    out = np.empty(a.shape[:-1] + b.shape[-1:])
    for i, j in np.ndindex(out.shape):
        acc = 0.0
        for kk in range(a.shape[-1]):
            acc = float(Fraction(acc) + Fraction(a[i, kk]) * Fraction(b[kk, j]))
        out[i, j] = acc
    return out


# the row path itself, for a stand-in that changes only its one-row form
_ROWS = tensor_ops._rows

finite_elems = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def matrix_and_col_perm(draw, max_rows: int = 5, max_cols: int = 8):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    m = draw(hnp.arrays(np.float64, (rows, cols), elements=finite_elems))
    perm = draw(st.permutations(range(cols)))
    return m, np.asarray(perm, dtype=np.int64)


class TestMatmul:
    @on_both_paths
    def test_identity_exact(self):
        a = np.array([[1.5, -2.0], [0.25, 9.0]])
        assert np.array_equal(matmul(np.eye(2), a), a)

    @on_both_paths
    def test_hand_case(self):
        got = matmul([[1, 2], [3, 4]], [[5, 6], [7, 8]])
        assert np.array_equal(got, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"2x3.*4x2"):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_non_2d_rejected(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros(3), np.zeros((3, 2)))

    @on_both_paths
    def test_bit_exact_against_scalar_fold(self):
        rng = np.random.default_rng(7)
        shapes = [tuple(rng.integers(1, 12, size=3)) for _ in range(50)]
        # outputs from one entry to tens of thousands, with one row or column
        shapes += [(1, 32, 256), (1, 32, 257), (256, 5, 1), (257, 5, 1), (16, 32, 16),
                   (16, 32, 17), (1, 64, 1), (1, 1, 1), (48, 32, 128), (300, 3, 1), (1, 7, 600)]
        # two rows with 2046 to 2064 terms, the toy model's 16-row prefill,
        # and a long one-entry fold
        shapes += [(2, 31, 33), (2, 32, 32), (2, 8, 129), (16, 32, 96), (1, 4096, 1)]
        for m, k, n in shapes:
            a = rng.normal(0, 10, (m, k))
            b = rng.normal(0, 10, (k, n))
            # signed zeros: a fold from +0.0 never yields -0.0
            a[0, 0] = -0.0
            a[-1, -1] = 0.0
            b[0, -1] = -0.0
            got = matmul(a, b)
            assert got.tobytes() == scalar_matmul(a, b).tobytes(), (m, k, n)
            zeros = matmul(np.full((m, k), -0.0), b)
            assert not np.signbit(zeros).any() and zeros.tobytes() == scalar_matmul(
                np.full((m, k), -0.0), b).tobytes()

    @on_both_paths
    def test_batched_slices_bit_exact(self):
        # each slice of a batched product has the bytes of the 2-D product of
        # that slice
        rng = np.random.default_rng(17)
        shapes = [tuple(rng.integers(1, 10, size=4)) for _ in range(30)]
        shapes += [(4, 16, 8, 256 // 16), (4, 16, 8, 256 // 16 + 1), (3, 1, 32, 256),
                   (2, 1, 32, 256 + 1), (2, 256 + 1, 3, 1), (4, 1, 64, 8), (1, 1, 1, 1)]
        # batches of two- and three-row slices
        shapes += [(4, 2, 16, 16), (8, 2, 8, 17), (4, 3, 9, 25)]
        for bsz, m, k, n in shapes:
            a = rng.normal(0, 10, (bsz, m, k))
            b = rng.normal(0, 10, (bsz, k, n))
            a[:, 0, 0] = -0.0
            a[:, -1, -1] = 0.0
            b[:, 0, -1] = -0.0
            got = matmul(a, b)
            assert got.shape == (bsz, m, n)
            for s in range(bsz):
                expect = scalar_matmul(a[s], b[s]).tobytes()
                assert got[s].tobytes() == matmul(a[s], b[s]).tobytes() == expect, (bsz, m, k, n)
            zeros = matmul(np.full((bsz, m, k), -0.0), b)
            assert not np.signbit(zeros).any()

    @on_both_paths
    def test_wide_magnitudes_and_signed_zeros_bit_exact(self):
        # terms from 1e-8 to 1e8 lose low bits at every partial sum, so any
        # other summation order (pairwise, blocked) shows in the bytes; an
        # entry whose terms are all -0.0 must still fold to +0.0
        rng = np.random.default_rng(23)
        for m, k, n in [(1, 1, 1), (2, 1, 3), (3, 9, 1), (1, 8, 2), (3, 9, 2), (5, 16, 7),
                        (2, 33, 3), (4, 64, 16), (48, 32, 128), (2, 32, 32), (16, 32, 96),
                        (256, 8, 1)]:
            a, b = wide(rng, (m, k)), wide(rng, (k, n))
            a[0], b[:, 0] = -0.0, np.abs(b[:, 0])
            got = matmul(a, b)
            assert not np.signbit(got[0]).any()
            assert_scalar_fold(got, a, b, (m, k, n))

    @on_both_paths
    def test_transposed_and_strided_views_bit_exact(self):
        # attention passes k.transpose(0, 2, 1): the fold must add one k at a
        # time whatever the operands' layout
        rng = np.random.default_rng(29)
        # (16, 8, 16) is attention at the toy model's prefill size; (12, 17,
        # 8) batched came out with other bytes from an einsum without
        # order="C"
        for m, k, n in [(1, 8, 2), (4, 16, 3), (6, 32, 9), (3, 64, 2), (16, 8, 16), (12, 17, 8),
                        (2, 32, 32)]:
            a_views = [wide(rng, (k, m)).T, wide(rng, (2 * m, 3 * k))[::2, ::3],
                       wide(rng, (m, k))[::-1, ::-1]]
            b_views = [wide(rng, (n, k)).T, wide(rng, (3 * k, 2 * n))[::3, 1::2],
                       wide(rng, (k, n))[::-1]]
            for a in a_views:
                for b in b_views:
                    assert_scalar_fold(matmul(a, b), a, b, (m, k, n))
            q = wide(rng, (4, m, k))
            keys = wide(rng, (4, n, k)).transpose(0, 2, 1)
            assert_scalar_fold(matmul(q, keys), q, keys, (4, m, k, n))
            assert_scalar_fold(matmul(keys.transpose(0, 2, 1), q.transpose(0, 2, 1)),
                               keys.transpose(0, 2, 1), q.transpose(0, 2, 1), (4, n, k, m))

    @on_both_paths
    def test_backwards_right_operands_bit_exact(self):
        # a right operand whose last axis runs backwards in memory, as the
        # model stores its weights and KV cache, goes to numpy's loop as it
        # is; reversed forwards again, a one-row product of it would go to
        # BLAS
        rng = np.random.default_rng(47)

        def draw(shape):
            return rng.normal(size=shape) * 2.0 ** rng.integers(-30, 31, size=shape)

        for m, k, n in [(1, 32, 96), (1, 67, 5), (1, 8, 2), (2, 31, 33), (3, 67, 5), (5, 16, 7),
                        (16, 32, 96)]:
            a, w = draw((m, k)), draw((k, n))
            for b in (w[:, ::-1], w[::-1, ::-1]):
                assert_scalar_fold(matmul(a, b), a, b, (m, k, n))
            q, keys = draw((4, m, k)), draw((4, k, n))[..., ::-1]
            assert_scalar_fold(matmul(q, keys), q, keys, (4, m, k, n))

    @on_both_paths
    def test_one_column_is_a_sequential_fold(self):
        # with n = 1 only k is left to reduce over, which numpy would sum
        # pairwise from 8 terms on; one column must still fold in order
        rng = np.random.default_rng(31)
        for k in range(8, 65):
            for a, b in [(wide(rng, (1, k)), wide(rng, (k, 1))),
                         (wide(rng, (3, k)), wide(rng, (1, k)).T),
                         (wide(rng, (2, 3, k)), wide(rng, (2, k, 1)))]:
                assert_scalar_fold(matmul(a, b), a, b, (a.shape, k))
        # many rows, two rows with a long k, and one-entry products
        # (m * n = 1), which numpy would compute with BLAS's dot, alone and
        # batched
        for a_shape, b_shape in [((256, 8), (8, 1)), ((2, 1024), (1024, 1)),
                                 ((1, 3000), (3000, 1)), ((4, 1, 600), (4, 600, 1)),
                                 ((3, 40, 20), (3, 20, 1))]:
            a, b = wide(rng, a_shape), wide(rng, b_shape)
            a.flat[::7] = -0.0
            assert_scalar_fold(matmul(a, b), a, b, a_shape)
            bt = np.swapaxes(np.swapaxes(b, -1, -2).copy(), -1, -2)
            assert_scalar_fold(matmul(a, bt), a, bt, a_shape)

    @on_both_paths
    def test_rows_of_a_product_equal_each_row_alone(self, monkeypatch):
        # a prefill's rows must have the bytes of the one-row steps that a
        # cached decode computes them with; on the row path a product of two
        # or more columns is one _rows call however many rows it has, and a
        # one-column product takes the broadcast fold
        rows_calls = []

        def counting_rows(*args):
            rows_calls.append(args[0].shape)
            return real_rows(*args)

        real_rows = tensor_ops._rows
        monkeypatch.setattr(tensor_ops, "_rows", counting_rows)
        rng = np.random.default_rng(37)
        for a_shape, b_shape in [((16, 32), (32, 96)), ((2, 32), (32, 32)), ((40, 64), (64, 1)),
                                 ((4, 16, 8), (4, 8, 16)), ((8, 2, 8), (8, 8, 17)),
                                 ((1, 64), (64, 1024)), ((2, 31), (31, 33)),
                                 ((4, 2, 16), (4, 16, 15))]:
            a, b = wide(rng, a_shape), wide(rng, b_shape)
            a[..., 0, :] = -0.0
            calls = 1 if tensor_ops._ROWS_EXACT and b_shape[-1] > 1 else 0
            rows_calls.clear()
            got = matmul(a, b)
            assert rows_calls == [a_shape] * calls, a_shape
            for i in range(a.shape[-2]):
                row = matmul(a[..., i : i + 1, :], b)
                assert got[..., i : i + 1, :].tobytes() == row.tobytes(), (a_shape, i)
            assert len(rows_calls) == calls * (1 + a.shape[-2]), a_shape
            assert_scalar_fold(got, a, b, a_shape)

    @pytest.mark.parametrize("a_shape, b_shape", [((3, 0), (0, 1)), ((3, 0), (0, 4)),
                                                  ((2, 3, 0), (2, 0, 1)), ((2, 3, 0), (2, 0, 5))])
    @on_both_paths
    def test_empty_inner_dimension_gives_positive_zeros(self, a_shape, b_shape):
        got = matmul(np.zeros(a_shape), np.zeros(b_shape))
        assert got.shape == a_shape[:-1] + b_shape[-1:]
        assert got.tobytes() == np.zeros(got.shape).tobytes()

    @on_both_paths
    def test_empty_products_have_their_shape(self):
        for a_shape, b_shape in [((0, 3), (3, 4)), ((2, 3), (3, 0)), ((0, 0), (0, 0)),
                                 ((0, 2, 3), (0, 3, 4)), ((2, 0, 3), (2, 3, 4)),
                                 ((2, 3, 4), (2, 4, 0)), ((2, 3, 0), (2, 0, 0))]:
            got = matmul(np.ones(a_shape), np.ones(b_shape))
            assert got.shape == a_shape[:-1] + b_shape[-1:] and got.size == 0, a_shape

    @on_both_paths
    def test_results_are_fresh_c_ordered_and_writable(self):
        # the model adds biases and residuals in place on a product
        rng = np.random.default_rng(41)
        for a, b in [(wide(rng, (5, 7)), wide(rng, (7, 3))),
                     (wide(rng, (7, 5)).T, wide(rng, (3, 7)).T),
                     (wide(rng, (5, 7)), wide(rng, (7, 1))),
                     (wide(rng, (4, 3, 8)), wide(rng, (4, 6, 8)).transpose(0, 2, 1)),
                     (wide(rng, (4, 1, 8)), wide(rng, (4, 8, 6))[..., ::-1])]:
            got = matmul(a, b)
            assert got.flags.c_contiguous and got.flags.writeable, (a.shape, b.shape)
            assert not np.shares_memory(got, a) and not np.shares_memory(got, b)
            got += 1.0

    @pytest.mark.parametrize(
        "other",
        [pairwise_rows, fused_rows, lambda a, b: a @ b,
         lambda a, b: a @ b if a.shape[-2] == 1 else _ROWS(a, b),
         lambda a, b: a @ b if b.strides[-1] < 0 else _ROWS(a, b),
         lambda a, b: (a @ np.ascontiguousarray(b) if b.strides[-1] < 0 and a.shape[-2] == 1
                       else _ROWS(a, b))],
        ids=["pairwise", "fused-multiply-add", "blas", "one-row blas", "backwards blas",
             "backwards one-row blas"])
    def test_probe_refuses_any_other_order(self, monkeypatch, other):
        # if numpy's loop summed in another order, fused the multiply-add or
        # went to BLAS, in any form of _rows (one row or several, a right
        # operand stored forwards or backwards), the probe fails and every
        # product takes the fold
        monkeypatch.setattr(tensor_ops, "_rows", other)
        assert tensor_ops._rows_exact() is False
        monkeypatch.setattr(tensor_ops, "_ROWS_EXACT", tensor_ops._rows_exact())
        rng = np.random.default_rng(43)
        for m, k, n in [(3, 67, 5), (16, 32, 96), (1, 40, 8)]:
            a, b = wide(rng, (m, k)), wide(rng, (k, n))
            assert_scalar_fold(matmul(a, b), a, b, (m, k, n))

    @pytest.mark.parametrize(
        "a_shape, b_shape, pattern",
        [
            ((2, 3, 4), (3, 4, 5), r"2x3x4 times 3x4x5"),
            ((2, 3, 4), (2, 5, 6), r"2x3x4 times 2x5x6"),
            ((2, 3, 4), (4, 5), r"2x3x4 times 4x5"),
            ((3, 4), (2, 4, 5), r"3x4 times 2x4x5"),
            ((1, 2, 3, 4), (1, 2, 4, 5), r"1x2x3x4 times 1x2x4x5"),
        ],
    )
    def test_batched_mismatch_names_both_shapes(self, a_shape, b_shape, pattern):
        with pytest.raises(ShapeError, match=pattern):
            matmul(np.zeros(a_shape), np.zeros(b_shape))

    @on_both_paths
    def test_repeat_runs_bit_identical(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(9, 7))
        b = rng.normal(size=(7, 5))
        assert matmul(a, b).tobytes() == matmul(a, b).tobytes()

    @on_both_paths
    def test_perm_conjugation_cancels_exactly_on_integers(self):
        # With integer-valued entries every partial sum is exact, so
        # (A P^T)(P x) = A x holds bitwise, any permutation.
        rng = np.random.default_rng(11)
        a = rng.integers(-9, 10, size=(5, 6)).astype(np.float64)
        x = rng.integers(-9, 10, size=(6, 3)).astype(np.float64)
        p = perm_matrix(PermTable.random(6, rng))
        lhs = matmul(matmul(a, p.T), matmul(p, x))
        assert np.array_equal(lhs, matmul(a, x))

    def test_perm_conjugation_cancels_on_floats(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(4, 8))
        x = rng.normal(size=(8, 2))
        p = perm_matrix(PermTable.random(8, rng))
        lhs = matmul(matmul(a, p.T), matmul(p, x))
        ref = matmul(a, x)
        assert np.max(np.abs(lhs - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))

    @settings(derandomize=True, max_examples=100)
    @given(
        hnp.arrays(np.float64, (3, 4), elements=finite_elems),
        hnp.arrays(np.float64, (4, 2), elements=finite_elems),
        hnp.arrays(np.float64, (4, 2), elements=finite_elems),
    )
    def test_linearity(self, a, x, y):
        lhs = matmul(a, x + y)
        rhs = matmul(a, x) + matmul(a, y)
        # 1e-12 is a relative bound here: intermediates reach 1e6 where one
        # ulp is already ~1e-10, so an absolute 1e-12 is not representable
        scale = 1.0 + np.abs(rhs)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


def test_fold_path_gives_every_pinned_digest():
    # every golden test of the suite again, in a child pytest whose products
    # all take _fold, the path of a numpy whose import probe fails; its name
    # holds no "golden", so the child does not run it again
    src = Path(tensor_ops.__file__).resolve().parents[1]
    code = ("import sys, pytest, eeinfer.tensor_ops as t; t._ROWS_EXACT = False; "
            "rc = pytest.main(sys.argv[1:]); sys.exit(rc or t._ROWS_EXACT is not False)")
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    tests = Path(__file__).resolve().parent
    run = subprocess.run(
        [sys.executable, "-c", code, "-q", "-p", "no:cacheprovider", "-k", "golden", str(tests)],
        cwd=tests.parent, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    # 24 golden tests when this test was written
    passed = re.search(r"(\d+) passed", run.stdout)
    assert passed and int(passed.group(1)) >= 24 and "skipped" not in run.stdout, run.stdout


class TestSoftmax:
    def test_constant_row_uniform(self):
        got = softmax_rows([[4.2, 4.2, 4.2]])
        assert np.allclose(got, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_closed_form_row(self):
        got = softmax_rows([[0.0, math.log(2.0)]])
        assert got[0, 0] == pytest.approx(1 / 3, abs=1e-15)
        assert got[0, 1] == pytest.approx(2 / 3, abs=1e-15)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 50, (20, 13))
        p = softmax_rows(x)
        assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(p > 0)

    def test_neg_inf_mask_gives_exact_zero(self):
        p = softmax_rows([[1.0, -np.inf, 2.0]])
        assert p[0, 1] == 0.0
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_all_masked_row_raises(self):
        with pytest.raises(NumericsError):
            softmax_rows([[-np.inf, -np.inf]])

    def test_nan_raises(self):
        with pytest.raises(NumericsError):
            softmax_rows([[0.0, np.nan]])

    def test_pos_inf_raises(self):
        with pytest.raises(NumericsError):
            softmax_rows([[0.0, np.inf]])

    @pytest.mark.parametrize(
        "rows, pattern",
        [
            ([[0.0, np.inf], [np.nan, 1.0]], "NaN"),
            ([[np.nan, np.inf], [-np.inf, -np.inf]], "NaN"),
            ([[-np.inf, -np.inf], [0.0, np.inf]], r"\+inf"),
            ([[-np.inf, -np.inf], [0.0, 1.0]], "fully masked"),
        ],
    )
    def test_bad_input_precedence(self, rows, pattern):
        # NaN anywhere outranks +inf anywhere, which outranks a masked row
        with pytest.raises(NumericsError, match=pattern):
            softmax_rows(rows)

    def test_zero_columns_raise_shape_error(self):
        with pytest.raises(ShapeError, match="zero columns"):
            softmax_rows(np.zeros((3, 0)))

    def test_masked_tail_leaves_row_bit_identical(self):
        # a causal row followed by j masked entries, as in a full forward
        # pass, must equal the same row fed alone, as in a cached step
        rng = np.random.default_rng(21)
        for length in range(1, 65):
            row = rng.normal(0, 3, (1, length))
            alone = softmax_rows(row).tobytes()
            for j in (1, 7, 8, 64 - length + 1):
                padded = np.concatenate((row, np.full((1, j), -np.inf)), axis=1)
                assert softmax_rows(padded)[:, :length].tobytes() == alone, (length, j)

    @settings(derandomize=True, max_examples=100)
    @given(matrix_and_col_perm())
    def test_permutation_equivariance(self, mp):
        x, idx = mp
        lhs = softmax_rows(x[:, idx])
        rhs = softmax_rows(x)[:, idx]
        # max-subtraction bounds every exp by 1, so reordering the row sum
        # moves the result by at most a few ulps
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestActivate:
    def test_relu_cases(self):
        got = activate("relu", [[-1.0, 2.0]])
        assert np.array_equal(got, [[0.0, 2.0]])

    def test_silu_at_zero(self):
        assert activate("silu", [[0.0]])[0, 0] == 0.0

    def test_gelu_at_one_matches_erf_oracle(self):
        got = activate("gelu", [[1.0]])[0, 0]
        assert got == pytest.approx(GELU_AT_ONE, abs=1e-15)
        assert got == pytest.approx(0.841345, abs=1e-6)

    def test_silu_extreme_negative_no_overflow(self):
        got = activate("silu", [[-1e4]])[0, 0]
        assert got == 0.0 or abs(got) < 1e-300

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError, match="unknown activation"):
            activate("tanh", [[1.0]])

    @settings(derandomize=True, max_examples=120)
    @given(matrix_and_col_perm(), st.sampled_from(["relu", "gelu", "silu"]))
    def test_permutation_equivariance_exact(self, mp, kind):
        x, idx = mp
        lhs = activate(kind, x[:, idx])
        rhs = activate(kind, x)[:, idx]
        assert np.array_equal(lhs, rhs)


class TestNorms:
    def test_layer_norm_constant_row_is_zero(self):
        x = np.full((1, 5), 3.7)
        got = layer_norm(x, np.ones(5), np.zeros(5))
        assert np.allclose(got, 0.0, atol=1e-12)

    def test_layer_norm_hand_case(self):
        got = layer_norm([[1.0, 3.0]], [1.0, 1.0], [0.0, 0.0], eps=0.0)
        assert np.allclose(got, [[-1.0, 1.0]], atol=1e-15)

    def test_layer_norm_length_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(np.zeros((1, 4)), np.ones(3), np.zeros(4))

    def test_rms_norm_ones_fixed_point(self):
        got = rms_norm(np.ones((2, 6)), np.ones(6), eps=0.0)
        assert np.array_equal(got, np.ones((2, 6)))

    def test_rms_norm_hand_case(self):
        got = rms_norm([[3.0, 4.0]], [1.0, 1.0], eps=0.0)
        expect = np.array([[3.0, 4.0]]) / math.sqrt(12.5)
        assert np.allclose(got, expect, atol=1e-15)
        assert got[0, 0] == pytest.approx(0.848528, abs=1e-6)
        assert got[0, 1] == pytest.approx(1.131371, abs=1e-6)

    def test_rms_norm_length_mismatch(self):
        with pytest.raises(ShapeError):
            rms_norm(np.zeros((1, 4)), np.ones(5))

    @settings(derandomize=True, max_examples=150)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 200), st.floats(-5, 5), st.floats(-5, 5))
    def test_means_match_ndarray_mean(self, seed, cols, e1, e2):
        # the norms take their means as add.reduce / n, which is what
        # ndarray.mean computes; widths of 8 and more sum pairwise
        rng = np.random.default_rng(seed)
        exponents = rng.uniform(min(e1, e2), max(e1, e2), (3, cols))
        x = rng.normal(0, 1, (3, cols)) * 10.0**exponents
        gamma = rng.normal(0, 1, cols)
        beta = rng.normal(0, 1, cols)
        centered = x - x.mean(axis=1, keepdims=True)
        var = (centered * centered).mean(axis=1, keepdims=True)
        expect = centered / np.sqrt(var + 1e-5) * gamma + beta
        assert layer_norm(x, gamma, beta).tobytes() == expect.tobytes()
        expect = x / np.sqrt((x * x).mean(axis=1, keepdims=True) + 1e-6) * gamma
        assert rms_norm(x, gamma).tobytes() == expect.tobytes()

    # Norm equivariance is stated for random inputs; seeds drive the draws so
    # hypothesis explores cases without crafting degenerate cancellations that
    # only reflect float summation order, not the operator.
    @settings(derandomize=True, max_examples=150)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 24))
    def test_layer_norm_permutation_equivariance(self, seed, cols):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 3, (4, cols))
        gamma = rng.normal(0, 1, cols)
        beta = rng.normal(0, 1, cols)
        idx = rng.permutation(cols)
        lhs = layer_norm(x[:, idx], gamma[idx], beta[idx])
        rhs = layer_norm(x, gamma, beta)[:, idx]
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @settings(derandomize=True, max_examples=150)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 24))
    def test_rms_norm_permutation_equivariance(self, seed, cols):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 3, (4, cols))
        gamma = rng.normal(0, 1, cols)
        idx = rng.permutation(cols)
        lhs = rms_norm(x[:, idx], gamma[idx])
        rhs = rms_norm(x, gamma)[:, idx]
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestPermTable:
    def test_rejects_non_bijection(self):
        with pytest.raises(ConfigError):
            PermTable(np.array([0, 0, 2]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            PermTable(np.array([1, 2, 3]))

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            PermTable(np.array([], dtype=np.int64))

    def test_identity(self):
        p = PermTable.identity(5)
        assert p.is_identity
        assert np.array_equal(p.map[[3, 0]], [3, 0])

    def test_double_inverse_is_original(self):
        rng = np.random.default_rng(5)
        p = PermTable.random(17, rng)
        assert p.inverse().inverse() == p

    def test_apply_inverse_round_trip_exact(self):
        rng = np.random.default_rng(6)
        p = PermTable.random(40, rng)
        v = rng.integers(0, 40, size=100)
        assert np.array_equal(p.map[p.inverse().map[v]], v)
        assert np.array_equal(p.inverse().map[p.map[v]], v)

    def test_matrix_convention(self):
        # P[map[i], i] = 1: P @ e_i lands on coordinate map[i]
        p = PermTable(np.array([2, 0, 1]))
        m = perm_matrix(p)
        e0 = np.zeros((3, 1))
        e0[0, 0] = 1.0
        assert np.argmax(matmul(m, e0)) == 2

    def test_map_is_write_protected(self):
        p = PermTable.identity(3)
        with pytest.raises(ValueError):
            p.map[0] = 5

    @settings(derandomize=True, max_examples=100)
    @given(st.permutations(range(9)))
    def test_inverse_composes_to_identity(self, perm):
        p = PermTable(np.asarray(perm, dtype=np.int64))
        assert np.array_equal(p.map[p.inv_map], np.arange(9))
        assert np.array_equal(p.inv_map[p.map], np.arange(9))


def test_as_matrix_accepts_lists():
    m = as_matrix([[1, 2]])
    assert m.dtype == np.float64 and m.shape == (1, 2)



LAYOUTS = {
    "C": lambda x: x,
    "F": np.asfortranarray,
    "reversed-stride": lambda x: np.ascontiguousarray(x[::-1, ::-1])[::-1, ::-1],
}


@pytest.mark.parametrize("layout", LAYOUTS)
@settings(deadline=None, derandomize=True, max_examples=150)
@given(st.integers(0, 2**31 - 1), st.integers(1, 300), st.integers(1, 6), st.integers(0, 60))
def test_norm_rows_equal_each_row_alone(layout, seed, width, rows, spread):
    # a prefill's norm rows must have the bytes of the one-row decode steps,
    # whatever the layout; widths cross the pairwise sum's blocks of 8 and 128
    rng = np.random.default_rng(seed)
    shape = (rows, width)
    x = rng.normal(size=shape) * 2.0 ** rng.integers(-spread // 2, spread // 2 + 1, size=shape)
    x[rng.random(shape) < 0.1] = -0.0
    x[rng.random(shape) < 0.1] = 0.0
    g, beta = rng.normal(size=width), rng.normal(size=width)
    x = LAYOUTS[layout](x)
    kernels = [
        ("layer_norm", lambda v: layer_norm(v, g, beta)),
        ("rms_norm", lambda v: rms_norm(v, g)),
        ("model layer_norm", lambda v: eeinfer.model.layer_norm(v, g, beta, eps=1e-5)),
        ("model rms_norm", lambda v: eeinfer.model.rms_norm(v, g, eps=1e-6)),
    ]
    for name, kernel in kernels:
        got = kernel(x)
        for i in range(rows):
            assert got[i].tobytes() == kernel(x[i : i + 1]).tobytes(), (name, i)


@settings(deadline=None, derandomize=True, max_examples=80)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(0, 40), st.integers(1, 20),
       st.sampled_from([(), (3,)]), st.booleans())
@on_both_paths
def test_model_kernels_give_the_public_kernels_bytes(seed, m, k, n, batch, transposed):
    # the model binds the unchecked bodies under the public names; on valid
    # operands they must be the same arithmetic, on either matmul path
    rng = np.random.default_rng(seed)
    a, b = wide(rng, batch + (m, k)), wide(rng, batch + (k, n))
    x, g, beta = wide(rng, (m, n)), wide(rng, (n,)), wide(rng, (n,))
    for arr in (a, b, x):
        arr[rng.random(arr.shape) < 0.2] = -0.0
        arr[rng.random(arr.shape) < 0.1] = 0.0
    if transposed:
        a, x = (np.ascontiguousarray(v.swapaxes(-1, -2)).swapaxes(-1, -2) for v in (a, x))
        b = b[..., ::-1, :]
    assert eeinfer.model.matmul(a, b).tobytes() == matmul(a, b).tobytes()
    assert (eeinfer.model.layer_norm(x, g, beta, eps=1e-5).tobytes()
            == layer_norm(x, g, beta, eps=1e-5).tobytes())
    assert eeinfer.model.rms_norm(x, g, eps=1e-6).tobytes() == rms_norm(x, g, eps=1e-6).tobytes()


def _kernel_cases() -> list[tuple[str, object, tuple[np.ndarray, ...]]]:
    """(case, kernel, inputs): every kernel on C-ordered inputs and on
    transposed views, with the shapes the model passes."""
    rng = np.random.default_rng(3)
    x, w = rng.normal(size=(6, 5)), rng.normal(size=(5, 4))
    g, b = rng.normal(size=5), rng.normal(size=5)
    xt = np.ascontiguousarray(x.T).T  # x's values as a transposed view
    heads = rng.normal(size=(3, 4, 5))
    scores = x.copy()
    scores[1:, -1] = -np.inf  # masked attention positions
    cases = [
        ("matmul", matmul, (x, w)),
        ("matmul transposed", matmul, (xt, np.ascontiguousarray(w.T).T)),
        ("matmul one column", matmul, (xt, w[:, :1])),
        ("matmul batched keys", matmul, (heads[:, :2], heads.transpose(0, 2, 1))),
        ("softmax_rows", softmax_rows, (scores,)),
        ("softmax_rows transposed", softmax_rows, (np.ascontiguousarray(scores.T).T,)),
        ("layer_norm", layer_norm, (x, g, b)),
        ("layer_norm transposed", layer_norm, (xt, g, b)),
        ("rms_norm", rms_norm, (x, g)),
        ("rms_norm transposed", rms_norm, (xt, g)),
    ]
    for kind in ACTIVATION_KINDS:
        act = functools.partial(activate, kind)
        cases += [(kind, act, (x,)), (f"{kind} transposed", act, (xt,))]
    return cases


KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("name, kernel, inputs", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_kernels_leave_inputs_unchanged_and_take_read_only_inputs(name, kernel, inputs):
    before = [arr.tobytes() for arr in inputs]
    got = kernel(*inputs)
    assert [arr.tobytes() for arr in inputs] == before
    # model tensors are read-only, and a kernel gives the same bytes on them
    frozen = [arr.copy() for arr in inputs]
    for arr in frozen:
        arr.setflags(write=False)
    assert kernel(*frozen).tobytes() == got.tobytes()
