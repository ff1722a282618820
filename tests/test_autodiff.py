"""Finite-difference checks for every op of the composed oracle
(``tests/tape_reference.py``) that the closed-form losses are held to, and
for ``lexjudge.autodiff.Segments``, the kernel that groups rows and
scatters a row gather's gradient back onto the rows."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tape_reference as ref
from lexjudge import autodiff as ad
from lexjudge.autodiff import Segments


def finite_difference(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up = f(x)
        flat[i] = original - step
        down = f(x)
        flat[i] = original
        out[i] = (up - down) / (2 * step)
    return grad


def check(build, shape, seed, atol=1e-7, rtol=1e-5):
    """``build`` maps a ``ref.Tensor`` to a scalar; its gradient must match
    central differences."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    leaf = ref.Tensor(x.copy(), requires_grad=True)
    build(leaf).backward()
    numeric = finite_difference(lambda arr: float(build(ref.Tensor(arr)).data), x)
    np.testing.assert_allclose(leaf.grad, numeric, atol=atol, rtol=rtol)


def gather_grad(x: np.ndarray, index, weights) -> np.ndarray:
    """The gradient in ``x`` of ``sum(x[index] * weights)``, as the
    objectives' backward steps take a row gather's: the output gradient
    scattered back onto the rows by ``Segments``."""
    idx = np.asarray(index, dtype=np.intp)
    g = np.broadcast_to(weights, idx.shape + x.shape[1:])
    return Segments(idx, len(x)).reduce(np.add, g.reshape((idx.size,) + x.shape[1:]), 0.0)


def check_gather(index, shape, weights, seed):
    """``gather_grad`` against central differences."""
    x = np.random.default_rng(seed).normal(size=shape)
    idx = np.asarray(index, dtype=np.intp)
    numeric = finite_difference(lambda arr: float((arr[idx] * weights).sum()), x.copy())
    np.testing.assert_allclose(gather_grad(x, idx, weights), numeric, atol=1e-7, rtol=1e-5)


class TestElementwiseOps:
    """The oracle's elementwise ops."""

    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(0)
        other = rng.normal(size=(1, 4))
        check(lambda t: ((t + ref.Tensor(other)) * (t * 2.0)).sum(), (3, 4), seed=1)

    def test_sub_div(self):
        denom = np.array([1.5, -2.0, 3.0, 0.7])
        check(lambda t: ((t - 1.0) / ref.Tensor(denom)).sum(), (4,), seed=2)

    def test_tanh_exp_log_sqrt(self):
        check(lambda t: (t.tanh().exp()).sum(), (5,), seed=3)
        check(lambda t: ((t * t) + 1.0).log().sum(), (5,), seed=4)
        check(lambda t: ((t * t) + 0.5).sqrt().sum(), (5,), seed=5)

    def test_elu_and_leaky_relu(self):
        # keep values away from the kink at zero
        rng = np.random.default_rng(6)
        x = rng.normal(size=8)
        x[np.abs(x) < 0.1] += 0.5
        for build in (lambda t: ref.elu(t).sum(), lambda t: ref.leaky_relu(t, 0.2).sum()):
            leaf = ref.Tensor(x.copy(), requires_grad=True)
            build(leaf).backward()
            numeric = finite_difference(lambda arr: float(build(ref.Tensor(arr)).data), x.copy())
            np.testing.assert_allclose(leaf.grad, numeric, atol=1e-7, rtol=1e-5)

    def test_elu_values(self):
        out = ref.elu(ref.Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [np.expm1(-1.0), 0.0, 2.0])

    def test_leaky_relu_values(self):
        out = ref.leaky_relu(ref.Tensor([-1.0, 2.0]), 0.2)
        np.testing.assert_allclose(out.data, [-0.2, 2.0])


class TestMatmul:
    """The oracle's matmul and transpose."""

    def test_matrix_matrix(self):
        rng = np.random.default_rng(7)
        b = rng.normal(size=(4, 3))
        check(lambda t: (t @ ref.Tensor(b)).sum(), (2, 4), seed=8)

    def test_matrix_vector(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=4)
        check(lambda t: (t @ ref.Tensor(v)).sum(), (3, 4), seed=10)

    def test_vector_grad_side(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(5, 3))
        check(lambda t: (ref.Tensor(m) @ t).sum(), (3,), seed=12)

    def test_dot(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=6)
        check(lambda t: t @ ref.Tensor(v), (6,), seed=14)

    def test_transpose(self):
        rng = np.random.default_rng(15)
        b = rng.normal(size=(2, 4))
        check(lambda t: (t.T @ ref.Tensor(b)).sum(), (2, 3), seed=16)


class TestTMatmul:
    """``t_matmul`` zero-pads both operands' rows to a multiple of 32 before
    the product. ``tests/test_blas_threads.py`` shows why only on a host
    where one and two BLAS threads round apart; this checks the operands
    on any host."""

    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [((45, 3), (45, 5)), ((2, 33, 3), (2, 33, 4)), ((64, 2), (64, 1))],
        ids=["45-rows", "stacked-33-rows", "64-rows"],
    )
    def test_product_operands_have_rows_padded_to_32(self, monkeypatch, shape_a, shape_b):
        products = []

        class Recorded(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                products.append((ufunc, [x.shape for x in inputs]))
                return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

        class Numpy:  # numpy, with the transposed operand recording its product
            def __getattr__(self, name):
                return getattr(np, name)

            def swapaxes(self, a, *axes):
                return np.swapaxes(a, *axes).view(Recorded)

        monkeypatch.setattr(ad, "np", Numpy())
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)
        out = ad.t_matmul(a, b)
        rows = -(-shape_a[-2] // 32) * 32
        operands = [shape_a[:-2] + (shape_a[-1], rows), shape_b[:-2] + (rows, shape_b[-1])]
        assert products == [(np.matmul, operands)]
        np.testing.assert_allclose(out, np.swapaxes(a, -1, -2) @ b, rtol=0, atol=1e-12)


class TestStructuralOps:
    """A row gather's gradient is ``Segments``'; the rest are the oracle's."""

    def test_gather_rows_accumulates_duplicates(self):
        check_gather(np.array([0, 1, 1, 2]), (3, 2), 2.0, seed=19)

    def test_segment_sum(self):
        seg = np.array([0, 0, 1, 2, 2, 2])
        weights = ref.Tensor(np.array([[1.0], [2.0], [3.0]]))
        check(lambda t: (ref.segment_sum(t, seg, 3) * weights).sum(), (6, 2), seed=20)

    def test_reshape(self):
        check(lambda t: (t.reshape((6,)) * np.arange(6.0)).sum(), (2, 3), seed=21)

    def test_mean(self):
        check(lambda t: t.mean(), (7,), seed=22)
        check(lambda t: (t.mean(axis=1) * np.array([1.0, -2.0])).sum(), (2, 5), seed=23)


class TestSegmentKernel:
    """The row-grouping ops on ids that are unsorted, repeated, or leave a
    segment empty, for ``(E,)``, ``(E, H)`` and ``(E, H, d)`` inputs: the
    gradient of a row gather through ``Segments``, and the oracle's segment
    sum and softmax."""

    IDS = np.array([3, 0, 3, 1, 0, 3, 1])  # segment 2 receives no rows
    SHAPES = [(7,), (7, 2), (7, 2, 3)]

    def weights(self, shape, seed):
        return np.random.default_rng(seed).normal(size=shape)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gather_rows_grad(self, shape):
        weights = self.weights((len(self.IDS),) + shape[1:], 40)
        check_gather(self.IDS, (5,) + shape[1:], weights, seed=41)

    def test_gather_rows_two_dim_index_grad(self):
        idx = np.array([[4, 0, 4], [2, 2, 1]])
        check_gather(idx, (5, 2), self.weights((2, 3, 2), 42), seed=43)

    def test_gather_rows_unselected_rows_get_zero_grad(self):
        grad = gather_grad(np.ones((5, 2)), self.IDS, 2.0)
        counts = np.bincount(self.IDS, minlength=5)
        np.testing.assert_array_equal(grad, 2.0 * counts[:, None] * np.ones((5, 2)))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_segment_sum_values_and_grad(self, shape):
        x = self.weights(shape, 44)
        expected = np.zeros((5,) + shape[1:])
        for row, seg in enumerate(self.IDS):
            expected[seg] += x[row]
        out = ref.segment_sum(ref.Tensor(x), self.IDS, 5).data
        np.testing.assert_allclose(out, expected, atol=1e-15)
        assert not out[2].any() and not out[4].any()
        np.testing.assert_array_equal(Segments(self.IDS, 5).reduce(np.add, x, 0.0), out)
        weights = ref.Tensor(self.weights((5,) + shape[1:], 45))
        check(lambda t: (ref.segment_sum(t, self.IDS, 5) * weights).sum(), shape, seed=46)

    @pytest.mark.parametrize("shape", SHAPES[:2])
    def test_segment_softmax_values_and_grad(self, shape):
        x = self.weights(shape, 47) * 3
        alpha = ref.segment_softmax(ref.Tensor(x), self.IDS, 5).data
        for seg in (0, 1, 3):
            rows = x[self.IDS == seg]
            expected = np.exp(rows - rows.max(axis=0)) / np.exp(rows - rows.max(axis=0)).sum(axis=0)
            np.testing.assert_allclose(alpha[self.IDS == seg], expected, atol=1e-15)
        weights = ref.Tensor(self.weights(shape, 48))
        check(
            lambda t: (ref.segment_softmax(t, self.IDS, 5) * weights).sum(),
            shape,
            seed=49,
        )

    def test_segment_softmax_large_logits_finite(self):
        alpha = ref.segment_softmax(
            ref.Tensor([1000.0, 999.0, -1000.0]), np.array([1, 1, 0]), 3
        )
        np.testing.assert_allclose(alpha.data, [1 / (1 + np.exp(-1.0)), 1 / (1 + np.e), 1.0])

    def test_no_rows_at_all(self):
        empty = np.zeros(0, dtype=np.intp)
        out = Segments(empty, 3).reduce(np.add, np.zeros((0, 2)), 0.0)
        np.testing.assert_array_equal(out, np.zeros((3, 2)))
        np.testing.assert_array_equal(gather_grad(np.ones((3, 2)), empty, 1.0), np.zeros((3, 2)))


def scatter_calls(source: str) -> list[str]:
    """Every ``<name>.add.at`` / ``<name>.maximum.at`` in a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "at"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in ("add", "maximum")
        ):
            found.append(f"line {node.lineno}: .{node.value.attr}.at")
    return found


def test_no_unbuffered_scatter_in_the_package():
    package = Path(ad.__file__).resolve().parent
    found = {
        path.name: calls
        for path in sorted(package.glob("*.py"))
        if (calls := scatter_calls(path.read_text(encoding="utf-8")))
    }
    assert not found
    assert scatter_calls("import numpy as np\nnp.add.at(a, i, b)\nnp.maximum.at(a, i, b)\n")


KERNEL_CALLS = {"reduceat", "argsort"}


def kernel_uses(path: Path) -> list[str]:
    """``<module>.<scope>`` for every ``reduceat`` or ``argsort`` a source
    file names, called or not."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if isinstance(node, (ast.Attribute, ast.Name)) and name in KERNEL_CALLS:
            found.append(f"{scope}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_segments_is_the_one_grouping_kernel():
    """Rows are grouped only by ``autodiff.Segments``, so every grouping
    gets its plan and its bit-for-bit ``reduceat`` order from one place."""
    package = Path(ad.__file__).resolve().parent
    uses = [use for path in sorted(package.glob("*.py")) for use in kernel_uses(path)]
    assert uses and all(use.startswith("autodiff.Segments.") for use in uses), uses


# Values whose sums and maxima depend on order and sign: signed zeros,
# infinities (inf - inf is NaN) and NaN.
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.25, 1e300, -1e-300])


def assert_same_bits(out: np.ndarray, expected: np.ndarray) -> None:
    np.testing.assert_array_equal(out, expected)
    assert np.array_equal(np.signbit(out), np.signbit(expected))
    assert out.dtype == expected.dtype == np.float64
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))


def grouping(lengths, width, seed, shuffle, special_share):
    """Ids with ``lengths[s]`` rows in segment s (sorted, or shuffled),
    and (rows, width) values with a share of them special."""
    rng = np.random.default_rng(seed)
    ids = np.repeat(np.arange(len(lengths)), lengths)
    if shuffle:
        ids = rng.permutation(ids)
    values = rng.normal(size=(ids.size, width)) * 10.0 ** rng.integers(-3, 4, (ids.size, width))
    special = rng.random(values.shape) < special_share
    values[special] = rng.choice(SPECIAL, size=int(special.sum()))
    return ids, values


class TestSegments:
    """``Segments.reduce`` against the sort-then-``reduceat`` oracle, bit
    for bit."""

    def check(self, ids, values, num_segments):
        segments = Segments(ids, num_segments)
        with np.errstate(invalid="ignore", over="ignore"):
            for ufunc, fill in ((np.add, 0.0), (np.maximum, -np.inf)):
                expected = ref._segment_reduce(ufunc, values, ids, num_segments, fill)
                assert_same_bits(segments.reduce(ufunc, values, fill), expected)

    @given(
        lengths=st.lists(
            st.one_of(st.integers(0, 12), st.sampled_from([100, 131])), min_size=1, max_size=7
        ),
        width=st.sampled_from([1, 4, 12, 64, 256]),
        seed=st.integers(0, 2**32 - 1),
        shuffle=st.booleans(),
        special_share=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    )
    def test_matches_sort_then_reduceat(self, lengths, width, seed, shuffle, special_share):
        ids, values = grouping(lengths, width, seed, shuffle, special_share)
        self.check(ids, values, len(lengths) + 1)

    @pytest.mark.parametrize("width", [1, 4, 12, 64, 256])
    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize(
        "lengths", [[*range(13), 100, 131, 0, 3], [100, 0, 9, 131]], ids=["all", "long"]
    )
    def test_every_run_length_across_the_short_run_bound(self, width, shuffle, lengths):
        for special_share in (0.0, 0.3):
            ids, values = grouping(lengths, width, 17 + width, shuffle, special_share)
            self.check(ids, values, len(lengths))
        ids, _ = grouping(lengths, width, 18, shuffle, 0.0)
        zeros = np.where(np.random.default_rng(19).random((ids.size, width)) < 0.5, 0.0, -0.0)
        self.check(ids, zeros, len(lengths))

    def test_no_rows(self):
        self.check(np.zeros(0, dtype=np.intp), np.zeros((0, 64)), 3)

    def test_planning_imports_nothing(self):
        """Plans are made mid-fit, when the heap is at its largest; a module
        imported then (``np.unique`` imports ``numpy.ma``) keeps it from
        shrinking afterwards, which raised the benchmark's peak RSS."""
        code = (
            "import sys, numpy as np; from lexjudge.autodiff import Segments; "
            "before = set(sys.modules); "
            "Segments(np.array([2, 0, 0, 1, 9, 9, 9]), 10).reduce(np.add, np.ones((7, 64)), 0.0); "
            "print(sorted(set(sys.modules) - before))"
        )
        package_root = str(Path(ad.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": package_root}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_rows_of_any_shape(self):
        ids, values = grouping([3, 0, 9, 1], 48, 20, True, 0.1)
        self.check(ids, values.reshape(len(ids), 4, 12), 4)


class TestSoftmaxPieces:
    """The oracle's softmax ops and row normalization."""

    def test_logsumexp_matches_naive_and_grad(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(4, 5)) * 3
        t = ref.Tensor(x.copy(), requires_grad=True)
        out = ref.logsumexp(t, axis=1)
        naive = np.log(np.exp(x).sum(axis=1))
        np.testing.assert_allclose(out.data, naive, atol=1e-12)
        out.sum().backward()
        numeric = finite_difference(
            lambda arr: float(ref.logsumexp(ref.Tensor(arr), axis=1).sum().data), x.copy()
        )
        np.testing.assert_allclose(t.grad, numeric, atol=1e-7, rtol=1e-5)

    def test_logsumexp_extreme_values_finite(self):
        x = np.array([[1000.0, 999.0], [-1000.0, -1001.0]])
        out = ref.logsumexp(ref.Tensor(x), axis=1)
        assert np.all(np.isfinite(out.data))

    def test_segment_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(25)
        seg = np.array([0, 0, 0, 1, 1, 2])
        logits = ref.Tensor(rng.normal(size=6) * 5)
        alpha = ref.segment_softmax(logits, seg, 3).data
        for s in range(3):
            assert alpha[seg == s].sum() == pytest.approx(1.0, abs=1e-12)

    def test_segment_softmax_grad(self):
        seg = np.array([0, 0, 1, 1, 1])
        weights = np.array([1.0, -1.0, 2.0, 0.5, -0.5])
        check(
            lambda t: (ref.segment_softmax(t, seg, 2) * ref.Tensor(weights)).sum(),
            (5,),
            seed=26,
        )

    def test_l2_normalize_rows(self):
        rng = np.random.default_rng(27)
        weights = rng.normal(size=(3, 4))
        check(
            lambda t: (ref.l2_normalize_rows(t + 3.0) * ref.Tensor(weights)).sum(),
            (3, 4),
            seed=28,
        )
