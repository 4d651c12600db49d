import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointlabel.linalg import ShapeError, matmul


def f32(x):
    return np.array(x, dtype=np.float32)


class TestMatmul:
    def test_identity(self):
        m = f32([[1, 2], [3, 4]])
        assert np.array_equal(matmul(np.eye(2, dtype=np.float32), m), m)

    def test_hand_expansion(self):
        # 1*3 + 2*4
        out = matmul(f32([[1, 2]]), f32([[3], [4]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_empty_inner_dimension(self):
        out = matmul(np.zeros((1, 0), dtype=np.float32),
                     np.zeros((0, 1), dtype=np.float32))
        assert out.shape == (1, 1)
        assert out[0, 0] == 0.0

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 2\).*\(3, 1\)"):
            matmul(np.zeros((1, 2)), np.zeros((3, 1)))

    def test_float32_in_float32_out(self):
        out = matmul(f32([[1.5]]), f32([[2.0]]))
        assert out.dtype == np.float32

    def test_float64_preserved(self):
        out = matmul(np.ones((2, 2)), np.ones((2, 2)))
        assert out.dtype == np.float64

    def test_associativity(self, rng):
        for _ in range(20):
            a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            assert np.allclose(left, right, rtol=1e-6)

    def test_bit_reproducible(self, rng):
        a = rng.standard_normal((64, 32)).astype(np.float32)
        b = rng.standard_normal((32, 16)).astype(np.float32)
        assert np.array_equal(matmul(a, b), matmul(a, b))



class TestPrecision:
    def test_float32_form_is_the_blas_product(self, rng):
        a = rng.standard_normal((37, 300)).astype(np.float32)
        b = rng.standard_normal((300, 45)).astype(np.float32)
        out = matmul(a, b, exact=False)
        assert out.dtype == np.float32
        assert out.tobytes() == (a @ b).tobytes()

    def test_float64_operands_ignore_the_form(self, rng):
        a = rng.standard_normal((37, 300))
        b = rng.standard_normal((300, 45))
        fast = matmul(a, b, exact=False)
        assert fast.dtype == np.float64
        assert fast.tobytes() == matmul(a, b).tobytes()

    def test_exact_form_rounds_the_float64_product_once(self, rng):
        a = rng.standard_normal((20, 64)).astype(np.float32)
        b = rng.standard_normal((64, 8)).astype(np.float32)
        want = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
        assert matmul(a, b).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 64), k=st.sampled_from([9, 64, 300, 2112]),
           n=st.sampled_from([1, 64, 256]), seed=st.integers(0, 2 ** 32 - 1))
    def test_exact_rows_do_not_depend_on_their_neighbours(self, m, k, n, seed):
        # what eval forwards rely on: a chunk of blocks gives each row the
        # bits a forward of that row alone gives
        rng = np.random.default_rng(seed)
        a = np.maximum(rng.standard_normal((m, k)), 0).astype(np.float32)
        b = rng.uniform(-0.05, 0.05, (k, n)).astype(np.float32)
        out = matmul(a, b)
        for i in range(m):
            assert out[i].tobytes() == matmul(a[i:i + 1], b)[0].tobytes()
