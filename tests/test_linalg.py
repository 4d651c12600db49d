import numpy as np
import pytest

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

