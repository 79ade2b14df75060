import numpy as np
import pytest

from polyjac import row_scale, col_scale


class TestRowColScale:
    def test_row_scale_identity(self):
        out = row_scale(np.eye(3), [1.0, 2.0, 3.0])
        assert np.array_equal(out, np.diag([1.0, 2.0, 3.0]))

    def test_row_scale_column_vector_is_elementwise(self, rng):
        a = rng.standard_normal((4, 1))
        u = rng.standard_normal(4)
        assert np.array_equal(row_scale(a, u), a * u[:, None])

    def test_row_scale_matches_diag_product(self, rng):
        a = rng.standard_normal((5, 4))
        u = rng.standard_normal(5)
        np.testing.assert_allclose(row_scale(a, u), np.diag(u) @ a, rtol=1e-15)

    def test_row_scale_action_commutes(self, rng):
        # row_scale(a, u) @ x = diag(u) @ (a @ x)
        a = rng.standard_normal((5, 5))
        u, x = rng.standard_normal((2, 5))
        np.testing.assert_allclose(row_scale(a, u) @ x, u * (a @ x), rtol=1e-13)

    def test_col_scale_identity(self):
        out = col_scale([1.0, 2.0, 3.0], np.eye(3))
        assert np.array_equal(out, np.diag([1.0, 2.0, 3.0]))

    def test_col_scale_ones_unchanged(self, rng):
        a = rng.standard_normal((3, 4))
        assert np.array_equal(col_scale(np.ones(4), a), a)

    def test_col_scale_matches_diag_product(self, rng):
        a = rng.standard_normal((4, 5))
        v = rng.standard_normal(5)
        np.testing.assert_allclose(col_scale(v, a), a @ np.diag(v), rtol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            row_scale(np.eye(3), [1.0, 2.0])
        with pytest.raises(ValueError, match="length mismatch"):
            col_scale([1.0, 2.0], np.eye(3))

    def test_a_vector_a_is_a_column(self):
        a = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(row_scale(a, [2.0, 3.0, 4.0]), np.array([[2.0], [-6.0], [12.0]]))
        assert np.array_equal(col_scale([2.0], a), np.array([[2.0], [-4.0], [6.0]]))

    @pytest.mark.parametrize("scale", [row_scale, lambda a, u: col_scale(u, a)], ids=["row_scale", "col_scale"])
    def test_a_must_be_a_finite_matrix(self, scale):
        with pytest.raises(ValueError, match=r"^a must be a matrix, got ndim=3$"):
            scale(np.ones((2, 2, 2)), [1.0, 1.0])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=r"^a contains non-finite entries$"):
                scale(np.array([[1.0, bad], [0.0, 1.0]]), [1.0, 1.0])
