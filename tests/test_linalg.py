import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ellipsim.linalg import (
    CholeskyFailure,
    PsdMatrix,
    chol_solve,
    is_symmetric,
    jittered_cholesky,
    logdet_potential,
    logdet_psd,
    min_eigenvalue,
    psd_order_holds,
    psd_sqrt,
    random_psd,
    rank_one_shrink,
    symmetrize,
)

RNG_SEED = 20240517


def make_spd(dim, rng, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T) / dim + 0.1 * np.eye(dim)


def test_symmetrize_averages_off_diagonal():
    m = np.array([[1.0, 2.0], [4.0, 3.0]])
    s = symmetrize(m)
    assert np.allclose(s, np.array([[1.0, 3.0], [3.0, 3.0]]))
    assert np.allclose(s, s.T)


def test_is_symmetric_relative_tolerance():
    m = np.array([[1.0, 1.0 + 1e-14], [1.0, 1.0]])
    assert is_symmetric(m)
    m = np.array([[1.0, 1.0 + 1e-6], [1.0, 1.0]])
    assert not is_symmetric(m)


def test_eigenvalue_helpers_match_numpy():
    rng = np.random.default_rng(RNG_SEED)
    m = make_spd(5, rng)
    eigs = np.linalg.eigvalsh(m)
    assert min_eigenvalue(m) == pytest.approx(eigs[0])


class TestPsdMatrix:
    def test_accepts_valid_matrix(self):
        rng = np.random.default_rng(RNG_SEED)
        m = make_spd(4, rng)
        p = PsdMatrix(m)
        assert p.dim == 4
        v = rng.standard_normal(4)
        assert p.quad_form(v) == pytest.approx(v @ m @ v)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            PsdMatrix(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            PsdMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    # named as non-finite, not as asymmetric, and without a RuntimeWarning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries_before_symmetry(self, bad):
        with pytest.raises(ValueError, match=rf"must be finite, got {bad} at \(0, 1\)$"):
            PsdMatrix(np.array([[1.0, bad], [0.0, 1.0]]))
        with pytest.raises(ValueError, match=rf"got {bad} at \(1, 0\) and 1 more$"):
            PsdMatrix(np.array([[1.0, 0.0], [bad, bad]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            PsdMatrix(np.diag([1.0, -1e-3]))

    def test_accepts_tiny_negative_eigenvalue(self):
        # rounding-level violations up to psd_slack pass through
        PsdMatrix(np.diag([1.0, -1e-12]))

    def test_unchecked_skips_eigenvalue_check(self):
        p = PsdMatrix.unchecked(np.diag([1.0, -0.5]))
        assert p.dim == 2

    def test_stored_array_is_readonly(self):
        p = PsdMatrix.identity(3)
        with pytest.raises(ValueError):
            p.mat[0, 0] = 2.0

    def test_array_protocol(self):
        p = PsdMatrix.identity(2)
        assert np.allclose(np.asarray(p), np.eye(2))

    def test_array_copy_is_fresh_and_writeable(self):
        p = PsdMatrix.identity(2)
        copy = np.array(p)
        assert not np.shares_memory(copy, p.mat)
        copy[0, 0] = 5.0
        assert p.mat[0, 0] == 1.0
        # asarray keeps the zero-copy view of the frozen buffer
        assert np.asarray(p) is p.mat


def test_jittered_cholesky_reconstructs_spd():
    rng = np.random.default_rng(RNG_SEED)
    m = make_spd(6, rng)
    low = jittered_cholesky(m)
    assert np.allclose(low @ low.T, m, atol=1e-10)


def test_jittered_cholesky_handles_singular():
    # rank-1 matrix needs the jitter path but must stay close
    v = np.array([1.0, 2.0, 3.0])
    m = np.outer(v, v)
    low = jittered_cholesky(m)
    assert np.allclose(low @ low.T, m, atol=1e-8)


def test_jittered_cholesky_rejects_indefinite():
    with pytest.raises(CholeskyFailure):
        jittered_cholesky(np.diag([1.0, -1.0]))


def test_jittered_cholesky_reads_only_the_lower_triangle():
    rng = np.random.default_rng(RNG_SEED)
    v = np.array([1.0, 2.0, 3.0])
    # a plain factorization and one that needs the jitter path
    for m in (make_spd(6, rng), np.outer(v, v)):
        scrambled = m.copy()
        upper = np.triu_indices(m.shape[0], 1)
        scrambled[upper] = rng.standard_normal(upper[0].size) * 1e3
        assert np.array_equal(jittered_cholesky(scrambled), jittered_cholesky(m))


def test_logdet_psd_matches_slogdet():
    rng = np.random.default_rng(RNG_SEED)
    for dim in (1, 3, 7):
        m = make_spd(dim, rng)
        sign, ref = np.linalg.slogdet(m)
        assert sign == 1.0
        assert logdet_psd(m) == pytest.approx(ref, abs=1e-10)


def test_logdet_psd_refuses_a_singular_matrix():
    # no jitter: the log of a jitter would read as a finite log-det
    with pytest.raises(np.linalg.LinAlgError):
        logdet_psd(np.diag([1.0, 0.0]))


def test_logdet_potential_matches_dense_formula():
    rng = np.random.default_rng(RNG_SEED)
    sigma = random_psd(4, 2.0, rng)
    for x in (0.0, 0.5, 10.0):
        _, ref = np.linalg.slogdet(np.eye(4) + x * sigma.mat)
        assert logdet_potential(sigma, x) == pytest.approx(ref, abs=1e-10)


def test_logdet_potential_rejects_negative_x():
    with pytest.raises(ValueError):
        logdet_potential(PsdMatrix.identity(2), -0.1)


def test_rank_one_shrink_matches_sherman_morrison():
    # oracle: invert, add the rank-one information term, invert back
    rng = np.random.default_rng(RNG_SEED)
    sigma = make_spd(5, rng)
    v = rng.standard_normal(5)
    expected = np.linalg.inv(np.linalg.inv(sigma) + np.outer(v, v))
    got = rank_one_shrink(PsdMatrix(sigma), v)
    assert np.allclose(got.mat, expected, atol=1e-10)


def test_rank_one_shrink_on_singular_matrix():
    sigma = PsdMatrix(np.diag([1.0, 0.0]))
    v = np.array([1.0, 1.0])
    got = rank_one_shrink(sigma, v)
    # the null space stays null and the active direction contracts
    assert got.mat[1, 1] == pytest.approx(0.0, abs=1e-15)
    assert got.mat[0, 0] == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(
    raw=arrays(np.float64, (3, 3), elements=st.floats(-2.0, 2.0)),
    v=arrays(np.float64, (3,), elements=st.floats(-1.0, 1.0)),
)
def test_rank_one_shrink_contracts_quad_form(raw, v):
    sigma = PsdMatrix.unchecked(raw @ raw.T)
    shrunk = rank_one_shrink(sigma, v)
    before = sigma.quad_form(v)
    after = shrunk.quad_form(v)
    assert after <= before + 1e-9
    assert min_eigenvalue(shrunk.mat) >= -1e-9


def test_psd_order_holds():
    eye = PsdMatrix.identity(3)
    two = PsdMatrix.unchecked(2.0 * np.eye(3))
    assert psd_order_holds(eye, two)
    assert not psd_order_holds(two, eye)
    assert psd_order_holds(eye, eye)


@pytest.mark.parametrize("dim,rank", [(1, 1), (4, 4), (4, 2), (5, 0)])
def test_random_psd_rank_and_scale(dim, rank):
    rng = np.random.default_rng(RNG_SEED)
    m = random_psd(dim, 3.0, rng, rank=rank)
    eigs = np.linalg.eigvalsh(m.mat)
    assert np.sum(eigs > 1e-12) == rank
    assert eigs[-1] <= 3.0 + 1e-12
    assert eigs[0] >= -1e-12


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(RNG_SEED)
    m = random_psd(4, 1.0, rng, rank=2)
    root = psd_sqrt(m)
    assert np.allclose(root @ root, m.mat, atol=1e-10)
    assert np.allclose(root, root.T)


def test_chol_solve_matches_dense_solve():
    rng = np.random.default_rng(RNG_SEED)
    m = make_spd(5, rng)
    b = rng.standard_normal(5)
    low = jittered_cholesky(m)
    assert np.allclose(chol_solve(low, b), np.linalg.solve(m, b), atol=1e-10)
    cols = rng.standard_normal((5, 3))
    assert np.allclose(chol_solve(low, cols), np.linalg.solve(m, cols), atol=1e-10)
