"""Linear-algebra layer tests against numpy/scipy oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import sqrtm

from buresdiscord.errors import NotHermitian, NotPSD
from buresdiscord.linalg import (
    I2,
    I4,
    PAULI,
    bures_distance_sq,
    check_density_matrix,
    fidelity,
    herm_eig,
    partial_trace_A,
    partial_trace_B,
    psd_sqrt,
    trace_norm,
    von_neumann_entropy,
)


def random_hermitian(rng, n=4):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


def random_density(rng, n=4):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestHermEig:
    def test_matches_numpy_eigenvalues(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            h = random_hermitian(rng)
            dec = herm_eig(h)
            assert_allclose(dec.eigenvalues, np.sort(np.linalg.eigvalsh(h))[::-1],
                            atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            h = random_hermitian(rng)
            dec = herm_eig(h)
            rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            assert np.abs(rebuilt - h).max() <= 1e-11

    def test_eigenvector_columns_orthonormal(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            dec = herm_eig(random_hermitian(rng))
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.abs(gram - I4).max() < 1e-12

    def test_sorted_non_increasing(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            vals = herm_eig(random_hermitian(rng)).eigenvalues
            assert np.all(np.diff(vals) <= 1e-14)

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            h = random_hermitian(rng)
            assert abs(herm_eig(h).eigenvalues.sum() - np.trace(h).real) < 1e-10

    def test_degenerate_spectrum(self):
        dec = herm_eig(np.eye(4) * 0.25)
        assert_allclose(dec.eigenvalues, [0.25] * 4, atol=0)
        assert_allclose(dec.eigenvectors, np.eye(4), atol=0)

    def test_pauli_spectra(self):
        for sigma in PAULI:
            assert_allclose(herm_eig(sigma).eigenvalues, [1.0, -1.0], atol=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPsdSqrt:
    def test_squares_back(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            rho = random_density(rng)
            root = psd_sqrt(rho)
            assert np.abs(root @ root - rho).max() <= 1e-10

    def test_matches_scipy(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            rho = random_density(rng)
            assert np.abs(psd_sqrt(rho) - sqrtm(rho)).max() < 1e-8

    def test_rank_deficient(self):
        vec = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        proj = np.outer(vec, vec)
        assert np.abs(psd_sqrt(proj) - proj).max() < 1e-12

    def test_floor_keeps_small_eigenvalues_and_drops_noise(self):
        # 5e-14 is the smallest eigenvalue of a state a relative 1e-12 from
        # b = c = |x|; 1e-16 is rounding noise on an exactly singular state
        root = psd_sqrt(np.diag([1.0 - 5e-14, 5e-14, 1e-16, 0.0]))
        assert_allclose(np.diag(root).real, [np.sqrt(1.0 - 5e-14), np.sqrt(5e-14), 0.0, 0.0],
                        rtol=1e-12, atol=0.0)

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -0.5, 0.2, 0.3]))


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            rho = random_density(rng)
            assert abs(fidelity(rho, rho) - 1.0) < 1e-12

    def test_self_fidelity_rank_deficient(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            g = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            assert abs(fidelity(rho, rho) - 1.0) < 1e-8

    def test_commuting_case(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        q = np.array([0.1, 0.2, 0.3, 0.4])
        expect = np.sum(np.sqrt(p * q)) ** 2
        assert abs(fidelity(np.diag(p), np.diag(q)) - expect) < 1e-13

    def test_symmetry(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            rho, sigma = random_density(rng), random_density(rng)
            assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-11

    def test_unitary_invariance(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            rho, sigma = random_density(rng), random_density(rng)
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q, r = np.linalg.qr(g)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            assert abs(fidelity(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
                       - fidelity(rho, sigma)) < 1e-9

    def test_range(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            f = fidelity(random_density(rng), random_density(rng))
            assert 0.0 <= f <= 1.0

    def test_pure_state_overlap(self):
        v = np.array([1.0, 0.0, 0.0, 0.0])
        w = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        assert abs(fidelity(np.outer(v, v), np.outer(w, w)) - 0.5) < 1e-12

    def test_rejects_non_psd_sigma(self):
        # sigma goes through psd_sqrt, like rho, even where its negative
        # eigenvalue lies in the kernel of rho
        with pytest.raises(NotPSD):
            fidelity(np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([0.6, 0.5, 0.2, -0.3]))


class TestBuresDistance:
    def test_identical_states(self):
        rng = np.random.default_rng(41)
        rho = random_density(rng)
        assert abs(bures_distance_sq(rho, rho)) < 1e-9

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0, 0.0, 0.0])
        b = np.diag([0.0, 1.0, 0.0, 0.0])
        assert abs(bures_distance_sq(a, b) - 2.0) < 1e-12

    def test_against_spectrum_identity(self):
        # distance to I/4 equals 2 - sum of sqrt eigenvalues
        rng = np.random.default_rng(42)
        for _ in range(20):
            rho = random_density(rng)
            expect = 2.0 - np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(rho), 0, None)))
            assert abs(bures_distance_sq(rho, I4 / 4.0) - expect) < 1e-10


class TestTraceNorm:
    def test_diagonal(self):
        assert abs(trace_norm(np.diag([0.5, -0.3, 0.2, -0.1])) - 1.1) < 1e-13

    def test_bounds_trace(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            h = random_hermitian(rng)
            assert trace_norm(h) >= abs(np.trace(h).real) - 1e-12


class TestPartialTraces:
    def test_product_state(self):
        rng = np.random.default_rng(61)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        joint = np.kron(rho_a, rho_b)
        assert_allclose(partial_trace_B(joint), rho_a, atol=1e-13)
        assert_allclose(partial_trace_A(joint), rho_b, atol=1e-13)

    def test_trace_preserved(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            rho = random_density(rng)
            assert abs(np.trace(partial_trace_A(rho)).real - 1.0) < 1e-12
            assert abs(np.trace(partial_trace_B(rho)).real - 1.0) < 1e-12

    def test_bell_marginals_maximally_mixed(self):
        vec = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        rho = np.outer(vec, vec)
        assert_allclose(partial_trace_B(rho), I2 / 2.0, atol=1e-14)
        assert_allclose(partial_trace_A(rho), I2 / 2.0, atol=1e-14)


class TestEntropy:
    def test_pure_state(self):
        assert abs(von_neumann_entropy(np.diag([1.0, 0.0, 0.0, 0.0]))) < 1e-12

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(I4 / 4.0) - 2.0) < 1e-12

    def test_qubit_half(self):
        assert abs(von_neumann_entropy(np.diag([0.5, 0.5])) - 1.0) < 1e-12


class TestCheckDensityMatrix:
    def test_accepts_valid(self):
        rng = np.random.default_rng(71)
        out = check_density_matrix(random_density(rng))
        assert out.dtype == complex

    def test_rejects_bad_trace(self):
        with pytest.raises(Exception):
            check_density_matrix(np.eye(4))

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            check_density_matrix(np.diag([1.2, -0.2, 0.0, 0.0]))
