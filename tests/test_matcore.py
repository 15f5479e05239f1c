import numpy as np
import pytest
import scipy.linalg

from sgwl import matcore
from sgwl.matcore import (
    DomainError,
    HermiticityError,
    ShapeError,
    SizeError,
    devectorize,
    expm,
    hermitian_eig,
    kron,
    partial_trace,
    partial_transpose,
    vectorize,
)

from helpers import random_complex, random_density, random_hermitian

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def entangled_projector(d):
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(v, v)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_pauli_x_pair_is_antidiagonal(self):
        k = kron(S1, S1)
        assert np.array_equal(k, np.fliplr(np.eye(4)))

    def test_mixed_product_property(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = random_complex(rng, 2), random_complex(rng, 4)
            c, d = random_complex(rng, 2), random_complex(rng, 4)
            lhs = kron(a @ c, b @ d)
            rhs = kron(a, b) @ kron(c, d)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_size_gate(self):
        with pytest.raises(SizeError):
            kron(np.eye(100), np.eye(100))


class TestHermitianEig:
    def test_pauli_z(self):
        spec = hermitian_eig(S3)
        assert np.allclose(spec.values, [-1.0, 1.0])

    def test_rank_one_projector(self):
        spec = hermitian_eig(entangled_projector(2))
        assert np.allclose(spec.values, [0, 0, 0, 1], atol=1e-14)

    def test_residual_invariant(self):
        rng = np.random.default_rng(1)
        for n in (2, 5, 9):
            h = random_hermitian(rng, n)
            spec = hermitian_eig(h)
            resid = np.linalg.norm(h @ spec.vectors - spec.vectors * spec.values, axis=0).max()
            assert resid <= 1e-10 * np.linalg.norm(h, 2)
            assert np.abs(spec.vectors.conj().T @ spec.vectors - np.eye(n)).max() < 1e-10

    def test_hermiticity_gate(self):
        with pytest.raises(HermiticityError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_nan_rejected(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(DomainError):
            hermitian_eig(bad)


class TestAsCmatrix:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_nonfinite_rejected(self, bad, part):
        m = np.eye(2, dtype=complex)
        m[0, 1] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
        with pytest.raises(DomainError):
            matcore.as_cmatrix(m)


class TestPartialTranspose:
    def test_involution_exact(self):
        rng = np.random.default_rng(2)
        for da, db in ((2, 2), (2, 3), (4, 4)):
            x = random_complex(rng, da * db)
            for side in ("A", "B"):
                assert np.array_equal(
                    partial_transpose(partial_transpose(x, da, db, side), da, db, side), x
                )

    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(3)
        r1 = random_density(rng, 2).real.astype(complex)
        r2 = random_density(rng, 3).real.astype(complex)
        rho = np.kron(r1, r2)
        for side in ("A", "B"):
            w0 = np.linalg.eigvalsh(rho)
            w1 = np.linalg.eigvalsh(partial_transpose(rho, 2, 3, side))
            assert np.abs(w0 - w1).max() < 1e-12

    def test_entangled_projector_negativity(self):
        pt = partial_transpose(entangled_projector(2), 2, 2, "A")
        assert abs(np.linalg.eigvalsh(pt).min() + 0.5) < 1e-14

    def test_shape_gate(self):
        with pytest.raises(ShapeError):
            partial_transpose(np.eye(5), 2, 2, "A")

    def test_full_transpose_preserves_spectrum(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 6)
        assert np.abs(np.linalg.eigvalsh(h) - np.linalg.eigvalsh(h.T)).max() < 1e-10


class TestPartialTrace:
    def test_product_factors(self):
        rng = np.random.default_rng(5)
        r1 = random_density(rng, 2)
        r2 = random_density(rng, 3)
        rho = np.kron(r1, r2)
        assert np.abs(partial_trace(rho, 2, 3, "A") - r1).max() < 1e-12
        assert np.abs(partial_trace(rho, 2, 3, "B") - r2).max() < 1e-12


class TestExpm:
    def test_zero(self):
        assert np.abs(expm(np.zeros((4, 4))) - np.eye(4)).max() < 1e-15

    def test_diagonal(self):
        a = np.diag([0.3 + 0.1j, -1.2])
        assert np.abs(expm(a) - np.diag(np.exp(np.diag(a)))).max() < 1e-14

    def test_against_scipy(self):
        rng = np.random.default_rng(6)
        for n in (2, 4, 9, 16):
            a = random_complex(rng, n) * 2.0
            ref = scipy.linalg.expm(a)
            rel = np.abs(expm(a) - ref).max() / np.abs(ref).max()
            assert rel < 1e-11

    def test_semigroup_law(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, 5)
        a *= 10.0 / np.linalg.norm(a, 2)
        for s, t in ((0.3, 0.7), (1.1, 0.2), (2.0, 2.0)):
            lhs = expm((s + t) * a)
            rhs = expm(s * a) @ expm(t * a)
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            expm(np.ones((2, 3)))


class TestVectorize:
    def test_identity_stacking(self):
        assert np.array_equal(vectorize(np.eye(2)), np.array([1, 0, 0, 1], dtype=complex))

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        x = random_complex(rng, 3)
        assert np.array_equal(devectorize(vectorize(x)), x)

    def test_sandwich_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a, x, b = (random_complex(rng, 3) for _ in range(3))
            lhs = vectorize(a @ x @ b)
            rhs = np.kron(b.T, a) @ vectorize(x)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_bad_length(self):
        with pytest.raises(ShapeError):
            devectorize(np.ones(5))


class TestSpectralParts:
    def test_reassembly(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 6)
        assert np.abs(matcore.psd_part(h) + matcore.negative_part(h) - h).max() < 1e-12
        assert np.linalg.eigvalsh(matcore.psd_part(h)).min() > -1e-14
        assert np.linalg.eigvalsh(-matcore.negative_part(h)).min() > -1e-14

    def test_is_psd_slack(self):
        ok, lmin = matcore.is_psd(np.diag([1.0, -1e-12]))
        assert ok and lmin == pytest.approx(-1e-12)
        ok, _ = matcore.is_psd(np.diag([1.0, -1e-6]))
        assert not ok
