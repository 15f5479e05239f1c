import numpy as np
import pytest
import scipy.linalg

from sgwl import decomp, gksl, matcore, posmap
from sgwl.matcore import (
    DomainError,
    HermiticityError,
    NumericalError,
    ShapeError,
    devectorize,
    expm,
    hermitian_eig,
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

    def test_spectrum_eq_and_hash(self):
        # a Spectrum holds arrays, so it compares and hashes by identity
        a, b = hermitian_eig(S3), hermitian_eig(S3)
        assert a == a and a != b
        assert len({a, b, a}) == 2

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

    def test_size_gate(self):
        with pytest.raises(matcore.SizeError):
            matcore.as_cmatrix(np.zeros((1, matcore.MAX_DIM + 1)))

    @pytest.mark.parametrize("call", [
        matcore.as_cmatrix,
        matcore.as_hermitian,
        matcore.is_psd,
        expm,
        decomp.decomposability_feasibility,
        gksl.choi,
        lambda m: decomp.pairing_with_choi(m, m),
    ], ids=["as_cmatrix", "as_hermitian", "is_psd", "expm", "decomposability_feasibility",
            "choi", "pairing_with_choi"])
    @pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
    def test_empty_rejected(self, call, shape):
        with pytest.raises(ShapeError, match="non-empty"):
            call(np.zeros(shape))


class TestAsHermitian:
    @pytest.mark.parametrize("a", [
        1e308 * np.eye(3),
        np.array([[1e308, 1e308 - 1e308j], [1e308 + 1e308j, -1e308]]),
    ], ids=["real", "complex"])
    def test_largest_entries_stay_finite(self, a):
        # (A + A^dag) / 2 overflows here; the gate halves those entries first
        h = matcore.as_hermitian(a)
        assert np.isfinite(h).all()
        assert np.array_equal(h, a)

    def test_largest_entries_still_gated(self):
        # X - X^dag overflows to inf, which fails the gate
        with pytest.raises(HermiticityError):
            matcore.as_hermitian(np.array([[0.0, 1e308], [-1e308, 0.0]]))

    def test_overflowing_modulus_still_gated(self):
        # |1.5e308 + 1.5e308j| overflows; the tolerance must stay finite, or
        # an imaginary diagonal would pass
        with pytest.raises(HermiticityError, match="inf"):
            matcore.as_hermitian(np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]]))

    def test_overflowing_modulus_hermitian_accepted(self):
        z = 1.5e308 + 1.5e308j
        a = np.array([[1.0, z], [np.conj(z), 1.0]])
        h = matcore.as_hermitian(a)
        assert np.isfinite(h).all()
        assert np.array_equal(h, a)

    def test_spec_at_largest_entries_keeps_c(self):
        c = 1e308 * np.eye(3)
        assert np.array_equal(gksl.qubit_spec(c).c_matrix, c)

    def test_subnormal_entries_keep_their_bits(self):
        # odd multiples of the least subnormal, 5e-324, which halving first
        # would round: 5e-324 / 2 + 5e-324 / 2 is 0
        a = np.array([[5e-324, 3e-323 + 5e-324j], [3e-323 - 5e-324j, 1.5e-323]])
        h = matcore.as_hermitian(a)
        assert np.array_equal(h, (a + a.conj().T) / 2)
        assert np.array_equal(h, a)
        assert not np.array_equal(h, a / 2 + a.conj().T / 2)


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

    def test_overflowing_norm_rejected(self):
        # finite entries whose 1-norm overflows
        with pytest.raises(DomainError, match="1-norm"):
            expm(np.full((2, 2), 1e308))

    def test_non_finite_result_rejected(self):
        # the depolarizing generator's squarings overflow to NaN; no
        # RuntimeWarning escapes (the suite turns them into errors)
        gen = gksl.build_generator(gksl.qubit_spec(np.eye(3)))
        with pytest.raises(NumericalError, match="non-finite"):
            expm(1e20 * gen.full)


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


def superop_with_choi(j):
    # inverse of posmap.choi: undo the index reshuffle and the 1/d
    d = int(round(np.sqrt(j.shape[0])))
    return (d * j).reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


class TestSpectralParts:
    def test_is_psd_slack(self):
        ok, lmin = matcore.is_psd(np.diag([1.0, -1e-12]))
        assert ok and lmin == pytest.approx(-1e-12)
        ok, _ = matcore.is_psd(np.diag([1.0, -1e-6]))
        assert not ok
        # the slack scales with ||X||_2 = 10: the bound is -1e-9 at every
        # entry that applies the rule
        for lmin, ok in ((-0.5e-9, True), (-2e-9, False)):
            j = np.diag([10.0, 0.0, 0.0, lmin])
            assert matcore.is_psd(j) == (ok, lmin)
            s = superop_with_choi(j)
            assert np.array_equal(posmap.choi(s), j)
            assert posmap.is_completely_positive(s).is_cp == ok
            res = decomp.decomposability_feasibility(j, max_iter=5)
            assert (res.status == decomp.FEASIBLE and res.iterations == 0) == ok
