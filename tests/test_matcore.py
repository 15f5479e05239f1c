import numpy as np
import pytest
import scipy.linalg

from sgwl import decomp, matcore, posmap
from sgwl.matcore import (
    DomainError,
    HermiticityError,
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

    def test_stacked_core_matches_single_calls(self):
        # each matrix keeps its own scaling, so the stack gives the bits of
        # single calls; the 1-norms of the last two stacks differ by 100x,
        # and in the last one both need squarings, different numbers of them
        rng = np.random.default_rng(8)
        for n, scales in ((4, (0.3, 2.0)), (9, (1.0, 1.0)), (16, (0.5, 3.0)),
                          (4, (0.5, 50.0)), (9, (800.0, 8.0))):
            a, b = (random_complex(rng, n) for _ in range(2))
            a *= scales[0] / np.linalg.norm(a, 1)
            b *= scales[1] / np.linalg.norm(b, 1)
            stacked = matcore._expm(np.stack((a, b)))
            for got, m in zip(stacked, (a, b)):
                assert np.array_equal(got, expm(m))

    def test_overflowing_norm_rejected(self):
        # finite entries whose 1-norm overflows
        with pytest.raises(DomainError, match="1-norm"):
            expm(np.full((2, 2), 1e308))


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
