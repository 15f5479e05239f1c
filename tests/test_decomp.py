import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from sgwl import decomp, gksl, matcore, posmap
from sgwl.decomp import (
    FEASIBLE,
    INFEASIBLE_WITNESSED,
    bell_state_projector,
    bound_entangled_state,
    decomposability_feasibility,
    decomposability_propagation_check,
    explicit_decomposition,
    find_threshold,
    noise_pairing_table,
    pairing,
    pairing_table,
    pairing_with_choi,
    witness_product_generator,
    witness_product_map,
)
from sgwl.gksl import build_generator, evolve, kron_superop, qubit_spec
from sgwl.matcore import DomainError, PreconditionError, partial_transpose
from sgwl.posmap import choi

from helpers import (
    count_validations,
    counting,
    random_complex,
    random_hermitian,
    random_psd,
    random_unitary,
)

# nonzero entries of 24 * rho_be (reference data for the entrywise check)
RHO_BE_24 = np.array([
    [1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1],
    [0, 3, 0, 0, -1, 0, 0, 0, 0, 0, 0, -1, 0, 0, -1, 0],
    [0, 0, 1, 0, 0, 0, 0, -1, -1, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0],
    [0, -1, 0, 0, 3, 0, 0, 0, 0, 0, 0, -1, 0, 0, -1, 0],
    [-1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1],
    [0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, -1, 0, 0],
    [0, 0, -1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0],
    [-1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1],
    [0, -1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 3, 0, 0, -1, 0],
    [0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, -1, -1, 0, 0, 0, 0, 1, 0, 0],
    [0, -1, 0, 0, -1, 0, 0, 0, 0, 0, 0, -1, 0, 0, 3, 0],
    [1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1],
], dtype=float)


def alpha(t):
    return np.exp(-2.0 * t)


def w_closed_form(t, mu, nu):
    a = alpha(t)
    return 0.25 * (a * (mu == 0) + (1 - a) / 4) * (
        2 * (1 + a) * (nu == 0) + (1 - a) * (1 - 2 * (nu == 2))
    )


def choi_map(a, b, c):
    """Superoperator of the generalized Choi map on M_3,
    Phi[a,b,c](X) = diag(a x11 + b x22 + c x33, c x11 + a x22 + b x33,
    b x11 + c x22 + a x33) - X."""
    mix = np.array([[a, b, c], [c, a, b], [b, c, a]], dtype=float)
    s = -np.eye(9, dtype=complex)
    for i in range(3):
        for k in range(3):
            s[4 * k, 4 * i] += mix[k, i]  # vec index of |k><k| is 4 k
    return s


def per_call_projector(mu, nu):
    """The per-call construction the cached projectors replaced."""
    u = np.kron(np.eye(4, dtype=complex), np.kron(gksl.SIGMA[mu], gksl.SIGMA[nu]))
    return decomp.WitnessState(u @ posmap.maximally_entangled_projector(4) @ u).mat


def per_call_bound_entangled():
    support = [(0, 2), (1, 1), (2, 3), (3, 1), (3, 2), (3, 3)]
    m = sum(per_call_projector(mu, nu) for mu, nu in support) / 6.0
    return decomp.WitnessState(m, ppt_checked=True).mat


def assert_witness(j, res):
    d = int(round(np.sqrt(j.shape[0])))
    w = res.witness.mat
    assert res.witness.ppt_checked
    assert abs(np.trace(w).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(w).min() >= -1e-10
    assert np.linalg.eigvalsh(partial_transpose(w, d, d, "A")).min() >= -1e-10
    assert np.trace(j @ w.T).real == pytest.approx(res.pairing, abs=1e-12)
    assert res.pairing < -1e-10


class TestPairing:
    def test_identity_with_entangled_projector(self):
        p = posmap.maximally_entangled_projector(4)
        assert pairing(np.eye(16), p) == pytest.approx(1.0, abs=1e-14)

    def test_z02_closed_form(self):
        z02 = bell_state_projector(0, 2)
        for t in (0.1, 0.5, 1.0):
            a = alpha(t)
            assert pairing(witness_product_map(t), z02) == pytest.approx(
                (a - 1) * (1 + 3 * a) / 16, abs=1e-10
            )

    def test_bound_entangled_closed_form(self):
        rb = bound_entangled_state()
        for t in (0.1, 0.5, 1.0):
            a = alpha(t)
            assert pairing(witness_product_map(t), rb) == pytest.approx(
                (1 - a) * (1 - 3 * a) / 48, abs=1e-10
            )


    def test_criterion_matches_pairing_with_choi(self):
        # validated once up front, each call bit-identical to the checked path
        rb = bound_entangled_state()
        criterion = decomp.pairing_criterion(rb)
        gen = witness_product_generator()
        for t in (0.1, 0.5, 1.0):
            s = evolve(gen, t)
            expect = pairing_with_choi(choi(s), rb.mat)
            assert criterion(s) == expect
            assert pairing(s, rb) == expect
            assert pairing(s, np.asarray(rb.mat)) == expect

    def test_shape_mismatch_rejected(self):
        with pytest.raises(matcore.ShapeError):
            decomp.pairing_criterion(np.eye(4) / 4)(witness_product_map(0.3))
        with pytest.raises(matcore.ShapeError):
            pairing(witness_product_map(0.3), np.eye(4) / 4)


class TestBellProjectors:
    def test_zero_indices_give_entangled_projector(self):
        z00 = bell_state_projector(0, 0)
        assert np.abs(z00.mat - posmap.maximally_entangled_projector(4)).max() < 1e-14

    def test_projector_properties(self):
        for mu in range(4):
            for nu in range(4):
                z = bell_state_projector(mu, nu).mat
                assert abs(np.trace(z) - 1.0) < 1e-13
                assert np.abs(z @ z - z).max() < 1e-13

    def test_mutual_orthogonality(self):
        mats = [bell_state_projector(m, n).mat for m in range(4) for n in range(4)]
        for i in range(16):
            for j in range(i + 1, 16):
                assert np.abs(mats[i] @ mats[j]).max() < 1e-13

    def test_z02_hand_assembled(self):
        # assemble the (0, 2) projector entry by entry: the twisted vector
        # is (1/2) sum_I |I> (x) (sigma_0 (x) sigma_2)|I>
        s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
        u = np.kron(np.eye(2, dtype=complex), s2)
        vec = np.zeros(16, dtype=complex)
        for big in range(4):
            for small in range(4):
                vec[big * 4 + small] = 0.5 * u[small, big]
        by_hand = np.outer(vec, vec.conj())
        assert np.abs(bell_state_projector(0, 2).mat - by_hand).max() < 1e-14

    def test_bit_identical_to_per_call_construction(self):
        projectors, rho = decomp._bell_matrices()
        for mu in range(4):
            for nu in range(4):
                ref = per_call_projector(mu, nu).tobytes()
                assert projectors[mu, nu].tobytes() == ref
                assert bell_state_projector(mu, nu).mat.tobytes() == ref
        ref = per_call_bound_entangled().tobytes()
        assert rho.tobytes() == ref
        assert bound_entangled_state().mat.tobytes() == ref

    def test_cached_arrays_shared_and_read_only(self):
        projectors, rho = decomp._bell_matrices()
        assert decomp._bell_matrices()[0] is projectors
        assert decomp._bell_matrices()[1] is rho
        for arr in (projectors, projectors[1, 2], rho):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        # the returned states own writable copies
        state = bound_entangled_state()
        assert state.mat is not rho and state.mat.flags.writeable
        assert bell_state_projector(1, 2).mat.flags.writeable


class TestSpectralParts:
    def test_reassembly(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 6)
        w, pos, neg = decomp._spectral_parts(h)
        assert np.abs(pos + neg - h).max() < 1e-12
        assert np.linalg.eigvalsh(pos).min() > -1e-14
        assert np.linalg.eigvalsh(-neg).min() > -1e-14
        assert np.allclose(w, np.linalg.eigvalsh(h), atol=1e-12)


class TestValidationCount:
    """Internal paths trust arrays that a public entry already validated, so
    the number of ``as_cmatrix`` calls does not grow with solver iterations."""

    @pytest.mark.parametrize("t,status", [(0.2, INFEASIBLE_WITNESSED), (1.0, FEASIBLE)])
    def test_flagship_feasibility(self, monkeypatch, t, status):
        j = choi(witness_product_map(t))
        n, res = count_validations(monkeypatch, lambda: decomposability_feasibility(j))
        assert res.status == status and res.iterations > 30
        assert n <= 12

    def test_flagship_threshold(self, monkeypatch):
        gen = witness_product_generator()
        criterion = decomp.pairing_criterion(bound_entangled_state())
        n, t = count_validations(
            monkeypatch, lambda: find_threshold(lambda t: evolve(gen, t), criterion, 0.2, 2.0))
        assert abs(t - np.log(3.0) / 2.0) < 1e-8
        assert n <= 15

    def test_qubit_map_check(self, monkeypatch):
        rng = np.random.default_rng(38)
        r = gksl.basis_rotation_matrix(random_unitary(rng, 2), gksl.pauli_basis())
        s = evolve(build_generator(qubit_spec(r.T @ np.diag([1.0, -1.0, 1.0]) @ r)), 2.0)
        n, verdict = count_validations(monkeypatch, lambda: posmap.map_positivity_check(s))
        assert verdict.proof == posmap.PROOF_DECOMPOSITION
        assert n < 30


class TestPairingTable:
    def test_matches_closed_form_on_grid(self):
        for t in np.linspace(0.05, 2.0, 8):
            table = pairing_table(float(t))
            expect = np.array([[w_closed_form(t, m, n) for n in range(4)] for m in range(4)])
            assert np.abs(table - expect).max() < 1e-10

    def test_time_zero_is_delta(self):
        table = pairing_table(0.0)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.abs(table - expect).max() < 1e-12

    def test_rows_beyond_first_coincide(self):
        table = pairing_table(0.37)
        assert np.abs(table[1] - table[2]).max() < 1e-12
        assert np.abs(table[1] - table[3]).max() < 1e-12

    def test_support_sum_gives_pairing_curve(self):
        # averaging the table over the support of the bound-entangled state
        # reproduces its pairing value
        support = [(0, 2), (1, 1), (2, 3), (3, 1), (3, 2), (3, 3)]
        for t in (0.15, 0.6, 1.3):
            table = pairing_table(t)
            a = alpha(t)
            total = sum(table[m, n] for m, n in support) / 6.0
            assert total == pytest.approx((1 - a) * (1 - 3 * a) / 48, abs=1e-12)


class TestBoundEntangledState:
    def test_entrywise_reference(self):
        rb = bound_entangled_state().mat
        assert np.abs(rb - RHO_BE_24 / 24.0).max() < 1e-14
        assert np.abs(rb.imag).max() == 0.0

    def test_density_matrix(self):
        rb = bound_entangled_state().mat
        assert abs(np.trace(rb).real - 1.0) < 1e-14
        assert np.linalg.eigvalsh(rb).min() >= -1e-12

    def test_ppt(self):
        rb = bound_entangled_state().mat
        assert np.linalg.eigvalsh(partial_transpose(rb, 4, 4, "A")).min() >= -1e-12

    def test_orthogonal_to_entangled_projector(self):
        rb = bound_entangled_state().mat
        assert np.abs(rb @ posmap.maximally_entangled_projector(4)).max() < 1e-13


class TestWitnessProductMap:
    def test_matches_generator_evolution(self):
        gen = witness_product_generator()
        for t in (0.1, 0.5, 2.0):
            assert np.abs(witness_product_map(t) - evolve(gen, t)).max() < 1e-10

    def test_time_zero_is_identity(self):
        assert np.abs(witness_product_map(0.0) - np.eye(16)).max() < 1e-15

    def test_decomposition_identity(self):
        t4 = kron_superop(gksl.transpose_superop(2), gksl.transpose_superop(2), 2, 2)
        for t in (0.0, 0.2, 0.8, 2.0):
            s1, s2 = explicit_decomposition(t)
            assert np.abs(witness_product_map(t) - (s1 + s2 @ t4)).max() < 1e-12

    def test_first_block_always_cp(self):
        for t in (0.0, 0.3, 1.0, 3.0):
            assert posmap.is_completely_positive(explicit_decomposition(t)[0]).is_cp

    def test_second_block_cp_iff_late(self):
        t_star = np.log(3.0) / 2.0
        for t in (0.1, 0.4):
            assert not posmap.is_completely_positive(explicit_decomposition(t)[1]).is_cp
        for t in (t_star + 0.01, 1.5):
            assert posmap.is_completely_positive(explicit_decomposition(t)[1]).is_cp

    def test_second_block_min_eig_value(self):
        t = 0.2
        a = alpha(t)
        lmin = np.linalg.eigvalsh(choi(explicit_decomposition(t)[1])).min()
        assert lmin == pytest.approx((1 - a) * (1 - 3 * a) / 8, abs=1e-12)


class TestNoisePairings:
    def test_against_derivative_oracle(self):
        # d/dt <map_t, Z> at t=0 equals the noise pairing plus the
        # pseudo-Hamiltonian part, which is -2<id, Z> for this generator
        table, _ = noise_pairing_table()
        h = 1e-6
        for mu in range(4):
            for nu in range(4):
                z = bell_state_projector(mu, nu)
                slope = (pairing(witness_product_map(h), z)
                         - pairing(witness_product_map(0.0), z)) / h
                expected = slope + 2.0 * (1.0 if (mu, nu) == (0, 0) else 0.0)
                assert table[mu, nu] == pytest.approx(expected, abs=1e-5)

    def test_exact_values(self):
        table, value = noise_pairing_table()
        expect = np.zeros((4, 4))
        expect[0, 1:] = [0.5, -0.5, 0.5]
        expect[1:, 0] = 0.5
        assert np.abs(table - expect).max() < 1e-12
        # only the (0, 2) projector contributes within the support of the
        # bound-entangled state: value = -1/2 / 6
        assert value == pytest.approx(-1.0 / 12.0, abs=1e-12)

    def test_inner_block_vanishes(self):
        table, _ = noise_pairing_table()
        assert np.abs(table[1:, 1:]).max() < 1e-12


class TestFeasibility:
    def test_cp_map_trivial_certificate(self):
        gen = build_generator(qubit_spec(np.diag([1.0, 1.0, 1.0])))
        res = decomposability_feasibility(choi(evolve(gen, 0.7)))
        assert res.status == FEASIBLE
        assert np.abs(res.certificate.j2).max() == 0.0
        assert res.certificate.residual == 0.0

    def test_feasible_regime(self):
        for t in (0.6, 1.0):
            j = choi(witness_product_map(t))
            res = decomposability_feasibility(j)
            assert res.status == FEASIBLE
            cert = res.certificate
            assert cert.residual <= 1e-8
            slack = 1e-10 * max(1.0, np.linalg.norm(j, 2))
            assert np.linalg.eigvalsh(cert.j1).min() >= -slack
            assert np.linalg.eigvalsh(cert.j2).min() >= -slack
            recon = cert.j1 + partial_transpose(cert.j2, 4, 4, "A")
            assert np.abs(recon - j).max() < 1e-10

    def test_feasible_matches_explicit_blocks(self):
        # the closed-form blocks give an independent certificate of the
        # same map: J1 = choi(S1), J2 = choi(S2)^T
        t = 1.0
        j = choi(witness_product_map(t))
        s1, s2 = explicit_decomposition(t)
        j1 = choi(s1)
        j2 = choi(s2).T
        assert np.linalg.eigvalsh(j1).min() >= -1e-12
        assert np.linalg.eigvalsh(j2).min() >= -1e-12
        assert np.abs(j - j1 - partial_transpose(j2, 4, 4, "A")).max() < 1e-12

    def test_infeasible_regime_witnessed(self):
        rb = bound_entangled_state()
        for t in (0.2, 0.4):
            j = choi(witness_product_map(t))
            res = decomposability_feasibility(j)
            assert res.status == INFEASIBLE_WITNESSED
            assert res.witness.ppt_checked
            a = alpha(t)
            assert res.pairing == pytest.approx((1 - a) * (1 - 3 * a) / 48, abs=1e-10)
            assert np.abs(res.witness.mat - rb.mat).max() < 1e-12

    def test_witness_revalidates(self):
        res = decomposability_feasibility(choi(witness_product_map(0.1)))
        w = res.witness.mat
        assert abs(np.trace(w).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(partial_transpose(w, 4, 4, "A")).min() >= -1e-10
        assert res.pairing < -1e-10

    def test_duality_direction(self):
        # every feasible certificate pairs nonnegatively with PPT states
        rng = np.random.default_rng(40)
        rb = bound_entangled_state().mat
        corpus = [rb, np.eye(16) / 16.0]
        for k in range(3):
            mats = [bell_state_projector(m, n).mat for m in range(4) for n in range(4)]
            w = rng.dirichlet(np.ones(16))
            x = sum(wi * mi for wi, mi in zip(w, mats))
            if np.linalg.eigvalsh(partial_transpose(x, 4, 4, "A")).min() >= -1e-12:
                corpus.append(x)
        for t in (0.7, 1.2):
            j = choi(witness_product_map(t))
            res = decomposability_feasibility(j)
            assert res.status == FEASIBLE
            for x in corpus:
                assert pairing_with_choi(j, x) >= -1e-9

    def test_qubit_map_feasible(self):
        # transpose-mixing map is positive hence decomposable on qubits
        gen = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
        res = decomposability_feasibility(choi(evolve(gen, 0.5)))
        assert res.status == FEASIBLE

    def test_qubit_nonpositive_map_witnessed(self):
        # a strongly non-positive qubit map is caught by the 4-state family
        gen = build_generator(qubit_spec(np.diag([1.0, 1.0, -3.0])))
        res = decomposability_feasibility(choi(evolve(gen, 0.3)))
        assert res.status == INFEASIBLE_WITNESSED
        assert res.pairing < -0.1

    def test_qutrit_choi_map_witnessed(self):
        # Choi's original positive, non-decomposable map Phi[2,0,1] on M_3
        j = choi(choi_map(2.0, 0.0, 1.0))
        res = decomposability_feasibility(j)
        assert res.status == INFEASIBLE_WITNESSED
        assert_witness(j, res)
        assert res.pairing < -0.05
        # local unitaries preserve the decomposable cone, so a rotated,
        # complex copy of the map is witnessed with the same pairing
        rng = np.random.default_rng(45)
        w = np.kron(random_unitary(rng, 3), random_unitary(rng, 3))
        jw = w @ j @ w.conj().T
        rotated = decomposability_feasibility(jw)
        assert rotated.status == INFEASIBLE_WITNESSED
        assert_witness(jw, rotated)
        assert rotated.pairing == pytest.approx(res.pairing, rel=1e-6)

    def test_random_hermitian_witnessed(self):
        # generic Hermitian matrices lie far outside the decomposable cone;
        # their residuals are not PSD, so the witness needs its eigenvalue shift
        rng = np.random.default_rng(46)
        for d in (2, 3, 2, 3):
            j = random_hermitian(rng, d * d)
            res = decomposability_feasibility(j)
            assert res.status == INFEASIBLE_WITNESSED
            assert_witness(j, res)

    @pytest.mark.parametrize("a", [1.25, 1.5, 2.0, 2.5, 2.75])
    @pytest.mark.parametrize("decomposable", [True, False])
    def test_choi_map_grid(self, a, decomposable):
        # Cho-Kye-Lee: for 1 <= a <= 3 a positive Phi[a,b,c] is decomposable
        # iff bc >= (3 - a)^2 / 4; positivity needs a + b + c >= 3 and, for
        # a < 2, bc >= (2 - a)^2
        boundary = (3 - a) ** 2 / 4
        floor = max(2 - a, 0.0) ** 2
        p = 2 * boundary if decomposable else (floor + boundary) / 2
        sigma = 1.25 * max(3 - a, 2 * np.sqrt(p))
        b = (sigma + np.sqrt(sigma * sigma - 4 * p)) / 2
        c = p / b
        assert a + b + c >= 3 and b * c >= floor
        j = choi(choi_map(a, b, c))
        res = decomposability_feasibility(j)
        if decomposable:
            assert res.status == FEASIBLE
            cert = res.certificate
            slack = 1e-10 * max(1.0, np.linalg.norm(j, 2))
            assert np.linalg.eigvalsh(cert.j1).min() >= -slack
            assert np.linalg.eigvalsh(cert.j2).min() >= -slack
            recon = cert.j1 + partial_transpose(cert.j2, 3, 3, "A")
            assert np.abs(recon - j).max() < 1e-10
        else:
            assert res.status == INFEASIBLE_WITNESSED
            assert_witness(j, res)

    def test_budget_exhaustion(self):
        # too few iterations to certify, and no witness exists in the
        # decomposable regime: the solver must say so rather than guess
        res = decomposability_feasibility(choi(witness_product_map(1.0)), max_iter=3)
        assert res.status == decomp.MAX_ITERATIONS
        assert res.gap > 0
        assert res.iterations == 3


class TestThreshold:
    def test_both_criteria(self):
        t_star = np.log(3.0) / 2.0
        t1 = find_threshold(
            lambda t: explicit_decomposition(t)[1], decomp.choi_min_criterion, 0.1, 2.0
        )
        t2 = find_threshold(
            witness_product_map, decomp.pairing_criterion(bound_entangled_state()), 0.1, 2.0
        )
        assert abs(t1 - t_star) < 1e-8
        assert abs(t2 - t_star) < 1e-8

    def test_delayed_cp_family(self):
        # rates 2*(b, b, a-b) with a=1, b=2: the onset solves
        # cosh(2bt) = exp(2(b-a)t), i.e. x^3 = x^2 + x + 1 with x = exp(2t)
        gen = build_generator(qubit_spec(2.0 * np.diag([2.0, 2.0, -1.0])))
        t_hat = find_threshold(lambda t: evolve(gen, t), decomp.choi_min_criterion, 0.05, 2.0)
        x = np.exp(2 * t_hat)
        assert x**3 - x**2 - x - 1 == pytest.approx(0.0, abs=1e-7)
        assert t_hat == pytest.approx(0.5 * np.log(1.8392867552141612), abs=1e-8)

    def test_no_sign_change_rejected(self):
        gen = build_generator(qubit_spec(np.diag([1.0, 1.0, 1.0])))
        with pytest.raises(DomainError):
            find_threshold(lambda t: evolve(gen, t), decomp.choi_min_criterion, 0.1, 1.0)
        # an infinite bracket end would never narrow
        with pytest.raises(DomainError, match="t_hi must be finite"):
            find_threshold(witness_product_map, decomp.pairing_criterion(bound_entangled_state()),
                           0.1, float("inf"))
        # finite ends whose distance overflows
        with pytest.raises(DomainError, match="width"):
            find_threshold(lambda t: t, lambda t: t - 0.3, -1e308, 1e308)

    def test_wide_bracket(self):
        # the ITP arithmetic stays finite on a bracket 2e300 wide
        t_hat = find_threshold(lambda t: t, lambda t: t - 0.3, -1e300, 1e300)
        assert t_hat == pytest.approx(0.3, abs=decomp.THRESHOLD_TOL)
        # and near the largest float, where the falsi products overflow
        t_hat = find_threshold(lambda t: t, lambda t: 1.7e308 - t, 1e308, 1.79e308)
        assert abs(t_hat - 1.7e308) <= np.spacing(1.7e308)

    def test_float_spacing_above_tolerance(self):
        # floats near 1e8 are 1.5e-8 apart: the search stops at adjacent floats
        c = 1e8 + 0.3
        t_hat = find_threshold(lambda t: t, lambda t: t - c, 1e8 - 1.0, 1e8 + 1.0)
        assert abs(t_hat - c) <= np.spacing(c)
        # a root on a float: once the falsi point sits on a bracket end, where
        # eps / 2 does not move it, the search bisects instead of re-evaluating
        r = 1e8 + 0.25
        points = []

        def criterion(t):
            points.append(t)
            return r - t

        t_hat = find_threshold(lambda t: t, criterion, 1e8 - 1.0, 1e8 + 1.0)
        assert abs(t_hat - r) <= np.spacing(r)
        assert len(set(points)) == len(points)


def bisection(family, criterion, t_lo, t_hi):
    """Plain bisection with the sign rule of ``find_threshold``."""
    def neg(v):
        return v < -decomp.THRESHOLD_ZERO_TOL

    lo, hi = t_lo, t_hi
    neg_lo = neg(criterion(family(lo)))
    while hi - lo > decomp.THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if neg(criterion(family(mid))) == neg_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def onset_generator(a, b):
    """Qubit rates 2 (b, b, a - b): the Choi minimum turns nonnegative where
    cosh(2bt) = exp(2(b - a)t)."""
    return build_generator(qubit_spec(2.0 * np.diag([b, b, a - b])))


def onset_root(a, b):
    def g(t):  # log cosh(2bt) - 2(b - a)t
        x = 2 * b * t
        return x + np.log1p(np.exp(-2 * x)) - np.log(2.0) - 2 * (b - a) * t

    return scipy.optimize.brentq(g, 1e-6, 50.0, xtol=1e-15, rtol=1e-15)


class TestThresholdCalls:
    """ITP keeps bisection's worst case and needs far fewer criterion calls
    on a smooth criterion."""

    def test_flagship_pairing(self):
        gen = witness_product_generator()
        criterion = counting(decomp.pairing_criterion(bound_entangled_state()))
        t = find_threshold(lambda t: evolve(gen, t), criterion, 0.2, 2.0)
        assert abs(t - np.log(3.0) / 2.0) < 1e-8
        assert criterion.calls <= 12

    def test_delayed_cp_onset(self):
        gen = onset_generator(1.0, 2.0)
        criterion = counting(decomp.choi_min_criterion)
        t = find_threshold(lambda t: evolve(gen, t), criterion, 0.05, 2.0)
        assert abs(t - onset_root(1.0, 2.0)) < 1e-8
        assert criterion.calls <= 13

    def test_zero_plateau_no_worse_than_bisection(self):
        # past ln(3)/2 the S2 Choi minimum is 0 up to roundoff: interpolation
        # learns nothing there, and the projection keeps bisection's count
        criterion = counting(decomp.choi_min_criterion)
        t = find_threshold(lambda t: explicit_decomposition(t)[1], criterion, 0.1, 2.0)
        assert abs(t - np.log(3.0) / 2.0) < 1e-8
        assert criterion.calls <= 2 + int(np.ceil(np.log2(1.9 / decomp.THRESHOLD_TOL)))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        a=st.floats(0.5, 1.5),
        gap=st.floats(0.5, 1.5),
        below=st.floats(0.05, 0.95),
        above=st.floats(0.05, 4.0),
    )
    def test_matches_bisection_and_root(self, a, gap, below, above):
        b = a + gap
        root = onset_root(a, b)
        gen = onset_generator(a, b)

        def family(t):
            return evolve(gen, t)

        lo, hi = below * root, root + above
        t_itp = find_threshold(family, decomp.choi_min_criterion, lo, hi)
        t_bis = bisection(family, decomp.choi_min_criterion, lo, hi)
        assert abs(t_itp - t_bis) <= decomp.THRESHOLD_TOL
        assert abs(t_itp - root) <= decomp.THRESHOLD_TOL


class TestPropagation:
    def test_flagship_noise_fails(self):
        rep = decomposability_propagation_check(witness_product_generator(), budget=8)
        assert not rep.holds
        assert rep.noise_feasibility.status == INFEASIBLE_WITNESSED
        assert rep.noise_feasibility.pairing == pytest.approx(-1.0 / 12.0, abs=1e-9)

    def test_transpose_mixing_noise_not_positive(self):
        gen = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
        rep = decomposability_propagation_check(gen, budget=16)
        assert not rep.holds
        assert rep.noise_positivity.status == posmap.STATUS_NOT_POSITIVE
        assert rep.noise_positivity.min_value == pytest.approx(-0.5, abs=1e-9)

    def test_zero_budget_rejected(self):
        gen = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
        with pytest.raises(PreconditionError):
            decomposability_propagation_check(gen, budget=0)

    def test_cp_noise_holds(self):
        rng = np.random.default_rng(41)
        gen = build_generator(qubit_spec(random_psd(rng, 3), random_hermitian(rng, 2)))
        rep = decomposability_propagation_check(gen, budget=4)
        assert rep.holds
        assert np.abs(rep.noise_feasibility.certificate.j2).max() == 0.0


class TestTrotter:
    @staticmethod
    def product_error(gen, t, n):
        step = matcore.expm(gen.pseudo_h * t / n) @ matcore.expm(gen.noise * t / n)
        prod = np.linalg.matrix_power(step, n)
        return np.linalg.norm(prod - matcore.expm(t * gen.full), 2)

    def test_flagship_generators(self):
        # the pseudo-Hamiltonian part of both factors is a multiple of the
        # identity superoperator, so the product formula is exact and the
        # errors sit at roundoff; monotonicity is asserted with a roundoff
        # allowance
        for c in ([1.0, 1.0, 1.0], [1.0, -1.0, 1.0]):
            gen = build_generator(qubit_spec(np.diag(c)))
            errs = [self.product_error(gen, 1.0, n) for n in (16, 64, 256)]
            assert errs[2] <= 1e-3
            assert errs[1] <= errs[0] + 1e-12
            assert errs[2] <= errs[1] + 1e-12

    def test_generic_generator_decreases(self):
        # with a Hamiltonian the two parts no longer commute and the error
        # shows the expected first-order decay
        rng = np.random.default_rng(42)
        gen = build_generator(
            qubit_spec(random_psd(rng, 3) / 8.0, hamiltonian=random_hermitian(rng, 2) / 4.0)
        )
        errs = [self.product_error(gen, 1.0, n) for n in (16, 64, 256)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


class TestCompositionClosure:
    @staticmethod
    def random_cp_superop(rng, d, terms=3):
        s = np.zeros((d * d, d * d), dtype=complex)
        for _ in range(terms):
            k = random_complex(rng, d)
            s += gksl.conjugation_superop(k, k.conj().T)
        return s

    def test_transpose_sandwich_preserves_cp(self):
        rng = np.random.default_rng(43)
        t2 = gksl.transpose_superop(2)
        for _ in range(5):
            omega = self.random_cp_superop(rng, 2)
            sandwiched = t2 @ omega @ t2
            assert np.linalg.eigvalsh(
                matcore.as_hermitian(choi(sandwiched))
            ).min() >= -1e-10

    def test_composition_of_decomposable_maps(self):
        # (L1 + L2 T)(O1 + O2 T) regrouped into CP-plus-CP-after-transpose
        rng = np.random.default_rng(44)
        t2 = gksl.transpose_superop(2)
        for _ in range(5):
            l1, l2, o1, o2 = (self.random_cp_superop(rng, 2) for _ in range(4))
            block_a = l1 @ o1 + l2 @ (t2 @ o2 @ t2)
            block_b = l2 @ (t2 @ o1 @ t2) + l1 @ o2
            assert np.linalg.eigvalsh(matcore.as_hermitian(choi(block_a))).min() >= -1e-10
            assert np.linalg.eigvalsh(matcore.as_hermitian(choi(block_b))).min() >= -1e-10
            total = (l1 + l2 @ t2) @ (o1 + o2 @ t2)
            assert np.abs(total - (block_a + block_b @ t2)).max() < 1e-10
