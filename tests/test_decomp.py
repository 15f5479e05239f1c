import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
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
from sgwl.matcore import DomainError, NumericalError, PreconditionError, partial_transpose
from sgwl.posmap import choi

from helpers import (
    choi_map,
    count_eigensolvers,
    count_validations,
    counting,
    eigensolver_calls,
    random_complex,
    random_hermitian,
    random_psd,
    random_unitary,
    reference_witness_matrix,
    shared_states_built,  # noqa: F401  (a fixture, applied by name)
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


def choi_map_choi(a, p, spread):
    """Choi matrix of Phi[a,b,c] with bc = p and b + c = spread times the
    least sum that keeps a + b + c >= 3 and b, c real."""
    sigma = spread * max(3 - a, 2 * np.sqrt(p))
    b = (sigma + np.sqrt(sigma * sigma - 4 * p)) / 2
    return choi(choi_map(a, b, p / b))


def per_call_projector(mu, nu):
    """The per-call construction the cached projectors replaced."""
    u = np.kron(np.eye(4, dtype=complex), np.kron(gksl.SIGMA[mu], gksl.SIGMA[nu]))
    return decomp.WitnessState(u @ posmap.maximally_entangled_projector(4) @ u).mat


def per_call_bound_entangled():
    support = [(0, 2), (1, 1), (2, 3), (3, 1), (3, 2), (3, 3)]
    m = sum(per_call_projector(mu, nu) for mu, nu in support) / 6.0
    return decomp.WitnessState(m, ppt_checked=True).mat


def reference_feasibility(j, max_iter=50000, dtype=None):
    """The projection loop as it stood before each iteration was cut to its
    two eigendecompositions: both spectral parts from every eigh, and the
    witness shift's eigvalsh on every iteration.  It runs in the field of
    J, as the solver does: float64 when J is real, complex128 otherwise;
    ``dtype=complex`` runs a real J in complex arithmetic instead."""
    jm = matcore.as_hermitian(j)
    if dtype is not None:
        jm = jm.astype(dtype)
    elif not jm.imag.any():
        jm = np.ascontiguousarray(jm.real)
    n = jm.shape[0]
    d = int(round(np.sqrt(n)))

    def parts(h):
        w, v = np.linalg.eigh(h)
        return (w, (v * np.clip(w, 0.0, None)) @ v.conj().T,
                (v * np.clip(w, None, 0.0)) @ v.conj().T)

    def pt(x):
        return matcore._partial_transpose(x, d, d)

    w, a, _ = parts(jm)
    norm = max(-w[0], w[-1])
    slack = matcore._tol(matcore.PSD_SLACK, norm)
    if w[0] >= -slack:
        cert = decomp.DecompositionCertificate(j1=jm, j2=np.zeros_like(jm), residual=0.0)
        return decomp.FeasibilityResult(status=FEASIBLE, certificate=cert, iterations=0)
    best_lmin, best_b = -np.inf, None
    polish_left = 100
    best_value, best_x = 0.0, None
    it = 0
    for it in range(1, max_iter + 1):
        _, b, neg = parts(pt(jm - a))
        z = -pt(neg)
        z += max(0.0, -float(np.linalg.eigvalsh(z)[0])) * np.eye(n)
        tau = float(np.trace(z).real)
        if tau > 0.0:
            value = float(np.vdot(z, jm).real) / tau
            if value < -slack:
                if best_x is not None and value >= best_value * (1.0 + 1e-6):
                    break
                if value < best_value:
                    best_value, best_x = value, z.T / tau
        w, a, _ = parts(jm - pt(b))
        if w[0] > best_lmin:
            best_lmin, best_b = w[0], b
        if best_lmin >= -slack:
            polish_left -= 1
            if best_lmin >= -0.02 * slack or polish_left <= 0:
                break
    gap = max(0.0, -float(w[0]))
    if best_lmin >= -slack:
        j1 = jm - pt(best_b)
        residual = float(np.linalg.norm(jm - j1 - pt(best_b)))
        if residual <= matcore._tol(matcore.FEASIBILITY_TOL, norm):
            cert = decomp.DecompositionCertificate(j1=j1, j2=best_b, residual=residual)
            return decomp.FeasibilityResult(status=FEASIBLE, certificate=cert, iterations=it)
    candidates = [bound_entangled_state().mat] if d == 4 else []
    if best_x is not None:
        candidates.append(best_x)
    scored = [(decomp._pairing(jm, mat), mat) for mat in candidates]
    vmin = min((val for val, _ in scored), default=0.0)
    if vmin < -slack:
        value, mat = next((val, mat) for val, mat in scored if val <= vmin + 1e-11)
        return decomp.FeasibilityResult(
            status=INFEASIBLE_WITNESSED, witness=decomp.WitnessState(mat, ppt_checked=True),
            pairing=value, gap=gap, iterations=it)
    return decomp.FeasibilityResult(status=decomp.MAX_ITERATIONS, gap=gap, iterations=it)


def reference_case(case):
    """The Choi matrix and budget of a named reference case: the flagship
    on both sides of ln(3)/2 = 0.549, Phi[a,b,c] on both sides of
    Cho-Kye-Lee's bc = (3 - a)^2 / 4, seeded random J, and negative-trace J,
    whose witness shift is computed on every iteration.  All but the
    flagship and Phi[a,b,c] cases are complex, and so is the flagship
    conjugated by local phases, which keep its status; the flagship rotated
    by a real local orthogonal stays real.  A ``1e9*`` prefix scales a
    case's J by 1e9, which keeps its status."""
    if case.startswith("1e9*"):
        j, max_iter = reference_case(case[4:])
        return 1e9 * j, max_iter
    kind, _, arg = case.rpartition("-")
    rng = np.random.default_rng([47, len(case)])
    if case.startswith("flagship"):
        return choi(witness_product_map(float(arg))), 50000
    if kind == "phased-flagship":
        return phased(choi(witness_product_map(float(arg)))), 50000
    if kind == "rotated-flagship":
        return real_rotated(choi(witness_product_map(float(arg)))), 50000
    if case.startswith("phi"):
        a, b, c = {
            "phi-2-decomposable": (2.0, 1.0, 0.3),
            "phi-2-non-decomposable": (2.0, 1.0, 0.2),
            "phi-1.5-decomposable": (1.5, 1.2, 0.5),
            "phi-1.5-non-decomposable": (1.5, 1.2, 0.4),
        }[case]
        assert (b * c >= (3 - a) ** 2 / 4) == ("-non-" not in case)
        return choi(choi_map(a, b, c)), 50000
    if kind == "psd":
        return random_psd(rng, int(arg) ** 2), 50000
    if kind == "indefinite":
        return random_hermitian(rng, int(arg) ** 2), 50000
    if kind == "negative-trace":
        n = int(arg) ** 2
        j = random_hermitian(rng, n) - 2.0 * np.eye(n)
        assert np.trace(j).real < 0
        return j, 50000
    return choi(witness_product_map(1.0)), int(arg)


def phased(j):
    """``U J U^dag`` with ``U = 1 (x) diag(phases)`` on a d (x) d Choi matrix,
    d = 3 or 4: a complex J with the same status, since U acts on the second
    factor only, commutes with the partial transpose on the first and so
    maps the decomposable cone onto itself.  The loop on it takes the steps
    of the loop on J, conjugated by U.  On Phi[a,b,c] the phases shrink the
    |ii><jj| block's real part, so the loop decides it, not the cyclic state."""
    d = int(round(np.sqrt(j.shape[0])))
    u = np.kron(np.eye(d), np.diag(np.exp(1j * np.array([0.0, 0.7, -1.3, 2.1][:d]))))
    jc = u @ j @ u.conj().T
    assert np.abs(jc.imag).max() > 0.05
    return jc


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def real_rotated(j):
    """``O J O^T`` with a seeded real local orthogonal ``O = O1 (x) O2`` on a
    4 (x) 4 Choi matrix: J stays real and keeps its status, since a local
    orthogonal maps the decomposable cone and the PPT states onto themselves.
    The bound-entangled state pairs positively with the rotated flagship, so
    below ln(3)/2 the projection loop decides it, not that state."""
    rng = np.random.default_rng(48)
    o = np.kron(orthogonal(rng, 4), orthogonal(rng, 4))
    return o @ j @ o.T


def transposed(j):
    """The partial transpose of a real symmetric Choi matrix J, the Choi
    matrix of the map composed with the transpose: real, with J's entries
    rearranged, and decomposable exactly when J is, since the partial
    transpose maps the decomposable cone and the PPT states onto themselves.
    For Phi[a,b,c] its |ii><jj| block is zero off the diagonal, so the cyclic
    state pairs positively with it and the projection loop decides it."""
    d = int(round(np.sqrt(j.shape[0])))
    return partial_transpose(j, d, d, "A")


def result_bytes(res):
    """Everything a FeasibilityResult reports, floats and arrays as raw bytes."""
    cert, wit = res.certificate, res.witness
    return (
        res.status, res.iterations, repr(res.gap), repr(res.pairing),
        None if cert is None else (cert.j1.tobytes(), cert.j2.tobytes(), repr(cert.residual)),
        None if wit is None else (wit.mat.tobytes(), wit.ppt_checked),
    )


def cyclic_state(d, beta):
    """The cyclic PPT state rho_beta, assembled from its kets: the
    unnormalized d P+, plus beta |i,i+1><i,i+1| and |i+1,i><i+1,i| / beta
    (indices mod d) and |ik><ik| for every other i != k, over its trace
    d (d - 2 + beta + 1 / beta)."""
    e = np.eye(d)
    phi = sum(np.kron(e[i], e[i]) for i in range(d))
    m = np.outer(phi, phi)
    for i in range(d):
        for k in range(d):
            if i != k:
                weight = beta if k == (i + 1) % d else 1 / beta if i == (k + 1) % d else 1.0
                m += weight * np.outer(np.kron(e[i], e[k]), np.kron(e[i], e[k]))
    return m / (d * (d - 2 + beta + 1 / beta))


def decided_first(res):
    """Which known PPT state decided ``res`` before the loop:
    ``"bound-entangled"`` or ``"cyclic"``; None when the loop decided it."""
    if res.status != INFEASIBLE_WITNESSED or res.iterations > 0:
        return None
    w = res.witness.mat
    if w.tobytes() == bound_entangled_state().mat.tobytes():
        return "bound-entangled"
    d = int(round(np.sqrt(w.shape[0])))
    beta = (w[1, 1] / w[0, 0]).real  # the weights of |01><01| and |00><00|
    assert np.abs(w - cyclic_state(d, beta)).max() <= 1e-15
    return "cyclic"


def witnessed_bytes(res):
    """What a witnessed result reports apart from its iterations and gap."""
    return res.status, repr(res.pairing), res.witness.mat.tobytes(), res.witness.ppt_checked


def assert_certificate(j, res):
    cert = res.certificate
    d = int(round(np.sqrt(j.shape[0])))
    norm = np.linalg.norm(j, 2)
    assert matcore.is_psd(cert.j1)[0] and matcore.is_psd(cert.j2)[0]
    assert cert.residual <= matcore._tol(matcore.FEASIBILITY_TOL, norm)
    assert np.abs(cert.j1 + partial_transpose(cert.j2, d, d, "A") - j).max() < 1e-10


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
        projectors, rho = decomp._bell_states()
        for mu in range(4):
            for nu in range(4):
                ref = per_call_projector(mu, nu).tobytes()
                assert projectors[4 * mu + nu].mat.tobytes() == ref
                assert bell_state_projector(mu, nu).mat.tobytes() == ref
        ref = per_call_bound_entangled().tobytes()
        assert rho.mat.tobytes() == ref
        assert bound_entangled_state().mat.tobytes() == ref

    @pytest.mark.parametrize("mu,nu", [(1.5, 0), (0, 2.0), (4, 0), (0, -1)])
    def test_bad_indices_rejected(self, mu, nu):
        # (1.5, 0) raised numpy's IndexError
        with pytest.raises(DomainError, match="integers in 0..3"):
            bell_state_projector(mu, nu)
        assert np.array_equal(bell_state_projector(np.int64(1), 2).mat,
                              bell_state_projector(1, 2).mat)

    def test_cached_arrays_shared_and_read_only(self):
        # every call returns the one shared, validated state, whose matrix is read-only
        projectors, rho = decomp._bell_states()
        assert decomp._bell_states()[0] is projectors
        assert bound_entangled_state() is bound_entangled_state() is rho
        assert bell_state_projector(1, 2) is bell_state_projector(1, 2) is projectors[6]
        assert rho.ppt_checked and not projectors[6].ppt_checked
        for arr in (projectors[6].mat, rho.mat):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


def near_boundary_state(rng, d, real, kind, margin):
    """A trace-one d (x) d state, real or complex, whose least eigenvalue
    (``kind="psd"``) or whose partial transpose's least eigenvalue
    (``kind="ppt"``) is ``-margin * PSD_SLACK``: ``margin`` times the PSD
    rule's bound for a matrix of norm at most 1."""
    n = d * d
    target = -margin * matcore.PSD_SLACK
    if kind == "psd":
        w = rng.uniform(0.1, 1.0, n)
        w[0] = 0.0
        w *= (1.0 - target) / w.sum()
        w[0] = target
        q = orthogonal(rng, n) if real else random_unitary(rng, n)
        return (q * w) @ q.conj().T
    # a pure state is entangled, its partial transpose has a negative least
    # eigenvalue mu; mixing in the maximally mixed state lifts it to target
    psi = rng.normal(size=n) if real else rng.normal(size=n) + 1j * rng.normal(size=n)
    rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    mu = np.linalg.eigvalsh(partial_transpose(rho0, d, d, "A"))[0]
    p = (target - mu) / (1.0 / n - mu)
    return (1.0 - p) * rho0 + p * np.eye(n) / n


def validation_outcome(call):
    """The gated matrix's bytes, or the error's class and its message without
    the reported number (which the field's roundoff may move in the last digit)."""
    try:
        return call().tobytes()
    except ValueError as exc:
        return type(exc), str(exc).rsplit(" ", 1)[0]


@pytest.mark.usefixtures("shared_states_built")
class TestWitnessValidation:
    """``WitnessState`` gates its matrix once and takes the PSD and PPT spectra
    in one stacked ``eigvalsh``, in the matrix's own field.  It accepts and
    rejects as the earlier validation did (``helpers.reference_witness_matrix``:
    a complex gate and two complex ``matcore.is_psd``), with the same error
    class and message, and keeps the same complex128 bytes."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(2, 4), real=st.booleans(), kind=st.sampled_from(["psd", "ppt"]),
           margin=st.one_of(st.floats(0.5, 0.99), st.floats(1.01, 2.0)),
           ppt_checked=st.booleans(),
           trace_shift=st.one_of(st.just(0.0), st.sampled_from([0.5e-12, -2e-12, 2e-12])),
           skew=st.one_of(st.just(0.0), st.sampled_from([0.5e-12, 2e-12])),
           seed=st.integers(0, 2**32 - 1))
    def test_same_decisions_near_the_boundaries(self, d, real, kind, margin, ppt_checked,
                                                trace_shift, skew, seed):
        rng = np.random.default_rng(seed)
        rho = near_boundary_state(rng, d, real, kind, margin) * (1.0 + trace_shift)
        if skew:
            # an anti-Hermitian part of max entry `skew`, around the Hermiticity gate
            a = rng.normal(size=rho.shape)
            a = (a - a.T) if real else 1j * (a + a.T)
            rho = rho + skew / 2 * a / np.abs(a).max()
        assert real == np.isrealobj(rho)
        got = validation_outcome(lambda: decomp.WitnessState(rho, ppt_checked=ppt_checked).mat)
        assert got == validation_outcome(lambda: reference_witness_matrix(rho, ppt_checked))

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("real", [True, False])
    def test_boundary_is_the_psd_rule(self, d, real):
        # 1% inside the bound a spectrum passes, 1% outside its check fails
        rng = np.random.default_rng([56, d, real])
        for kind, message in (("psd", "must be PSD"), ("ppt", "partial-transpose")):
            ppt = kind == "ppt"
            decomp.WitnessState(near_boundary_state(rng, d, real, kind, 0.99), ppt_checked=ppt)
            with pytest.raises(DomainError, match=message):
                decomp.WitnessState(near_boundary_state(rng, d, real, kind, 1.01),
                                    ppt_checked=ppt)

    def test_one_stacked_solve_in_the_field(self, monkeypatch):
        # a real state, the cyclic one, and a complex one, each PPT-checked
        rng = np.random.default_rng(57)
        for rho, dtype in ((cyclic_state(3, 2.0), np.float64),
                           (bound_entangled_state().mat, np.float64),
                           (near_boundary_state(rng, 3, False, "ppt", 0.5), np.complex128)):
            calls, state = eigensolver_calls(
                monkeypatch, lambda: decomp.WitnessState(rho, ppt_checked=True))
            assert calls == [("eigvalsh", np.dtype(dtype))]
            assert state.mat.dtype == np.complex128
            assert state.mat.tobytes() == reference_witness_matrix(rho, True).tobytes()


class TestSpectralParts:
    def test_reassembly(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 6)
        w, v, pos = decomp._spectral_parts(h)
        neg = (v * np.minimum(w, 0.0)) @ v.conj().T
        assert np.abs(pos + neg - h).max() < 1e-12
        assert np.linalg.eigvalsh(pos).min() > -1e-14
        assert np.linalg.eigvalsh(-neg).min() > -1e-14
        assert np.allclose(w, np.linalg.eigvalsh(h), atol=1e-12)


@pytest.mark.usefixtures("shared_states_built")
class TestValidationCount:
    """Internal paths trust arrays that a public entry already validated, so
    the number of ``as_cmatrix`` calls does not grow with solver iterations."""

    @pytest.mark.parametrize("t,status", [(0.2, INFEASIBLE_WITNESSED), (1.0, FEASIBLE)])
    def test_flagship_feasibility(self, monkeypatch, t, status):
        # rotated, so that the loop decides on both sides of ln(3)/2
        j = real_rotated(choi(witness_product_map(t)))
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

    def test_choi_min_criterion(self, monkeypatch):
        # the map, once, in choi: the Choi matrix's Hermiticity gate works on
        # the validated array, with the bits of matcore.min_eigenvalue
        s = evolve(witness_product_generator(), 0.4)
        n, value = count_validations(monkeypatch, lambda: decomp.choi_min_criterion(s))
        assert n == 1
        assert value == matcore.min_eigenvalue(choi(s))

    def test_qubit_map_check(self, monkeypatch):
        rng = np.random.default_rng(38)
        r = gksl.basis_rotation_matrix(random_unitary(rng, 2), gksl.pauli_basis())
        s = evolve(build_generator(qubit_spec(r.T @ np.diag([1.0, -1.0, 1.0]) @ r)), 2.0)
        n, verdict = count_validations(monkeypatch, lambda: posmap.map_positivity_check(s))
        assert verdict.proof == posmap.PROOF_TRUST_REGION
        # S itself, once: the Choi matrix's Hermiticity gate and the
        # re-evaluation at the pair work on the validated array
        assert n == 1

    @pytest.mark.parametrize("rates,proof", [
        ([1.0, -1.0, 1.0], posmap.PROOF_TRUST_REGION),
        ([1.0, 1.0, -3.0], posmap.PROOF_TRUST_REGION),
        ([1.0, 1.0, 1.0], posmap.PROOF_KOSSAKOWSKI_PSD),
    ])
    def test_qubit_generator_check(self, monkeypatch, rates, proof):
        gen = build_generator(qubit_spec(np.diag(rates), np.diag([0.3, -0.3])))
        n, verdict = count_validations(monkeypatch,
                                       lambda: posmap.kossakowski_positivity_check(gen))
        assert verdict.proof == proof
        assert n == 0

    @pytest.mark.parametrize("d", [3, 5])
    def test_psd_kossakowski_check(self, monkeypatch, d):
        rng = np.random.default_rng(39 + d)
        gen = build_generator(gksl.KossakowskiSpec(d, random_hermitian(rng, d),
                                                   random_psd(rng, d * d - 1),
                                                   gksl.gell_mann_basis(d)))
        n, verdict = count_validations(monkeypatch,
                                       lambda: posmap.kossakowski_positivity_check(gen))
        assert verdict.proof == posmap.PROOF_KOSSAKOWSKI_PSD
        assert n == 0

    def test_product_positivity_necessary(self, monkeypatch):
        # C1, C2 and V once each: neither the sum C1 + R^T C2 R nor the
        # report's V is validated again
        rng = np.random.default_rng(40)
        c1, c2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        v = random_unitary(rng, 2)
        n, rep = count_validations(monkeypatch, lambda: posmap.product_positivity_necessary(
            c1, c2, gksl.pauli_basis(), v))
        assert n == 3
        r = gksl.basis_rotation_matrix(v, gksl.pauli_basis())
        ok, lmin = matcore.is_psd(c1 + r.T @ c2 @ r)
        assert (rep.necessary_ok, rep.min_eigenvalue) == (ok, lmin)


@pytest.mark.usefixtures("shared_states_built")
class TestQubitEigensolverCount:
    """The qubit routes pay one eigh for the trust-region subproblem; the
    generator route adds the eigvalsh of C >= 0, the map route the Choi
    check's eigvalsh.  The pair is written in closed form."""

    @pytest.mark.parametrize("rates", [[1.0, -1.0, 1.0], [1.0, 1.0, -3.0], [1.0, 1.0, 1.0]])
    def test_generator(self, monkeypatch, rates):
        gen = build_generator(qubit_spec(np.diag(rates)))
        n_eigh, n_eigvalsh, verdict = count_eigensolvers(
            monkeypatch, lambda: posmap.kossakowski_positivity_check(gen))
        assert verdict.proof != posmap.PROOF_SEARCH
        assert (n_eigh, n_eigvalsh) == (1, 1)

    @pytest.mark.parametrize("s", [
        gksl.transpose_superop(2),
        build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0]))).noise,
        # X -> Tr(sigma_3 X) 1 / 2 is decided at n = -e3, a second pair
        np.outer([1, 0, 0, 1], [1, 0, 0, -1]) / 2,
    ], ids=["transpose", "noise", "trace-sign"])
    def test_map(self, monkeypatch, s):
        n_eigh, n_eigvalsh, verdict = count_eigensolvers(
            monkeypatch, lambda: posmap.map_positivity_check(s))
        assert verdict.proof == posmap.PROOF_TRUST_REGION
        assert (n_eigh, n_eigvalsh) == (1, 1)


@pytest.mark.usefixtures("shared_states_built")
class TestEigensolverCount:
    """Each iteration of the projection loop costs two eigendecompositions;
    the witness shift's eigvalsh runs only when the unshifted pairing is
    negative, the certificate test of an accelerated iteration adds one
    more, and a certificate the loop returns pays one eigvalsh per block
    to re-verify them.  A witness pays one stacked eigvalsh for its PSD and
    PPT checks, so a known PPT state decides after J's eigh and that one."""

    def test_feasible_flagship(self, monkeypatch):
        j = choi(witness_product_map(1.0))
        n_eigh, n_eigvalsh, res = count_eigensolvers(
            monkeypatch, lambda: decomposability_feasibility(j))
        assert res.status == FEASIBLE and res.iterations > 30
        assert n_eigh == 2 * res.iterations + 1
        assert n_eigvalsh == 2

    def test_witnessed_flagship(self, monkeypatch):
        j = real_rotated(choi(witness_product_map(0.2)))
        n_eigh, n_eigvalsh, res = count_eigensolvers(
            monkeypatch, lambda: decomposability_feasibility(j))
        assert res.status == INFEASIBLE_WITNESSED and res.iterations > 30
        assert n_eigh <= 2 * res.iterations + 1
        # WitnessState validation takes one of them
        assert n_eigvalsh <= res.iterations + 1
        # unrotated, the bound-entangled state decides after the first eigh
        n_eigh, n_eigvalsh, res = count_eigensolvers(
            monkeypatch, lambda: decomposability_feasibility(choi(witness_product_map(0.2))))
        assert decided_first(res) == "bound-entangled"
        assert (n_eigh, n_eigvalsh) == (1, 1)

    def test_witnessed_choi_map(self, monkeypatch):
        # below Cho-Kye-Lee's boundary the cyclic state decides after the
        # first eigh, and WitnessState's PSD and PPT checks take one stacked
        # eigvalsh
        j = choi(choi_map(2.0, 1.0, 0.2))
        n_eigh, n_eigvalsh, res = count_eigensolvers(
            monkeypatch, lambda: decomposability_feasibility(j))
        assert decided_first(res) == "cyclic"
        assert (n_eigh, n_eigvalsh) == (1, 1)

    def test_accelerated_choi_map(self, monkeypatch):
        j = choi(choi_map(2.0, 1.0, 0.3))
        n_eigh, n_eigvalsh, res = count_eigensolvers(
            monkeypatch, lambda: decomposability_feasibility(j))
        assert res.status == FEASIBLE and res.iterations > decomp.ACCELERATION_START
        assert n_eigh == 2 * res.iterations + 1
        assert n_eigh + n_eigvalsh <= 3 * res.iterations + 1
        # only iterations past ACCELERATION_START pay eigvalsh here: the
        # certificate test, and the witness shift where an extrapolated
        # A-step turns the unshifted pairing negative
        assert 0 < n_eigvalsh <= 2 * (res.iterations - decomp.ACCELERATION_START)


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
        # Choi's original positive, non-decomposable map Phi[2,0,1] on M_3,
        # composed with the transpose, so that the loop decides it, not the
        # cyclic state (TestCyclicFirst.test_qutrit_choi_map takes the map itself)
        j = transposed(choi(choi_map(2.0, 0.0, 1.0)))
        res = decomposability_feasibility(j)
        assert res.status == INFEASIBLE_WITNESSED and res.iterations > 0
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

    @pytest.mark.parametrize("case", [
        "flagship-0.2", "flagship-0.5", "flagship-0.6", "flagship-1.0",
        "phi-2-non-decomposable", "phi-1.5-non-decomposable",
        "psd-2", "psd-3", "psd-4", "indefinite-2", "indefinite-3", "indefinite-4",
        "negative-trace-2", "negative-trace-3", "max-iter-3",
        "phased-flagship-0.2", "phased-flagship-1.0",
        "rotated-flagship-0.2", "rotated-flagship-0.5",
        "1e9*flagship-1.0", "1e9*phased-flagship-0.2", "1e9*phi-2-non-decomposable",
    ])
    def test_bit_identical_to_reference(self, case):
        # every case ends within ACCELERATION_START iterations, so the
        # accelerated loop takes exactly the plain loop's steps, in the
        # same field; the flagship below ln(3)/2 is decided before the loop.
        # The cyclic state decides Phi[a,b,c] below the boundary before the
        # loop too (TestCyclicFirst), so the loop runs on its partial transpose
        j, max_iter = reference_case(case)
        if case.endswith("non-decomposable"):
            j = transposed(j)
        got = decomposability_feasibility(j, max_iter=max_iter)
        assert got.iterations <= decomp.ACCELERATION_START
        ref = reference_feasibility(j, max_iter=max_iter)
        if decided_first(got):
            # the flagship below ln(3)/2: the reference's loop ends on the same witness
            assert decided_first(got) == "bound-entangled"
            assert case in ("flagship-0.2", "flagship-0.5")
            assert witnessed_bytes(got) == witnessed_bytes(ref)
        else:
            assert result_bytes(got) == result_bytes(ref)
            assert got.iterations > 0 or got.status == FEASIBLE

    @pytest.mark.parametrize("case", ["phi-2-decomposable", "phi-1.5-decomposable"])
    def test_accelerated_against_reference(self, case):
        # near Cho-Kye-Lee's boundary the plain loop needs 394 and 303
        # iterations; past ACCELERATION_START the accelerated loop takes
        # other steps to the same verdict, with a certificate that re-verifies
        j, max_iter = reference_case(case)
        got = decomposability_feasibility(j, max_iter=max_iter)
        ref = reference_feasibility(j, max_iter=max_iter)
        assert got.status == ref.status == FEASIBLE
        assert_certificate(j, got)
        assert decomp.ACCELERATION_START < got.iterations < ref.iterations

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        a=st.floats(1.0, 2.9),
        excess=st.floats(1.0, 1.5),
        spread=st.floats(1.05, 1.5),
    )
    def test_accelerated_near_boundary(self, a, excess, spread):
        # decomposable Phi[a,b,c] between 1 and 1.5 times the boundary
        # product bc = (3 - a)^2 / 4, where the plain loop needs several
        # hundred iterations and the accelerated phase decides
        j = choi_map_choi(a, excess * (3 - a) ** 2 / 4, spread)
        got = decomposability_feasibility(j)
        ref = reference_feasibility(j)
        assert got.status == ref.status == FEASIBLE
        assert_certificate(j, got)
        assert got.iterations <= ref.iterations

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(1.2, 2.8), share=st.floats(0.99, 0.999))
    def test_accelerated_witness_near_boundary(self, a, share):
        # positive, non-decomposable Phi[a,b,c] just below the boundary,
        # where the plain loop needs up to about 220 iterations to witness;
        # phased, so that the loop decides it, not the cyclic state
        # (TestCyclicFirst.test_witness_near_boundary takes the map itself)
        floor = max(2 - a, 0.0) ** 2
        j = phased(choi_map_choi(a, floor + share * ((3 - a) ** 2 / 4 - floor), 1.25))
        got = decomposability_feasibility(j)
        ref = reference_feasibility(j)
        assert got.status == ref.status == INFEASIBLE_WITNESSED
        assert_witness(j, got)
        assert got.pairing == pytest.approx(ref.pairing, abs=1e-9)
        assert 0 < got.iterations <= ref.iterations

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_indefinite_same_status(self, d, seed):
        j = random_hermitian(np.random.default_rng(seed), d * d)
        got = decomposability_feasibility(j)
        assert got.status == reference_feasibility(j).status == INFEASIBLE_WITNESSED
        assert_witness(j, got)

    def test_budget_exhaustion(self):
        # too few iterations to certify, and no witness exists in the
        # decomposable regime: the solver must say so rather than guess
        res = decomposability_feasibility(choi(witness_product_map(1.0)), max_iter=3)
        assert res.status == decomp.MAX_ITERATIONS
        assert res.gap > 0
        assert res.iterations == 3

    def test_budget_exhaustion_while_accelerated(self):
        # the budget runs out two accelerated iterations in, before the
        # certificate test passes on a true projection
        max_iter = decomp.ACCELERATION_START + 2
        res = decomposability_feasibility(choi(choi_map(2.0, 1.0, 0.3)), max_iter=max_iter)
        assert res.status == decomp.MAX_ITERATIONS
        assert res.certificate is None and res.witness is None
        assert 0 < res.gap < np.inf
        assert res.iterations == max_iter

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_budget_below_one_rejected(self, max_iter):
        with pytest.raises(PreconditionError, match="max_iter"):
            decomposability_feasibility(choi(witness_product_map(1.0)), max_iter=max_iter)

    def test_non_square_dimension_rejected(self):
        # 6 is not d^2: there is no bipartite split to transpose
        with pytest.raises(matcore.ShapeError, match="d\\^2 x d\\^2"):
            decomposability_feasibility(np.eye(6))


def real_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2


def assert_matches_complex_arithmetic(j):
    """The float64 loop on a real J against the same loop on J in complex
    arithmetic; below ACCELERATION_START that is also the reference.  Where
    a known PPT state decides before the loop, both fields report the same
    state and witness bytes after no iterations, and for the bound-entangled
    state the same pairing bits.  Returns the float64 result."""
    got = decomposability_feasibility(j)
    casts = []

    def to_complex(a):
        casts.append(a.dtype)
        return a.astype(complex)

    with pytest.MonkeyPatch.context() as mp:
        # the core casts a real J to float64 with np.ascontiguousarray; cast it
        # back, so that the same loop runs on J in complex arithmetic
        mp.setattr(np, "ascontiguousarray", to_complex)
        ref = decomp._feasibility(matcore.as_hermitian(j), 50000)
    assert casts == [np.dtype(np.float64)]
    first = decided_first(ref)
    if first:
        # the reference scores only the bound-entangled state, after its loop,
        # which off the flagship may end on a more negative witness
        assert ref.status == reference_feasibility(j, dtype=complex).status
        assert decided_first(got) == first
        assert got.witness.mat.tobytes() == ref.witness.mat.tobytes()
        if first == "bound-entangled":
            assert witnessed_bytes(got) == witnessed_bytes(ref)
    elif ref.iterations < decomp.ACCELERATION_START:
        assert result_bytes(ref) == result_bytes(reference_feasibility(j, dtype=complex))
    assert got.status == ref.status
    assert abs(got.iterations - ref.iterations) <= 5
    if got.status == FEASIBLE:
        assert_certificate(j, got)
    else:
        assert got.status == INFEASIBLE_WITNESSED
        assert_witness(j, got)
        assert got.pairing == pytest.approx(ref.pairing, abs=1e-12)
    return got


class TestBoundEntangledFirst:
    """At d = 4 the bound-entangled state is scored before the loop and, when
    it pairs with J below the slack, is the witness after no iterations."""

    @pytest.mark.parametrize("case", [0.02, 0.1, 0.2, 0.3, 0.4, 0.5, 0.54, "noise"])
    def test_flagship_matches_reference(self, case):
        # the earlier formulation scored that state after 37-57 iterations
        # and returned it with the same bits
        gen = witness_product_generator()
        j = choi(gen.noise if case == "noise" else witness_product_map(case))
        got = decomposability_feasibility(j)
        ref = reference_feasibility(j)
        assert got.iterations == 0 < ref.iterations
        assert witnessed_bytes(got) == witnessed_bytes(ref)
        assert got.witness.mat.tobytes() == bound_entangled_state().mat.tobytes()
        # the gap at B = 0, from the loop's first eigh, in the field of J
        lmin = np.linalg.eigh(np.ascontiguousarray(matcore.as_hermitian(j).real))[0][0]
        assert repr(got.gap) == repr(max(0.0, -float(lmin)))
        if case == "noise":
            rep = decomposability_propagation_check(gen)
            assert repr(rep.noise_feasibility.pairing) == repr(noise_pairing_table()[1])

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_policy_off_the_flagship(self, field):
        # a random J that the state witnesses keeps the reference's status,
        # with the state's own pairing in place of the loop's more negative one
        rng = np.random.default_rng(54)
        j = real_symmetric(rng, 16) if field == "real" else random_hermitian(rng, 16)
        got = decomposability_feasibility(j)
        ref = reference_feasibility(j)
        assert got.status == ref.status == INFEASIBLE_WITNESSED
        assert got.iterations == 0 < ref.iterations
        rho = bound_entangled_state().mat
        jm = matcore.as_hermitian(j)
        jm = jm if field == "complex" else np.ascontiguousarray(jm.real)
        assert got.witness.mat.tobytes() == rho.tobytes()
        assert repr(got.pairing) == repr(decomp._pairing(jm, rho))
        assert ref.pairing < got.pairing
        assert_witness(j, got)


def cyclic_ratio(d, s0, s1, s2, beta):
    """The cyclic state's pairing with a d (x) d Choi matrix J whose sums over
    the |ii><jj| block and the other |ik><ik| are s0, over |i,i+1><i,i+1| s1
    and over |i+1,i><i+1,i| s2: (s0 + beta s1 + s2 / beta) / (d (d - 2 + beta + 1 / beta))."""
    return (s0 + beta * s1 + s2 / beta) / (d * (d - 2 + beta + 1 / beta))


def cyclic_beta(d, s0, s1, s2):
    """The beta > 0 at which :func:`cyclic_ratio` is least: the positive root
    of (s1 (d - 2) - s0) beta^2 + 2 (s1 - s2) beta + (s0 - s2 (d - 2)), unique
    since the leading coefficient is positive and the constant term negative."""
    qa, qb, qc = s1 * (d - 2) - s0, 2 * (s1 - s2), s0 - s2 * (d - 2)
    assert qa > 0 > qc
    return (-qb + np.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)


def cyclic_pairing(a, b, c):
    """The least pairing of Phi[a,b,c] with the cyclic state, whose sums are
    s0 = a - 3, s1 = b and s2 = c; negative exactly when bc < (3 - a)^2 / 4."""
    return cyclic_ratio(3, a - 3, b, c, cyclic_beta(3, a - 3, b, c))


class TestCyclicFirst:
    """For d >= 3 the cyclic PPT state is scored before the loop and, when its
    closed-form pairing with J is below the slack, is the witness after no
    iterations.  At d = 3 that is every Phi[a,b,c] with b, c > 0 below
    Cho-Kye-Lee's bc = (3 - a)^2 / 4.  These tests pin that route on the maps
    whose loop tests now run on a transposed or phased copy."""

    @pytest.mark.parametrize("case,abc", [
        ("phi-2-non-decomposable", (2.0, 1.0, 0.2)),
        ("phi-1.5-non-decomposable", (1.5, 1.2, 0.4)),
        ("1e9*phi-2-non-decomposable", (2.0, 1.0, 0.2)),
    ])
    def test_reference_cases(self, case, abc):
        # the reference's loop takes 33-46 iterations to a witness whose
        # pairing its stopping rule leaves within 0.05% above the cyclic
        # state's least pairing, which is its closed form
        a, b, c = abc
        j, max_iter = reference_case(case)
        scale = 1e9 if case.startswith("1e9*") else 1.0
        got = decomposability_feasibility(j, max_iter=max_iter)
        ref = reference_feasibility(j, max_iter=max_iter)
        assert decided_first(got) == "cyclic"
        assert got.status == ref.status and got.iterations == 0 < ref.iterations
        assert got.pairing < ref.pairing < 0
        assert got.pairing == pytest.approx(ref.pairing, rel=1e-3)
        assert got.pairing == pytest.approx(scale * cyclic_pairing(a, b, c), rel=1e-12)
        beta = cyclic_beta(3, a - 3, b, c)
        assert np.abs(got.witness.mat - cyclic_state(3, beta)).max() <= 1e-15
        # the gap at B = 0, from the first eigh, in the field of J
        lmin = np.linalg.eigh(np.ascontiguousarray(matcore.as_hermitian(j).real))[0][0]
        assert repr(got.gap) == repr(max(0.0, -float(lmin)))
        assert_witness(j / scale, dataclasses.replace(got, pairing=got.pairing / scale))

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(1.2, 2.8), share=st.floats(0.99, 0.999))
    def test_witness_near_boundary(self, a, share):
        # TestFeasibility.test_accelerated_witness_near_boundary, on the map
        # itself: the loop's 115-222 iterations are skipped for a pairing
        # within 1% of the loop's
        floor = max(2 - a, 0.0) ** 2
        j = choi_map_choi(a, floor + share * ((3 - a) ** 2 / 4 - floor), 1.25)
        got = decomposability_feasibility(j)
        ref = reference_feasibility(j)
        assert decided_first(got) == "cyclic"
        assert got.status == ref.status == INFEASIBLE_WITNESSED
        assert_witness(j, got)
        assert got.pairing == pytest.approx(ref.pairing, rel=1e-2)

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(1.2, 2.9), share=st.floats(0.5, 0.999))
    def test_matches_complex(self, a, share):
        # TestField.test_choi_map_matches_complex below the boundary, on the
        # map itself: both fields build the same state and agree on its pairing
        floor = max(2 - a, 0.0) ** 2
        j = choi_map_choi(a, floor + share * ((3 - a) ** 2 / 4 - floor), 1.25)
        assert decided_first(assert_matches_complex_arithmetic(j)) == "cyclic"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(1.0, 2.95),
           share=st.one_of(st.floats(0.01, 0.95), st.floats(1.05, 4.0)),
           log_ratio=st.floats(-3.0, 3.0))
    def test_decides_exactly_below_the_boundary(self, a, share, log_ratio):
        # bc = share (3 - a)^2 / 4 and b / c = 10^log_ratio, on both sides of
        # the boundary with a 5% margin: witnessed at iteration 0 below it, and
        # never witnessed above it, where Phi[a,b,c] is positive and decomposable
        p = share * (3 - a) ** 2 / 4
        b, c = np.sqrt(p * 10 ** log_ratio), np.sqrt(p / 10 ** log_ratio)
        j = choi(choi_map(a, b, c))
        res = decomposability_feasibility(j, max_iter=1)
        if share < 1:
            assert decided_first(res) == "cyclic"
            assert_witness(j, res)
            assert res.pairing == pytest.approx(cyclic_pairing(a, b, c), rel=1e-9)
        else:
            assert a + b + c >= 3 and b * c >= max(2 - a, 0.0) ** 2
            assert res.status != INFEASIBLE_WITNESSED

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_state_is_ppt(self, d):
        # the partial transpose splits into 2x2 blocks [[w_ik, 1], [1, w_ki]]
        # with w_ik w_ki = 1, so it is PSD for every beta > 0
        for beta in (1e-3, 0.5, 1.0, 7.0, 1e3):
            rho = cyclic_state(d, beta)
            assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
            scale = np.linalg.norm(rho, 2)
            assert np.linalg.eigvalsh(rho)[0] >= -1e-14 * scale
            assert np.linalg.eigvalsh(partial_transpose(rho, d, d, "A"))[0] >= -1e-14 * scale
            decomp.WitnessState(rho, ppt_checked=True)

    @pytest.mark.parametrize("d", [4, 5])
    def test_higher_dimensions(self, d):
        # J/d-scaled: -1 on |ii><jj| (i != j), a - 1 on |ii><ii|, b on
        # |i,i+1><i,i+1|, c on |i+1,i><i+1,i| and e on the other |ik><ik|.
        # Then s0 = a - d + e (d - 3), s1 = b and s2 = c; at d = 4 the
        # bound-entangled state pairs positively with it, so the cyclic
        # state decides
        a, b, c, e = 2.0, 1.0, 0.25, 0.5
        eye = np.eye(d)
        j = np.zeros((d * d, d * d))
        for i in range(d):
            for k in range(d):
                ik = np.kron(eye[i], eye[k])
                weight = b if k == (i + 1) % d else c if i == (k + 1) % d else e
                j += (a - 1 if i == k else weight) * np.outer(ik, ik)
                if i != k:
                    j -= np.outer(np.kron(eye[i], eye[i]), np.kron(eye[k], eye[k]))
        j /= d
        res = decomposability_feasibility(j)
        assert decided_first(res) == "cyclic"
        assert_witness(j, res)
        sums = (a - d + e * (d - 3), b, c)
        closed = cyclic_ratio(d, *sums, cyclic_beta(d, *sums))
        assert res.pairing == pytest.approx(closed, rel=1e-12)

    def test_qutrit_choi_map(self):
        # TestFeasibility.test_qutrit_choi_map_witnessed on Choi's own map
        # Phi[2,0,1]: s1 = b = 0, so the least pairing is at the root
        # beta = 1 + sqrt(3) of beta^2 - 2 beta - 2, where the loop takes 27
        # iterations to a pairing of -0.0514
        j = choi(choi_map(2.0, 0.0, 1.0))
        res = decomposability_feasibility(j)
        assert decided_first(res) == "cyclic"
        assert_witness(j, res)
        beta = 1 + np.sqrt(3.0)
        assert np.abs(res.witness.mat - cyclic_state(3, beta)).max() <= 1e-15
        assert res.pairing == pytest.approx((-1 + 1 / beta) / (3 * (1 + beta + 1 / beta)),
                                            rel=1e-12)
        assert res.pairing == pytest.approx(-0.0516, abs=1e-4)
        # a local unitary maps the decomposable cone onto itself: the loop
        # witnesses the rotated, complex copy, with a pairing within 1%
        rng = np.random.default_rng(45)
        w = np.kron(random_unitary(rng, 3), random_unitary(rng, 3))
        jw = w @ j @ w.conj().T
        rotated = decomposability_feasibility(jw)
        assert rotated.status == INFEASIBLE_WITNESSED and rotated.iterations > 0
        assert_witness(jw, rotated)
        assert rotated.pairing == pytest.approx(res.pairing, rel=1e-2)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(1.0, 2.95), c=st.floats(0.0, 3.0), zero_b=st.booleans())
    def test_choi_maps_with_a_zero_sum(self, a, c, zero_b):
        # Phi[a,0,c] and Phi[a,c,0] with a < 3 are non-decomposable: s1 or s2
        # is 0, and the least pairing is negative, at iteration 0
        b, c = (0.0, c) if zero_b else (c, 0.0)
        j = choi(choi_map(a, b, c))
        res = decomposability_feasibility(j, max_iter=1)
        assert decided_first(res) == "cyclic"
        assert_witness(j, res)
        assert res.pairing == pytest.approx(cyclic_pairing(a, b, c), rel=1e-9)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(3, 5), s0=st.floats(-3.0, 3.0), s1=st.floats(-1.0, 3.0),
           s2=st.floats(-1.0, 3.0))
    def test_beta_is_least(self, d, s0, s1, s2):
        # where q2 > 0 > q0 the positive root is the ratio's least value on
        # beta > 0, against a bounded scalar search on log beta
        assume(s1 * (d - 2) - s0 > 1e-3 and s0 - s2 * (d - 2) < -1e-3)
        beta = cyclic_beta(d, s0, s1, s2)
        best = scipy.optimize.minimize_scalar(
            lambda x: cyclic_ratio(d, s0, s1, s2, np.exp(x)), bounds=(-12.0, 12.0),
            method="bounded", options={"xatol": 1e-10})
        assert cyclic_ratio(d, s0, s1, s2, beta) <= best.fun + 1e-12
        for x in (beta * 0.999, beta * 1.001):
            assert cyclic_ratio(d, s0, s1, s2, beta) <= cyclic_ratio(d, s0, s1, s2, x)

    def test_not_scored_below_d3_or_without_a_minimum(self):
        # qubit maps never reach the state, nor Phi[2,0,1] composed with the
        # transpose: its sums s0 = a - 1 = 1, s1 = 0 and s2 = 1 give
        # q2 = s1 - s0 < 0, and its pairing is least as beta -> infinity
        rng = np.random.default_rng(55)
        assert decided_first(decomposability_feasibility(random_hermitian(rng, 4))) is None
        j = transposed(choi(choi_map(2.0, 0.0, 1.0)))
        assert decided_first(decomposability_feasibility(j)) is None

    @pytest.mark.parametrize("scale", [1e154, 1e300, 2.0 ** 512, 2.0 ** 1000])
    def test_huge_sums_do_not_overflow(self, scale):
        # q1^2 and q2 q0 of the raw sums overflow from about 1e154 on; the
        # root is formed from sums scaled by a power of two, so a J scaled by
        # a power of two gets the same beta, bit for bit
        j = choi(choi_map(2.0, 1.0, 0.2))
        res = decomposability_feasibility(scale * j, max_iter=1)
        unscaled = decomposability_feasibility(j).witness.mat
        assert decided_first(res) == "cyclic"
        assert np.abs(res.witness.mat - unscaled).max() <= 1e-15
        if math.frexp(scale)[0] == 0.5:
            assert res.witness.mat.tobytes() == unscaled.tobytes()
        assert res.pairing == pytest.approx(scale * cyclic_pairing(2.0, 1.0, 0.2), rel=1e-12)


@pytest.mark.usefixtures("shared_states_built")
class TestField:
    """The loop runs in the field of J: float64 for a real J, whose iterates,
    certificate and witness are all real (the decomposable cone is closed
    under entrywise conjugation), and complex128 otherwise."""

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(t=st.floats(0.05, 2.0))
    def test_flagship_matches_complex(self, t):
        j = choi(witness_product_map(t))
        assert_matches_complex_arithmetic(j)
        # below ln(3)/2 the loop runs only on the rotated flagship
        assert_matches_complex_arithmetic(real_rotated(j))

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(1.2, 2.9), share=st.floats(0.5, 0.999), decomposable=st.booleans())
    def test_choi_map_matches_complex(self, a, share, decomposable):
        # both sides of bc = (3 - a)^2 / 4: 1 to 3 times the boundary
        # product, where the accelerated phase decides, or a share of the
        # way up to it from the positivity floor
        boundary = (3 - a) ** 2 / 4
        floor = max(2 - a, 0.0) ** 2
        p = (4 * share - 1) * boundary if decomposable else floor + share * (boundary - floor)
        j = choi_map_choi(a, p, 1.25)
        if not decomposable:
            # so that the loop decides it in both fields, not the cyclic state
            # (TestCyclicFirst.test_matches_complex takes the map itself)
            j = transposed(j)
        assert not j.imag.any()
        assert assert_matches_complex_arithmetic(j).iterations > 0

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_real_indefinite_matches_complex(self, d, seed):
        j = real_symmetric(np.random.default_rng(seed), d * d)
        assert np.linalg.eigvalsh(j)[0] < 0
        assert_matches_complex_arithmetic(j)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", ["flagship-0.2", "flagship-1.0", "phi-2-0.6-0.6", "phi-2-0-1"])
    def test_local_rotation_keeps_status(self, case, seed):
        # a real J runs the float64 loop; (U (x) V) J (U (x) V)^dag is complex and
        # runs the complex128 one.  A local unitary maps the decomposable cone and
        # the PPT states onto themselves, so the status holds.
        if case.startswith("flagship"):
            t = float(case.split("-")[1])
            j, d = choi(witness_product_map(t)), 4
            if t < np.log(3.0) / 2.0:
                j = real_rotated(j)  # the loop decides it, not the bound-entangled state
        else:
            j, d = choi(choi_map(*map(float, case.split("-")[1:]))), 3
            if case == "phi-2-0-1":
                j = transposed(j)  # the loop decides it, not the cyclic state
        rng = np.random.default_rng(seed)
        u = np.kron(random_unitary(rng, d), random_unitary(rng, d))
        rotated = u @ j @ u.conj().T
        assert not j.imag.any() and np.abs(rotated.imag).max() > 0.01
        results = [decomposability_feasibility(m) for m in (j, rotated)]
        assert results[0].status == results[1].status
        assert abs(results[0].iterations - results[1].iterations) <= 5
        for m, res in zip((j, rotated), results):
            if res.status == FEASIBLE:
                assert_certificate(m, res)
            else:
                assert res.status == INFEASIBLE_WITNESSED
                assert_witness(m, res)

    @pytest.mark.parametrize("t", [0.05, 0.2, 0.4, 0.5])
    def test_rotated_flagship_pairs_as_bound_entangled_state(self, t):
        # a real local orthogonal (float64 loop) and a complex local unitary
        # (complex128 loop) hide the flagship from the bound-entangled state;
        # the loop then witnesses with a pairing next to that state's
        j = choi(witness_product_map(t))
        first = decomposability_feasibility(j)
        assert decided_first(first) == "bound-entangled"
        rng = np.random.default_rng([49, int(100 * t)])
        u = np.kron(random_unitary(rng, 4), random_unitary(rng, 4))
        for m in (real_rotated(j), u @ j @ u.conj().T):
            res = decomposability_feasibility(m)
            assert res.status == INFEASIBLE_WITNESSED and res.iterations > 30
            assert_witness(m, res)
            assert res.pairing == pytest.approx(first.pairing, rel=1e-5)

    def test_real_feasible_dtypes(self, monkeypatch):
        j = choi(witness_product_map(1.0))
        calls, res = eigensolver_calls(monkeypatch, lambda: decomposability_feasibility(j))
        assert res.status == FEASIBLE and len(calls) == 2 * res.iterations + 3
        # the loop's eigh, then the re-verification of both blocks
        assert set(calls[:-2]) == {("eigh", np.dtype(np.float64))}
        assert calls[-2:] == [("eigvalsh", np.dtype(np.float64))] * 2
        assert res.certificate.j1.dtype == res.certificate.j2.dtype == np.complex128

    def test_real_witnessed_dtypes(self, monkeypatch):
        # Phi[2,0,1] composed with the transpose, so that the loop decides it
        # (test_real_cyclic_witness_dtypes takes the map itself)
        j = transposed(choi(choi_map(2.0, 0.0, 1.0)))
        calls, res = eigensolver_calls(monkeypatch, lambda: decomposability_feasibility(j))
        assert res.status == INFEASIBLE_WITNESSED and res.iterations > 0
        # the loop's solves, then WitnessState's PSD and PPT checks of the
        # witness in one stacked float64 eigvalsh; the public boundary holds
        # the witness as complex128
        assert set(calls) == {("eigh", np.dtype(np.float64)), ("eigvalsh", np.dtype(np.float64))}
        assert calls[-1] == ("eigvalsh", np.dtype(np.float64))
        assert res.witness.mat.dtype == np.complex128

    def test_real_cyclic_witness_dtypes(self, monkeypatch):
        # Choi's own map: J's eigh, then the cyclic witness's stacked check
        j = choi(choi_map(2.0, 0.0, 1.0))
        calls, res = eigensolver_calls(monkeypatch, lambda: decomposability_feasibility(j))
        assert decided_first(res) == "cyclic"
        assert calls == [("eigh", np.dtype(np.float64)), ("eigvalsh", np.dtype(np.float64))]
        assert res.witness.mat.dtype == np.complex128

    @pytest.mark.parametrize("t", [0.2, 1.0])
    def test_complex_dtypes(self, monkeypatch, t):
        j = phased(choi(witness_product_map(t)))
        calls, res = eigensolver_calls(monkeypatch, lambda: decomposability_feasibility(j))
        assert res.iterations > 30
        assert {dtype for _, dtype in calls} == {np.dtype(np.complex128)}
        if res.status == FEASIBLE:
            assert res.certificate.j1.dtype == res.certificate.j2.dtype == np.complex128

    def test_trivial_certificate_is_complex(self):
        j = choi(witness_product_map(0.0)).real
        assert j.dtype == np.float64
        res = decomposability_feasibility(j)
        assert res.status == FEASIBLE and res.iterations == 0
        assert res.certificate.j1.dtype == res.certificate.j2.dtype == np.complex128
        assert res.certificate.j1.tobytes() == j.astype(complex).tobytes()


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
        # an empty or reversed bracket
        for t_lo, t_hi in ((0.5, 0.5), (1.0, 0.1)):
            with pytest.raises(DomainError, match="invalid bracket"):
                find_threshold(lambda t: t, lambda t: t - 0.3, t_lo, t_hi)

    def test_non_finite_criterion_rejected(self):
        # a NaN has no sign: it must not pass for a nonnegative value
        def ends(t):
            return -1.0 if t < 0.5 else float("nan")

        with pytest.raises(NumericalError, match=r"not finite at t = 1\.0"):
            find_threshold(lambda t: t, ends, 0.0, 1.0)
        with pytest.raises(NumericalError, match=r"not finite at t = 0\.0"):
            find_threshold(lambda t: t, lambda t: -np.inf if t == 0.0 else 1.0, 0.0, 1.0)

        # finite at both ends, NaN at the first interior point
        def interior(t):
            return -1.0 if t < 0.4 else (1.0 if t > 0.9 else float("nan"))

        with pytest.raises(NumericalError, match=r"not finite at t = 0\.5"):
            find_threshold(lambda t: t, interior, 0.0, 1.0)

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
        rep = decomposability_propagation_check(witness_product_generator())
        assert not rep.holds
        assert rep.noise_feasibility.status == INFEASIBLE_WITNESSED
        assert rep.noise_feasibility.pairing == pytest.approx(-1.0 / 12.0, abs=1e-9)

    def test_transpose_mixing_noise_not_positive(self):
        gen = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
        verdict = posmap.map_positivity_check(gen.noise)
        assert verdict.status == posmap.STATUS_NOT_POSITIVE
        assert verdict.min_value == pytest.approx(-0.5, abs=1e-9)
        # a map that is not positive is not decomposable: no certificate
        rep = decomposability_propagation_check(gen)
        assert not rep.holds
        assert rep.noise_feasibility.certificate is None

    def test_zero_budget_rejected(self):
        gen = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
        with pytest.raises(PreconditionError, match="max_iter"):
            decomposability_propagation_check(gen, max_iter=0)

    def test_cp_noise_holds(self):
        rng = np.random.default_rng(41)
        gen = build_generator(qubit_spec(random_psd(rng, 3), random_hermitian(rng, 2)))
        rep = decomposability_propagation_check(gen)
        assert rep.holds
        assert np.abs(rep.noise_feasibility.certificate.j2).max() == 0.0

    def test_transpose_type_noise_holds(self):
        # N = T o M with M CP: decomposable, not CP, certified by the loop
        gen = transpose_type_generator()
        assert np.linalg.eigvalsh(choi(gen.noise))[0] < -0.05
        rep = decomposability_propagation_check(gen)
        assert rep.holds and rep.noise_feasibility.iterations > 0
        assert_certificate(choi(gen.noise), rep.noise_feasibility)


def transpose_type_generator():
    """A qutrit generator whose noise part is N(X) = X^T + 3/4 Tr(X) 1 - 7/12 X:
    C is +1 on the symmetric Gell-Mann elements and -1 on the antisymmetric
    ones (the transpose), plus 3/4 times the identity.  N = T o M with
    M(X) = X + 3/4 Tr(X) 1 - 7/12 X^T completely positive, so N is
    decomposable; the C eigenvalue -1/4 keeps it from being CP."""
    basis = gksl.gell_mann_basis(3)
    signs = [-1.0 if f.imag.any() else 1.0 for f in basis.traceless()]
    return build_generator(gksl.KossakowskiSpec(3, np.zeros((3, 3)),
                                                np.diag(signs) + 0.75 * np.eye(8), basis))


class TestCertificateRule:
    """A Feasible status is itself the proof, for every entry that reports
    one.  With the PSD part of every spectral split in the core shifted by
    -1e-3, the loop's J2 = B fails the PSD test at the scale of J; no entry
    may then report a Feasible result or what it proves."""

    @pytest.mark.parametrize("entry", [
        "feasibility-flagship-1.0", "feasibility-phi-2-0.6-0.6", "rung-0", "propagation"])
    def test_injected_non_psd_block(self, monkeypatch, entry):
        part, core, results = decomp._psd_part, decomp._feasibility, []

        def shifted(w, v):
            return part(w, v) - 1e-3 * np.eye(len(w))

        def recorded(jm, max_iter):
            results.append((jm, core(jm, max_iter)))
            return results[-1][1]

        monkeypatch.setattr(decomp, "_psd_part", shifted)
        monkeypatch.setattr(decomp, "_feasibility", recorded)
        if entry == "rung-0":
            verdict = posmap.map_positivity_check(choi_map(2.0, 0.6, 0.6))
            assert verdict.proof != posmap.PROOF_DECOMPOSITION
        elif entry == "propagation":
            assert not decomposability_propagation_check(transpose_type_generator()).holds
        else:
            j = (choi(witness_product_map(1.0)) if entry.startswith("feasibility-flagship")
                 else choi(choi_map(2.0, 0.6, 0.6)))
            assert decomposability_feasibility(j).status == decomp.MAX_ITERATIONS
        assert results
        for jm, res in results:
            assert res.iterations > 0
            if res.status == FEASIBLE:
                bound = matcore._psd_bound(np.linalg.eigvalsh(jm))
                for block in (res.certificate.j1, res.certificate.j2):
                    assert np.linalg.eigvalsh((block + block.conj().T) / 2)[0] >= bound


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
