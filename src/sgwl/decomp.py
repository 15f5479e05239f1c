"""Decomposability machinery and bound-entanglement witnessing.

A map is decomposable when it splits as ``Lambda_1 + Lambda_2 T`` with both
blocks completely positive.  In Choi space this asks for ``A, B >= 0`` with
``J = A + (T (x) id)[B]``.  The solver finds the point of that cone nearest
to ``J`` by block-coordinate projection: ``A <- P+(J - PT B)``, then
``B <- P+(PT(J - A))``, where ``P+`` clips negative eigenvalues and the
partial transpose ``PT`` is a Frobenius-isometric involution.

The same iteration decides both outcomes.  When ``J - PT B`` becomes PSD,
``J1 = J - PT B`` and ``J2 = B`` certify decomposability.  Otherwise the
residual ``Z = A + PT B - J`` is the witness: after the B-step its partial
transpose is PSD by construction, and shifting it by its smallest
eigenvalue makes it PSD too, so its normalized transpose is a PPT state.
Non-decomposability is certified through the duality pairing

    <Lambda, X> = Tr( (Lambda (x) id)[P+] X^T ):

decomposable maps pair nonnegatively with every PPT state, so a PPT state
with a negative pairing simultaneously proves the map non-decomposable and
the state bound-entangled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gksl, matcore, posmap
from .gksl import (
    Generator,
    SIGMA,
    identity_superop,
    kron_superop,
    qubit_spec,
    trace_to_identity_superop,
    transpose_superop,
)
from .matcore import (
    FEASIBILITY_TOL,
    PSD_SLACK,
    DomainError,
    NumericalError,
    ShapeError,
    as_cmatrix,
    as_hermitian,
    partial_transpose,
)
from .posmap import choi

FEASIBLE = "Feasible"
INFEASIBLE_WITNESSED = "InfeasibleWitnessed"
MAX_ITERATIONS = "MaxIterations"


@dataclass
class WitnessState:
    """A trace-one PSD state on the doubled system, optionally PPT-checked."""

    mat: np.ndarray
    ppt_checked: bool = False

    def __post_init__(self):
        m = as_hermitian(self.mat)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-12:
            raise DomainError(f"witness state must have trace 1, got {tr}")
        ok, lmin = matcore.is_psd(m)
        if not ok:
            raise DomainError(f"witness state must be PSD, min eigenvalue {lmin:.3e}")
        if self.ppt_checked:
            d = int(round(np.sqrt(m.shape[0])))
            ok, lmin = matcore.is_psd(partial_transpose(m, d, d, "A"))
            if not ok:
                raise DomainError(
                    f"state marked PPT has partial-transpose min eigenvalue {lmin:.3e}"
                )
        self.mat = m


@dataclass
class DecompositionCertificate:
    """PSD Choi blocks realizing ``J = J1 + (T (x) id)[J2]``."""

    j1: np.ndarray
    j2: np.ndarray
    residual: float


@dataclass
class FeasibilityResult:
    status: str
    certificate: DecompositionCertificate | None = None
    witness: WitnessState | None = None
    pairing: float | None = None
    gap: float | None = None
    iterations: int = 0


def pairing_with_choi(j, x) -> float:
    """Duality pairing evaluated from a Choi matrix: Tr(J X^T), real part."""
    jm = as_cmatrix(j)
    xm = as_cmatrix(x)
    if jm.shape != xm.shape:
        raise ShapeError(f"shape mismatch {jm.shape} vs {xm.shape}")
    val = np.trace(jm @ xm.T)
    if abs(val.imag) > 1e-10:
        raise NumericalError(f"pairing has imaginary part {val.imag:.3e}")
    return float(val.real)


def pairing(s, x) -> float:
    """Duality pairing <Lambda, X> of a map (as superoperator) with a state."""
    xm = x.mat if isinstance(x, WitnessState) else x
    return pairing_with_choi(choi(s), xm)


def bell_state_projector(mu: int, nu: int) -> WitnessState:
    """Maximally entangled basis projector of the 4 (x) 4 system obtained by
    twisting the entangled projector with ``sigma_mu (x) sigma_nu`` on the
    second subsystem.  The 16 of them are rank one and mutually orthogonal.
    """
    if not (0 <= mu <= 3 and 0 <= nu <= 3):
        raise DomainError(f"indices must be in 0..3, got ({mu}, {nu})")
    u = np.kron(np.eye(4, dtype=complex), np.kron(SIGMA[mu], SIGMA[nu]))
    p = posmap.maximally_entangled_projector(4)
    return WitnessState(u @ p @ u, ppt_checked=False)


def bound_entangled_state() -> WitnessState:
    """The 4 (x) 4 bound-entangled state: an equal mixture of six of the
    entangled basis projectors, PPT yet orthogonal to the entangled
    projector itself."""
    support = [(0, 2), (1, 1), (2, 3), (3, 1), (3, 2), (3, 3)]
    m = sum(bell_state_projector(mu, nu).mat for mu, nu in support) / 6.0
    return WitnessState(m, ppt_checked=True)


def witness_product_generator() -> Generator:
    """Generator of the flagship two-qubit product semigroup: a depolarizing
    factor (all rates 1) times a transpose-mixing factor (rates 1, -1, 1)."""
    g1 = gksl.build_generator(qubit_spec(np.diag([1.0, 1.0, 1.0]), label="depolarizing"))
    g2 = gksl.build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0]), label="transpose-mixing"))
    return gksl.product_generator(g1, g2)


def witness_product_map(t: float) -> np.ndarray:
    """The flagship product semigroup at time t, assembled from its closed
    form: (a id + (1-a)/2 Tr) (x) ((1+a)/2 id + (1-a)/2 T), a = exp(-2t)."""
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    a = np.exp(-2.0 * t)
    ident = identity_superop(2)
    first = a * ident + (1 - a) / 2 * trace_to_identity_superop(2)
    second = (1 + a) / 2 * ident + (1 - a) / 2 * transpose_superop(2)
    return kron_superop(first, second, 2, 2)


def explicit_decomposition(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form blocks (S1, S2) with ``map(t) = S1 + S2 o T`` on M_4.

    S1 is completely positive for every t; S2 is completely positive only
    once exp(-2t) <= 1/3, which is where the family becomes decomposable.
    """
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    a = np.exp(-2.0 * t)
    ident = identity_superop(2)
    tr2 = trace_to_identity_superop(2)
    s1 = kron_superop((1 + a) / 2 * (a * ident + (1 - a) / 2 * tr2), ident, 2, 2)
    s2 = kron_superop((1 - a) / 2 * (a * transpose_superop(2) + (1 - a) / 2 * tr2), ident, 2, 2)
    return s1, s2


def _bell_pairings(j: np.ndarray) -> np.ndarray:
    """Pairings of a 4 (x) 4 Choi matrix with the 16 entangled basis projectors."""
    table = np.zeros((4, 4))
    for mu in range(4):
        for nu in range(4):
            table[mu, nu] = pairing_with_choi(j, bell_state_projector(mu, nu).mat)
    return table


def pairing_table(t: float) -> np.ndarray:
    """Pairings of the flagship map with all 16 entangled basis projectors."""
    return _bell_pairings(choi(witness_product_map(t)))


def noise_pairing_table() -> tuple[np.ndarray, float]:
    """Pairings of the flagship generator's noise part with the entangled
    basis projectors, and with the bound-entangled state.

    Only the row and column of index 0 are nonzero; within the support of
    the bound-entangled state the single contribution is the (0, 2) entry.
    """
    j = choi(witness_product_generator().noise)
    return _bell_pairings(j), pairing_with_choi(j, bound_entangled_state().mat)


def _spectral_parts(h: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Smallest eigenvalue, PSD part and negative part of a Hermitian matrix,
    from one eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (
        float(w[0]),
        (v * np.clip(w, 0.0, None)) @ v.conj().T,
        (v * np.clip(w, None, 0.0)) @ v.conj().T,
    )


def decomposability_feasibility(j, max_iter: int = 50000) -> FeasibilityResult:
    """Decide whether a Choi matrix belongs to the decomposable cone.

    Block-coordinate projection alternates ``A <- P+(J - PT B)`` and
    ``B <- P+(PT(J - A))``.  Each iteration ends in one of two tests:

    * certificate: once ``J1 = J - PT B`` is PSD within the slack, a short
      polish keeps the best iterate, and ``J1``, ``J2 = B`` are returned
      with their assembly residual (zero by construction, bounded by
      ``FEASIBILITY_TOL``);
    * witness: the residual ``Z = A + PT B - J`` has a PSD partial
      transpose after the B-step; shifted by ``max(0, -lmin Z)`` times the
      identity and normalized, its transpose is a PPT state.  Once its
      pairing with ``J`` is below the slack and has stopped improving, the
      map is certified non-decomposable.  For d = 4 the canonical
      bound-entangled state is also scored and wins ties within 1e-11, so
      certificates are reproducible.

    If the budget runs out first, the result is an honest MaxIterations
    with the gap ``max(0, -lmin J1)``.
    """
    jm = as_hermitian(j)
    n = jm.shape[0]
    d = int(round(np.sqrt(n)))
    if d * d != n:
        raise ShapeError(f"Choi matrix must be d^2 x d^2, got {jm.shape}")
    slack = PSD_SLACK * max(1.0, float(np.linalg.norm(jm, 2)))

    lmin, a, _ = _spectral_parts(jm)
    if lmin >= -slack:
        cert = DecompositionCertificate(j1=jm, j2=np.zeros_like(jm), residual=0.0)
        return FeasibilityResult(status=FEASIBLE, certificate=cert, iterations=0)

    def pt(x):
        return partial_transpose(x, d, d, "A")

    best_lmin, best_b = -np.inf, None
    polish_left = 100
    best_value, best_x = 0.0, None
    it = 0
    for it in range(1, max_iter + 1):
        _, b, neg = _spectral_parts(pt(jm - a))
        # Z = A + PT B - J, built from the clipped spectrum so that PT(Z) is
        # PSD up to roundoff on the scale of Z itself, not of J; the shift
        # keeps PT(Z) PSD (PT(I) = I) and makes Z PSD.  tr Z = tr PT(Z) >= 0.
        z = -pt(neg)
        z += max(0.0, -float(np.linalg.eigvalsh(z)[0])) * np.eye(n)
        tau = float(np.trace(z).real)
        if tau > 0.0:
            value = float(np.vdot(z, jm).real) / tau  # Tr(J X^T) with X = Z^T / tau
            if value < -slack:
                # stop once an iteration improves the pairing by less than 1e-6 relative
                if best_x is not None and value >= best_value * (1.0 + 1e-6):
                    break
                if value < best_value:
                    best_value, best_x = value, z.T / tau
        lmin, a, _ = _spectral_parts(jm - pt(b))
        if lmin > best_lmin:
            best_lmin, best_b = lmin, b
        if best_lmin >= -slack:
            # inside the slack zone; run a short polish phase, keep the best
            polish_left -= 1
            if best_lmin >= -0.02 * slack or polish_left <= 0:
                break
    gap = max(0.0, -lmin)
    if best_lmin >= -slack:
        j1 = jm - pt(best_b)
        residual = float(np.linalg.norm(jm - j1 - pt(best_b)))
        if residual <= FEASIBILITY_TOL:
            cert = DecompositionCertificate(j1=j1, j2=best_b, residual=residual)
            return FeasibilityResult(status=FEASIBLE, certificate=cert, iterations=it)

    candidates = [bound_entangled_state().mat] if d == 4 else []
    if best_x is not None:
        candidates.append(best_x)
    scored = [(pairing_with_choi(jm, mat), mat) for mat in candidates]
    vmin = min((val for val, _ in scored), default=0.0)
    if vmin < -slack:
        value, mat = next((val, mat) for val, mat in scored if val <= vmin + 1e-11)
        return FeasibilityResult(
            status=INFEASIBLE_WITNESSED,
            witness=WitnessState(mat, ppt_checked=True),
            pairing=value,
            gap=gap,
            iterations=it,
        )
    return FeasibilityResult(status=MAX_ITERATIONS, gap=gap, iterations=it)


def choi_min_criterion(s) -> float:
    """Threshold criterion: smallest eigenvalue of the Choi matrix."""
    return matcore.min_eigenvalue(choi(s))


def pairing_criterion(x):
    """Threshold criterion factory: pairing with a fixed state."""
    xm = x.mat if isinstance(x, WitnessState) else as_cmatrix(x)

    def criterion(s) -> float:
        return pairing_with_choi(choi(s), xm)

    return criterion


def find_threshold(
    family,
    criterion,
    t_lo: float,
    t_hi: float,
    tol: float = 1e-9,
    zero_tol: float = 1e-12,
) -> float:
    """Bisection for the sign change of ``criterion(family(t))`` on a bracket.

    Values within ``zero_tol`` of zero count as nonnegative; criteria such
    as a Choi minimum eigenvalue sit on an exact zero plateau past their
    threshold and only roundoff distinguishes them from zero there.
    """
    if not t_lo < t_hi:
        raise DomainError(f"invalid bracket [{t_lo}, {t_hi}]")

    def sgn(v: float) -> int:
        return -1 if v < -zero_tol else 1

    f_lo = criterion(family(t_lo))
    f_hi = criterion(family(t_hi))
    if sgn(f_lo) == sgn(f_hi):
        raise DomainError(
            f"criterion does not change sign on [{t_lo}, {t_hi}]: {f_lo:.3e} vs {f_hi:.3e}"
        )
    lo, hi = t_lo, t_hi
    s_lo = sgn(f_lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = criterion(family(mid))
        if sgn(f_mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class NoisePropagationReport:
    """Sub-verdicts for the sufficient condition that propagates
    decomposability from the noise part to the whole semigroup."""

    noise_positivity: posmap.PositivityVerdict
    noise_feasibility: FeasibilityResult
    holds: bool


def decomposability_propagation_check(
    gen: Generator,
    budget: int = 16,
    seed: int = posmap.DEFAULT_SEED,
    max_iter: int = 5000,
) -> NoisePropagationReport:
    """Check the hypothesis under which every map of the semigroup is
    decomposable: the noise part must be a positive map and itself
    decomposable.  Both sub-verdicts are reported; ``holds`` requires the
    positivity search to certify no violation and the feasibility solver to
    return a certificate."""
    noise = gen.noise
    pos = posmap.map_positivity_check(noise, budget=budget, seed=seed)
    feas = decomposability_feasibility(choi(noise), max_iter=max_iter)
    holds = pos.is_positive and feas.status == FEASIBLE
    return NoisePropagationReport(noise_positivity=pos, noise_feasibility=feas, holds=holds)
