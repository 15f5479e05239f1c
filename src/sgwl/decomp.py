"""Decomposability machinery and bound-entanglement witnessing.

A map is decomposable when it splits as ``Lambda_1 + Lambda_2 T`` with both
blocks completely positive.  In Choi space this asks for ``A, B >= 0`` with
``J = A + (T (x) id)[B]``.  The solver finds the point of that cone nearest
to ``J`` by block-coordinate projection: ``A <- P+(J - PT B)``, then
``B <- P+(PT(J - A))``, where ``P+`` clips negative eigenvalues and the
partial transpose ``PT`` is a Frobenius-isometric involution.  Near the
boundary of the cone this fixed-point iteration crawls, so after 128 plain
iterations it is Anderson-accelerated: each accelerated iteration costs one
extra eigendecomposition (an ``eigvalsh``), and solves that end within 128
iterations are bit-identical to the plain loop.

The same iteration decides both outcomes.  When ``J - PT B`` becomes PSD,
``J1 = J - PT B`` and ``J2 = B`` certify decomposability, once both blocks
re-verify PSD at the scale of ``J``: every Feasible result is a proof.
Otherwise the residual ``Z = A + PT B - J`` is the witness: after the
B-step its partial transpose is PSD by construction, and shifting it by its
smallest eigenvalue makes it PSD too, so its normalized transpose is a PPT
state.  Non-decomposability is certified through the duality pairing

    <Lambda, X> = Tr( (Lambda (x) id)[P+] X^T ):

decomposable maps pair nonnegatively with every PPT state, so a PPT state
with a negative pairing simultaneously proves the map non-decomposable and
the state bound-entangled.  Known PPT states are scored before the loop: the
first that pairs below the slack decides, a proof though not the loop's most
negative pairing.  At d = 4 it is the paper's bound-entangled state; for
d >= 3, the cyclic state rho_beta ~ sum_ij |ii><jj| + sum_{i != k} w_ik |ik><ik|
(w = beta at k = i + 1 mod d, 1 / beta at i = k + 1 mod d, else 1).  Its
partial transpose splits into 2x2 blocks [[w_ik, 1], [1, w_ki]] of
determinant 0, so it is PPT for every beta > 0.  Its pairing with J is the
closed form (s0 + beta s1 + s2 / beta) / (d (d - 2 + beta + 1 / beta)), with
s1 and s2 the sums of <i,i+1|J|i,i+1> and <i+1,i|J|i+1,i> and s0 the sum of
J's |ii><jj| block and its other |ik><ik|.  It is least at the positive root
of (s1 (d - 2) - s0) beta^2 + 2 (s1 - s2) beta + (s0 - s2 (d - 2)), which
exists exactly when s0 < (d - 2) min(s1, s2); otherwise the state is not
scored.  At d = 3 the least pairing is negative for Phi[a,b,c] with b, c > 0
exactly when bc < (3 - a)^2 / 4 (Cho, Kye & Lee, Linear Algebra Appl. 171
(1992)), and for every Phi[a,b,c] with bc = 0 and a < 3.  Each of these exits,
and the trivial certificate of a PSD J, costs one ``eigh`` of J and, for a
witness, one validation of the state: one Hermiticity gate and one stacked
``eigvalsh`` of the state and its partial transpose, in the state's field.

The loop runs in the field of ``J``.  The decomposable cone is closed under
entrywise conjugation, so for a real ``J`` (real symmetric, as the flagship
product semigroup and the Choi-type maps are in the computational basis)
every iterate, certificate block and witness is real, and the loop runs in
float64 with real symmetric eigensolves; any other ``J`` runs in complex128.
Certificates are returned as complex128 either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import gksl, matcore
from .gksl import SIGMA, Generator, choi, qubit_spec
from .matcore import (
    FEASIBILITY_TOL,
    PSD_SLACK,
    DomainError,
    NumericalError,
    PreconditionError,
    ShapeError,
    as_cmatrix,
    as_hermitian,
    partial_transpose,
)

FEASIBLE = "Feasible"
INFEASIBLE_WITNESSED = "InfeasibleWitnessed"
MAX_ITERATIONS = "MaxIterations"
THRESHOLD_TOL = 1e-9
THRESHOLD_ZERO_TOL = 1e-12
# Plain projection iterations before Anderson acceleration starts, and the
# number of past iterates it mixes.
ACCELERATION_START = 128
ANDERSON_MEMORY = 5
DEFAULT_MAX_ITER = 50000  # the projection loop's budget, unless a caller sets one


@dataclass(frozen=True, eq=False)
class WitnessState:
    """A trace-one PSD state on the doubled system, optionally PPT-checked;
    ``mat`` holds the validated, symmetrized matrix as complex128, read-only.

    The matrix is gated once (``as_hermitian``), and its spectrum and, when
    ``ppt_checked``, that of its partial transpose come from one stacked
    ``eigvalsh`` in its own field (float64 when the gated matrix has no
    nonzero imaginary entry); each passes the PSD rule of ``matcore``.  A
    matrix marked PPT whose size is not a square is a ``ShapeError``, raised
    before the spectra are taken."""

    mat: np.ndarray
    ppt_checked: bool = False

    def __post_init__(self):
        m = as_hermitian(self.mat)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-12:
            raise DomainError(f"witness state must have trace 1, got {tr}")
        real = not m.imag.any()
        mats = [m.real if real else m]
        if self.ppt_checked:
            d = int(round(np.sqrt(m.shape[0])))
            pt = partial_transpose(m, d, d, "A")
            mats.append(pt.real if real else pt)
        for w, what in zip(np.linalg.eigvalsh(np.array(mats)),
                           ("witness state must be PSD, min eigenvalue",
                            "state marked PPT has partial-transpose min eigenvalue")):
            if w[0] < matcore._psd_bound(w):
                raise DomainError(f"{what} {float(w[0]):.3e}")
        object.__setattr__(self, "mat", gksl._read_only(m))


@dataclass(frozen=True, eq=False)
class DecompositionCertificate:
    """PSD Choi blocks realizing ``J = J1 + (T (x) id)[J2]``, held as complex128."""

    j1: np.ndarray
    j2: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "j1", np.asarray(self.j1, dtype=complex))
        object.__setattr__(self, "j2", np.asarray(self.j2, dtype=complex))


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    status: str
    certificate: DecompositionCertificate | None = None
    witness: WitnessState | None = None
    pairing: float | None = None
    gap: float | None = None
    iterations: int = 0


def pairing_with_choi(j, x) -> float:
    """Duality pairing evaluated from a Choi matrix: Tr(J X^T), real part."""
    return _pairing(as_cmatrix(j), as_cmatrix(x))


def _pairing(j: np.ndarray, x: np.ndarray) -> float:
    """:func:`pairing_with_choi` on trusted arrays."""
    if j.shape != x.shape:
        raise ShapeError(f"shape mismatch {j.shape} vs {x.shape}")
    return matcore._real(np.trace(j @ x.T), "pairing", j, x)


def pairing(s, x) -> float:
    """Duality pairing <Lambda, X> of a map (as superoperator) with a state."""
    return pairing_criterion(x)(s)


@cache
def _bell_states() -> tuple[tuple[WitnessState, ...], WitnessState]:
    """The 16 entangled basis projector states, ``mu``-major, and the
    bound-entangled state, each validated once, on first use, and shared.
    Their matrices are exactly Hermitian, so symmetrizing keeps their bits."""
    p = gksl.maximally_entangled_projector(4)
    mats = []
    for mu in range(4):
        for nu in range(4):
            u = np.kron(np.eye(4, dtype=complex), np.kron(SIGMA[mu], SIGMA[nu]))
            mats.append(u @ p @ u)
    support = [(0, 2), (1, 1), (2, 3), (3, 1), (3, 2), (3, 3)]
    rho = sum(mats[4 * mu + nu] for mu, nu in support) / 6.0
    return tuple(WitnessState(m) for m in mats), WitnessState(rho, ppt_checked=True)


def bell_state_projector(mu: int, nu: int) -> WitnessState:
    """Maximally entangled basis projector of the 4 (x) 4 system obtained by
    twisting the entangled projector with ``sigma_mu (x) sigma_nu`` on the
    second subsystem.  The 16 of them are rank one and mutually orthogonal;
    each is built once and every call returns that shared state.
    """
    mu, nu = matcore._int(mu, "mu", 0, 3), matcore._int(nu, "nu", 0, 3)
    return _bell_states()[0][4 * mu + nu]


def bound_entangled_state() -> WitnessState:
    """The 4 (x) 4 bound-entangled state: an equal mixture of six of the
    entangled basis projectors, PPT yet orthogonal to the entangled
    projector itself.  Built once; every call returns that shared state."""
    return _bell_states()[1]


@cache
def witness_product_generator() -> Generator:
    """Generator of the flagship two-qubit product semigroup: a depolarizing
    factor (all rates 1) times a transpose-mixing factor (rates 1, -1, 1).
    Built once; every call returns that shared generator."""
    g1 = gksl.build_generator(qubit_spec(np.diag([1.0, 1.0, 1.0]), label="depolarizing"))
    g2 = gksl.build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0]), label="transpose-mixing"))
    return gksl.product_generator(g1, g2)


@cache
def _qubit_blocks() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The M_2 identity, trace-to-identity and transpose superoperators of the
    flagship's closed forms, built once, on first use, and read-only."""
    return tuple(gksl._read_only(block(2)) for block in (
        gksl.identity_superop, gksl.trace_to_identity_superop, gksl.transpose_superop))


def _closed_form(t: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """``a = exp(-2t)`` and :func:`_qubit_blocks` for a time t >= 0 (``DomainError``)."""
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    return (np.exp(-2.0 * t), *_qubit_blocks())


def witness_product_map(t: float) -> np.ndarray:
    """The flagship product semigroup at time t, assembled from its closed
    form: (a id + (1-a)/2 Tr) (x) ((1+a)/2 id + (1-a)/2 T), a = exp(-2t)."""
    a, ident, tr2, tp = _closed_form(t)
    first = a * ident + (1 - a) / 2 * tr2
    second = (1 + a) / 2 * ident + (1 - a) / 2 * tp
    return gksl._kron_superop(first, second, 2, 2)


def explicit_decomposition(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form blocks (S1, S2) with ``map(t) = S1 + S2 o T`` on M_4.

    S1 is completely positive for every t; S2 is completely positive only
    once exp(-2t) <= 1/3, which is where the family becomes decomposable.
    """
    a, ident, tr2, tp = _closed_form(t)
    s1 = gksl._kron_superop((1 + a) / 2 * (a * ident + (1 - a) / 2 * tr2), ident, 2, 2)
    s2 = gksl._kron_superop((1 - a) / 2 * (a * tp + (1 - a) / 2 * tr2), ident, 2, 2)
    return s1, s2


def _bell_pairings(j: np.ndarray) -> np.ndarray:
    """Pairings of a 4 (x) 4 Choi matrix with the 16 entangled basis projectors."""
    return np.array([_pairing(j, x.mat) for x in _bell_states()[0]]).reshape(4, 4)


def pairing_table(t: float) -> np.ndarray:
    """Pairings of the flagship map with all 16 entangled basis projectors."""
    return _bell_pairings(choi(witness_product_map(t)))


def noise_pairing_table() -> tuple[np.ndarray, float]:
    """Pairings of the flagship generator's noise part with the entangled
    basis projectors, and with the bound-entangled state.

    With ``F_a = sigma_a / sqrt(2)``, the trace-one Choi matrix and the
    trace-one basis projectors, the noise part is
    ``(Tr . 1) (x) id + id (x) T - id (x) id``.  Its table is -1/2 at
    (0, 2), +1/2 at (0, 1), (0, 3), (1, 0), (2, 0), (3, 0) and 0 elsewhere;
    against the bound-entangled state it is -1/12, since (0, 2) is the
    only nonzero entry in that state's support.  These values equal the
    t = 0 derivative of ``pairing_table`` minus the pseudo-Hamiltonian
    part ``-2 <id, .>``.
    """
    j = choi(witness_product_generator().noise)
    return _bell_pairings(j), _pairing(j, bound_entangled_state().mat)


def _spectral_parts(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending spectrum, eigenvectors and PSD part of a Hermitian matrix."""
    w, v = np.linalg.eigh(h)
    return w, v, _psd_part(w, v)


def _psd_part(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``V max(w, 0) V^dag``, the PSD part of a Hermitian matrix with
    ascending spectrum ``w`` and eigenvectors ``v``."""
    return (v * np.maximum(w, 0.0)) @ v.conj().T


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point iteration x <- T(x)
    (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011), safeguarded as in
    Zhang, O'Donoghue & Boyd (SIAM J. Optim. 30(4), 2020): the memory is
    cleared whenever the residual ``||T(x) - x||`` rises, and a non-finite
    extrapolation falls back to the plain step ``T(x)``.

    The mixing weights are real, so a combination of Hermitian iterates
    stays Hermitian."""

    def __init__(self):
        self.f = self.g = None
        self.norm = np.inf
        self.df: list[np.ndarray] = []
        self.dg: list[np.ndarray] = []

    def step(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The next input after ``x``, given ``g = T(x)``; ``g`` itself when
        there is nothing to extrapolate from."""
        f = (g - x).view(np.float64).ravel()
        norm = float(np.linalg.norm(f))
        if norm > self.norm:
            self.df.clear()
            self.dg.clear()
        elif self.f is not None:
            self.df.append(f - self.f)
            self.dg.append(g - self.g)
            if len(self.df) > ANDERSON_MEMORY:
                del self.df[0], self.dg[0]
        self.f, self.g, self.norm = f, g, norm
        if not self.df:
            return g
        gamma = np.linalg.lstsq(np.stack(self.df, axis=1), f, rcond=None)[0]
        y = g - np.tensordot(gamma, np.stack(self.dg), axes=1)
        return y if np.isfinite(y).all() else g


def decomposability_feasibility(j, max_iter: int = DEFAULT_MAX_ITER) -> FeasibilityResult:
    """Decide whether a Choi matrix belongs to the decomposable cone.

    Block-coordinate projection alternates ``A <- P+(J - PT B)`` and
    ``B <- P+(PT(J - A))``, one eigendecomposition each and little else.
    The B-step input is a fixed point of ``T(B) = P+(PT(J - P+(J - PT B)))``,
    which crawls near the boundary of the cone.  After
    ``ACCELERATION_START`` plain iterations the input of each A-step is
    extrapolated from the last ``ANDERSON_MEMORY`` iterates instead
    (:class:`_Anderson`); the tests below still run on the true projection
    ``B = T(.)``, whose certificate test then costs one extra ``eigvalsh``.
    Solves that end within ``ACCELERATION_START`` iterations are
    bit-identical to the plain loop.  Each iteration ends in one of two
    tests:

    * certificate: once ``J1 = J - PT B`` is PSD within the slack (the PSD
      rule of ``matcore`` at the scale of ``J``), a short polish keeps the
      best iterate.  ``J1`` and ``J2 = B`` are returned only when both
      hermitized blocks re-verify PSD at that same scale and their assembly
      residual (zero by construction) is within
      ``FEASIBILITY_TOL * max(1, ||J||_2)``, the same tolerance rule; so a
      Feasible status is itself the proof, for every caller.  A certificate
      that fails is not returned: the result is the witness below, if the
      loop found one, or MaxIterations;
    * witness: the residual ``Z = A + PT B - J`` has a PSD partial
      transpose after the B-step; shifted by ``max(0, -lmin Z)`` times the
      identity and normalized, its transpose is a PPT state.  Its pairing
      with ``J``, a convex combination of ``<Z, J> / tr Z`` and ``tr J / n``,
      stays above the slack while both are nonnegative, so ``lmin Z`` is
      computed only when one is negative.  Once the pairing is below the
      slack and has stopped improving, the map is certified non-decomposable.
      The known PPT states of the module docstring come first (at d = 4 the
      bound-entangled state, for d >= 3 the cyclic state at the beta that
      minimizes its closed-form pairing, PPT by its 2x2 blocks of determinant
      0 and exact on Phi[a,b,c] at d = 3): the first below the slack is the
      witness after no iterations, with the gap at ``B = 0``,
      ``max(0, -lmin J)``: a proof, not necessarily the loop's most negative.

    If the budget runs out first, the result is an honest MaxIterations
    with the gap ``max(0, -lmin J1)``.  A budget ``max_iter`` that is not
    an integer >= 1 is rejected with ``PreconditionError``.

    The loop runs in the field of ``J``: in float64 when the gated ``J``
    has no nonzero imaginary entry, so every eigensolve is real symmetric,
    and in complex128 otherwise.  Certificates come back as complex128.
    """
    max_iter = matcore._int(max_iter, "max_iter", 1, error=PreconditionError)
    return _feasibility(as_hermitian(j), max_iter)


@cache
def _cyclic_parts(d: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The cyclic state's index sets on d (x) d, built once per d, read-only:
    its |ii><jj| block as an index pair, and three rows over the diagonal,
    marking the other |ik><ik|, then |i,i+1> and then |i+1,i> (indices mod d)."""
    i = np.arange(d)
    k = (i + 1) % d
    rows = np.zeros((3, d * d))
    rows[0] = 1.0
    rows[0, i * (d + 1)] = 0.0
    for row, pos in ((1, i * d + k), (2, k * d + i)):
        rows[0, pos], rows[row, pos] = 0.0, 1.0
    block = np.ix_(i * (d + 1), i * (d + 1))
    return tuple(gksl._read_only(x) for x in block), gksl._read_only(rows)


def _known_witnesses(jm: np.ndarray, d: int, slack: float):
    """The known PPT states of the module docstring, in order; the cyclic one
    built only when its closed-form pairing at the minimizing beta is below -slack."""
    if d == 4:
        yield bound_entangled_state().mat
    if d < 3:
        return
    block, rows = _cyclic_parts(d)
    s0, s1, s2 = (rows @ jm.diagonal().real).tolist()
    s0 += float(jm[block].real.sum())
    # the pairing (s0 + beta s1 + s2 / beta) / (d (d - 2 + beta + 1 / beta)) has a
    # derivative of the sign of q2 beta^2 + q1 beta + q0; it has a least value at
    # some beta > 0, the one positive root, exactly when q2 > 0 > q0.  The root
    # does not change when s0, s1 and s2 are scaled alike, so the q's are formed
    # from sums scaled by a power of two (exactly) to below 1, which cannot overflow
    scale = max(abs(s0), abs(s1), abs(s2))
    if not 0.0 < scale < math.inf:
        return
    e = -math.frexp(scale)[1]
    r0, r1, r2 = math.ldexp(s0, e), math.ldexp(s1, e), math.ldexp(s2, e)
    q2, q1, q0 = r1 * (d - 2) - r0, 2 * (r1 - r2), r0 - r2 * (d - 2)
    if not q2 > 0 > q0:
        return
    root = math.sqrt(q1 * q1 - 4 * q2 * q0)
    beta = (root - q1) / (2 * q2) if q1 < 0 else -2 * q0 / (root + q1)
    if not 0.0 < beta < math.inf or 1 / beta == math.inf:  # a root out of float range
        return
    trace = d * (d - 2 + beta + 1 / beta)
    if s0 + beta * s1 + s2 / beta < -slack * trace:
        rho = np.diag(np.array([1.0, beta, 1 / beta]) / trace @ rows)
        rho[block] = 1.0 / trace
        yield rho


def _feasibility(jm: np.ndarray, max_iter: int) -> FeasibilityResult:
    """:func:`decomposability_feasibility` of a gated Hermitian matrix: in
    float64 when it has no nonzero imaginary entry, in complex128 otherwise."""
    if not jm.imag.any():
        jm = np.ascontiguousarray(jm.real)
    n = jm.shape[0]
    d = int(round(np.sqrt(n)))
    if d * d != n:
        raise ShapeError(f"Choi matrix must be d^2 x d^2, got {jm.shape}")
    w, v = np.linalg.eigh(jm)
    slack = -matcore._psd_bound(w)  # PSD_SLACK * max(1, ||J||_2)
    if w[0] >= -slack:
        cert = DecompositionCertificate(j1=jm, j2=np.zeros_like(jm), residual=0.0)
        return FeasibilityResult(status=FEASIBLE, certificate=cert, iterations=0)
    for rho in _known_witnesses(jm, d, slack):
        value = _pairing(jm, rho)
        if value < -slack:  # J does not change in the loop: rho witnesses now or never
            return FeasibilityResult(status=INFEASIBLE_WITNESSED, pairing=value,
                                     gap=-float(w[0]), witness=WitnessState(rho, ppt_checked=True))
    a = _psd_part(w, v)

    def pt(x):
        return matcore._partial_transpose(x, d, d)

    ident, negative_trace = np.eye(n), np.trace(jm).real < 0.0
    best_lmin, best_b = -np.inf, None
    polish_left = 100
    best_value, best_x = 0.0, None
    anderson, x = _Anderson(), np.zeros_like(jm)  # x: the last A-step's input
    it = 0
    for it in range(1, max_iter + 1):
        lam, v, b = _spectral_parts(pt(jm - a))
        # Z = A + PT B - J, built from the clipped spectrum so that PT(Z) is
        # PSD up to roundoff on the scale of Z itself, not of J; the shift
        # keeps PT(Z) PSD (PT(I) = I) and makes Z PSD.  tr Z >= 0 exactly.
        z = -pt((v * np.minimum(lam, 0.0)) @ v.conj().T)
        if negative_trace or np.vdot(z, jm).real < 0.0:
            z += max(0.0, -float(np.linalg.eigvalsh(z)[0])) * ident
            tau = float(np.trace(z).real)
            if tau > 0.0:
                value = float(np.vdot(z, jm).real) / tau  # Tr(J X^T) with X = Z^T / tau
                if value < -slack:
                    # stop once an iteration improves the pairing by less than 1e-6 relative
                    if best_x is not None and value >= best_value * (1.0 + 1e-6):
                        break
                    if value < best_value:
                        best_value, best_x = value, z.T / tau
        x = b if it < ACCELERATION_START else anderson.step(x, b)
        w, _, a = _spectral_parts(jm - pt(x))
        lmin = w[0] if x is b else np.linalg.eigvalsh(jm - pt(b))[0]
        if lmin > best_lmin:
            best_lmin, best_b = lmin, b
        if best_lmin >= -slack:
            # inside the slack zone; run a short polish phase, keep the best
            polish_left -= 1
            if best_lmin >= -0.02 * slack or polish_left <= 0:
                break
    gap = max(0.0, -float(lmin))
    if best_lmin >= -slack:
        j1 = jm - pt(best_b)
        residual = float(np.linalg.norm(jm - j1 - pt(best_b)))
        # the residual rule at the scale of J, and both hermitized blocks PSD at it
        if residual <= FEASIBILITY_TOL / PSD_SLACK * slack and all(
                np.linalg.eigvalsh((x + x.conj().T) / 2)[0] >= -slack for x in (j1, best_b)):
            cert = DecompositionCertificate(j1=j1, j2=best_b, residual=residual)
            return FeasibilityResult(status=FEASIBLE, certificate=cert, iterations=it)

    value = 0.0 if best_x is None else _pairing(jm, best_x)
    if value < -slack:
        return FeasibilityResult(status=INFEASIBLE_WITNESSED, pairing=value, gap=gap,
                                 iterations=it, witness=WitnessState(best_x, ppt_checked=True))
    return FeasibilityResult(status=MAX_ITERATIONS, gap=gap, iterations=it)


def choi_min_criterion(s) -> float:
    """Threshold criterion: smallest eigenvalue of the Choi matrix, whose
    map is validated once, by :func:`choi`."""
    return matcore._is_psd(matcore._as_hermitian(choi(s)))[1]


def pairing_criterion(x):
    """Threshold criterion factory: pairing with a fixed state, validated
    once here; each call validates only the map, through :func:`choi`."""
    xm = x.mat if isinstance(x, WitnessState) else as_cmatrix(x)

    def criterion(s) -> float:
        return _pairing(choi(s), xm)

    return criterion


def find_threshold(family, criterion, t_lo: float, t_hi: float) -> float:
    """Locate the sign change of ``criterion(family(t))`` on a finite
    bracket, to within ``THRESHOLD_TOL``, or to two adjacent floats where
    their spacing is wider (from |t| = 2^23, about 8.4e6).  A bracket whose
    width ``t_hi - t_lo`` overflows is rejected with ``DomainError``.

    Values within ``THRESHOLD_ZERO_TOL`` of zero count as nonnegative;
    criteria such as a Choi minimum eigenvalue sit on an exact zero plateau
    past their threshold and only roundoff distinguishes them from zero
    there.  A NaN or infinite value has no sign, so it raises
    ``NumericalError`` naming the t where it occurred.

    The search is ITP (interpolate, truncate, project; Oliveira &
    Takahashi, ACM TOMS 47(1), 2020) with kappa1 = 0.2 / (t_hi - t_lo),
    kappa2 = 2 and n0 = 0.  Each point is the regula-falsi estimate,
    nudged by kappa1 (hi - lo)^2 towards the midpoint and projected into
    the interval around it that keeps bisection's worst case, so it never
    evaluates the criterion more often than bisection, and on a smooth
    criterion far less often.  The interpolation uses values that agree
    with the sign rule (zero-plateau roundoff reads as 0), and each point
    keeps ``THRESHOLD_TOL / 4`` from the bracket ends: a falsi point on
    the root to machine precision would otherwise move one end only and
    the bracket would not close.  Where floats are too far apart for that
    margin, the point is the midpoint.
    """
    for name, t in (("t_lo", t_lo), ("t_hi", t_hi)):
        if not np.isfinite(t):
            raise DomainError(f"{name} must be finite, got {t}")
    if not t_lo < t_hi:
        raise DomainError(f"invalid bracket [{t_lo}, {t_hi}]")
    width = t_hi - t_lo
    if not np.isfinite(width):
        raise DomainError(f"bracket width t_hi - t_lo is not finite: [{t_lo}, {t_hi}]")

    def sgn(v: float) -> int:
        return -1 if v < -THRESHOLD_ZERO_TOL else 1

    def evaluate(t: float) -> float:
        v = criterion(family(t))
        if not math.isfinite(v):
            raise NumericalError(f"criterion is not finite at t = {t!r}: {v}")
        return v

    f_lo = evaluate(t_lo)
    f_hi = evaluate(t_hi)
    if sgn(f_lo) == sgn(f_hi):
        raise DomainError(
            f"criterion does not change sign on [{t_lo}, {t_hi}]: {f_lo:.3e} vs {f_hi:.3e}"
        )

    def value(v: float) -> float:
        return v if sgn(v) < 0 else max(v, 0.0)

    eps = THRESHOLD_TOL / 2
    n_max = int(np.ceil(np.log2(width) - np.log2(2 * eps)))
    lo, hi = t_lo, t_hi
    y_lo, y_hi = value(f_lo), value(f_hi)
    s_lo = sgn(f_lo)
    j = 0
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats, further apart than the tolerance
        # sgn(y_lo) != sgn(y_hi) holds throughout, so y_hi != y_lo
        x_f = (y_hi * lo - y_lo * hi) / (y_hi - y_lo)
        toward = 1.0 if mid > x_f else -1.0
        delta = 0.2 * (hi - lo) * ((hi - lo) / width)
        x_t = x_f + toward * delta if delta <= abs(mid - x_f) else mid
        radius = math.ldexp(eps, n_max - j) - 0.5 * (hi - lo)
        x = x_t if abs(x_t - mid) <= radius else mid - toward * radius
        x = min(max(x, lo + eps / 2), hi - eps / 2)
        if not lo < x < hi:
            x = mid  # eps / 2 is below the spacing of floats at the ends
        f_x = evaluate(x)
        if sgn(f_x) == s_lo:
            lo, y_lo = x, value(f_x)
        else:
            hi, y_hi = x, value(f_x)
        j += 1
    return 0.5 * lo + 0.5 * hi


@dataclass(frozen=True, eq=False)
class NoisePropagationReport:
    """Sub-verdict for the sufficient condition that propagates
    decomposability from the noise part to the whole semigroup."""

    noise_feasibility: FeasibilityResult
    holds: bool


def decomposability_propagation_check(gen: Generator,
                                      max_iter: int = 5000) -> NoisePropagationReport:
    """Check the hypothesis under which every map of the semigroup is
    decomposable: the noise part N must be decomposable.  A decomposable map
    is positive, so that one condition covers N's positivity too.  It
    reports :func:`decomposability_feasibility` of N's Choi matrix
    (``max_iter``); ``holds`` requires its certificate, whose two blocks
    the solver has re-verified PSD, so ``holds`` is a proof."""
    feas = decomposability_feasibility(choi(gen.noise), max_iter=max_iter)
    return NoisePropagationReport(noise_feasibility=feas, holds=feas.status == FEASIBLE)
