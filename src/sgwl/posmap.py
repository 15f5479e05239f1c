"""Verdicts on maps and generators.

Complete positivity is decided through the Choi matrix of ``gksl.choi``.
Positivity of a generated semigroup is decided through the sign of the
two-vector functional

    f(psi, phi) = Re <phi| L[|psi><psi|] |phi>,   <phi|psi> = 0,

which is nonnegative for all orthonormal pairs exactly when every map of
the semigroup is positive.  On such pairs -i[H, .] and the anticommutator
drop out, so a generator check reads only the noise part N and the
Kossakowski matrix C, never H; C >= 0 proves complete positivity
(f = w C w^dag >= 0) without a search, and C < 0 makes every pair, the
basis pair (e_0, e_1) among them, a violation; a product of two qubit
generators with real symmetric C has the minimum of f in closed form.  On
qubits, for a generator and for a map alike, positivity is a quadratic
condition on the Bloch vector n of psi, so its minimum on |n| = 1 is a
trust-region subproblem, solved exactly and certified by its Lagrangian
dual bound.  Everywhere else the checker minimizes f by projected
gradient descent from many starts run in lockstep, with the exact gradient
taken from the same batched Hermitian eigensolve that gives the inner
minimum over phi; a step may grow until it turns psi by about
``SEARCH_MAX_TURN`` radians, so starts on flat stretches near a boundary
minimum do not crawl.  The map is prepared once per search, so that a stage
costs two products with it and that one eigensolve.  A map that the search
leaves without a violation gets one capped run of the decomposability loop
of ``decomp`` on its Choi matrix: a decomposable map is positive, and
``decomp`` returns a certificate only once both of its blocks re-verify
PSD, so a Feasible result proves it (proof ``decomposition``).

Every verdict names its ``proof``.  Violation reports are always
re-validated by direct evaluation before being returned: on the qubit
routes the pair is written in closed form from the Bloch vectors and the
functional is evaluated at it directly; the other routes share one check.
A "positive" outcome of the search (proof ``search``) is a statement about
the search, not a proof (hence the Undetermined status when starts
disagree).  Public entries validate their inputs once; the internal routes
work on the arrays those entries checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import decomp, gksl, matcore
from .gksl import SIGMA, Generator, HermitianBasis, _choi, choi, maximally_entangled_projector
from .matcore import (
    PSD_SLACK,
    DomainError,
    PreconditionError,
    ShapeError,
    _as_hermitian,
    as_cmatrix,
    as_hermitian,
)

STATUS_CP = "CompletelyPositive"
STATUS_POSITIVE_NOT_CP = "PositiveNotCP"
STATUS_NOT_POSITIVE = "NotPositive"
STATUS_UNDETERMINED = "Undetermined"

PROOF_CHOI = "choi"
PROOF_KOSSAKOWSKI_PSD = "kossakowski-psd"
PROOF_TRUST_REGION = "trust-region"
PROOF_KOSSAKOWSKI_ND = "kossakowski-nd"
PROOF_CLOSED_FORM = "closed-form"
PROOF_SEARCH = "search"
PROOF_DECOMPOSITION = "decomposition"

DEFAULT_BUDGET = 64
DEFAULT_SEED = 0x5EED
SPREAD_TOL = 1e-8
SEARCH_MAX_ITER = 200
# Largest angle (radians) an accepted search step may grow to turn psi by.
SEARCH_MAX_TURN = 0.25
# Projection-loop budget of the decomposability proof in map_positivity_check:
# decomposable Phi[a,b,c] with b/c up to 100 certify within it, lopsided ones in
# hundreds of iterations (742 for Phi[1, 10.954, 0.1095]); b/c = 1000 may not.
DECOMPOSITION_MAX_ITER = 1024


@dataclass(frozen=True, eq=False)
class PositivityVerdict:
    """Outcome of a positivity / complete-positivity question.

    Exactly one kind of certificate is populated, depending on how the
    verdict was reached: the least Choi eigenvalue, a violating vector
    pair with its functional value, the exact qubit minimum with its pair,
    or the best minimum found by the optimizer together with its per-start
    statistics.
    A verdict proved by C >= 0 off the qubit path reports ``min_value`` 0,
    a lower bound, not a minimum.  A generator's verdict is computed from
    its C and N only, so no field of it depends on H.

    On the qubit routes ``min_value`` is the functional at ``pair``, the
    pair the trust-region subproblem gives, and ``pair`` is set whatever the
    status.  For a generator, and for a map on M_2 whose trace
    tr S[|psi><psi|] is the same for every psi (trace preserving, or trace
    scaling by a constant), that is the exact minimum.  For a map on M_2
    whose trace varies with psi it is only an upper bound on the minimum of
    the smallest eigenvalue of S[|psi><psi|], and can lie well above it;
    the status is exact all the same.

    A NotPositive generator verdict proved ``closed-form`` (a product of
    two qubit generators with real symmetric C) reports the exact minimum,
    half the least pair sum of the two spectra; one proved
    ``kossakowski-nd`` (C negative definite) reports the functional at the
    basis pair (e_0, e_1), somewhere in [lambda_min(C), lambda_max(C)].

    ``proof`` names how the status was reached: ``choi`` (Choi spectrum),
    ``kossakowski-psd`` (C >= 0), ``trust-region`` (exact qubit minimum, of
    a generator or of a map), ``kossakowski-nd`` (C < 0, so every pair
    violates), ``closed-form`` (a qubit product's exact minimum),
    ``decomposition`` (a map's decomposability certificate, whose blocks
    ``decomp`` re-verified PSD; the other fields are the search's) or
    ``search``.  A search verdict is a proof only when it is NotPositive,
    with its re-validated pair; ``reason`` says why a verdict is
    Undetermined.
    """

    status: str
    min_value: float | None = None
    pair: tuple[np.ndarray, np.ndarray] | None = None
    choi_min_eig: float | None = None
    start_values: np.ndarray | None = field(default=None, repr=False)
    spread: float | None = None
    proof: str = PROOF_SEARCH
    reason: str | None = None

    @property
    def is_cp(self) -> bool:
        return self.status == STATUS_CP

    @property
    def is_positive(self) -> bool:
        """True when the verdict asserts positivity (CP included)."""
        return self.status in (STATUS_CP, STATUS_POSITIVE_NOT_CP)


def is_completely_positive(s) -> PositivityVerdict:
    """CP verdict via positivity of the Choi matrix.

    Returns status CompletelyPositive or Undetermined (not CP says nothing
    about plain positivity), with the least Choi eigenvalue.
    """
    return _cp_verdict(_as_hermitian(choi(s)))


def _cp_verdict(j: np.ndarray) -> PositivityVerdict:
    """:func:`is_completely_positive` from a Choi matrix that passed the gate."""
    ok, lmin = matcore._is_psd(j)
    return PositivityVerdict(status=STATUS_CP if ok else STATUS_UNDETERMINED,
                             choi_min_eig=lmin, proof=PROOF_CHOI)


def _prepare(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The search's operator, built once per search: (images, adjoint).

    ``rows @ images`` maps row-major vec(X) rows to row-major
    vec((S[X] + S[X]^dag) / 2) for Hermitian X, and ``rows @ adjoint`` does
    the same for the Hilbert-Schmidt adjoint of S.  S acts on column-stacked
    vectors, so in row-major layout it is S with both index pairs swapped,
    and X -> S[X^dag]^dag, the hermitizing term, is conj(S) entry by entry.
    The sum is linear in X, and its adjoint hermitizes the images of S^dag
    in the same way, so the images and gradients are those of herm S for
    every S, whether or not S preserves Hermiticity.
    """
    d = int(round(math.sqrt(s.shape[0])))
    row = s.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
    herm = (row + s.conj()) / 2
    return herm.T, herm.conj()


def _sq_norms(z: np.ndarray) -> np.ndarray:
    """Squared norms of the complex rows of ``z``."""
    return np.einsum("ni,ni->n", z.conj(), z).real


def _evaluate(op, psi: np.ndarray, restricted: bool):
    """Inner minimum over phi at a batch of unit rows psi of the prepared
    operator ``op`` (:func:`_prepare`).

    One batched eigh of M = herm S[|psi><psi|] gives the value and the
    minimizing phi; when restricted, M is compressed to the complement of
    psi and psi is shifted above the spectrum, by 1 + 2 ||M||_F row by row,
    instead of building a basis.  With P = |psi><psi| and u = M psi the
    compression (1 - P) M (1 - P) is M - |psi><u| - |u><psi| + <psi|u> P.
    By the envelope theorem the gradient is S^dag[|phi><phi|] psi, less
    phi <phi|u> for the constraint <phi|psi> = 0 when restricted, projected
    on the tangent space of the sphere at psi; its real and imaginary parts
    are the derivatives along Re psi and Im psi.  Returns (values,
    gradients, phi).
    """
    images, adjoint = op
    n, d = psi.shape
    proj = psi[:, :, None] * psi[:, None, :].conj()
    m = (proj.reshape(n, d * d) @ images).reshape(n, d, d)
    if restricted:
        u = np.einsum("nij,nj->ni", m, psi)
        psi_u = psi[:, :, None] * u.conj()[:, None, :]
        shift = (1.0 + 2.0 * np.sqrt(_sq_norms(m.reshape(n, d * d)))
                 + np.einsum("ni,ni->n", psi.conj(), u).real)
        w, v = np.linalg.eigh(m - psi_u - psi_u.conj().transpose(0, 2, 1)
                              + shift[:, None, None] * proj)
    else:
        w, v = np.linalg.eigh(m)
    phi = v[:, :, 0]
    back = (phi[:, :, None] * phi[:, None, :].conj()).reshape(n, d * d) @ adjoint
    g = np.einsum("nij,nj->ni", back.reshape(n, d, d), psi)
    if restricted:
        g -= phi * np.einsum("ni,ni->n", phi.conj(), u)[:, None]
    g -= psi * np.einsum("ni,ni->n", psi.conj(), g).real[:, None]
    return w[:, 0], 2.0 * g, phi


def _spread(start_values: np.ndarray, k: int = 5) -> float:
    top = np.sort(start_values)[: min(k, start_values.size)]
    return float(top[-1] - top[0])


def _search(s: np.ndarray, restricted: bool, budget: int, seed: int) -> PositivityVerdict:
    """Minimize the inner minimum over psi on the unit sphere and decide.

    All starts (start k drawn with seed + k) descend in lockstep as complex
    unit rows psi, one batched evaluation (:func:`_evaluate`) per stage on
    the operator prepared once (:func:`_prepare`).  A trial is accepted when
    it lowers the value by more than 1e-15.  On an accepted trial a start
    grows its step by 1.5, up to max(1, ``SEARCH_MAX_TURN`` / |g|) for the
    gradient g at the accepted point: a step turns psi by about step |g|,
    so where |g| < ``SEARCH_MAX_TURN`` the cap lets it turn psi by up to
    about ``SEARCH_MAX_TURN`` radians instead of |g|, and elsewhere the cap
    is 1.  A rejected trial halves the step.  A start stops when the step
    falls below 1e-12, |g|^2 below 1e-24 or it has taken ``SEARCH_MAX_ITER``
    steps.  Once any start falls below -1e-8 only the lowest one goes on.
    A violation is re-validated (:func:`_violation`) at the best start's
    pair, orthonormalized when restricted and normalized otherwise, and that
    pair is the one reported; otherwise the spread of the best starts
    decides, both at the scale of the largest entry of ``s``.
    """
    d = int(round(math.sqrt(s.shape[0])))
    op = _prepare(s)
    x = np.array([np.random.default_rng(seed + k).normal(size=2 * d) for k in range(budget)])
    psi = x[:, :d] + 1j * x[:, d:]
    psi /= np.sqrt(_sq_norms(psi))[:, None]
    val, grad, phi = _evaluate(op, psi, restricted)
    step = np.full(budget, 0.25)
    taken = np.zeros(budget, dtype=int)
    live = _sq_norms(grad) >= 1e-24
    while True:
        if np.any(val < -1e-8):
            live &= np.arange(budget) == np.argmin(val)
        if not live.any():
            break
        idx = np.flatnonzero(live)
        # the gradient is orthogonal to psi, so the trial row never vanishes
        pn = psi[idx] - step[idx, None] * grad[idx]
        pn /= np.sqrt(_sq_norms(pn))[:, None]
        vn, gn, phin = _evaluate(op, pn, restricted)
        ok = vn < val[idx] - 1e-15
        acc, rej = idx[ok], idx[~ok]
        psi[acc], val[acc], grad[acc], phi[acc] = pn[ok], vn[ok], gn[ok], phin[ok]
        g2 = _sq_norms(gn[ok])
        # a step turns psi by about step |g|; a start with |g|^2 < 1e-24 stops below
        cap = np.maximum(1.0, SEARCH_MAX_TURN / np.sqrt(np.maximum(g2, 1e-24)))
        step[acc] = np.minimum(step[acc] * 1.5, cap)
        taken[acc] += 1
        live[acc] = (taken[acc] < SEARCH_MAX_ITER) & (g2 >= 1e-24)
        step[rej] /= 2
        live[rej] = step[rej] >= 1e-12

    best = int(np.argmin(val))
    size = float(np.abs(s).max())
    slack = matcore._tol(PSD_SLACK, size)
    if val[best] < -slack:
        unit = gksl._orthonormalize_pair if restricted else gksl._unit_pair
        verdict = _violation(s, unit(psi[best], phi[best]), PROOF_SEARCH, slack)
        if verdict is not None:
            return replace(verdict, start_values=val)
    spread = _spread(val)
    status, reason = STATUS_POSITIVE_NOT_CP, None
    spread_tol = matcore._tol(SPREAD_TOL, size)
    if spread > spread_tol:
        status = STATUS_UNDETERMINED
        reason = f"the best starts disagree by {spread:.3e} > {spread_tol:.3g}"
    return PositivityVerdict(
        status=status,
        min_value=float(val[best]),
        start_values=val,
        spread=spread,
        reason=reason,
    )


# Column-stacked Pauli matrices: Tr(sigma_j X) = vec(sigma_j)^dag vec(X).
_PAULI_VECS = np.stack([s.T.reshape(-1) for s in SIGMA], axis=1)


def _pauli_form(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """``(S / 2^e, M, slack, 2^e)`` for a map S on M_2: e >= 0 the least with
    max|S| / 2^e < 2, M_jk = Tr(sigma_j (S / 2^e)(sigma_k)), and the PSD
    slack at the scale of M over 2^e.  A power of two divides exactly, so
    every comparison decides as it would on S, and neither M nor its squares
    overflow, however large S (a modulus that overflows takes e = 1023)."""
    size = np.abs(s).max()
    scale = 2.0 ** max(0, (math.frexp(size)[1] if size < math.inf else 1024) - 1)
    if scale > 1.0:
        s = s / scale
    m = (_PAULI_VECS.conj().T @ s @ _PAULI_VECS).real
    return s, m, PSD_SLACK * max(1.0 / scale, float(np.abs(m).max())), scale


def _sphere_minimum(q: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float]:
    """Global minimizer of n^T q n + g^T n over |n| = 1, with a lower bound.

    In the eigenbasis q = U diag(lam) U^T, with b = U^T g / 2, w = lam - lam[0]
    and s = lam[0] - mu >= 0 for the multiplier mu, a minimizer has
    y_i = -b_i / (w_i + s) where |y(s)| = 1 (More & Sorensen, SIAM J. Sci.
    Stat. Comput. 1983).  1/|y(s)| is concave and increasing in s, so Newton's
    method from the lower bound s >= max_i (|b_i| - w_i) converges
    monotonically; it runs on the three coordinates as plain floats.  In the
    hard case |y(0)| < 1 and s = 0; the remaining norm goes along the lowest
    eigenvector.  The Lagrangian dual value
    lam[0] - s - sum_i b_i^2 / (w_i + s) bounds the minimum from below and
    is returned with the minimizer.
    """
    lam, u = np.linalg.eigh(q)
    b = (u.T @ g / 2).tolist()
    w = (lam - lam[0]).tolist()
    s = max(0.0, *(abs(bi) - wi for bi, wi in zip(b, w)))

    def solve(s):
        return [-bi / (wi + s) if wi + s > 0 else 0.0 for bi, wi in zip(b, w)]

    def weighted(s, power):
        # sum_i b_i^2 / (w_i + s)^power over the terms with w_i + s > 0
        return sum(bi * bi / (wi + s) ** power for bi, wi in zip(b, w) if wi + s > 0)

    y = solve(s)
    r = math.hypot(*y)
    for _ in range(100):
        if r <= 1.0 + 1e-15:
            break
        step = (r - 1.0) * r * r / weighted(s, 3)
        s += step
        y = solve(s)
        r = math.hypot(*y)
        if step <= 1e-15 * s:
            break
    if s == 0.0 and r < 1.0:
        y[0] = math.sqrt(1.0 - r * r)
    n = u @ y
    return n / np.linalg.norm(n), float(lam[0]) - s - weighted(s, 1)


def _bloch_pair(n) -> tuple[np.ndarray, np.ndarray]:
    """The +1 and -1 eigenvectors of n.sigma / |n| for a real 3-vector n,
    in closed form; (|0>, |1>) for n = 0.

    With n / |n| = (x, y, z) the +1 eigenvector is (1 + z, x + iy) scaled by
    1 / sqrt(2 (1 + z)) for z >= 0, and (x - iy, 1 - z) / sqrt(2 (1 - z))
    for z < 0, so the divisor never falls below sqrt(2).  The -1
    eigenvector is (-conj(b), conj(a)) for the +1 eigenvector (a, b).
    """
    x, y, z = (float(c) for c in n)
    r = math.hypot(x, y, z)
    if r == 0.0:
        x, y, z, r = 0.0, 0.0, 1.0, 1.0
    x, y, z = x / r, y / r, z / r
    if z >= 0.0:
        a, b = complex(1.0 + z), complex(x, y)
    else:
        a, b = complex(x, -y), complex(1.0 - z)
    scale = 1.0 / math.sqrt(2.0 * (1.0 + abs(z)))
    a, b = a * scale, b * scale
    return np.array([a, b]), np.array([-b.conjugate(), a.conjugate()])


def _qubit_check(gen: Generator, proved_cp: bool) -> PositivityVerdict | None:
    """Exact verdict for a qubit generator, or None if the bound fails.

    With P = (1 + n.sigma)/2, psi spans the range of P and phi that of
    1 - P, so f = Tr((1 - P) N(P)) = [M_00 + (M[0, 1:] - M[1:, 0]).n
    - n^T M[1:, 1:] n] / 4 for M_jk = Tr(sigma_j N(sigma_k)); on |n| = 1
    this is f of L, whose H and anticommutator terms vanish on the pair.
    The form is read at a power-of-two scale (:func:`_pauli_form`), and the
    slack at the scale of M.  The pair at the minimizer
    n is written in closed form (:func:`_bloch_pair`) and f is evaluated at
    it directly, so the reported value is that of a pair, not of the
    quadratic; a positive verdict also needs the dual lower bound, plus
    M_00 / 4, within the slack.
    """
    noise, m, slack, scale = _pauli_form(gen.noise)
    q = -(m[1:, 1:] + m[1:, 1:].T) / 8
    g = (m[0, 1:] - m[1:, 0]) / 4
    n, bound = _sphere_minimum(q, g)
    pair = _bloch_pair(n)
    value = gksl._functional(noise, *pair)
    if value < -slack:
        return PositivityVerdict(status=STATUS_NOT_POSITIVE, min_value=value * scale, pair=pair,
                                 proof=PROOF_TRUST_REGION)
    if bound + m[0, 0] / 4 < -slack:
        return None
    if proved_cp:
        return PositivityVerdict(status=STATUS_CP, min_value=value * scale, pair=pair,
                                 spread=0.0, proof=PROOF_KOSSAKOWSKI_PSD)
    return PositivityVerdict(status=STATUS_POSITIVE_NOT_CP, min_value=value * scale, pair=pair,
                             spread=0.0, proof=PROOF_TRUST_REGION)


def _violation(s: np.ndarray, pair, proof: str, slack: float,
               value: float | None = None) -> PositivityVerdict | None:
    """NotPositive at a unit pair, or None unless the functional of ``s``
    evaluated there lies below -slack; ``min_value`` is ``value`` when given
    (an exact minimum), else that functional."""
    f = gksl._functional(s, *pair)
    if f < -slack:
        return PositivityVerdict(status=STATUS_NOT_POSITIVE,
                                 min_value=f if value is None else value, pair=pair, proof=proof)
    return None


def _negative_definite_violation(gen: Generator, spectrum: np.ndarray | None,
                                 slack: float) -> PositivityVerdict | None:
    """NotPositive without a search when the spec's C is negative definite:
    lambda_max(C) below the PSD bound of its ``spectrum`` (matcore's rule).

    On an orthonormal pair sum_a |w_a|^2 = 1, so f = w C w^dag lies in
    [lambda_min(C), lambda_max(C)] and every pair violates; the basis pair
    (e_0, e_1) is reported.  As max|N| <= ||C||_2, f lies below the search's
    slack too, but for roundoff at the boundary, where the search takes over.
    """
    if spectrum is None or spectrum[-1] >= matcore._psd_bound(spectrum):
        return None
    e = np.eye(gen.dim, dtype=complex)
    return _violation(gen.noise, (e[0], e[1]), PROOF_KOSSAKOWSKI_ND, slack)


def _qubit_product_violation(gen: Generator, slack: float) -> PositivityVerdict | None:
    """NotPositive in closed form for a product of two qubit generators whose
    C is real symmetric in the Pauli basis, when half the least of
    S = {c_i + c_j (i != j) within a factor, c1_i + c2_j across} lies below
    -slack; that half is the exact minimum of f and is reported as
    ``min_value``.

    On a pair f = w1 C1 w1^dag + w2 C2 w2^dag with w1_a = <phi|F_a (x) 1|psi>
    and w2_b = <phi|1 (x) F_b|psi>, and a local unitary rotates each w by an
    SO(3) element of its own, so min f depends only on the spectra c1, c2
    (ascending, with eigenvectors v1, v2).  A within-factor sum c_0 + c_1 is
    reached by that factor's qubit pair (:func:`_bloch_pair` of its top
    eigenvector, the minimizer of its own trust-region problem) times |0> on
    the other factor.  The cross sum c1_0 + c2_0 is reached by
    psi = (1 (x) W)|Phi+> and phi = (n1.sigma (x) 1) psi with n1 = v1[:, 0]:
    then w1 = n1 / sqrt(2) and w2 = R_W D n1 / sqrt(2), D = diag(1, -1, 1)
    the Bloch image of transposition, so W is built to rotate D n1 onto
    n2 = v2[:, 0].
    """
    g1, g2 = gen.factors
    pauli = gksl.pauli_basis()
    if not all(g.spec is not None and g.spec.basis is pauli and not g.spec.c_matrix.imag.any()
               for g in (g1, g2)):
        return None
    (c1, v1), (c2, v2) = (np.linalg.eigh(g.spec.c_matrix.real) for g in (g1, g2))
    sums = (c1[0] + c1[1], c2[0] + c2[1], c1[0] + c2[0])
    k = int(np.argmin(sums))
    if sums[k] / 2 >= -slack:
        return None
    if k < 2:
        psi, phi = _bloch_pair((v1, v2)[k][:, 2])
        chi = np.array([1.0, 0.0])
        pair = (np.kron(psi, chi), np.kron(phi, chi)) if k == 0 else \
            (np.kron(chi, psi), np.kron(chi, phi))
    else:
        n1 = v1[:, 0]
        (a_up, a_down), (b_up, b_down) = _bloch_pair(n1 * [1.0, -1.0, 1.0]), _bloch_pair(v2[:, 0])
        w = np.outer(b_up, a_up.conj()) + np.outer(b_down, a_down.conj())
        # (A (x) B)|Phi+> is vec_row(A B^T) / sqrt(2) in the Kronecker order
        psi = w.T / math.sqrt(2)
        pair = psi.reshape(-1), (np.tensordot(n1, SIGMA[1:], axes=1) @ psi).reshape(-1)
    return _violation(gen.noise, pair, PROOF_CLOSED_FORM, slack, float(sums[k] / 2))


def kossakowski_positivity_check(gen: Generator, budget: int = DEFAULT_BUDGET,
                                 seed: int = DEFAULT_SEED) -> PositivityVerdict:
    """Decide positivity of the generated semigroup from the orthogonal-pair
    functional of the generator.

    It reads only C (for the CP proof) and the noise part N, never H or
    ``gen.full``: on orthonormal pairs f of L is f of N.  A qubit
    generator is decided exactly (a product has d >= 4): the minimum
    of f over the Bloch sphere is a trust-region subproblem, its minimizer
    gives the pair, and the verdict is NotPositive (re-validated pair) or
    positive, proved by the dual bound; with C PSD it is CompletelyPositive
    and keeps that exact minimum.  Any other generator whose Kossakowski
    matrix C is PSD is CompletelyPositive at once (f = w C w^dag >= 0), with
    ``min_value`` 0, the lower bound that proof gives, and no search; so is
    a product whose factors all have a PSD C.

    Two violations are built, not searched for, each re-validated on N at
    the search's slack: a C that is negative definite makes every pair
    violate (proof ``kossakowski-nd``, ``min_value`` the functional at the
    basis pair (e_0, e_1)), and a product of two qubit
    generators with real symmetric C in the Pauli basis has its exact
    minimum in closed form (proof ``closed-form``, ``min_value`` that
    minimum).  A pair that fails re-validation leaves the generator to the
    search, as a positive closed form does.

    The rest are searched on N: each start draws psi uniformly on the unit
    sphere; the inner problem over phi is solved exactly as the minimal
    eigenvalue of N[|psi><psi|] compressed to the orthogonal complement of
    psi, and all starts run projected gradient descent in lockstep on the
    outer problem with the exact (envelope) gradient.  A NotPositive verdict
    always carries a re-validated pair; otherwise the verdict is
    PositiveNotCP, or Undetermined when the best starts disagree by more
    than the spread tolerance.
    """
    budget = matcore._int(budget, "budget", 1, error=PreconditionError)
    seed = matcore._int(seed, "seed", 0, error=PreconditionError)
    spectrum = _c_spectrum(gen)
    proved_cp = _proved_cp(gen, spectrum)
    if gen.dim == 2:
        verdict = _qubit_check(gen, proved_cp)
        if verdict is not None:
            return verdict
    if proved_cp:
        return PositivityVerdict(status=STATUS_CP, min_value=0.0, proof=PROOF_KOSSAKOWSKI_PSD)
    slack = matcore._tol(PSD_SLACK, float(np.abs(gen.noise).max()))
    if gen.factors is None:
        verdict = _negative_definite_violation(gen, spectrum, slack)
    else:
        verdict = _qubit_product_violation(gen, slack)
    return verdict or _search(gen.noise, True, budget, seed)


def _c_spectrum(gen: Generator) -> np.ndarray | None:
    """The spectrum of the spec's C, or None without a spec (a product); the
    spec's C passed the Hermiticity gate when the spec was made."""
    return None if gen.spec is None else np.linalg.eigvalsh(gen.spec.c_matrix)


def _proved_cp(gen: Generator, spectrum: np.ndarray | None) -> bool:
    """C >= 0, read from its ``spectrum``, proves the semigroup CP; a
    product is CP when every factor is (exp(t L1) (x) exp(t L2) of CP maps),
    checked through nested products."""
    if gen.factors is not None:
        return all(_proved_cp(g, _c_spectrum(g)) for g in gen.factors)
    return spectrum is not None and bool(spectrum[0] >= matcore._psd_bound(spectrum))


def _qubit_map_exact(sm: np.ndarray) -> PositivityVerdict | None:
    """Exact verdict for a map on M_2 that is not CP, or None if the bound fails.

    With M_jk = Tr(sigma_j S(sigma_k)), u0 = M_00, u = M[0, 1:], v0 = M[1:, 0]
    and V = M[1:, 1:], S maps (1 + n.sigma)/2 to alpha + beta.sigma with
    alpha = (u0 + u.n)/4 and beta = (v0 + V n)/4, so S is positive iff
    alpha >= 0 and 16 (alpha^2 - |beta|^2) = n^T (u u^T - V^T V) n
    + 2 (u0 u - V^T v0).n + u0^2 - |v0|^2 >= 0 on |n| = 1.  The pair (psi for
    n, phi for -beta(n)) at its minimizer, or at n = -u/|u| where
    alpha_min = (u0 - |u|)/4 < 0, is written in closed form
    (:func:`_bloch_pair`) and the functional is evaluated at it directly.
    The form is read at a power-of-two scale (:func:`_pauli_form`).
    A positive verdict needs alpha_min above the slack, at the scale of M, and
    the dual bound of that quadratic over 16 alpha_min (a bound on alpha - |beta|) within it.
    """
    sm, m, slack, scale = _pauli_form(sm)
    u0, u, v0, v = m[0, 0], m[0, 1:], m[1:, 0], m[1:, 1:]
    n, dual = _sphere_minimum(np.outer(u, u) - v.T @ v, 2 * (u0 * u - v.T @ v0))
    r = float(np.linalg.norm(u))
    alpha_min = (u0 - r) / 4

    def at(n):
        # psi: top eigenvector of n.sigma; phi: bottom one of beta(n).sigma
        pair = _bloch_pair(n)[0], _bloch_pair(v0 + v @ n)[1]
        return gksl._functional(sm, *pair), pair

    value, pair = at(n)
    if value >= -slack and alpha_min < 0 < r:
        value, pair = at(-u / r)
    if value < -slack:
        return PositivityVerdict(status=STATUS_NOT_POSITIVE, min_value=value * scale, pair=pair,
                                 proof=PROOF_TRUST_REGION)
    if alpha_min <= slack or (dual + u0 * u0 - v0 @ v0) / (16 * alpha_min) < -slack:
        return None
    return PositivityVerdict(status=STATUS_POSITIVE_NOT_CP, min_value=value * scale, pair=pair,
                             spread=0.0, proof=PROOF_TRUST_REGION)


def map_positivity_check(s, budget: int = 16, seed: int = DEFAULT_SEED) -> PositivityVerdict:
    """Decide positivity of a single map by minimizing the smallest
    eigenvalue of S[|psi><psi|] over pure states (no orthogonality here:
    a map is positive iff these images are all PSD).

    S is validated once and its Choi matrix gated for Hermiticity once.  CP
    maps short-circuit through the Choi check.  A map on M_2 is decided
    exactly, by a trust-region subproblem on the Bloch sphere, unless its
    dual bound fails; other maps are searched.  When that exact route
    decides, ``min_value`` is the value at the returned pair: the exact
    minimum whenever
    tr S[|psi><psi|] does not depend on psi (every trace-preserving or
    trace-scaling map), otherwise only an upper bound on it (see
    :class:`PositivityVerdict`).

    A search that finds no violation is followed by one projection loop of
    ``decomp`` on the gated Choi matrix, capped at ``DECOMPOSITION_MAX_ITER``
    iterations.  If it ends Feasible, with a certificate whose blocks
    ``decomp`` has re-verified PSD at the scale of J, the verdict becomes
    PositiveNotCP with proof ``decomposition`` and keeps the search's
    ``min_value``; a witnessed or unfinished loop leaves the search verdict
    as it was.  A cyclic PPT witness (``decomp``: 2x2 blocks of determinant 0,
    exact on Phi[a,b,c] at d = 3 by Cho-Kye-Lee) ends that loop at once, a
    proof though not the loop's most negative pairing.
    """
    budget = matcore._int(budget, "budget", 1, error=PreconditionError)
    seed = matcore._int(seed, "seed", 0, error=PreconditionError)
    sm = as_cmatrix(s)
    j = _as_hermitian(_choi(sm))
    cp = _cp_verdict(j)
    if cp.is_cp:
        return cp
    verdict = _qubit_map_exact(sm) if sm.shape == (4, 4) else None
    if verdict is None:
        verdict = _search(sm, False, budget, seed)
        if (verdict.status != STATUS_NOT_POSITIVE
                and decomp._feasibility(j, DECOMPOSITION_MAX_ITER).status == decomp.FEASIBLE):
            verdict = replace(verdict, status=STATUS_POSITIVE_NOT_CP, proof=PROOF_DECOMPOSITION,
                              reason=None)
    return replace(verdict, choi_min_eig=cp.choi_min_eig)


def qubit_positivity_conditions(c1: float, c2: float, c3: float) -> bool:
    """Closed-form qubit test: positive semigroup iff all pairwise sums of
    the (diagonal, real) Kossakowski coefficients are nonnegative."""
    return c1 + c2 >= 0 and c2 + c3 >= 0 and c1 + c3 >= 0


@dataclass(frozen=True, eq=False)
class ProductConditionReport:
    """Result of the necessary spectral test for product-semigroup positivity."""

    combined: np.ndarray
    min_eigenvalue: float
    v_matrix: np.ndarray
    necessary_ok: bool


def product_positivity_necessary(
    c1, c2, basis: HermitianBasis, v
) -> ProductConditionReport:
    """Necessary condition for positivity of a product semigroup: for any
    unitary V, the matrix ``C1 + R^T C2 R`` must be PSD, where R is the
    rotation V induces on the traceless basis sector.  Each input is
    validated once; the sum of Hermitian matrices is symmetrized, not gated."""
    c1m, c2m, vm = as_hermitian(c1), as_hermitian(c2), as_cmatrix(v)
    r = gksl._basis_rotation_matrix(vm, basis)
    combined = c1m + r.T @ c2m @ r
    combined = (combined + combined.conj().T) / 2
    ok, lmin = matcore._is_psd(combined)
    return ProductConditionReport(combined=combined, min_eigenvalue=lmin, v_matrix=vm,
                                  necessary_ok=ok)


def product_positivity_sufficient(c1, c2) -> bool:
    """Sufficient condition for positivity of a product semigroup with both
    coefficient matrices diagonal: with at most one negative rate, in the
    second factor only, every other rate must dominate its magnitude.
    Non-finite rates are rejected with ``DomainError``."""
    a1 = np.asarray(c1, dtype=float)
    a2 = np.asarray(c2, dtype=float)
    if not np.isfinite(np.append(a1, a2)).all():
        raise DomainError("rates must be finite")
    if a1.shape != a2.shape or a1.ndim != 1:
        raise ShapeError("c1 and c2 must be equal-length 1-d real arrays")
    if np.any(a1 < 0):
        raise PreconditionError("all first-factor rates must be nonnegative")
    negatives = np.flatnonzero(a2 < 0)
    if negatives.size > 1:
        raise PreconditionError("at most one negative rate is allowed in the second factor")
    if negatives.size == 0:
        return True
    k = negatives[0]
    mag = abs(a2[k])
    others = np.delete(a2, k)
    return bool(np.all(a1 >= mag) and np.all(others >= mag))


def qubit_product_positivity(c1, c2) -> bool:
    """Full qubit product criterion (the sufficient condition is also
    necessary in d = 2): all cross sums ``c1_i + c2_j`` must be nonnegative.

    Both triples must individually pass the closed-form qubit test, and
    non-finite rates are rejected with ``DomainError``.
    """
    a1 = np.asarray(c1, dtype=float)
    a2 = np.asarray(c2, dtype=float)
    if not np.isfinite(np.append(a1, a2)).all():
        raise DomainError("rates must be finite")
    if a1.shape != (3,) or a2.shape != (3,):
        raise ShapeError("expected two triples of real rates")
    for name, a in (("first", a1), ("second", a2)):
        if not qubit_positivity_conditions(*a):
            raise PreconditionError(f"{name} factor is not a positive semigroup")
    return bool(np.all(a1[:, None] + a2[None, :] >= 0))
