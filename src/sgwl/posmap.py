"""Verdicts on maps and generators.

Complete positivity is decided through the Choi matrix.  Positivity of a
generated semigroup is decided through the sign of the two-vector functional

    f(psi, phi) = Re <phi| L[|psi><psi|] |phi>,   <phi|psi> = 0,

which is nonnegative for all orthonormal pairs exactly when every map of
the semigroup is positive.  A PSD Kossakowski matrix C proves complete
positivity (f = w C w^dag >= 0) without a search.  For a qubit generator
phi is fixed by psi and f is a quadratic plus a linear term in the Bloch
vector n of psi, so its minimum on |n| = 1 is a trust-region subproblem,
solved exactly and certified by its Lagrangian dual bound.  A qubit map is positive exactly
when it is decomposable, so a decomposition certificate of its Choi matrix
decides it.  Everywhere else the checker minimizes f by projected gradient
descent from many starts run in lockstep, with the exact gradient taken
from the same batched eigendecomposition that gives the inner minimum over
phi.

Every verdict names its ``proof``.  Violation reports are always
re-validated by direct evaluation before being returned, while a
"positive" outcome of the search (proof ``search``) is a statement about
the search, not a proof (hence the Undetermined status when starts
disagree).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import gksl, matcore
from .gksl import SIGMA, Generator, HermitianBasis
from .matcore import (
    FEASIBILITY_TOL,
    PSD_SLACK,
    PreconditionError,
    ShapeError,
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
PROOF_DECOMPOSITION = "decomposition"
PROOF_SEARCH = "search"

DEFAULT_BUDGET = 64
DEFAULT_SEED = 0x5EED
SPREAD_TOL = 1e-8
SEARCH_MAX_ITER = 200


@dataclass
class PositivityVerdict:
    """Outcome of a positivity / complete-positivity question.

    Exactly one kind of certificate is populated, depending on how the
    verdict was reached: the minimal Choi eigenpair, a violating vector
    pair with its functional value, the exact qubit minimum, or the best
    minimum found by the optimizer together with its per-start statistics.
    A verdict proved by a decomposition certificate, or by C >= 0 off the
    qubit path, reports ``min_value`` 0, a lower bound, not a minimum.

    ``proof`` names how the status was reached: ``choi`` (Choi spectrum),
    ``kossakowski-psd`` (C >= 0), ``trust-region`` (exact qubit minimum),
    ``decomposition`` (PSD certificate blocks) or ``search``.  A search
    verdict is a proof only when it is NotPositive, with its re-validated
    pair; ``reason`` says why a verdict is Undetermined.
    """

    status: str
    min_value: float | None = None
    pair: tuple[np.ndarray, np.ndarray] | None = None
    choi_min_eig: float | None = None
    choi_min_vector: np.ndarray | None = None
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


def choi(s) -> np.ndarray:
    """Choi matrix of a map on M_d: the image of the maximally entangled
    projector under ``Lambda (x) id``, trace 1 for trace-preserving maps.

    With column-stacking this is an index reshuffle of the superoperator.
    """
    sm = as_cmatrix(s)
    d = int(round(np.sqrt(sm.shape[0])))
    if sm.shape != (d * d, d * d):
        raise ShapeError(f"superoperator must be d^2 x d^2, got {sm.shape}")
    return sm.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d) / d


def maximally_entangled_projector(d: int) -> np.ndarray:
    """Rank-one trace-one projector onto sum_i |ii>/sqrt(d)."""
    v = np.zeros(d * d, dtype=complex)
    for i in range(d):
        v[i * d + i] = 1.0
    v /= np.sqrt(d)
    return np.outer(v, v.conj())


def is_completely_positive(s) -> PositivityVerdict:
    """CP verdict via positivity of the Choi matrix.

    Returns status CompletelyPositive or Undetermined (not CP says nothing
    about plain positivity); the minimal Choi eigenpair is attached.
    """
    return _cp_verdict(as_hermitian(choi(s)))


def _cp_verdict(j: np.ndarray) -> PositivityVerdict:
    """:func:`is_completely_positive` from a Choi matrix that passed the gate."""
    eig = matcore._hermitian_eig(j)
    lmin = float(eig.values[0])
    status = STATUS_CP if lmin >= matcore._psd_bound(eig.values) else STATUS_UNDETERMINED
    return PositivityVerdict(
        status=status,
        choi_min_eig=lmin,
        choi_min_vector=eig.vectors[:, 0],
        proof=PROOF_CHOI,
    )


def _batch_images(l_mat: np.ndarray, psi: np.ndarray, d: int) -> np.ndarray:
    """Hermitian matrices L[|psi><psi|] for a batch of unit vectors."""
    proj = psi[:, :, None] * psi[:, None, :].conj()
    vecs = proj.transpose(0, 2, 1).reshape(psi.shape[0], d * d)
    imgs = (vecs @ l_mat.T).reshape(psi.shape[0], d, d).transpose(0, 2, 1)
    return (imgs + imgs.conj().transpose(0, 2, 1)) / 2


def _evaluate(l_mat: np.ndarray, xs: np.ndarray, restricted: bool):
    """Inner minimum over phi at a batch of rows x, psi = (x[:d] + i x[d:]) / |x|.

    One batched eigh of M = herm L[|psi><psi|] gives the value and the
    minimizing phi; when restricted, M is compressed to the complement of
    psi and psi is shifted above the spectrum instead of building a basis.
    By the envelope theorem the gradient is L^dag[|phi><phi|] psi, less
    phi <phi|M|psi> for the constraint <phi|psi> = 0 when restricted; it is
    returned in x coordinates.  Returns (values, gradients, phi).
    """
    d = xs.shape[1] // 2
    raw = xs[:, :d] + 1j * xs[:, d:]
    r = np.linalg.norm(raw, axis=1, keepdims=True)
    psi = raw / r
    m = _batch_images(l_mat, psi, d)
    if restricted:
        proj = psi[:, :, None] * psi[:, None, :].conj()
        comp = np.eye(d) - proj
        shift = 1.0 + 2.0 * np.linalg.norm(m, axis=(-2, -1))
        w, v = np.linalg.eigh(comp @ m @ comp + shift[:, None, None] * proj)
    else:
        w, v = np.linalg.eigh(m)
    phi = v[:, :, 0]
    g = np.einsum("nij,nj->ni", _batch_images(l_mat.conj().T, phi, d), psi)
    if restricted:
        g -= phi * np.einsum("ni,nij,nj->n", phi.conj(), m, psi)[:, None]
    g = 2.0 * (g - psi * np.einsum("ni,ni->n", psi.conj(), g).real[:, None]) / r
    return w[:, 0], np.concatenate([g.real, g.imag], axis=1), phi


def _spread(start_values: np.ndarray, k: int = 5) -> float:
    top = np.sort(start_values)[: min(k, start_values.size)]
    return float(top[-1] - top[0])


def _search(l_mat: np.ndarray, functional, restricted: bool, budget: int, seed: int,
            choi_min_eig: float | None = None) -> PositivityVerdict:
    """Minimize the inner minimum over psi on the unit sphere and decide.

    All starts (start s drawn with seed + s) descend in lockstep, one
    batched evaluation per stage.  A start grows its step by 1.5 (at most
    1) on an accepted trial and halves it on a rejected one; it stops when
    the step falls below 1e-12, the gradient vanishes or it has taken
    ``SEARCH_MAX_ITER`` steps.  Once any start falls below -1e-8 only the
    lowest one goes on.  A violation is re-validated by ``functional``;
    otherwise the spread of the best starts decides.
    """
    d = int(round(np.sqrt(l_mat.shape[0])))
    x = np.array([np.random.default_rng(seed + s).normal(size=2 * d) for s in range(budget)])
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    val, grad, phi = _evaluate(l_mat, x, restricted)
    step = np.full(budget, 0.25)
    taken = np.zeros(budget, dtype=int)
    live = np.linalg.norm(grad, axis=1) >= 1e-12
    while True:
        if np.any(val < -1e-8):
            live &= np.arange(budget) == np.argmin(val)
        if not live.any():
            break
        idx = np.flatnonzero(live)
        # the gradient is orthogonal to x, so the trial row never vanishes
        xn = x[idx] - step[idx, None] * grad[idx]
        xn /= np.linalg.norm(xn, axis=1, keepdims=True)
        vn, gn, pn = _evaluate(l_mat, xn, restricted)
        ok = vn < val[idx] - 1e-15
        acc, rej = idx[ok], idx[~ok]
        x[acc], val[acc], grad[acc], phi[acc] = xn[ok], vn[ok], gn[ok], pn[ok]
        step[acc] = np.minimum(step[acc] * 1.5, 1.0)
        taken[acc] += 1
        live[acc] = (taken[acc] < SEARCH_MAX_ITER) & (np.linalg.norm(gn[ok], axis=1) >= 1e-12)
        step[rej] /= 2
        live[rej] = step[rej] >= 1e-12

    best = int(np.argmin(val))
    if val[best] < -PSD_SLACK:
        psi = x[best, :d] + 1j * x[best, d:]
        value = functional(psi, phi[best])
        if value < -PSD_SLACK:
            return PositivityVerdict(
                status=STATUS_NOT_POSITIVE,
                min_value=value,
                pair=(psi, phi[best]),
                start_values=val,
                choi_min_eig=choi_min_eig,
            )
    spread = _spread(val)
    status, reason = STATUS_POSITIVE_NOT_CP, None
    if spread > SPREAD_TOL:
        status = STATUS_UNDETERMINED
        reason = f"the best starts disagree by {spread:.3e} > {SPREAD_TOL:.0e}"
    return PositivityVerdict(
        status=status,
        min_value=float(val[best]),
        start_values=val,
        spread=spread,
        choi_min_eig=choi_min_eig,
        reason=reason,
    )


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise PreconditionError(f"budget must be >= 1, got {budget}")


# Column-stacked Pauli matrices: Tr(sigma_j X) = vec(sigma_j)^dag vec(X).
_PAULI_VECS = np.stack([s.T.reshape(-1) for s in SIGMA], axis=1)


def _sphere_minimum(q: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float]:
    """Global minimizer of n^T q n + g^T n over |n| = 1, with a lower bound.

    In the eigenbasis q = U diag(lam) U^T, with b = U^T g / 2, w = lam - lam[0]
    and s = lam[0] - mu >= 0 for the multiplier mu, a minimizer has
    y_i = -b_i / (w_i + s) where |y(s)| = 1 (More & Sorensen, SIAM J. Sci.
    Stat. Comput. 1983).  1/|y(s)| is concave and increasing in s, so Newton's
    method from the lower bound s >= max_i (|b_i| - w_i) converges
    monotonically.  In the hard case |y(0)| < 1 and s = 0; the remaining norm
    goes along the lowest eigenvector.  The Lagrangian dual value
    lam[0] - s - sum_i b_i^2 / (w_i + s) bounds the minimum from below and
    is returned with the minimizer.
    """
    lam, u = np.linalg.eigh(q)
    b = u.T @ g / 2
    w = lam - lam[0]
    s = max(0.0, float(np.max(np.abs(b) - w)))

    def solve(s):
        den = w + s
        return np.divide(-b, den, out=np.zeros_like(b), where=den > 0), den

    y, den = solve(s)
    r = float(np.linalg.norm(y))
    for _ in range(100):
        if r <= 1.0 + 1e-15:
            break
        curve = float(np.sum(np.divide(b * b, den**3, out=np.zeros_like(b), where=den > 0)))
        step = (r - 1.0) * r * r / curve
        s += step
        y, den = solve(s)
        r = float(np.linalg.norm(y))
        if step <= 1e-15 * s:
            break
    if s == 0.0 and r < 1.0:
        y[0] = np.sqrt(1.0 - r * r)
    bound = lam[0] - s - float(np.sum(np.divide(b * b, den, out=np.zeros_like(b), where=den > 0)))
    n = u @ y
    return n / np.linalg.norm(n), bound


def _qubit_check(gen: Generator, proved_cp: bool) -> PositivityVerdict | None:
    """Exact verdict for a qubit generator, or None if the bound fails.

    With P = (1 + n.sigma)/2, psi spans the range of P and phi that of
    1 - P, so f = Tr((1 - P) L(P)) = n^T Q n + g^T n for M_jk = Tr(sigma_j L(sigma_k)),
    Q = -sym(M[1:, 1:]) / 4 and g = -M[1:, 0] / 4 (row 0 of M vanishes by
    trace preservation).  The value at the minimizer is re-validated by
    ``gksl.positivity_functional``; a positive verdict also needs the dual
    lower bound within the slack.
    """
    m = (_PAULI_VECS.conj().T @ gen.full @ _PAULI_VECS).real
    q = -(m[1:, 1:] + m[1:, 1:].T) / 8
    n, bound = _sphere_minimum(q, -m[1:, 0] / 4)
    _, v = np.linalg.eigh(np.tensordot(n, np.array(SIGMA[1:]), axes=1))
    psi, phi = v[:, 1], v[:, 0]
    value = gksl.positivity_functional(gen, psi, phi)
    if value < -PSD_SLACK:
        return PositivityVerdict(status=STATUS_NOT_POSITIVE, min_value=value, pair=(psi, phi),
                                 proof=PROOF_TRUST_REGION)
    if bound < -PSD_SLACK * max(1.0, float(np.abs(m).max())):
        return None
    if proved_cp:
        return PositivityVerdict(status=STATUS_CP, min_value=value, spread=0.0,
                                 proof=PROOF_KOSSAKOWSKI_PSD)
    return PositivityVerdict(status=STATUS_POSITIVE_NOT_CP, min_value=value, spread=0.0,
                             proof=PROOF_TRUST_REGION)


def _certifies(j: np.ndarray, cert) -> bool:
    """Re-verify a decomposition certificate: PSD blocks that reassemble J."""
    d = int(round(np.sqrt(j.shape[0])))
    residual = float(np.linalg.norm(j - cert.j1 - matcore._partial_transpose(cert.j2, d, d)))
    return (matcore.is_psd(cert.j1)[0] and matcore.is_psd(cert.j2)[0]
            and residual <= FEASIBILITY_TOL)


def kossakowski_positivity_check(gen: Generator, budget: int = DEFAULT_BUDGET,
                                 seed: int = DEFAULT_SEED) -> PositivityVerdict:
    """Decide positivity of the generated semigroup from the orthogonal-pair
    functional of the generator.

    A qubit generator that is not a product is decided exactly: the minimum
    of f over the Bloch sphere is a trust-region subproblem, its minimizer
    gives the pair, and the verdict is NotPositive (re-validated pair) or
    positive, proved by the dual bound; with C PSD it is CompletelyPositive
    and keeps that exact minimum.  Any other generator whose Kossakowski
    matrix C is PSD is CompletelyPositive at once (f = w C w^dag >= 0), with
    ``min_value`` 0, the lower bound that proof gives, and no search; so is
    a product whose factors all have a PSD C.

    The rest are searched: each start draws psi uniformly on the unit
    sphere; the inner problem over phi is solved exactly as the minimal
    eigenvalue of L[|psi><psi|] compressed to the orthogonal complement of
    psi, and all starts run projected gradient descent in lockstep on the
    outer problem with the exact (envelope) gradient.  A NotPositive verdict
    always carries a re-validated pair; otherwise the verdict is
    PositiveNotCP, or Undetermined when the best starts disagree by more
    than the spread tolerance.
    """
    _check_budget(budget)
    proved_cp = _proved_cp(gen)
    if gen.dim == 2 and gen.factors is None:
        verdict = _qubit_check(gen, proved_cp)
        if verdict is not None:
            return verdict
    if proved_cp:
        return PositivityVerdict(status=STATUS_CP, min_value=0.0, proof=PROOF_KOSSAKOWSKI_PSD)
    return _search(gen.full, partial(gksl.positivity_functional, gen), True, budget, seed)


def _proved_cp(gen: Generator) -> bool:
    """C >= 0 proves the semigroup CP; a product is CP when every factor is
    (exp(t L1) (x) exp(t L2) of CP maps), checked through nested products."""
    if gen.factors is not None:
        return all(_proved_cp(g) for g in gen.factors)
    return gen.spec is not None and matcore.is_psd(gen.spec.c_matrix)[0]


def map_positivity_check(s, budget: int = 16, seed: int = DEFAULT_SEED) -> PositivityVerdict:
    """Decide positivity of a single map by minimizing the smallest
    eigenvalue of S[|psi><psi|] over pure states (no orthogonality here:
    a map is positive iff these images are all PSD).

    CP maps short-circuit through the Choi check.  On M_2 every positive map
    is decomposable (Woronowicz, Rep. Math. Phys. 1976), so the
    decomposability solver decides: a re-verified certificate proves
    positivity, and a witness proves the map is not positive, after which
    the search must supply a violating pair or the verdict is Undetermined.
    """
    return _map_check(s, budget, seed)[0]


def _map_check(s, budget: int, seed: int):
    """:func:`map_positivity_check`, also returning the decomposability
    result of the qubit route (None where that route did not run)."""
    _check_budget(budget)
    sm = as_cmatrix(s)
    j = as_hermitian(choi(sm))
    cp = _cp_verdict(j)
    if cp.is_cp:
        return cp, None
    result = witnessed = None
    if sm.shape == (4, 4):
        from . import decomp  # decomp imports this module

        result = decomp.decomposability_feasibility(j)
        if result.status == decomp.FEASIBLE and _certifies(j, result.certificate):
            return PositivityVerdict(status=STATUS_POSITIVE_NOT_CP, min_value=0.0,
                                     choi_min_eig=cp.choi_min_eig,
                                     proof=PROOF_DECOMPOSITION), result
        if result.status == decomp.INFEASIBLE_WITNESSED:
            witnessed = result.pairing
    verdict = _search(sm, partial(gksl.map_functional, sm), False, budget, seed,
                      choi_min_eig=cp.choi_min_eig)
    if witnessed is not None and verdict.status != STATUS_NOT_POSITIVE:
        verdict.status = STATUS_UNDETERMINED
        verdict.reason = (f"a PPT witness (pairing {witnessed:.3e}) proves the qubit map is not "
                          "positive, but the search found no violating pair")
    return verdict, result


def qubit_positivity_conditions(c1: float, c2: float, c3: float) -> bool:
    """Closed-form qubit test: positive semigroup iff all pairwise sums of
    the (diagonal, real) Kossakowski coefficients are nonnegative."""
    return c1 + c2 >= 0 and c2 + c3 >= 0 and c1 + c3 >= 0


@dataclass
class ProductConditionReport:
    """Result of the necessary spectral test for product-semigroup positivity."""

    combined: np.ndarray
    min_eigenvalue: float
    v_matrix: np.ndarray
    necessary_ok: bool
    sufficient_ok: bool | None = None


def product_positivity_necessary(
    c1, c2, basis: HermitianBasis, v
) -> ProductConditionReport:
    """Necessary condition for positivity of a product semigroup: for any
    unitary V, the matrix ``C1 + R^T C2 R`` must be PSD, where R is the
    rotation V induces on the traceless basis sector."""
    c1m = as_hermitian(c1)
    c2m = as_hermitian(c2)
    r = gksl.basis_rotation_matrix(v, basis)
    combined = as_hermitian(c1m + r.T @ c2m @ r)
    ok, lmin = matcore.is_psd(combined)
    return ProductConditionReport(
        combined=combined,
        min_eigenvalue=lmin,
        v_matrix=as_cmatrix(v),
        necessary_ok=ok,
    )


def product_positivity_sufficient(c1, c2) -> bool:
    """Sufficient condition for positivity of a product semigroup with both
    coefficient matrices diagonal: with at most one negative rate, in the
    second factor only, every other rate must dominate its magnitude."""
    a1 = np.asarray(c1, dtype=float)
    a2 = np.asarray(c2, dtype=float)
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

    Both triples must individually pass the closed-form qubit test.
    """
    a1 = np.asarray(c1, dtype=float)
    a2 = np.asarray(c2, dtype=float)
    if a1.shape != (3,) or a2.shape != (3,):
        raise ShapeError("expected two triples of real rates")
    for name, a in (("first", a1), ("second", a2)):
        if not qubit_positivity_conditions(*a):
            raise PreconditionError(f"{name} factor is not a positive semigroup")
    return bool(np.all(a1[:, None] + a2[None, :] >= 0))
