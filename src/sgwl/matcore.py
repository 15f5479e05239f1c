"""Dense complex matrix kernel.

Everything downstream works on plain ``numpy.ndarray`` objects with
``complex128`` entries at its public boundaries; the trusted ``_`` cores
take real ``float64`` arrays too.  This module fixes the conventions the
rest of the package relies on:

* vectorization is column-stacking, so ``vec(A X B) == kron(B.T, A) @ vec(X)``;
* every accept/reject test applies one tolerance rule (``_tol``): ``tol`` for
  data of size at most 1, ``tol * size`` above, "size" being that of the data
  the tested value came from, so L and c L (c > 0) get the same verdicts
  while both sizes are at least 1 (the search's descent heuristics stay
  absolute);
* every integer argument (a dimension, an index, a count) passes one integer
  rule (``_int``): a Python or numpy integer, never a bool, within its
  bounds, or the caller's error naming the argument;
* Hermitian inputs are gated at ``HERMITICITY_TOL`` by the rule and symmetrized;
* a matrix counts as PSD when ``lmin >= -PSD_SLACK * max(1, ||X||_2)``, with
  ``||X||_2`` read off its spectrum; every PSD decision applies this one
  rule, a gated matrix's on the one path ``_is_psd`` (one ``eigvalsh``),
  and reports the raw minimum eigenvalue alongside the verdict;
* the matrix exponential is scaling-and-squaring with a fixed order-13
  diagonal Pade approximant, since a generator is non-normal in general and
  an eigendecomposition of a non-normal matrix is not safe.  ``expm``
  validates one matrix and hands it to a trusted core.  The one normal case
  is left to ``gksl``: a self-adjoint generator (H = 0, real C) is
  Hermitian, and ``gksl.evolve`` exponentiates it from its cached
  eigendecomposition (``Spectrum``) instead;
* every array-holding record of the package is a frozen dataclass compared by
  identity (``frozen=True, eq=False``: no field is reassigned, ``==`` is
  ``is`` and every record hashes), and an array that other objects cache or
  share is read-only, so a caller that needs to change one copies it.

All functions are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
EIG_RESIDUAL_TOL = 1e-10
PSD_SLACK = 1e-10
FEASIBILITY_TOL = 1e-8
MAX_DIM = 4096


class ShapeError(ValueError):
    """Matrix dimensions do not match the operation's contract."""


class SizeError(ValueError):
    """Requested dimensions exceed the configured maximum."""


class DomainError(ValueError):
    """Scalar argument outside its admissible range."""


class HermiticityError(ValueError):
    """Input failed the Hermiticity gate."""


class PreconditionError(ValueError):
    """A documented precondition on the inputs does not hold."""


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


def as_cmatrix(x) -> np.ndarray:
    """Validate and return a dense complex matrix (finite entries only)."""
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got ndim={a.ndim}")
    if a.size == 0:
        raise ShapeError(f"expected a non-empty matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite (no NaN/Inf)")
    if max(a.shape) > MAX_DIM:
        raise SizeError(f"dimension {max(a.shape)} exceeds maximum {MAX_DIM}")
    return a


def as_hermitian(x) -> np.ndarray:
    """Gate on Hermiticity and return the symmetrized matrix (X + X†)/2.

    Rejects inputs whose anti-Hermitian part exceeds ``HERMITICITY_TOL``
    relative to the largest entry; small asymmetries inside the gate are
    symmetrized away.
    """
    a = as_cmatrix(x)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"Hermitian matrix must be square, got {a.shape}")
    return _as_hermitian(a)


def _tol(tol: float, size: float) -> float:
    """The tolerance rule: ``tol`` up to size 1, ``tol * size`` above."""
    return tol * max(1.0, size)


def _int(value, name: str, low: int, high: int | None = None,
         error: type[ValueError] = DomainError) -> int:
    """The integer rule: a Python or numpy integer, not a bool, in ``[low, high]``
    (unbounded above without ``high``), returned as ``int``; anything else
    raises ``error`` naming the argument."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return int(value)
    span = f"an integer >= {low}" if high is None else f"one of the integers in {low}..{high}"
    raise error(f"{name} must be {span}, got {value!r}")


def _real(val: complex, what: str, *data: np.ndarray) -> float:
    """Real part of a value real in exact arithmetic; its imaginary part may reach
    1e-10 at the scale (product of largest entries) of the arrays it came from."""
    imag = abs(val.imag)
    if imag > 1e-10 and imag > _tol(1e-10, float(np.prod([np.abs(x).max() for x in data]))):
        raise NumericalError(f"{what} has imaginary part {val.imag:.3e}")
    return float(val.real)


def _as_hermitian(a: np.ndarray) -> np.ndarray:
    """:func:`as_hermitian` of a square array that already passed :func:`as_cmatrix`;
    an entry whose sum with its mirror overflows (it takes entries above half
    the float maximum) is halved before it is added, so every result is finite.
    Past half the float maximum the gate also reads A/2, halved exactly, since
    a modulus of A, and so its size and tolerance, may overflow there."""
    size = np.abs(a).max()
    near_max = not size <= sys.float_info.max / 2
    with np.errstate(over="ignore", invalid="ignore") if near_max else nullcontext():
        unit, g = (2.0, a / 2) if near_max else (1.0, a)
        g_size = np.abs(g).max() if near_max else size
        dev = np.abs(g - g.conj().T).max()
        if dev > _tol(HERMITICITY_TOL, g_size):
            raise HermiticityError(
                f"matrix is not Hermitian: max |X - X^dag| = {unit * dev:.3e} "
                f"exceeds {HERMITICITY_TOL:.1e} * {max(unit * g_size, 1.0):.3e}"
            )
        h = (a + a.conj().T) / 2
    if near_max:
        over = ~np.isfinite(h)
        h[over] = a[over] / 2 + a.conj().T[over] / 2
    return h


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(h) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix with a residual guarantee.

    Raises ``NumericalError`` when ``||H v_i - w_i v_i|| > EIG_RESIDUAL_TOL
    * ||H||`` for any eigenpair, or when the eigenvector matrix is not
    unitary to the same tolerance.
    """
    hm = as_hermitian(h)
    try:
        w, v = np.linalg.eigh(hm)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    # an independent scale: one read off the eigenvalues under test could hide their error
    scale = max(np.linalg.norm(hm, 2), 1e-300)
    resid = np.linalg.norm(hm @ v - v * w, axis=0).max()
    if resid > EIG_RESIDUAL_TOL * scale:
        raise NumericalError(
            f"eigenpair residual {resid:.3e} exceeds {EIG_RESIDUAL_TOL:.1e} * ||H||"
        )
    unit = np.abs(v.conj().T @ v - np.eye(hm.shape[0])).max()
    if unit > 1e-10:
        raise NumericalError(f"eigenvector matrix not unitary: deviation {unit:.3e}")
    return Spectrum(values=w, vectors=v)


def min_eigenvalue(h) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return _is_psd(as_hermitian(h))[1]


def is_psd(h) -> tuple[bool, float]:
    """PSD decision with relative slack; returns (verdict, raw min eigenvalue)."""
    return _is_psd(as_hermitian(h))


def _is_psd(hm: np.ndarray) -> tuple[bool, float]:
    """:func:`is_psd` of a matrix that already passed :func:`as_hermitian`:
    one ``eigvalsh``, its least eigenvalue read against :func:`_psd_bound`."""
    w = np.linalg.eigvalsh(hm)
    lmin = float(w[0])
    return lmin >= _psd_bound(w), lmin


def _psd_bound(w: np.ndarray) -> float:
    """Least eigenvalue a PSD matrix may show, given its ascending spectrum:
    ``-PSD_SLACK * max(1, ||X||_2)`` with ``||X||_2 = max(-w[0], w[-1])``."""
    return -_tol(PSD_SLACK, max(-float(w[0]), float(w[-1])))


def vectorize(x) -> np.ndarray:
    """Column-stacking vec: |i><j| goes to the basis vector at index j*d + i."""
    return as_cmatrix(x).T.reshape(-1)


def devectorize(v, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    vv = np.asarray(v, dtype=complex).reshape(-1)
    dim = int(round(np.sqrt(vv.size))) if dim is None else _int(dim, "dim", 1)
    if dim * dim != vv.size:
        raise ShapeError(f"vector of length {vv.size} is not a stacked {dim}x{dim} matrix")
    return vv.reshape(dim, dim).T


def partial_transpose(x, dim_a: int, dim_b: int, side: str = "A") -> np.ndarray:
    """Transpose one tensor factor in the computational product basis.

    ``side`` selects the factor ("A" is the first, ``dim_a``-dimensional
    one).  Involutive: applying it twice is the identity.
    """
    xm = as_cmatrix(x)
    dim_a, dim_b = _int(dim_a, "dim_a", 1), _int(dim_b, "dim_b", 1)
    n = dim_a * dim_b
    if xm.shape != (n, n):
        raise ShapeError(f"expected {n}x{n} matrix for dims ({dim_a},{dim_b}), got {xm.shape}")
    if side not in ("A", "B"):
        raise DomainError(f"side must be 'A' or 'B', got {side!r}")
    return _partial_transpose(xm, dim_a, dim_b, side)


def _partial_transpose(x: np.ndarray, dim_a: int, dim_b: int, side: str = "A") -> np.ndarray:
    """:func:`partial_transpose` on a trusted square array of the stated dims."""
    axes = (2, 1, 0, 3) if side == "A" else (0, 3, 2, 1)
    return x.reshape(dim_a, dim_b, dim_a, dim_b).transpose(axes).reshape(x.shape)


# Pade-13 coefficients and the scaling threshold theta_13 (Higham 2005).
_PADE13 = np.array(
    [
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0,
        40840800.0, 960960.0, 16380.0, 182.0, 1.0,
    ]
)
_THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the order-13 Pade core.

    Each squaring can double the rounding error, so the error of a result of
    unit size grows roughly like ``||A||_1 * 2^-53``: about 1e-8 at
    ``||A||_1 = 1e8``, 1e-3 at 1e13.  A result with a non-finite entry
    raises ``NumericalError``; an inaccurate or underflowed finite one is
    returned as computed.
    """
    am = as_cmatrix(a)
    if am.shape[0] != am.shape[1]:
        raise ShapeError(f"expm requires a square matrix, got {am.shape}")
    with np.errstate(all="ignore"):
        r = _expm(am)
    if not np.isfinite(r).all():
        raise NumericalError("matrix exponential has non-finite entries")
    return r


def _one_norms(stack: np.ndarray) -> np.ndarray:
    """1-norm of a trusted matrix, or of each matrix in a trusted stack.
    A 1-norm that overflows raises ``DomainError``."""
    with np.errstate(over="ignore"):
        norm1 = np.abs(stack).sum(axis=-2).max(axis=-1)
    top = float(norm1.max())
    if not np.isfinite(top):
        raise DomainError(f"matrix 1-norm is not finite: {top}")
    return norm1


def _expm(a: np.ndarray, norm1: float | None = None) -> np.ndarray:
    """:func:`expm` of a trusted square matrix: the Pade approximant of
    ``A / 2^s``, squared ``s`` times, with ``s`` the least number of halvings
    that brings the 1-norm to theta_13 (Higham 2005).  ``norm1`` takes the
    matrix's :func:`_one_norms` when the caller has it already; a 1-norm
    that overflows raises ``DomainError``.
    """
    if norm1 is None:
        norm1 = _one_norms(a)
    squarings = int(np.ceil(np.log2(max(norm1, _THETA13) / _THETA13)))
    r = _pade13(a / 2.0 ** squarings)
    for _ in range(squarings):
        r = r @ r
    return r


def _pade13(a: np.ndarray) -> np.ndarray:
    """Order-13 diagonal Pade approximant of exp, for 1-norms up to theta_13."""
    ident = np.eye(a.shape[-1], dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _PADE13
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) \
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    try:
        return np.linalg.solve(v - u, u + v)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Pade denominator is singular: {exc}") from exc
