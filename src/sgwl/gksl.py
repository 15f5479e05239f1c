"""Hermitian operator bases, Kossakowski-form generators and their semigroups.

A generator acting on ``M_d`` is stored as a dense ``d^2 x d^2`` matrix on
column-stacked vectorized operators.  It is assembled from a Hamiltonian
``H``, a Hermitian coefficient matrix ``C`` (the Kossakowski matrix) and an
orthonormal Hermitian basis ``{F_0 = 1/sqrt(d), F_1, ..., F_{d^2-1}}`` as

    L[rho] = -i [H, rho] + sum_ab C[a,b] (F_a rho F_b - (1/2){F_b F_a, rho})

with the double-operator sum running over the traceless elements only.  The
noise part ``N[rho] = sum_ab C[a,b] F_a rho F_b`` and the remaining
pseudo-Hamiltonian part are kept separately; they always recompose to the
full generator exactly.  A product generator ``L1 (x) id + id (x) L2`` keeps
its two factors and is evolved factor by factor, both in one stacked
exponential.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import matcore
from .matcore import (
    DomainError,
    PreconditionError,
    ShapeError,
    as_cmatrix,
    as_hermitian,
    devectorize,
    vectorize,
)

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
ORTHONORMALITY_TOL = 1e-10  # on |<phi|psi>| of a pair and |V V^dag - 1| of a unitary
# Trace-preservation gate on exp(t L).  Scaling and squaring loses about
# 1e-16 * ||t L||_1 of trace: 8e-11 at t = 1e6 for the depolarizing qubit,
# 1.2e-7 at t = 1e9, 0.14 at t = 1e15.  1e-8, the FEASIBILITY_TOL scale at
# which certificates are checked, admits ||t L|| up to about 1e8 and rejects
# elements whose error would reach the verdicts built on them.
TRACE_PRESERVATION_TOL = 1e-8


@dataclass(frozen=True)
class HermitianBasis:
    """Orthonormal Hermitian basis of M_d with the identity element first.

    ``elements[0]`` is ``1/sqrt(d)``; the remaining ``d^2 - 1`` elements are
    traceless.  Orthonormality is in the Hilbert-Schmidt inner product.
    """

    dim: int
    elements: tuple[np.ndarray, ...]

    def traceless(self) -> tuple[np.ndarray, ...]:
        return self.elements[1:]


def pauli_basis() -> HermitianBasis:
    """The qubit basis (1, sigma_1, sigma_2, sigma_3)/sqrt(2).

    This is ``gell_mann_basis(2)``: the same shared, read-only object.
    """
    return gell_mann_basis(2)


@cache
def gell_mann_basis(d: int) -> HermitianBasis:
    """Generalized Gell-Mann basis in (symmetric, antisymmetric, diagonal) order.

    For d = 2 this is the Pauli basis.  Built once per dimension: every call
    with the same ``d`` returns the same object, and its element arrays are
    read-only, so a caller that needs to modify one must copy it first.
    """
    if d < 2:
        raise DomainError(f"basis dimension must be >= 2, got {d}")
    elems = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            elems.append(m / np.sqrt(2))
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j
            m[k, j] = 1j
            elems.append(m / np.sqrt(2))
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for i in range(l):
            m[i, i] = 1.0
        m[l, l] = -l
        elems.append(m / np.sqrt(l * (l + 1)))
    for m in elems:
        m.setflags(write=False)
    return HermitianBasis(d, tuple(elems))


def standard_basis(d: int) -> HermitianBasis:
    return gell_mann_basis(d)


@dataclass(frozen=True)
class KossakowskiSpec:
    """Input data for a generator: dimension, Hamiltonian, Kossakowski matrix.

    ``c_matrix`` is ``(d^2-1) x (d^2-1)`` Hermitian, indexed by the traceless
    basis elements in the basis' fixed order.
    """

    dim: int
    hamiltonian: np.ndarray
    c_matrix: np.ndarray
    basis: HermitianBasis
    label: str = ""

    def __post_init__(self):
        h = as_hermitian(self.hamiltonian)
        c = as_hermitian(self.c_matrix)
        if h.shape != (self.dim, self.dim):
            raise ShapeError(f"Hamiltonian must be {self.dim}x{self.dim}, got {h.shape}")
        n = self.dim * self.dim - 1
        if c.shape != (n, n):
            raise ShapeError(f"Kossakowski matrix must be {n}x{n}, got {c.shape}")
        if self.basis.dim != self.dim:
            raise ShapeError(
                f"basis dimension {self.basis.dim} does not match spec dimension {self.dim}"
            )
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "c_matrix", c)


def qubit_spec(c_matrix, hamiltonian=None, label: str = "") -> KossakowskiSpec:
    """Convenience constructor for d = 2 specs in the Pauli basis."""
    h = np.zeros((2, 2), dtype=complex) if hamiltonian is None else hamiltonian
    return KossakowskiSpec(2, h, np.asarray(c_matrix, dtype=complex), pauli_basis(), label)


@dataclass(frozen=True)
class Generator:
    """Assembled generator: full = noise + pseudo_h, all d^2 x d^2 matrices.

    ``k_matrix`` is the d x d matrix ``K = sum_ab C[a,b] F_b^dag F_a`` of the
    anticommutator term.  ``spec`` is the data a generator was built from.
    ``factors`` is set on a product generator ``L1 (x) id + id (x) L2`` and
    holds ``(L1, L2)``; :func:`evolve` then works factor by factor.
    """

    dim: int
    full: np.ndarray
    noise: np.ndarray
    pseudo_h: np.ndarray
    k_matrix: np.ndarray
    spec: KossakowskiSpec | None = field(default=None, compare=False)
    factors: tuple[Generator, Generator] | None = field(default=None, compare=False)


def apply_superop(s, x) -> np.ndarray:
    """Action of a vectorized-operator matrix on an operator."""
    sm = as_cmatrix(s)
    xm = as_cmatrix(x)
    d = xm.shape[0]
    if sm.shape != (d * d, d * d):
        raise ShapeError(f"superoperator {sm.shape} does not act on {d}x{d} matrices")
    return devectorize(sm @ vectorize(xm), d)


def identity_superop(d: int) -> np.ndarray:
    return np.eye(d * d, dtype=complex)


def transpose_superop(d: int) -> np.ndarray:
    """The map X -> X^T in the computational basis (a permutation matrix)."""
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s.astype(complex)


def trace_to_identity_superop(d: int) -> np.ndarray:
    """The map X -> Tr(X) * identity (completely positive, trace-scaling)."""
    v = vectorize(np.eye(d, dtype=complex))
    return np.outer(v, v.conj())


def conjugation_superop(a, b) -> np.ndarray:
    """Superoperator of X -> A X B, i.e. kron(B.T, A) on stacked columns."""
    am = as_cmatrix(a)
    bm = as_cmatrix(b)
    return np.kron(bm.T, am)


def kron_superop(sa, sb, da: int, db: int) -> np.ndarray:
    """Lift two maps to the map ``Lambda_A (x) Lambda_B`` on M_{da*db}.

    The result acts on vectorized operators of the composite system whose
    computational basis is the Kronecker basis ``|a> (x) |i>``.
    """
    sam = as_cmatrix(sa)
    sbm = as_cmatrix(sb)
    if sam.shape != (da * da, da * da) or sbm.shape != (db * db, db * db):
        raise ShapeError("factor superoperators do not match the stated dimensions")
    return _kron_superop(sam, sbm, da, db)


def _kron_superop(sa: np.ndarray, sb: np.ndarray, da: int, db: int) -> np.ndarray:
    """:func:`kron_superop` on trusted arrays of the stated shapes."""
    dd = da * db
    # A vec index on a factor is (column, row); the composite's is
    # (column on A, column on B, row on A, row on B), for outputs and inputs.
    a = sa.reshape(da, 1, da, 1, da, 1, da, 1)
    b = sb.reshape(1, db, 1, db, 1, db, 1, db)
    return (a * b).reshape(dd * dd, dd * dd)


def build_generator(spec: KossakowskiSpec) -> Generator:
    """Assemble full, noise and pseudo-Hamiltonian superoperators from a spec.

    One contraction over the stacked traceless basis F: with
    ``X_b = sum_a C[a,b] F_a``, the noise part is
    ``sum_b kron(conj(F_b), X_b)`` (the superoperator of
    ``rho -> sum_b X_b rho F_b^dag``) and ``K = sum_b F_b^dag X_b``.  The
    spec's H and C were validated when it was made, so nothing is checked
    again here.
    """
    d = spec.dim
    fs = np.asarray(spec.basis.traceless())
    x = np.tensordot(spec.c_matrix, fs, axes=(0, 0))
    noise = np.einsum("bij,bkl->ikjl", fs.conj(), x).reshape(d * d, d * d)
    k = np.einsum("bji,bjk->ik", fs.conj(), x)
    # -i[H, rho] - {K, rho}/2 = G rho + rho G' with G = -iH - K/2, G' = iH - K/2
    ident = np.eye(d)
    h = spec.hamiltonian
    pseudo = np.kron(ident, -1j * h - 0.5 * k) + np.kron((1j * h - 0.5 * k).T, ident)
    return Generator(d, noise + pseudo, noise, pseudo, k, spec)


def product_generator(g1: Generator, g2: Generator) -> Generator:
    """Generator of the product semigroup, ``L1 (x) id + id (x) L2``.

    The dense d^4 x d^4 parts are assembled, and the two factors are kept in
    ``factors`` so that :func:`evolve` can use
    ``exp(t (L1 (x) id + id (x) L2)) = exp(t L1) (x) exp(t L2)``.
    """
    if g1.dim != g2.dim:
        raise ShapeError(f"factor dimensions differ: {g1.dim} vs {g2.dim}")
    d = g1.dim
    ident = identity_superop(d)
    noise = _kron_superop(g1.noise, ident, d, d) + _kron_superop(ident, g2.noise, d, d)
    pseudo = _kron_superop(g1.pseudo_h, ident, d, d) + _kron_superop(ident, g2.pseudo_h, d, d)
    k = np.kron(g1.k_matrix, np.eye(d)) + np.kron(np.eye(d), g2.k_matrix)
    return Generator(d * d, noise + pseudo, noise, pseudo, k, None, (g1, g2))


def evolve(gen: Generator, t: float) -> np.ndarray:
    """Semigroup element exp(t L) as a superoperator matrix.

    ``t`` must be finite and nonnegative, and so must every entry of t L
    (``DomainError``).  A product generator is evolved factor by factor,
    ``exp(t L1) (x) exp(t L2)``, with both factors' dense ``full`` matrices
    exponentiated in one stacked call; any other generator by one dense
    matrix exponential.  Every generator built here is trace preserving, so
    each exponential is checked for finite entries and for trace
    preservation within ``TRACE_PRESERVATION_TOL``; one that fails, as
    scaling and squaring does at huge ``t``, raises ``NumericalError``.
    """
    if not 0.0 <= t < np.inf:
        raise DomainError(f"evolution time t must be finite and nonnegative, got {t}")
    with np.errstate(all="ignore"):
        if gen.factors is None:
            s = matcore.expm(t * gen.full)
            _check_trace_preserving(s[None], gen.dim, t)
            return s
        g1, g2 = gen.factors
        pair = matcore._expm(t * np.stack((g1.full, g2.full)))
        _check_trace_preserving(pair, g1.dim, t)
    return _kron_superop(pair[0], pair[1], g1.dim, g2.dim)


def _check_trace_preserving(stack: np.ndarray, d: int, t: float) -> None:
    """Raise ``NumericalError`` unless every map in a ``(k, d^2, d^2)`` stack
    has finite entries and preserves the trace within the tolerance.

    Trace preservation reads ``vec(1)^dag S = vec(1)^dag``: the rows of S at
    the diagonal positions ``i*(d+1)`` must sum to ``vec(1)``.
    """
    if not np.isfinite(stack).all():
        fault = "has non-finite entries"
    else:
        dev = np.abs(stack[:, :: d + 1, :].sum(axis=1) - np.eye(d).reshape(-1)).max()
        if dev <= TRACE_PRESERVATION_TOL:
            return
        fault = f"misses trace preservation by {dev:.3e} > {TRACE_PRESERVATION_TOL:.0e}"
    raise matcore.NumericalError(
        f"exp(t L) at t = {t!r} {fault}: t L is too large for the exponential"
    )


def _unit_pair(psi, phi):
    p = np.asarray(psi, dtype=complex).reshape(-1)
    q = np.asarray(phi, dtype=complex).reshape(-1)
    if p.shape != q.shape:
        raise ShapeError("psi and phi must have the same dimension")
    np_, nq = np.linalg.norm(p), np.linalg.norm(q)
    if np_ < 1e-14 or nq < 1e-14:
        raise PreconditionError("psi and phi must be nonzero")
    return p / np_, q / nq


def _orthonormalize_pair(psi, phi):
    p, q = _unit_pair(psi, phi)
    overlap = abs(np.vdot(p, q))
    if overlap > ORTHONORMALITY_TOL:
        raise PreconditionError(
            f"|<phi|psi>| = {overlap:.3e} exceeds tolerance {ORTHONORMALITY_TOL:.1e}")
    # optimizer iterates drift; remove the residual component exactly
    q = q - np.vdot(p, q) * p
    q = q / np.linalg.norm(q)
    return p, q


def positivity_functional(gen: Generator, psi, phi) -> float:
    """Re <phi| L[|psi><psi|] |phi> for an orthonormal pair (phi re-orthogonalized).

    Nonnegativity of this functional over all orthonormal pairs is exactly
    positivity of the generated semigroup for all times.
    """
    p, q = _orthonormalize_pair(psi, phi)
    if p.size != gen.dim:
        raise ShapeError(f"vectors of dimension {p.size} do not match generator dim {gen.dim}")
    m = apply_superop(gen.full, np.outer(p, p.conj()))
    val = np.vdot(q, m @ q)
    if abs(val.imag) > 1e-10:
        raise matcore.NumericalError(f"functional has imaginary part {val.imag:.3e}")
    return float(val.real)


def map_functional(s, psi, phi) -> float:
    """Re <phi| S[|psi><psi|] |phi> with no orthogonality requirement.

    Negativity for some pair proves the map S is not positive.
    """
    p, q = _unit_pair(psi, phi)
    m = apply_superop(s, np.outer(p, p.conj()))
    val = np.vdot(q, m @ q)
    if abs(val.imag) > 1e-10:
        raise matcore.NumericalError(f"functional has imaginary part {val.imag:.3e}")
    return float(val.real)


def basis_rotation_matrix(v, basis: HermitianBasis) -> np.ndarray:
    """Matrix R with ``V F_a V^{-1} = sum_b R[a,b] F_b`` over traceless elements.

    Requires unitary ``V`` so that the rotated elements stay Hermitian and
    traceless and R is real orthogonal.
    """
    vm = as_cmatrix(v)
    d = basis.dim
    if vm.shape != (d, d):
        raise ShapeError(f"V must be {d}x{d}, got {vm.shape}")
    if np.abs(vm @ vm.conj().T - np.eye(d)).max() > ORTHONORMALITY_TOL:
        raise PreconditionError(f"V must be unitary to tolerance {ORTHONORMALITY_TOL:.0e}")
    fs = np.asarray(basis.traceless())
    rot = vm @ fs @ vm.conj().T
    # R[a,b] = Tr(F_b^dag V F_a V^dag)
    return np.einsum("aji,bji->ab", rot, fs.conj()).real
