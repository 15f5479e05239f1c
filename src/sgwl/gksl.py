"""Hermitian operator bases, Kossakowski-form generators and their semigroups.

A generator acting on ``M_d`` is a dense ``d^2 x d^2`` matrix on
column-stacked vectorized operators.  It is assembled from a Hamiltonian
``H``, a Hermitian coefficient matrix ``C`` (the Kossakowski matrix) and an
orthonormal Hermitian basis ``{F_0 = 1/sqrt(d), F_1, ..., F_{d^2-1}}`` as

    L[rho] = -i [H, rho] + sum_ab C[a,b] (F_a rho F_b - (1/2){F_b F_a, rho})

with the double-operator sum running over the traceless elements only.  The
noise part ``N[rho] = sum_ab C[a,b] F_a rho F_b`` and the remaining
pseudo-Hamiltonian part are built separately, each on first read; they
always recompose to the full generator exactly.  A product generator
``L1 (x) id + id (x) L2`` keeps its two factors and is evolved factor by
factor.  A factor with H = 0 and a real C is self-adjoint, a Hermitian
matrix, and is exponentiated from its eigendecomposition, cached on first
use; every other factor is non-normal in general and goes through the
scaling-and-squaring Pade exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

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
# Trace-preservation gate on exp(t L), at the scale of its largest entry.
# Scaling and squaring loses about 1e-16 * ||t L||_1 of trace on a map of
# unit size: 8e-11 at t = 1e6 for the depolarizing qubit, 1.2e-7 at 1e9, 0.14
# at 1e15.  1e-8, the FEASIBILITY_TOL scale at which certificates are checked,
# admits ||t L|| up to about 1e8 and rejects elements that would sway verdicts.
TRACE_PRESERVATION_TOL = 1e-8
TRACE_LOSS_PER_NORM = 1e-16  # the error model above, per unit of ||t L||_1


@dataclass(frozen=True, eq=False)
class HermitianBasis:
    """Orthonormal Hermitian basis of M_d with the identity element first.

    ``elements[0]`` is ``1/sqrt(d)``; the remaining ``d^2 - 1`` elements are
    traceless.  Orthonormality is in the Hilbert-Schmidt inner product.
    """

    dim: int
    elements: tuple[np.ndarray, ...]

    def traceless(self) -> tuple[np.ndarray, ...]:
        return self.elements[1:]

    @cached_property
    def _stacks(self) -> tuple[np.ndarray, np.ndarray]:
        """F_1..F_n flattened as an ``(n, d^2)`` stack, and their conjugates as
        an ``(n, d, d)`` stack; built on first use, read-only like the elements."""
        fs = np.asarray(self.traceless())
        stacks = (fs.reshape(fs.shape[0], -1), fs.conj())
        for m in stacks:
            m.setflags(write=False)
        return stacks


def pauli_basis() -> HermitianBasis:
    """The qubit basis (1, sigma_1, sigma_2, sigma_3)/sqrt(2).

    This is ``gell_mann_basis(2)``: the same shared, read-only object.
    """
    return gell_mann_basis(2)


def gell_mann_basis(d: int) -> HermitianBasis:
    """Generalized Gell-Mann basis in (symmetric, antisymmetric, diagonal) order.

    For d = 2 this is the Pauli basis.  Built once per dimension: every call
    with the same ``d`` returns the same object, and its element arrays are
    read-only, so a caller that needs to modify one must copy it first.
    ``d`` must be an integer >= 2 (``DomainError``), checked before the cache,
    which would take 2.0 for 2.
    """
    return _gell_mann_basis(matcore._int(d, "d", 2))


@cache
def _gell_mann_basis(d: int) -> HermitianBasis:
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


@dataclass(frozen=True, eq=False)
class KossakowskiSpec:
    """Input data for a generator: dimension, Hamiltonian, Kossakowski matrix.

    ``dim`` is an integer >= 2 (``DomainError``); ``c_matrix`` is
    ``(d^2-1) x (d^2-1)`` Hermitian, indexed by the traceless basis elements
    in the basis' fixed order.  H and C are stored symmetrized and read-only,
    since the generators built from a spec cache parts computed from them.
    """

    dim: int
    hamiltonian: np.ndarray
    c_matrix: np.ndarray
    basis: HermitianBasis
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dim", matcore._int(self.dim, "dim", 2))
        h = as_hermitian(self.hamiltonian)
        c = as_hermitian(self.c_matrix)
        check_spec_shapes(self.dim, h, c)
        if self.basis.dim != self.dim:
            raise ShapeError(
                f"basis dimension {self.basis.dim} does not match spec dimension {self.dim}"
            )
        object.__setattr__(self, "hamiltonian", _read_only(h))
        object.__setattr__(self, "c_matrix", _read_only(c))


def check_spec_shapes(dim: int, hamiltonian: np.ndarray, c_matrix: np.ndarray) -> None:
    """Raise ``ShapeError`` unless H is d x d and C is (d^2-1) x (d^2-1)."""
    for name, m, n in (("Hamiltonian", hamiltonian, dim),
                       ("Kossakowski matrix", c_matrix, dim * dim - 1)):
        if m.shape != (n, n):
            raise ShapeError(f"{name} must be {n}x{n}, got {m.shape}")


def qubit_spec(c_matrix, hamiltonian=None, label: str = "") -> KossakowskiSpec:
    """Convenience constructor for d = 2 specs in the Pauli basis."""
    h = np.zeros((2, 2), dtype=complex) if hamiltonian is None else hamiltonian
    return KossakowskiSpec(2, h, np.asarray(c_matrix, dtype=complex), pauli_basis(), label)


@dataclass(frozen=True, eq=False)
class Generator:
    """Generator of a semigroup, with parts full = noise + pseudo_h, all
    d^2 x d^2 matrices.

    A generator records only the data it comes from: ``spec``, the data it
    was built from, or ``factors``, set on a product generator
    ``L1 (x) id + id (x) L2`` to ``(L1, L2)``; :func:`evolve` then works
    factor by factor.  Each part is built from that data on first read,
    cached and read-only, like the basis stacks.  ``k_matrix`` is the d x d
    matrix ``K = sum_ab C[a,b] F_b^dag F_a`` of the anticommutator term, and
    ``spectrum`` the eigendecomposition of a self-adjoint ``full`` (None for
    any other generator), which :func:`evolve` reads.
    A positivity check reads C and ``noise`` only, so it never builds
    ``k_matrix``, ``pseudo_h``, ``full`` or ``spectrum``; a product builds its
    dense parts from its factors' parts, and only when a caller reads them.
    """

    dim: int
    spec: KossakowskiSpec | None = None
    factors: tuple[Generator, Generator] | None = None

    @cached_property
    def noise(self) -> np.ndarray:
        """``N[rho] = sum_ab C[a,b] F_a rho F_b``, or ``N1 (x) id + id (x) N2``.

        With ``X_b = sum_a C[a,b] F_a`` over the basis' cached traceless
        stack, N is ``sum_b kron(conj(F_b), X_b)`` (the superoperator of
        ``rho -> sum_b X_b rho F_b^dag``): one (d^2 x n)(n x d^2) product,
        ``conj(F)^T X``, read with its row and column indices reshuffled.
        """
        if self.factors is not None:
            return _lifted_sum(*(g.noise for g in self.factors))
        d = self.dim
        flat, conj = self.spec.basis._stacks
        noise = conj.reshape(flat.shape).T @ _weighted_stack(self.spec)
        noise = noise.reshape(d, d, d, d).transpose(0, 2, 1, 3)
        return _read_only(noise.reshape(d * d, d * d))

    @cached_property
    def k_matrix(self) -> np.ndarray:
        """``K = sum_b F_b^dag X_b``, a d x d contraction, or ``K1 (x) 1 + 1 (x) K2``."""
        if self.factors is not None:
            k1, k2 = (g.k_matrix for g in self.factors)
            ident = np.eye(self.factors[0].dim)
            return _read_only(np.kron(k1, ident) + np.kron(ident, k2))
        conj = self.spec.basis._stacks[1]
        return _read_only(np.einsum("bji,bjk->ik", conj,
                                    _weighted_stack(self.spec).reshape(conj.shape)))

    @cached_property
    def pseudo_h(self) -> np.ndarray:
        """``rho -> -i[H, rho] - {K, rho}/2`` as two broadcast products, or
        ``P1 (x) id + id (x) P2``."""
        if self.factors is not None:
            return _lifted_sum(*(g.pseudo_h for g in self.factors))
        d = self.dim
        # -i[H, rho] - {K, rho}/2 = G rho + rho G' with G = -iH - K/2, G' = iH - K/2:
        # kron(1, G) + kron(G'^T, 1), entry ((a, i), (b, j)) on column-stacked vectors
        ident = np.eye(d)
        h, k = self.spec.hamiltonian, self.k_matrix
        pseudo = (ident[:, None, :, None] * (-1j * h - 0.5 * k)[None, :, None, :]
                  + (1j * h - 0.5 * k).T[:, None, :, None] * ident[None, :, None, :])
        return _read_only(pseudo.reshape(d * d, d * d))

    @cached_property
    def full(self) -> np.ndarray:
        """The generator L = noise + pseudo_h."""
        return _read_only(self.noise + self.pseudo_h)

    @cached_property
    def spectrum(self) -> matcore.Spectrum | None:
        """Eigendecomposition of ``full`` when L is self-adjoint, else None.

        A spec with H = 0 and a real C gives a self-adjoint L in the
        Hilbert-Schmidt inner product: with Hermitian basis elements, its
        adjoint swaps C[a,b] for conj(C[b,a]) = C[a,b].  This is decided from
        the spec alone, with no tolerance.  A self-adjoint, trace-preserving
        L also fixes the identity, so ``vec(1)/sqrt(d)`` is an exact
        eigenvector for 0: it is kept exact, and ``eigh`` decomposes the
        real symmetric matrix ``Re <F_a, L F_b>`` over the traceless
        Gell-Mann elements, symmetrized, whose roundoff would otherwise put
        about 1e-16 * ||L|| on that eigenvalue and so on the trace of every
        ``exp(t L)``.  A product, or any other spec, gives None.
        """
        spec = self.spec
        if spec is None or spec.hamiltonian.any() or spec.c_matrix.imag.any():
            return None
        d = self.dim
        flat = gell_mann_basis(d)._stacks[0]  # rows conj(vec(F_a)), F_a Hermitian
        m = (flat @ self.full @ flat.conj().T).real
        try:
            w, v = np.linalg.eigh((m + m.T) / 2)
        except np.linalg.LinAlgError as exc:
            raise matcore.NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
        values = np.concatenate(([0.0], w))
        vectors = np.concatenate((np.eye(d).reshape(-1, 1) / np.sqrt(d), flat.conj().T @ v), axis=1)
        order = np.argsort(values, kind="stable")
        return matcore.Spectrum(_read_only(values[order]), _read_only(vectors[:, order]))


def _read_only(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def _weighted_stack(spec: KossakowskiSpec) -> np.ndarray:
    """``X_b = sum_a C[a,b] F_a`` flattened as an ``(n, d^2)`` stack."""
    return spec.c_matrix.T @ spec.basis._stacks[0]


def _lifted_sum(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """``S1 (x) id + id (x) S2``, read-only, for two superoperators on M_d."""
    d = math.isqrt(s1.shape[0])
    ident = identity_superop(d)
    return _read_only(_kron_superop(s1, ident, d, d) + _kron_superop(ident, s2, d, d))


def apply_superop(s, x) -> np.ndarray:
    """Action of a vectorized-operator matrix on an operator."""
    sm = as_cmatrix(s)
    xm = as_cmatrix(x)
    d = xm.shape[0]
    if sm.shape != (d * d, d * d):
        raise ShapeError(f"superoperator {sm.shape} does not act on {d}x{d} matrices")
    return devectorize(sm @ vectorize(xm), d)


def _side(d) -> int:
    """The integer rule for the d of a d^2 x d^2 matrix: ``SizeError`` above 64."""
    d = matcore._int(d, "d", 1)
    return matcore._int(d, "d", 1, math.isqrt(matcore.MAX_DIM), matcore.SizeError)


def identity_superop(d: int) -> np.ndarray:
    return np.eye(_side(d) ** 2, dtype=complex)


def transpose_superop(d: int) -> np.ndarray:
    """The map X -> X^T in the computational basis (a permutation matrix)."""
    d = _side(d)
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s.astype(complex)


def trace_to_identity_superop(d: int) -> np.ndarray:
    """The map X -> Tr(X) * identity (completely positive, trace-scaling)."""
    v = vectorize(np.eye(_side(d), dtype=complex))
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
    da, db = matcore._int(da, "da", 1), matcore._int(db, "db", 1)
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


def choi(s) -> np.ndarray:
    """Choi matrix of a map on M_d: the image of the maximally entangled
    projector under ``Lambda (x) id``, trace 1 for trace-preserving maps.

    With column-stacking this is an index reshuffle of the superoperator.
    """
    return _choi(as_cmatrix(s))


def _choi(sm: np.ndarray) -> np.ndarray:
    """:func:`choi` of an array that already passed :func:`as_cmatrix`."""
    d = int(round(np.sqrt(sm.shape[0])))
    if sm.shape != (d * d, d * d):
        raise ShapeError(f"superoperator must be d^2 x d^2, got {sm.shape}")
    return sm.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d) / d


def maximally_entangled_projector(d: int) -> np.ndarray:
    """Rank-one trace-one projector onto sum_i |ii>/sqrt(d), for an integer d in 1..64."""
    d = _side(d)
    v = vectorize(np.eye(d, dtype=complex)) / np.sqrt(d)
    return np.outer(v, v.conj())


def build_generator(spec: KossakowskiSpec) -> Generator:
    """The generator of a spec; its parts are built on first read.

    The spec's H and C were validated when it was made, so nothing is
    checked again here.
    """
    return Generator(spec.dim, spec)


def product_generator(g1: Generator, g2: Generator) -> Generator:
    """Generator of the product semigroup, ``L1 (x) id + id (x) L2``.

    The factors must have equal dimensions (``ShapeError``).  They are kept
    in ``factors``, so that :func:`evolve` can use
    ``exp(t (L1 (x) id + id (x) L2)) = exp(t L1) (x) exp(t L2)``; the dense
    d^4 x d^4 parts are assembled from the factors' parts only when read.
    """
    if g1.dim != g2.dim:
        raise ShapeError(f"factor dimensions differ: {g1.dim} vs {g2.dim}")
    return Generator(g1.dim * g1.dim, factors=(g1, g2))


def evolve(gen: Generator, t: float) -> np.ndarray:
    """Semigroup element exp(t L) as a superoperator matrix.

    ``t`` must be finite and nonnegative, and so must every entry of t L
    (``DomainError``).  A product generator is evolved factor by factor,
    ``exp(t L1) (x) exp(t L2)``; any other generator is its own one factor.
    Each factor takes one of two routes, chosen by its ``spectrum``: a
    self-adjoint factor is ``V exp(t Lambda) V^dag`` from its cached
    eigendecomposition, and every other factor goes through the
    scaling-and-squaring Pade core (``matcore._expm``), with the bits of an
    ``expm`` of it alone.  Every generator built here is trace preserving.

    Huge ``t`` is refused with ``NumericalError`` twice over, on both
    routes alike.  A priori, from the 1-norms of the factors' t L: once the
    error model ``TRACE_LOSS_PER_NORM * ||t L||_1`` of a factor passes
    ``TRACE_PRESERVATION_TOL``, that is from ``||t L||_1 > 1e8``, nothing is
    exponentiated.  The model bounds both routes: an eigenvalue w is found
    to within about 1e-16 * ||L||, which ``exp(t w)`` turns into an error of
    about 1e-16 * ||t L|| on a mode that does not decay (the identity's
    eigenvalue 0 is exact, so the trace is kept to roundoff).  A
    posteriori, each exponential is checked for finite entries and for
    trace preservation within ``TRACE_PRESERVATION_TOL`` relative to its
    largest entry.
    """
    if not 0.0 <= t < np.inf:
        raise DomainError(f"evolution time t must be finite and nonnegative, got {t}")
    parts = gen.factors or (gen,)
    d = parts[0].dim  # the factors of a product have equal dimensions
    with np.errstate(all="ignore"):
        stack = t * np.array([g.full for g in parts])
        norm1 = _gate(stack, t)
        maps = np.array([matcore._expm(m, n) if s is None
                         else (s.vectors * np.exp(t * s.values)) @ s.vectors.conj().T
                         for m, n, s in zip(stack, norm1, (g.spectrum for g in parts))])
        _check_trace_preserving(maps, d, t)
    return maps[0] if gen.factors is None else _kron_superop(*maps, d, d)


def _gate(stack: np.ndarray, t: float) -> np.ndarray:
    """The 1-norms of a stack of ``t L``, refused with ``NumericalError``
    when the error model, made for maps of unit size and so absolute, puts
    the trace loss of an exponential above ``TRACE_PRESERVATION_TOL``."""
    norm1 = matcore._one_norms(stack)
    loss = TRACE_LOSS_PER_NORM * float(norm1.max())
    if loss > TRACE_PRESERVATION_TOL:
        raise matcore.NumericalError(
            f"exp(t L) at t = {t!r} would lose about {loss:.1e} of trace "
            f"> {TRACE_PRESERVATION_TOL:.0e}: t L is too large for the exponential"
        )
    return norm1


def _check_trace_preserving(stack: np.ndarray, d: int, t: float) -> None:
    """Raise ``NumericalError`` unless every map in a ``(k, d^2, d^2)`` stack
    has finite entries and preserves the trace within the tolerance, scaled
    by the map's largest entry.

    Trace preservation reads ``vec(1)^dag S = vec(1)^dag``: the rows of S at
    the diagonal positions ``i*(d+1)`` must sum to ``vec(1)``.
    """
    fault = "has non-finite entries"
    if np.isfinite(stack).all():
        devs = np.abs(stack[:, :: d + 1, :].sum(axis=1) - np.eye(d).reshape(-1))
        if devs.max() <= TRACE_PRESERVATION_TOL:
            return
        bounds = [matcore._tol(TRACE_PRESERVATION_TOL, float(np.abs(s).max())) for s in stack]
        misses = [(dev, tol) for dev, tol in zip(devs.max(axis=1).tolist(), bounds) if dev > tol]
        if not misses:
            return
        fault = "misses trace preservation by {:.3e} > {:.3g}".format(*misses[0])
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
    positivity of the generated semigroup for all times.  It is evaluated
    on the noise part N: on an orthonormal pair the commutator and
    anticommutator terms of L vanish, so the value and its roundoff do not
    depend on H.
    """
    p, q = _orthonormalize_pair(psi, phi)
    if p.size != gen.dim:
        raise ShapeError(f"vectors of dimension {p.size} do not match generator dim {gen.dim}")
    return _functional(gen.noise, p, q)


def map_functional(s, psi, phi) -> float:
    """Re <phi| S[|psi><psi|] |phi> with no orthogonality requirement.

    Negativity for some pair proves the map S is not positive.
    """
    sm = as_cmatrix(s)
    p, q = _unit_pair(psi, phi)
    d = p.size
    if sm.shape != (d * d, d * d):
        raise ShapeError(f"superoperator {sm.shape} does not act on {d}x{d} matrices")
    return _functional(sm, p, q)


def _functional(s: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """Re <q| S[|p><p|] |q> for unit vectors and a trusted d^2 x d^2 S,
    checking the imaginary part at the scale of S."""
    d = p.size
    m = (s @ np.outer(p, p.conj()).T.reshape(-1)).reshape(d, d).T
    return matcore._real(np.vdot(q, m @ q), "functional", s)


def basis_rotation_matrix(v, basis: HermitianBasis) -> np.ndarray:
    """Matrix R with ``V F_a V^{-1} = sum_b R[a,b] F_b`` over traceless elements.

    Requires unitary ``V`` so that the rotated elements stay Hermitian and
    traceless and R is real orthogonal.
    """
    return _basis_rotation_matrix(as_cmatrix(v), basis)


def _basis_rotation_matrix(vm: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """:func:`basis_rotation_matrix` of a matrix that passed :func:`as_cmatrix`."""
    d = basis.dim
    if vm.shape != (d, d):
        raise ShapeError(f"V must be {d}x{d}, got {vm.shape}")
    if np.abs(vm @ vm.conj().T - np.eye(d)).max() > ORTHONORMALITY_TOL:
        raise PreconditionError(f"V must be unitary to tolerance {ORTHONORMALITY_TOL:.0e}")
    fs = np.asarray(basis.traceless())
    rot = vm @ fs @ vm.conj().T
    # R[a,b] = Tr(F_b^dag V F_a V^dag)
    return np.einsum("aji,bji->ab", rot, fs.conj()).real
