"""Ground truth for the benchmark, written with numpy alone.

Every label a workload attaches to an input comes from here: closed-form
positivity conditions for qubit semigroups and their products, the
Cho-Kye-Lee decomposability criterion for the generalized Choi maps
Phi[a,b,c], the closed forms of the flagship two-qubit product family, and
an independent root of the delayed-CP onset equation.  The checks that
re-verify certificates and witnesses returned by ``sgwl`` live here too, so
a verdict is never judged by the code that produced it.
"""

from __future__ import annotations

import math

import numpy as np

T_STAR = math.log(3.0) / 2.0  # flagship decomposability threshold, a = exp(-2t) = 1/3
CERT_TOL = 1e-10  # PSD / PPT / preservation tolerance for re-verified objects
RESIDUAL_TOL = 1e-8  # assembly residual of a decomposition certificate


# --- qubit semigroups -------------------------------------------------------

def qubit_positive(rates) -> bool:
    """Diagonal qubit rates generate a positive semigroup iff every
    pairwise sum of rates is nonnegative."""
    c1, c2, c3 = (float(x) for x in rates)
    return c1 + c2 >= 0 and c2 + c3 >= 0 and c1 + c3 >= 0


def qubit_cp(rates) -> bool:
    return all(float(x) >= 0 for x in rates)


def qubit_product_positive(rates1, rates2) -> bool:
    """Product of two positive qubit semigroups is positive iff every cross
    sum of rates is nonnegative."""
    return all(float(x) + float(y) >= 0 for x in rates1 for y in rates2)


# --- generalized Choi maps on M_3 -------------------------------------------

def choi_map_positive(a: float, b: float, c: float) -> bool:
    """Phi[a,b,c] with b, c >= 0 is positive iff a >= 1, a + b + c >= 3 and,
    when a < 2, bc >= (2 - a)^2."""
    return a >= 1 and a + b + c >= 3 and (a >= 2 or b * c >= (2 - a) ** 2)


def choi_map_decomposable(a: float, b: float, c: float) -> bool:
    """Cho-Kye-Lee (Linear Algebra Appl. 1992): for 1 <= a <= 3 a positive
    Phi[a,b,c] is decomposable iff bc >= (3 - a)^2 / 4."""
    if not 1 <= a <= 3:
        raise ValueError(f"criterion stated for 1 <= a <= 3, got a = {a}")
    return b * c >= (3 - a) ** 2 / 4


def choi_map_superop(a: float, b: float, c: float) -> np.ndarray:
    """Column-stacked superoperator of
    Phi[a,b,c](X) = diag(a x11 + b x22 + c x33, c x11 + a x22 + b x33,
    b x11 + c x22 + a x33) - X."""
    mix = np.array([[a, b, c], [c, a, b], [b, c, a]], dtype=float)
    s = -np.eye(9, dtype=complex)
    for i in range(3):
        col = i * 3 + i  # vec index of |i><i|
        for k in range(3):
            s[k * 3 + k, col] += mix[k, i]
    return s


# --- the flagship product family ---------------------------------------------

def flagship_alpha(t: float) -> float:
    return math.exp(-2.0 * t)


def flagship_pairing(t: float) -> float:
    """Pairing of the flagship map with the bound-entangled state."""
    a = flagship_alpha(t)
    return (1 - a) * (1 - 3 * a) / 48


def flagship_choi_min(t: float) -> float:
    """Smallest eigenvalue of the flagship Choi matrix for t > 0: the largest
    depolarizing Choi eigenvalue times the negative transpose-mixing one."""
    a = flagship_alpha(t)
    return -(1 + 3 * a) * (1 - a) / 16


def flagship_superop(t: float) -> np.ndarray:
    """(a id + (1-a)/2 Tr) (x) ((1+a)/2 id + (1-a)/2 T) on M_4, a = exp(-2t)."""
    a = flagship_alpha(t)
    ident = np.eye(4, dtype=complex)
    v = np.eye(2, dtype=complex).T.reshape(-1)
    trace_map = np.outer(v, v)
    transpose = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            transpose[i * 2 + j, j * 2 + i] = 1.0
    first = a * ident + (1 - a) / 2 * trace_map
    second = (1 + a) / 2 * ident + (1 - a) / 2 * transpose
    return kron_superop(first, second, 2, 2)


# --- delayed complete positivity ---------------------------------------------

def onset_root(a: float, b: float, lo: float = 1e-6, hi: float = 50.0) -> float:
    """Root t > 0 of cosh(2bt) = exp(2(b-a)t) for 0 < a < b, by bisection
    in log form, to 1e-14."""
    if not 0 < a < b:
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")

    def g(t):
        # log cosh(x) = x + log1p(exp(-2x)) - log 2 avoids overflow
        x = 2 * b * t
        return x + math.log1p(math.exp(-2 * x)) - math.log(2.0) - 2 * (b - a) * t

    if not (g(lo) < 0 < g(hi)):
        raise ValueError("onset root is not bracketed")
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- linear algebra used by the re-verifications ------------------------------

def hermitian_part(x: np.ndarray) -> np.ndarray:
    return (x + x.conj().T) / 2


def min_eig(x: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitian_part(np.asarray(x, dtype=complex)))[0])


def choi(s: np.ndarray) -> np.ndarray:
    """Choi matrix of a column-stacked superoperator, normalized by d."""
    d = int(round(math.sqrt(s.shape[0])))
    return s.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d) / d


def partial_transpose_first(x: np.ndarray, d: int) -> np.ndarray:
    return x.reshape(d, d, d, d).transpose(2, 1, 0, 3).reshape(d * d, d * d)


def kron_superop(sa: np.ndarray, sb: np.ndarray, da: int, db: int) -> np.ndarray:
    """Superoperator of Lambda_A (x) Lambda_B on column-stacked M_{da*db}."""
    # out[(a,i),(b,j) -> (a',i'),(b',j')] = sa[(a,b),(a',b')] sb[(i,j),(i',j')]
    # with column stacking: vec index of |r><c| is c*dim + r.
    sa4 = sa.reshape(da, da, da, da)  # [col_b, row_a, col_b', row_a']
    sb4 = sb.reshape(db, db, db, db)
    big = np.einsum("bawv,jiyx->bjaiwyvx", sa4, sb4)
    n = (da * db) ** 2
    return big.reshape(n, n)


def trace_preservation_dev(s: np.ndarray) -> float:
    """max |vec(1)^T S - vec(1)^T|: zero iff Tr S(X) = Tr X for all X."""
    d = int(round(math.sqrt(s.shape[0])))
    v = np.eye(d, dtype=complex).T.reshape(-1)
    return float(np.abs(v @ s - v).max())


def hermiticity_preservation_dev(s: np.ndarray) -> float:
    """max |S(X^dag) - S(X)^dag| over matrix units X."""
    d = int(round(math.sqrt(s.shape[0])))
    perm = np.arange(d * d).reshape(d, d).T.reshape(-1)  # vec(X^T) = vec(X)[perm]
    # vec(X^dag) = conj(vec(X))[perm], so HP <=> S = P conj(S) P
    return float(np.abs(s - s.conj()[perm][:, perm]).max())


def generator_functional(l_mat: np.ndarray, psi: np.ndarray, phi: np.ndarray) -> float:
    """Re <phi| L[|psi><psi|] |phi> for a column-stacked superoperator L."""
    d = psi.size
    img = (l_mat @ np.outer(psi, psi.conj()).T.reshape(-1)).reshape(d, d).T
    return float(np.vdot(phi, img @ phi).real)
