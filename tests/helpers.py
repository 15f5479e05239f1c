"""Shared helpers for the test suite: seeded random inputs and call counters."""

import numpy as np

from sgwl import decomp, gksl, matcore, posmap


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def random_hermitian(rng, n):
    a = random_complex(rng, n)
    return (a + a.conj().T) / 2


def random_density(rng, n):
    a = random_complex(rng, n)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_psd(rng, n, rank=None):
    a = random_complex(rng, n, rank or n)
    return a @ a.conj().T


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unit_vector(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_orthonormal_pair(rng, n):
    psi = random_unit_vector(rng, n)
    phi = random_unit_vector(rng, n)
    phi = phi - np.vdot(psi, phi) * psi
    return psi, phi / np.linalg.norm(phi)


def counting(fn):
    """Wrap ``fn``; the wrapper's ``calls`` attribute counts its calls."""
    def counted(*args, **kwargs):
        counted.calls += 1
        return fn(*args, **kwargs)

    counted.calls = 0
    return counted


def count_validations(monkeypatch, call):
    """Run ``call()`` with ``matcore.as_cmatrix`` counted in every module that
    imports it; return (number of calls, result)."""
    counted = counting(matcore.as_cmatrix)
    for module in (matcore, gksl, posmap, decomp):
        if hasattr(module, "as_cmatrix"):
            monkeypatch.setattr(module, "as_cmatrix", counted)
    result = call()
    return counted.calls, result
