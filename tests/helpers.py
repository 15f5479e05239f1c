"""Shared helpers for the test suite: seeded random inputs, call counters and
the earlier formulations that faster code is checked against."""

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


def negative_definite_generator(rng, d, scale=1.0):
    """A d-level generator with a random H and the Kossakowski matrix
    -scale (A A^dag / n + 0.1), n = d^2 - 1: C < 0, so it is not positive."""
    n = d * d - 1
    a = random_complex(rng, n)
    c = -(a @ a.conj().T / n + 0.1 * np.eye(n))
    return gksl.build_generator(gksl.KossakowskiSpec(d, random_hermitian(rng, d), scale * c,
                                                     gksl.gell_mann_basis(d)))


def choi_map(a, b, c):
    """Superoperator of the generalized Choi map on M_3,
    Phi[a,b,c](X) = diag(a x11 + b x22 + c x33, c x11 + a x22 + b x33,
    b x11 + c x22 + a x33) - X."""
    mix = np.array([[a, b, c], [c, a, b], [b, c, a]], dtype=float)
    s = -np.eye(9, dtype=complex)
    for i in range(3):
        for k in range(3):
            s[4 * k, 4 * i] += mix[k, i]  # vec index of |k><k| is 4 k
    return s


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


def eigensolver_calls(monkeypatch, call):
    """Run ``call()`` with ``np.linalg.eigh`` and ``np.linalg.eigvalsh``
    recorded; return the name of the solver and the dtype of the matrix it
    received for each call, in call order, and the result."""
    calls = []

    def recording(name):
        fn = getattr(np.linalg, name)

        def recorded(a, *args, **kwargs):
            calls.append((name, np.asarray(a).dtype))
            return fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)

    recording("eigh")
    recording("eigvalsh")
    result = call()
    return calls, result


def count_eigensolvers(monkeypatch, call):
    """Run ``call()`` with ``np.linalg.eigh`` and ``np.linalg.eigvalsh``
    counted; return (eigh calls, eigvalsh calls, result)."""
    calls, result = eigensolver_calls(monkeypatch, call)
    names = [name for name, _ in calls]
    return names.count("eigh"), names.count("eigvalsh"), result


def reference_generator(spec):
    """``gksl.build_generator`` as it was before the cached basis stack: a
    4-index ``einsum`` for the noise part and two ``np.kron`` for the
    pseudo-Hamiltonian part."""
    d = spec.dim
    fs = np.asarray(spec.basis.traceless())
    x = np.tensordot(spec.c_matrix, fs, axes=(0, 0))
    noise = np.einsum("bij,bkl->ikjl", fs.conj(), x).reshape(d * d, d * d)
    k = np.einsum("bji,bjk->ik", fs.conj(), x)
    ident = np.eye(d)
    h = spec.hamiltonian
    pseudo = np.kron(ident, -1j * h - 0.5 * k) + np.kron((1j * h - 0.5 * k).T, ident)
    return generator_with_parts(d, noise, pseudo, k, spec)


def generator_with_parts(dim, noise, pseudo, k, spec=None, factors=None):
    """A ``gksl.Generator`` that carries the given, already assembled parts
    and ``full = noise + pseudo``.  A cached part is looked up in the
    instance dict first, so the arrays set there are the ones every reader
    gets, and ``gksl`` computes none of them."""
    gen = gksl.Generator(dim, spec, factors)
    vars(gen).update(full=noise + pseudo, noise=noise, pseudo_h=pseudo, k_matrix=k)
    return gen


PARTS = ("noise", "k_matrix", "pseudo_h", "full")


def built_parts(gen):
    """The names of the parts that ``gen`` and, through nested products,
    its factors have built so far."""
    built = {part for part in PARTS if part in vars(gen)}
    for factor in gen.factors or ():
        built |= built_parts(factor)
    return built


def eager_generator(spec):
    """``gksl.build_generator`` as it was when it assembled every part at
    once: the same formulas in the same order, so every part must match the
    parts built on first read bit for bit."""
    d = spec.dim
    flat, conj = spec.basis._stacks
    x = spec.c_matrix.T @ flat
    noise = (conj.reshape(flat.shape).T @ x).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    noise = noise.reshape(d * d, d * d)
    k = np.einsum("bji,bjk->ik", conj, x.reshape(conj.shape))
    ident = np.eye(d)
    h = spec.hamiltonian
    pseudo = (ident[:, None, :, None] * (-1j * h - 0.5 * k)[None, :, None, :]
              + (1j * h - 0.5 * k).T[:, None, :, None] * ident[None, :, None, :])
    pseudo = pseudo.reshape(d * d, d * d)
    return generator_with_parts(d, noise, pseudo, k, spec)


def eager_product_generator(g1, g2):
    """``gksl.product_generator`` as it was when it assembled the dense
    d^4 x d^4 parts at once, from the parts of ``g1`` and ``g2``."""
    d = g1.dim
    ident = gksl.identity_superop(d)
    noise = gksl._kron_superop(g1.noise, ident, d, d) + gksl._kron_superop(ident, g2.noise, d, d)
    pseudo = (gksl._kron_superop(g1.pseudo_h, ident, d, d)
              + gksl._kron_superop(ident, g2.pseudo_h, d, d))
    k = np.kron(g1.k_matrix, np.eye(d)) + np.kron(np.eye(d), g2.k_matrix)
    return generator_with_parts(d * d, noise, pseudo, k, None, (g1, g2))


def reference_bloch_pair(n):
    """The +1 and -1 eigenvectors of n.sigma from ``eigh``, as the qubit
    routes found their pairs before the closed form."""
    _, v = np.linalg.eigh(np.tensordot(np.asarray(n, dtype=float), np.array(gksl.SIGMA[1:]),
                                       axes=1))
    return v[:, 1], v[:, 0]
