import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgwl import gksl, matcore
from sgwl.gksl import (
    SIGMA,
    HermitianBasis,
    apply_superop,
    build_generator,
    choi,
    evolve,
    gell_mann_basis,
    kron_superop,
    pauli_basis,
    positivity_functional,
    product_generator,
    qubit_spec,
)
from sgwl.matcore import DomainError, PreconditionError

from helpers import (
    PARTS,
    built_parts,
    counting,
    eager_generator,
    eager_product_generator,
    random_complex,
    random_density,
    random_hermitian,
    random_orthonormal_pair,
    random_unitary,
    reference_generator,
)


def gram(elems):
    n = len(elems)
    g = np.zeros((n, n), dtype=complex)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            g[i, j] = np.trace(a.conj().T @ b)
    return g


def loop_generator(spec):
    """The double loop over basis pairs that assembled generators before the
    single contraction; returns (full, noise, pseudo_h, k_matrix)."""
    d = spec.dim
    fs = spec.basis.traceless()
    c = spec.c_matrix
    n = len(fs)
    noise = np.zeros((d * d, d * d), dtype=complex)
    k = np.zeros((d, d), dtype=complex)
    for a in range(n):
        for b in range(n):
            noise += c[a, b] * gksl.conjugation_superop(fs[a], fs[b].conj().T)
            k += c[a, b] * (fs[b].conj().T @ fs[a])
    ident = np.eye(d, dtype=complex)
    h = spec.hamiltonian
    pseudo = -1j * (gksl.conjugation_superop(h, ident) - gksl.conjugation_superop(ident, h))
    pseudo += -0.5 * (gksl.conjugation_superop(k, ident) + gksl.conjugation_superop(ident, k))
    return noise + pseudo, noise, pseudo, k


def random_generator(rng, d, c_scale=1.0):
    spec = gksl.KossakowskiSpec(
        d, random_hermitian(rng, d), c_scale * random_hermitian(rng, d * d - 1), gell_mann_basis(d)
    )
    return build_generator(spec)


class TestBases:
    def test_pauli_orthonormal_traceless(self):
        b = pauli_basis()
        assert np.abs(gram(b.elements) - np.eye(4)).max() < 1e-12
        for f in b.traceless():
            assert abs(np.trace(f)) < 1e-12
        # sigma_2 element: unit Hilbert-Schmidt norm, traceless
        f2 = b.elements[2]
        assert abs(np.trace(f2.conj().T @ f2) - 1.0) < 1e-12

    def test_pauli_ordering(self):
        b = pauli_basis()
        for k in range(4):
            assert np.abs(b.elements[k] - SIGMA[k] / np.sqrt(2)).max() < 1e-15

    def test_gell_mann_3(self):
        b = gell_mann_basis(3)
        assert len(b.elements) == 9
        assert all(abs(np.trace(f)) < 1e-12 for f in b.traceless())
        assert np.abs(gram(b.elements) - np.eye(9)).max() < 1e-12

    def test_gell_mann_4_gram(self):
        b = gell_mann_basis(4)
        assert np.abs(gram(b.elements) - np.eye(16)).max() < 1e-12

    def test_gell_mann_2_matches_pauli(self):
        b2 = gell_mann_basis(2)
        bp = pauli_basis()
        for x, y in zip(b2.elements, bp.elements):
            assert np.abs(x - y).max() < 1e-15

    def test_dimension_gate(self):
        with pytest.raises(DomainError):
            gell_mann_basis(1)

    @pytest.mark.parametrize("d", [2.0, 2.5, "3"])
    def test_non_integer_dimension_rejected(self, d):
        # 2.0 gave a bare TypeError, or the cached d = 2 basis after a call with 2
        gell_mann_basis(2)
        with pytest.raises(DomainError, match="integer >= 2"):
            gell_mann_basis(d)
        assert gell_mann_basis(np.int64(3)) is gell_mann_basis(3)

    def test_shared_and_read_only(self):
        assert pauli_basis() is gell_mann_basis(2)
        for d in (2, 3, 4):
            b = gell_mann_basis(d)
            assert gell_mann_basis(d) is b
            assert not any(f.flags.writeable for f in b.elements)
            with pytest.raises(ValueError):
                b.elements[1][0, 0] = 5.0


class TestMaximallyEntangledProjector:
    @pytest.mark.parametrize("d", [1, 2, 3, np.int64(4)])
    def test_trace_one_projector(self, d):
        p = gksl.maximally_entangled_projector(d)
        assert p.shape == (d * d, d * d)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-15)
        assert np.abs(p @ p - p).max() < 1e-15
        assert np.abs(p - choi(np.eye(d * d))).max() < 1e-15

    @pytest.mark.parametrize("d", [0, -1, 2.5])
    def test_bad_dimension_rejected(self, d):
        # 0 gave a 0 x 0 array, -1 NaN entries and 2.5 a bare TypeError
        with pytest.raises(DomainError, match="integer >= 1"):
            gksl.maximally_entangled_projector(d)


class TestIdentityEquality:
    # records that hold arrays compare and hash by identity: a field-wise ==
    # would have to reduce array comparisons to one truth value
    @pytest.mark.parametrize("make", [
        lambda: HermitianBasis(2, pauli_basis().elements),
        lambda: qubit_spec(np.eye(3)),
        lambda: build_generator(qubit_spec(np.eye(3))),
    ], ids=["basis", "spec", "generator"])
    def test_eq_and_hash(self, make):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2
        assert {a: 1}[a] == 1


class TestBuildGenerator:
    def test_depolarizing_closed_form(self):
        # all rates 1: L[rho] = Tr(rho) id - 2 rho
        gen = build_generator(qubit_spec(np.diag([1.0, 1.0, 1.0])))
        rng = np.random.default_rng(11)
        for _ in range(5):
            rho = random_complex(rng, 2)
            expect = np.trace(rho) * np.eye(2) - 2 * rho
            assert np.abs(apply_superop(gen.full, rho) - expect).max() < 1e-12

    def test_transpose_mixing_closed_form(self):
        # rates (1, -1, 1): L[rho] = -2 r2 sigma_2
        gen = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
        rng = np.random.default_rng(12)
        for _ in range(5):
            rho = random_complex(rng, 2)
            r2 = np.trace(rho @ SIGMA[2]) / 2
            assert np.abs(apply_superop(gen.full, rho) + 2 * r2 * SIGMA[2]).max() < 1e-12

    def test_pure_hamiltonian(self):
        rng = np.random.default_rng(13)
        h = random_hermitian(rng, 2)
        gen = build_generator(qubit_spec(np.zeros((3, 3)), hamiltonian=h))
        rho = random_density(rng, 2)
        expect = -1j * (h @ rho - rho @ h)
        assert np.abs(apply_superop(gen.full, rho) - expect).max() < 1e-13

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_loop_reference(self, d):
        rng = np.random.default_rng(100 + d)
        c = random_hermitian(rng, d * d - 1)
        assert np.abs(np.linalg.eigvalsh(c)).min() > 1e-6  # full rank
        spec = gksl.KossakowskiSpec(d, random_hermitian(rng, d), c, gell_mann_basis(d))
        gen = build_generator(spec)
        tol = 1e-12 * max(1.0, np.linalg.norm(c, 2))
        for got, want in zip(
            (gen.full, gen.noise, gen.pseudo_h, gen.k_matrix), loop_generator(spec)
        ):
            assert np.abs(got - want).max() < tol

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
           c_scale=st.sampled_from([1e-3, 1.0, 1e3]), h_scale=st.sampled_from([0.0, 1.0, 1e3]))
    def test_matches_einsum_reference(self, d, seed, c_scale, h_scale):
        # the GEMM over the cached basis stack against the 4-index einsum and
        # the two kron products it replaced: equal up to summation order
        rng = np.random.default_rng(seed)
        c = c_scale * random_hermitian(rng, d * d - 1)
        h = h_scale * random_hermitian(rng, d)
        spec = gksl.KossakowskiSpec(d, h, c, gell_mann_basis(d))
        gen, ref = build_generator(spec), reference_generator(spec)
        tol = 1e-14 * max(1.0, np.linalg.norm(c, 2), np.linalg.norm(h, 2))
        for part in ("full", "noise", "pseudo_h", "k_matrix"):
            assert np.abs(getattr(gen, part) - getattr(ref, part)).max() <= tol

    def test_parts_recompose(self):
        rng = np.random.default_rng(14)
        gen = build_generator(qubit_spec(random_hermitian(rng, 3), random_hermitian(rng, 2)))
        assert np.abs(gen.full - gen.noise - gen.pseudo_h).max() < 1e-12

    def test_trace_preservation(self):
        rng = np.random.default_rng(15)
        gen = build_generator(qubit_spec(random_hermitian(rng, 3), random_hermitian(rng, 2)))
        for _ in range(5):
            x = random_complex(rng, 2)
            assert abs(np.trace(apply_superop(gen.full, x))) < 1e-10

    def test_basis_independence(self):
        # conjugating the basis by a unitary and rotating C accordingly
        # leaves the assembled generator unchanged
        rng = np.random.default_rng(16)
        for d in (2, 3):
            basis = gksl.standard_basis(d)
            c = random_hermitian(rng, d * d - 1)
            h = random_hermitian(rng, d)
            gen = build_generator(gksl.KossakowskiSpec(d, h, c, basis))
            u = random_unitary(rng, d)
            rot = gksl.basis_rotation_matrix(u, basis)
            rotated = HermitianBasis(
                d, (basis.elements[0],) + tuple(u @ f @ u.conj().T for f in basis.traceless())
            )
            gen2 = build_generator(
                gksl.KossakowskiSpec(d, h, rot @ c @ rot.T, rotated)
            )
            assert np.abs(gen.full - gen2.full).max() < 1e-9


class TestProductGenerator:
    def test_one_sided_action(self):
        g1 = build_generator(qubit_spec(np.diag([1.0, 1.0, 1.0])))
        g0 = build_generator(qubit_spec(np.zeros((3, 3))))
        gp = product_generator(g1, g0)
        rng = np.random.default_rng(17)
        r1, r2 = random_density(rng, 2), random_density(rng, 2)
        t = 0.7
        lhs = apply_superop(evolve(gp, t), np.kron(r1, r2))
        rhs = np.kron(apply_superop(evolve(g1, t), r1), r2)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_product_closed_forms(self):
        g1 = build_generator(qubit_spec(np.diag([1.0, 1.0, 1.0])))
        g2 = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
        gp = product_generator(g1, g2)
        rng = np.random.default_rng(18)
        t = 0.3
        a = np.exp(-2 * t)
        s = evolve(gp, t)
        for _ in range(5):
            r1, r2 = random_density(rng, 2), random_density(rng, 2)
            out1 = a * r1 + (1 - a) / 2 * np.eye(2)
            out2 = r2 - (1 - a) * (np.trace(r2 @ SIGMA[2]) / 2) * SIGMA[2]
            assert np.abs(apply_superop(s, np.kron(r1, r2)) - np.kron(out1, out2)).max() < 1e-10

    def test_trace_preserved(self):
        g1 = build_generator(qubit_spec(np.diag([1.0, 1.0, 1.0])))
        g2 = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
        s = evolve(product_generator(g1, g2), 0.9)
        rng = np.random.default_rng(19)
        x = random_complex(rng, 4)
        assert abs(np.trace(apply_superop(s, x)) - np.trace(x)) < 1e-12

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_evolve_matches_dense_expm(self, d):
        rng = np.random.default_rng(200 + d)
        g1 = random_generator(rng, d, 1.0 / d)
        g2 = random_generator(rng, d, 1.0 / d)
        gp = product_generator(g1, g2)
        assert gp.factors[0] is g1 and gp.factors[1] is g2
        for t in (0.0, 0.1, 0.7, 2.0):
            assert np.abs(evolve(gp, t) - matcore.expm(t * gp.full)).max() < 1e-12

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        d=st.sampled_from((2, 3)),
        seed=st.integers(0, 2**32 - 1),
        t=st.floats(0.0, 2.0),
    )
    def test_evolve_matches_dense_expm_property(self, d, seed, t):
        rng = np.random.default_rng(seed)
        gp = product_generator(random_generator(rng, d, 0.5), random_generator(rng, d, 0.5))
        dense = matcore.expm(t * gp.full)
        assert np.abs(evolve(gp, t) - dense).max() < 1e-12 * max(1.0, np.abs(dense).max())

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_stacked_factors_match_separate_expm(self, d):
        # one stacked call, each factor with its own scaling: the second's C is
        # 100x the first's, and the result has the bits of two separate calls
        rng = np.random.default_rng(210 + d)
        g1 = random_generator(rng, d, 0.01)
        g2 = random_generator(rng, d, 1.0)
        gp = product_generator(g1, g2)
        for t in (0.1, 1.0, 3.0):
            sep = kron_superop(matcore.expm(t * g1.full), matcore.expm(t * g2.full), d, d)
            assert np.array_equal(evolve(gp, t), sep)

    def test_dim_mismatch(self):
        g2 = build_generator(qubit_spec(np.diag([1.0, 1.0, 1.0])))
        g3 = build_generator(
            gksl.KossakowskiSpec(3, np.zeros((3, 3)), np.eye(8), gell_mann_basis(3))
        )
        with pytest.raises(matcore.ShapeError):
            product_generator(g2, g3)


def assert_same_parts(gen, ref):
    for part in PARTS:
        got, want = getattr(gen, part), getattr(ref, part)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), part
        assert got.tobytes() == want.tobytes(), part


class TestPartsOnFirstUse:
    """A generator records its spec or factors; each part is built on first
    read from them, cached and read-only, with the bits of the assembly that
    built every part at once."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
           c_scale=st.sampled_from([1e-3, 1.0, 1e3]), h_scale=st.sampled_from([0.0, 1.0, 1e3]))
    def test_bit_identical_to_eager_assembly(self, d, seed, c_scale, h_scale):
        rng = np.random.default_rng(seed)
        spec = gksl.KossakowskiSpec(d, h_scale * random_hermitian(rng, d),
                                    c_scale * random_hermitian(rng, d * d - 1), gell_mann_basis(d))
        assert_same_parts(build_generator(spec), eager_generator(spec))

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_product_bit_identical_to_eager_assembly(self, d):
        rng = np.random.default_rng(230 + d)
        specs = [gksl.KossakowskiSpec(d, random_hermitian(rng, d),
                                      random_hermitian(rng, d * d - 1), gell_mann_basis(d))
                 for _ in range(2)]
        gp = product_generator(*map(build_generator, specs))
        assert_same_parts(gp, eager_product_generator(*map(eager_generator, specs)))

    def test_nested_product_bit_identical_to_eager_assembly(self):
        rng = np.random.default_rng(234)
        specs = [qubit_spec(random_hermitian(rng, 3), random_hermitian(rng, 2)) for _ in range(4)]
        lazy = [build_generator(s) for s in specs]
        eager = [eager_generator(s) for s in specs]
        gp = product_generator(product_generator(*lazy[:2]), product_generator(*lazy[2:]))
        ref = eager_product_generator(eager_product_generator(*eager[:2]),
                                      eager_product_generator(*eager[2:]))
        assert_same_parts(gp, ref)

    def test_parts_built_on_first_read_and_cached(self):
        gen = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
        assert built_parts(gen) == set()
        noise = gen.noise
        assert built_parts(gen) == {"noise"} and gen.noise is noise
        gen.full  # reads pseudo_h, which reads k_matrix
        assert built_parts(gen) == set(PARTS)

    def test_parts_read_only(self):
        rng = np.random.default_rng(235)
        g1, g2 = (build_generator(qubit_spec(random_hermitian(rng, 3), random_hermitian(rng, 2)))
                  for _ in range(2))
        for gen in (g1, product_generator(g1, g2)):
            for part in PARTS:
                m = getattr(gen, part)
                assert not m.flags.writeable, part
                with pytest.raises(ValueError, match="read-only"):
                    m[0, 0] = 1.0

    def test_evolve_builds_no_product_part(self):
        rng = np.random.default_rng(236)
        g1, g2 = (random_generator(rng, 3, 0.3) for _ in range(2))
        gp = product_generator(g1, g2)
        evolve(gp, 0.5)
        assert not PARTS & vars(gp).keys()
        assert {"full"} <= vars(g1).keys() & vars(g2).keys()

    def test_product_allocates_no_dense_part(self):
        rng = np.random.default_rng(237)
        g1, g2 = (random_generator(rng, 5) for _ in range(2))
        g1.full, g2.full  # built before tracing: only the product's own work is traced
        tracemalloc.start()
        try:
            gp = product_generator(g1, g2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gp.factors == (g1, g2)
        assert peak < 5**8 * np.dtype(complex).itemsize  # one d^4 x d^4 complex part


class TestEvolve:
    def test_time_zero_is_identity(self):
        gen = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
        assert np.abs(evolve(gen, 0.0) - np.eye(4)).max() < 1e-15

    def test_half_mixing_action(self):
        # a = 1/2 at t = log(2)/2: rho -> rho - (1/2) r2 sigma_2
        gen = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
        out = apply_superop(evolve(gen, np.log(2) / 2), (SIGMA[0] + SIGMA[2]) / 2)
        assert np.abs(out - (SIGMA[0] + SIGMA[2] / 2) / 2).max() < 1e-12

    def test_composition_law(self):
        rng = np.random.default_rng(20)
        gen = build_generator(qubit_spec(random_hermitian(rng, 3), random_hermitian(rng, 2)))
        lhs = evolve(gen, 0.4) @ evolve(gen, 1.1)
        assert np.abs(lhs - evolve(gen, 1.5)).max() < 1e-9

    def test_negative_time_rejected(self):
        gen = build_generator(qubit_spec(np.eye(3)))
        with pytest.raises(DomainError):
            evolve(gen, -0.1)

    @pytest.mark.parametrize("t", (np.nan, np.inf, -np.inf))
    def test_non_finite_time_rejected(self, t):
        gen = build_generator(qubit_spec(np.eye(3)))
        for g in (gen, product_generator(gen, gen)):
            with pytest.raises(DomainError, match="evolution time t"):
                evolve(g, t)

    @pytest.mark.filterwarnings("error")
    def test_huge_time(self):
        # t L stays finite, but the exponential would lose trace
        # preservation (0.14 at t = 1e15), then overflow to NaN or underflow
        # to zeros; dense, product and nested-product generators all refuse,
        # quietly and a priori, whatever the last bits of C: a few ulps of
        # the rates decide whether an exponential at t = 1e20 happens to
        # preserve the trace
        for ulps in range(-3, 4):
            rate = 1.0
            for _ in range(abs(ulps)):
                rate = np.nextafter(rate, np.sign(ulps) * np.inf)
            gen = build_generator(qubit_spec(rate * np.eye(3)))
            prod = product_generator(gen, gen)
            for g in (gen, prod, product_generator(prod, prod)):
                assert np.isfinite(evolve(g, 1e6)).all()
                for t in (1e15, 1e20, 1e100):
                    with pytest.raises(matcore.NumericalError, match=re.escape(f"t = {t!r}")):
                        evolve(g, t)
                with pytest.raises(DomainError):
                    evolve(g, 1e308)

    def test_gate_reuses_one_norm(self, monkeypatch):
        # the a-priori gate reads the 1-norms that scale the exponential,
        # with no pass of its own over t L
        gen = build_generator(qubit_spec(np.eye(3)))
        for g in (gen, product_generator(gen, gen)):
            counted = counting(matcore._one_norms)
            monkeypatch.setattr(matcore, "_one_norms", counted)
            evolve(g, 1e6)
            assert counted.calls == 1

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(21)
        gen = build_generator(qubit_spec(random_hermitian(rng, 3), random_hermitian(rng, 2)))
        rho = random_density(rng, 2)
        out = apply_superop(evolve(gen, 0.8), rho)
        assert np.abs(out - out.conj().T).max() < 1e-10


class TestKronSuperop:
    def test_matches_direct_action(self):
        rng = np.random.default_rng(22)
        for da, db in ((2, 2), (2, 3)):
            sa = random_complex(rng, da * da)
            sb = random_complex(rng, db * db)
            s = kron_superop(sa, sb, da, db)
            x = random_complex(rng, da * db)
            direct = np.zeros_like(x)
            for a in range(da):
                for b in range(da):
                    ea = np.zeros((da, da), dtype=complex)
                    ea[a, b] = 1.0
                    blk = x[a * db:(a + 1) * db, b * db:(b + 1) * db]
                    direct += np.kron(apply_superop(sa, ea), apply_superop(sb, blk))
            assert np.abs(apply_superop(s, x) - direct).max() < 1e-12


class TestBasisRotation:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(25)
        for d in (2, 3, 4):
            basis = gell_mann_basis(d)
            v = random_unitary(rng, d)
            fs = basis.traceless()
            ref = np.array(
                [[np.trace(fb.conj().T @ v @ fa @ v.conj().T).real for fb in fs] for fa in fs]
            )
            r = gksl.basis_rotation_matrix(v, basis)
            assert r.dtype == np.float64
            assert np.abs(r - ref).max() < 1e-13
            assert np.abs(r @ r.T - np.eye(d * d - 1)).max() < 1e-12


class TestPositivityFunctional:
    def test_cp_generator_nonnegative(self):
        gen = build_generator(qubit_spec(np.diag([1.0, 1.0, 1.0])))
        rng = np.random.default_rng(23)
        for _ in range(20):
            psi, phi = random_orthonormal_pair(rng, 2)
            assert positivity_functional(gen, psi, phi) >= -1e-12

    def test_map_functional_on_noise(self):
        # the transpose-mixing noise is not positive: value -1/2 at (1, i)/sqrt(2)
        gen = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        assert gksl.map_functional(gen.noise, psi, psi) == pytest.approx(-0.5, abs=1e-12)
        # malformed pairs are rejected as positivity_functional rejects them
        for bad, err in (((np.zeros(2), psi), PreconditionError),
                         ((psi, np.zeros(2)), PreconditionError),
                         ((psi, np.ones(3)), matcore.ShapeError)):
            with pytest.raises(err):
                gksl.map_functional(gen.noise, *bad)

    def test_product_functional_identity(self):
        # for a product generator the functional is a quadratic form of the
        # two coefficient matrices in the overlap vectors w and v
        rng = np.random.default_rng(24)
        basis = pauli_basis()
        c1 = random_hermitian(rng, 3)
        c2 = random_hermitian(rng, 3)
        g1 = build_generator(gksl.KossakowskiSpec(2, np.zeros((2, 2)), c1, basis))
        g2 = build_generator(gksl.KossakowskiSpec(2, np.zeros((2, 2)), c2, basis))
        gp = product_generator(g1, g2)
        fs = basis.traceless()
        for _ in range(10):
            psi, phi = random_orthonormal_pair(rng, 4)
            big_psi = psi.reshape(2, 2)
            big_phi = phi.reshape(2, 2)
            w = np.array([np.trace(f.conj().T @ big_phi @ big_psi.conj().T) for f in fs])
            v = np.array([np.trace(f.conj().T @ (big_psi.conj().T @ big_phi).T) for f in fs])
            expect = (w.conj() @ c1 @ w + v.conj() @ c2 @ v).real
            assert positivity_functional(gp, psi, phi) == pytest.approx(expect, abs=1e-10)

    def test_orthogonality_gate(self):
        gen = build_generator(qubit_spec(np.eye(3)))
        psi = np.array([1.0, 0.0])
        with pytest.raises(PreconditionError):
            positivity_functional(gen, psi, psi)
