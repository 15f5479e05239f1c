import dataclasses
from functools import partial

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from sgwl import decomp, gksl, matcore, posmap
from sgwl.gksl import SIGMA, build_generator, evolve, gell_mann_basis, pauli_basis, qubit_spec
from sgwl.matcore import DomainError, PreconditionError
from sgwl.posmap import (
    STATUS_CP,
    STATUS_NOT_POSITIVE,
    STATUS_POSITIVE_NOT_CP,
    choi,
    is_completely_positive,
    kossakowski_positivity_check,
    map_positivity_check,
    product_positivity_necessary,
    product_positivity_sufficient,
    qubit_positivity_conditions,
    qubit_product_positivity,
)

from helpers import (
    built_parts,
    choi_map,
    count_eigensolvers,
    counting,
    eigensolver_calls,
    negative_definite_generator,
    random_complex,
    random_density,
    random_hermitian,
    random_psd,
    random_unit_vector,
    random_unitary,
    reference_bloch_pair,
    reference_evaluate,
    reference_generator,
    reference_search,
)


def choi_by_matrix_units(s, d):
    # independent construction straight from the definition
    c = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            c += np.kron(gksl.apply_superop(s, e), e)
    return c / d


def sample_spec(rng, d, min_margin=0.05):
    # Hermitian C bounded away from the PSD boundary so the small-time CP
    # verdict is unambiguous
    n = d * d - 1
    basis = pauli_basis() if d == 2 else gell_mann_basis(d)
    while True:
        a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
        c = a @ a.conj().T - rng.uniform(0.0, 1.5) * np.eye(n)
        if abs(np.linalg.eigvalsh(c).min()) > min_margin:
            h = random_hermitian(rng, d)
            return gksl.KossakowskiSpec(d, h, c, basis)


class TestChoi:
    def test_identity_map(self):
        for d in (2, 3):
            j = choi(np.eye(d * d))
            assert np.abs(j - posmap.maximally_entangled_projector(d)).max() < 1e-14

    def test_matches_matrix_unit_construction(self):
        rng = np.random.default_rng(30)
        for d in (2, 3):
            s = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            assert np.abs(choi(s) - choi_by_matrix_units(s, d)).max() < 1e-13

    def test_transposition_min_eig(self):
        j = choi(gksl.transpose_superop(2))
        assert np.linalg.eigvalsh(j).min() == pytest.approx(-0.5, abs=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(31)
        s1 = rng.normal(size=(4, 4))
        s2 = rng.normal(size=(4, 4))
        lhs = choi(2.0 * s1 - 0.7 * s2)
        rhs = 2.0 * choi(s1) - 0.7 * choi(s2)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_explicit_block_spectrum(self):
        # nonzero spectrum {(1-a^2)/8 x3, (1-a)(1-3a)/8} with twelve zeros
        for t in (0.2, 1.0):
            a = np.exp(-2 * t)
            w = np.sort(np.linalg.eigvalsh(choi(decomp.explicit_decomposition(t)[1])))
            expect = np.sort([0.0] * 12 + [(1 - a**2) / 8] * 3 + [(1 - a) * (1 - 3 * a) / 8])
            assert np.abs(w - expect).max() < 1e-12


class TestIsCompletelyPositive:
    def test_depolarizing_always_cp(self):
        gen = build_generator(qubit_spec(np.diag([1.0, 1.0, 1.0])))
        for t in (0.1, 1.0, 3.0):
            assert is_completely_positive(evolve(gen, t)).is_cp

    def test_transpose_mixing_not_cp(self):
        gen = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
        assert not is_completely_positive(evolve(gen, 0.5)).is_cp

    def test_delayed_family_cp_when_dominant(self):
        # rates 2*(b, b, a-b) with a >= b: completely positive at all times
        a_, b_ = 2.0, 1.0
        gen = build_generator(qubit_spec(2.0 * np.diag([b_, b_, a_ - b_])))
        for t in np.linspace(0.0, 5.0, 11):
            assert is_completely_positive(evolve(gen, float(t))).is_cp


class TestKossakowskiCheck:
    def test_violating_rates(self):
        gen = build_generator(qubit_spec(np.diag([1.0, 1.0, -3.0])))
        verdict = kossakowski_positivity_check(gen, budget=16)
        assert verdict.status == STATUS_NOT_POSITIVE
        psi, phi = verdict.pair
        assert abs(np.vdot(psi, phi)) < 1e-9
        assert gksl.positivity_functional(gen, psi, phi) < -1e-10
        # global minimum is half the worst pairwise sum
        assert verdict.min_value == pytest.approx(-1.0, abs=1e-6)

    def test_boundary_positive(self):
        gen = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
        verdict = kossakowski_positivity_check(gen, budget=32)
        assert verdict.status == STATUS_POSITIVE_NOT_CP
        assert verdict.min_value >= -1e-12

    def test_cp_rates(self):
        gen = build_generator(qubit_spec(np.diag([1.0, 1.0, 1.0])))
        verdict = kossakowski_positivity_check(gen, budget=8)
        assert verdict.status == STATUS_CP
        assert verdict.min_value >= -1e-12

    def test_closed_form_agreement_sample(self):
        # optimizer agrees with the closed-form qubit criterion
        rng = np.random.default_rng(32)
        for _ in range(15):
            while True:
                c = rng.uniform(-1, 1, size=3)
                sums = (c[0] + c[1], c[1] + c[2], c[0] + c[2])
                if min(abs(s) for s in sums) > 0.05:
                    break
            gen = build_generator(qubit_spec(np.diag(c)))
            verdict = kossakowski_positivity_check(gen, budget=32)
            assert verdict.is_positive == qubit_positivity_conditions(*c)

    def test_cp_equivalence_sample(self):
        # CP of the evolved map at small time matches the sign of the
        # Kossakowski matrix spectrum
        rng = np.random.default_rng(33)
        for _ in range(30):
            spec = sample_spec(rng, 2 if rng.uniform() < 0.5 else 3)
            gen = build_generator(spec)
            cp_choi = is_completely_positive(evolve(gen, 1e-3)).is_cp
            cp_c = np.linalg.eigvalsh(spec.c_matrix).min() >= 0
            assert cp_choi == cp_c

    def test_product_of_cp_never_violates(self):
        rng = np.random.default_rng(34)
        for _ in range(3):
            c = random_psd(rng, 3)
            gen = build_generator(qubit_spec(c, random_hermitian(rng, 2)))
            verdict = kossakowski_positivity_check(
                gksl.product_generator(gen, gen), budget=12
            )
            assert verdict.status != STATUS_NOT_POSITIVE

    def test_undetermined_when_starts_disagree(self, monkeypatch):
        # if the best starts settle on different nonnegative minima the
        # checker must refuse to certify rather than pick one; force the
        # disagreement on a d = 3 generator, which takes the search
        d = 3
        spec = gksl.KossakowskiSpec(d, np.zeros((d, d)), np.diag([1.0] * 7 + [-0.2]),
                                    gell_mann_basis(d))
        gen = build_generator(spec)

        def canned(op, psi, restricted):
            # both starts settle at once: zero gradient
            return np.array([0.3, 0.7]), np.zeros_like(psi), np.zeros((2, d), dtype=complex)

        monkeypatch.setattr(posmap, "_evaluate", canned)
        verdict = kossakowski_positivity_check(gen, budget=2)
        assert verdict.status == posmap.STATUS_UNDETERMINED
        assert verdict.spread == pytest.approx(0.4)
        assert verdict.proof == posmap.PROOF_SEARCH
        assert "disagree" in verdict.reason

    def test_rank_one_cp_single_start(self):
        # C >= 0 proves CP with no search; min_value is the bound 0 that
        # f = w C w^dag >= 0 gives.  Rank-one and full-rank C at d = 5
        rng = np.random.default_rng(35)
        d = 5
        a = rng.normal(size=d * d - 1) + 1j * rng.normal(size=d * d - 1)
        full = random_psd(rng, d * d - 1)
        assert np.linalg.eigvalsh(full)[0] > 0
        for c in (np.outer(a, a.conj()), full):
            spec = gksl.KossakowskiSpec(d, random_hermitian(rng, d), c, gell_mann_basis(d))
            verdict = kossakowski_positivity_check(build_generator(spec))
            assert (verdict.status, verdict.proof) == (STATUS_CP, posmap.PROOF_KOSSAKOWSKI_PSD)
            assert verdict.min_value == 0.0
            assert verdict.start_values is None

    def test_product_of_cp_proved_without_search(self):
        # a product is CP when every factor's C is PSD, nested products too;
        # one factor that is not CP sends the product to the search
        rng = np.random.default_rng(36)
        depol = build_generator(qubit_spec(np.eye(3)))
        g3 = build_generator(gksl.KossakowskiSpec(3, random_hermitian(rng, 3), random_psd(rng, 8),
                                                  gell_mann_basis(3)))
        pair = gksl.product_generator(depol, depol)
        for gen in (pair, gksl.product_generator(g3, g3),
                    gksl.product_generator(pair, gksl.product_generator(depol, depol))):
            verdict = kossakowski_positivity_check(gen)
            assert (verdict.status, verdict.proof) == (STATUS_CP, posmap.PROOF_KOSSAKOWSKI_PSD)
            assert verdict.min_value == 0.0
            assert verdict.start_values is None
        flagship = decomp.witness_product_generator()
        verdict = kossakowski_positivity_check(flagship, budget=8)
        assert verdict.proof == posmap.PROOF_SEARCH
        assert verdict.status != STATUS_CP

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        c=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda c: min(abs(c[0] + c[1]), abs(c[1] + c[2]), abs(c[0] + c[2])) >= 0.05
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rotated_qubit_matches_closed_form(self, c, seed):
        # positivity is invariant under unitary conjugation (C -> R^T C R)
        # and blind to H on orthogonal pairs, so the diagonal closed form is
        # the truth for every rotated qubit generator
        rng = np.random.default_rng(seed)
        r = gksl.basis_rotation_matrix(random_unitary(rng, 2), pauli_basis())
        gen = build_generator(qubit_spec(r.T @ np.diag(c) @ r, random_hermitian(rng, 2)))
        verdict = kossakowski_positivity_check(gen)
        assert verdict.is_positive == qubit_positivity_conditions(*c)
        if verdict.status == STATUS_NOT_POSITIVE:
            assert gksl.positivity_functional(gen, *verdict.pair) < -1e-10

    def test_funnel_landscape_single_minimum(self):
        # all 64 starts reach the same value: half the best pairwise sum
        gen = build_generator(qubit_spec(np.diag([1.0, 0.6, -0.2])))
        verdict = kossakowski_positivity_check(gen, budget=64)
        assert verdict.status == STATUS_POSITIVE_NOT_CP
        assert verdict.min_value == pytest.approx(0.2, abs=1e-9)
        assert verdict.spread < 1e-12


def random_qubit_generator(rng, shift):
    # complex C = A A^dag / 3 - shift: CP, positive not CP or not positive
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return build_generator(qubit_spec(a @ a.conj().T / 3 - shift * np.eye(3),
                                      random_hermitian(rng, 2)))


class TestQubitExact:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), shift=st.floats(0.0, 1.5))
    def test_matches_search(self, seed, shift):
        gen = random_qubit_generator(np.random.default_rng(seed), shift)
        exact = kossakowski_positivity_check(gen)
        assert exact.proof in (posmap.PROOF_TRUST_REGION, posmap.PROOF_KOSSAKOWSKI_PSD)
        # too close to the boundary for the search's stopping rule to resolve
        assume(not -1e-6 < exact.min_value < -posmap.PSD_SLACK)
        search = posmap._search(gen.noise, True, posmap.DEFAULT_BUDGET, posmap.DEFAULT_SEED)
        assert (exact.status == STATUS_NOT_POSITIVE) == (search.status == STATUS_NOT_POSITIVE)
        if exact.status == STATUS_NOT_POSITIVE:
            psi, phi = exact.pair
            assert abs(np.vdot(psi, phi)) < 1e-12
            value = gksl.positivity_functional(gen, psi, phi)
            assert value == pytest.approx(exact.min_value, abs=1e-12)
            # the exact minimum is global: no start of the search goes lower
            assert exact.min_value <= search.min_value + 1e-12
        else:
            assert exact.min_value == pytest.approx(search.min_value, abs=1e-7)

    @pytest.mark.parametrize("q,g", [
        (np.diag([1.0, 1.0, 2.0]), np.zeros(3)),  # hard case, degenerate
        (np.diag([1.0, 2.0, 3.0]), np.array([0.0, 0.4, 0.0])),  # hard case with slack
        (np.diag([1.0, 2.0, 3.0]), np.array([1e-13, 0.4, 0.0])),  # next to the hard case
        (np.diag([1.0, 2.0, 3.0]), np.array([0.0, 5.0, 0.0])),  # g past the hard case
        (np.diag([-1.0, 0.5, 0.5]), np.array([3.0, -2.0, 1.0])),
    ])
    def test_sphere_minimum_brute_force(self, q, g):
        rng = np.random.default_rng(37)
        r = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        q, g = r @ q @ r.T, r @ g
        n, bound = posmap._sphere_minimum(q, g)
        value = n @ q @ n + g @ n
        x = rng.normal(size=(20000, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        sampled = np.min(np.einsum("ni,ij,nj->n", x, q, x) + x @ g)
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-15)
        assert value <= sampled + 1e-12
        assert bound <= value + 1e-14
        assert value - bound <= 1e-12

    @pytest.mark.parametrize("check,arg,dual,proof", [
        (kossakowski_positivity_check, build_generator(qubit_spec(np.diag([1.0, -0.5, 1.0]))),
         -1.0, posmap.PROOF_SEARCH),
        # the map route's bound is (dual + u0^2 - |v0|^2) / (16 alpha_min) = (dual + 4) / 8;
        # after the search, transposition is proved positive by its decomposition
        (map_positivity_check, gksl.transpose_superop(2), -100.0, posmap.PROOF_DECOMPOSITION),
    ], ids=["generator", "map"])
    def test_failed_bound_falls_back_to_search(self, monkeypatch, check, arg, dual, proof):
        monkeypatch.setattr(posmap, "_sphere_minimum", lambda q, g: (np.array([0, 0, 1.0]), dual))
        verdict = check(arg, budget=8)
        assert verdict.status == STATUS_POSITIVE_NOT_CP
        assert verdict.start_values is not None  # the search ran
        assert verdict.proof == proof


def map_from_choi(j):
    # inverse of posmap.choi at d = 2
    return (2 * j).reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)


def random_qubit_map(rng, family, shift):
    # the three families of Hermiticity-preserving qubit maps: a random
    # Hermitian Choi matrix (the partial transpose of a state, a positive
    # map, plus a Hermitian perturbation), an evolved random generator
    # (trace-preserving) and a generator's noise part (trace varies with
    # the state)
    if family == 0:
        j = matcore.partial_transpose(random_density(rng, 4), 2, 2)
        return map_from_choi(j + random_hermitian(rng, 4) * (shift - 0.5) / 8)
    gen = random_qubit_generator(rng, shift)
    return evolve(gen, float(rng.uniform(0.05, 2.0))) if family == 1 else gen.noise


def woronowicz_positive(s):
    # on M_2 positive = decomposable: a certificate whose blocks are PSD and
    # reassemble J; None where the solver stops without deciding
    j = choi(s)
    res = decomp.decomposability_feasibility(j)
    if res.status == decomp.MAX_ITERATIONS:
        return None
    if res.status == decomp.INFEASIBLE_WITNESSED:
        return False
    cert = res.certificate
    assert matcore.is_psd(cert.j1)[0] and matcore.is_psd(cert.j2)[0]
    assert np.linalg.norm(j - cert.j1 - matcore.partial_transpose(cert.j2, 2, 2)) <= 1e-9
    return True


class TestQubitMapExact:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), family=st.integers(0, 2), shift=st.floats(0.0, 1.5))
    def test_matches_woronowicz_and_search(self, seed, family, shift):
        s = random_qubit_map(np.random.default_rng(seed), family, shift)
        verdict = map_positivity_check(s)
        if verdict.is_cp:
            return
        assert verdict.proof == posmap.PROOF_TRUST_REGION
        # too close to the boundary for the solver's slack to resolve
        assume(not -1e-6 < verdict.min_value < 1e-6)
        oracle = woronowicz_positive(s)
        assume(oracle is not None)
        assert verdict.is_positive == oracle
        if verdict.status == STATUS_NOT_POSITIVE:
            value = gksl.map_functional(s, *verdict.pair)
            assert value == pytest.approx(verdict.min_value, abs=1e-12)
        else:
            assert verdict.min_value >= -posmap.PSD_SLACK
        if family == 1:
            # the exact minimum of a trace-preserving map: no search start goes lower
            search = posmap._search(s, False, 64, seed)
            assert verdict.min_value <= search.min_value + 1e-9

    @pytest.mark.parametrize("excess,route", [(0.5, posmap.PROOF_TRUST_REGION),
                                              (1.5, posmap.PROOF_SEARCH)])
    def test_bound_scale(self, monkeypatch, excess, route):
        # transposition: u0 = 2, v0 = 0, alpha_min = 1/2 and max |M| = 2, so the
        # bound (dual + 4) / 8 on alpha - |beta| must clear -2 PSD_SLACK; past it
        # the search runs, and the decomposition of transposition proves it positive
        dual = -4.0 - excess * 16 * posmap.PSD_SLACK
        monkeypatch.setattr(posmap, "_sphere_minimum", lambda q, g: (np.array([0, 0, 1.0]), dual))
        verdict = map_positivity_check(gksl.transpose_superop(2), budget=8)
        searched = route == posmap.PROOF_SEARCH
        assert (verdict.start_values is not None) == searched
        proof = posmap.PROOF_DECOMPOSITION if searched else route
        assert (verdict.status, verdict.proof) == (STATUS_POSITIVE_NOT_CP, proof)


def amplitude_damping_spec(sign):
    # jump operator sigma_-, or sigma_+ for sign -1: the qubit minimizer
    # sits at the pole +e3 (sign 1) or -e3 (sign -1)
    return qubit_spec(np.array([[1, -1j * sign, 0], [1j * sign, 1, 0], [0, 0, 0]]))


def trace_sign_map(sign):
    # X -> Tr(sign sigma_3 X) 1 / 2: alpha is least at the pole n = -sign e3
    return np.outer([1, 0, 0, 1], [sign, 0, 0, -sign]) / 2


def with_reference_pair(check, arg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(posmap, "_bloch_pair", reference_bloch_pair)
        return check(arg)


def assert_matches_reference(verdict, reference, functional):
    # same status and proof as the eigh pair on the einsum generator; a
    # trust-region verdict's value is re-evaluated at its pair
    assert (verdict.status, verdict.proof) == (reference.status, reference.proof)
    if verdict.proof == posmap.PROOF_SEARCH:
        return
    assert verdict.min_value == pytest.approx(reference.min_value, abs=1e-12)
    if verdict.proof != posmap.PROOF_CHOI:
        assert functional(*verdict.pair) == pytest.approx(verdict.min_value, abs=1e-12)


class TestBlochPair:
    @pytest.mark.parametrize("n", [
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-9, -2e-9, 1.0], [1e-9, 2e-9, -1.0],
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, -0.4, 1e-17], [0.3, -0.4, -1e-17],
        [0.6, 0.0, -0.8], [-2.0, 3.0, 6.0],
    ])
    def test_eigenvectors(self, n):
        # both branches (z >= 0 and z < 0), the poles and the zero vector
        psi, phi = posmap._bloch_pair(n)
        m = np.tensordot(np.asarray(n, dtype=float), np.array(SIGMA[1:]), axes=1)
        r = np.linalg.norm(n)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-15)
        assert abs(np.vdot(psi, phi)) <= 1e-16
        assert np.abs(m @ psi - r * psi).max() <= 1e-15 * max(1.0, r)
        assert np.abs(m @ phi + r * phi).max() <= 1e-15 * max(1.0, r)
        if r > 0:
            ref_psi, ref_phi = reference_bloch_pair(n)
            assert abs(np.vdot(ref_psi, psi)) == pytest.approx(1.0, abs=1e-15)
            assert abs(np.vdot(ref_phi, phi)) == pytest.approx(1.0, abs=1e-15)


def boundary_qubit_spec(rng, delta):
    # rates (m + delta, -m, m + e): the sum of the first two is delta, within
    # +-1e-3 of the boundary of the pairwise-sum criterion; rotated, with H
    m = rng.uniform(0.1, 1.0)
    rates = np.array([m + delta, -m, m + rng.uniform(0.0, 1.0)])
    r = gksl.basis_rotation_matrix(random_unitary(rng, 2), pauli_basis())
    return qubit_spec(r.T @ np.diag(rates) @ r, random_hermitian(rng, 2))


def degenerate_qubit_spec(rng, delta):
    # two equal rates: q has a repeated eigenvalue and g = 0, the hard case
    a, b = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0) + delta
    r = gksl.basis_rotation_matrix(random_unitary(rng, 2), pauli_basis())
    return qubit_spec(r.T @ np.diag(rng.permutation([a, a, b])) @ r, random_hermitian(rng, 2))


class TestQubitRoutesAgainstReference:
    """The closed-form pair and the GEMM-assembled generator give the
    verdicts that the eigh pair and the einsum assembly gave."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), family=st.integers(0, 2),
           delta=st.floats(-1e-3, 1e-3), shift=st.floats(0.0, 1.5))
    def test_generators(self, seed, family, delta, shift):
        rng = np.random.default_rng(seed)
        if family == 0:
            spec = boundary_qubit_spec(rng, delta)
        elif family == 1:
            spec = degenerate_qubit_spec(rng, delta)
        else:
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            spec = qubit_spec(a @ a.conj().T / 3 - shift * np.eye(3), random_hermitian(rng, 2))
        gen = build_generator(spec)
        verdict = kossakowski_positivity_check(gen)
        reference = with_reference_pair(kossakowski_positivity_check, reference_generator(spec))
        assert_matches_reference(verdict, reference, partial(gksl.positivity_functional, gen))
        if verdict.pair is not None:
            assert abs(np.vdot(*verdict.pair)) <= 1e-16

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), family=st.integers(0, 3),
           delta=st.floats(-1e-3, 1e-3), scale=st.floats(0.2, 3.0))
    def test_maps(self, seed, family, delta, scale):
        # trace preserving (evolved), trace scaling (a multiple of one),
        # trace varying (a noise part, a random Hermitian Choi matrix)
        rng = np.random.default_rng(seed)
        if family == 3:
            s = random_qubit_map(rng, 0, scale / 2)
        else:
            spec = boundary_qubit_spec(rng, delta)
            gen = build_generator(spec)
            s = (gen.noise if family == 2
                 else evolve(gen, float(rng.uniform(0.05, 2.0))) * (scale if family else 1.0))
        verdict = map_positivity_check(s)
        reference = with_reference_pair(map_positivity_check, s)
        assert_matches_reference(verdict, reference, partial(gksl.map_functional, s))

    @pytest.mark.parametrize("check,arg", [
        (kossakowski_positivity_check, build_generator(amplitude_damping_spec(1))),
        (kossakowski_positivity_check, build_generator(amplitude_damping_spec(-1))),
        (kossakowski_positivity_check, build_generator(qubit_spec(np.diag([-3.0, -3.0, 1.0])))),
        (map_positivity_check, trace_sign_map(1)),
        (map_positivity_check, trace_sign_map(-1)),
    ], ids=["damping-north", "damping-south", "rates-north", "map-south", "map-north"])
    def test_poles(self, check, arg):
        verdict = check(arg)
        psi = verdict.pair[0]
        assert abs(abs(psi[0]) ** 2 - abs(psi[1]) ** 2) == pytest.approx(1.0, abs=1e-15)
        if check is map_positivity_check:
            reference = with_reference_pair(check, arg)
            functional = partial(gksl.map_functional, arg)
        else:
            reference = with_reference_pair(check, reference_generator(arg.spec))
            functional = partial(gksl.positivity_functional, arg)
        assert_matches_reference(verdict, reference, functional)


def least_image_eigenvalue(s):
    """min over pure states of the smallest eigenvalue of S[|psi><psi|]: a
    Fibonacci grid of 20000 Bloch vectors, polished by Nelder-Mead from the
    best three."""
    def images_min(theta, phi):
        psi = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)
        vecs = (psi[:, :, None] * psi[:, None, :].conj()).transpose(0, 2, 1).reshape(-1, 4)
        imgs = (vecs @ s.T).reshape(-1, 2, 2).transpose(0, 2, 1)
        return np.linalg.eigvalsh((imgs + imgs.conj().transpose(0, 2, 1)) / 2)[:, 0]

    k = np.arange(20000) + 0.5
    theta, phi = np.arccos(1 - 2 * k / k.size), np.pi * (1 + 5**0.5) * k
    values = images_min(theta, phi)
    best = values.min()
    for i in np.argsort(values)[:3]:
        res = scipy.optimize.minimize(lambda x: images_min(x[:1], x[1:])[0], [theta[i], phi[i]],
                                      method="Nelder-Mead",
                                      options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000})
        best = min(best, res.fun)
    return best


class TestQubitMapMinValue:
    """On M_2, ``min_value`` is the value at the subproblem's pair: the
    least eigenvalue over pure states when the trace of S[|psi><psi|] does
    not vary, an upper bound on it when it does."""

    @pytest.mark.parametrize("seed", range(6))
    def test_trace_preserving_is_minimum(self, seed):
        rng = np.random.default_rng(400 + seed)
        verdict = None
        while verdict is None or verdict.is_cp:
            gen = build_generator(boundary_qubit_spec(rng, rng.uniform(-0.5, 0.5)))
            s = evolve(gen, float(rng.uniform(0.1, 2.0)))
            verdict = map_positivity_check(s)
        assert verdict.proof == posmap.PROOF_TRUST_REGION
        assert verdict.min_value == pytest.approx(least_image_eigenvalue(s), abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_trace_varying_is_upper_bound(self, seed):
        rng = np.random.default_rng(500 + seed)
        verdict = None
        while verdict is None or verdict.is_cp:
            s = (random_qubit_map(rng, 0, rng.uniform(0.0, 1.5)) if seed % 2
                 else build_generator(boundary_qubit_spec(rng, rng.uniform(-0.5, 0.5))).noise)
            verdict = map_positivity_check(s)
        assert verdict.proof == posmap.PROOF_TRUST_REGION
        assert verdict.min_value >= least_image_eigenvalue(s) - 1e-9
        assert gksl.map_functional(s, *verdict.pair) == pytest.approx(verdict.min_value,
                                                                      abs=1e-12)


def flagship_product_generator():
    g1 = build_generator(qubit_spec(np.eye(3)))
    g2 = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
    return gksl.product_generator(g1, g2)


def qubit_check(rates):
    return kossakowski_positivity_check(build_generator(qubit_spec(np.diag(rates))))


def half_least_sum(c1, c2):
    # half the least of every pair sum within a factor and every cross sum
    within = [c[i] + c[j] for c in (c1, c2) for i in range(3) for j in range(i + 1, 3)]
    return min(within + [a + b for a in c1 for b in c2]) / 2


def qubit_generator(rng, c, rotate=True):
    r = gksl.basis_rotation_matrix(random_unitary(rng, 2), pauli_basis()) if rotate else np.eye(3)
    return build_generator(qubit_spec(r.T @ c @ r, random_hermitian(rng, 2)))


class TestQubitProductClosedForm:
    """A NotPositive product of two qubit generators with real symmetric C
    gets its pair in closed form, and half the least pair or cross sum of the
    two spectra as its exact minimum; everything else is searched."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), rotate=st.booleans(), swap=st.booleans())
    def test_matches_search(self, seed, rotate, swap):
        # about 40% of the draws are positive
        rng = np.random.default_rng(seed)
        c1, c2 = rng.uniform(-0.2, 1.5, size=3), rng.uniform(-0.6, 1.5, size=3)
        if swap:
            c1, c2 = c2, c1
        least = half_least_sum(c1, c2)
        assume(abs(least) >= 0.01)
        gen = gksl.product_generator(qubit_generator(rng, np.diag(c1), rotate),
                                     qubit_generator(rng, np.diag(c2), rotate))
        verdict = kossakowski_positivity_check(gen)
        searched = posmap._search(gen.noise, True, posmap.DEFAULT_BUDGET, posmap.DEFAULT_SEED)
        if verdict.status == STATUS_CP:  # both factors have C >= 0
            assert searched.is_positive
        else:
            assert verdict.status == searched.status
        if verdict.status == STATUS_NOT_POSITIVE:
            assert verdict.proof == posmap.PROOF_CLOSED_FORM
            assert verdict.min_value == pytest.approx(least, abs=1e-10)
            assert verdict.min_value <= searched.min_value + 1e-9
            assert gksl.positivity_functional(gen, *verdict.pair) == pytest.approx(
                verdict.min_value, abs=1e-10)
        else:
            assert verdict.proof != posmap.PROOF_CLOSED_FORM
        if qubit_positivity_conditions(*c1) and qubit_positivity_conditions(*c2):
            assert verdict.is_positive == qubit_product_positivity(c1, c2)

    def test_outside_scope_searched(self):
        # a C with an antisymmetric imaginary part, and a nested product; a
        # positive product is searched as well (TestProofLabels, "product")
        cp = build_generator(qubit_spec(np.eye(3)))
        not_positive = gksl.product_generator(
            cp, build_generator(qubit_spec(np.diag([1.0, -1.5, 1.0]))))
        twisted = np.diag([-1.0, 1.5, 1.5]) + 0.2j * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        for gen in (gksl.product_generator(build_generator(qubit_spec(np.diag([0.1, 1.0, 1.0]))),
                                           build_generator(qubit_spec(twisted))),
                    gksl.product_generator(not_positive, gksl.product_generator(cp, cp))):
            verdict = kossakowski_positivity_check(gen, budget=4)
            assert (verdict.status, verdict.proof) == (STATUS_NOT_POSITIVE, posmap.PROOF_SEARCH)

    def test_failed_revalidation_searched(self, monkeypatch):
        # a built pair that does not re-evaluate below the slack proves nothing
        monkeypatch.setattr(gksl, "_functional", lambda s, p, q: 0.0)
        gen = gksl.product_generator(build_generator(qubit_spec(np.eye(3))),
                                     build_generator(qubit_spec(np.diag([1.0, -1.5, 1.0]))))
        verdict = kossakowski_positivity_check(gen, budget=4)
        assert verdict.proof == posmap.PROOF_SEARCH
        assert verdict.start_values is not None


class TestNegativeDefinite:
    """C < 0 makes every orthonormal pair violate: f = w C w^dag with
    |w| = 1 lies in [lambda_min(C), lambda_max(C)]."""

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_built_pair(self, monkeypatch, d):
        rng = np.random.default_rng(40 + d)
        svd = counting(np.linalg.svd)
        monkeypatch.setattr(np.linalg, "svd", svd)
        for _ in range(5):
            gen = negative_definite_generator(rng, d)
            eigh, eigvalsh, verdict = count_eigensolvers(
                monkeypatch, lambda: kossakowski_positivity_check(gen))
            # the spectrum of C only, taken once: no eigenvectors, no search, no SVD
            assert (eigh, eigvalsh, svd.calls) == (0, 1, 0)
            assert (verdict.status, verdict.proof) == (STATUS_NOT_POSITIVE,
                                                       posmap.PROOF_KOSSAKOWSKI_ND)
            w = np.linalg.eigvalsh(gen.spec.c_matrix)
            assert w[0] - 1e-12 <= verdict.min_value <= w[-1] < 0
            psi, phi = verdict.pair
            assert abs(np.vdot(psi, phi)) <= 1e-12
            assert gksl.positivity_functional(gen, psi, phi) == pytest.approx(
                verdict.min_value, abs=1e-12)

    @pytest.mark.parametrize("d", [3, 4])
    def test_real_diagonal(self, d):
        # a real diagonal C: the basis pair's value lies in its spectrum
        c = -np.diag(np.linspace(0.5, 2.0, d * d - 1))
        gen = build_generator(gksl.KossakowskiSpec(d, np.zeros((d, d)), c, gell_mann_basis(d)))
        verdict = kossakowski_positivity_check(gen)
        assert (verdict.status, verdict.proof) == (STATUS_NOT_POSITIVE,
                                                   posmap.PROOF_KOSSAKOWSKI_ND)
        assert -2.0 - 1e-12 <= verdict.min_value <= -0.5
        assert gksl.positivity_functional(gen, *verdict.pair) == pytest.approx(
            verdict.min_value, abs=1e-12)

    @pytest.mark.parametrize("d", [3, 4])
    def test_semidefinite_searched(self, d):
        # -diag(1, ..., 1, 0) has lambda_max = 0 exactly: not C < 0
        c = -np.diag([1.0] * (d * d - 2) + [0.0])
        gen = build_generator(gksl.KossakowskiSpec(d, np.zeros((d, d)), c, gell_mann_basis(d)))
        verdict = kossakowski_positivity_check(gen, budget=8)
        assert (verdict.status, verdict.proof) == (STATUS_NOT_POSITIVE, posmap.PROOF_SEARCH)


class TestProofLabels:
    @pytest.mark.parametrize("verdict,status,proof", [
        (lambda: map_positivity_check(gksl.trace_to_identity_superop(2)),
         STATUS_CP, posmap.PROOF_CHOI),
        (lambda: map_positivity_check(gksl.transpose_superop(2)),
         STATUS_POSITIVE_NOT_CP, posmap.PROOF_TRUST_REGION),
        (lambda: map_positivity_check(build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0]))).noise),
         STATUS_NOT_POSITIVE, posmap.PROOF_TRUST_REGION),
        # X -> Tr(sigma_3 X) 1 / 2: alpha^2 - |beta|^2 >= 0 everywhere, but alpha < 0 at n = -e3
        (lambda: map_positivity_check(np.outer([1, 0, 0, 1], [1, 0, 0, -1]) / 2),
         STATUS_NOT_POSITIVE, posmap.PROOF_TRUST_REGION),
        (lambda: qubit_check([1.0, 1.0, 1.0]), STATUS_CP, posmap.PROOF_KOSSAKOWSKI_PSD),
        (lambda: qubit_check([1.0, -1.0, 1.0]), STATUS_POSITIVE_NOT_CP, posmap.PROOF_TRUST_REGION),
        (lambda: qubit_check([1.0, 1.0, -3.0]), STATUS_NOT_POSITIVE, posmap.PROOF_TRUST_REGION),
        (lambda: kossakowski_positivity_check(build_generator(gksl.KossakowskiSpec(
            3, np.zeros((3, 3)), np.eye(8), gell_mann_basis(3)))),
         STATUS_CP, posmap.PROOF_KOSSAKOWSKI_PSD),
        (lambda: kossakowski_positivity_check(build_generator(gksl.KossakowskiSpec(
            3, np.zeros((3, 3)), -np.eye(8), gell_mann_basis(3)))),
         STATUS_NOT_POSITIVE, posmap.PROOF_KOSSAKOWSKI_ND),
        (lambda: kossakowski_positivity_check(flagship_product_generator(), budget=24),
         STATUS_POSITIVE_NOT_CP, posmap.PROOF_SEARCH),
        (lambda: kossakowski_positivity_check(gksl.product_generator(
            build_generator(qubit_spec(np.eye(3))),
            build_generator(qubit_spec(np.diag([1.0, -1.5, 1.0]))))),
         STATUS_NOT_POSITIVE, posmap.PROOF_CLOSED_FORM),
    ], ids=["cp-map", "transpose", "noise", "trace-sign", "qubit-cp", "qubit-pncp", "qubit-np",
            "qutrit-cp", "qutrit-nd", "product", "product-np"])
    def test_every_path_labelled(self, verdict, status, proof):
        v = verdict()
        assert (v.status, v.proof) == (status, proof)

    def test_search_without_violation_is_no_proof(self):
        # a positive verdict that only failed to find a violation is labelled
        # "search", never one of the proofs
        for budget in (1, 8, 24):
            verdict = kossakowski_positivity_check(flagship_product_generator(), budget=budget)
            if verdict.status != STATUS_NOT_POSITIVE:
                assert verdict.proof == posmap.PROOF_SEARCH
                assert verdict.start_values is not None


def assert_identical(v1, v2):
    # every field, arrays and pairs included, bit for bit
    for f in dataclasses.fields(v1):
        a, b = getattr(v1, f.name), getattr(v2, f.name)
        assert (a is None) == (b is None), f.name
        if a is not None:
            assert np.array_equal(a, b), f.name


class TestPartsRead:
    """The check reads C and the noise part N only: it never builds K, the
    pseudo-Hamiltonian part or the full generator, and builds nothing when
    C >= 0 proves CP at d >= 3."""

    @pytest.mark.parametrize("make,proof,built", [
        (lambda rng: build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0]),
                                                random_hermitian(rng, 2))),
         posmap.PROOF_TRUST_REGION, {"noise"}),
        *((lambda rng, d=d: build_generator(gksl.KossakowskiSpec(
            d, random_hermitian(rng, d), random_psd(rng, d * d - 1), gell_mann_basis(d))),
           posmap.PROOF_KOSSAKOWSKI_PSD, set()) for d in (3, 4, 5)),
        (lambda rng: negative_definite_generator(rng, 3), posmap.PROOF_KOSSAKOWSKI_ND, {"noise"}),
        (lambda rng: gksl.product_generator(
            build_generator(qubit_spec(np.eye(3), random_hermitian(rng, 2))),
            build_generator(qubit_spec(np.diag([1.0, -1.5, 1.0]), random_hermitian(rng, 2)))),
         posmap.PROOF_CLOSED_FORM, {"noise"}),
        (lambda rng: build_generator(gksl.KossakowskiSpec(
            3, random_hermitian(rng, 3), random_hermitian(rng, 8), gell_mann_basis(3))),
         posmap.PROOF_SEARCH, {"noise"}),
    ], ids=["qubit", "cp-3", "cp-4", "cp-5", "nd-3", "qubit-product", "searched-3"])
    def test_builds_only_noise(self, make, proof, built):
        gen = make(np.random.default_rng(240))
        verdict = kossakowski_positivity_check(gen, budget=8)
        assert verdict.proof == proof
        assert built_parts(gen) == built


class TestHamiltonianIndependence:
    """The generator check reads C and the noise part N only: replacing H by
    another Hermitian H' leaves every field of the verdict bit-identical."""

    @staticmethod
    def generators(rng, d, shift, scale):
        # one C, two Hamiltonians; a product gets them on both factors
        n = d * d - 1
        a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
        c = a @ a.conj().T - shift * np.eye(n)
        return [build_generator(gksl.KossakowskiSpec(d, scale * random_hermitian(rng, d), c,
                                                     gell_mann_basis(d)))
                for _ in range(2)]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from([2, 3, 4, "product"]),
           shift=st.floats(0.0, 1.5), scale=st.sampled_from([1.0, 1e3, 1e9]))
    def test_verdict_ignores_hamiltonian(self, seed, kind, shift, scale):
        rng = np.random.default_rng(seed)
        if kind == "product":
            first = self.generators(rng, 2, shift, scale)
            second = self.generators(rng, 2, shift, scale)
            gens = [gksl.product_generator(g1, g2) for g1, g2 in zip(first, second)]
        else:
            gens = self.generators(rng, kind, shift, scale)
        v1, v2 = (kossakowski_positivity_check(g, budget=16) for g in gens)
        assert_identical(v1, v2)

    def test_negative_definite_generator(self):
        # C < 0 builds its pair from C and N alone, so H cannot reach it
        rng = np.random.default_rng(37)
        gens = self.generators(rng, 3, 8.0, 1e3)
        assert np.linalg.eigvalsh(gens[0].spec.c_matrix)[-1] < 0
        v1, v2 = (kossakowski_positivity_check(g) for g in gens)
        assert v1.proof == posmap.PROOF_KOSSAKOWSKI_ND
        assert_identical(v1, v2)

    def test_large_hamiltonian_product(self):
        # depolarizing (x) rates (1, -0.5, 1), both with H = 1e9 sigma_z / 2: the
        # roundoff of -i[H, .] at this scale would split the best starts by 9e-6
        hz = 1e9 * np.diag([0.5, -0.5])
        g1 = build_generator(qubit_spec(np.eye(3), hz))
        g2 = build_generator(qubit_spec(np.diag([1.0, -0.5, 1.0]), hz))
        verdict = kossakowski_positivity_check(gksl.product_generator(g1, g2))
        assert (verdict.status, verdict.proof) == (STATUS_POSITIVE_NOT_CP, posmap.PROOF_SEARCH)
        assert verdict.spread <= posmap.SPREAD_TOL


def proved(verdict):
    # a re-validated violation proves its status whatever the route
    return verdict.proof != posmap.PROOF_SEARCH or verdict.status == STATUS_NOT_POSITIVE


def assert_proved_agree(v, w):
    """Statuses proved on both sides agree; a status left to the search may
    move, and the property's statistics record that it did, beside the
    routes taken."""
    event(f"routes: {v.proof} -> {w.proof}")
    if proved(v) and proved(w):
        assert v.status == w.status, (v.proof, w.proof)
    elif v.status != w.status:
        event(f"search status moved: {v.status} by {v.proof} -> {w.status} by {w.proof}")


def rotated_basis_spec(spec, u):
    # the same generator in the basis conjugated by u, as test_gksl's
    # test_basis_independence builds it
    basis = spec.basis
    r = gksl.basis_rotation_matrix(u, basis)
    rotated = gksl.HermitianBasis(
        spec.dim, (basis.elements[0],) + tuple(u @ f @ u.conj().T for f in basis.traceless()))
    return gksl.KossakowskiSpec(spec.dim, spec.hamiltonian, r @ spec.c_matrix @ r.T, rotated)


def replaced_hamiltonian_spec(rng, spec):
    return gksl.KossakowskiSpec(spec.dim, 10.0 * random_hermitian(rng, spec.dim), spec.c_matrix,
                                spec.basis)


class TestMetamorphic:
    """Transforms that keep positivity, applied to an input whose structure
    picks one proof route, often send it down another (a rotated basis takes
    a qubit product off the closed form and onto the search).  Every status
    proved on both sides agrees."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["qubit", "qutrit", "negative-definite", "product"]))
    def test_generators(self, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "product":
            c1, c2 = rng.uniform(-0.2, 1.5, size=3), rng.uniform(-0.6, 1.5, size=3)
            g1, g2 = qubit_generator(rng, np.diag(c1)), qubit_generator(rng, np.diag(c2))
            gen = gksl.product_generator(g1, g2)
            rotated = [build_generator(rotated_basis_spec(g.spec, random_unitary(rng, 2)))
                       for g in (g1, g2)]
            new_h = [build_generator(replaced_hamiltonian_spec(rng, g.spec)) for g in (g1, g2)]
            transformed = [gksl.product_generator(g2, g1), gksl.product_generator(*rotated),
                           gksl.product_generator(*new_h)]
        else:
            if kind == "negative-definite":
                spec = negative_definite_generator(rng, int(rng.integers(3, 5))).spec
            else:
                spec = sample_spec(rng, 2 if kind == "qubit" else 3)
            gen = build_generator(spec)
            u = random_unitary(rng, spec.dim)
            transformed = [build_generator(rotated_basis_spec(spec, u)),
                           build_generator(replaced_hamiltonian_spec(rng, spec))]
        verdict = kossakowski_positivity_check(gen, budget=16)
        for other in transformed:
            assert_proved_agree(verdict, kossakowski_positivity_check(other, budget=16))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["qubit", "choi-map"]),
           log_scale=st.floats(np.log(1e-2), np.log(1e3)))
    def test_maps(self, seed, kind, log_scale):
        # S -> Ad_U o S o Ad_V for random unitaries U, V, S -> c S for c > 0, and
        # S -> T o S o T, S with its entries conjugated (Choi matrix conj(J)); it is
        # applied to the rotated map, since a real S such as Phi[a,b,c] is its own image
        rng = np.random.default_rng(seed)
        if kind == "qubit":
            c = np.diag(rng.uniform(-1.0, 1.5, size=3))
            s, d = evolve(qubit_generator(rng, c), rng.uniform(0.05, 1.0)), 2
        else:
            s, d = choi_map(rng.uniform(1.0, 2.9), *rng.uniform(0.2, 2.0, size=2)), 3
        u, v = random_unitary(rng, d), random_unitary(rng, d)
        ad_u, ad_v = (gksl.conjugation_superop(w, w.conj().T) for w in (u, v))
        t = gksl.transpose_superop(d)
        rotated = ad_u @ s @ ad_v
        verdict = map_positivity_check(s)
        for other in (rotated, np.exp(log_scale) * s, t @ rotated @ t):
            assert_proved_agree(verdict, map_positivity_check(other))


class TestMapPositivity:
    def test_transposition_positive_not_cp(self):
        verdict = map_positivity_check(gksl.transpose_superop(2), budget=8)
        assert verdict.status == STATUS_POSITIVE_NOT_CP
        assert verdict.min_value >= -1e-12

    def test_noise_not_positive(self):
        gen = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
        verdict = map_positivity_check(gen.noise, budget=16)
        assert verdict.status == STATUS_NOT_POSITIVE
        assert verdict.min_value == pytest.approx(-0.5, abs=1e-9)

    def test_cp_shortcircuit(self):
        verdict = map_positivity_check(gksl.trace_to_identity_superop(2))
        assert verdict.status == STATUS_CP

    def test_far_transpose_mixing_decomposed(self):
        # (1+a)/2 id + (1-a)/2 T at gamma t = 2, rotated: the search alone
        # cannot separate its flat minimum from zero; the exact qubit route can
        rng = np.random.default_rng(38)
        r = gksl.basis_rotation_matrix(random_unitary(rng, 2), pauli_basis())
        gen = build_generator(qubit_spec(r.T @ np.diag([1.0, -1.0, 1.0]) @ r))
        verdict = map_positivity_check(evolve(gen, 2.0))
        assert verdict.status == STATUS_POSITIVE_NOT_CP
        assert verdict.proof == posmap.PROOF_TRUST_REGION
        # trace-preserving: min_value is the exact minimum, 0 for this family
        assert abs(verdict.min_value) <= posmap.PSD_SLACK

    @pytest.mark.parametrize("check,arg", [
        (map_positivity_check, gksl.transpose_superop(2)),
        (kossakowski_positivity_check, build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))),
    ])
    def test_zero_budget_rejected(self, check, arg):
        with pytest.raises(PreconditionError):
            check(arg, budget=0)

    @pytest.mark.parametrize("check,arg", [
        (map_positivity_check, gksl.transpose_superop(2)),
        (kossakowski_positivity_check, build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))),
    ])
    def test_negative_seed_rejected(self, check, arg):
        # rejected before any exact route, although neither of these would search
        with pytest.raises(PreconditionError, match="seed"):
            check(arg, seed=-1)

    @pytest.mark.parametrize("check,arg", [
        (map_positivity_check, gksl.transpose_superop(2)),
        (kossakowski_positivity_check, build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))),
    ])
    @pytest.mark.parametrize("name", ["budget", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(4.0), "4"])
    def test_non_integer_search_args_rejected(self, check, arg, name, value):
        # 2.5 raised a TypeError from np.full (budget) or SeedSequence (seed) when
        # a search ran, and passed silently when an exact route decided
        with pytest.raises(PreconditionError, match=f"{name} must be an integer"):
            check(arg, **{name: value})

    @pytest.mark.parametrize("check,arg", [
        (map_positivity_check, choi_map(2.0, 0.6, 0.6)),
        (kossakowski_positivity_check, build_generator(gksl.KossakowskiSpec(
            3, np.zeros((3, 3)), np.diag([1.0] * 7 + [-0.2]), gell_mann_basis(3)))),
    ])
    def test_numpy_integer_search_args(self, check, arg):
        # both of these search; numpy integers give the verdict Python integers give
        expected = check(arg, budget=4, seed=7)
        verdict = check(arg, budget=np.int64(4), seed=np.uint32(7))
        assert (verdict.status, verdict.proof, verdict.min_value) == (
            expected.status, expected.proof, expected.min_value)
        assert len(verdict.start_values) == 4


def cho_kye_lee(a, b, c):
    """(positive, decomposable) for Phi[a,b,c] with 1 <= a <= 3 and b, c >= 0
    (Cho, Kye & Lee, Linear Algebra Appl. 171 (1992)): positive iff
    a + b + c >= 3 and, when a < 2, bc >= (2 - a)^2; decomposable iff
    bc >= (3 - a)^2 / 4."""
    positive = a + b + c >= 3 and (a >= 2 or b * c >= (2 - a) ** 2)
    return positive, b * c >= (3 - a) ** 2 / 4


class TestDecompositionProof:
    """Rung 0: a map the search leaves without a violation is proved positive
    by one capped projection loop, when its certificate re-verifies."""

    @pytest.mark.parametrize("abc,searched,status,proof", [
        ((2.0, 0.6, 0.6), STATUS_POSITIVE_NOT_CP, STATUS_POSITIVE_NOT_CP,
         posmap.PROOF_DECOMPOSITION),
        ((1.2, 1.0, 0.9), STATUS_POSITIVE_NOT_CP, STATUS_POSITIVE_NOT_CP,
         posmap.PROOF_DECOMPOSITION),
        # positive, not decomposable: the loop witnesses, the search verdict stands
        ((2.0, 0.1, 1.2), posmap.STATUS_UNDETERMINED, posmap.STATUS_UNDETERMINED,
         posmap.PROOF_SEARCH),
        ((1.5, 1.2, 0.4), STATUS_POSITIVE_NOT_CP, STATUS_POSITIVE_NOT_CP, posmap.PROOF_SEARCH),
    ])
    def test_choi_maps(self, abc, searched, status, proof):
        s = choi_map(*abc)
        search = posmap._search(matcore.as_cmatrix(s), False, 16, posmap.DEFAULT_SEED)
        verdict = map_positivity_check(s)
        assert search.status == searched
        assert (verdict.status, verdict.proof) == (status, proof)
        assert verdict.min_value == search.min_value
        assert verdict.choi_min_eig == is_completely_positive(s).choi_min_eig
        assert (verdict.reason is None) == (status != posmap.STATUS_UNDETERMINED)

    def test_violation_skips_the_loop(self, monkeypatch):
        def refuse(jm, max_iter):
            raise AssertionError("the loop ran after a violation")

        monkeypatch.setattr(decomp, "_feasibility", refuse)
        verdict = map_positivity_check(choi_map(1.5, 0.3, 0.9))
        assert (verdict.status, verdict.proof) == (STATUS_NOT_POSITIVE, posmap.PROOF_SEARCH)

    def test_budget_is_capped(self, monkeypatch):
        # Phi[2, 0.6, 0.6] certifies in 64 iterations, not in 10
        monkeypatch.setattr(posmap, "DECOMPOSITION_MAX_ITER", 10)
        s = choi_map(2.0, 0.6, 0.6)
        search = posmap._search(matcore.as_cmatrix(s), False, 16, posmap.DEFAULT_SEED)
        verdict = map_positivity_check(s)
        assert (verdict.status, verdict.proof) == (search.status, posmap.PROOF_SEARCH)

    def test_certificate_is_reverified(self, monkeypatch):
        # a certificate whose J2 = B is not PSD proves nothing: with the PSD
        # part of every spectral split shifted by -1e-3, the loop's B fails
        parts = decomp._spectral_parts

        def shifted(h):
            w, v, pos = parts(h)
            return w, v, pos - 1e-3 * np.eye(h.shape[0])

        monkeypatch.setattr(decomp, "_spectral_parts", shifted)
        s = choi_map(2.0, 0.6, 0.6)
        search = posmap._search(matcore.as_cmatrix(s), False, 16, posmap.DEFAULT_SEED)
        verdict = map_positivity_check(s)
        assert (verdict.status, verdict.proof) == (search.status, posmap.PROOF_SEARCH)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(1.0, 2.9), excess=st.floats(0.3, 4.0), log_ratio=st.floats(-2.3, 2.3))
    def test_cho_kye_lee(self, a, excess, log_ratio):
        # bc = excess times the decomposability boundary (3 - a)^2 / 4, b / c = e^log_ratio
        p = excess * (3 - a) ** 2 / 4
        b = np.sqrt(p * np.exp(log_ratio))
        positive, decomposable = cho_kye_lee(a, b, p / b)
        verdict = map_positivity_check(choi_map(a, b, p / b))
        if verdict.proof == posmap.PROOF_DECOMPOSITION:
            assert positive and decomposable
            assert verdict.status == STATUS_POSITIVE_NOT_CP
        if 1.2 <= excess <= 4.0:
            assert verdict.proof == posmap.PROOF_DECOMPOSITION

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(1.0, 2.9), excess=st.floats(1.0, 1.5),
           log_ratio=st.floats(np.log(0.1), np.log(10.0)))
    def test_budget_certifies_near_boundary(self, a, excess, log_ratio):
        # decomposable Phi[a,b,c] between 1 and 1.5 times the boundary product,
        # the region of decomp's accelerated tests, with 0.1 <= b/c <= 10: the
        # loop certifies within DECOMPOSITION_MAX_ITER, as its comment states
        p = excess * (3 - a) ** 2 / 4
        b = np.sqrt(p * np.exp(log_ratio))
        assert cho_kye_lee(a, b, p / b) == (True, True)
        verdict = map_positivity_check(choi_map(a, b, p / b))
        assert (verdict.status, verdict.proof) == (STATUS_POSITIVE_NOT_CP,
                                                   posmap.PROOF_DECOMPOSITION)

    def test_lopsided_ratio_certified(self):
        # bc at 1.2 times the boundary (3 - a)^2 / 4 = 1, b/c = 100: decomposable
        verdict = map_positivity_check(choi_map(1.0, 10.954, 0.1095))
        assert (verdict.status, verdict.proof) == (STATUS_POSITIVE_NOT_CP,
                                                   posmap.PROOF_DECOMPOSITION)

    @pytest.mark.xfail(strict=True, reason=(
        "b/c = 1000 at 1.05 times the boundary: the loop does not certify within "
        "6000 iterations, far past DECOMPOSITION_MAX_ITER = 1024"))
    def test_lopsided_ratio_1000_certified(self):
        # bc at 1.05 times the boundary (3 - a)^2 / 4 = 1, b/c = 1000: decomposable
        b = np.sqrt(1.05 * 1000)
        verdict = map_positivity_check(choi_map(1.0, b, 1.05 / b))
        assert (verdict.status, verdict.proof) == (STATUS_POSITIVE_NOT_CP,
                                                   posmap.PROOF_DECOMPOSITION)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(1.0, 2.9), excess=st.floats(1.05, 2.0),
           log_ratio=st.floats(np.log(10.0), np.log(100.0)))
    def test_budget_certifies_lopsided(self, a, excess, log_ratio):
        # decomposable Phi[a,b,c] with 10 <= b/c <= 100 can need hundreds of
        # iterations, still within DECOMPOSITION_MAX_ITER
        p = excess * (3 - a) ** 2 / 4
        b = np.sqrt(p * np.exp(log_ratio))
        assert cho_kye_lee(a, b, p / b) == (True, True)
        verdict = map_positivity_check(choi_map(a, b, p / b))
        assert (verdict.status, verdict.proof) == (STATUS_POSITIVE_NOT_CP,
                                                   posmap.PROOF_DECOMPOSITION)


class TestExactGradient:
    @pytest.mark.parametrize("restricted", [True, False])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_central_differences(self, d, restricted):
        # the gradient of f(psi / |psi|) at unit rows psi, in the real
        # coordinates (Re psi, Im psi)
        rng = np.random.default_rng(36 + d)
        n = d * d - 1
        basis = pauli_basis() if d == 2 else gell_mann_basis(d)
        spec = gksl.KossakowskiSpec(d, random_hermitian(rng, d), random_hermitian(rng, n), basis)
        op = posmap._prepare(build_generator(spec).full)
        xs = rng.normal(size=(4, 2 * d))
        psi = unit_rows(xs[:, :d] + 1j * xs[:, d:])
        _, grad, _ = posmap._evaluate(op, psi, restricted)
        h = 1e-6
        for k in range(2 * d):
            e = np.zeros(d, dtype=complex)
            e[k % d] = h if k < d else 1j * h
            hi = posmap._evaluate(op, unit_rows(psi + e), restricted)[0]
            lo = posmap._evaluate(op, unit_rows(psi - e), restricted)[0]
            part = grad[:, k].real if k < d else grad[:, k - d].imag
            assert np.abs((hi - lo) / (2 * h) - part).max() <= 1e-6


def unit_rows(z):
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestPreparedKernel:
    """One stage of the search on the operator prepared once per search
    agrees with the earlier formulation, which transposed and hermitized
    every image on each call (``helpers.reference_evaluate``)."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), rows=st.integers(1, 64),
           restricted=st.booleans(), kind=st.sampled_from(["noise", "evolved", "any"]),
           log_scale=st.floats(np.log(1e-2), np.log(1e3)))
    def test_matches_reference(self, seed, d, rows, restricted, kind, log_scale):
        rng = np.random.default_rng(seed)
        n = d * d - 1
        basis = pauli_basis() if d == 2 else gell_mann_basis(d)
        c = np.exp(log_scale) * random_hermitian(rng, n)
        gen = build_generator(gksl.KossakowskiSpec(d, random_hermitian(rng, d), c, basis))
        if kind == "noise":
            s = gen.noise
        elif kind == "evolved":
            s = evolve(gen, rng.uniform(0.05, 1.0) / np.exp(log_scale))
        else:  # a d^2 x d^2 matrix that need not preserve Hermiticity
            s = np.exp(log_scale) * random_complex(rng, d * d)
        x = rng.normal(size=(rows, 2 * d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        psi = x[:, :d] + 1j * x[:, d:]
        value, grad, phi = posmap._evaluate(posmap._prepare(s), psi, restricted)
        ref_value, ref_grad, _ = reference_evaluate(s, x, restricted)
        tol = matcore._tol(1e-12, float(np.abs(s).max()))
        assert np.abs(value - ref_value).max() <= tol
        assert np.abs(grad - (ref_grad[:, :d] + 1j * ref_grad[:, d:])).max() <= tol
        # phi attains the value Re <phi|S[|psi><psi|]|phi>, orthogonal to psi when restricted
        for p, q, v in zip(psi, phi, value):
            assert abs(np.vdot(q, gksl.apply_superop(s, np.outer(p, p.conj())) @ q).real - v) <= tol
            assert not restricted or abs(np.vdot(p, q)) <= 1e-12

    @pytest.mark.parametrize("restricted,s", [
        (True, build_generator(gksl.KossakowskiSpec(
            3, np.zeros((3, 3)), np.diag([1.0] * 7 + [-0.2]), gell_mann_basis(3))).noise),
        (False, choi_map(2.0, 0.1, 1.2)),
    ])
    def test_one_batched_eigh_per_stage(self, monkeypatch, restricted, s):
        stages = counting(posmap._evaluate)
        monkeypatch.setattr(posmap, "_evaluate", stages)
        calls, verdict = eigensolver_calls(
            monkeypatch, lambda: posmap._search(s, restricted, 16, posmap.DEFAULT_SEED))
        assert stages.calls > 1
        assert calls == [("eigh", np.dtype(np.complex128))] * stages.calls
        assert len(verdict.start_values) == 16


def gell_mann_noise(d, c):
    """Noise part of the d-level generator with Kossakowski matrix C in the
    Gell-Mann basis; for C = 1 - s v v^dag, f = 1 - s |<phi|V|psi>|^2 on an
    orthonormal pair, with V = sum_a conj(v_a) F_a."""
    return build_generator(gksl.KossakowskiSpec(d, np.zeros((d, d)), c, gell_mann_basis(d))).noise


def boundary_product_noise(rng, gap, twist):
    """Noise part of a rotated product of two qubit generators, the first with
    nonnegative rates and the second positive, not CP, whose least cross sum
    of rates is ``gap`` (so min f = gap / 2); ``twist`` adds an antisymmetric
    imaginary part to both factors' C (complex C), which moves the boundary."""
    m = rng.uniform(0.2, 1.0)
    c2 = np.array([-m, m + rng.uniform(0.05, 1.0), m + rng.uniform(0.05, 1.0)])
    c1 = m + gap + np.array([0.0, *rng.uniform(0.0, 1.0, size=2)])
    factors = []
    for c in (c1, c2):
        a = rng.normal(size=(3, 3))
        factors.append(qubit_generator(rng, np.diag(rng.permutation(c)) + 1j * twist * (a - a.T)))
    return gksl.product_generator(*factors).noise


class TestStepCap:
    """An accepted step grows up to max(1, SEARCH_MAX_TURN / |g|), so that on
    flat stretches it turns psi by about SEARCH_MAX_TURN rather than by |g|;
    the search it replaced capped every step at 1 (``helpers.reference_search``)."""

    def test_flat_product_converges(self, monkeypatch):
        # a positive qubit product whose minimum 0 lies on the boundary: with
        # the step capped at 1 some starts crawl, and the search runs all 200
        # stages; a stage takes at most one step per start, so fewer than
        # SEARCH_MAX_ITER stages means that no start reached SEARCH_MAX_ITER
        rng = np.random.default_rng(7)
        gen = gksl.product_generator(qubit_generator(rng, np.diag([1.0, 1.0, 1.0])),
                                     qubit_generator(rng, np.diag([1.0, -0.5, 1.0])))
        stages = counting(posmap._evaluate)
        monkeypatch.setattr(posmap, "_evaluate", stages)
        verdict = kossakowski_positivity_check(gen)
        assert (verdict.status, verdict.proof) == (STATUS_POSITIVE_NOT_CP, posmap.PROOF_SEARCH)
        assert stages.calls - 1 <= 150 < posmap.SEARCH_MAX_ITER

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           family=st.sampled_from(["rank-one-3", "rank-one-4", "real-product", "complex-product"]),
           log_gap=st.floats(-12.0, -1.0), below=st.booleans())
    # least cross sum -1e-8, so min f = -5e-9: the reference ends PositiveNotCP
    @example(seed=25, family="real-product", log_gap=-8.0, below=True)
    def test_statuses_match_reference(self, seed, family, log_gap, below):
        # inputs within 10^log_gap of the positivity boundary, on either side;
        # both searches run on the same input, so examples align by input.
        # A NotPositive verdict is proved by its re-validated pair, so it may
        # replace any reference status; otherwise a decided reference status
        # must be kept, and only a reference Undetermined may become decided
        rng = np.random.default_rng(seed)
        gap = -(10.0 ** log_gap) if below else 10.0 ** log_gap
        if family.startswith("rank-one"):
            d = int(family[-1])
            v = random_unit_vector(rng, d * d - 1)
            vv = np.outer(v, v.conj())
            # min f at C = -v v^dag is -max |<phi|V|psi>|^2 =: -m, so at
            # C = 1 - (1 - gap) / m v v^dag the minimum of f is gap
            m = -reference_search(gell_mann_noise(d, -vv), True, posmap.DEFAULT_BUDGET,
                                  posmap.DEFAULT_SEED).min_value
            s = gell_mann_noise(d, np.eye(d * d - 1) - (1.0 - gap) / m * vv)
        else:
            s = boundary_product_noise(rng, gap, 0.2 if family == "complex-product" else 0.0)
        verdict = posmap._search(s, True, posmap.DEFAULT_BUDGET, posmap.DEFAULT_SEED)
        reference = reference_search(s, True, posmap.DEFAULT_BUDGET, posmap.DEFAULT_SEED)
        event(f"{reference.status} -> {verdict.status}")
        if verdict.status == STATUS_NOT_POSITIVE:
            slack = matcore._tol(matcore.PSD_SLACK, float(np.abs(s).max()))
            assert gksl._functional(s, *verdict.pair) == verdict.min_value < -slack
        elif reference.status != posmap.STATUS_UNDETERMINED:
            assert verdict.status == reference.status


class TestQubitConditions:
    @pytest.mark.parametrize(
        "rates,expected",
        [((1, -1, 1), True), ((1, 1, 1), True), ((1, -1, -1), False), ((1, 1, -3), False)],
    )
    def test_examples(self, rates, expected):
        assert qubit_positivity_conditions(*rates) is expected


class TestProductConditions:
    def test_identity_rotation_failure(self):
        c = np.diag([1.0, -1.0, 1.0])
        rep = product_positivity_necessary(c, c, pauli_basis(), np.eye(2))
        assert rep.min_eigenvalue == pytest.approx(-2.0, abs=1e-12)
        assert not rep.necessary_ok

    def test_exchange_rotations_pass(self):
        c1 = np.eye(3)
        c2 = np.diag([1.0, -1.0, 1.0])
        exchanges = [
            np.eye(2, dtype=complex),
            (SIGMA[1] + SIGMA[2]) / np.sqrt(2),
            (SIGMA[1] + SIGMA[3]) / np.sqrt(2),
            (SIGMA[2] + SIGMA[3]) / np.sqrt(2),
        ]
        worst = min(
            product_positivity_necessary(c1, c2, pauli_basis(), v).min_eigenvalue
            for v in exchanges
        )
        assert worst == pytest.approx(0.0, abs=1e-12)
        for v in exchanges:
            assert product_positivity_necessary(c1, c2, pauli_basis(), v).necessary_ok

    def test_zero_second_factor(self):
        c1 = np.diag([0.5, 1.0, 2.0])
        rep = product_positivity_necessary(c1, np.zeros((3, 3)), pauli_basis(), np.eye(2))
        assert rep.necessary_ok
        assert rep.min_eigenvalue == pytest.approx(0.5, abs=1e-12)

    def test_nonunitary_rejected(self):
        with pytest.raises(PreconditionError):
            product_positivity_necessary(
                np.eye(3), np.eye(3), pauli_basis(), np.diag([1.0, 2.0])
            )

    @pytest.mark.parametrize(
        "c1,c2,expected",
        [
            ((1, 1, 1), (1, -1, 1), True),
            ((1, 1, 1), (1, -2, 1), False),
            ((3, 3, 3), (2, -2, 2), True),
            ((1, 1, 1), (1, 1, 1), True),
        ],
    )
    def test_sufficient(self, c1, c2, expected):
        assert product_positivity_sufficient(c1, c2) is expected

    @pytest.mark.parametrize("check", [product_positivity_sufficient, qubit_product_positivity])
    @pytest.mark.parametrize("c2", [(np.nan, 1, 1), (np.inf, -1, 1)])
    def test_non_finite_rates_rejected(self, check, c2):
        with pytest.raises(DomainError):
            check((1, 1, 1), c2)

    def test_sufficient_preconditions(self):
        with pytest.raises(PreconditionError):
            product_positivity_sufficient((1, -1, 1), (1, 1, 1))
        with pytest.raises(PreconditionError):
            product_positivity_sufficient((1, 1, 1), (-1, -1, 1))

    @pytest.mark.parametrize(
        "c1,c2,expected",
        [
            ((1, 1, 1), (1, -1, 1), True),
            ((1, 1, 1), (2, -1.5, 2), False),
            ((1, 2, 3), (0.5, 1, 2), True),
        ],
    )
    def test_qubit_product(self, c1, c2, expected):
        assert qubit_product_positivity(c1, c2) is expected

    def test_qubit_product_precondition(self):
        with pytest.raises(PreconditionError):
            qubit_product_positivity((1, 1, 1), (1, -1, -1))
