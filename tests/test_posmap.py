from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgwl import decomp, gksl, matcore, posmap
from sgwl.gksl import SIGMA, build_generator, evolve, gell_mann_basis, pauli_basis, qubit_spec
from sgwl.matcore import PreconditionError
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

from helpers import random_hermitian, random_psd, random_unitary


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

        def canned(l_mat, xs, restricted):
            # both starts settle at once: zero gradient
            return np.array([0.3, 0.7]), np.zeros_like(xs), np.zeros((2, d), dtype=complex)

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
        search = posmap._search(gen.full, partial(gksl.positivity_functional, gen), True,
                                posmap.DEFAULT_BUDGET, posmap.DEFAULT_SEED)
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

    def test_failed_bound_falls_back_to_search(self, monkeypatch):
        gen = build_generator(qubit_spec(np.diag([1.0, -0.5, 1.0])))
        monkeypatch.setattr(posmap, "_sphere_minimum", lambda q, g: (np.array([0, 0, 1.0]), -1.0))
        verdict = kossakowski_positivity_check(gen, budget=8)
        assert verdict.status == STATUS_POSITIVE_NOT_CP
        assert verdict.proof == posmap.PROOF_SEARCH


def flagship_product_generator():
    g1 = build_generator(qubit_spec(np.eye(3)))
    g2 = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
    return gksl.product_generator(g1, g2)


def qubit_check(rates):
    return kossakowski_positivity_check(build_generator(qubit_spec(np.diag(rates))))


class TestProofLabels:
    @pytest.mark.parametrize("verdict,status,proof", [
        (lambda: map_positivity_check(gksl.trace_to_identity_superop(2)),
         STATUS_CP, posmap.PROOF_CHOI),
        (lambda: map_positivity_check(gksl.transpose_superop(2)),
         STATUS_POSITIVE_NOT_CP, posmap.PROOF_DECOMPOSITION),
        (lambda: map_positivity_check(build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0]))).noise),
         STATUS_NOT_POSITIVE, posmap.PROOF_SEARCH),
        (lambda: qubit_check([1.0, 1.0, 1.0]), STATUS_CP, posmap.PROOF_KOSSAKOWSKI_PSD),
        (lambda: qubit_check([1.0, -1.0, 1.0]), STATUS_POSITIVE_NOT_CP, posmap.PROOF_TRUST_REGION),
        (lambda: qubit_check([1.0, 1.0, -3.0]), STATUS_NOT_POSITIVE, posmap.PROOF_TRUST_REGION),
        (lambda: kossakowski_positivity_check(build_generator(gksl.KossakowskiSpec(
            3, np.zeros((3, 3)), np.eye(8), gell_mann_basis(3)))),
         STATUS_CP, posmap.PROOF_KOSSAKOWSKI_PSD),
        (lambda: kossakowski_positivity_check(flagship_product_generator(), budget=24),
         STATUS_POSITIVE_NOT_CP, posmap.PROOF_SEARCH),
    ], ids=["cp-map", "transpose", "noise", "qubit-cp", "qubit-pncp", "qubit-np", "qutrit-cp",
            "product"])
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
        # cannot separate its flat minimum from zero
        rng = np.random.default_rng(38)
        r = gksl.basis_rotation_matrix(random_unitary(rng, 2), pauli_basis())
        gen = build_generator(qubit_spec(r.T @ np.diag([1.0, -1.0, 1.0]) @ r))
        verdict = map_positivity_check(evolve(gen, 2.0))
        assert verdict.status == STATUS_POSITIVE_NOT_CP
        assert verdict.proof == posmap.PROOF_DECOMPOSITION

    def test_witness_without_pair_undetermined(self, monkeypatch):
        # the witness proves the noise map is not positive; with no violating
        # pair to show for it the verdict says why it is undetermined
        noise = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0]))).noise

        def canned(l_mat, xs, restricted):
            return np.full(len(xs), 0.5), np.zeros_like(xs), np.zeros((len(xs), 2), dtype=complex)

        monkeypatch.setattr(posmap, "_evaluate", canned)
        verdict = map_positivity_check(noise, budget=4)
        assert verdict.status == posmap.STATUS_UNDETERMINED
        assert verdict.proof == posmap.PROOF_SEARCH
        assert "witness" in verdict.reason

    def test_tampered_certificate_rejected(self, monkeypatch):
        # a certificate whose blocks do not reassemble J proves nothing
        def forged(j, max_iter=50000):
            cert = decomp.DecompositionCertificate(j1=np.eye(4) / 4, j2=np.zeros((4, 4)),
                                                   residual=0.0)
            return decomp.FeasibilityResult(status=decomp.FEASIBLE, certificate=cert)

        monkeypatch.setattr(decomp, "decomposability_feasibility", forged)
        verdict = map_positivity_check(gksl.transpose_superop(2), budget=8)
        assert verdict.status == STATUS_POSITIVE_NOT_CP
        assert verdict.proof == posmap.PROOF_SEARCH

    @pytest.mark.parametrize("check,arg", [
        (map_positivity_check, gksl.transpose_superop(2)),
        (kossakowski_positivity_check, build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))),
    ])
    def test_zero_budget_rejected(self, check, arg):
        with pytest.raises(PreconditionError):
            check(arg, budget=0)


class TestExactGradient:
    @pytest.mark.parametrize("restricted", [True, False])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_central_differences(self, d, restricted):
        rng = np.random.default_rng(36 + d)
        n = d * d - 1
        basis = pauli_basis() if d == 2 else gell_mann_basis(d)
        spec = gksl.KossakowskiSpec(d, random_hermitian(rng, d), random_hermitian(rng, n), basis)
        l_mat = build_generator(spec).full
        xs = rng.normal(size=(4, 2 * d))
        _, grad, _ = posmap._evaluate(l_mat, xs, restricted)
        h = 1e-6
        for k in range(2 * d):
            e = np.zeros(2 * d)
            e[k] = h
            hi = posmap._evaluate(l_mat, xs + e, restricted)[0]
            lo = posmap._evaluate(l_mat, xs - e, restricted)[0]
            assert np.abs((hi - lo) / (2 * h) - grad[:, k]).max() <= 1e-6


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
