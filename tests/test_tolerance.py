"""The tolerance rule of ``matcore`` and the verdicts it keeps.

A generator L and its multiple c L (c > 0) generate the same maps at
rescaled times, so positivity, complete positivity, decomposability and the
witness pairing must come out the same for both.  Every accept/reject test
applies ``tol`` unchanged to data of size at most 1 and ``tol * size``
above that, so the verdicts agree while both sizes are at least 1: the
scales below are 1 and up.  The cases below are rescaled inputs that an
absolute threshold got wrong: rates near 1e6, the size of physical decay
rates in 1/s.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgwl import decomp, gksl, matcore, posmap
from sgwl.decomp import FEASIBLE, INFEASIBLE_WITNESSED, decomposability_feasibility
from sgwl.gksl import SIGMA, build_generator, evolve, gell_mann_basis, qubit_spec
from sgwl.posmap import (
    STATUS_CP,
    STATUS_NOT_POSITIVE,
    STATUS_POSITIVE_NOT_CP,
    choi,
    kossakowski_positivity_check,
    map_positivity_check,
)

from helpers import negative_definite_generator, random_hermitian
from test_decomp import assert_certificate, assert_witness, choi_map

SCALES = st.sampled_from([1.0, 1e3, 1e6, 1e8, 1e9])
# powers of two up to near the float maximum, where a product of two entries,
# or at 2^1022 a sum of them, overflows; every decision reads the unit copy of
# its data (matcore._unit), so nothing it forms overflows
HUGE_SCALES = st.sampled_from([2.0**512, 2.0**1000, 2.0**1022])


def trace_deviation(s):
    d = int(round(np.sqrt(s.shape[0])))
    return np.abs(s[:: d + 1].sum(axis=0) - np.eye(d).reshape(-1)).max()


def rank_one_qubit_generator(rng, scale, h_scale=None):
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    h = random_hermitian(rng, 2)
    h_scale = scale if h_scale is None else h_scale
    return build_generator(qubit_spec(scale * np.outer(c, c.conj()), h_scale * h))


class TestRule:
    def test_floor_then_scale(self):
        assert matcore._tol(1e-10, 0.0) == matcore._tol(1e-10, 1.0) == 1e-10
        assert matcore._tol(1e-10, 0.3) == 1e-10
        assert matcore._tol(1e-10, 1e6) == pytest.approx(1e-4, rel=1e-15)

    def test_psd_bound_is_the_rule(self):
        assert matcore._psd_bound(np.array([-0.5, 0.2])) == -matcore.PSD_SLACK
        assert matcore._psd_bound(np.array([-3.0, 2.0])) == -3.0 * matcore.PSD_SLACK

    def test_real_part(self):
        big = np.full((2, 2), 1e6)
        assert matcore._real(2.5 + 1e-11j, "value", big) == 2.5
        assert matcore._real(2.5 + 1e-5j, "value", big) == 2.5
        with pytest.raises(matcore.NumericalError, match="value has imaginary part 1.000e-03"):
            matcore._real(2.5 + 1e-3j, "value", big)
        # the scale is the product of the data's largest entries
        assert matcore._real(1.0 + 1e-5j, "value", big, np.full((2, 2), 0.5)) == 1.0
        with pytest.raises(matcore.NumericalError, match="pairing"):
            matcore._real(1.0 + 1e-5j, "pairing", big, np.full((2, 2), 1e-4))

    def test_hermiticity_gate_scales(self):
        a = np.array([[1e6, 1e-7], [0.0, 1.0]])
        assert np.array_equal(matcore.as_hermitian(a), (a + a.T) / 2)
        with pytest.raises(matcore.HermiticityError):
            matcore.as_hermitian(np.array([[1.0, 1e-11], [0.0, 1.0]]))


class TestRescaledInputs:
    """Each case gave a wrong verdict or a NumericalError under absolute
    thresholds; the same input at scale 1 was always right."""

    @pytest.mark.parametrize("j", [
        choi(decomp.witness_product_map(1.0)),
        choi(choi_map(2.0, 1.0, 0.3)),
    ], ids=["flagship-1.0", "phi-2-1-0.3"])
    def test_scaled_certificate_kept(self, j):
        # the certificate was found, then discarded by an absolute residual test
        res = decomposability_feasibility(1e9 * j)
        assert res.status == FEASIBLE
        assert_certificate(1e9 * j, res)
        assert_certificate(j, unscaled(res, 1e9))

    def test_scaled_complex_pairing(self):
        # the pairing's imaginary part, -1.2e-10 at this scale, is roundoff
        u = np.kron(np.eye(4), np.diag(np.exp(1j * np.linspace(0.0, 2.0, 4))))
        j = u @ choi(decomp.witness_product_map(0.2)) @ u.conj().T
        res = decomposability_feasibility(1e9 * j)
        assert res.status == INFEASIBLE_WITNESSED
        assert_witness(j, unscaled(res, 1e9))
        assert res.pairing / 1e9 == pytest.approx(decomposability_feasibility(j).pairing,
                                                  rel=1e-12)

    def test_scaled_qutrit_map_functional(self):
        spec = gksl.KossakowskiSpec(3, np.diag([1.0, -1.0, 0.5]), -np.eye(8), gell_mann_basis(3))
        s = evolve(build_generator(spec), 2.0)
        assert map_positivity_check(s).status == STATUS_NOT_POSITIVE
        assert map_positivity_check(1e6 * s).status == STATUS_NOT_POSITIVE

    def test_large_map_trace_checked_relative(self):
        # ||t L||_1 is about 28, well inside the a-priori gate, but the map's
        # entries reach 4.9e8, so its Pade trace (H != 0) misses by more than 1e-8
        gen = build_generator(qubit_spec(-np.eye(3), SIGMA[3]))
        s = evolve(gen, 10.0)
        size = np.abs(s).max()
        assert size > 1e8
        assert gksl.TRACE_PRESERVATION_TOL < trace_deviation(s)
        assert trace_deviation(s) <= gksl.TRACE_PRESERVATION_TOL * size
        assert map_positivity_check(s).status == STATUS_NOT_POSITIVE
        # a product is checked factor by factor, so it is accepted too
        assert np.isfinite(evolve(gksl.product_generator(gen, gen), 10.0)).all()

    @pytest.mark.parametrize("scale", [1e6, 1e8])
    def test_scaled_rank_one_qubit_generators_cp(self, scale):
        rng = np.random.default_rng(3)
        for _ in range(100):
            verdict = kossakowski_positivity_check(rank_one_qubit_generator(rng, scale))
            assert verdict.status == STATUS_CP

    @pytest.mark.parametrize("scale", [1e6, 1e9])
    def test_scaled_qutrit_generators_not_positive(self, scale):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = rng.normal(size=8) + 1j * rng.normal(size=8)
            cm = -np.outer(c, c.conj()) - 0.1 * np.eye(8)
            gen = build_generator(gksl.KossakowskiSpec(3, np.zeros((3, 3)), scale * cm,
                                                       gell_mann_basis(3)))
            # C < 0 decides without a search; the search on N agrees
            for verdict in (kossakowski_positivity_check(gen),
                            posmap._search(gen.noise, True, posmap.DEFAULT_BUDGET,
                                           posmap.DEFAULT_SEED)):
                assert verdict.status == STATUS_NOT_POSITIVE
                assert verdict.min_value < 0

    def test_large_hamiltonian_sets_no_scale(self):
        # -i[H, .] drops out of f, so H must not loosen the slack: the rates
        # (1e3, -0.01, -0.01) have a pairwise sum of -0.02 and f_min = -0.01
        hz = 1e9 * np.diag([0.5, -0.5])
        gen = build_generator(qubit_spec(np.diag([1e3, -0.01, -0.01]), hz))
        verdict = kossakowski_positivity_check(gen)
        assert (verdict.status, verdict.proof) == (STATUS_NOT_POSITIVE, posmap.PROOF_TRUST_REGION)
        assert verdict.min_value == pytest.approx(-0.01, rel=1e-9)
        positive = build_generator(qubit_spec(np.diag([1.0, -0.5, 1.0]), hz))
        verdict = kossakowski_positivity_check(positive)
        assert (verdict.status, verdict.proof) == (STATUS_POSITIVE_NOT_CP, posmap.PROOF_TRUST_REGION)
        # the same on products with a CP first factor: in closed form, and
        # through the search on the same noise part
        cp = build_generator(qubit_spec(np.eye(3), hz))
        product = gksl.product_generator(cp, gen)
        verdict = kossakowski_positivity_check(product, budget=16)
        assert (verdict.status, verdict.proof) == (STATUS_NOT_POSITIVE, posmap.PROOF_CLOSED_FORM)
        assert verdict.min_value == pytest.approx(-0.01, rel=1e-9)
        verdict = posmap._search(product.noise, True, 16, posmap.DEFAULT_SEED)
        assert (verdict.status, verdict.proof) == (STATUS_NOT_POSITIVE, posmap.PROOF_SEARCH)
        assert verdict.min_value < -0.009
        # searched on the noise part, the roundoff of -i[H, .] never enters
        verdict = kossakowski_positivity_check(gksl.product_generator(cp, positive), budget=16)
        assert verdict.status == STATUS_POSITIVE_NOT_CP

    def test_large_hamiltonian_keeps_cp(self):
        # f_min = 0 for rank-one C; evaluated on L instead of its noise part,
        # the roundoff of -i[H, .] at 1e8 fell below the slack in 46 draws
        rng = np.random.default_rng(3)
        for _ in range(100):
            verdict = kossakowski_positivity_check(rank_one_qubit_generator(rng, 1.0, 1e8))
            assert verdict.status == STATUS_CP

    def test_scaled_product_search(self):
        # the best starts disagree by 1.05e-7 at this scale, above SPREAD_TOL but
        # below 1e-8 * max|L|; the search decides the unit copy, so the spread
        # scales with the input, and at 1e8 it is 9.4e-9
        g1 = build_generator(qubit_spec(1e9 * np.eye(3)))
        g2 = build_generator(qubit_spec(1e9 * np.diag([1.0, -0.5, 1.0])))
        verdict = kossakowski_positivity_check(gksl.product_generator(g1, g2), budget=16)
        assert verdict.status == STATUS_POSITIVE_NOT_CP
        assert verdict.proof == posmap.PROOF_SEARCH
        assert verdict.spread > posmap.SPREAD_TOL


class TestTraceCheck:
    """The a-posteriori trace check of ``evolve``, behind the a-priori gate."""

    def test_refuses_without_the_gate(self, monkeypatch):
        # H != 0 keeps the Pade route, whose squarings lose the trace
        monkeypatch.setattr(gksl, "TRACE_LOSS_PER_NORM", 0.0)
        gen = build_generator(qubit_spec(np.eye(3), SIGMA[3]))
        with pytest.raises(matcore.NumericalError, match="misses trace preservation by 1.42"):
            evolve(gen, 1e15)
        with pytest.raises(matcore.NumericalError, match="misses trace preservation"):
            evolve(gksl.product_generator(gen, gen), 1e15)

    def test_self_adjoint_refuses_non_finite_without_the_gate(self, monkeypatch):
        # C = -1 with H = 0: exp(t Lambda) overflows on the eigenvalues 2
        monkeypatch.setattr(gksl, "TRACE_LOSS_PER_NORM", 0.0)
        gen = build_generator(qubit_spec(-np.eye(3)))
        assert gen.spectrum is not None
        for g in (gen, gksl.product_generator(gen, gen)):
            with pytest.raises(matcore.NumericalError, match="has non-finite entries"):
                evolve(g, 1e3)

    @pytest.mark.parametrize("hamiltonian", [None, SIGMA[3]], ids=["self-adjoint", "pade"])
    def test_a_priori_refusal_same_on_both_routes(self, hamiltonian):
        gen = build_generator(qubit_spec(np.eye(3), hamiltonian))
        assert (gen.spectrum is None) == (hamiltonian is not None)
        for g in (gen, gksl.product_generator(gen, gen)):
            loss = gksl.TRACE_LOSS_PER_NORM * float(matcore._one_norms(1e15 * gen.full))
            with pytest.raises(matcore.NumericalError) as err:
                evolve(g, 1e15)
            assert str(err.value) == (
                f"exp(t L) at t = 1000000000000000.0 would lose about {loss:.1e} of trace "
                "> 1e-08: t L is too large for the exponential")


class TestScaleInvariance:
    """Derandomized properties: c L, c J and c S get the verdicts of L, J and
    S, and a pairing or ``min_value`` scales by c."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(scale=SCALES, seed=st.integers(0, 2**32 - 1))
    def test_rank_one_qubit_generator_cp(self, scale, seed):
        verdict = kossakowski_positivity_check(
            rank_one_qubit_generator(np.random.default_rng(seed), scale))
        assert verdict.status == STATUS_CP

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(scale=SCALES, seed=st.integers(0, 2**32 - 1), d=st.sampled_from([3, 4, 5]))
    def test_negative_definite_generator(self, scale, seed, d):
        # the pair built from C < 0 is that of c C, so min_value scales by c
        want, got = (kossakowski_positivity_check(negative_definite_generator(
            np.random.default_rng(seed), d, s)) for s in (1.0, scale))
        assert (got.status, got.proof) == (STATUS_NOT_POSITIVE, posmap.PROOF_KOSSAKOWSKI_ND)
        assert (want.status, want.proof) == (got.status, got.proof)
        assert got.min_value == pytest.approx(scale * want.min_value, rel=1e-9)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(scale=SCALES | HUGE_SCALES, a=st.floats(1.0, 3.0), b=st.floats(0.0, 2.0),
           c=st.floats(0.0, 2.0))
    def test_choi_map(self, scale, a, b, c):
        j = choi(choi_map(a, b, c))
        assert_same_feasibility(j, scale)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(scale=SCALES | HUGE_SCALES, t=st.floats(0.05, 2.0), phases=st.booleans())
    def test_flagship(self, scale, t, phases):
        j = choi(decomp.witness_product_map(t))
        if phases:
            # local phases on the second factor: a complex J with the same status
            u = np.kron(np.eye(4), np.diag(np.exp(1j * np.array([0.0, 0.7, -1.3, 2.1]))))
            j = u @ j @ u.conj().T
        assert_same_feasibility(j, scale)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(scale=SCALES | HUGE_SCALES, seed=st.integers(0, 2**32 - 1),
           lead=st.sampled_from([-3.0, 3.0]),
           rates=st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=2),
           hamiltonian=st.booleans())
    def test_qubit_generator(self, scale, seed, lead, rates, hamiltonian):
        # rotated rates of both signs give NotPositive, PositiveNotCP and CP
        # generators; a lead rate of 3 keeps the size of the Pauli form at
        # least 1 (its trace, or its spatial block, is), where the rule gives
        # c L the verdict of L, and c times its minimum
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        c = q @ np.diag([lead, *rates]) @ q.T
        h = random_hermitian(rng, 2) if hamiltonian else np.zeros((2, 2))
        want, got = (kossakowski_positivity_check(build_generator(qubit_spec(k * c, k * h)))
                     for k in (1.0, scale))
        assert (got.status, got.proof) == (want.status, want.proof)
        assert got.min_value == pytest.approx(scale * want.min_value,
                                              rel=1e-9, abs=scale * 1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(k=st.sampled_from([1, 30, 512, 1000, 1020]), seed=st.integers(0, 2**32 - 1),
           d=st.sampled_from([3, 4]), lead=st.sampled_from([-3.0, 3.0]),
           rates=st.lists(st.floats(-1.0, 2.0), min_size=14, max_size=14))
    def test_searched_generator(self, k, seed, d, lead, rates):
        # once N has size at least 1 (C is brought there by a power of two),
        # 2^k N has the unit copy of N, so the search, thresholds included,
        # gives 2^k L the status and proof of L and exactly 2^k its minimum
        n = d * d - 1
        q = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0]
        c = q @ np.diag([lead, *rates[: n - 1]]) @ q.T
        size = np.abs(build_generator(gksl.KossakowskiSpec(
            d, np.zeros((d, d)), c, gell_mann_basis(d))).noise).max()
        c *= 2.0 ** max(0, 1 - math.frexp(size)[1])
        want, got = (kossakowski_positivity_check(build_generator(gksl.KossakowskiSpec(
            d, np.zeros((d, d)), x * c, gell_mann_basis(d))), budget=16) for x in (1.0, 2.0**k))
        assert (got.status, got.proof) == (want.status, want.proof)
        assert got.min_value == 2.0**k * want.min_value
        if want.start_values is not None:
            assert np.array_equal(got.start_values, 2.0**k * want.start_values)

    @pytest.mark.parametrize("check, make, scale", [
        *((map_positivity_check,
           lambda k: k * (gksl.transpose_superop(2) - 0.9 * np.eye(4)), k)
          for k in (1e154, 1e200, 1e300, 1e308)),
        (kossakowski_positivity_check,
         lambda k: build_generator(qubit_spec(k * np.diag([-1.0, -1.0, 1.0]))), 1e308),
    ], ids=["map-1e154", "map-1e200", "map-1e300", "map-1e308", "generator-1e308"])
    def test_qubit_forms_near_float_maximum(self, check, make, scale):
        # unless read at a scale of its own, the Pauli form of S or N, or its
        # squares, overflows from about 1e154 (a map) or 1e308 (a generator)
        want, got = check(make(1.0)), check(make(scale))
        assert (got.status, got.proof) == (want.status, want.proof) == (
            STATUS_NOT_POSITIVE, posmap.PROOF_TRUST_REGION)
        assert got.min_value == pytest.approx(scale * want.min_value, rel=1e-9)

    def test_qubit_map_with_overflowing_modulus(self):
        # a Choi entry 1.5e308 (1 + i), finite but of modulus past the float
        # maximum: S gets the verdict of S / 2^1023, scaled back exactly
        j = 1e308 * np.eye(4, dtype=complex)
        j[0, 3] = 1.5e308 + 1.5e308j
        j[3, 0] = 1.5e308 - 1.5e308j
        s = j.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)
        want, got = map_positivity_check(s / 2.0**1023), map_positivity_check(s)
        assert (got.status, got.proof) == (want.status, want.proof) == (
            STATUS_NOT_POSITIVE, posmap.PROOF_TRUST_REGION)
        assert got.min_value == want.min_value * 2.0**1023

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(scale=SCALES | HUGE_SCALES, seed=st.integers(0, 2**32 - 1),
           rates=st.lists(st.floats(-1.0, 2.0), min_size=3, max_size=3), t=st.floats(0.1, 2.0))
    def test_evolved_qubit_map(self, scale, seed, rates, t):
        # rotated rates of both signs give NotPositive, PositiveNotCP and CP maps
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        spec = qubit_spec(q @ np.diag(rates) @ q.T, random_hermitian(rng, 2))
        s = evolve(build_generator(spec), t)
        want = map_positivity_check(s)
        got = map_positivity_check(scale * s)
        assert got.status == want.status
        assert got.proof == want.proof
        tol = {"rel": 1e-9, "abs": scale * 1e-12}
        assert got.choi_min_eig == pytest.approx(scale * want.choi_min_eig, **tol)
        if want.min_value is not None:
            assert got.min_value == pytest.approx(scale * want.min_value, **tol)


class TestNearFloatMaximum:
    """Inputs near the float maximum, where a modulus, an eigenvalue or a sum
    formed from the data itself overflowed: an eigenvalue at -inf passed the
    PSD bound -inf, a false proof, or a solver raised.  Each is decided on
    the unit copy of its data."""

    def test_psd_with_overflowing_eigenvalue(self):
        ok, lmin = matcore.is_psd(-1e308 * np.ones((3, 3)))
        assert not ok
        assert lmin < 0

    def test_feasibility_with_overflowing_eigenvalue(self):
        j = -1e308 * np.ones((9, 9))
        res = decomposability_feasibility(j)
        assert res.status == INFEASIBLE_WITNESSED
        assert_witness(j / 2.0**1023, unscaled(res, 2.0**1023))

    def test_cp_with_overflowing_eigenvalue(self):
        # the qubit map whose Choi matrix is -0.6e308 times the all-ones matrix
        j = -0.6e308 * np.ones((4, 4))
        s = 2 * j.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)
        assert np.array_equal(choi(s), j)
        assert posmap.is_completely_positive(s).status == posmap.STATUS_UNDETERMINED
        verdict = map_positivity_check(s)
        assert verdict.status == STATUS_NOT_POSITIVE
        assert verdict.choi_min_eig < 0

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_negative_definite_generator(self, d):
        want, got = (kossakowski_positivity_check(negative_definite_generator(
            np.random.default_rng(1), d, x)) for x in (1.0, 2.0**1022))
        assert (got.status, got.proof) == (want.status, want.proof) == (
            STATUS_NOT_POSITIVE, posmap.PROOF_KOSSAKOWSKI_ND)
        assert got.min_value == pytest.approx(2.0**1022 * want.min_value, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_searched_qutrit_generator(self, scale):
        # the restricted search's shift 1 + 2 ||M||_F overflowed, and eigh raised
        want, got = (kossakowski_positivity_check(build_generator(gksl.KossakowskiSpec(
            3, np.zeros((3, 3)), x * np.diag([-1.0] + [0.2] * 7), gell_mann_basis(3))))
            for x in (1.0, scale))
        assert (got.status, got.proof) == (want.status, want.proof) == (
            STATUS_NOT_POSITIVE, posmap.PROOF_SEARCH)
        assert got.min_value == pytest.approx(scale * want.min_value, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e199, 1e200, 1e300])
    @pytest.mark.parametrize("j", [
        choi(choi_map(2.0, 1.0, 1.0)),
        choi(decomp.witness_product_map(1.0)),
    ], ids=["phi-2-1-1", "flagship-1.0"])
    def test_decomposable(self, j, scale):
        # the loop's pairing <Z, J> overflowed in np.vdot
        res = decomposability_feasibility(scale * j)
        assert res.status == FEASIBLE
        assert_certificate(j, unscaled(res, scale))

    def test_qutrit_transpose(self):
        # the search overflowed in an add, then raised LinAlgError
        want = map_positivity_check(gksl.transpose_superop(3))
        got = map_positivity_check(1e308 * gksl.transpose_superop(3))
        assert (got.status, got.proof) == (want.status, want.proof) == (
            STATUS_POSITIVE_NOT_CP, posmap.PROOF_DECOMPOSITION)
        assert got.choi_min_eig == pytest.approx(1e308 * want.choi_min_eig, rel=1e-12)

    def test_qubit_product_closed_form(self):
        # the pair sums c_i + c_j overflowed; their halves do not
        big = build_generator(qubit_spec(1e308 * np.eye(3)))
        verdict = kossakowski_positivity_check(gksl.product_generator(
            big, build_generator(qubit_spec(1e308 * np.diag([1.0, -1.5, 1.0])))))
        assert (verdict.status, verdict.proof) == (STATUS_NOT_POSITIVE, posmap.PROOF_CLOSED_FORM)
        assert verdict.min_value == -2.5e307
        verdict = kossakowski_positivity_check(gksl.product_generator(
            big, build_generator(qubit_spec(1e308 * np.diag([1.0, -0.5, 1.0])))), budget=16)
        assert (verdict.status, verdict.proof) == (STATUS_POSITIVE_NOT_CP, posmap.PROOF_SEARCH)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(scale=st.sampled_from([2.0**1020, 1e308]), seed=st.integers(0, 2**32 - 1),
           rates=st.lists(st.floats(-1.0, 2.0), min_size=8, max_size=8))
    def test_evolved_qutrit_map(self, scale, seed, rates):
        # rotated rates, H = 0, t = 0.5: NotPositive, PositiveNotCP and CP maps
        q = np.linalg.qr(np.random.default_rng(seed).normal(size=(8, 8)))[0]
        spec = gksl.KossakowskiSpec(3, np.zeros((3, 3)), q @ np.diag(rates) @ q.T,
                                    gell_mann_basis(3))
        s = evolve(build_generator(spec), 0.5)
        want, got = map_positivity_check(s), map_positivity_check(scale * s)
        assert (got.status, got.proof) == (want.status, want.proof)
        assert got.choi_min_eig == pytest.approx(scale * want.choi_min_eig,
                                                 rel=1e-9, abs=scale * 1e-12)


@pytest.mark.xfail(raises=matcore.HermiticityError, strict=True,
                   reason="blocks of a scaled solve are Hermitian only at the scale of J")
def test_scaled_certificate_blocks_hermitian():
    res = decomposability_feasibility(1e6 * choi(choi_map(1.0, 1.0, 1.0)))
    assert res.status == FEASIBLE
    assert matcore.is_psd(res.certificate.j1)[0]


def unscaled(res, scale):
    """A result of the solver on ``scale * J``, divided by ``scale``: its
    certificate or witness re-verifies against J itself.  Blocks of the
    scaled solve carry roundoff at the scale of ``scale * J``, so a small
    block is checked at that scale, not at its own."""
    cert = res.certificate
    if cert is not None:
        cert = decomp.DecompositionCertificate(cert.j1 / scale, cert.j2 / scale,
                                               cert.residual / scale)
    pairing = None if res.pairing is None else res.pairing / scale
    return dataclasses.replace(res, certificate=cert, pairing=pairing)


def assert_same_feasibility(j, scale):
    want = decomposability_feasibility(j)
    got = decomposability_feasibility(scale * j)
    assert got.status == want.status
    if got.status == FEASIBLE:
        assert_certificate(j, unscaled(got, scale))
    elif got.status == INFEASIBLE_WITNESSED:
        assert_witness(j, unscaled(got, scale))
        assert got.pairing == pytest.approx(scale * want.pairing, rel=1e-9)
