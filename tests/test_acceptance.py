"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.

Criterion 10 checks the flagship generator's noise part against the
paper's worked example: its pairings with the 16 entangled basis
projectors and with the bound-entangled state equal the t = 0 derivative
of the closed forms of criteria 6 and 8 minus the pseudo-Hamiltonian part
-2 <id, .>, and (0, 2) is the only negative entry and the only nonzero
one in the state's support.  The values once pinned here (-1/8 at (0, 2),
0 elsewhere, -1/48 against the state) were a factor 4 too small and left
out the five +1/2 entries from the CP Kraus terms sigma_a (x) 1 and
1 (x) sigma_{1,3}.
"""

import numpy as np
import pytest

from sgwl import decomp, gksl, matcore, posmap
from sgwl.decomp import (
    FEASIBLE,
    INFEASIBLE_WITNESSED,
    bound_entangled_state,
    decomposability_feasibility,
    decomposability_propagation_check,
    explicit_decomposition,
    find_threshold,
    noise_pairing_table,
    pairing,
    pairing_table,
    witness_product_map,
)
from sgwl.gksl import SIGMA, apply_superop, build_generator, evolve, qubit_spec
from sgwl.posmap import choi, is_completely_positive, kossakowski_positivity_check

from helpers import random_density, random_hermitian, random_psd
from test_decomp import RHO_BE_24

T_GRID_20 = np.logspace(-2, np.log10(5.0), 20)


def report(num: int, desc: str, ok: bool) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def alpha(t):
    return np.exp(-2.0 * t)


def test_criterion_01_closed_form_evolution():
    rng = np.random.default_rng(101)
    g1 = build_generator(qubit_spec(np.diag([1.0, 1.0, 1.0])))
    g2 = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
    worst = 0.0
    for t in (0.1, 0.5, 1.0, 2.0):
        a = alpha(t)
        s1, s2 = evolve(g1, t), evolve(g2, t)
        for _ in range(10):
            rho = random_density(rng, 2)
            r2 = np.trace(rho @ SIGMA[2]) / 2
            worst = max(worst, np.abs(
                apply_superop(s1, rho) - (a * rho + (1 - a) / 2 * SIGMA[0])).max())
            worst = max(worst, np.abs(
                apply_superop(s2, rho) - (rho - (1 - a) * r2 * SIGMA[2])).max())
    ok = worst <= 1e-10
    assert report(1, f"closed-form evolution of both factors (worst dev {worst:.2e})", ok)


def test_criterion_02_cp_verdict_matches_coefficient_spectrum():
    rng = np.random.default_rng(102)
    disagreements = 0
    for trial in range(200):
        d = 2 if trial % 2 == 0 else 3
        n = d * d - 1
        basis = gksl.standard_basis(d)
        while True:
            a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
            c = a @ a.conj().T - rng.uniform(0.0, 1.5) * np.eye(n)
            if abs(np.linalg.eigvalsh(c).min()) > 0.05:
                break
        gen = build_generator(gksl.KossakowskiSpec(d, random_hermitian(rng, d), c, basis))
        cp_map = is_completely_positive(evolve(gen, 1e-3)).is_cp
        cp_coeff = bool(np.linalg.eigvalsh(c).min() >= 0)
        disagreements += cp_map != cp_coeff
    ok = disagreements == 0
    assert report(2, f"Choi CP verdict vs coefficient matrix sign, 200 specs "
                     f"({disagreements} disagreements)", ok)


def test_criterion_03_closed_form_vs_optimizer():
    rng = np.random.default_rng(103)
    disagreements = 0
    for _ in range(100):
        while True:
            c = rng.uniform(-1.0, 1.0, size=3)
            sums = (c[0] + c[1], c[1] + c[2], c[0] + c[2])
            if min(abs(s) for s in sums) > 0.05:
                break
        gen = build_generator(qubit_spec(np.diag(c)))
        verdict = kossakowski_positivity_check(gen, budget=64)
        closed = posmap.qubit_positivity_conditions(*c)
        disagreements += verdict.is_positive != closed
    ok = disagreements == 0
    assert report(3, f"qubit closed form vs search, 100 rate triples, budget 64 "
                     f"({disagreements} disagreements)", ok)


def test_criterion_04_second_block_choi_spectrum():
    worst = 0.0
    counts_ok = True
    for t in T_GRID_20:
        a = alpha(t)
        eigs = np.sort(np.linalg.eigvalsh(matcore.as_hermitian(
            choi(explicit_decomposition(float(t))[1]))))
        expect = np.sort([0.0] * 12 + [(1 - a * a) / 8] * 3 + [(1 - a) * (1 - 3 * a) / 8])
        worst = max(worst, np.abs(eigs - expect).max())
        counts_ok &= int(np.sum(np.abs(eigs) < 1e-10)) == 12
    ok = worst <= 1e-10 and counts_ok
    assert report(4, f"second-block Choi spectrum on 20-point grid "
                     f"(worst dev {worst:.2e}, zero-count {'ok' if counts_ok else 'bad'})", ok)


def test_criterion_05_threshold_two_ways():
    t_star = np.log(3.0) / 2.0
    t1 = find_threshold(lambda t: explicit_decomposition(t)[1],
                        decomp.choi_min_criterion, 0.1, 2.0)
    t2 = find_threshold(witness_product_map,
                        decomp.pairing_criterion(bound_entangled_state()), 0.1, 2.0)
    ok = abs(t1 - t_star) <= 1e-8 and abs(t2 - t_star) <= 1e-8
    assert report(5, f"threshold log(3)/2 via Choi ({abs(t1 - t_star):.1e}) "
                     f"and via pairing ({abs(t2 - t_star):.1e})", ok)


def test_criterion_06_pairing_table():
    worst = 0.0
    for t in T_GRID_20:
        a = alpha(t)
        table = pairing_table(float(t))
        expect = np.array([
            [0.25 * (a * (mu == 0) + (1 - a) / 4)
             * (2 * (1 + a) * (nu == 0) + (1 - a) * (1 - 2 * (nu == 2)))
             for nu in range(4)]
            for mu in range(4)
        ])
        worst = max(worst, np.abs(table - expect).max())
    t = 0.3
    a = alpha(t)
    table = pairing_table(t)
    sq = (1 - a) ** 2 / 16
    specific = (
        abs(table[0, 2] - (a - 1) * (1 + 3 * a) / 16) < 1e-10
        and all(abs(table[m, n] - sq) < 1e-10 for m, n in ((1, 1), (2, 3), (3, 1), (3, 3)))
        and abs(table[3, 2] + sq) < 1e-10
        and table[3, 2] < 0
    )
    ok = worst <= 1e-10 and specific
    assert report(6, f"all 16 pairings match the closed form (worst dev {worst:.2e}), "
                     f"specific values reproduced", ok)


def test_criterion_07_bound_entangled_state():
    rb = bound_entangled_state().mat
    dev = np.abs(rb - RHO_BE_24 / 24.0).max()
    tr = abs(np.trace(rb).real - 1.0)
    lmin = np.linalg.eigvalsh(rb).min()
    lmin_pt = np.linalg.eigvalsh(matcore.partial_transpose(rb, 4, 4, "A")).min()
    overlap = np.abs(rb @ posmap.maximally_entangled_projector(4)).max()
    ok = dev <= 1e-14 and tr <= 1e-14 and lmin >= -1e-12 and lmin_pt >= -1e-12 \
        and overlap <= 1e-12
    assert report(7, f"bound-entangled state: entries dev {dev:.1e}, trace, PSD "
                     f"({lmin:.1e}), PPT ({lmin_pt:.1e}), orthogonal to the "
                     f"entangled projector ({overlap:.1e})", ok)


def test_criterion_08_pairing_curve_and_signs():
    rb = bound_entangled_state()
    worst = 0.0
    for t in T_GRID_20:
        a = alpha(t)
        v = pairing(witness_product_map(float(t)), rb)
        worst = max(worst, abs(v - (1 - a) * (1 - 3 * a) / 48))
    signs_ok = all(pairing(witness_product_map(t), rb) < 0 for t in (0.1, 0.2, 0.4)) \
        and all(pairing(witness_product_map(t), rb) > 0 for t in (0.7, 1.0, 2.0))
    ok = worst <= 1e-10 and signs_ok
    assert report(8, f"pairing matches (1-a)(1-3a)/48 (worst dev {worst:.2e}) with the "
                     f"required signs", ok)


def test_criterion_09_feasibility_solver():
    rb = bound_entangled_state()
    ok = True
    details = []
    for t in (0.6, 1.0, 2.0):
        j = choi(witness_product_map(t))
        res = decomposability_feasibility(j)
        good = res.status == FEASIBLE and res.certificate.residual <= 1e-8
        if good:
            cert = res.certificate
            slack = 1e-10 * max(1.0, np.linalg.norm(j, 2))
            good &= np.linalg.eigvalsh(cert.j1).min() >= -slack
            good &= np.linalg.eigvalsh(cert.j2).min() >= -slack
            good &= np.abs(j - cert.j1 - matcore.partial_transpose(cert.j2, 4, 4, "A")).max() < 1e-8
            # cross-check: the closed-form blocks certify the same map
            s1, s2 = explicit_decomposition(t)
            j1e, j2e = choi(s1), choi(s2).T
            good &= np.linalg.eigvalsh(j1e).min() >= -1e-10
            good &= np.linalg.eigvalsh(j2e).min() >= -1e-10
            good &= np.abs(j - j1e - matcore.partial_transpose(j2e, 4, 4, "A")).max() < 1e-8
        details.append(f"t={t}:{'ok' if good else 'BAD'}")
        ok &= good
    for t in (0.1, 0.2, 0.4):
        a = alpha(t)
        res = decomposability_feasibility(choi(witness_product_map(t)))
        good = (res.status == INFEASIBLE_WITNESSED
                and abs(res.pairing - (1 - a) * (1 - 3 * a) / 48) <= 1e-10
                and np.abs(res.witness.mat - rb.mat).max() <= 1e-10)
        details.append(f"t={t}:{'ok' if good else 'BAD'}")
        ok &= good
    assert report(9, "feasibility solver: " + " ".join(details), ok)


def test_criterion_10_noise_pairings_as_stated():
    # The noise part N of the flagship generator, paired with the 16
    # entangled basis projectors and with the bound-entangled state.  The
    # expected values come from the closed forms of criteria 6 and 8: the
    # generator is d/dt at t = 0 (a = exp(-2t), da/dt = -2 there) and its
    # pseudo-Hamiltonian part is -2 id, whose pairing is the closed form at
    # a = 1.  So N pairs to -2 f'(1) + 2 f(1) for either closed form f(a).
    table, value = noise_pairing_table()
    expect = np.zeros((4, 4))
    for mu in range(4):
        for nu in range(4):
            # criterion 6: f(a) = A(a) B(a) / 4 with A, B affine in a,
            # A(a) = a [mu=0] + (1-a)/4, B(a) = 2(1+a) [nu=0] + (1-a)(1 - 2 [nu=2])
            a1, b1 = float(mu == 0), 4.0 * (nu == 0)
            da, db = (mu == 0) - 0.25, 2.0 * (nu == 0) - (1 - 2 * (nu == 2))
            expect[mu, nu] = -2.0 * 0.25 * (da * b1 + a1 * db) + 2.0 * 0.25 * a1 * b1
    # criterion 8: g(a) = (1-a)(1-3a)/48, so g(1) = 0 and g'(a) = (6a - 4)/48
    expect_be = -2.0 * (6.0 * 1.0 - 4.0) / 48.0 + 2.0 * 0.0
    # resulting values: -1/2 at (0, 2); +1/2 at (0, 1), (0, 3), (1, 0),
    # (2, 0), (3, 0) from the CP Kraus terms sigma_a (x) 1 and
    # 1 (x) sigma_{1,3}; 0 elsewhere; -1/12 against the bound-entangled state
    dev_table = np.abs(table - expect).max()
    dev_be = abs(value - expect_be)
    negative = {(m, n) for m in range(4) for n in range(4) if table[m, n] < -1e-12}
    support = ((0, 2), (1, 1), (2, 3), (3, 1), (3, 2), (3, 3))
    nonzero_in_support = {mn for mn in support if abs(table[mn]) > 1e-12}
    dev_share = abs(value - table[0, 2] / 6.0)
    ok = (dev_table <= 1e-12 and dev_be <= 1e-12 and negative == {(0, 2)}
          and nonzero_in_support == {(0, 2)} and dev_share <= 1e-12)
    assert report(10, f"noise pairings match the t=0 derivative of the closed forms "
                      f"(table dev {dev_table:.1e}, bound-entangled dev {dev_be:.1e}); "
                      f"(0,2) is the only negative entry and the only one in the "
                      f"state's support (dev vs table[0,2]/6 {dev_share:.1e})", ok)


def test_criterion_11_noise_functional_value():
    gen = build_generator(qubit_spec(np.diag([1.0, -1.0, 1.0])))
    psi = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    value = gksl.map_functional(gen.noise, psi, psi)
    ok = abs(value + 0.5) <= 1e-12
    assert report(11, f"noise functional at (1, i)/sqrt(2) equals -1/2 "
                      f"(got {value:.15f})", ok)


def test_criterion_12_delayed_cp_onset():
    # a=1, b=2 (doubled rates): onset where cosh(2bt) = exp(2(b-a)t)
    a_, b_ = 1.0, 2.0
    gen = build_generator(qubit_spec(2.0 * np.diag([b_, b_, a_ - b_])))
    t_hat = find_threshold(lambda t: evolve(gen, t), decomp.choi_min_criterion, 0.02, 5.0)

    def g(t):
        return np.cosh(2 * b_ * t) - np.exp(2 * (b_ - a_) * t)

    lo, hi = 0.02, 5.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    t_ref = 0.5 * (lo + hi)
    onset_ok = abs(t_hat - t_ref) <= 1e-8
    below_ok = all(
        not is_completely_positive(evolve(gen, f * t_hat)).is_cp for f in (0.3, 0.6, 0.9)
    )
    above_ok = all(
        is_completely_positive(evolve(gen, t_hat + d)).is_cp for d in (0.01, 0.5, 2.0)
    )
    gen_dom = build_generator(qubit_spec(2.0 * np.diag([1.0, 1.0, 1.0])))
    no_flip = all(
        is_completely_positive(evolve(gen_dom, float(t))).is_cp for t in np.linspace(0, 5, 21)
    )
    ok = onset_ok and below_ok and above_ok and no_flip
    assert report(12, f"delayed CP onset at {t_hat:.8f} (|err| {abs(t_hat - t_ref):.1e}), "
                      f"verdict flip {'ok' if below_ok and above_ok else 'BAD'}, "
                      f"dominant case never flips: {no_flip}", ok)


def test_criterion_13_propagation_guard():
    rng = np.random.default_rng(113)
    accepted = 0
    attempts = 0
    failures = 0
    while accepted < 50 and attempts < 300:
        attempts += 1
        if attempts % 3 == 0:
            c = random_hermitian(rng, 3)  # usually fails the noise hypothesis
        else:
            c = random_psd(rng, 3)
        spec = qubit_spec(c, hamiltonian=random_hermitian(rng, 2))
        gen = build_generator(spec)
        rep = decomposability_propagation_check(gen, max_iter=2000)
        if not rep.holds:
            continue
        accepted += 1
        for t in (0.5, 1.0):
            res = decomposability_feasibility(choi(evolve(gen, t)), max_iter=20000)
            if res.status != FEASIBLE:
                failures += 1
    ok = accepted == 50 and failures == 0
    assert report(13, f"decomposability propagation: {accepted} generators accepted, "
                      f"{failures} feasibility failures", ok)


def test_criterion_14_product_formula():
    ok = True
    details = []
    for label, c in (("depolarizing", [1.0, 1.0, 1.0]), ("transpose-mixing", [1.0, -1.0, 1.0])):
        gen = build_generator(qubit_spec(np.diag(c)))
        errs = []
        for n in (16, 64, 256):
            step = matcore.expm(gen.pseudo_h / n) @ matcore.expm(gen.noise / n)
            errs.append(np.linalg.norm(np.linalg.matrix_power(step, n)
                                       - matcore.expm(gen.full), 2))
        # the split commutes exactly for these generators, so the errors
        # sit at roundoff; monotone decrease is asserted with a roundoff
        # allowance of 1e-12
        good = errs[2] <= 1e-3 and errs[1] <= errs[0] + 1e-12 and errs[2] <= errs[1] + 1e-12
        details.append(f"{label}: {errs[2]:.1e}")
        ok &= good
    assert report(14, "product-formula error at n=256 below 1e-3, nonincreasing: "
                      + ", ".join(details), ok)
