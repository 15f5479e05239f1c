"""Packaged reproductions of the library's worked examples.

Each scenario builds its objects through the public API, compares against
independently known values (closed forms, exact arithmetic, or a separate
root-finding oracle) and returns a structured report.  Reports are
deterministic: a fixed seed is part of the parameters, and re-running a
scenario produces identical output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import decomp, gksl, matcore, posmap
from .gksl import SIGMA, conjugation_superop, qubit_spec

T_GRID = tuple(float(t) for t in np.logspace(-2, np.log10(5.0), 20))


@dataclass
class CheckResult:
    """One scenario check; the fields are declared in their JSON order."""

    name: str
    computed: float
    expected: float
    delta: float = field(init=False)
    tolerance: float
    provenance: str
    passed: bool = field(init=False)

    def __post_init__(self):
        self.delta = abs(self.computed - self.expected)
        self.passed = self.delta <= self.tolerance


@dataclass
class ScenarioReport:
    name: str
    parameters: dict
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def scenario_product_closed_forms(seed: int = 7) -> ScenarioReport:
    """The flagship pair of qubit semigroups and their product.

    The depolarizing factor acts as ``rho -> a rho + (1-a)/2 id`` and the
    transpose-mixing factor as ``rho -> rho - (1-a) r2 sigma_2`` with
    ``a = exp(-2t)``; the product is positive though the second factor is
    not completely positive.
    """
    rng = np.random.default_rng(seed)
    product = decomp.witness_product_generator()
    g1, g2 = product.factors
    times = (0.1, 0.5, 1.0, 2.0)
    checks = []

    dev1 = 0.0
    dev2 = 0.0
    dev_alpha = 0.0
    cp1_neg = 0.0
    for t in times:
        a = np.exp(-2.0 * t)
        s1 = gksl.evolve(g1, t)
        s2 = gksl.evolve(g2, t)
        for _ in range(5):
            rho = _random_density(rng, 2)
            r2 = np.trace(rho @ SIGMA[2]) / 2
            dev1 = max(dev1, np.abs(gksl.apply_superop(s1, rho)
                                    - (a * rho + (1 - a) / 2 * SIGMA[0])).max())
            dev2 = max(dev2, np.abs(gksl.apply_superop(s2, rho)
                                    - (rho - (1 - a) * r2 * SIGMA[2])).max())
        alpha_est = np.trace(SIGMA[1] @ gksl.apply_superop(s1, SIGMA[1])).real / 2
        dev_alpha = max(dev_alpha, abs(alpha_est - a))
        cp1_neg = max(cp1_neg, -posmap.is_completely_positive(s1).choi_min_eig)
    checks.append(CheckResult("first_factor_closed_form", float(dev1), 0.0, 1e-10,
                              "closed form: a*rho + (1-a)/2 * id, a = exp(-2t)"))
    checks.append(CheckResult("second_factor_closed_form", float(dev2), 0.0, 1e-10,
                              "closed form: rho - (1-a) * r2 * sigma_2"))
    checks.append(CheckResult("alpha_decay", float(dev_alpha), 0.0, 1e-12,
                              "exponential decay rate exp(-2t)"))
    checks.append(CheckResult("first_factor_cp", float(max(cp1_neg, 0.0)), 0.0, 1e-10,
                              "depolarizing mixtures are completely positive"))

    t_half = np.log(2.0) / 2.0  # a = exp(-2t) = 1/2
    rho_in = (SIGMA[0] + SIGMA[2]) / 2
    out = gksl.apply_superop(gksl.evolve(g2, t_half), rho_in)
    dev_half = np.abs(out - (SIGMA[0] + SIGMA[2] / 2) / 2).max()
    checks.append(CheckResult("second_factor_at_half_mixing", float(dev_half), 0.0, 1e-12,
                              "closed form at a = 1/2"))

    lmin2 = posmap.is_completely_positive(gksl.evolve(g2, 0.5)).choi_min_eig
    a05 = np.exp(-1.0)
    checks.append(CheckResult("second_factor_choi_min", float(lmin2), float(-(1 - a05) / 4),
                              1e-10, "analytic Choi spectrum of the transpose mixture"))

    hypothesis = posmap.product_positivity_sufficient([1.0, 1.0, 1.0], [1.0, -1.0, 1.0])
    checks.append(CheckResult("sufficient_condition_holds", float(hypothesis), 1.0, 0.0,
                              "rate comparison: all rates dominate the negative one"))

    verdict = posmap.kossakowski_positivity_check(product, budget=24, seed=posmap.DEFAULT_SEED)
    checks.append(CheckResult("product_positive_search", float(verdict.is_positive), 1.0, 0.0,
                              "multistart functional search finds no violation"))
    checks.append(CheckResult("product_functional_min", float(max(-verdict.min_value, 0.0)),
                              0.0, 1e-10, "functional minimum of a positive product is zero"))

    return ScenarioReport(
        name="product_closed_forms",
        parameters={"c1": [1.0, 1.0, 1.0], "c2": [1.0, -1.0, 1.0],
                    "times": list(times), "seed": seed},
        checks=checks,
    )


def scenario_threshold() -> ScenarioReport:
    """Locate the decomposability threshold of the flagship family two ways.

    Both the minimal Choi eigenvalue of the second closed-form block and
    the pairing with the bound-entangled state change sign at log(3)/2.
    """
    t_star = float(np.log(3.0) / 2.0)
    rho_be = decomp.bound_entangled_state()
    t_choi = decomp.find_threshold(
        lambda t: decomp.explicit_decomposition(t)[1], decomp.choi_min_criterion, 0.1, 2.0
    )
    t_pair = decomp.find_threshold(
        decomp.witness_product_map, decomp.pairing_criterion(rho_be), 0.1, 2.0
    )
    pairing_at = decomp.pairing(decomp.witness_product_map(t_star), rho_be)
    lmin_at = decomp.choi_min_criterion(decomp.explicit_decomposition(t_star)[1])
    checks = [
        CheckResult("threshold_choi_min", t_choi, t_star, 1e-8,
                    "exact threshold log(3)/2"),
        CheckResult("threshold_pairing", t_pair, t_star, 1e-8,
                    "exact threshold log(3)/2"),
        CheckResult("pairing_vanishes_at_threshold", pairing_at, 0.0, 1e-10,
                    "closed form (1-a)(1-3a)/48 has a root at a = 1/3"),
        CheckResult("choi_min_vanishes_at_threshold", lmin_at, 0.0, 1e-9,
                    "closed form (1-a)(1-3a)/8 has a root at a = 1/3"),
    ]
    return ScenarioReport(
        name="threshold",
        parameters={"bracket": [0.1, 2.0], "t_star": t_star},
        checks=checks,
    )


def _delayed_cp_rates(a: float, b: float) -> np.ndarray:
    # doubled rates: the target spectrum mu = 1 - exp(-4bt), lambda_pm =
    # 1 + exp(-4bt) +- 2 exp(-2at) corresponds to 2*diag(b, b, a-b) in the
    # sigma/sqrt(2) basis normalization used throughout
    return 2.0 * np.diag([b, b, a - b])


def _transcendental_root(a: float, b: float, lo: float, hi: float) -> float:
    """Independent bisection for cosh(2 b t) = exp(2 (b - a) t), t > 0."""

    def g(t):
        return np.cosh(2 * b * t) - np.exp(2 * (b - a) * t)

    slo = np.sign(g(lo))
    if slo * np.sign(g(hi)) > 0:
        raise matcore.DomainError("no root of the transcendental equation in the bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sign(g(mid)) * slo <= 0:
            hi = mid
        else:
            lo = mid  # g(mid) has the sign of g(lo)
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def scenario_delayed_cp(a: float = 1.0, b: float = 2.0) -> ScenarioReport:
    """A qubit semigroup that is positive from the start but becomes
    completely positive only after a finite time when a < b.

    The rescaled Choi spectrum is checked against the analytic values
    ``{mu, mu, lambda_plus, lambda_minus}`` on the time grid, and for a < b
    the onset time is cross-checked against an independent root of
    ``cosh(2bt) = exp(2(b-a)t)``.
    """
    if a <= 0 or b <= 0:
        raise matcore.DomainError(f"rates must be positive, got a={a}, b={b}")
    gen = gksl.build_generator(qubit_spec(_delayed_cp_rates(a, b)))
    checks = []

    dev = 0.0
    for t in (0.0,) + T_GRID:  # t = 0 pins the rank-one corner {0, 0, 4, 0}
        eigs = np.sort(np.linalg.eigvalsh(matcore.as_hermitian(
            4.0 * posmap.choi(gksl.evolve(gen, t)))))
        mu = 1.0 - np.exp(-4.0 * b * t)
        lam_p = 1.0 + np.exp(-4.0 * b * t) + 2.0 * np.exp(-2.0 * a * t)
        lam_m = 1.0 + np.exp(-4.0 * b * t) - 2.0 * np.exp(-2.0 * a * t)
        dev = max(dev, np.abs(eigs - np.sort([mu, mu, lam_p, lam_m])).max())
    checks.append(CheckResult("choi_spectrum_match", float(dev), 0.0, 1e-10,
                              "analytic spectrum {mu, mu, lambda_plus, lambda_minus}"))

    pos_ok = posmap.qubit_positivity_conditions(2 * b, 2 * b, 2 * (a - b))
    checks.append(CheckResult("positivity_conditions", float(pos_ok), 1.0, 0.0,
                              "pairwise rate sums are nonnegative"))

    if a < b:
        t_hat = decomp.find_threshold(
            lambda t: gksl.evolve(gen, t), decomp.choi_min_criterion, 0.02, 5.0
        )
        t_ref = _transcendental_root(a, b, 0.02, 5.0)
        checks.append(CheckResult("onset_time", t_hat, t_ref, 1e-8,
                                  "independent bisection on cosh(2bt) = exp(2(b-a)t)"))
        below = [t for t in T_GRID if t < t_hat - 1e-6]
        above = [t for t in T_GRID if t > t_hat + 1e-6]
        flips_ok = all(
            not posmap.is_completely_positive(gksl.evolve(gen, t)).is_cp for t in below
        ) and all(
            posmap.is_completely_positive(gksl.evolve(gen, t)).is_cp for t in above
        )
        checks.append(CheckResult("cp_flips_at_onset", float(flips_ok), 1.0, 0.0,
                                  "lambda_minus is the only sign-changing eigenvalue"))
    else:
        worst = 0.0
        for t in T_GRID:
            lmin = posmap.is_completely_positive(gksl.evolve(gen, t)).choi_min_eig
            worst = max(worst, -lmin)
        checks.append(CheckResult("cp_throughout", float(max(worst, 0.0)), 0.0, 1e-10,
                                  "lambda_minus stays nonnegative when a >= b"))

    return ScenarioReport(
        name="delayed_cp",
        parameters={"a": a, "b": b, "t_grid": list(T_GRID)},
        checks=checks,
    )


def scenario_trace_transpose_maps() -> ScenarioReport:
    """The two building-block qubit maps: trace-to-identity and transposition.

    Verifies the Kraus-sum identity for the trace map, the sign structure of
    the transposition, the algebraic identities used to rearrange the
    flagship product, and their opposite complete-positivity verdicts.
    """
    tr2 = gksl.trace_to_identity_superop(2)
    t2 = gksl.transpose_superop(2)
    checks = []

    kraus = sum(conjugation_superop(s, s) for s in SIGMA) / 2
    checks.append(CheckResult("trace_map_kraus_sum", float(np.abs(tr2 - kraus).max()),
                              0.0, 1e-12, "Kraus sum (1/2) sum_mu sigma_mu . sigma_mu"))

    t_rep = (conjugation_superop(SIGMA[0], SIGMA[0]) + conjugation_superop(SIGMA[1], SIGMA[1])
             - conjugation_superop(SIGMA[2], SIGMA[2]) + conjugation_superop(SIGMA[3], SIGMA[3])) / 2
    checks.append(CheckResult("transpose_pauli_rep", float(np.abs(t2 - t_rep).max()),
                              0.0, 1e-12, "sigma_2 is the only sign-flipped direction"))

    checks.append(CheckResult("transpose_sign_flip",
                              float(np.abs(gksl.apply_superop(t2, SIGMA[2]) + SIGMA[2]).max()),
                              0.0, 1e-12, "transposition negates sigma_2"))
    checks.append(CheckResult("trace_map_kills_traceless",
                              float(np.abs(gksl.apply_superop(tr2, SIGMA[3])).max()),
                              0.0, 1e-12, "sigma_3 is traceless"))
    checks.append(CheckResult("transpose_involution", float(np.abs(t2 @ t2 - np.eye(4)).max()),
                              0.0, 1e-12, "T o T = id"))
    checks.append(CheckResult("trace_after_transpose", float(np.abs(tr2 @ t2 - tr2).max()),
                              0.0, 1e-12, "Tr o T = Tr"))

    lmin_tr = posmap.is_completely_positive(tr2).choi_min_eig
    checks.append(CheckResult("trace_map_cp", float(max(-lmin_tr, 0.0)), 0.0, 1e-10,
                              "Kraus form implies a PSD Choi matrix"))
    lmin_t = posmap.is_completely_positive(t2).choi_min_eig
    checks.append(CheckResult("transpose_choi_min", float(lmin_t), -0.5, 1e-12,
                              "Choi of transposition is the swap operator over 2"))

    return ScenarioReport(
        name="trace_transpose_maps",
        parameters={},
        checks=checks,
    )


def run_all_scenarios() -> list[ScenarioReport]:
    return [
        scenario_product_closed_forms(),
        scenario_threshold(),
        scenario_delayed_cp(1.0, 2.0),
        scenario_trace_transpose_maps(),
    ]
