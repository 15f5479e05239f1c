"""The four benchmark workloads: seeded inputs, operations and their checks.

A workload is a fixed *plan*: how many operations of each kind make up one
cycle.  Every cycle draws fresh inputs from ``numpy.random.default_rng([seed,
cycle])`` and shuffles its operations, so the mix of kinds, and with it the
mix of short and long searches, is the same in every run while the inputs
differ from seed to seed.  Each operation carries its truth label, computed
in ``oracles`` when the input is drawn; ``sgwl`` only ever sees the inputs.

An operation is one user question answered through the public API.  Its
``run`` is the timed part; its ``check`` runs outside the timed region and
returns ``(outcome, verdict)``: the outcome is ``OK``, ``INCONCLUSIVE``
(``Undetermined`` or ``MaxIterations``) or a failure message, and the
verdict is a short string that a traced replay must reproduce.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
import tracing
from sgwl import decomp, gksl, posmap

OK = "ok"
INCONCLUSIVE = "inconclusive"

CP = posmap.STATUS_CP
PNCP = posmap.STATUS_POSITIVE_NOT_CP
NOT_POSITIVE = posmap.STATUS_NOT_POSITIVE
UNDETERMINED = posmap.STATUS_UNDETERMINED
FEASIBLE = decomp.FEASIBLE
WITNESSED = decomp.INFEASIBLE_WITNESSED
MAX_ITERATIONS = decomp.MAX_ITERATIONS
NON_DECOMPOSABLE = "NonDecomposable"

CLI_TIMEOUT_S = 60.0


class CheckFailed(Exception):
    """An answer contradicts its label or a certificate does not re-verify."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    truth: str
    run: Callable[["RunContext"], object]
    check: Callable[[object], tuple[str, str]]


class RunContext:
    """What an operation may ask of the runner: counters and, for ``cli``,
    how to start a process.  With a tracer, ``cli`` operations run through
    ``cli_entry.py`` under ``-X importtime``; what those processes record is
    folded into ``process_totals`` by ``absorb``, outside the timed region."""

    def __init__(self, work: Path, tracer=None):
        self.work = work
        self.tracer = tracer
        self.process_totals: dict[str, float] = {}
        self._pending: list[tuple[str, float, Path]] = []

    def count(self, key: str, n: float = 1) -> None:
        if self.tracer is not None:
            self.tracer.count(key, n)

    def run_cli(self, args: list[str]) -> subprocess.CompletedProcess:
        cmd = [sys.executable, "-m", "sgwl.cli", *args]
        spans = None
        if self.tracer is not None:
            spans = self.work / f"cli-spans-{len(self._pending)}.npz"
            cmd = [sys.executable, "-X", "importtime", str(Path(__file__).with_name("cli_entry.py")),
                   str(spans), *args]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        if spans is not None:
            self._pending.append((proc.stderr, time.perf_counter() - start, spans))
        return proc

    def absorb(self) -> None:
        for stderr, wall_s, spans in self._pending:
            imports = tracing.parse_importtime(stderr)
            imports["count:cli.command_ms"] = wall_s * 1e3 - imports["count:cli.import_ms"]
            tracing.merge(self.process_totals, imports)
            if spans.is_file():
                tracing.merge(self.process_totals, tracing.load_summary(spans))
                spans.unlink()
        self._pending.clear()


# --- random inputs ------------------------------------------------------------

def _unitary(rng, d: int) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def _rotated(rng, rates, basis) -> np.ndarray:
    """R^T diag(rates) R for the rotation a random unitary induces on the
    traceless basis: a unitarily conjugate semigroup, same positivity."""
    r = gksl.basis_rotation_matrix(_unitary(rng, basis.dim), basis)
    return r.T @ np.diag(np.asarray(rates, dtype=float)) @ r


def _jump_operator_c(rng, n: int) -> np.ndarray:
    """C = c c^dag for one random jump operator: PSD of rank one."""
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    c *= rng.uniform(0.5, 1.5) / np.linalg.norm(c)
    return np.outer(c, c.conj())


# Rate shapes for positive verdicts.  How long the search runs depends on the
# shape of the rates (0.1 s to 1.7 s per check), so a cycle uses the shapes in
# turn and draws only an overall scale, the rotation and H; the mix of search
# lengths is then the same in every run.  Every pairwise (or cross) sum of a
# shape is at least 0.2, so after scaling by >= 0.5 each input stays at least
# 0.05 away from the positivity boundary.
QUBIT_SHAPES = {
    CP: ((0.3, 1.0, 1.0), (0.2, 0.5, 1.0)),
    PNCP: ((1.0, -0.5, 1.0), (0.5, -0.3, 1.0), (1.5, -1.0, 1.2)),
}
PRODUCT_SHAPES = (((1.0, 1.0, 1.0), (1.0, -0.5, 1.0)), ((0.7, 0.9, 1.1), (1.0, -0.4, 0.8)))


def _scale(rng) -> float:
    return float(rng.uniform(0.5, 2.0))


def _qubit_rates(rng, truth: str, slot: int) -> np.ndarray:
    """Diagonal qubit rates with the given truth: a scaled shape for positive
    labels, a random draw at least 0.05 past the boundary for NotPositive."""
    if truth in QUBIT_SHAPES:
        shapes = QUBIT_SHAPES[truth]
        return _scale(rng) * np.array(shapes[slot % len(shapes)])
    m = rng.uniform(0.3, 1.2)
    return rng.permutation([-m, rng.uniform(0.0, m - 0.05), rng.uniform(0.0, 1.5)])


def _qubit_truth(rates) -> str:
    if not oracles.qubit_positive(rates):
        return NOT_POSITIVE
    return CP if oracles.qubit_cp(rates) else PNCP


# --- positivity -----------------------------------------------------------------

def _check_generator_verdict(truth: str, spec, gen, verdict) -> tuple[str, str]:
    status = verdict.status
    if status == UNDETERMINED:
        return INCONCLUSIVE, status
    expect(status == truth, f"verdict {status}, truth {truth}")
    if status == NOT_POSITIVE:
        psi, phi = (np.asarray(v, dtype=complex) for v in verdict.pair)
        psi, phi = psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)
        expect(abs(np.vdot(psi, phi)) <= oracles.CERT_TOL, "violating pair is not orthogonal")
        if spec is not None:
            # on orthonormal pairs the functional is w^T C conj(w), w_a = <phi|F_a|psi>
            w = np.array([np.vdot(phi, f @ psi) for f in spec.basis.traceless()])
            value = float((w @ spec.c_matrix @ w.conj()).real)
        else:
            value = oracles.generator_functional(gen.full, psi, phi)
        expect(value < 0, f"violating pair re-evaluates to {value:.3e}")
        expect(abs(value - verdict.min_value) <= oracles.CERT_TOL * max(1.0, abs(value)),
               "reported violation differs from its re-evaluation")
    return OK, status


def _generator_op(kind: str, truth: str, spec) -> Op:
    def run(ctx):
        gen = gksl.build_generator(spec)
        return gen, posmap.kossakowski_positivity_check(gen)

    def check(result):
        gen, verdict = result
        return _check_generator_verdict(truth, spec, gen, verdict)

    return Op(kind, truth, run, check)


def _qubit_op(kind: str, truth: str):
    def make(rng, build, slot):
        rates = _qubit_rates(rng, truth, slot)
        expect(_qubit_truth(rates) == truth, "drawn rates miss their label")
        c = _rotated(rng, rates, gksl.pauli_basis())
        return _generator_op(kind, truth, gksl.qubit_spec(c, _hermitian(rng, 2)))
    return make


def _product_op(kind: str, truth: str):
    def make(rng, build, slot):
        # factor 1 is CP; factor 2 is positive, not CP (one negative rate -m)
        if truth == PNCP:
            shape1, shape2 = PRODUCT_SHAPES[slot % len(PRODUCT_SHAPES)]
            scale = _scale(rng)
            rates1, rates2 = scale * np.array(shape1), scale * np.array(shape2)
        else:
            m = rng.uniform(0.3, 0.8)
            rates2 = rng.permutation([-m, *(m + 0.05 + rng.uniform(0.0, 1.0, size=2))])
            rates1 = rng.permutation([rng.uniform(0.0, m - 0.05), *rng.uniform(0.05, 1.5, size=2)])
        label = PNCP if oracles.qubit_product_positive(rates1, rates2) else NOT_POSITIVE
        expect(label == truth and oracles.qubit_cp(rates1) and _qubit_truth(rates2) == PNCP,
               "drawn rates miss their label")
        basis = gksl.pauli_basis()
        spec1 = gksl.qubit_spec(_rotated(rng, rates1, basis), _hermitian(rng, 2))
        spec2 = gksl.qubit_spec(_rotated(rng, rates2, basis), _hermitian(rng, 2))

        def run(ctx):
            gen = gksl.product_generator(gksl.build_generator(spec1), gksl.build_generator(spec2))
            return gen, posmap.kossakowski_positivity_check(gen)

        def check(result):
            gen, verdict = result
            return _check_generator_verdict(truth, None, gen, verdict)

        return Op(kind, truth, run, check)
    return make


def _gell_mann_op(kind: str, truth: str, dims: tuple[int, ...]):
    def make(rng, build, slot):
        d = dims[slot % len(dims)]
        n = d * d - 1
        if truth == CP:
            c = _jump_operator_c(rng, n)
        else:
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            c = -(a @ a.conj().T / n + 0.1 * np.eye(n))  # negative definite
        spec = gksl.KossakowskiSpec(d, _hermitian(rng, d), c, gksl.gell_mann_basis(d))
        return _generator_op(kind, truth, spec)
    return make


def _map_op(kind: str, truth: str, gamma_t: tuple[float, float] = (0.1, 1.0)):
    """Positivity of one evolved map.  For the transpose-mixing map the
    search length and outcome depend on gamma * t: up to about 0.5 the search
    decides quickly, near 2 it ends Undetermined today, so each band is its
    own kind with a fixed share of the mix."""
    def make(rng, build, slot):
        gt = float(rng.uniform(*gamma_t))
        if truth == PNCP:
            # rotated (1+a)/2 id + (1-a)/2 T with a = exp(-2 gamma t): positive,
            # not CP for t > 0.  No H: it does not commute with the dissipator,
            # and e^{t(H+D)} can be CP.
            d, gamma = 2, float(rng.uniform(0.5, 1.5))
            c = _rotated(rng, gamma * np.array([1.0, -1.0, 1.0]), gksl.pauli_basis())
            h = np.zeros((2, 2))
        else:
            # anti-depolarizing: exp(tL) = e^{gdt} id + (1 - e^{gdt}) Tr/d is not
            # positive for t > 0; L commutes with unitary conjugation, so H keeps that
            d, gamma = int(rng.choice([2, 3])), float(rng.uniform(0.2, 1.0))
            c, h = -gamma * np.eye(d * d - 1), _hermitian(rng, d)
        t = gt / gamma
        spec = gksl.KossakowskiSpec(d, h, c, gksl.standard_basis(d))

        def run(ctx):
            s = gksl.evolve(gksl.build_generator(spec), t)
            return s, posmap.map_positivity_check(s)

        def check(result):
            s, verdict = result
            if verdict.status == UNDETERMINED:
                return INCONCLUSIVE, verdict.status
            expect(verdict.status == truth, f"verdict {verdict.status}, truth {truth}")
            if truth == NOT_POSITIVE:
                psi, phi = (np.asarray(v, dtype=complex) for v in verdict.pair)
                value = oracles.generator_functional(
                    s, psi / np.linalg.norm(psi), phi / np.linalg.norm(phi))
                expect(value < 0, f"violating pair re-evaluates to {value:.3e}")
            return OK, verdict.status

        return Op(kind, truth, run, check)
    return make


# --- decomposability --------------------------------------------------------------

def _verify_certificate(j: np.ndarray, j1: np.ndarray, j2: np.ndarray) -> None:
    d = int(round(np.sqrt(j.shape[0])))
    scale = max(1.0, float(np.linalg.norm(j, 2)))
    expect(oracles.min_eig(j1) >= -oracles.CERT_TOL * scale, "J1 is not PSD")
    expect(oracles.min_eig(j2) >= -oracles.CERT_TOL * scale, "J2 is not PSD")
    residual = np.linalg.norm(j - j1 - oracles.partial_transpose_first(j2, d))
    expect(residual <= oracles.RESIDUAL_TOL, f"J != J1 + PT(J2), residual {residual:.2e}")


def _verify_witness(j: np.ndarray, x: np.ndarray, pairing: float) -> None:
    d = int(round(np.sqrt(j.shape[0])))
    expect(abs(np.trace(x).real - 1.0) <= oracles.CERT_TOL, "witness trace is not 1")
    expect(oracles.min_eig(x) >= -oracles.CERT_TOL, "witness is not PSD")
    expect(oracles.min_eig(oracles.partial_transpose_first(x, d)) >= -oracles.CERT_TOL,
           "witness is not PPT")
    value = float(np.trace(j @ x.T).real)
    expect(value < 0, f"witness pairs to {value:.3e}")
    expect(abs(value - pairing) <= oracles.CERT_TOL, "reported pairing differs from Tr(J X^T)")


def _feasibility_op(kind: str, truth: str, j: np.ndarray, pairing: float | None = None) -> Op:
    def run(ctx):
        return decomp.decomposability_feasibility(j)

    def check(result):
        status = result.status
        if status == MAX_ITERATIONS:
            return INCONCLUSIVE, status
        if status == FEASIBLE:
            expect(truth == FEASIBLE, f"certificate returned for a {truth} map")
            expect(result.certificate is not None, "Feasible without a certificate")
            _verify_certificate(j, result.certificate.j1, result.certificate.j2)
        else:
            expect(status == WITNESSED, f"unknown status {status}")
            expect(truth != FEASIBLE, "witness returned for a decomposable map")
            _verify_witness(j, result.witness.mat, result.pairing)
            if pairing is not None:
                expect(abs(result.pairing - pairing) <= oracles.CERT_TOL,
                       f"pairing {result.pairing:.12f}, closed form {pairing:.12f}")
        return OK, status

    return Op(kind, truth, run, check)


def _flagship_op(kind: str, below: bool):
    def make(rng, build, slot):
        margin = 0.1
        if below:
            t = float(rng.uniform(0.05, oracles.T_STAR - margin))
            truth, pairing = WITNESSED, oracles.flagship_pairing(t)
        else:
            t = float(rng.uniform(oracles.T_STAR + margin, 2.0))
            truth, pairing = FEASIBLE, None
        return _feasibility_op(kind, truth, oracles.choi(oracles.flagship_superop(t)), pairing)
    return make


def _choi_map_op(kind: str, decomposable: bool):
    def make(rng, build, slot):
        a = float(rng.uniform(1.3, 2.7))
        boundary = (3 - a) ** 2 / 4
        if decomposable:
            p = boundary * rng.uniform(1.2, 4.0)
        else:
            floor = (2 - a) ** 2 if a < 2 else 0.0  # positivity needs bc >= (2-a)^2
            p = floor + rng.uniform(0.1, 0.9) * (boundary - floor)
        # b + c = sigma >= max(3 - a, 2 sqrt(p)) keeps a + b + c >= 3 and b, c real
        sigma = max(3 - a, 2 * np.sqrt(p)) * (1 + rng.uniform(0.02, 0.5))
        root = np.sqrt(sigma * sigma - 4 * p)
        b, c = rng.permutation([(sigma + root) / 2, (sigma - root) / 2])
        expect(oracles.choi_map_positive(a, b, c), "drawn Phi[a,b,c] is not positive")
        expect(oracles.choi_map_decomposable(a, b, c) == decomposable,
               "drawn Phi[a,b,c] misses its label")
        truth = FEASIBLE if decomposable else NON_DECOMPOSABLE
        return _feasibility_op(kind, truth, oracles.choi(oracles.choi_map_superop(a, b, c)))
    return make


def _random_cp_op(rng, build, slot) -> Op:
    d = int(rng.choice([2, 3, 4]))
    a = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    j = a @ a.conj().T
    return _feasibility_op("random-cp", FEASIBLE, j / np.trace(j).real)


# --- evolution ------------------------------------------------------------------------

def _check_semigroup_element(s: np.ndarray) -> None:
    expect(oracles.trace_preservation_dev(s) <= oracles.CERT_TOL, "S(t) is not trace preserving")
    expect(oracles.hermiticity_preservation_dev(s) <= oracles.CERT_TOL,
           "S(t) is not Hermiticity preserving")


def _scan_op(d: int):
    def make(rng, build, slot):
        n = d * d - 1
        basis = gksl.standard_basis(d)
        times = np.linspace(rng.uniform(0.05, 0.2), rng.uniform(1.0, 2.0), 8)
        spec1 = gksl.KossakowskiSpec(d, _hermitian(rng, d), _jump_operator_c(rng, n), basis)
        if d == 2:  # a CP factor times a positive, not CP one, as in the flagship
            c2 = _rotated(rng, _qubit_rates(rng, PNCP, slot), basis)
        else:
            c2 = _jump_operator_c(rng, n)
        spec2 = gksl.KossakowskiSpec(d, _hermitian(rng, d), c2, basis)
        both_cp = d != 2

        def run(ctx):
            g1, g2 = gksl.build_generator(spec1), gksl.build_generator(spec2)
            gen = gksl.product_generator(g1, g2)
            rho_be = decomp.bound_entangled_state() if d == 2 else None
            rows = []
            for t in times:
                s = gksl.evolve(gen, float(t))
                pairing = decomp.pairing(s, rho_be) if rho_be is not None else None
                rows.append((s, decomp.choi_min_criterion(s), pairing))
            return g1, g2, rows

        def check(result):
            g1, g2, rows = result
            for t, (s, choi_min, _) in zip(times, rows):
                _check_semigroup_element(s)
                factors = oracles.kron_superop(gksl.evolve(g1, float(t)), gksl.evolve(g2, float(t)), d, d)
                expect(np.abs(s - factors).max() <= oracles.CERT_TOL,
                       "S(t) differs from the product of its factors")
                if both_cp:
                    expect(choi_min >= -oracles.CERT_TOL, "product of CP factors is not CP")
            return OK, "".join("+" if r[1] >= -oracles.CERT_TOL else "-" for r in rows)

        return Op(f"scan-{d}", "TP,HP,product" + (",CP" if both_cp else ""), run, check)
    return make


def _assembly_op(d: int):
    def make(rng, build, slot):
        spec = gksl.KossakowskiSpec(d, _hermitian(rng, d), _jump_operator_c(rng, d * d - 1),
                                    gksl.gell_mann_basis(d))
        t = float(rng.uniform(0.1, 1.0))

        def run(ctx):
            return gksl.evolve(gksl.build_generator(spec), t)

        def check(s):
            _check_semigroup_element(s)
            expect(oracles.min_eig(oracles.choi(s)) >= -oracles.CERT_TOL, "CP generator, S(t) not CP")
            return OK, "cp"

        return Op(f"assemble-{d}", "TP,HP,CP", run, check)
    return make


def _counted(ctx: RunContext, criterion):
    def counted(s):
        ctx.count("threshold.criterion_calls")
        return criterion(s)
    return counted


def _threshold_flagship_op(rng, build, slot) -> Op:
    lo, hi = float(rng.uniform(0.05, 0.3)), float(rng.uniform(1.0, 3.0))

    def run(ctx):
        gen = decomp.witness_product_generator()
        criterion = decomp.pairing_criterion(decomp.bound_entangled_state())
        return decomp.find_threshold(lambda t: gksl.evolve(gen, t), _counted(ctx, criterion), lo, hi)

    def check(t):
        expect(abs(t - oracles.T_STAR) <= 1e-8, f"threshold {t:.10f}, closed form ln(3)/2")
        return OK, f"{t:.7f}"

    return Op("threshold-flagship", "ln(3)/2", run, check)


def _threshold_onset_op(rng, build, slot) -> Op:
    a = float(rng.uniform(0.5, 1.5))
    b = a + float(rng.uniform(0.5, 1.5))
    spec = gksl.qubit_spec(_rotated(rng, 2.0 * np.array([b, b, a - b]), gksl.pauli_basis()))
    t_ref = oracles.onset_root(a, b)

    def run(ctx):
        gen = gksl.build_generator(spec)
        return decomp.find_threshold(lambda t: gksl.evolve(gen, t),
                                     _counted(ctx, decomp.choi_min_criterion), 0.02, 5.0)

    def check(t):
        expect(abs(t - t_ref) <= 1e-8, f"onset {t:.10f}, independent root {t_ref:.10f}")
        return OK, f"{t:.7f}"

    return Op("threshold-onset", "cosh(2bt)=exp(2(b-a)t)", run, check)


# --- cli ----------------------------------------------------------------------------------

def _encode(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _write_spec(path: Path, c, h, basis: str = "pauli") -> str:
    d = np.asarray(h).shape[0]
    path.write_text(json.dumps({"dim": d, "basis": basis, "H": _encode(h), "C": _encode(c)}),
                    encoding="utf-8")
    return str(path)


def _cli_op(kind: str, truth: str, args: list[str], check_output) -> Op:
    def run(ctx):
        return ctx.run_cli(args)

    def check(proc):
        expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return check_output(proc)

    return Op(kind, truth, run, check)


def _flagship_specs(work: Path) -> tuple[str, str]:
    zero = np.zeros((2, 2))
    return (_write_spec(work / "depolarizing.json", np.diag([1.0, 1.0, 1.0]), zero),
            _write_spec(work / "transpose-mixing.json", np.diag([1.0, -1.0, 1.0]), zero))


def _cli_check_op(truth: str):
    def make(rng, build, slot):
        rates = _qubit_rates(rng, truth, slot)
        spec = _write_spec(build.work / f"check-{build.next_file()}.json",
                           _rotated(rng, rates, gksl.pauli_basis()), _hermitian(rng, 2))

        def check_output(proc):
            out = json.loads(proc.stdout)
            expect(out["cp"] == oracles.qubit_cp(rates), "cp flag contradicts the rates")
            expect(abs(out["kossakowski_min_eig"] - float(np.min(rates))) <= oracles.CERT_TOL,
                   "kossakowski_min_eig differs from the smallest rate")
            if out["positivity"] == UNDETERMINED:
                return INCONCLUSIVE, out["positivity"]
            expect(out["positivity"] == truth, f"verdict {out['positivity']}, truth {truth}")
            return OK, out["positivity"]

        return _cli_op(f"check-{truth}", truth, ["check", spec], check_output)
    return make


def _cli_scan_op(rng, build, slot) -> Op:
    t0, t1, steps = float(rng.uniform(0.05, 0.3)), float(rng.uniform(1.0, 2.5)), 12
    depol, tmix = build.flagship_specs

    def check_output(proc):
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        expect(rows[0] == ["t", "alpha", "choi_min", "pairing_rhobe"], f"header {rows[0]}")
        expect(len(rows) == steps + 1, f"{len(rows) - 1} rows, asked for {steps}")
        for (t, alpha, choi_min, pairing), t_ref in zip(rows[1:], np.linspace(t0, t1, steps)):
            t = float(t)
            expect(abs(t - t_ref) <= 1e-12, "time grid differs")
            expect(abs(float(alpha) - oracles.flagship_alpha(t)) <= 1e-12, "alpha differs")
            expect(abs(float(choi_min) - oracles.flagship_choi_min(t)) <= oracles.CERT_TOL,
                   f"choi_min at t={t} differs from the closed form")
            expect(abs(float(pairing) - oracles.flagship_pairing(t)) <= oracles.CERT_TOL,
                   f"pairing at t={t} differs from (1-a)(1-3a)/48")
        return OK, "scan"

    args = ["scan", depol, tmix, "--t0", repr(t0), "--t1", repr(t1), "--steps", str(steps)]
    return _cli_op("scan", "closed forms", args, check_output)


def _decode_b64(text: str, n: int) -> np.ndarray:
    arr = np.frombuffer(base64.b64decode(text), dtype="<f8").reshape(n, n, 2)
    return arr[..., 0] + 1j * arr[..., 1]


def _cli_decompose_op(name: str, below: bool):
    def make(rng, build, slot):
        if below:
            t = float(rng.uniform(0.05, oracles.T_STAR - 0.1))
        else:
            t = float(rng.uniform(oracles.T_STAR + 0.1, 2.0))
        j = oracles.choi(oracles.flagship_superop(t))
        depol, tmix = build.flagship_specs

        def check_output(proc):
            out = json.loads(proc.stdout)
            if below:
                expect(out["status"] == "infeasible", f"status {out['status']}, truth infeasible")
                x = np.array([[complex(*e) for e in row] for row in out["witness"]])
                _verify_witness(j, x, out["pairing"])
                expect(abs(out["pairing"] - oracles.flagship_pairing(t)) <= oracles.CERT_TOL,
                       "pairing differs from (1-a)(1-3a)/48")
            else:
                expect(out["status"] == "feasible", f"status {out['status']}, truth feasible")
                expect(out["residual"] <= oracles.RESIDUAL_TOL, f"residual {out['residual']:.2e}")
                _verify_certificate(j, _decode_b64(out["j1_b64"], 16), _decode_b64(out["j2_b64"], 16))
            return OK, out["status"]

        truth = WITNESSED if below else FEASIBLE
        return _cli_op(name, truth, [name, depol, tmix, "--at-time", repr(t)], check_output)
    return make


def _cli_reproduce_op(rng, build, slot) -> Op:
    out_dir = str(build.work / "reports")

    def check_output(proc):
        expect("overall: PASS" in proc.stdout, "reproduce-paper did not print overall: PASS")
        return OK, "PASS"

    return _cli_op("reproduce-paper", "overall: PASS", ["reproduce-paper", "--out-dir", out_dir],
                   check_output)


# --- the workloads ------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    plan: tuple[tuple[str, int, Callable], ...]
    cycles_per_second: float  # upper estimate; sizes the inputs built at set-up
    warm: bool  # in-process workloads warm up; cli is left cold on purpose

    def cycle_size(self) -> int:
        return sum(count for _, count, _ in self.plan)


WORKLOADS = {
    "positivity": Workload("positivity", (
        ("qubit-cp", 1, _qubit_op("qubit-cp", CP)),
        ("qubit-pncp", 3, _qubit_op("qubit-pncp", PNCP)),
        ("qubit-np", 1, _qubit_op("qubit-np", NOT_POSITIVE)),
        ("product-pncp", 2, _product_op("product-pncp", PNCP)),
        ("product-np", 1, _product_op("product-np", NOT_POSITIVE)),
        ("gell-mann-cp-3", 1, _gell_mann_op("gell-mann-cp-3", CP, (3,))),
        ("gell-mann-cp-4", 1, _gell_mann_op("gell-mann-cp-4", CP, (4,))),
        ("gell-mann-cp-5", 1, _gell_mann_op("gell-mann-cp-5", CP, (5,))),
        ("gell-mann-np", 1, _gell_mann_op("gell-mann-np", NOT_POSITIVE, (3, 4, 5))),
        ("map-transpose-mixing-near", 1,
         _map_op("map-transpose-mixing-near", PNCP, gamma_t=(0.1, 0.5))),
        ("map-transpose-mixing-far", 1,
         _map_op("map-transpose-mixing-far", PNCP, gamma_t=(1.8, 2.2))),
        ("map-anti-depolarizing", 1, _map_op("map-anti-depolarizing", NOT_POSITIVE)),
    ), cycles_per_second=0.5, warm=True),
    "decomposability": Workload("decomposability", (
        ("flagship-below", 2, _flagship_op("flagship-below", True)),
        ("flagship-above", 2, _flagship_op("flagship-above", False)),
        ("choi-map-decomposable", 3, _choi_map_op("choi-map-decomposable", True)),
        ("choi-map-non-decomposable", 3, _choi_map_op("choi-map-non-decomposable", False)),
        ("random-cp", 2, _random_cp_op),
    ), cycles_per_second=5.0, warm=True),
    "evolution": Workload("evolution", (
        ("scan-2", 1, _scan_op(2)),
        ("scan-3", 1, _scan_op(3)),
        ("scan-4", 1, _scan_op(4)),
        ("assemble-5", 1, _assembly_op(5)),
        ("assemble-6", 1, _assembly_op(6)),
        ("assemble-7", 1, _assembly_op(7)),
        ("assemble-8", 1, _assembly_op(8)),
        ("threshold-flagship", 1, _threshold_flagship_op),
        ("threshold-onset", 1, _threshold_onset_op),
    ), cycles_per_second=2.0, warm=True),
    "cli": Workload("cli", (
        ("check-PositiveNotCP", 1, _cli_check_op(PNCP)),
        ("check-NotPositive", 1, _cli_check_op(NOT_POSITIVE)),
        ("scan", 1, _cli_scan_op),
        ("decompose", 1, _cli_decompose_op("decompose", below=False)),
        ("witness", 1, _cli_decompose_op("witness", below=True)),
        ("reproduce-paper", 1, _cli_reproduce_op),
    ), cycles_per_second=0.5, warm=False),
}


class BuildContext:
    """Set-up state shared by the input makers of one run."""

    def __init__(self, work: Path):
        self.work = work
        self._files = 0
        self._flagship = None

    def next_file(self) -> int:
        self._files += 1
        return self._files

    @property
    def flagship_specs(self) -> tuple[str, str]:
        if self._flagship is None:
            self._flagship = _flagship_specs(self.work)
        return self._flagship


class Inputs:
    """The cycles of a run.  ``n_cycles`` are built at set-up; indexing past
    them builds more, so a faster program never runs out of fresh inputs.
    ``stream`` separates warm-up inputs from measured ones."""

    def __init__(self, workload: Workload, seed: int, n_cycles: int, work: Path, stream: int = 0):
        self.workload = workload
        self.seed = seed
        self.stream = stream
        self.build = BuildContext(work)
        self.cycles = [self._build(k) for k in range(n_cycles)]

    def _build(self, k: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, self.stream, k])
        ops = [make(rng, self.build, k * count + j) for _, count, make in self.workload.plan
               for j in range(count)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def __getitem__(self, k: int) -> list[Op]:
        while len(self.cycles) <= k:
            self.cycles.append(self._build(len(self.cycles)))
        return self.cycles[k]
