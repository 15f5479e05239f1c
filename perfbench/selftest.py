"""Tests of the benchmark itself (not collected by the library's test run).

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

* the oracles agree with the library's closed forms on fixed inputs;
* a one-operation smoke run of each workload prints every end-to-end
  metric, and a short traced run prints every per-layer metric;
* the tracer leaves the ``sgwl`` module attributes as they were;
* the benchmark refuses to run where there is no ``sgwl`` source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
from sgwl import cli, decomp, gksl, matcore, posmap, scenarios  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = ROOT / ".perfbench_work" / "selftest"


def _run(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=180)


# --- oracles against the library's closed forms ---------------------------------

@pytest.mark.parametrize("rates", [(1, 1, 1), (1, -1, 1), (1, -1.2, 1), (0.5, 0.3, -0.2),
                                   (-0.1, 0.05, 0.2), (0, 0, 0)])
def test_qubit_oracle_matches_closed_form(rates):
    assert oracles.qubit_positive(rates) == posmap.qubit_positivity_conditions(*rates)


@pytest.mark.parametrize("rates1,rates2", [((1, 1, 1), (1, -1, 1)), ((0.3, 1, 1), (1, -0.5, 1)),
                                           ((0.7, 0.9, 1.1), (1, -0.4, 0.8)),
                                           ((0.2, 2, 2), (2, -0.6, 1))])
def test_product_oracle_matches_closed_form(rates1, rates2):
    assert oracles.qubit_product_positive(rates1, rates2) == posmap.qubit_product_positivity(
        rates1, rates2)


@pytest.mark.parametrize("t", [0.05, 0.2, 0.5, 1.0, 2.0])
def test_flagship_closed_forms_match_pairing_table(t):
    s = oracles.flagship_superop(t)
    np.testing.assert_allclose(s, decomp.witness_product_map(t), atol=1e-14)
    j = oracles.choi(s)
    np.testing.assert_allclose(j, posmap.choi(s), atol=1e-15)
    table = decomp.pairing_table(t)
    rho_be = decomp.bound_entangled_state().mat
    weights = np.zeros((4, 4))
    for mu in range(4):
        for nu in range(4):
            x = decomp.bell_state_projector(mu, nu).mat
            weights[mu, nu] = np.trace(rho_be @ x).real
            assert table[mu, nu] == pytest.approx(np.trace(j @ x.T).real, abs=1e-14)
    assert float((weights * table).sum()) == pytest.approx(oracles.flagship_pairing(t), abs=1e-14)
    assert decomp.choi_min_criterion(s) == pytest.approx(oracles.flagship_choi_min(t), abs=1e-14)


@pytest.mark.parametrize("t", [0.2, oracles.T_STAR - 0.05, oracles.T_STAR + 0.05, 1.5])
def test_flagship_oracle_matches_explicit_decomposition(t):
    s1, s2 = decomp.explicit_decomposition(t)
    np.testing.assert_allclose(s1 + s2 @ gksl.transpose_superop(4), oracles.flagship_superop(t),
                               atol=1e-14)
    # S2 is CP exactly past the threshold ln(3)/2
    assert (oracles.min_eig(oracles.choi(s2)) >= -1e-12) == (t >= oracles.T_STAR)


def test_onset_root_matches_bisection_through_the_library():
    for a, b in ((1.0, 2.0), (0.6, 1.9)):
        gen = gksl.build_generator(gksl.qubit_spec(2.0 * np.diag([b, b, a - b])))
        t = decomp.find_threshold(lambda s: gksl.evolve(gen, s), decomp.choi_min_criterion, 0.02, 5.0)
        assert t == pytest.approx(oracles.onset_root(a, b), abs=1e-8)


def test_choi_map_oracles():
    rng = np.random.default_rng(0)
    a, b, c = 2.0, 0.3, 0.8
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    mix = np.array([[a, b, c], [c, a, b], [b, c, a]])
    expected = np.diag(mix @ np.diag(x)) - x
    np.testing.assert_allclose(gksl.apply_superop(oracles.choi_map_superop(a, b, c), x), expected,
                               atol=1e-14)
    assert oracles.choi_map_positive(2, 0, 1) and not oracles.choi_map_decomposable(2, 0, 1)
    assert oracles.choi_map_positive(1, 1, 1) and oracles.choi_map_decomposable(1, 1, 1)
    assert not oracles.choi_map_positive(1.5, 0.3, 0.9)


def test_superoperator_helpers_match_library():
    rng = np.random.default_rng(1)
    for da, db in ((2, 2), (2, 3), (3, 2)):
        sa = rng.normal(size=(da * da, da * da)) + 1j * rng.normal(size=(da * da, da * da))
        sb = rng.normal(size=(db * db, db * db)) + 1j * rng.normal(size=(db * db, db * db))
        np.testing.assert_allclose(oracles.kron_superop(sa, sb, da, db),
                                   gksl.kron_superop(sa, sb, da, db), atol=1e-13)
    j = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    np.testing.assert_allclose(oracles.partial_transpose_first(j, 3),
                               matcore.partial_transpose(j, 3, 3, "A"))
    s = decomp.witness_product_map(0.4)
    assert oracles.trace_preservation_dev(s) < 1e-14
    assert oracles.hermiticity_preservation_dev(s) < 1e-14
    assert oracles.hermiticity_preservation_dev(s * 1j) > 0.1


# --- tracer -----------------------------------------------------------------------------

MODULES = (matcore, gksl, posmap, decomp, scenarios, cli)


def test_tracer_restores_module_attributes():
    before = {m.__name__: dict(vars(m)) for m in MODULES}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gksl.as_cmatrix is matcore.as_cmatrix is decomp.as_cmatrix
        assert gksl.as_cmatrix is not before["sgwl.matcore"]["as_cmatrix"]
        j = posmap.choi(decomp.witness_product_map(0.2))  # outside an operation: no spans
        tracer.begin_op(0)
        result = decomp.decomposability_feasibility(j)
        tracer.end_op()
    finally:
        tracer.uninstall()
    for m in MODULES:
        after = vars(m)
        assert after.keys() == before[m.__name__].keys()
        for key, value in before[m.__name__].items():
            assert after[key] is value, f"{m.__name__}.{key} not restored"
    totals = tracer.summary()
    assert totals["calls:decomp.feasibility"] == 1
    assert totals["count:feasibility.iterations"] == result.iterations
    assert totals["count:feasibility.witnessed"] == 1
    assert totals["calls:matcore.partial_transpose"] > 0
    assert totals["ms:decomp.feasibility"] >= totals["self:decomp"] > 0
    assert sum(totals[f"self:{m}"] for m in tracing.MODULES) == pytest.approx(
        totals["ms:decomp.feasibility"], rel=1e-9)


# --- runs ---------------------------------------------------------------------------------

def _last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_one_operation_smoke_run_prints_every_end_to_end_metric(workload):
    out = _last_json(_run(["--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", "0", "--max-ops", "1"]))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] == 1 and out["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", ["decomposability", "cli"])
def test_traced_run_prints_every_per_layer_metric(workload):
    out = _last_json(_run(["--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", "1", "--max-ops", "2"]))
    assert out["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert out["metrics"]["cli.import_ms"]["value"] > 0


def test_benchmark_tables_agree():
    import run
    import workloads

    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCH["per_layer"]] == [m for m, _, _ in tracing.PER_LAYER]


def test_refuses_to_run_without_sgwl_source():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "positivity",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    shutil.rmtree(bare)
