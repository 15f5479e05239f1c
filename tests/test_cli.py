import base64
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgwl import cli, gksl

DEPOL = {
    "dim": 2,
    "basis": "pauli",
    "H": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
    "C": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]],
    "label": "depolarizing",
}
TMIX = {
    "dim": 2,
    "basis": "pauli",
    "H": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
    "C": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [-1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]],
    "label": "transpose-mixing",
}


@pytest.fixture
def spec_files(tmp_path):
    a = tmp_path / "depol.json"
    b = tmp_path / "tmix.json"
    a.write_text(json.dumps(DEPOL))
    b.write_text(json.dumps(TMIX))
    return str(a), str(b)


def decode_b64_matrix(blob, n):
    raw = np.frombuffer(base64.b64decode(blob), dtype="<f8").reshape(n, n, 2)
    return raw[..., 0] + 1j * raw[..., 1]


class TestCheck:
    def test_transpose_mixing_at_time(self, spec_files, capsys):
        _, tmix = spec_files
        rc = cli.main(["check", tmix, "--at-time", "0.5", "--budget", "16"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["cp"] is False
        assert out["positivity"] == "PositiveNotCP"
        assert out["kossakowski_min_eig"] == pytest.approx(-1.0)
        assert out["proof"] == "trust-region"

    def test_cp_spec(self, spec_files, capsys):
        depol, _ = spec_files
        rc = cli.main(["check", depol, "--budget", "8"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["cp"] is True
        assert out["positivity"] == "CompletelyPositive"
        assert out["proof"] == "kossakowski-psd"

    def test_qutrit_spec_near_float_maximum(self, tmp_path, capsys):
        # C = 1e300 diag(-1, 0.2, ..., 0.2), H = 0: the search reads the unit
        # copy of N; on N itself numpy's eigh raised LinAlgError (exit 1)
        c = [[[1e300 * (-1.0 if i == 0 else 0.2) if i == j else 0.0, 0.0] for j in range(8)]
             for i in range(8)]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 3, "H": zeros(3), "C": c}))
        rc = cli.main(["check", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == cli.EXIT_OK
        assert (out["positivity"], out["proof"]) == ("NotPositive", "search")

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = cli.main(["check", str(bad)])
        assert rc == 2

    def test_bad_entry_reports_path(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TMIX))
        doc["C"][1][2] = [0.0]
        bad = tmp_path / "bad_entry.json"
        bad.write_text(json.dumps(doc))
        rc = cli.main(["check", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "C[1][2]" in err


    def test_dim_mismatch_rejected_before_basis(self, tmp_path, capsys, monkeypatch):
        # a 200-dimensional basis would take 16 * 200^4 bytes (about 26 GB)
        calls = []

        def refuse(d):
            calls.append(d)
            raise AssertionError(f"basis of dimension {d} built before the shape check")

        monkeypatch.setattr(gksl, "gell_mann_basis", refuse)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dict(DEPOL, dim=200, basis="gell-mann")))
        rc = cli.main(["check", str(path)])
        assert rc == 2
        assert "Hamiltonian must be 200x200, got (2, 2)" in capsys.readouterr().err
        assert calls == []

class TestScan:
    def test_threshold_sign_change(self, spec_files, tmp_path, capsys):
        depol, tmix = spec_files
        out_csv = tmp_path / "scan.csv"
        rc = cli.main([
            "scan", depol, tmix, "--t0", "0.1", "--t1", "2.0", "--steps", "40",
            "--criteria", "choi-min,pairing-rhobe", "--out", str(out_csv),
        ])
        assert rc == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "t,alpha,choi_min,pairing_rhobe"
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 40
        ts = [r[0] for r in rows]
        assert ts == sorted(ts)
        pairings = [r[3] for r in rows]
        signs = np.sign(pairings)
        flips = np.nonzero(np.diff(signs))[0]
        assert len(flips) == 1
        t_lo, t_hi = ts[flips[0]], ts[flips[0] + 1]
        assert t_lo < np.log(3) / 2 < t_hi
        assert pairings[0] < 0

    def test_two_steps(self, spec_files, capsys):
        depol, tmix = spec_files
        rc = cli.main([
            "scan", depol, tmix, "--t0", "0.5", "--t1", "1.0", "--steps", "2",
            "--criteria", "choi-min",
        ])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert len(out) == 3  # header + 2 rows

    def test_byte_stable(self, spec_files, capsys):
        depol, tmix = spec_files
        args = ["scan", depol, tmix, "--t0", "0.2", "--t1", "1.0", "--steps", "5"]
        cli.main(args)
        first = capsys.readouterr().out
        cli.main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_criterion(self, spec_files, capsys):
        depol, tmix = spec_files
        rc = cli.main([
            "scan", depol, tmix, "--t0", "0.1", "--t1", "1.0", "--steps", "3",
            "--criteria", "negativity",
        ])
        assert rc == 2


class TestDecompose:
    def test_feasible(self, spec_files, capsys):
        depol, tmix = spec_files
        rc = cli.main(["decompose", depol, tmix, "--at-time", "1.0"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["status"] == "feasible"
        assert out["residual"] <= 1e-8
        j1 = decode_b64_matrix(out["j1_b64"], 16)
        j2 = decode_b64_matrix(out["j2_b64"], 16)
        assert np.linalg.eigvalsh((j1 + j1.conj().T) / 2).min() >= -1e-9
        assert np.linalg.eigvalsh((j2 + j2.conj().T) / 2).min() >= -1e-9

    def test_infeasible_witness(self, spec_files, capsys):
        depol, tmix = spec_files
        rc = cli.main(["witness", depol, tmix, "--at-time", "0.2"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["status"] == "infeasible"
        assert out["pairing"] < 0
        w = np.array([[complex(re, im) for re, im in row] for row in out["witness"]])
        assert np.trace(w).real == pytest.approx(1.0, abs=1e-12)

    def test_cp_spec_zero_block(self, spec_files, capsys):
        depol, _ = spec_files
        rc = cli.main(["decompose", depol, "--at-time", "0.5"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        j2 = decode_b64_matrix(out["j2_b64"], 4)
        assert np.abs(j2).max() == 0.0

    def test_budget_exhaustion_exit_code(self, spec_files, capsys):
        depol, tmix = spec_files
        rc = cli.main(["decompose", depol, tmix, "--at-time", "1.0", "--max-iter", "3"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 4
        assert out["status"] == "max_iterations"
        assert out["gap"] > 0

    @pytest.mark.parametrize("max_iter", ["0", "-1"])
    def test_budget_below_one_rejected(self, spec_files, capsys, max_iter):
        depol, tmix = spec_files
        rc = cli.main(["witness", depol, tmix, "--at-time", "0.3", "--max-iter", max_iter])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "max_iter" in captured.err


def zeros(n):
    return [[[0, 0]] * n for _ in range(n)]


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


QUTRIT = {"dim": 3, "H": zeros(3), "C": zeros(8)}
RAGGED = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0], [1, 0]]]
# the depolarizing C, were the booleans read as 1 + 0j
BOOLEAN_C = [[[True, False], [0, 0], [0, 0]]] + DEPOL["C"][1:]

# argv (``{a}`` is a file holding ``doc``, ``{b}`` the depolarizing spec,
# ``{q}`` a qutrit spec, ``{missing}`` no file), the spec in ``{a}``, and
# the field or flag the message must name
PARSE_ERRORS = [
    pytest.param(["check", "{a}"], dict(DEPOL, C=[]), "C: expected a non-empty list",
                 id="rows-empty"),
    pytest.param(["check", "{a}"], dict(DEPOL, H=[1, 2]), "H[0]: expected a list",
                 id="row-not-list"),
    pytest.param(["check", "{a}"], dict(DEPOL, C=RAGGED), "C[1]: row length 2 != 3",
                 id="ragged"),
    pytest.param(["check", "{a}"], dict(DEPOL, C=BOOLEAN_C),
                 "C[0][0]: expected an [re, im] pair of numbers", id="boolean-entry"),
    pytest.param(["check", "{missing}"], DEPOL, "missing.json", id="missing-file"),
    pytest.param(["check", "{a}"], [DEPOL], "top level must be an object", id="not-object"),
    pytest.param(["check", "{a}"], without(DEPOL, "dim"), "dim: missing", id="dim-missing"),
    pytest.param(["check", "{a}"], dict(DEPOL, dim=1), "dim: expected an integer >= 2",
                 id="dim-below-2"),
    pytest.param(["check", "{a}"], dict(DEPOL, basis="spin"), "basis: expected",
                 id="unknown-basis"),
    pytest.param(["check", "{a}"], dict(QUTRIT, basis="pauli"), "basis: 'pauli' requires dim = 2",
                 id="pauli-qutrit"),
    pytest.param(["check", "{a}"], without(DEPOL, "H"), "H: missing", id="h-missing"),
    pytest.param(["check", "{a}"], without(DEPOL, "C"), "C: missing", id="c-missing"),
    pytest.param(["check", "{a}"], dict(DEPOL, label=3), "label: expected a string",
                 id="label-not-string"),
    pytest.param(["check", "{a}", "--at-time", "-0.5"], DEPOL, "--at-time",
                 id="check-negative-time"),
    pytest.param(["decompose", "{a}", "{b}", "--at-time", "-0.5"], DEPOL, "--at-time",
                 id="decompose-negative-time"),
    pytest.param(["scan", "{a}", "{b}", "--t0", "1.0", "--t1", "1.0", "--steps", "3"], DEPOL,
                 "--t1", id="t1-not-above-t0"),
    pytest.param(["scan", "{a}", "{b}", "--t0", "0.1", "--t1", "1.0", "--steps", "1"], DEPOL,
                 "--steps", id="one-step"),
    pytest.param(["scan", "{a}", "{b}", "--t0", "0.1", "--t1", "1.0", "--steps", "3",
                  "--criteria", " , "], DEPOL, "--criteria: no criteria", id="no-criteria"),
    pytest.param(["scan", "{q}", "{q}", "--t0", "0.1", "--t1", "1.0", "--steps", "3",
                  "--criteria", "pairing-rhobe"], DEPOL, "pairing-rhobe needs two qubit specs",
                 id="rhobe-qutrit"),
    pytest.param(["decompose", "{a}", "{b}", "{b}", "--at-time", "0.5"], DEPOL,
                 "one or two spec files, got 3", id="three-specs"),
]


class TestErrors:
    @pytest.mark.parametrize("argv, doc, message", PARSE_ERRORS)
    def test_parse_error(self, tmp_path, capsys, argv, doc, message):
        files = {name: tmp_path / f"{name}.json" for name in ("a", "b", "q", "missing")}
        files["a"].write_text(json.dumps(doc))
        files["b"].write_text(json.dumps(DEPOL))
        files["q"].write_text(json.dumps(QUTRIT))
        rc = cli.main([arg.format(**files) for arg in argv])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_PARSE
        assert captured.out == ""
        assert message in captured.err

    def test_numerical_error(self, spec_files, capsys):
        depol, _ = spec_files
        rc = cli.main(["check", depol, "--at-time", "1e15"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_NUMERICAL
        assert captured.out == ""
        assert "t = 1000000000000000.0" in captured.err

    def test_linear_algebra_error(self, spec_files, capsys, monkeypatch):
        # a solver failure that numpy reports as LinAlgError is numerical too
        def refuse(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        depol, _ = spec_files
        rc = cli.main(["check", depol])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_NUMERICAL
        assert captured.out == ""
        assert captured.err == "error: Eigenvalues did not converge\n"

    def test_memory_error(self, spec_files, capsys):
        # 10**15 grid points need 7.11 PiB, beyond any address space, so the
        # allocation fails at once on every platform
        depol, tmix = spec_files
        rc = cli.main(["scan", depol, tmix, "--t0", "0", "--t1", "1", "--steps", str(10**15)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_NUMERICAL
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate")


class TestReproduce:
    def test_full_run(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        rc = cli.main(["reproduce-paper", "--out-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "scenario_delayed_cp.json",
            "scenario_product_closed_forms.json",
            "scenario_threshold.json",
            "scenario_trace_transpose_maps.json",
            "summary.txt",
        ]
        assert "overall: PASS" in out
        assert "threshold_choi_min: estimate" in out
        for name in names[:4]:
            doc = json.loads((out_dir / name).read_text())
            assert doc["passed"] is True

    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = cli.main(["reproduce-paper", "--out-dir", str(blocker / "sub")])
        assert rc == 3


class TestModuleEntry:
    @staticmethod
    def python(*args):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                              timeout=60)

    def test_help_is_silent_on_stderr(self):
        # runpy warns when the package has already imported the module it runs
        proc = self.python("-m", "sgwl.cli", "--help")
        assert proc.returncode == 0
        assert "reproduce-paper" in proc.stdout
        assert proc.stderr == ""

    def test_import_leaves_cli_scenarios_and_scipy_unloaded(self):
        proc = self.python("-c", "import sys, sgwl; print(sorted(m for m in sys.modules if m in "
                                 "('sgwl.cli', 'sgwl.scenarios') or m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_reproduce_paper_needs_numpy_only(self, tmp_path):
        # scipy and hypothesis come with the [test] extras only; a None entry
        # in sys.modules makes every import of them raise ImportError
        proc = self.python("-c", "import runpy, sys\n"
                                 "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
                                 "sys.argv[1:] = ['reproduce-paper', '--out-dir', sys.argv[1]]\n"
                                 "runpy.run_module('sgwl.cli', run_name='__main__', alter_sys=True)",
                           str(tmp_path / "reports"))
        assert proc.returncode == 0, proc.stderr
        assert "overall: PASS" in proc.stdout.splitlines()

    def test_readme_quick_start(self):
        # the README's library example prints what its comments say, with
        # numpy only; a comment ending in "..." gives a prefix of the output
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Library quick start", 1)[1]
        block = block.split("```python\n", 1)[1].split("```", 1)[0]
        expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, flags=re.MULTILINE)
        assert len(expected) == 4
        proc = self.python("-c", "import sys\n"
                                 "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
                                 + block)
        assert proc.returncode == 0, proc.stderr
        printed = proc.stdout.splitlines()
        assert len(printed) == len(expected)
        for line, comment in zip(printed, expected):
            if comment.endswith("..."):
                assert line.startswith(comment[:-3]), (line, comment)
            else:
                assert line == comment


class TestSeedOverride:
    def test_env_seed(self, spec_files, capsys, monkeypatch):
        _, tmix = spec_files
        monkeypatch.setenv("SGWL_SEED", "12345")
        rc = cli.main(["check", tmix, "--budget", "8"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["positivity"] == "PositiveNotCP"

    def test_bad_env_seed(self, spec_files, capsys, monkeypatch):
        _, tmix = spec_files
        for raw in ("not-a-number", "-1"):
            monkeypatch.setenv("SGWL_SEED", raw)
            rc = cli.main(["check", tmix])
            assert rc == 2
            assert "SGWL_SEED" in capsys.readouterr().err
