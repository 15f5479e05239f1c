"""Command-line front end.

Subcommands:

* ``check``      -- positivity / complete-positivity verdicts for one spec
* ``scan``       -- criterion curves for a product of two specs, as CSV
* ``decompose``  -- decomposability certificate or witness for a map
* ``witness``    -- alias of decompose (named for the infeasible outcome)
* ``reproduce-paper`` -- run the bundled scenario suite and write reports

Exit codes: 0 ok, 2 parse/validation error, 3 numerical or I/O failure,
4 inconclusive (iteration budget exhausted), 5 scenario check failure.
The environment variable ``SGWL_SEED`` (decimal integer >= 0) overrides the
default optimizer seed.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import decomp, gksl, matcore, posmap, scenarios

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_INCONCLUSIVE = 4
EXIT_SCENARIO = 5


class SpecFormatError(ValueError):
    """Spec file rejected; the message carries the offending field path."""


def _seed() -> int:
    raw = os.environ.get("SGWL_SEED")
    if raw is None:
        return posmap.DEFAULT_SEED
    try:
        seed = int(raw)
    except ValueError as exc:
        raise SpecFormatError(f"SGWL_SEED: expected a decimal integer, got {raw!r}") from exc
    if seed < 0:
        raise SpecFormatError(f"SGWL_SEED: expected a nonnegative integer, got {raw!r}")
    return seed


def _parse_complex_matrix(node, path: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise SpecFormatError(f"{path}: expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(node):
        if not isinstance(row, list):
            raise SpecFormatError(f"{path}[{i}]: expected a list of [re, im] pairs")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SpecFormatError(f"{path}[{i}]: row length {len(row)} != {width}")
        parsed = []
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(isinstance(v, (int, float)) for v in entry)):
                raise SpecFormatError(f"{path}[{i}][{j}]: expected an [re, im] pair of numbers")
            parsed.append(complex(entry[0], entry[1]))
        rows.append(parsed)
    return np.array(rows, dtype=complex)


def _encode_complex_matrix(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def load_spec(path: str) -> gksl.KossakowskiSpec:
    """Parse and validate a generator spec file; raises SpecFormatError with
    a field path on any problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SpecFormatError(f"{path}: top level must be an object")
    try:
        dim = doc["dim"]
    except KeyError:
        raise SpecFormatError("dim: missing required field") from None
    if not isinstance(dim, int) or dim < 2:
        raise SpecFormatError(f"dim: expected an integer >= 2, got {dim!r}")
    basis_name = doc.get("basis", "gell-mann")
    if basis_name not in ("pauli", "gell-mann"):
        raise SpecFormatError(f"basis: expected 'pauli' or 'gell-mann', got {basis_name!r}")
    if basis_name == "pauli" and dim != 2:
        raise SpecFormatError(f"basis: 'pauli' requires dim = 2, got dim = {dim}")
    if "H" not in doc:
        raise SpecFormatError("H: missing required field")
    if "C" not in doc:
        raise SpecFormatError("C: missing required field")
    h = _parse_complex_matrix(doc["H"], "H")
    c = _parse_complex_matrix(doc["C"], "C")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise SpecFormatError(f"label: expected a string, got {type(label).__name__}")
    try:
        gksl.check_spec_shapes(dim, h, c)  # before the basis: 16 d^4 bytes, cached
        basis = gksl.pauli_basis() if basis_name == "pauli" else gksl.gell_mann_basis(dim)
        return gksl.KossakowskiSpec(dim, h, c, basis, label)
    except (matcore.ShapeError, matcore.HermiticityError, matcore.DomainError) as exc:
        raise SpecFormatError(f"{path}: {exc}") from exc


def _b64_matrix(m: np.ndarray) -> str:
    arr = np.empty(m.shape + (2,), dtype="<f8")
    arr[..., 0] = m.real
    arr[..., 1] = m.imag
    return base64.b64encode(arr.tobytes()).decode("ascii")


def cmd_check(args) -> int:
    spec = load_spec(args.spec)
    gen = gksl.build_generator(spec)
    cp, k_min = matcore.is_psd(spec.c_matrix)
    if args.at_time is not None:
        if args.at_time < 0:
            raise SpecFormatError(f"--at-time: must be nonnegative, got {args.at_time}")
        cp = posmap.is_completely_positive(gksl.evolve(gen, args.at_time)).is_cp
    verdict = posmap.kossakowski_positivity_check(gen, budget=args.budget, seed=_seed())
    out = {
        "cp": bool(cp),
        "positivity": verdict.status,
        "kossakowski_min_eig": k_min,
        "proof": verdict.proof,
    }
    if spec.label:
        out["label"] = spec.label
    print(json.dumps(out, indent=2))
    return EXIT_OK


_CRITERIA = ("choi-min", "pairing-rhobe")


def _criterion_column(name: str) -> str:
    return name.replace("-", "_")


def cmd_scan(args) -> int:
    spec_a = load_spec(args.spec_a)
    spec_b = load_spec(args.spec_b)
    if args.t1 <= args.t0:
        raise SpecFormatError(f"--t1 must exceed --t0, got [{args.t0}, {args.t1}]")
    if args.steps < 2:
        raise SpecFormatError(f"--steps: need at least 2, got {args.steps}")
    criteria = [c.strip() for c in args.criteria.split(",") if c.strip()]
    for c in criteria:
        if c not in _CRITERIA:
            raise SpecFormatError(f"--criteria: unknown criterion {c!r}, "
                                  f"choose from {', '.join(_CRITERIA)}")
    if not criteria:
        raise SpecFormatError("--criteria: no criteria given")
    if "pairing-rhobe" in criteria and (spec_a.dim != 2 or spec_b.dim != 2):
        raise SpecFormatError("--criteria: pairing-rhobe needs two qubit specs")
    gen = gksl.product_generator(gksl.build_generator(spec_a), gksl.build_generator(spec_b))
    rho_be = decomp.bound_entangled_state() if "pairing-rhobe" in criteria else None

    lines = ["t,alpha," + ",".join(_criterion_column(c) for c in criteria)]
    for t in np.linspace(args.t0, args.t1, args.steps):
        s = gksl.evolve(gen, float(t))
        row = [float(t), float(np.exp(-2.0 * t))]
        for c in criteria:
            if c == "choi-min":
                row.append(decomp.choi_min_criterion(s))
            else:
                row.append(decomp.pairing(s, rho_be))
        if not all(np.isfinite(row)):
            raise matcore.NumericalError(f"non-finite scan value at t = {t}")
        lines.append(",".join(format(v, ".17g") for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_decompose(args) -> int:
    specs = [load_spec(p) for p in args.specs]
    if len(specs) == 1:
        gen = gksl.build_generator(specs[0])
    elif len(specs) == 2:
        gen = gksl.product_generator(
            gksl.build_generator(specs[0]), gksl.build_generator(specs[1])
        )
    else:
        raise SpecFormatError(f"expected one or two spec files, got {len(specs)}")
    if args.at_time < 0:
        raise SpecFormatError(f"--at-time: must be nonnegative, got {args.at_time}")
    j = posmap.choi(gksl.evolve(gen, args.at_time))
    result = decomp.decomposability_feasibility(j, max_iter=args.max_iter)
    if result.status == decomp.FEASIBLE:
        cert = result.certificate
        out = {
            "status": "feasible",
            "dim": gen.dim,
            "residual": cert.residual,
            "iterations": result.iterations,
            "j1_b64": _b64_matrix(cert.j1),
            "j2_b64": _b64_matrix(cert.j2),
        }
    elif result.status == decomp.INFEASIBLE_WITNESSED:
        out = {
            "status": "infeasible",
            "dim": gen.dim,
            "pairing": result.pairing,
            "iterations": result.iterations,
            "witness": _encode_complex_matrix(result.witness.mat),
        }
    else:
        out = {"status": "max_iterations", "gap": result.gap, "iterations": result.iterations}
    print(json.dumps(out, indent=2))
    return EXIT_INCONCLUSIVE if result.status == decomp.MAX_ITERATIONS else EXIT_OK


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    reports = scenarios.run_all_scenarios()
    summary_lines = []
    for rep in reports:
        (out_dir / f"scenario_{rep.name}.json").write_text(rep.to_json() + "\n", encoding="utf-8")
        n_pass = sum(c.passed for c in rep.checks)
        summary_lines.append(
            f"{rep.name}: {'PASS' if rep.passed else 'FAIL'} ({n_pass}/{len(rep.checks)} checks)"
        )
        if rep.name == "threshold":
            for c in rep.checks:
                if c.name.startswith("threshold_"):
                    summary_lines.append(
                        f"  {c.name}: estimate {c.computed:.10f}, |error| {c.delta:.3e}"
                    )
    all_pass = all(rep.passed for rep in reports)
    summary_lines.append(f"overall: {'PASS' if all_pass else 'FAIL'}")
    summary = "\n".join(summary_lines) + "\n"
    (out_dir / "summary.txt").write_text(summary, encoding="utf-8")
    sys.stdout.write(summary)
    return EXIT_OK if all_pass else EXIT_SCENARIO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgwl",
        description="Dynamical semigroups of positive maps: verdicts, scans, witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="positivity verdicts for a generator spec")
    p_check.add_argument("spec", help="spec JSON file")
    p_check.add_argument("--at-time", type=float, default=None,
                         help="CP verdict for the evolved map at this time "
                              "(default: generator-level verdict)")
    p_check.add_argument("--budget", type=int, default=posmap.DEFAULT_BUDGET,
                         help="multistart budget for the positivity search")
    p_check.set_defaults(func=cmd_check)

    p_scan = sub.add_parser("scan", help="criterion curves for a product semigroup")
    p_scan.add_argument("spec_a")
    p_scan.add_argument("spec_b")
    p_scan.add_argument("--t0", type=float, required=True)
    p_scan.add_argument("--t1", type=float, required=True)
    p_scan.add_argument("--steps", type=int, required=True)
    p_scan.add_argument("--criteria", default="choi-min,pairing-rhobe",
                        help="comma list from: choi-min, pairing-rhobe")
    p_scan.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_scan.set_defaults(func=cmd_scan)

    for name in ("decompose", "witness"):
        p_dec = sub.add_parser(name, help="decomposability certificate or witness")
        p_dec.add_argument("specs", nargs="+", help="one spec, or two for a product")
        p_dec.add_argument("--at-time", type=float, required=True)
        p_dec.add_argument("--max-iter", type=int, default=decomp.DEFAULT_MAX_ITER)
        p_dec.set_defaults(func=cmd_decompose)

    p_rep = sub.add_parser("reproduce-paper", help="run the bundled scenario suite")
    p_rep.add_argument("--out-dir", default="reports")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecFormatError, matcore.DomainError, matcore.ShapeError,
            matcore.HermiticityError, matcore.PreconditionError, matcore.SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (matcore.NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
