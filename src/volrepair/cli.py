"""Command-line surface: check, stress, repair, sweep.

Every command writes a manifest echo next to its outputs; outputs are a pure
function of the manifest (no clock, no randomness), so identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .constraints import detect_arbitrage
from .entropic import epsilon_sweep
from .errors import InvalidConfigError, ProblemTooLargeError, VolRepairError
from .grid import Theta, extract_marginal, path_components
from .lp import solve_p_prime
from .market_data import (
    NormalizedSurface,
    StressScenario,
    apply_stress,
    fit_curve,
    normalize,
    parse_quotes,
    surface_vols,
)
from .repair import RepairConfig, prepare_projection, repair

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ARBITRAGE = 2
EXIT_NOT_CONVERGED = 3  # no entropic solve converged within max_iters; outputs written

CONFIG_FIELDS = ("mode", "epsilon", "e_tol", "max_iters", "kmax_margin", "shift")


def _load_surface(path: str) -> NormalizedSurface:
    quotes = parse_quotes(Path(path).read_bytes())
    curve = fit_curve(quotes)
    return normalize(quotes, curve)


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"{path} is not valid JSON: {exc}") from exc


def _load_scenario(path: str, n_maturities: int) -> StressScenario:
    spec = _read_json(path)
    bands: dict[int, list] = {}
    try:
        for entry in spec.get("bands", []):
            mats = entry.get("maturities", "all")
            band = ((float(entry["lo"]), float(entry["hi"])), float(entry["mult"]))
            for i in range(n_maturities) if mats == "all" else mats:
                bands.setdefault(int(i), []).append(band)
        marks = tuple((int(i), int(j)) for i, j in spec.get("calibration_marks", []))
        scenario = StressScenario(
            bands={i: tuple(b) for i, b in bands.items()}, calibration_marks=marks
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"{path}: malformed scenario, {exc!r}") from exc
    if not set(bands) <= set(range(n_maturities)):
        raise InvalidConfigError(
            f"{path}: a band names a maturity outside 0..{n_maturities - 1}"
        )
    return scenario


def _load_problem(args) -> tuple[NormalizedSurface, NormalizedSurface, tuple]:
    """The quoted surface, the surface to repair (stressed by ``--scenario``,
    if given) and its calibration marks (the scenario's, replaced by
    ``--calibration`` where that flag exists)."""
    base = _load_surface(args.input)
    stressed, marks = base, ()
    if args.scenario:
        scenario = _load_scenario(args.scenario, base.n_maturities)
        stressed = apply_stress(base, scenario)
        marks = scenario.calibration_marks
    if getattr(args, "calibration", None):
        raw = _read_json(args.calibration)
        try:
            marks = tuple((int(i), int(j)) for i, j in raw)
        except (TypeError, ValueError) as exc:
            raise InvalidConfigError(
                f"{args.calibration}: marks must be [maturity, strike] index pairs"
            ) from exc
    return base, stressed, marks


def _build_config(args, marks) -> RepairConfig:
    """Precedence: command-line flags > config file > defaults."""
    values = {}
    if getattr(args, "config", None):
        file_cfg = _read_json(args.config)
        if not isinstance(file_cfg, dict):
            raise InvalidConfigError(f"{args.config} must hold a JSON object")
        values.update({k: file_cfg[k] for k in CONFIG_FIELDS if k in file_cfg})
    for k in CONFIG_FIELDS:
        flag = getattr(args, k, None)
        if flag is not None:
            values[k] = flag
    try:
        return RepairConfig(calibration_marks=tuple(marks), **values)
    except ValueError as exc:
        raise InvalidConfigError(str(exc)) from exc


def _parse_eps_list(text: str) -> list[float]:
    """The sweep's schedule: finite positive epsilons, strictly decreasing."""
    try:
        eps_list = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidConfigError(f"--eps-list: {exc}") from exc
    if not eps_list:
        raise InvalidConfigError("--eps-list is empty")
    if not all(math.isfinite(e) and e > 0 for e in eps_list):
        raise InvalidConfigError(f"--eps-list values must be finite and > 0, got {text}")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidConfigError(f"--eps-list must be strictly decreasing, got {text}")
    return eps_list


def _cell(value) -> str:
    """One CSV cell: empty for None or NaN, ints and text as they are, and
    any other number to 12 significant digits."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    return format(value, ".12g")


def _csv(header, rows) -> str:
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _surface_rows(surface: NormalizedSurface, vols) -> list[tuple]:
    """``(maturity, k, c, vol)`` per node, maturity-major."""
    return [
        (t, k, c, v)
        for i, t in enumerate(surface.maturities)
        for k, c, v in zip(surface.strikes[i], surface.prices[i], vols[i])
    ]


def _surface_csv(surface: NormalizedSurface, vols) -> str:
    return _csv(("maturity_years", "k", "c", "vol"), _surface_rows(surface, vols))


def _smiles_csv(surfaces, vols) -> str:
    """Before, stressed and repaired prices and vols side by side per node."""
    header = ("maturity_years", "k", "c_before", "vol_before", "c_stressed",
              "vol_stressed", "c_repaired", "vol_repaired")
    rows = []
    for nodes in zip(*map(_surface_rows, surfaces, vols)):
        rows.append(nodes[0][:2] + tuple(x for node in nodes for x in node[2:]))
    return _csv(header, rows)


def _marginals_csv(result) -> str:
    theta, m, nu = result.theta, result.problem.m, result.problem.nu
    rows = []
    for i in range(1, m + 1):
        cols = [
            extract_marginal(w, theta.l, m, i)
            for w in (result.mu, nu.nu_plus, nu.nu_minus)
        ]
        rows += [(i, k, *weights) for k, *weights in zip(theta.strikes, *cols)]
    return _csv(("period", "theta_k", "mu_weight", "nu_plus", "nu_minus"), rows)


def _measure_csv(theta: Theta, m: int, weights) -> str:
    """A path-space measure as ``path_index,k_1,...,k_m,weight``."""
    header = ("path_index", *(f"k_{i}" for i in range(1, m + 1)), "weight")
    paths = theta.strikes[path_components(theta.l, m)]
    rows = [(p, *x, w) for p, (x, w) in enumerate(zip(paths, weights), start=1)]
    return _csv(header, rows)


def _history_csv(history: list[dict]) -> str:
    rows = [
        (r["n"], r["substep"], r["criterion"], r.get("primal_kl"), r.get("duality_gap"))
        for r in history
    ]
    return _csv(("n", "substep", "E", "primal_kl", "duality_gap"), rows)


def _write_outputs(args, files: dict[str, str]) -> None:
    """Write the command's files and its manifest echo into ``args.out``."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        out.joinpath(name).write_text(text)
    manifest = {
        "command": args.command,
        "input": args.input,
        "scenario": getattr(args, "scenario", None),
        "calibration": getattr(args, "calibration", None),
        "config": {
            k: getattr(args, k, None) for k in CONFIG_FIELDS + ("eps_list",)
        },
        "out_dir": str(out),
        "tool_version": __version__,
        "determinism": "outputs are a pure function of this manifest",
    }
    out.joinpath("manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def cmd_check(args) -> int:
    surface = _load_surface(args.input)
    report = detect_arbitrage(surface)
    payload = json.dumps(report.to_json_dict(surface), indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_outputs(args, {"check_report.json": payload})
    else:
        sys.stdout.write(payload)
    return EXIT_OK if report.feasible else EXIT_ARBITRAGE


def cmd_stress(args) -> int:
    surface = _load_surface(args.input)
    scenario = _load_scenario(args.scenario, surface.n_maturities)
    for i, bands in scenario.bands.items():
        for (lo, hi), _ in bands:
            ks = surface.strikes[i]
            if not np.any((ks >= lo) & (ks <= hi)):
                sys.stderr.write(
                    f"warning: band [{lo}, {hi}] on maturity {i} matches no strikes\n"
                )
    stressed = apply_stress(surface, scenario)
    vols = surface_vols(stressed)
    vol_rows = [(t, k, v) for t, k, _, v in _surface_rows(stressed, vols)]
    _write_outputs(args, {
        "stressed_surface.csv": _surface_csv(stressed, vols),
        "stressed_vols.csv": _csv(("maturity_years", "k", "vol"), vol_rows),
    })
    return EXIT_OK


def cmd_repair(args) -> int:
    base, stressed, marks = _load_problem(args)
    config = _build_config(args, marks)
    result = repair(stressed, config)
    problem = result.problem
    repaired = result.repaired_surface

    base_vols = surface_vols(base)
    stressed_vols = base_vols if stressed is base else surface_vols(stressed)
    repaired_vols = stressed_vols if repaired is stressed else surface_vols(repaired)
    files = {
        "repaired_surface.csv": _surface_csv(repaired, repaired_vols),
        "smiles.csv": _smiles_csv(
            (base, stressed, repaired), (base_vols, stressed_vols, repaired_vols)
        ),
        "marginals.csv": _marginals_csv(result),
        "mu_measure.csv": _measure_csv(result.theta, problem.m, result.mu),
        "nu_measure.csv": _measure_csv(result.theta, problem.m, problem.nu.nu),
    }
    history = result.diagnostics.get("history")
    if history:
        files["history.csv"] = _history_csv(history)
    report = {
        "transport_cost": result.transport_cost,
        "feasible_before": result.report_before.feasible,
        "feasible_after": result.report_after.feasible,
        "violations_before": result.report_before.to_json_dict(stressed)["violations"],
        "violations_after": result.report_after.to_json_dict(repaired)["violations"],
        "diagnostics": {
            k: v for k, v in result.diagnostics.items() if k != "history"
        },
    }
    text = json.dumps(report, indent=2, sort_keys=True, default=float)
    files["report.json"] = text + "\n"
    _write_outputs(args, files)
    if result.diagnostics.get("converged") is False:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_sweep(args) -> int:
    _, surface, marks = _load_problem(args)
    eps_list = _parse_eps_list(args.eps_list)
    config = _build_config(args, marks)
    problem = prepare_projection(surface, config)
    entries = epsilon_sweep(
        problem.dist,
        problem.nu,
        problem.system,
        eps_list,
        e_tol=config.e_tol,
        max_iters=config.max_iters,
    )
    rows = [
        ("entropic", e.epsilon, e.cost, e.final_criterion, int(e.converged), e.error)
        for e in entries
    ]
    try:
        _, _, lp_value = solve_p_prime(
            problem.dist,
            problem.nu.nu_plus,
            problem.nu.nu_minus,
            problem.system.A,
            problem.system.b,
        )
        rows.append(("lp", None, lp_value, None, 1, None))
    except ProblemTooLargeError as exc:
        rows.append(("lp", None, None, None, 0, str(exc)))
    header = ("mode", "epsilon", "cost", "final_E", "converged", "error")
    _write_outputs(args, {"sweep.csv": _csv(header, rows)})
    return EXIT_OK if any(e.converged for e in entries) else EXIT_NOT_CONVERGED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volrepair",
        description="Detect and remove static arbitrage from option quote files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="quote CSV (maturity_years,strike,call_mid,put_mid,volume)")
        p.add_argument("--scenario", default=None, help="stress scenario JSON")
        p.add_argument("--config", default=None, help="JSON file with config fields")
        p.add_argument("--mode", choices=["lp_exact", "entropic"], default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--e-tol", dest="e_tol", type=float, default=None)
        p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
        p.add_argument("--kmax-margin", dest="kmax_margin", type=float, default=None)
        p.add_argument("--shift", type=float, default=None)

    p_check = sub.add_parser("check", help="detect static arbitrage")
    p_check.add_argument("input")
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    p_stress = sub.add_parser("stress", help="apply a vol-space stress scenario")
    p_stress.add_argument("input")
    p_stress.add_argument("--scenario", required=True)
    p_stress.add_argument("--out", required=True)
    p_stress.set_defaults(func=cmd_stress)

    p_repair = sub.add_parser("repair", help="remove arbitrage by projection")
    add_common(p_repair)
    p_repair.add_argument("--calibration", default=None, help="JSON list of [i, j] marks")
    p_repair.add_argument("--out", required=True)
    p_repair.set_defaults(func=cmd_repair)

    p_sweep = sub.add_parser("sweep", help="cost trajectory over an epsilon schedule")
    add_common(p_sweep)
    p_sweep.add_argument("--eps-list", dest="eps_list", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VolRepairError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
