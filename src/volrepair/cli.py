"""Command-line surface: check, stress, repair, sweep.

Every command writes a manifest echo next to its outputs; outputs are a pure
function of the manifest (no clock, no randomness), so identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .constraints import detect_arbitrage
from .entropic import epsilon_sweep
from .errors import InvalidConfigError, ProblemTooLargeError, VolRepairError
from .grid import extract_marginal
from .lp import solve_p_prime
from .market_data import (
    NormalizedSurface,
    StressScenario,
    apply_stress,
    fit_curve,
    normalize,
    parse_quotes,
    surface_to_csv,
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


def _load_scenario(path: str, n_maturities: int) -> StressScenario:
    spec = json.loads(Path(path).read_text())
    bands: dict[int, list] = {}
    for entry in spec.get("bands", []):
        mats = entry.get("maturities", "all")
        if mats == "all":
            mats = list(range(n_maturities))
        band = ((float(entry["lo"]), float(entry["hi"])), float(entry["mult"]))
        for i in mats:
            bands.setdefault(int(i), []).append(band)
    marks = tuple((int(i), int(j)) for i, j in spec.get("calibration_marks", []))
    return StressScenario(
        bands={i: tuple(b) for i, b in bands.items()}, calibration_marks=marks
    )


def _build_config(args, marks) -> RepairConfig:
    """Precedence: command-line flags > config file > defaults."""
    values = {}
    if getattr(args, "config", None):
        file_cfg = json.loads(Path(args.config).read_text())
        values.update({k: file_cfg[k] for k in CONFIG_FIELDS if k in file_cfg})
    for k in CONFIG_FIELDS:
        flag = getattr(args, k, None)
        if flag is not None:
            values[k] = flag
    try:
        return RepairConfig(calibration_marks=tuple(marks), **values)
    except ValueError as exc:
        raise InvalidConfigError(str(exc)) from exc


def _write_manifest(out_dir: Path, command: str, args) -> None:
    manifest = {
        "command": command,
        "input": args.input,
        "scenario": getattr(args, "scenario", None),
        "calibration": getattr(args, "calibration", None),
        "config": {
            k: getattr(args, k, None) for k in CONFIG_FIELDS + ("eps_list",)
        },
        "out_dir": str(out_dir),
        "tool_version": __version__,
        "determinism": "outputs are a pure function of this manifest",
    }
    out_dir.joinpath("manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _vols_csv(surface: NormalizedSurface) -> str:
    vols = surface_vols(surface)
    lines = ["maturity_years,k,vol"]
    for i, t in enumerate(surface.maturities):
        for k, v in zip(surface.strikes[i], vols[i]):
            vtxt = "" if np.isnan(v) else f"{v:.12g}"
            lines.append(f"{t:.12g},{float(k):.12g},{vtxt}")
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    surface = _load_surface(args.input)
    report = detect_arbitrage(surface)
    payload = json.dumps(report.to_json_dict(surface), indent=2, sort_keys=True) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        out.joinpath("check_report.json").write_text(payload)
        _write_manifest(out, "check", args)
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    out.joinpath("stressed_surface.csv").write_text(surface_to_csv(stressed))
    out.joinpath("stressed_vols.csv").write_text(_vols_csv(stressed))
    _write_manifest(out, "stress", args)
    return EXIT_OK


def _smiles_csv(
    base: NormalizedSurface, stressed: NormalizedSurface, repaired: NormalizedSurface
) -> str:
    tables = [surface_vols(s) for s in (base, stressed, repaired)]
    lines = [
        "maturity_years,k,c_before,vol_before,c_stressed,vol_stressed,"
        "c_repaired,vol_repaired"
    ]
    for i, t in enumerate(base.maturities):
        for j, k in enumerate(base.strikes[i]):
            cells = [f"{t:.12g}", f"{float(k):.12g}"]
            for surf, vols in zip((base, stressed, repaired), tables):
                v = vols[i][j]
                cells.append(f"{float(surf.prices[i][j]):.12g}")
                cells.append("" if np.isnan(v) else f"{v:.12g}")
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _marginals_csv(result, problem) -> str:
    theta = result.theta
    m = problem.m
    lines = ["period,theta_k,mu_weight,nu_plus,nu_minus"]
    nu = problem.nu
    for i in range(m):
        mu_i = extract_marginal(result.mu, theta.l, m, i + 1)
        plus_i = extract_marginal(nu.nu_plus, theta.l, m, i + 1)
        minus_i = extract_marginal(nu.nu_minus, theta.l, m, i + 1)
        for j, k in enumerate(theta.strikes):
            lines.append(
                f"{i + 1},{float(k):.12g},{mu_i[j]:.12g},"
                f"{plus_i[j]:.12g},{minus_i[j]:.12g}"
            )
    return "\n".join(lines) + "\n"


def _history_csv(history: list[dict]) -> str:
    lines = ["n,substep,E,primal_kl,duality_gap"]
    for row in history:
        primal = row.get("primal_kl")
        gap = row.get("duality_gap")
        lines.append(
            f"{row['n']},{row['substep']},{row['criterion']:.12g},"
            f"{'' if primal is None else format(primal, '.12g')},"
            f"{'' if gap is None else format(gap, '.12g')}"
        )
    return "\n".join(lines) + "\n"


def cmd_repair(args) -> int:
    base = _load_surface(args.input)
    marks: tuple = ()
    if args.scenario:
        scenario = _load_scenario(args.scenario, base.n_maturities)
        stressed = apply_stress(base, scenario)
        marks = scenario.calibration_marks
    else:
        stressed = base
    if args.calibration:
        marks = tuple(
            (int(i), int(j)) for i, j in json.loads(Path(args.calibration).read_text())
        )
    config = _build_config(args, marks)
    result = repair(stressed, config)
    problem = result.problem

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    out.joinpath("repaired_surface.csv").write_text(
        surface_to_csv(result.repaired_surface)
    )
    out.joinpath("smiles.csv").write_text(
        _smiles_csv(base, stressed, result.repaired_surface)
    )
    out.joinpath("marginals.csv").write_text(_marginals_csv(result, problem))
    from .signed_measure import measure_to_csv

    out.joinpath("mu_measure.csv").write_text(
        measure_to_csv(result.theta, problem.m, result.mu)
    )
    out.joinpath("nu_measure.csv").write_text(
        measure_to_csv(result.theta, problem.m, problem.nu.nu)
    )
    history = result.diagnostics.get("history")
    if history:
        out.joinpath("history.csv").write_text(_history_csv(history))
    report = {
        "transport_cost": result.transport_cost,
        "feasible_before": result.report_before.feasible,
        "feasible_after": result.report_after.feasible,
        "violations_before": result.report_before.to_json_dict(stressed)["violations"],
        "violations_after": result.report_after.to_json_dict(
            result.repaired_surface
        )["violations"],
        "diagnostics": {
            k: v for k, v in result.diagnostics.items() if k != "history"
        },
    }
    out.joinpath("report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, default=float) + "\n"
    )
    _write_manifest(out, "repair", args)
    if result.diagnostics.get("converged") is False:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_sweep(args) -> int:
    surface = _load_surface(args.input)
    if args.scenario:
        scenario = _load_scenario(args.scenario, surface.n_maturities)
        surface = apply_stress(surface, scenario)
    eps_list = [float(tok) for tok in args.eps_list.split(",") if tok.strip()]
    if not eps_list:
        raise VolRepairError("empty eps list")
    config = _build_config(args, ())
    problem = prepare_projection(surface, config)
    entries = epsilon_sweep(
        problem.dist,
        problem.nu,
        problem.system,
        eps_list,
        e_tol=config.e_tol,
        max_iters=config.max_iters,
    )
    lines = ["mode,epsilon,cost,final_E,converged,error"]
    for e in entries:
        lines.append(
            f"entropic,{e.epsilon:.12g},"
            f"{'' if e.cost is None else format(e.cost, '.12g')},"
            f"{'' if e.final_criterion is None else format(e.final_criterion, '.12g')},"
            f"{int(e.converged)},{e.error or ''}"
        )
    try:
        _, _, lp_value = solve_p_prime(
            problem.dist,
            problem.nu.nu_plus,
            problem.nu.nu_minus,
            problem.system.A,
            problem.system.b,
        )
        lines.append(f"lp,,{lp_value:.12g},,1,")
    except ProblemTooLargeError as exc:
        lines.append(f"lp,,,,0,{exc}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    out.joinpath("sweep.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(out, "sweep", args)
    return EXIT_OK if any(e.converged for e in entries) else EXIT_NOT_CONVERGED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volrepair",
        description="Detect and remove static arbitrage from option quote files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario=True):
        p.add_argument("input", help="quote CSV (maturity_years,strike,call_mid,put_mid,volume)")
        if scenario:
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
    except VolRepairError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
