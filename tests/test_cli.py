import hashlib
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from volrepair import cli
from volrepair.cli import _cell, _load_surface, _measure_csv, _surface_csv, main
from volrepair.errors import ProblemTooLargeError
from volrepair.grid import Theta
from volrepair.market_data import QUOTE_HEADER, surface_vols
from volrepair.repair import RepairConfig, prepare_projection

from conftest import make_surface, denormalize, DESK_STRIKES


def write_quote_csv(surface, path: Path):
    quotes, _ = denormalize(surface)
    lines = ["maturity_years,strike,call_mid,put_mid,volume"]
    for q in quotes:
        lines.append(
            f"{q.maturity_years:.12g},{q.strike:.12g},{q.call_mid:.12g},"
            f"{q.put_mid:.12g},{q.volume:.12g}"
        )
    path.write_text("\n".join(lines) + "\n")


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve started")


@pytest.fixture
def clean_csv(tmp_path, desk_surface):
    p = tmp_path / "clean.csv"
    write_quote_csv(desk_surface, p)
    return p


@pytest.fixture
def atm_scenario(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(
        json.dumps(
            {
                "bands": [
                    {"maturities": [0], "lo": 0.975, "hi": 1.025, "mult": 1.2}
                ],
                "calibration_marks": [[0, 3], [0, 4]],
            }
        )
    )
    return p


class TestCheck:
    def test_clean_exit_zero(self, clean_csv, tmp_path):
        out = tmp_path / "out"
        code = main(["check", str(clean_csv), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "check_report.json").read_text())
        assert report["feasible"] is True
        assert (out / "manifest.json").exists()

    def test_stressed_exit_two(self, clean_csv, atm_scenario, tmp_path):
        stress_out = tmp_path / "stressed"
        assert main(
            ["stress", str(clean_csv), "--scenario", str(atm_scenario),
             "--out", str(stress_out)]
        ) == 0
        # stressed surface back into quote space for a check run
        from volrepair.market_data import apply_stress, StressScenario

        surface = _load_surface(str(clean_csv))
        stressed = apply_stress(
            surface, StressScenario(bands={0: (((0.975, 1.025), 1.2),)})
        )
        stressed_csv = tmp_path / "stressed.csv"
        write_quote_csv(stressed, stressed_csv)
        code = main(["check", str(stressed_csv), "--out", str(tmp_path / "chk")])
        assert code == 2
        report = json.loads((tmp_path / "chk" / "check_report.json").read_text())
        assert report["violations"]

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.csv")]) == 1

    @pytest.mark.parametrize(
        "column, value",
        [("maturity_years", "inf"), ("strike", "nan"), ("call_mid", "nan"),
         ("put_mid", "-inf"), ("volume", "nan")],
    )
    def test_non_finite_quote_exit_one(self, clean_csv, capsys, column, value):
        lines = clean_csv.read_text().splitlines()
        fields = lines[3].split(",")
        fields[QUOTE_HEADER.index(column)] = value
        lines[3] = ",".join(fields)
        clean_csv.write_text("\n".join(lines) + "\n")
        assert main(["check", str(clean_csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line 4: {column} must be finite")

    @pytest.mark.parametrize("command", ["check", "repair"])
    def test_huge_strike_is_a_parity_error(self, clean_csv, tmp_path, capsys, command):
        # a finite strike of 1e308 overflows the parity regression to NaN
        lines = clean_csv.read_text().splitlines()
        fields = lines[3].split(",")
        fields[QUOTE_HEADER.index("strike")] = "1e308"
        lines[3] = ",".join(fields)
        clean_csv.write_text("\n".join(lines) + "\n")
        assert main([command, str(clean_csv), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "parity" in err


class TestStress:
    def test_outputs_written(self, clean_csv, atm_scenario, tmp_path):
        out = tmp_path / "out"
        assert main(
            ["stress", str(clean_csv), "--scenario", str(atm_scenario),
             "--out", str(out)]
        ) == 0
        text = (out / "stressed_surface.csv").read_text()
        assert text.startswith("maturity_years,k,c,vol")
        assert (out / "stressed_vols.csv").exists()

    def test_identity_scenario_preserves_surface(self, clean_csv, tmp_path, desk_surface):
        scen = tmp_path / "identity.json"
        scen.write_text(json.dumps({"bands": []}))
        out = tmp_path / "out"
        assert main(
            ["stress", str(clean_csv), "--scenario", str(scen), "--out", str(out)]
        ) == 0
        surface = _load_surface(str(clean_csv))
        got = (out / "stressed_surface.csv").read_text()
        expect = _surface_csv(surface, surface_vols(surface))
        assert got == expect

    def test_outside_band_warns(self, clean_csv, tmp_path, capsys):
        scen = tmp_path / "far.json"
        scen.write_text(
            json.dumps({"bands": [{"maturities": [0], "lo": 5.0, "hi": 6.0, "mult": 1.5}]})
        )
        out = tmp_path / "out"
        assert main(
            ["stress", str(clean_csv), "--scenario", str(scen), "--out", str(out)]
        ) == 0
        assert "matches no strikes" in capsys.readouterr().err

    def test_overlapping_bands_exit_one(self, clean_csv, tmp_path, capsys):
        scen = tmp_path / "overlap.json"
        scen.write_text(json.dumps({"bands": [
            {"lo": 0.9, "hi": 1.0, "mult": 1.2}, {"lo": 0.95, "hi": 1.05, "mult": 1.1}
        ]}))
        out = tmp_path / "out"
        assert main(
            ["stress", str(clean_csv), "--scenario", str(scen), "--out", str(out)]
        ) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestRepair:
    def test_lp_repair_outputs(self, clean_csv, atm_scenario, tmp_path):
        out = tmp_path / "rep"
        code = main(
            ["repair", str(clean_csv), "--scenario", str(atm_scenario),
             "--mode", "lp_exact", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["feasible_before"] is False
        assert report["feasible_after"] is True
        assert (out / "repaired_surface.csv").exists()
        assert (out / "smiles.csv").exists()
        assert (out / "marginals.csv").exists()
        smiles = (out / "smiles.csv").read_text().strip().split("\n")
        assert len(smiles) == 1 + len(DESK_STRIKES)
        mu_rows = (out / "mu_measure.csv").read_text().strip().split("\n")
        assert mu_rows[0] == "path_index,k_1,weight"
        nu_rows = (out / "nu_measure.csv").read_text().strip().split("\n")
        assert len(mu_rows) == len(nu_rows)

    def test_entropic_repair_history(self, clean_csv, atm_scenario, tmp_path):
        out = tmp_path / "rep_e"
        code = main(
            ["repair", str(clean_csv), "--scenario", str(atm_scenario),
             "--mode", "entropic", "--epsilon", "1.0", "--e-tol", "5e-6",
             "--out", str(out)]
        )
        assert code == 0
        history = (out / "history.csv").read_text().strip().split("\n")
        assert history[0] == "n,substep,E,primal_kl,duality_gap"
        assert len(history) > 2

    def test_not_converged_exit_three(self, clean_csv, atm_scenario, tmp_path):
        out = tmp_path / "rep_nc"
        code = main(
            ["repair", str(clean_csv), "--scenario", str(atm_scenario),
             "--mode", "entropic", "--max-iters", "5", "--out", str(out)]
        )
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        assert report["diagnostics"]["converged"] is False
        assert report["diagnostics"]["iterations"] == 5
        assert (out / "repaired_surface.csv").exists()
        assert (out / "manifest.json").exists()

    def test_report_counts_row_blocks(self, two_maturity_surface, tmp_path):
        # mass, centering and one martingality level: three projections a
        # sweep; the ATM stress makes the clean fixture reach the solver
        csv = tmp_path / "two.csv"
        write_quote_csv(two_maturity_surface, csv)
        scenario = tmp_path / "atm_both.json"
        scenario.write_text(json.dumps(
            {"bands": [{"maturities": "all", "lo": 0.975, "hi": 1.025, "mult": 1.3}]}
        ))
        out = tmp_path / "rep_blocks"
        main(["repair", str(csv), "--scenario", str(scenario), "--mode", "entropic",
              "--max-iters", "5", "--out", str(out)])
        diag = json.loads((out / "report.json").read_text())["diagnostics"]
        assert diag["clean_input"] is False
        assert diag["row_blocks"] == 3 and diag["n_rows"] > 3

    @pytest.mark.parametrize("mode", ["lp_exact", "entropic"])
    def test_clean_input_comes_back_unchanged(self, two_maturity_surface, tmp_path, mode):
        csv = tmp_path / "two.csv"
        write_quote_csv(two_maturity_surface, csv)
        out = tmp_path / f"clean_{mode}"
        code = main(["repair", str(csv), "--mode", mode, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["transport_cost"] == 0.0
        assert report["feasible_before"] is report["feasible_after"] is True
        assert report["diagnostics"]["clean_input"] is True
        assert "converged" not in report["diagnostics"]
        assert not (out / "history.csv").exists()
        # same input, same text: the stressed and repaired columns are the quotes
        for row in (out / "smiles.csv").read_text().splitlines()[1:]:
            cells = row.split(",")
            assert cells[2] == cells[4] == cells[6] and cells[3] == cells[5] == cells[7]
        weights = [float(r.split(",")[-1]) for r in
                   (out / "mu_measure.csv").read_text().splitlines()[1:]]
        assert min(weights) >= 0.0 and sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_path_space_over_cap_exit_one(self, tmp_path, capsys):
        # m=3 with 15 shared strikes: L = 17 grid points, N = 17^3 = 4913 paths
        strikes = list(np.linspace(0.8, 1.2, 15))
        surface = make_surface([0.25, 0.5, 1.0], [strikes] * 3, [lambda k: 0.2] * 3)
        with pytest.raises(ProblemTooLargeError, match="4913 paths"):
            prepare_projection(surface, RepairConfig())
        quote_csv = tmp_path / "wide.csv"
        write_quote_csv(surface, quote_csv)
        code = main(["repair", str(quote_csv), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_invalid_calibration_exit_one(self, tmp_path):
        # marks select an arbitrageable pair: increasing prices in strike
        surface = make_surface([0.16], [[0.9, 1.0, 1.1]], [lambda k: 0.2])
        from dataclasses import replace

        prices = surface.prices[0].copy()
        prices[1] = prices[0] + 0.05
        surface = replace(surface, prices=(prices,))
        quote_csv = tmp_path / "bad.csv"
        write_quote_csv(surface, quote_csv)
        marks = tmp_path / "marks.json"
        marks.write_text(json.dumps([[0, 0], [0, 1]]))
        out = tmp_path / "out"
        code = main(
            ["repair", str(quote_csv), "--calibration", str(marks), "--out", str(out)]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flags, field",
        [(["--mode", "entropic", "--epsilon", "-1"], "epsilon"),
         (["--kmax-margin", "-1"], "kmax_margin"),
         # a run that could not stop, or a report.json with Infinity or NaN
         (["--mode", "entropic", "--e-tol", "0", "--max-iters", "-1"], "e_tol"),
         (["--mode", "entropic", "--e-tol", "nan"], "e_tol"),
         (["--max-iters", "-1"], "max_iters"),
         (["--epsilon", "inf"], "epsilon"),
         (["--mode", "entropic", "--epsilon", "nan"], "epsilon"),
         (["--kmax-margin", "inf"], "kmax_margin"),
         (["--shift", "inf"], "shift")],
    )
    def test_invalid_config_exit_one(
        self, clean_csv, tmp_path, capsys, monkeypatch, flags, field
    ):
        monkeypatch.setattr(cli, "repair", _no_solve)
        code = main(["repair", str(clean_csv), *flags, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--calibration", "[[5, 0]]"),  # no such maturity
            ("--calibration", "[[0, 40]]"),  # no such strike
            ("--calibration", "[[-1, 0]]"),  # must not wrap to the last maturity
            ("--calibration", "[[0]]"),
            ("--scenario", '{"bands": [{"lo": 0.95, "mult": 1.2}]}'),  # no "hi"
            ("--scenario", '{"bands": ['),
            ("--config", '{"mode": "entropic",'),
            ("--scenario", '{"bands": [{"maturities": [7], "lo": 0.95, "hi": 1.05, '
                           '"mult": 1.2}]}'),
            ("--config", '{"max_iters": 2.5}'),
            ("--config", '{"e_tol": NaN}'),
            ("--config", '{"e_tol": "1e-5"}'),
            ("--scenario", '{"bands": [{"lo": 0.9, "hi": 1.0, "mult": 1.2}, '
                           '{"lo": 0.95, "hi": 1.05, "mult": 1.1}]}'),  # overlap
            ("--scenario", '{"calibration_marks": [[0, 1], [0, 1]]}'),
            ("--scenario", '{"bands": [{"lo": 1.05, "hi": 0.95, "mult": 1.2}]}'),
            ("--scenario", '{"bands": [{"lo": 0.95, "hi": 1.05, "mult": 0}]}'),
            ("--scenario", '{"bands": [{"lo": 0.95, "hi": 1.05, "mult": NaN}]}'),
        ],
    )
    def test_malformed_input_file_exit_one(
        self, two_maturity_surface, tmp_path, capsys, flag, text
    ):
        quote_csv, spec = tmp_path / "two.csv", tmp_path / "spec.json"
        write_quote_csv(two_maturity_surface, quote_csv)
        spec.write_text(text)
        code = main(["repair", str(quote_csv), flag, str(spec), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_file_with_flag_precedence(self, clean_csv, atm_scenario, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "entropic", "epsilon": 2.0, "e_tol": 1e-5}))
        out = tmp_path / "rep_cfg"
        code = main(
            ["repair", str(clean_csv), "--scenario", str(atm_scenario),
             "--config", str(cfg), "--epsilon", "1.0", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["diagnostics"]["mode"] == "entropic"
        assert report["diagnostics"]["epsilon"] == 1.0  # flag beats config file


class TestSweep:
    def test_rows_plus_lp_baseline(self, clean_csv, atm_scenario, tmp_path):
        out = tmp_path / "sw"
        code = main(
            ["sweep", str(clean_csv), "--scenario", str(atm_scenario),
             "--eps-list", "1,0.5,0.1", "--e-tol", "1e-6", "--out", str(out)]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert rows[0] == "mode,epsilon,cost,final_E,converged,error"
        assert len(rows) == 1 + 3 + 1
        assert rows[-1].startswith("lp,")

    def test_scenario_marks_match_repair(self, clean_csv, atm_scenario, tmp_path):
        # sweep must solve the problem repair solves, calibration marks included
        code = main(
            ["sweep", str(clean_csv), "--scenario", str(atm_scenario),
             "--eps-list", "0.5", "--e-tol", "1e-6", "--out", str(tmp_path / "sw")]
        )
        assert code == 0
        sweep_csv = (tmp_path / "sw" / "sweep.csv").read_text()
        sweep_cost = float(_columns(sweep_csv, "cost")[0][0])
        code = main(
            ["repair", str(clean_csv), "--scenario", str(atm_scenario),
             "--mode", "entropic", "--epsilon", "0.5", "--e-tol", "1e-6",
             "--out", str(tmp_path / "rep")]
        )
        assert code == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert abs(sweep_cost - report["transport_cost"]) <= 1e-5

    def test_none_converged_exit_three(self, clean_csv, tmp_path):
        out = tmp_path / "sw_nc"
        code = main(
            ["sweep", str(clean_csv), "--eps-list", "1,0.5", "--max-iters", "5",
             "--e-tol", "1e-9", "--out", str(out)]
        )
        assert code == 3
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert [r.split(",")[4] for r in rows[1:3]] == ["0", "0"]
        assert rows[-1].startswith("lp,")
        assert (out / "manifest.json").exists()

    def test_empty_eps_list_errors(self, clean_csv, tmp_path):
        code = main(
            ["sweep", str(clean_csv), "--eps-list", ",", "--out", str(tmp_path / "x")]
        )
        assert code == 1

    @pytest.mark.parametrize("eps_list", ["abc", "0.5,1", "-1", "1,1", "1,nan", "inf,1"])
    def test_bad_eps_list_exit_one(self, clean_csv, tmp_path, capsys, monkeypatch, eps_list):
        monkeypatch.setattr(cli, "prepare_projection", _no_solve)
        code = main(
            ["sweep", str(clean_csv), "--eps-list", eps_list, "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --eps-list")


# a valid band, or one with one field set to 0, a negative value, NaN or +-inf
_VALID_BAND = st.fixed_dictionaries(
    {
        "lo": st.sampled_from([0.9, 0.95, 1.0, 1.05]),
        "hi": st.sampled_from([0.95, 1.0, 1.05, 1.1]),
        "mult": st.sampled_from([1.2, 0.7, 1.5]),
    },
    optional={"maturities": st.lists(st.integers(-1, 2), max_size=2)},
)
_BAND = st.builds(
    lambda band, field, value: {**band, field: value} if field else band,
    _VALID_BAND,
    st.sampled_from([None, "lo", "hi", "mult"]),
    st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]),
)
# marks may repeat, be negative or name no quote
_MARKS = st.lists(st.tuples(st.integers(-1, 2), st.integers(-1, 8)), max_size=2)
_SCENARIO = st.fixed_dictionaries({"bands": st.lists(_BAND, max_size=3), "calibration_marks": _MARKS})


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestScenarioFuzz:
    """Scenario files from valid to absurd: every run ends in an exit code."""

    @settings(
        max_examples=50,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(fixture=st.sampled_from(["desk", "two"]), scenario=_SCENARIO)
    # the derandomized draws miss an infinite edge or mult on an otherwise valid band
    @example("two", {"bands": [{"lo": 0.95, "hi": 1.05, "mult": math.inf}]})
    @example("desk", {"bands": [{"lo": 0.95, "hi": math.inf, "mult": 1.2}]})
    def test_no_scenario_escapes_main(
        self, desk_surface, two_maturity_surface, fixture, scenario
    ):
        surface = desk_surface if fixture == "desk" else two_maturity_surface
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tmp = Path(tmp)
            write_quote_csv(surface, tmp / "q.csv")
            (tmp / "s.json").write_text(json.dumps(scenario))
            common = [str(tmp / "q.csv"), "--scenario", str(tmp / "s.json")]
            codes = [
                main(["stress", *common, "--out", str(tmp / "stress")]),
                main(["repair", *common, "--mode", "lp_exact", "--out", str(tmp / "repair")]),
            ]
            assert all(code in (0, 1, 2, 3) for code in codes)
            for path in tmp.glob("*/*.json"):
                json.loads(path.read_text(), parse_constant=_reject_constant)


def _hash_dir(path: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
    }


class TestDeterminism:
    def test_repeated_repair_byte_identical(self, clean_csv, atm_scenario, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main(
                ["repair", str(clean_csv), "--scenario", str(atm_scenario),
                 "--mode", "entropic", "--epsilon", "1.0", "--e-tol", "1e-5",
                 "--out", str(out)]
            )
            assert code == 0
            hashes = _hash_dir(out)
            hashes.pop("manifest.json")  # differs in out_dir path only
            outs.append(hashes)
        assert outs[0] == outs[1]


def _columns(text: str, *names: str) -> list[list[str]]:
    rows = [line.split(",") for line in text.splitlines()]
    cols = [rows[0].index(n) for n in names]
    return [[r[c] for c in cols] for r in rows[1:]]


class TestWriters:
    def test_cell_rules(self):
        assert [_cell(v) for v in (None, float("nan"), 7, "lp", 0.1 + 0.2)] == [
            "", "", "7", "lp", "0.3"
        ]
        assert _cell(np.float64(1 / 3)) == "0.333333333333"

    def test_surface_csv_format(self, desk_surface):
        text = _surface_csv(desk_surface, surface_vols(desk_surface))
        lines = text.strip().split("\n")
        assert lines[0] == "maturity_years,k,c,vol"
        assert len(lines) == 1 + len(desk_surface.strikes[0])
        first = lines[1].split(",")
        assert float(first[0]) == desk_surface.maturities[0]
        assert abs(float(first[2]) - desk_surface.prices[0][0]) <= 1e-12

    def test_path_space_format(self):
        theta = Theta(np.array([0.0, 1.0, 2.0]))
        w = np.arange(9, dtype=float) / 36.0
        text = _measure_csv(theta, 2, w)
        lines = text.strip().split("\n")
        assert lines[0] == "path_index,k_1,k_2,weight"
        assert len(lines) == 10
        # path 5 is (2, 2) in 1-based components -> strikes (1, 1)
        cells = lines[5].split(",")
        assert cells[0] == "5"
        assert float(cells[1]) == 1.0
        assert float(cells[2]) == 1.0
        assert float(cells[3]) == pytest.approx(w[4], rel=1e-11)

    def test_files_agree_across_outputs(self, clean_csv, atm_scenario, tmp_path):
        stress, rep = tmp_path / "stress", tmp_path / "rep"
        assert main(
            ["stress", str(clean_csv), "--scenario", str(atm_scenario),
             "--out", str(stress)]
        ) == 0
        assert main(
            ["repair", str(clean_csv), "--scenario", str(atm_scenario),
             "--out", str(rep)]
        ) == 0
        surface = (stress / "stressed_surface.csv").read_text()
        vols = (stress / "stressed_vols.csv").read_text()
        assert vols.splitlines()[0] == "maturity_years,k,vol"
        names = ("maturity_years", "k", "vol")
        assert _columns(vols, *names) == _columns(surface, *names)
        smiles = (rep / "smiles.csv").read_text()
        repaired = (rep / "repaired_surface.csv").read_text()
        assert _columns(smiles, "c_repaired", "vol_repaired") == _columns(
            repaired, "c", "vol"
        )
