import json
import math
from pathlib import Path

import pytest

from envcorr import cli, herald, montecarlo
from envcorr.channel import ChannelParams, TapConfig


def write_config(path: Path, **overrides) -> Path:
    config = {
        "channel": {"eta": 0.9, "v_env": 25.0},
        "tap": {"gamma": 0.92, "detector": "heterodyne"},
        "strategy": "optimal",
        "mc": {"n": 0},
        "output": {"path": "out", "format": "csv"},
    }
    config.update(overrides)
    target = path / "config.json"
    target.write_text(json.dumps(config), encoding="utf-8")
    return target


def records_forbidden(*args, **kwargs):
    raise AssertionError("the CLI reads moments, never raw records")


def read_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema: envcorr.")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


class TestRun:
    def test_reference_point_formula_row(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        rows = {r["quantity"]: r for r in read_rows(tmp_path / "out.csv")}
        assert float(rows["optimal_added_noise"]["formula"]) == pytest.approx(
            0.1126, abs=5e-5
        )
        assert float(rows["optimal_gain"]["formula"]) == pytest.approx(1.101, abs=5e-4)

    def test_formula_and_mc_side_by_side(self, tmp_path):
        cfg = write_config(tmp_path, mc={"n": 20000, "seed": 5})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        rows = {r["quantity"]: r for r in read_rows(tmp_path / "out.csv")}
        row = rows["optimal_added_noise"]
        assert row["mc_estimate"] != ""
        assert float(row["mc_stderr"]) > 0.0
        assert abs(float(row["mc_estimate"]) - float(row["formula"])) < 6 * float(
            row["mc_stderr"]
        )

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, mc={"n": 20000, "seed": 5})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", str(cfg), "--out", str(out_a)]) == 0
        assert cli.main(["run", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "out.csv").read_bytes() == (out_b / "out.csv").read_bytes()

    def test_malformed_config_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, channel={"eta": 1.5, "v_env": 25.0})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "channel" in capsys.readouterr().err

    def test_missing_field_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tap={"detector": "heterodyne"})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tap.gamma" in capsys.readouterr().err

    def test_unknown_field_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra={"x": 1})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "extra" in capsys.readouterr().err

    def test_window_without_herald_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, window={"x_th": 1.0, "p_th": 1.0})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "window" in capsys.readouterr().err

    def test_small_n_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mc={"n": 100})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "mc.n" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["channel", "tap", "window", "mc", "qkd", "output"])
    @pytest.mark.parametrize(
        "value", [5, [1], "x", None], ids=["number", "list", "string", "null"]
    )
    def test_non_object_section_named(self, tmp_path, capsys, section, value):
        overrides = {section: value}
        if section == "window":
            overrides["strategy"] = "herald"
        cfg = write_config(tmp_path, **overrides)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"{section}: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("channel.v_env", {"channel": {"eta": 0.9, "v_env": math.nan}}),
            ("channel.v_env", {"channel": {"eta": 0.9, "v_env": math.inf}}),
            ("channel.eta", {"channel": {"eta": math.nan, "v_env": 25.0}}),
            ("tap.gamma", {"tap": {"gamma": math.nan}}),
            ("qkd.sigma", {"qkd": {"sigma": math.nan}}),
            ("qkd.sigma", {"qkd": {"sigma": math.inf}}),
            (
                "window.x_th",
                {"strategy": "herald", "window": {"x_th": math.nan, "p_th": 1.0},
                 "mc": {"n": 10_000}},
            ),
            ("mc.n", {"mc": {"n": math.inf}}),
            ("mc.n", {"mc": {"n": 12345.7}}),
            ("mc.seed", {"mc": {"n": 0, "seed": math.nan}}),
        ],
        ids=[
            "v_env-nan", "v_env-inf", "eta-nan", "gamma-nan", "sigma-nan",
            "sigma-inf", "x_th-nan", "n-inf", "n-fraction", "seed-nan",
        ],
    )
    def test_non_finite_or_fractional_number_named(self, tmp_path, capsys, field, overrides):
        # json writes NaN and Infinity literals, which json.loads accepts
        cfg = write_config(tmp_path, **overrides)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err

    def test_open_window_may_be_infinite(self, tmp_path):
        cfg = write_config(
            tmp_path,
            strategy="herald",
            window={"x_th": math.inf, "p_th": "inf"},
            mc={"n": 10_000, "seed": 3},
        )
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        rows = {r["quantity"]: r for r in read_rows(tmp_path / "out.csv")}
        assert rows["success_prob"]["mc_estimate"] == "1"

    def test_direction_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, qkd={"sigma": 40.0, "direction": "reverse"})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "qkd.direction" in capsys.readouterr().err

    def test_invalid_json_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert cli.main(["run", str(bad), "--out", str(tmp_path)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_herald_no_yield_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            strategy="herald",
            window={"x_th": 1e-8, "p_th": 1e-8},
            mc={"n": 10000, "seed": 3},
        )
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 3

    def test_herald_run_emits_statistics(self, tmp_path):
        cfg = write_config(
            tmp_path,
            strategy="herald",
            window={"x_th": 4.0, "p_th": 4.0},
            mc={"n": 20000, "seed": 3},
            qkd={"sigma": 40.0},
        )
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        rows = {r["quantity"]: r for r in read_rows(tmp_path / "out.csv")}
        assert 0.0 < float(rows["success_prob"]["mc_estimate"]) < 1.0
        assert rows["zero_window_added_noise"]["formula"] != ""
        assert rows["k_rates"]["formula"] == "no_deterministic_dilation"

    def test_json_output_format(self, tmp_path):
        cfg = write_config(tmp_path, output={"path": "out", "format": "json"})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["context"]["eta"] == 0.9
        assert any(r["quantity"] == "optimal_gain" for r in payload["rows"])

    def test_qkd_rows(self, tmp_path):
        cfg = write_config(tmp_path, qkd={"sigma": 40.0, "attack": "collective"})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        rows = {r["quantity"]: r for r in read_rows(tmp_path / "out.csv")}
        assert float(rows["k_direct"]["formula"]) > 1.0

    def test_internal_numeric_error_exit_code(self, tmp_path, capsys, monkeypatch):
        import numpy as np

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(cli, "formula_values", boom)
        cfg = write_config(tmp_path)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 4
        assert "numeric error" in capsys.readouterr().err


class TestStrategyTable:
    def test_rows_are_formula_quantities(self):
        formulas = cli.formula_values(ChannelParams(0.9, 25.0), TapConfig(0.5))
        for gain, noise, rows in cli.STRATEGIES.values():
            assert {gain, noise} <= set(rows) <= set(formulas)

    @pytest.mark.parametrize(
        "strategy, samples",
        [("none", 1), ("erasing-hom", 2), ("erasing-het", 2), ("optimal", 2), ("herald", 1)],
    )
    def test_run_draws_only_the_printed_batches(
        self, tmp_path, monkeypatch, strategy, samples
    ):
        # batches are counted as moment-kernel calls outside heralded_statistics;
        # no strategy keeps raw records
        calls = {"kernel": 0, "heralded": 0}
        kernel, heralded = montecarlo.windowed_moments, herald.heralded_statistics
        inside_herald = []

        def counted_kernel(*args, **kwargs):
            calls["kernel"] += not inside_herald
            return kernel(*args, **kwargs)

        def counted_heralded(*args, **kwargs):
            calls["heralded"] += 1
            inside_herald.append(True)
            try:
                return heralded(*args, **kwargs)
            finally:
                inside_herald.pop()

        monkeypatch.setattr(montecarlo, "windowed_moments", counted_kernel)
        monkeypatch.setattr(herald, "heralded_statistics", counted_heralded)
        monkeypatch.setattr(montecarlo, "sample", records_forbidden)
        extra = {"window": {"x_th": 2.0, "p_th": 2.0}} if strategy == "herald" else {}
        cfg = write_config(tmp_path, strategy=strategy, mc={"n": 10_000, "seed": 1}, **extra)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        assert calls == {"kernel": samples, "heralded": int(strategy == "herald")}
        rows = read_rows(tmp_path / "out.csv")
        assert all(r["mc_estimate"] != "" for r in rows)


class TestReproduce:
    def test_fig4_contains_reference_level(self, tmp_path):
        assert (
            cli.main(["reproduce", "fig4", "--out", str(tmp_path), "--n", "0"]) == 0
        )
        rows = read_rows(tmp_path / "fig4.csv")
        assert all(
            float(r["v_add_uncorrected"]) == pytest.approx(2.77778, abs=1e-4)
            for r in rows
        )
        summary = json.loads((tmp_path / "fig4.json").read_text())
        assert summary["v_add_uncorrected"] == pytest.approx(25.0 / 9.0)

    def test_fig3_span_endpoints(self, tmp_path):
        assert (
            cli.main(["reproduce", "fig3", "--out", str(tmp_path), "--n", "0"]) == 0
        )
        summary = json.loads((tmp_path / "fig3.json").read_text())
        weak = summary["uncorrected_span_weak"]
        strong = summary["uncorrected_span_strong"]
        assert weak[0] == pytest.approx(20.0 / 9.0, abs=1e-9)
        assert weak[1] == pytest.approx(55.0 / 9.0, abs=1e-9)
        assert strong == [pytest.approx(19.9), pytest.approx(91.0)]

    def test_table1_theory_columns(self, tmp_path):
        assert cli.main(["reproduce", "table1", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "table1.csv")
        assert len(rows) == 5
        published_gain = (1.1, 1.08, 1.08, 1.06, 1.04)
        for row, gain in zip(rows, published_gain):
            assert abs(float(row["gain_theory"]) - gain) < 0.05
            assert float(row["k_direct_asymptotic"]) >= float(row["k_direct"])

    def test_table1_with_measured_values(self, tmp_path):
        measured = tmp_path / "measured.csv"
        measured.write_text(
            "gamma,v_add_x,v_add_p,gain\n"
            "0.92,0.1,0.1,1.1\n0.82,0.27,0.17,1.08\n0.68,0.27,0.32,1.08\n"
            "0.48,0.34,0.42,1.06\n0.2,1.04,0.94,1.04\n",
            encoding="utf-8",
        )
        assert (
            cli.main(
                ["reproduce", "table1", "--out", str(tmp_path), "--measured", str(measured)]
            )
            == 0
        )
        rows = read_rows(tmp_path / "table1.csv")
        k_measured = [float(r["k_x_measured"]) for r in rows]
        assert k_measured[0] == pytest.approx(1.385, abs=0.01)
        assert k_measured[-1] < 0.0

    def test_fig5_ladder(self, tmp_path):
        assert (
            cli.main(
                ["reproduce", "fig5", "--out", str(tmp_path), "--n", "20000", "--seed", "9"]
            )
            == 0
        )
        rows = read_rows(tmp_path / "fig5.csv")
        series = [r for r in rows if float(r["series_target"]) == 4.55]
        probs = [float(r["success_prob"]) for r in series]
        assert probs[0] == 1.0
        assert all(a > b for a, b in zip(probs, probs[1:]))
        assert all(
            float(r["v_add_no_selection"]) == pytest.approx(4.55, abs=1e-9)
            for r in series
        )

    def test_reproduce_is_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert (
                cli.main(
                    ["reproduce", "fig5", "--out", str(out), "--n", "20000", "--seed", "4"]
                )
                == 0
            )
        assert (out_a / "fig5.csv").read_bytes() == (out_b / "fig5.csv").read_bytes()
        assert (out_a / "fig5.json").read_bytes() == (out_b / "fig5.json").read_bytes()

    def test_fig5_small_n_rejected(self, tmp_path, capsys):
        assert cli.main(["reproduce", "fig5", "--out", str(tmp_path), "--n", "100"]) == 2
        assert "--n" in capsys.readouterr().err
        assert not (tmp_path / "fig5.json").exists()

    @pytest.mark.parametrize("target", ["fig3", "fig4"])
    def test_presets_read_moments_only(self, tmp_path, monkeypatch, target):
        monkeypatch.setattr(montecarlo, "sample", records_forbidden)
        out = tmp_path / target
        assert cli.main(["reproduce", target, "--out", str(out), "--n", "10000"]) == 0
        rows = read_rows(out / f"{target}.csv")
        assert all(v != "" for r in rows for k, v in r.items() if k.endswith("_mc"))

    @pytest.mark.parametrize("target", ["fig3", "fig4"])
    @pytest.mark.parametrize("n", ["5", "1", "-1", "9999"])
    def test_small_n_rejected(self, tmp_path, capsys, target, n):
        assert cli.main(["reproduce", target, "--out", str(tmp_path), "--n", n]) == 2
        assert "--n" in capsys.readouterr().err
        assert not (tmp_path / f"{target}.csv").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_rejected(self, tmp_path, capsys, seed):
        args = ["reproduce", "fig4", "--out", str(tmp_path), "--n", "10000", "--seed", seed]
        assert cli.main(args) == 2
        assert "--seed" in capsys.readouterr().err

    def test_measured_file_unreadable(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        args = ["reproduce", "table1", "--out", str(tmp_path), "--measured", str(missing)]
        assert cli.main(args) == 2
        assert "--measured" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0.92,abc,0.1,1.1", "0.92,0.1,0.1", "0.92,nan,0.1,1.1"])
    def test_measured_malformed_row_names_line(self, tmp_path, capsys, row):
        measured = tmp_path / "measured.csv"
        measured.write_text(f"gamma,v_add_x,v_add_p,gain\n0.2,1.04,0.94,1.04\n{row}\n")
        args = ["reproduce", "table1", "--out", str(tmp_path), "--measured", str(measured)]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert "--measured" in err and "line 3" in err

    def test_measured_header_only_keeps_columns_aligned(self, tmp_path):
        measured = tmp_path / "measured.csv"
        measured.write_text("gamma,v_add_x,v_add_p,gain\n")
        args = ["reproduce", "table1", "--out", str(tmp_path), "--measured", str(measured)]
        assert cli.main(args) == 0
        lines = (tmp_path / "table1.csv").read_text().splitlines()[1:]
        assert {len(line.split(",")) for line in lines} == {14}

    def test_unknown_target(self, tmp_path, capsys):
        assert cli.main(["reproduce", "fig9", "--out", str(tmp_path)]) == 2
        assert "target" in capsys.readouterr().err

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENVCORR_OUTDIR", str(tmp_path / "envdir"))
        assert cli.main(["reproduce", "table1"]) == 0
        assert (tmp_path / "envdir" / "table1.csv").exists()


class TestSweep:
    def test_gamma_sweep_reaches_unit_noise(self, tmp_path):
        cfg = write_config(tmp_path)
        assert (
            cli.main(
                [
                    "sweep", str(cfg),
                    "--axis", "gamma",
                    "--values", "0.2,0.5,0.8,1.0",
                    "--out", str(tmp_path),
                ]
            )
            == 0
        )
        rows = read_rows(tmp_path / "out_sweep_gamma.csv")
        assert float(rows[-1]["receiver_added_noise_ff"]) == 1.0
        assert rows[-1]["improves_het_receiver"] == "true"

    def test_eta_sweep_vacuum_environment(self, tmp_path):
        cfg = write_config(tmp_path, channel={"eta": 0.9, "v_env": 1.0})
        assert (
            cli.main(
                [
                    "sweep", str(cfg),
                    "--axis", "eta",
                    "--values", "0.1,0.5,0.9",
                    "--out", str(tmp_path),
                ]
            )
            == 0
        )
        rows = read_rows(tmp_path / "out_sweep_eta.csv")
        assert all(float(r["excess_noise"]) == 0.0 for r in rows)

    def test_v_sweep_erasing_noise_constant(self, tmp_path):
        cfg = write_config(tmp_path)
        assert (
            cli.main(
                [
                    "sweep", str(cfg),
                    "--axis", "v_env",
                    "--values", "1,10,100",
                    "--out", str(tmp_path),
                ]
            )
            == 0
        )
        rows = read_rows(tmp_path / "out_sweep_v_env.csv")
        values = {r["added_noise_het_state"] for r in rows}
        assert len(values) == 1

    def test_bad_axis(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert (
            cli.main(
                ["sweep", str(cfg), "--axis", "bogus", "--values", "1", "--out", str(tmp_path)]
            )
            == 2
        )
        assert "axis" in capsys.readouterr().err

    def test_bad_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert (
            cli.main(
                ["sweep", str(cfg), "--axis", "gamma", "--values", "a,b", "--out", str(tmp_path)]
            )
            == 2
        )
        assert "values" in capsys.readouterr().err
