import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envcorr import cli, herald, montecarlo
from envcorr.channel import ChannelParams, Detector


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


def strategy_tap(strategy: str) -> dict:
    """The default tap with the detector the strategy reads."""
    detector = "homodyne-x" if strategy == "erasing-hom" else "heterodyne"
    return {"gamma": 0.92, "detector": detector}


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

    def test_seeds_above_float_precision_stay_distinct(self, tmp_path):
        outputs = []
        for seed in (2**53, 2**53 + 1):
            cfg = write_config(tmp_path, mc={"n": 10_000, "seed": seed})
            assert cli.main(["run", str(cfg), "--out", str(tmp_path / str(seed))]) == 0
            outputs.append((tmp_path / str(seed) / "out.csv").read_bytes())
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize("strategy", list(cli.STRATEGIES))
    def test_largest_seed_wraps_batch_seeds(self, tmp_path, strategy):
        extra = {"window": {"x_th": 2.0, "p_th": 2.0}} if strategy == "herald" else {}
        cfg = write_config(
            tmp_path, tap=strategy_tap(strategy), strategy=strategy,
            mc={"n": 10_000, "seed": 2**64 - 1}, **extra,
        )
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "out.csv")
        assert all(r["mc_estimate"] != "" for r in rows)

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

    def test_oversized_integer_named(self, tmp_path, capsys):
        # a JSON integer beyond the float range, written out digit by digit
        cfg = write_config(tmp_path)
        text = cfg.read_text(encoding="utf-8").replace('"v_env": 25.0', '"v_env": 1' + "0" * 400)
        cfg.write_text(text, encoding="utf-8")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "channel.v_env: number too large" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2**53 + 1, 10**20, 1e20], ids=["cap+1", "int", "float"])
    def test_n_above_cap_rejected(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, mc={"n": n})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "mc.n: at most 2^53" in capsys.readouterr().err

    def test_n_at_cap_runs_window_free(self, tmp_path):
        cfg = write_config(tmp_path, strategy="none", mc={"n": 2**53, "seed": 3})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        rows = {r["quantity"]: r for r in read_rows(tmp_path / "out.csv")}
        row = rows["added_noise_uncorrected"]
        assert abs(float(row["mc_estimate"]) - float(row["formula"])) < 5 * float(row["mc_stderr"])

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

    @pytest.mark.parametrize("detector", ["homodyne-x"])
    def test_herald_needs_heterodyne_tap(self, tmp_path, capsys, detector):
        cfg = write_config(
            tmp_path,
            tap={"gamma": 0.7, "detector": detector},
            strategy="herald",
            window={"x_th": 2.0, "p_th": 2.0},
            mc={"n": 10_000, "seed": 3},
        )
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "tap.detector: strategy 'herald'" in capsys.readouterr().err

    @pytest.mark.parametrize("detector", ["heterodyne", "homodyne-x"])
    @pytest.mark.parametrize("strategy", ["none", "erasing-hom", "erasing-het", "optimal"])
    def test_tap_detector_must_be_the_one_the_strategy_reads(
        self, tmp_path, capsys, strategy, detector
    ):
        cfg = write_config(tmp_path, tap={"gamma": 0.5, "detector": detector}, strategy=strategy)
        code = cli.main(["run", str(cfg), "--out", str(tmp_path)])
        needed = strategy_tap(strategy)["detector"]
        if detector == needed:
            assert code == 0
        else:
            assert code == 2
            assert capsys.readouterr().err == (
                f"config error: tap.detector: strategy '{strategy}' reads a '{needed}' tap,"
                f" got '{detector}'\n"
            )

    @pytest.mark.parametrize("strategy", list(cli.STRATEGIES))
    def test_omitted_detector_is_the_strategys(self, tmp_path, strategy):
        extra = {"window": {"x_th": 2.0, "p_th": 2.0}} if strategy == "herald" else {}
        n = 10_000 if strategy == "herald" else 0
        cfg = write_config(
            tmp_path, tap={"gamma": 0.5}, strategy=strategy, mc={"n": n, "seed": 1}, **extra
        )
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "out.csv")
        assert {r["detector"] for r in rows} == {strategy_tap(strategy)["detector"]}

    def test_infinite_noise_writes_a_key_rate_sentinel_row(self, tmp_path):
        # erasing at gamma = 0 has no finite corrected channel to rate
        cfg = write_config(
            tmp_path, tap={"gamma": 0.0, "detector": "homodyne-x"}, strategy="erasing-hom",
            qkd={"sigma": 40.0},
        )
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "out.csv")
        assert rows[-1]["quantity"] == "k_rates"
        assert rows[-1]["formula"] == "infinite_added_noise"
        assert not [r for r in rows if r["quantity"] in cli.KEY_RATES]

    @pytest.mark.parametrize("gamma", [1e-160, 1e-100], ids=["nan-rates", "overflow"])
    def test_key_rate_beyond_the_float_range_is_a_numeric_error(self, tmp_path, capsys, gamma):
        # erasing noise ~ 1/gamma: ~1e160 turns the rates into inf - inf, ~1e100 overflows a square
        cfg = write_config(
            tmp_path, tap={"gamma": gamma}, strategy="erasing-het", qkd={"sigma": 40.0}
        )
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric error: key rate: not finite at added noise ")
        assert not (tmp_path / "out.csv").exists()

    def test_estimate_beyond_the_float_range_is_a_numeric_error(self, tmp_path, capsys):
        # eta 1.12e-308 is inside the channel's range, but the x and p noise
        # estimates, each about 1/eta = 9e307, average through a sum that overflows
        cfg = write_config(
            tmp_path, channel={"eta": 1.12e-308, "v_env": 1.0}, tap={"gamma": 0.5},
            strategy="none", mc={"n": 10_000, "seed": 1},
        )
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err == (
            "numeric error: added_noise_uncorrected: the Monte Carlo estimate is not finite\n"
        )
        assert not (tmp_path / "out.csv").exists()

    def test_herald_no_yield_exit_code(self, tmp_path):
        # a zero window keeps no trajectory: it is not the sharp-selection limit
        for half in (1e-8, 0):
            cfg = write_config(
                tmp_path,
                strategy="herald",
                window={"x_th": half, "p_th": half},
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

    @pytest.mark.parametrize("via", ["--out", "ENVCORR_OUTDIR"])
    def test_uncreatable_outdir_named(self, tmp_path, capsys, monkeypatch, via):
        (tmp_path / "file").write_text("")
        outdir = str(tmp_path / "file" / "sub")
        cfg = write_config(tmp_path)
        args = ["run", str(cfg)]
        if via == "--out":
            args += ["--out", outdir]
        else:
            monkeypatch.setenv("ENVCORR_OUTDIR", outdir)
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "Not a directory" in err

    @pytest.mark.parametrize("path", [["a"], 5, "", "a\0b"], ids=["list", "number", "empty", "nul"])
    def test_output_path_must_be_a_file_name(self, tmp_path, capsys, path):
        cfg = write_config(tmp_path, output={"path": path, "format": "csv"})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "output.path" in capsys.readouterr().err
        assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize("path", ["file/out", "dir"], ids=["under-a-file", "onto-a-directory"])
    def test_unwritable_output_path_named(self, tmp_path, capsys, path):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir.csv").mkdir()
        cfg = write_config(tmp_path, output={"path": path, "format": "csv"})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "output.path" in capsys.readouterr().err


class TestStrategyTable:
    def test_rows_are_formula_quantities(self):
        formulas = cli.formula_values(ChannelParams(0.9, 25.0), 0.5)
        for detector, gain, noise, rows in cli.STRATEGIES.values():
            assert isinstance(detector, Detector)
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
        cfg = write_config(
            tmp_path, tap=strategy_tap(strategy), strategy=strategy,
            mc={"n": 10_000, "seed": 1}, **extra,
        )
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
        # every batch is drawn inside cli.mc_counterparts, one call per preset point:
        # fig3 has 30 rows of 2 points (3 batches), fig4 20 points of 2 batches
        points, batches = {"fig3": (60, 90), "fig4": (20, 40)}[target]
        calls = {"points": 0, "kernel": 0, "kernel_outside": 0}
        kernel, counterparts = montecarlo.windowed_moments, cli.mc_counterparts
        inside = []

        def counted_kernel(*args, **kwargs):
            calls["kernel"] += 1
            calls["kernel_outside"] += not inside
            return kernel(*args, **kwargs)

        def counted_counterparts(*args, **kwargs):
            calls["points"] += 1
            inside.append(True)
            try:
                return counterparts(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(montecarlo, "windowed_moments", counted_kernel)
        monkeypatch.setattr(cli, "mc_counterparts", counted_counterparts)
        monkeypatch.setattr(montecarlo, "sample", records_forbidden)
        out = tmp_path / target
        assert cli.main(["reproduce", target, "--out", str(out), "--n", "10000"]) == 0
        assert calls == {"points": points, "kernel": batches, "kernel_outside": 0}
        rows = read_rows(out / f"{target}.csv")
        assert all(v != "" for r in rows for k, v in r.items() if k.endswith("_mc"))

    @pytest.mark.parametrize("target", ["fig3", "fig4"])
    def test_formula_columns_do_not_depend_on_n(self, tmp_path, target):
        tables = []
        for n in ("0", "10000"):
            out = tmp_path / n
            assert cli.main(["reproduce", target, "--out", str(out), "--n", n]) == 0
            rows = read_rows(out / f"{target}.csv")
            tables.append(
                [{k: v for k, v in r.items() if not k.endswith(("_mc", "_stderr"))} for r in rows]
            )
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("target", ["fig3", "fig4"])
    def test_largest_seed_wraps_point_seeds(self, tmp_path, target):
        args = ["reproduce", target, "--out", str(tmp_path), "--n", "10000"]
        assert cli.main([*args, "--seed", str(2**64 - 1)]) == 0
        assert json.loads((tmp_path / f"{target}.json").read_text())["seed"] == 2**64 - 1

    @pytest.mark.parametrize("target", ["fig3", "fig4", "fig5"])
    def test_measured_only_for_table1(self, tmp_path, capsys, target):
        args = ["reproduce", target, "--out", str(tmp_path), "--measured", "missing.csv"]
        assert cli.main(args) == 2
        assert "--measured: only table1" in capsys.readouterr().err
        assert not (tmp_path / f"{target}.csv").exists()

    @pytest.mark.parametrize("target", ["fig3", "fig4", "table1"])
    @pytest.mark.parametrize("n", ["5", "1", "-1", "9999"])
    def test_small_n_rejected(self, tmp_path, capsys, target, n):
        assert cli.main(["reproduce", target, "--out", str(tmp_path), "--n", n]) == 2
        assert "--n" in capsys.readouterr().err
        assert not (tmp_path / f"{target}.csv").exists()

    @pytest.mark.parametrize("target", ["fig3", "fig4", "fig5", "table1"])
    def test_n_above_cap_rejected(self, tmp_path, capsys, target):
        assert cli.main(["reproduce", target, "--out", str(tmp_path), "--n", str(10**20)]) == 2
        assert "--n: at most 2^53" in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "row",
        ["0.92,abc,0.1,1.1", "0.92,0.1,0.1", "0.92,nan,0.1,1.1", "0.92,0.5,0.5,1.1,junk",
         "0.92,0.5,0.5,1.1,"],
    )
    def test_measured_malformed_row_names_line(self, tmp_path, capsys, row):
        measured = tmp_path / "measured.csv"
        measured.write_text(f"gamma,v_add_x,v_add_p,gain\n0.2,1.04,0.94,1.04\n{row}\n")
        args = ["reproduce", "table1", "--out", str(tmp_path), "--measured", str(measured)]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert "--measured" in err and "line 3" in err

    @pytest.mark.parametrize(
        "row",
        [
            "0.92,0.1,0.1,0", "0.92,0.1,0.1,-1.1", "0.92,-0.1,0.1,1.1", "0.92,0.01,0.1,1.1",
            "0.5,0.1,0.1,1.1", "0.2,1.04,0.94,1.04", "0.92,1e200,0.5,1.1",
        ],
        ids=[
            "zero-gain", "negative-gain", "negative-noise", "below-amplifier-floor",
            "gamma-not-in-table", "repeated-gamma", "rate-beyond-float-range",
        ],
    )
    def test_measured_row_the_model_refuses_names_line(self, tmp_path, capsys, row):
        measured = tmp_path / "measured.csv"
        measured.write_text(f"gamma,v_add_x,v_add_p,gain\n0.2,1.04,0.94,1.04\n{row}\n")
        args = ["reproduce", "table1", "--out", str(tmp_path), "--measured", str(measured)]
        assert cli.main(args) == 2
        assert "--measured: line 3: " in capsys.readouterr().err
        assert not (tmp_path / "table1.csv").exists()

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
        cfg = write_config(tmp_path, strategy="none")
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
        cfg = write_config(tmp_path, strategy="none", channel={"eta": 0.9, "v_env": 1.0})
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
        cfg = write_config(tmp_path, strategy="none")
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

    def test_omitted_detector_is_heterodyne(self, tmp_path):
        cfg = write_config(tmp_path, strategy="none", tap={"gamma": 0.5})
        args = ["sweep", str(cfg), "--axis", "eta", "--values", "0.5", "--out", str(tmp_path)]
        assert cli.main(args) == 0
        (row,) = read_rows(tmp_path / "out_sweep_eta.csv")
        assert row["detector"] == "heterodyne"

    def test_bad_axis(self, tmp_path, capsys):
        cfg = write_config(tmp_path, strategy="none")
        assert (
            cli.main(
                ["sweep", str(cfg), "--axis", "bogus", "--values", "1", "--out", str(tmp_path)]
            )
            == 2
        )
        assert "axis" in capsys.readouterr().err

    def test_bad_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path, strategy="none")
        assert (
            cli.main(
                ["sweep", str(cfg), "--axis", "gamma", "--values", "a,b", "--out", str(tmp_path)]
            )
            == 2
        )
        assert "values" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("strategy", {"strategy": "optimal"}),
            ("qkd", {"strategy": "none", "qkd": {"sigma": 40.0}}),
            ("window", {"strategy": "herald", "window": {"x_th": 1.0, "p_th": 1.0},
                        "mc": {"n": 10_000}}),
            ("output.format", {"strategy": "none", "output": {"path": "out", "format": "json"}}),
            ("output.format", {"strategy": "none", "output": {"path": "out", "format": "both"}}),
        ],
        ids=["strategy", "qkd", "window", "json", "both"],
    )
    def test_fields_sweep_would_ignore_are_refused(self, tmp_path, capsys, field, overrides):
        cfg = write_config(tmp_path, **overrides)
        args = ["sweep", str(cfg), "--axis", "eta", "--values", "0.5", "--out", str(tmp_path)]
        assert cli.main(args) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


def run_argv(tmp_path: Path, **overrides) -> list[str]:
    return ["run", str(write_config(tmp_path, **overrides)), "--out", str(tmp_path / "out")]


def sweep_argv(tmp_path: Path, values: str, **overrides) -> list[str]:
    cfg = write_config(tmp_path, **{"strategy": "none", **overrides})
    args = ["sweep", str(cfg), "--axis", "eta", "--values", values]
    return [*args, "--out", str(tmp_path / "out")]


def measured_argv(tmp_path: Path, data: bytes) -> list[str]:
    measured = tmp_path / "measured.csv"
    measured.write_bytes(data)
    return ["reproduce", "table1", "--out", str(tmp_path / "out"), "--measured", str(measured)]


def config_argv(tmp_path: Path, text: str) -> list[str]:
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    return ["run", str(path), "--out", str(tmp_path / "out")]


HERALD = {"strategy": "herald", "window": {"x_th": 1.0, "p_th": 1.0}, "mc": {"n": 10_000}}

# case -> (the field the message starts with, the command line whose inputs are
# written to a directory d and whose outputs would go to d / "out")
REFUSALS = {
    "tap-detector": ("tap.detector", lambda d: run_argv(d, tap={"gamma": 0.5, "detector": "eye"})),
    "tap-detector-list": (
        "tap.detector", lambda d: run_argv(d, tap={"gamma": 0.5, "detector": ["heterodyne"]})
    ),
    "tap-gamma": ("tap.gamma", lambda d: run_argv(d, tap={"gamma": 1.5})),
    "strategy": ("strategy", lambda d: run_argv(d, strategy="perfect")),
    "strategy-list": ("strategy", lambda d: run_argv(d, strategy=["optimal"])),
    "sweep-homodyne-tap": (
        "tap.detector: strategy 'none' reads a 'heterodyne' tap, got 'homodyne-x'",
        lambda d: sweep_argv(d, "0.5", tap={"gamma": 0.5, "detector": "homodyne-x"}),
    ),
    "window": ("window", lambda d: run_argv(d, **{**HERALD, "window": {"x_th": -1, "p_th": 1}})),
    "mc-seed": ("mc.seed", lambda d: run_argv(d, mc={"n": 0, "seed": -1})),
    "herald-without-window": ("window", lambda d: run_argv(d, strategy="herald")),
    "herald-n-0": ("mc.n", lambda d: run_argv(d, **{**HERALD, "mc": {"n": 0}})),
    "string-number": ("channel.eta", lambda d: run_argv(d, channel={"eta": "0.9", "v_env": 2})),
    "bool-number": ("mc.n", lambda d: run_argv(d, mc={"n": True})),
    "non-object-config": ("config", lambda d: config_argv(d, "[1, 2]")),
    "qkd-sigma-zero": ("qkd.sigma", lambda d: run_argv(d, qkd={"sigma": 0})),
    "qkd-sigma-negative": ("qkd.sigma", lambda d: run_argv(d, qkd={"sigma": -40.0})),
    "qkd-attack": ("qkd.attack", lambda d: run_argv(d, qkd={"attack": "coherent"})),
    "output-format": ("output.format", lambda d: run_argv(d, output={"format": "xml"})),
    "output-path-absolute": (
        "output.path: must stay under the output directory",
        lambda d: run_argv(d, output={"path": str(d / "escape")}),
    ),
    "output-path-parent": (
        "output.path: must stay under the output directory",
        lambda d: run_argv(d, output={"path": "a/../../escape"}),
    ),
    "unreadable-config": ("config", lambda d: ["run", str(d / "missing.json")]),
    "config-nested-too-deeply": (
        "config: JSON nested too deeply", lambda d: config_argv(d, "[" * 100_000 + "]" * 100_000)
    ),
    "config-repeated-key": ("config: key 'eta' is repeated", lambda d: config_argv(
        d, '{"channel": {"eta": 0.9, "v_env": 25, "eta": 0.1}, "tap": {"gamma": 0.5}}'
    )),
    "sweep-no-values": ("values", lambda d: sweep_argv(d, " , ")),
    "sweep-empty-value": ("values: empty entry", lambda d: sweep_argv(d, "0.5,,0.7")),
    "sweep-trailing-comma": ("values: empty entry", lambda d: sweep_argv(d, "0.5,0.7,")),
    "sweep-value-out-of-range": ("values", lambda d: sweep_argv(d, "0.5,1.5")),
    # gamma * eta underflowed to 0 in the erasing plans: a ZeroDivisionError traceback
    "sweep-eta-subnormal": ("values: eta=5e-324: eta", lambda d: sweep_argv(d, "5e-324")),
    "eta-subnormal": ("channel.eta", lambda d: run_argv(
        d, channel={"eta": 5e-324, "v_env": 5.0}, strategy="erasing-het", mc={"n": 10_000}
    )),
    # (1 - eta)/eta overflowed: inf - inf wrote a nan excess-noise estimate
    "eta-noise-overflow": ("channel.eta", lambda d: run_argv(
        d, channel={"eta": 1e-310, "v_env": 1.0}, strategy="none", mc={"n": 10_000}
    )),
    # (v - 1) ** 2 overflowed in a closed form: exit 4 naming no quantity
    "v-env-square-overflow": ("channel.v_env", lambda d: run_argv(
        d, channel={"eta": 0.9, "v_env": 1e160}
    )),
    "fig5-n-0": ("--n", lambda d: ["reproduce", "fig5", "--out", str(d / "out"), "--n", "0"]),
    "measured-not-utf8": ("--measured", lambda d: measured_argv(d, b"gamma\n\xff\xfe\n")),
    "measured-no-header": (
        "--measured: line 1: expected a header line",
        lambda d: measured_argv(d, b"0.92,0.5,0.5,1.1\n"),
    ),
    "measured-no-header-bom": (
        "--measured: line 1: expected a header line",
        lambda d: measured_argv(d, b"\xef\xbb\xbf0.92,0.5,0.5,1.1\n"),
    ),
    "measured-blank-lines-counted": (
        "--measured: line 4",
        lambda d: measured_argv(d, b"gamma,v_x,v_p,gain\n\n  \n0.92,x,0.1,1.1\n"),
    ),
}


@pytest.mark.parametrize("field, make_argv", list(REFUSALS.values()), ids=list(REFUSALS))
def test_refusal_names_its_field(tmp_path, capsys, field, make_argv):
    assert cli.main(make_argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert not list(tmp_path.rglob("escape*"))


def test_readme_run_example_runs(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### `envcorr run ", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "config.json"
    config.write_text(block, encoding="utf-8")
    assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    stem = json.loads(block)["output"]["path"]
    assert read_rows(tmp_path / "out" / f"{stem}.csv")


# edge values a near-valid config takes in place of a valid field
EDGES = (0, 1e-300, 1e300, 2**64, "inf", -1, -1e300, 10**400)
FUZZED = {
    "eta": ("channel", "eta"),
    "v_env": ("channel", "v_env"),
    "gamma": ("tap", "gamma"),
    "sigma": ("qkd", "sigma"),
    "seed": ("mc", "seed"),
    "x_th": ("window", "x_th"),
    "p_th": ("window", "p_th"),
}


@st.composite
def near_valid_configs(draw) -> dict:
    strategy = draw(st.sampled_from(list(cli.STRATEGIES)))
    config = {
        "channel": {"eta": 0.9, "v_env": 25.0},
        "tap": {"gamma": 0.5},
        "strategy": strategy,
        "mc": {"n": draw(st.sampled_from([0, 10_000])), "seed": 7},
        "qkd": {"sigma": 40.0},
        "output": {"path": "fuzz", "format": "both"},
    }
    fields = sorted(FUZZED)
    if strategy == "herald":
        config["window"] = {"x_th": 2.0, "p_th": 2.0}
    else:  # a window is refused outright with any other strategy
        fields = [f for f in fields if FUZZED[f][0] != "window"]
    for field in draw(st.lists(st.sampled_from(fields), min_size=1, max_size=3, unique=True)):
        section, key = FUZZED[field]
        config.setdefault(section, {})[key] = draw(st.sampled_from(EDGES))
    return config


# the `run` CSV cells a Monte Carlo batch fills
MC_CELLS = ("mc_estimate", "mc_stderr")


def extreme_channel(strategy: str, eta: float, v_env: float, gamma: float = 0.5) -> dict:
    return {
        "channel": {"eta": eta, "v_env": v_env}, "tap": {"gamma": gamma},
        "strategy": strategy, "mc": {"n": 10_000}, "qkd": {"sigma": 40.0},
        "output": {"path": "fuzz", "format": "both"},
    }


@settings(derandomize=True, max_examples=200, deadline=None)
@given(config=near_valid_configs())
@example(config={  # erasing noise ~1e160: the key rates were inf - inf = nan
    "channel": {"eta": 0.9, "v_env": 25.0}, "tap": {"gamma": 1e-160},
    "strategy": "erasing-het", "qkd": {"sigma": 40.0},
    "output": {"path": "fuzz", "format": "both"},
})
# gamma * eta underflowed to 0 in the erasing plans: a ZeroDivisionError traceback
@example(config=extreme_channel("erasing-hom", 5e-324, 5.0))
@example(config=extreme_channel("erasing-het", 5e-324, 5.0))
# (1 - eta)/eta overflowed: the excess-noise estimate was inf - inf = nan
@example(config=extreme_channel("none", 1e-310, 1.0))
# (v - 1) ** 2 overflowed: exit 4 with a message that named nothing
@example(config=extreme_channel("herald", 0.9, 1e160) | {"window": {"x_th": 2.0, "p_th": 2.0}})
# ((1 - eta) v_env + 1)/eta overflowed: exit 0 with an inf estimate of the added noise
@example(config={k: v for k, v in extreme_channel("none", 6e-309, 1.0).items() if k != "qkd"})
# the erasing gain ~1e306 overflowed the moments' matmul: a RuntimeWarning before exit 4
@example(config=extreme_channel("erasing-het", 1e-300, 25.0, 1e-6))
def test_run_boundary_exits_with_a_documented_code_and_writes_no_nan(config):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["run", str(path), "--out", str(Path(workdir) / "out")])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        # a refusal prints its one-line message and nothing else
        assert not caught and err.getvalue().count("\n") == int(code != 0), err.getvalue()
        out = Path(workdir) / "out"
        if code == 0:
            csv = (out / "fuzz.csv").read_text(encoding="utf-8")
            assert "nan" not in csv.replace("\n", ",").split(","), csv
            assert "NaN" not in (out / "fuzz.json").read_text(encoding="utf-8")
            rows = read_rows(out / "fuzz.csv")
            assert all(r[k] not in ("inf", "-inf") for r in rows for k in MC_CELLS), csv
        else:
            assert not out.exists()


# argument values the `reproduce` and `sweep` fuzz draws from: (usual, rare), the
# rare ones malformed or out of range; fig5 costs O(n), so it draws no large --n
N_ARGS = (("0", "10000", "20000", str(2**53)), ("-1", "1", "9999", "1e5", str(2**53 + 1)))
FIG5_N_ARGS = (("10000", "20000"), ("-1", "0", "9999", "1e5", str(2**53 + 1)))
SEED_ARGS = (("0", "7", str(2**64 - 1)), ("-1", str(2**64), "x"))
TARGETS = (("fig3", "fig4", "fig5", "table1"), ("fig6", "FIG3"))
AXES = (("eta", "v_env", "gamma"), ("sigma", ""))
MALFORMED = ("-1", "1e400", "inf", "nan", "abc", "")
# axis -> its values at the edges of the channel's range, and beyond them
VALUE_ARGS = {
    "eta": (("0.5", "1", " 0.9", "1e-300", "1e-310", "5e-324"), MALFORMED),
    "v_env": (("1", "25", "1e12", "1e14", "1e150", "1e160", "1e300"), MALFORMED),
    "gamma": (("0", "0.5", "1", "1e-300", "5e-324"), MALFORMED),
}
MEASURED_GAMMAS = (tuple(map(str, cli.TABLE1_GAMMAS)), ("0.3", "1e-300", "nan", "x"))
MEASURED_CELLS = (("0.1", "0.5", "1.1", "0", "1", "1e-300", "1e200"), MALFORMED)


def pick(draw, values):
    """One of the usual values, or one time in five a rare one."""
    usual, rare = values
    return draw(st.sampled_from(rare if draw(st.integers(0, 4)) == 0 else usual))


@st.composite
def preset_argvs(draw) -> tuple[list[str], dict]:
    """A `reproduce` or `sweep` command line, and the files it reads by name."""
    if draw(st.booleans()):
        target = pick(draw, TARGETS)
        n = pick(draw, FIG5_N_ARGS if target == "fig5" else N_ARGS)
        argv = ["reproduce", target, "--n", n, "--seed", pick(draw, SEED_ARGS)]
        files = {}
        if draw(st.integers(0, 4)) < (3 if target == "table1" else 1):
            rows = [
                [pick(draw, MEASURED_GAMMAS)]
                + [pick(draw, MEASURED_CELLS) for _ in range(pick(draw, ((3,), (2, 4))))]
                for _ in range(draw(st.integers(0, 3)))
            ]
            header = draw(st.sampled_from(["gamma,v_x,v_p,gain", "0.92,1,1,1", ""]))
            files["measured.csv"] = "\n".join([header, *map(",".join, rows)]) + "\n"
            argv += ["--measured", "measured.csv"]
        return argv, files
    config = {
        "channel": {"eta": 0.9, "v_env": 25.0}, "tap": {"gamma": 0.5},
        "mc": {"n": draw(st.sampled_from([0, 10_000])), "seed": 7},
        "output": {"path": "fuzz"},
    }
    axis = pick(draw, AXES)
    usual = VALUE_ARGS.get(axis, VALUE_ARGS["eta"])
    values = [pick(draw, usual) for _ in range(draw(st.integers(1, 3)))]
    argv = ["sweep", "config.json", "--axis", axis, "--values", ",".join(values)]
    return argv, {"config.json": json.dumps(config)}


@settings(derandomize=True, max_examples=120, deadline=None)
@given(case=preset_argvs())
# gamma * eta underflowed to 0 in the erasing plans: a ZeroDivisionError traceback
@example(case=(
    ["sweep", "config.json", "--axis", "eta", "--values", "5e-324"],
    {"config.json": json.dumps({
        "channel": {"eta": 0.9, "v_env": 5.0}, "tap": {"gamma": 0.5}, "mc": {"n": 10_000},
    })},
))
def test_preset_and_sweep_arguments_exit_with_a_documented_code_and_write_no_nan(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as workdir:
        work = Path(workdir)
        for name, text in files.items():
            (work / name).write_text(text, encoding="utf-8")
        argv = [str(work / a) if a in files else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main([*argv, "--out", str(work / "out")])
            except SystemExit as exc:  # argparse refuses a malformed --n or --seed
                code = exc.code
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        out = work / "out"
        if code == 0:
            for path in out.iterdir():
                text = path.read_text(encoding="utf-8")
                assert "nan" not in text.replace("\n", ",").split(",") and "NaN" not in text, path
        else:
            assert not out.exists()
