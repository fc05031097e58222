"""Experiment runner CLI.

Commands:
    run <config.json>                      one configuration, formulas + MC
    reproduce <fig3|fig4|fig5|table1>      bundled study presets
    sweep <config.json> --axis a --values  one row per swept value

Output is CSV (9 significant digits, '.' decimal point) plus a JSON summary
for the presets. The default output directory comes from $ENVCORR_OUTDIR.
Exit codes: 0 ok, 2 config error, 3 post-selection yielded nothing,
4 internal numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import channel as channel_mod
from . import feedforward, herald, montecarlo, qkd
from .channel import ChannelParams, Detector, TapConfig
from .herald import HeraldNoYieldError, HeraldWindow
from .qkd import Attack, EffectiveChannel

SCHEMA_VERSION = "v1"
DEFAULT_SEED = 20240817
GAIN_PROBE_MEAN = (10.0, 10.0)
KEY_RATES = ("k_direct", "k_direct_asymptotic", "k_reverse", "k_reverse_asymptotic")

# strategy -> (gain, added noise) quantities of its corrected channel, which
# `run` feeds to the key-rate formulas, and the quantities `run` prints
STRATEGIES = {
    "none": ("channel_gain_uncorrected", "added_noise_uncorrected", (
        "added_noise_uncorrected", "excess_noise",
        "receiver_added_noise_no_ff", "channel_gain_uncorrected",
    )),
    "erasing-hom": ("gain_hom_ff", "added_noise_hom_ff", (
        "added_noise_uncorrected", "added_noise_hom_ff", "gain_hom_ff",
    )),
    "erasing-het": ("gain_erasing", "added_noise_het_state", (
        "added_noise_uncorrected", "added_noise_het_state",
        "receiver_added_noise_no_ff", "receiver_added_noise_ff", "gain_erasing",
    )),
    "optimal": ("optimal_gain", "optimal_added_noise", (
        "added_noise_uncorrected", "optimal_added_noise", "optimal_gain",
    )),
    "herald": ("zero_window_gain", "zero_window_added_noise", (
        "added_noise_uncorrected", "zero_window_added_noise", "zero_window_gain",
    )),
}
DETECTORS = {d.value: d for d in Detector}


class ConfigError(Exception):
    """Invalid experiment configuration; message names the offending field."""


# -- config parsing ----------------------------------------------------------


def _need(raw: dict, key: str, where: str):
    if key not in raw:
        raise ConfigError(f"{where}.{key}: required field is missing")
    return raw[key]


def _section(raw: dict, key: str, required: bool = False) -> dict:
    value = _need(raw, key, "config") if required else raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected a JSON object")
    return value


def _number(value, where: str, allow_inf: bool = False) -> float:
    """A JSON number; NaN is refused, and +-inf unless the field allows it."""
    if value == "inf" and allow_inf:
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    value = float(value)
    if math.isnan(value) or (math.isinf(value) and not allow_inf):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return value


def _whole(value, where: str) -> int:
    number = _number(value, where)
    if not number.is_integer():
        raise ConfigError(f"{where}: expected a whole number, got {value!r}")
    return int(number)


def _check_mc_n(n: int, where: str) -> None:
    if n < 0 or 0 < n < 10_000:
        raise ConfigError(f"{where}: statistical runs need n >= 10000 (or 0 to disable)")


def _check_keys(raw: dict, allowed: set[str], where: str) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{where}.{sorted(unknown)[0]}: unknown field")


def parse_config(raw: dict) -> dict:
    """Validate a raw config dict into constructed domain objects."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    _check_keys(raw, {"channel", "tap", "strategy", "window", "mc", "qkd", "output"}, "config")

    ch_raw = _section(raw, "channel", required=True)
    _check_keys(ch_raw, {"eta", "v_env"}, "channel")
    try:
        ch = ChannelParams(
            _number(_need(ch_raw, "eta", "channel"), "channel.eta"),
            _number(_need(ch_raw, "v_env", "channel"), "channel.v_env"),
        )
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from None

    tap_raw = _section(raw, "tap", required=True)
    _check_keys(tap_raw, {"gamma", "detector"}, "tap")
    det_name = tap_raw.get("detector", "heterodyne")
    if det_name not in DETECTORS:
        raise ConfigError(f"tap.detector: must be one of {sorted(DETECTORS)}")
    try:
        tap = TapConfig(
            _number(_need(tap_raw, "gamma", "tap"), "tap.gamma"), DETECTORS[det_name]
        )
    except ValueError as exc:
        raise ConfigError(f"tap.gamma: {exc}") from None

    strategy = raw.get("strategy", "none")
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy: must be one of {tuple(STRATEGIES)}")

    window = None
    if "window" in raw:
        if strategy != "herald":
            raise ConfigError("window: only valid with strategy 'herald'")
        w_raw = _section(raw, "window")
        _check_keys(w_raw, {"x_th", "p_th"}, "window")
        try:
            window = HeraldWindow(
                _number(_need(w_raw, "x_th", "window"), "window.x_th", allow_inf=True),
                _number(_need(w_raw, "p_th", "window"), "window.p_th", allow_inf=True),
            )
        except ValueError as exc:
            raise ConfigError(f"window: {exc}") from None
    elif strategy == "herald":
        raise ConfigError("window: required with strategy 'herald'")

    mc_raw = _section(raw, "mc")
    _check_keys(mc_raw, {"n", "seed"}, "mc")
    n = _whole(mc_raw.get("n", 0), "mc.n")
    seed = _whole(mc_raw.get("seed", DEFAULT_SEED), "mc.seed")
    _check_mc_n(n, "mc.n")
    if not 0 <= seed < 2**64:
        raise ConfigError("mc.seed: must fit in an unsigned 64-bit integer")
    if strategy == "herald" and n == 0:
        raise ConfigError("mc.n: strategy 'herald' is statistical and needs n >= 10000")

    qkd_cfg = None
    if "qkd" in raw:
        q_raw = _section(raw, "qkd")
        _check_keys(q_raw, {"sigma", "attack"}, "qkd")
        sigma = _number(q_raw.get("sigma", 40.0), "qkd.sigma")
        if sigma <= 0:
            raise ConfigError("qkd.sigma: must be positive")
        attack = q_raw.get("attack", "collective")
        if attack not in (a.value for a in Attack):
            raise ConfigError("qkd.attack: must be 'individual' or 'collective'")
        qkd_cfg = {"sigma": sigma, "attack": Attack(attack)}

    out_raw = _section(raw, "output")
    _check_keys(out_raw, {"path", "format"}, "output")
    fmt = out_raw.get("format", "csv")
    if fmt not in ("csv", "json", "both"):
        raise ConfigError("output.format: must be 'csv', 'json' or 'both'")

    return {
        "channel": ch,
        "tap": tap,
        "strategy": strategy,
        "window": window,
        "n": n,
        "seed": seed,
        "qkd": qkd_cfg,
        "out_path": out_raw.get("path", "run"),
        "out_format": fmt,
    }


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc.strerror}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc.msg} at line {exc.lineno})") from None
    return parse_config(raw)


# -- formatting --------------------------------------------------------------


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            return "nan"
        return f"{float(value):.9g}"
    return str(value)


def write_csv(path: Path, schema: str, header: list[str], rows: list) -> None:
    lines = [f"# schema: envcorr.{schema}.{SCHEMA_VERSION}", ",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )


def _outdir(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get("ENVCORR_OUTDIR", "."))


# -- Monte Carlo counterparts for formula values ------------------------------


def _avg(pair):
    (vx, sx), (vp, sp) = pair
    return 0.5 * (vx + vp), 0.5 * math.hypot(sx, sp)


def mc_counterparts(
    ch: ChannelParams, gamma: float, n: int, seed: int, quantities
) -> dict:
    """MC estimate (value, stderr) for the requested closed forms at one point.

    Each formula is probed with its own tap detector kind at the given gamma.
    Only the batches the requested quantities need are drawn, each at a fixed
    seed offset, so an estimate does not depend on what else was requested.
    """
    want = set(quantities)
    het = TapConfig(gamma, Detector.HETERODYNE)
    hom = TapConfig(gamma, Detector.HOMODYNE_X)
    erasing = gamma >= feedforward.MIN_ERASING_GAMMA
    out = {}

    def draw(tap, plan, offset, replicates=False):
        return montecarlo.windowed_moments(
            ch, tap, GAIN_PROBE_MEAN, None, n, seed + offset,
            plan=plan, replicates=replicates,
        )

    def noise(moments, gain, where="signal"):
        return _avg(montecarlo.estimate_added_noise(moments, gain, where))

    zero_window = {"zero_window_added_noise", "zero_window_gain"}
    if want & {
        "added_noise_uncorrected", "excess_noise",
        "receiver_added_noise_no_ff", "channel_gain_uncorrected", *zero_window,
    }:
        base = draw(het, None, 0, replicates=bool(want & zero_window))
        value, err = noise(base, ch.eta)
        out["added_noise_uncorrected"] = (value, err)
        out["excess_noise"] = (value - (1.0 - ch.eta) / ch.eta, err)
        out["receiver_added_noise_no_ff"] = noise(base, ch.eta, "receiver")
        out["channel_gain_uncorrected"] = montecarlo.estimate_gain(base, GAIN_PROBE_MEAN)
        if want & zero_window:
            zero = montecarlo.estimate_zero_window(base, GAIN_PROBE_MEAN)
            out["zero_window_added_noise"] = _avg((zero["added_noise_x"], zero["added_noise_p"]))
            out["zero_window_gain"] = zero["gain"]

    if erasing and want & {"added_noise_hom_ff", "gain_hom_ff"}:
        plan = feedforward.plan_erasing_homodyne(ch, hom)
        moments = draw(hom, plan, 1)
        noise_x, _ = montecarlo.estimate_added_noise(moments, plan.optical_gain, "signal")
        out["added_noise_hom_ff"] = noise_x  # corrected quadrature only
        out["gain_hom_ff"] = montecarlo.estimate_gain(moments, GAIN_PROBE_MEAN, ("x",))

    if erasing and want & {"added_noise_het_state", "receiver_added_noise_ff", "gain_erasing"}:
        plan = feedforward.plan_erasing_heterodyne(ch, het)
        moments = draw(het, plan, 2)
        out["added_noise_het_state"] = noise(moments, plan.optical_gain)
        out["receiver_added_noise_ff"] = noise(moments, plan.optical_gain, "receiver")
        out["gain_erasing"] = montecarlo.estimate_gain(moments, GAIN_PROBE_MEAN)

    if want & {"optimal_added_noise", "optimal_gain"}:
        plan = feedforward.plan_optimal_heterodyne(ch, het)
        moments = draw(het, plan, 3)
        out["optimal_added_noise"] = noise(moments, plan.optical_gain)
        out["optimal_gain"] = montecarlo.estimate_gain(moments, GAIN_PROBE_MEAN)
    return out


# -- formula table for one (channel, tap) point ------------------------------


def formula_values(ch: ChannelParams, tap: TapConfig) -> dict:
    eps = channel_mod.excess_noise(ch)
    verdict = channel_mod.security_thresholds(eps)
    cond = feedforward.improvement_conditions(ch, tap)
    return {
        "added_noise_uncorrected": channel_mod.added_noise_uncorrected(ch),
        "excess_noise": eps,
        "entanglement_preserving": verdict["entanglement_preserving"],
        "collective_secure": verdict["collective_secure"],
        "channel_gain_uncorrected": ch.eta,
        "added_noise_hom_ff": feedforward.added_noise_hom_ff(ch, tap),
        "gain_hom_ff": 1.0 / ch.eta,
        "added_noise_het_state": feedforward.added_noise_het_state(ch, tap),
        "receiver_added_noise_no_ff": feedforward.receiver_added_noise(ch, tap, False),
        "receiver_added_noise_ff": feedforward.receiver_added_noise(ch, tap, True),
        "gain_erasing": 1.0 / ch.eta,
        "optimal_added_noise": feedforward.optimal_added_noise(ch, tap),
        "optimal_gain": feedforward.plan_optimal_heterodyne(
            ch, TapConfig(tap.gamma, Detector.HETERODYNE)
        ).optical_gain,
        "zero_window_added_noise": herald.zero_window_added_noise(ch, tap),
        "zero_window_gain": herald.zero_window_gain(ch, tap),
        "improves_hom": cond["hom"],
        "improves_het_state": cond["het_state"],
        "improves_het_receiver": cond["het_receiver"],
    }


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    ch, tap = cfg["channel"], cfg["tap"]
    gain_key, noise_key, quantities = STRATEGIES[cfg["strategy"]]
    formulas = formula_values(ch, tap)
    mc = {}
    if cfg["n"] > 0:
        mc = mc_counterparts(ch, tap.gamma, cfg["n"], cfg["seed"], quantities)

    context = [ch.eta, ch.v_env, tap.gamma, tap.detector.value, cfg["strategy"]]
    header = [
        "eta", "v_env", "gamma", "detector", "strategy",
        "quantity", "formula", "mc_estimate", "mc_stderr",
    ]
    rows = []
    for name in quantities:
        est = mc.get(name, ("", ""))
        rows.append(context + [name, formulas[name], est[0], est[1]])

    if cfg["strategy"] == "herald":
        result = herald.heralded_statistics(
            ch, tap, cfg["window"], cfg["n"], cfg["seed"] + 4
        )
        for name, value, err in (
            ("heralded_added_noise_x", result.added_noise_x, result.added_noise_x_stderr),
            ("heralded_added_noise_p", result.added_noise_p, result.added_noise_p_stderr),
            ("heralded_gain", result.gain, result.gain_stderr),
            ("success_prob", result.success_prob, ""),
            ("n_accepted", result.n_accepted, ""),
        ):
            rows.append(context + [name, "", value, err])

    if cfg["qkd"]:
        gain, noise = formulas[gain_key], formulas[noise_key]
        if math.isfinite(noise):
            try:
                report = qkd.key_rate(
                    EffectiveChannel(gain, noise),
                    cfg["qkd"]["sigma"],
                    cfg["qkd"]["attack"],
                )
            except ValueError:
                rows.append(context + ["k_rates", "no_deterministic_dilation", "", ""])
            else:
                for name in KEY_RATES:
                    rows.append(context + [name, getattr(report, name), "", ""])

    outdir = _outdir(args)
    stem = cfg["out_path"]
    if cfg["out_format"] in ("csv", "both"):
        write_csv(outdir / f"{stem}.csv", "run", header, rows)
    if cfg["out_format"] in ("json", "both"):
        payload = {
            "context": dict(zip(header[:5], context)),
            "rows": [dict(zip(header[5:], row[5:])) for row in rows],
        }
        write_json(outdir / f"{stem}.json", payload)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    axis = args.axis
    if axis not in ("eta", "v_env", "gamma"):
        raise ConfigError("axis: must be one of eta, v_env, gamma")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("values: must be a comma-separated list of numbers") from None
    if not values:
        raise ConfigError("values: at least one value required")

    # the `sweep` CSV columns, in order
    quantities = (
        "added_noise_uncorrected", "excess_noise",
        "added_noise_hom_ff", "added_noise_het_state",
        "receiver_added_noise_no_ff", "receiver_added_noise_ff",
        "optimal_added_noise", "optimal_gain",
        "zero_window_added_noise", "zero_window_gain",
    )
    flags = (
        "entanglement_preserving", "collective_secure",
        "improves_hom", "improves_het_state", "improves_het_receiver",
    )
    header = ["eta", "v_env", "gamma", "detector", *quantities]
    if cfg["n"] > 0:
        for q in quantities:
            header += [f"{q}_mc", f"{q}_stderr"]
    header += flags

    rows = []
    for value in values:
        ch, tap = cfg["channel"], cfg["tap"]
        try:
            if axis == "eta":
                ch = ChannelParams(value, ch.v_env)
            elif axis == "v_env":
                ch = ChannelParams(ch.eta, value)
            else:
                tap = TapConfig(value, tap.detector)
        except ValueError as exc:
            raise ConfigError(f"values: {axis}={value}: {exc}") from None
        formulas = formula_values(ch, tap)
        row = [ch.eta, ch.v_env, tap.gamma, tap.detector.value]
        row += [formulas[q] for q in quantities]
        if cfg["n"] > 0:
            mc = mc_counterparts(ch, tap.gamma, cfg["n"], cfg["seed"], quantities)
            for q in quantities:
                row += mc.get(q, ("", ""))
        row += [formulas[q] for q in flags]
        rows.append(row)

    write_csv(_outdir(args) / f"{cfg['out_path']}_sweep_{axis}.csv", "sweep", header, rows)
    return 0


# -- bundled presets ----------------------------------------------------------


def _preset_fig3(n: int, seed: int):
    _check_mc_n(n, "--n")
    rows = []
    header = [
        "eta", "v_env",
        "v_add_no_ff", "v_add_no_ff_mc", "v_add_no_ff_stderr",
        "v_add_ff_ideal", "v_add_ff_ideal_mc", "v_add_ff_ideal_stderr",
        "v_add_ff_tap92", "v_add_ff_tap92_mc", "v_add_ff_tap92_stderr",
    ]
    offset = 0
    for eta, v_range in ((0.9, np.linspace(10.0, 45.0, 15)), (0.1, np.linspace(1.1, 9.0, 15))):
        for v in v_range:
            ch = ChannelParams(eta, float(v))
            row = [eta, float(v)]
            for gamma in (None, 1.0, 0.92):
                tap = TapConfig(gamma if gamma else 1.0, Detector.HETERODYNE)
                formula = feedforward.receiver_added_noise(ch, tap, gamma is not None)
                if n > 0:
                    plan = (
                        feedforward.plan_erasing_heterodyne(ch, tap) if gamma else None
                    )
                    moments = montecarlo.windowed_moments(
                        ch, tap, GAIN_PROBE_MEAN, None, n, seed + offset, plan=plan
                    )
                    gain = plan.optical_gain if plan else ch.eta
                    est = _avg(montecarlo.estimate_added_noise(moments, gain, "receiver"))
                    row += [formula, est[0], est[1]]
                    offset += 1
                else:
                    row += [formula, "", ""]
            rows.append(row)
    summary = {
        "uncorrected_span_weak": [
            feedforward.receiver_added_noise(ChannelParams(0.9, 10.0), TapConfig(1.0), False),
            feedforward.receiver_added_noise(ChannelParams(0.9, 45.0), TapConfig(1.0), False),
        ],
        "uncorrected_span_strong": [
            feedforward.receiver_added_noise(ChannelParams(0.1, 1.1), TapConfig(1.0), False),
            feedforward.receiver_added_noise(ChannelParams(0.1, 9.0), TapConfig(1.0), False),
        ],
    }
    return header, rows, summary


def _preset_fig4(n: int, seed: int):
    _check_mc_n(n, "--n")
    ch = ChannelParams(0.9, 25.0)
    reference = channel_mod.added_noise_uncorrected(ch)
    header = [
        "gamma",
        "v_add_optimal", "v_add_optimal_mc", "v_add_optimal_stderr",
        "v_add_erasing", "v_add_erasing_mc", "v_add_erasing_stderr",
        "channel_gain", "channel_gain_mc", "channel_gain_stderr",
        "v_add_uncorrected",
    ]
    rows = []
    for i, gamma in enumerate(np.arange(0.05, 1.0000001, 0.05)):
        tap = TapConfig(float(gamma), Detector.HETERODYNE)
        opt_plan = feedforward.plan_optimal_heterodyne(ch, tap)
        row = [float(gamma)]
        cells = {
            "v_add_optimal": feedforward.optimal_added_noise(ch, tap),
            "v_add_erasing": feedforward.added_noise_het_state(ch, tap),
            "channel_gain": opt_plan.optical_gain,
        }
        if n > 0:
            opt_moments = montecarlo.windowed_moments(
                ch, tap, GAIN_PROBE_MEAN, None, n, seed + 2 * i, plan=opt_plan
            )
            opt = _avg(
                montecarlo.estimate_added_noise(opt_moments, opt_plan.optical_gain, "signal")
            )
            gain = montecarlo.estimate_gain(opt_moments, GAIN_PROBE_MEAN)
            er_plan = feedforward.plan_erasing_heterodyne(ch, tap)
            er_moments = montecarlo.windowed_moments(
                ch, tap, GAIN_PROBE_MEAN, None, n, seed + 2 * i + 1, plan=er_plan
            )
            er = _avg(
                montecarlo.estimate_added_noise(er_moments, er_plan.optical_gain, "signal")
            )
            mc = {"v_add_optimal": opt, "v_add_erasing": er, "channel_gain": gain}
        else:
            mc = {}
        for key in ("v_add_optimal", "v_add_erasing", "channel_gain"):
            est = mc.get(key, ("", ""))
            row += [cells[key], est[0], est[1]]
        row.append(reference)
        rows.append(row)
    summary = {"eta": 0.9, "v_env": 25.0, "v_add_uncorrected": reference}
    return header, rows, summary


FIG5_TARGETS = (4.55, 3.0)
FIG5_SCALES = (math.inf, 2.0, 1.4, 1.0, 0.7, 0.5, 0.35, 0.25)


def _preset_fig5(n: int, seed: int):
    # channel parameters for this study are calibrated so the unselected
    # receiver noise hits the reference levels; eta and gamma are fixed
    eta, gamma = 0.9, 0.7
    header = [
        "series_target", "v_env", "window_scale", "success_prob",
        "added_noise_x", "added_noise_x_stderr",
        "added_noise_p", "added_noise_p_stderr",
        "gain", "gain_stderr", "v_add_no_selection", "v_add_floor",
    ]
    if n < 10_000:
        raise ConfigError("--n: fig5 is statistical and needs n >= 10000")
    rows = []
    for target in FIG5_TARGETS:
        v_env = (eta * target - 1.0) / (1.0 - eta)
        ch = ChannelParams(eta, v_env)
        tap = TapConfig(gamma, Detector.HETERODYNE)
        no_sel = feedforward.receiver_added_noise(ch, tap, False)
        for scale in FIG5_SCALES:
            window = (
                HeraldWindow(math.inf, math.inf)
                if math.isinf(scale)
                else herald.scaled_window(ch, tap, scale)
            )
            result = herald.heralded_statistics(ch, tap, window, n, seed)
            rows.append([
                target, v_env, scale, result.success_prob,
                result.added_noise_x, result.added_noise_x_stderr,
                result.added_noise_p, result.added_noise_p_stderr,
                result.gain, result.gain_stderr, no_sel, 1.0,
            ])
    summary = {
        "eta": eta,
        "gamma": gamma,
        "series_targets": list(FIG5_TARGETS),
        "note": "window thresholds scale with the tap read-out std dev",
    }
    return header, rows, summary


TABLE1_GAMMAS = (0.92, 0.82, 0.68, 0.48, 0.2)


def _read_measured(path: str) -> dict:
    """gamma -> (v_x, v_p, gain) from a CSV whose first line is a header."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"--measured: cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"--measured: {path} is not UTF-8 text") from None
    measured = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            values = [float(p) for p in line.split(",")[:4]]
        except ValueError:
            values = []
        if len(values) < 4 or not all(map(math.isfinite, values)):
            raise ConfigError(
                f"--measured: line {lineno}: expected finite numbers gamma,v_x,v_p,gain,"
                f" got {line.strip()!r}"
            )
        measured[values[0]] = tuple(values[1:])
    return measured


def _preset_table1(n: int, seed: int, measured_path: str = ""):
    del n, seed  # analytic preset
    ch = ChannelParams(0.9, 25.0)
    sigma = 40.0
    header = ["gamma", "v_add_theory", "gain_theory", *KEY_RATES]
    measured = {}
    if measured_path:
        measured = _read_measured(measured_path)
        header += [
            "v_add_x_measured", "v_add_p_measured", "gain_measured",
            "k_x_measured", "k_x_measured_asymptotic",
            "k_p_measured", "k_p_measured_asymptotic",
        ]
    rows = []
    for gamma in TABLE1_GAMMAS:
        tap = TapConfig(gamma, Detector.HETERODYNE)
        noise = feedforward.optimal_added_noise(ch, tap)
        gain = feedforward.plan_optimal_heterodyne(ch, tap).optical_gain
        report = qkd.key_rate(EffectiveChannel(gain, noise), sigma, Attack.COLLECTIVE)
        row = [gamma, noise, gain, *(getattr(report, name) for name in KEY_RATES)]
        if measured_path:
            if gamma in measured:
                vx, vp, g_meas = measured[gamma]
                kx = qkd.key_rate(EffectiveChannel(g_meas, vx), sigma, Attack.COLLECTIVE)
                kp = qkd.key_rate(EffectiveChannel(g_meas, vp), sigma, Attack.COLLECTIVE)
                row += [
                    vx, vp, g_meas,
                    kx.k_direct, kx.k_direct_asymptotic,
                    kp.k_direct, kp.k_direct_asymptotic,
                ]
            else:
                row += [""] * 7
        rows.append(row)
    summary = {
        "eta": 0.9,
        "v_env": 25.0,
        "sigma": sigma,
        "attack": "collective",
        "gammas": list(TABLE1_GAMMAS),
    }
    return header, rows, summary


def cmd_reproduce(args) -> int:
    presets = {
        "fig3": _preset_fig3,
        "fig4": _preset_fig4,
        "fig5": _preset_fig5,
        "table1": lambda n, seed: _preset_table1(n, seed, args.measured),
    }
    if args.target not in presets:
        raise ConfigError(f"target: must be one of {sorted(presets)}")
    if not 0 <= args.seed < 2**64:
        raise ConfigError("--seed: must fit in an unsigned 64-bit integer")
    header, rows, summary = presets[args.target](args.n, args.seed)
    outdir = _outdir(args)
    write_csv(outdir / f"{args.target}.csv", args.target, header, rows)
    summary.update({"target": args.target, "n": args.n, "seed": args.seed})
    write_json(outdir / f"{args.target}.json", summary)
    return 0


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envcorr",
        description="Environmental-assisted correction of noisy Gaussian channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment configuration")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", default="", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("reproduce", help="emit a bundled study preset")
    p_rep.add_argument("target", help="fig3 | fig4 | fig5 | table1")
    p_rep.add_argument("--out", default="", help="output directory")
    p_rep.add_argument("--n", type=int, default=100_000, help="MC trajectories per point")
    p_rep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_rep.add_argument("--measured", default="", help="CSV of measured (gamma,v_x,v_p,gain)")
    p_rep.set_defaults(func=cmd_reproduce)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter of a config")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, help="eta | v_env | gamma")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default="", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HeraldNoYieldError as exc:
        print(f"no yield: {exc} (success_prob={exc.success_prob})", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
