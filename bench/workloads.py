"""The benchmark's four workloads: inputs made from the seed, one op, checks.

Every op of a workload does the same fixed amount of work: where a workload
mixes inputs, one op is one whole pass over the mix. All ops of a run use
the same inputs, so each op after the first must reproduce the first op's
outputs exactly; the first op's outputs are checked against `reference`.

    run      `envcorr run` at mc.n = 10^6 over four strategies
    herald   `envcorr reproduce fig5` at --n 10^6, one 16-window ladder
    keyrate  `qkd.key_rate` over a grid of channels, both attacks
    presets  `envcorr reproduce fig3`, `fig4`, `table1` at --n 10^5
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from envcorr import cli, qkd
from envcorr.qkd import Attack, Detection, EffectiveChannel

import reference

FIVE_SIGMA = 5.0
SIGMA_QKD = 40.0
ASYMPTOTIC_SIGMA = 1e7
# CSV cells carry 9 significant digits
CSV_REL = 1e-8
# key rates at sigma = 1e7 lose digits to rounding in any dilation route;
# at the workloads' finite sigma they agree to about 1e-12
ASYMPTOTIC_TOL = 1e-6
FINITE_TOL = 1e-9


def _seed_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _close(value: float, ref: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(value, ref, rel_tol=rel, abs_tol=abs_tol)


def _within(estimate: float, ref: float, stderr: float) -> bool:
    return stderr > 0 and abs(estimate - ref) <= FIVE_SIGMA * stderr


def _stderr_from_n(noise: float, stderr: float, n: int, quadratures: int = 2) -> bool:
    """An added-noise stderr must come from n trajectories.

    Per quadrature it is sqrt(2/(n-1)) V/G with V/G = 1 + noise; averaging
    two quadratures divides it by sqrt(2) up to a term of order 1/n.
    """
    return _close(stderr, math.sqrt(2 / (n - 1) / quadratures) * (1 + noise), 1e-3)


def _same(got, ref) -> bool:
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and all(map(_same, got, ref))
    if isinstance(ref, float) and isinstance(got, (int, float)):
        return _close(got, ref, 1e-12)
    return got == ref


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _read_csv(path: Path) -> tuple[str, list[dict]]:
    """Schema line and rows of a CSV output, numeric cells as floats."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = csv.DictReader(lines[1:])
    return lines[0], [{k: _cell(v) for k, v in row.items()} for row in rows]


def _rate_problems(where: str, gain: float, chi: float, rates: dict, collective: bool) -> list:
    """Key-rate cells against the reference dilation at sigma and 1e7."""
    problems = []
    finite = reference.key_rates(gain, chi, SIGMA_QKD, collective, False)
    limit = reference.key_rates(gain, chi, ASYMPTOTIC_SIGMA, collective, False)
    for direction in ("direct", "reverse"):
        k, k_inf = rates[f"k_{direction}"], rates[f"k_{direction}_asymptotic"]
        ref = finite[f"k_{direction}"]
        if not _close(k, ref, CSV_REL, FINITE_TOL):
            problems.append(f"{where}: k_{direction} {k!r} != reference {ref!r}")
        if not _close(k_inf, limit[f"k_{direction}"], 0.0, ASYMPTOTIC_TOL):
            problems.append(f"{where}: k_{direction}_asymptotic {k_inf!r} != reference")
        if k > 0 and k_inf < k - ASYMPTOTIC_TOL:
            problems.append(f"{where}: asymptotic {direction} rate below the finite rate")
    return problems


class CliWorkload:
    """A workload whose op is a fixed list of `envcorr` command lines."""

    name = ""

    def __init__(self, workdir: Path):
        self.out = workdir / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.argvs: list[list[str]] = []
        self.work_per_op = 0
        self._first: dict | None = None

    @property
    def calls_per_op(self) -> int:
        return len(self.argvs)

    def op(self) -> int:
        """Run every command once; return how many exited non-zero."""
        return sum(cli.main(argv) != 0 for argv in self.argvs)

    def check(self) -> list[str]:
        files = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
        if self._first is None:
            self._first = files
            return self.check_outputs()
        if files != self._first:
            return [f"{self.name}: outputs differ from the first op's on the same inputs"]
        return []

    def check_outputs(self) -> list[str]:
        raise NotImplementedError


class ReproduceWorkload(CliWorkload):
    """`envcorr reproduce` of fixed targets at --n, with a seed made from the run's."""

    targets: tuple[str, ...] = ()

    def __init__(self, workdir: Path, seed: int, n: int):
        super().__init__(workdir)
        self.n = n
        self.seed = _seed_rng(self.name, seed).randrange(2**31)
        flags = ["--out", str(self.out), "--n", str(n), "--seed", str(self.seed)]
        self.argvs = [["reproduce", target, *flags] for target in self.targets]

    def _summary(self, target: str, want: dict) -> list[str]:
        """A preset's summary JSON; its floats carry every digit, so 1e-12."""
        summary = json.loads((self.out / f"{target}.json").read_text(encoding="utf-8"))
        want = dict(want, n=self.n, seed=self.seed, target=target)
        return [
            f"{target}.json: {key} = {summary.get(key)!r}, expected {ref!r}"
            for key, ref in want.items()
            if not _same(summary.get(key), ref)
        ]


# -- run ----------------------------------------------------------------------

# one strategy per acceptance-grid point (eta, gamma, v_env); attacks alternate
RUN_CYCLE = (
    ("none", 0.9, 0.8, 25.0, "heterodyne", "collective"),
    ("erasing-hom", 0.5, 0.2, 5.0, "homodyne-x", "individual"),
    ("erasing-het", 0.7, 0.5, 25.0, "heterodyne", "collective"),
    ("optimal", 0.3, 0.8, 5.0, "heterodyne", "individual"),
)
RUN_ROWS = {
    "none": (
        "added_noise_uncorrected", "excess_noise",
        "receiver_added_noise_no_ff", "channel_gain_uncorrected",
    ),
    "erasing-hom": ("added_noise_uncorrected", "added_noise_hom_ff", "gain_hom_ff"),
    "erasing-het": (
        "added_noise_uncorrected", "added_noise_het_state",
        "receiver_added_noise_no_ff", "receiver_added_noise_ff", "gain_erasing",
    ),
    "optimal": ("added_noise_uncorrected", "optimal_added_noise", "optimal_gain"),
}
# strategy -> (gain, added noise) of the corrected channel the key rate uses
RUN_CHANNEL = {
    "none": ("channel_gain_uncorrected", "added_noise_uncorrected"),
    "erasing-hom": ("gain_hom_ff", "added_noise_hom_ff"),
    "erasing-het": ("gain_erasing", "added_noise_het_state"),
    "optimal": ("optimal_gain", "optimal_added_noise"),
}
RATE_ROWS = ("k_direct", "k_direct_asymptotic", "k_reverse", "k_reverse_asymptotic")


class RunWorkload(CliWorkload):
    name = "run"

    def __init__(self, workdir: Path, seed: int, smoke: bool):
        super().__init__(workdir)
        rng = _seed_rng(self.name, seed)
        n = 10_000 if smoke else 1_000_000
        self.configs = []
        for i, (strategy, eta, gamma, v_env, detector, attack) in enumerate(RUN_CYCLE):
            config = {
                "channel": {"eta": eta, "v_env": v_env},
                "tap": {"gamma": gamma, "detector": detector},
                "strategy": strategy,
                "mc": {"n": n, "seed": rng.randrange(2**32)},
                "qkd": {"sigma": SIGMA_QKD, "attack": attack},
                "output": {"path": f"run{i}", "format": "both"},
            }
            path = workdir / f"run{i}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            self.configs.append(config)
            self.argvs.append(["run", str(path), "--out", str(self.out)])
        self.work_per_op = n * len(RUN_CYCLE)

    def check_outputs(self) -> list[str]:
        problems = []
        for i, config in enumerate(self.configs):
            strategy = config["strategy"]
            eta, v_env = config["channel"]["eta"], config["channel"]["v_env"]
            gamma = config["tap"]["gamma"]
            where = f"run{i} ({strategy})"
            payload = json.loads((self.out / f"run{i}.json").read_text(encoding="utf-8"))
            context = (eta, v_env, gamma, config["tap"]["detector"], strategy)
            keys = ("eta", "v_env", "gamma", "detector", "strategy")
            got = tuple(payload["context"][k] for k in keys)
            if got != context:
                problems.append(f"{where}: context {got} != config {context}")
            formulas = reference.channel_formulas(eta, gamma, v_env)
            rows = {row["quantity"]: row for row in payload["rows"]}
            expected = RUN_ROWS[strategy] + RATE_ROWS
            if tuple(rows) != expected:
                problems.append(f"{where}: quantities {tuple(rows)} != {expected}")
                continue
            n = config["mc"]["n"]
            for name in RUN_ROWS[strategy]:
                row, ref = rows[name], formulas[name]
                quadratures = 1 if name == "added_noise_hom_ff" else 2
                if "added_noise" in name and not _stderr_from_n(
                    row["mc_estimate"], row["mc_stderr"], n, quadratures
                ):
                    problems.append(f"{where}: {name} stderr does not come from n = {n}")
                if not _close(row["formula"], ref, 1e-12, 1e-12):
                    problems.append(f"{where}: {name} formula {row['formula']!r} != {ref!r}")
                if not _within(row["mc_estimate"], ref, row["mc_stderr"]):
                    problems.append(
                        f"{where}: {name} MC {row['mc_estimate']} +- {row['mc_stderr']} "
                        f"is not within 5 sigma of {ref}"
                    )
            gain_key, noise_key = RUN_CHANNEL[strategy]
            rates = {k: rows[k]["formula"] for k in RATE_ROWS}
            problems += _rate_problems(
                where, formulas[gain_key], formulas[noise_key], rates,
                config["qkd"]["attack"] == "collective",
            )
            header, csv_rows = _read_csv(self.out / f"run{i}.csv")
            if header != "# schema: envcorr.run.v1" or len(csv_rows) != len(rows):
                problems.append(f"{where}: CSV does not match the JSON rows")
        return problems


# -- herald ---------------------------------------------------------------------

FIG5_ETA, FIG5_GAMMA = 0.9, 0.7
FIG5_TARGETS = (4.55, 3.0)
FIG5_LADDER = (math.inf, 2.0, 1.4, 1.0, 0.7, 0.5, 0.35, 0.25)
FIG5_INPUT_MEAN = (6.0, 6.0)


class HeraldWorkload(ReproduceWorkload):
    name = "herald"
    targets = ("fig5",)

    def __init__(self, workdir: Path, seed: int, smoke: bool):
        super().__init__(workdir, seed, 10_000 if smoke else 1_000_000)
        self.work_per_op = self.n * len(FIG5_TARGETS) * len(FIG5_LADDER)

    def check_outputs(self) -> list[str]:
        eta, gamma, n = FIG5_ETA, FIG5_GAMMA, self.n
        problems = self._summary(
            "fig5", {"eta": eta, "gamma": gamma, "series_targets": list(FIG5_TARGETS)}
        )
        header, rows = _read_csv(self.out / "fig5.csv")
        ladder = [(t, s) for t in FIG5_TARGETS for s in FIG5_LADDER]
        if header != "# schema: envcorr.fig5.v1" or [
            (r["series_target"], r["window_scale"]) for r in rows
        ] != ladder:
            return problems + ["fig5.csv: rows are not the 2 x 8 window ladder"]
        for target in FIG5_TARGETS:
            series = [r for r in rows if r["series_target"] == target]
            v = (eta * target - 1) / (1 - eta)
            open_noise = ((1 - eta) * v + 1) / eta
            for row in series:
                where = f"fig5 target {target} scale {row['window_scale']}"
                if not _close(row["v_env"], v, CSV_REL):
                    problems.append(f"{where}: v_env {row['v_env']} != {v}")
                if (
                    not _close(row["v_add_no_selection"], open_noise, CSV_REL)
                    or row["v_add_floor"] != 1
                ):
                    problems.append(f"{where}: reference columns are wrong")
                p = reference.herald_box_probability(
                    eta, gamma, v, row["window_scale"], FIG5_INPUT_MEAN
                )
                if abs(row["success_prob"] - p) > FIVE_SIGMA * math.sqrt(p * (1 - p) / n):
                    problems.append(f"{where}: success {row['success_prob']} vs box {p:.6g}")
            wide = series[0]
            where = f"fig5 target {target} open window"
            for quad in ("x", "p"):
                noise, err = wide[f"added_noise_{quad}"], wide[f"added_noise_{quad}_stderr"]
                if not _within(noise, open_noise, err):
                    problems.append(f"{where}: noise {quad} is not {open_noise:.6g}")
            if not _within(wide["gain"], eta, wide["gain_stderr"]):
                problems.append(f"{where}: gain is not {eta}")
            # it keeps all n draws: gain stderr = G sqrt((V_x + V_p) / G / n) / 6
            spread = math.sqrt((wide["added_noise_x"] + wide["added_noise_p"] + 2) / n)
            if not _close(wide["gain_stderr"], wide["gain"] * spread / FIG5_INPUT_MEAN[0], 1e-5):
                problems.append(f"{where}: stderr does not come from n = {n}")
            for prev, nxt in zip(series, series[1:]):
                for quad in ("x", "p"):
                    slack = FIVE_SIGMA * math.hypot(
                        prev[f"added_noise_{quad}_stderr"], nxt[f"added_noise_{quad}_stderr"]
                    )
                    if nxt[f"added_noise_{quad}"] > prev[f"added_noise_{quad}"] + slack:
                        problems.append(
                            f"fig5 target {target}: noise {quad} rises from scale "
                            f"{prev['window_scale']} to {nxt['window_scale']}"
                        )
        return problems


# -- presets --------------------------------------------------------------------

FIG3_SERIES = ((0.9, 10.0, 45.0), (0.1, 1.1, 9.0))  # eta, v_env from, to; 15 points
FIG4_ETA, FIG4_V = 0.9, 25.0
TABLE1_GAMMAS = (0.92, 0.82, 0.68, 0.48, 0.2)


class PresetsWorkload(ReproduceWorkload):
    name = "presets"
    targets = ("fig3", "fig4", "table1")

    def __init__(self, workdir: Path, seed: int, smoke: bool):
        super().__init__(workdir, seed, 10_000 if smoke else 100_000)
        # fig3: 30 rows x 3 curves; fig4: 20 rows x 2 strategies; table1 is analytic
        self.work_per_op = self.n * (30 * 3 + 20 * 2)

    def _mc_cell(self, where: str, row: dict, column: str, ref: float) -> list[str]:
        problems = []
        if column.startswith("v_add") and not _stderr_from_n(
            row[f"{column}_mc"], row[f"{column}_stderr"], self.n
        ):
            problems.append(f"{where}: {column}_stderr does not come from n = {self.n}")
        if not _close(row[column], ref, CSV_REL):
            problems.append(f"{where}: {column} {row[column]} != {ref}")
        if not _within(row[f"{column}_mc"], ref, row[f"{column}_stderr"]):
            problems.append(
                f"{where}: {column}_mc {row[f'{column}_mc']} +- {row[f'{column}_stderr']} "
                f"is not within 5 sigma of {ref}"
            )
        return problems

    def check_outputs(self) -> list[str]:
        def open_noise(eta, v):
            return ((1 - eta) * v + 1) / eta

        problems = self._summary("fig3", {
            "uncorrected_span_weak": [open_noise(0.9, 10.0), open_noise(0.9, 45.0)],
            "uncorrected_span_strong": [open_noise(0.1, 1.1), open_noise(0.1, 9.0)],
        })
        header, rows = _read_csv(self.out / "fig3.csv")
        grid = [(eta, lo + (hi - lo) * k / 14) for eta, lo, hi in FIG3_SERIES for k in range(15)]
        if header != "# schema: envcorr.fig3.v1" or len(rows) != len(grid):
            problems.append("fig3.csv: expected 30 rows")
        else:
            for row, (eta, v) in zip(rows, grid):
                where = f"fig3 eta {eta} v_env {v:.6g}"
                if row["eta"] != eta or not _close(row["v_env"], v, CSV_REL):
                    problems.append(f"{where}: grid point is ({row['eta']}, {row['v_env']})")
                    continue
                problems += self._mc_cell(where, row, "v_add_no_ff", open_noise(eta, v))
                problems += self._mc_cell(where, row, "v_add_ff_ideal", eta + (1 - eta))
                problems += self._mc_cell(
                    where, row, "v_add_ff_tap92", eta + (1 - eta) * (2 - 0.92) / 0.92
                )

        uncorrected = (1 - FIG4_ETA) / FIG4_ETA * FIG4_V
        problems += self._summary(
            "fig4", {"eta": FIG4_ETA, "v_env": FIG4_V, "v_add_uncorrected": uncorrected}
        )
        header, rows = _read_csv(self.out / "fig4.csv")
        if header != "# schema: envcorr.fig4.v1" or len(rows) != 20:
            problems.append("fig4.csv: expected 20 rows")
        else:
            for k, row in enumerate(rows, start=1):
                gamma = 0.05 * k
                where = f"fig4 gamma {gamma:.2f}"
                if not _close(row["gamma"], gamma, CSV_REL):
                    problems.append(f"{where}: gamma is {row['gamma']}")
                    continue
                ref = reference.channel_formulas(FIG4_ETA, gamma, FIG4_V)
                problems += self._mc_cell(where, row, "v_add_optimal", ref["optimal_added_noise"])
                problems += self._mc_cell(where, row, "v_add_erasing", ref["added_noise_het_state"])
                problems += self._mc_cell(where, row, "channel_gain", ref["optimal_gain"])
                if not _close(row["v_add_uncorrected"], uncorrected, CSV_REL):
                    problems.append(f"{where}: v_add_uncorrected is {row['v_add_uncorrected']}")

        problems += self._summary("table1", {
            "eta": FIG4_ETA, "v_env": FIG4_V, "sigma": SIGMA_QKD,
            "attack": "collective", "gammas": list(TABLE1_GAMMAS),
        })
        header, rows = _read_csv(self.out / "table1.csv")
        gammas = [r["gamma"] for r in rows]
        if header != "# schema: envcorr.table1.v1" or gammas != list(TABLE1_GAMMAS):
            problems.append("table1.csv: rows are not the five tap efficiencies")
        else:
            for row in rows:
                where = f"table1 gamma {row['gamma']}"
                ref = reference.channel_formulas(FIG4_ETA, row["gamma"], FIG4_V)
                gain, noise = ref["optimal_gain"], ref["optimal_added_noise"]
                theory = (row["v_add_theory"], row["gain_theory"])
                if not (_close(theory[0], noise, CSV_REL) and _close(theory[1], gain, CSV_REL)):
                    problems.append(f"{where}: theory columns {theory}")
                problems += _rate_problems(where, gain, noise, row, True)
        return problems


# -- keyrate ----------------------------------------------------------------------


@dataclass(frozen=True)
class RateInput:
    kind: str  # pure-loss | lossy | table1 | amplifier | near-unity
    gain: float
    chi: float
    detection: Detection
    sigma: float
    attack: Attack


# valid channels within 1e-4 of unit gain whose added noise lies above their
# own floor |G-1|/G but below 1e-4; the gain clamp in the package's dilation
# rejects them today
NEAR_UNITY = ((1.00005, 5e-5 + 1e-9), (1.00002, 2e-5 + 1e-9), (0.99995, 5e-5 / 0.99995 + 1e-9))


def _strata(rng: random.Random, edges) -> list[float]:
    return [rng.uniform(lo, hi) for lo, hi in zip(edges, edges[1:])]


def keyrate_channels(rng: random.Random) -> list[tuple[str, float, float]]:
    channels = []
    for t in _strata(rng, (0.15, 0.35, 0.55, 0.75, 0.95)):
        for xi in [0.0] + _strata(rng, (0.0, 0.5, 1.0)) + [1.0]:
            channels.append(("pure-loss" if xi == 0 else "lossy", t, (1 - t) / t + xi))
    for gamma in TABLE1_GAMMAS:
        ref = reference.channel_formulas(FIG4_ETA, gamma, FIG4_V)
        channels.append(("table1", ref["optimal_gain"], ref["optimal_added_noise"]))
    for g in _strata(rng, (1.05, 1.5, 2.5, 4.0)):
        for extra in _strata(rng, (0.01, 0.2, 1.0)):
            channels.append(("amplifier", g, (g - 1) / g + extra))
    for g, chi in NEAR_UNITY:
        if not abs(g - 1) / g < chi < 1e-4:
            raise ValueError(f"near-unity channel G={g} chi={chi} is outside its band")
        channels.append(("near-unity", g, chi))
    return channels


class KeyrateWorkload:
    name = "keyrate"

    def __init__(self, workdir: Path, seed: int, smoke: bool):
        del workdir, smoke  # no files; the grid is already small
        rng = _seed_rng(self.name, seed)
        sigmas = _strata(rng, (2.0, 10.0, 60.0, 300.0))
        self.grid = [
            RateInput(kind, gain, chi, detection, sigma, attack)
            for kind, gain, chi in keyrate_channels(rng)
            for detection in Detection
            for sigma in sigmas
            for attack in Attack
        ]
        rng.shuffle(self.grid)
        self.work_per_op = self.calls_per_op = len(self.grid)
        self._results: list = []
        self._first: list | None = None

    def op(self) -> int:
        """One pass over the grid; return how many evaluations raised."""
        results = []
        for item in self.grid:
            try:
                results.append(
                    qkd.key_rate(
                        EffectiveChannel(item.gain, item.chi, item.detection),
                        item.sigma,
                        item.attack,
                    )
                )
            except ValueError:
                results.append(None)
        self._results = results
        return results.count(None)

    def check(self) -> list[str]:
        if self._first is None:
            self._first = self._results
            return self.check_outputs()
        if self._results != self._first:
            return ["keyrate: a pass differs from the first pass on the same grid"]
        return []

    def check_outputs(self) -> list[str]:
        problems = []
        by_channel = {}
        for item, report in zip(self.grid, self._results):
            where = (
                f"{item.kind} G={item.gain:.6g} chi={item.chi:.6g} {item.detection.value} "
                f"sigma={item.sigma:.4g} {item.attack.value}"
            )
            if report is None:
                # only the named near-unity channels may fail
                if item.kind != "near-unity":
                    problems.append(f"{where}: key_rate raised ValueError")
                continue
            for direction in ("direct", "reverse"):
                k = getattr(report, f"k_{direction}")
                if k > 0 and getattr(report, f"k_{direction}_asymptotic") < k - ASYMPTOTIC_TOL:
                    problems.append(f"{where}: asymptotic {direction} rate below the finite rate")
            if item.kind == "pure-loss":
                heterodyne = item.detection is Detection.HETERODYNE
                collective = item.attack is Attack.COLLECTIVE
                i_ab = reference.mutual_information(item.gain, item.chi, item.sigma, heterodyne)
                eve = i_ab - report.k_direct
                ref = reference.pure_loss_eve(item.gain, item.sigma, collective, heterodyne)
                if abs(eve - ref) > 1e-11:
                    problems.append(f"{where}: Eve's information {eve!r} != {ref!r}")
            channel = (item.gain, item.chi, item.detection, item.sigma)
            by_channel.setdefault(channel, {})[item.attack] = report
        for key, reports in by_channel.items():
            if len(reports) < 2:
                continue
            ind, col = reports[Attack.INDIVIDUAL], reports[Attack.COLLECTIVE]
            for field in RATE_ROWS:
                tol = ASYMPTOTIC_TOL if field.endswith("asymptotic") else FINITE_TOL
                if getattr(col, field) > getattr(ind, field) + tol:
                    problems.append(f"keyrate {key}: collective {field} exceeds individual")
        return problems


WORKLOADS = {
    "run": RunWorkload,
    "herald": HeraldWorkload,
    "keyrate": KeyrateWorkload,
    "presets": PresetsWorkload,
}
