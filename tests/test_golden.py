"""Byte-for-byte regression of the CLI's CSV output against tests/golden/.

Each case is one `envcorr` command at n = 10^4 with a fixed seed. A change
that leaves the random streams alone must keep every CSV byte-identical; the
9 significant digits of the CSV hide last-ulp noise. When a change moves a
stream on purpose, regenerate only the files whose streams moved with

    PYTHONPATH=src python tests/test_golden.py [outdir] [stem ...]

(default outdir: tests/golden; default stems: all 12, e.g. fig5 run_herald)
and say in CHANGES.md which streams changed.
"""

import json
import sys
from pathlib import Path

import pytest

from envcorr import cli

GOLDEN = Path(__file__).parent / "golden"
N = 10_000

# strategy -> (seed, channel, tap, attack, extra config); the grid points of
# the benchmark's run cycle plus a herald window
RUN_POINTS = {
    "none": (101, (0.9, 25.0), (0.8, "heterodyne"), "collective", {}),
    "erasing-hom": (102, (0.5, 5.0), (0.2, "homodyne-x"), "individual", {}),
    "erasing-het": (103, (0.7, 25.0), (0.5, "heterodyne"), "collective", {}),
    "optimal": (104, (0.3, 5.0), (0.8, "heterodyne"), "individual", {}),
    "herald": (
        105, (0.9, 20.0), (0.7, "heterodyne"), "collective",
        {"window": {"x_th": 2.0, "p_th": 2.0}},
    ),
}
SWEEPS = {"eta": "0.1,0.5,0.9", "v_env": "1,10,100", "gamma": "0,0.5,1"}
PRESETS = ("fig3", "fig4", "fig5", "table1")
STEMS = (
    *(f"run_{strategy}" for strategy in RUN_POINTS),
    *(f"sweep_{axis}" for axis in SWEEPS),
    *PRESETS,
)


def argv(workdir: Path, stem: str) -> list[str]:
    """The command behind a golden file, minus --out; its config goes to workdir."""
    kind, _, name = stem.partition("_")
    if kind == "run":
        seed, (eta, v), (gamma, det), attack, extra = RUN_POINTS[name]
        raw = {
            "channel": {"eta": eta, "v_env": v},
            "tap": {"gamma": gamma, "detector": det},
            "strategy": name,
            "mc": {"n": N, "seed": seed},
            "qkd": {"sigma": 40.0, "attack": attack},
            **extra,
        }
        flags = []
    elif kind == "sweep":
        raw = {
            "channel": {"eta": 0.9, "v_env": 25.0},
            "tap": {"gamma": 0.6, "detector": "heterodyne"},
            "mc": {"n": N, "seed": 77},
        }
        flags = ["--axis", name, "--values", SWEEPS[name]]
    else:
        return ["reproduce", stem, "--n", str(N), "--seed", "11"]
    config = workdir / f"{stem}.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    return [kind, str(config), *flags]


def produce(workdir: Path, stem: str) -> bytes:
    """Run one case in a fresh directory and return the one CSV it writes."""
    out = workdir / stem
    assert cli.main([*argv(workdir, stem), "--out", str(out)]) == 0
    (csv,) = out.glob("*.csv")
    return csv.read_bytes()


@pytest.mark.parametrize("stem", STEMS)
def test_csv_matches_golden(tmp_path, stem):
    assert produce(tmp_path, stem) == (GOLDEN / f"{stem}.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    target = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    stems = sys.argv[2:] or STEMS
    unknown = sorted(set(stems) - set(STEMS))
    if unknown:
        sys.exit(f"unknown stems {unknown}; choose from {list(STEMS)}")
    target.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for stem in stems:
            (target / f"{stem}.csv").write_bytes(produce(Path(scratch), stem))
