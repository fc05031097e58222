"""Every function of the package is called by some `envcorr` command.

The package holds only what its three commands run: library API that only
tests call is deleted with its tests. This test runs a fixed list of
in-process `cli.main` calls under a `sys.setprofile` hook, which reports each
function call, and asserts that every function and method `ast` finds in
`src/envcorr`, nested ones included, was called. Functions are matched by
file, first line (counting decorators) and name.
"""

import ast
import json
import sys
from pathlib import Path

from envcorr import cli

PACKAGE = Path(cli.__file__).resolve().parent

# qualified name -> why no command calls it; a listed function that is called fails too
UNREACHED = {
    "montecarlo.sample": (
        "bench/tracing.py wraps it by name and the tests use it as the trajectory"
        " reference; it leaves the package with the benchmark's tracing"
    ),
}


def package_functions() -> dict:
    """(file, first line, name) -> qualified name of every def in the package."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first, child.name)] = name
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return found


def write_config(path: Path, strategy: str, **overrides) -> str:
    config = {
        "channel": {"eta": 0.9, "v_env": 25.0},
        "tap": {"gamma": 0.92},
        "strategy": strategy,
        "mc": {"n": 10_000, "seed": 7},
        "output": {"path": path.stem, "format": "both"},
        **overrides,
    }
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def commands(d: Path) -> list:
    """(argv, expected exit code) of the calls the test profiles."""
    out = ["--out", str(d / "out")]
    calls = []
    for i, strategy in enumerate(cli.STRATEGIES):
        extra = {"window": {"x_th": 2.0, "p_th": 2.0}} if strategy == "herald" else {}
        attack = ("collective", "individual")[i % 2]
        cfg = write_config(d / f"{strategy}.json", strategy, qkd={"attack": attack}, **extra)
        calls.append((["run", cfg, *out], 0))
    sweep = write_config(d / "sweep.json", "none", output={"path": "sweep"})
    for axis, values in (("eta", "0.5,0.9"), ("v_env", "1,25"), ("gamma", "0,0.5")):
        calls.append((["sweep", sweep, "--axis", axis, "--values", values, *out], 0))
    for target in ("fig3", "fig4", "fig5", "table1"):
        calls.append((["reproduce", target, "--n", "10000", *out], 0))
    measured = d / "measured.csv"
    measured.write_text("gamma,v_x,v_p,gain\n0.92,0.1,0.1,1.1\n", encoding="utf-8")
    calls.append((["reproduce", "table1", "--measured", str(measured), *out], 0))
    # refusals: a config error, a window that keeps nothing, an overflowing key rate
    calls.append((["run", write_config(d / "bad.json", "perfect"), *out], 2))
    no_yield = write_config(d / "no_yield.json", "herald", window={"x_th": 0, "p_th": 0})
    calls.append((["run", no_yield, *out], 3))
    overflow = write_config(
        d / "overflow.json", "erasing-het", tap={"gamma": 1e-100}, mc={"n": 0}, qkd={}
    )
    calls.append((["run", overflow, *out], 4))
    return calls


def called_functions(calls) -> set:
    """(file, first line, name) of every Python function the calls entered."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    codes = []
    sys.setprofile(hook)
    try:
        for argv, _ in calls:
            codes.append(cli.main(argv))
    finally:
        sys.setprofile(previous)
    assert codes == [code for _, code in calls]
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in seen}


def test_every_package_function_is_called_by_a_command(tmp_path):
    called = called_functions(commands(tmp_path))
    unreached = {name for key, name in package_functions().items() if key not in called}
    assert unreached - set(UNREACHED) == set(), "no command calls these; delete them"
    assert set(UNREACHED) - unreached == set(), "a command calls these; drop them from UNREACHED"
