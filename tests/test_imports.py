"""The CLI runs on numpy alone for normal operators; scipy is loaded only for
the matrix exponential of a non-normal memory operator."""
import json
import os
import subprocess
import sys
from pathlib import Path

import fiarma_lab

SRC = str(Path(fiarma_lab.__file__).resolve().parent.parent)

GRID = {"points": [0.0, 1.0], "weights": [0.5, 0.5]}
RUN = {
    "T": 32, "K_trunc": 16, "K": 8, "n_freq": 64, "lags": 2, "shell_points": 16, "n_refine": 6
}


def _config(**model) -> str:
    model = {"sigma": [[1.0, 0.2], [0.2, 0.5]], **model}
    return json.dumps({"grid": GRID, "model": model, "run": RUN})


HERMITIAN_D = _config(D=[[0.2, 0.05], [0.05, 0.1]])
HERMITIAN_N = _config(N=[[0.7, 0.05], [0.05, 0.8]])
REFUSED_D = _config(D=[[0.6, 0.0], [0.0, 0.1]])
NONNORMAL_D = _config(D=[[0.2, 0.1], [0.0, 0.1]])
MALFORMED = '{"grid": {"points": [0.0]}}'

# (subcommand, config, expected exit code)
RUNS = [
    ("simulate", HERMITIAN_D, 0),
    ("density", HERMITIAN_D, 0),
    ("autocov", HERMITIAN_D, 0),
    ("frac-coeffs", HERMITIAN_D, 0),
    ("check-existence", HERMITIAN_D, 0),
    ("existence-integral", HERMITIAN_D, 0),
    ("periodogram", HERMITIAN_D, 0),
    ("duker-decompose", HERMITIAN_N, 0),
    ("duker-verify", HERMITIAN_N, 0),
    ("simulate", HERMITIAN_N, 0),
    ("periodogram", HERMITIAN_N, 0),
    ("density", HERMITIAN_N, 1),
    ("simulate", REFUSED_D, 2),
    ("density", MALFORMED, 1),
]

# Runs ``main`` over RUNS in one interpreter; prints the exit codes and the
# scipy modules loaded afterwards.
SCRIPT = """
import json, sys
from pathlib import Path
from fiarma_lab.cli import main

work = Path(sys.argv[1])
codes = []
for i, (sub, text, _) in enumerate(json.loads(sys.argv[2])):
    cfg = work / f"cfg{i}.json"
    cfg.write_text(text)
    codes.append(main([sub, "--config", str(cfg), "--out", str(work / f"out{i}")]))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def _run_fresh(tmp_path, runs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(runs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_on_normal_operators_loads_no_scipy(tmp_path):
    result = _run_fresh(tmp_path, RUNS)
    assert result["codes"] == [code for _, _, code in RUNS]
    assert result["scipy"] == []


def test_non_normal_density_loads_scipy_linalg(tmp_path):
    result = _run_fresh(tmp_path, [("density", NONNORMAL_D, 0)])
    assert result["codes"] == [0]
    assert "scipy.linalg" in result["scipy"]
