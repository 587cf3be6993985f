"""Smoke runs of the experiment scripts, in process and with tiny arguments."""
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "spectral_mc.py",
            ["--reps", "2", "--T", "256", "--ar", "0.5"],
            "lambda,mean_periodogram,density",
        ),
        ("delta_decay.py", ["--order", "300", "--fit-from", "20"], "exponent,k,delta_norm"),
        ("existence_sweep.py", ["--steps", "3"], "model,d,verdict,integral,diverges"),
    ],
)
def test_script_writes_csv(tmp_path, monkeypatch, script, args, header):
    out = tmp_path / "out.csv"
    monkeypatch.setattr("sys.argv", [script, *args, "--out", str(out)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert done.value.code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1
