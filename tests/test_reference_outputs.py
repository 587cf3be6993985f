"""The CLI's outputs on the benchmark's start-up configs, against the
committed reference of ``scripts/reference_outputs.py``.

Each op replays a stored config text in process and must give the same exit
code, the same first stderr line and the same output files, whose shapes,
largest absolute values and seeded entries agree to 1e-12 relative.
"""
import json
import runpy
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = json.loads((ROOT / "tests" / "data" / "reference_outputs.json").read_text())
REFERENCE = runpy.run_path(str(ROOT / "scripts" / "reference_outputs.py"), run_name="reference")
RTOL = 1e-12


@pytest.mark.parametrize(
    "want", FIXTURE["ops"], ids=[f"{op['sub']}-{op['config']}" for op in FIXTURE["ops"]]
)
def test_cli_output_matches_reference(tmp_path, want):
    got = REFERENCE["run_op"](want["sub"], FIXTURE["configs"][want["config"]], tmp_path)
    assert (got["code"], got["stderr"], got["manifest"]) == (
        want["code"],
        want["stderr"],
        want["manifest"],
    )
    assert sorted(got["outputs"]) == sorted(want["outputs"])
    for name, ref in want["outputs"].items():
        out = got["outputs"][name]
        assert out["shape"] == ref["shape"], name
        assert out["index"] == ref["index"], name
        assert out["text"] == ref["text"], name
        np.testing.assert_allclose(out["max_abs"], ref["max_abs"], rtol=RTOL, err_msg=name)
        np.testing.assert_allclose(
            out["values"], ref["values"], rtol=RTOL, atol=RTOL * ref["max_abs"], err_msg=name
        )
