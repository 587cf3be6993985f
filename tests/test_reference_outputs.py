"""The CLI's outputs on the benchmark's start-up configs, against the
committed reference of ``scripts/reference_outputs.py``.

Each op replays a stored config text in process and must give the same exit
code, the same first stderr line and the same output files, whose shapes,
largest absolute values and seeded entries agree to 1e-12 relative.  Each
entry may also differ by 1e-12 times the largest magnitude of the table
column or JSON leaf it came from, which lets an entry at rounding level
beside large ones match, but no entry ride on another array's scale.
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
        assert_entries_match(out["values"], ref, name)


def assert_entries_match(values, ref, name=""):
    scales = np.array(ref["scales"])
    close = np.isclose(values, ref["values"], rtol=RTOL, atol=RTOL * scales, equal_nan=True)
    assert close.all(), f"{name}: {np.array(values)[~close]} != {np.array(ref['values'])[~close]}"


def test_each_entry_is_checked_at_its_own_scale():
    """``n_freq`` (64) and ``eta`` (1) of an existence integral whose shells
    reach 9.1e299: against that largest value any change of them would pass."""
    op = next(
        op for op in FIXTURE["ops"]
        if (op["sub"], op["config"]) == ("existence-integral", "overflow_D.json")
    )
    ref = op["outputs"]["existence_integral.json"]
    assert ref["max_abs"] > 1e299
    for entry in (64.0, 1.0):
        values = list(ref["values"])
        values[values.index(entry)] = entry + 1.0
        with pytest.raises(AssertionError):
            assert_entries_match(values, ref)
        np.testing.assert_allclose(values, ref["values"], rtol=RTOL, atol=RTOL * ref["max_abs"])
