"""The CLI's outputs on the benchmark's start-up configs, against the
committed reference of ``scripts/reference_outputs.py``.

Each op replays a stored config text in process, and the script's own
comparison, ``differences``, must find nothing between the fresh record and
the reference: the same exit code, first stderr line and output files, whose
numbers agree to 1e-12 relative, each entry also to 1e-12 times the largest
magnitude of the table column or JSON leaf it came from.
"""
import copy
import json
import runpy
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = json.loads((ROOT / "tests" / "data" / "reference_outputs.json").read_text())
REFERENCE = runpy.run_path(str(ROOT / "scripts" / "reference_outputs.py"), run_name="reference")
differences = REFERENCE["differences"]


@pytest.mark.parametrize(
    "want", FIXTURE["ops"], ids=[f"{op['sub']}-{op['config']}" for op in FIXTURE["ops"]]
)
def test_cli_output_matches_reference(tmp_path, want):
    got = REFERENCE["run_op"](want["sub"], FIXTURE["configs"][want["config"]], tmp_path)
    assert not differences(got, want)


def test_each_entry_is_checked_at_its_own_scale():
    """``n_freq`` (64) and ``eta`` (1) of an existence integral whose shells
    reach 9.1e299: against that largest value any change of them would pass."""
    op = next(
        op for op in FIXTURE["ops"]
        if (op["sub"], op["config"]) == ("existence-integral", "overflow_D.json")
    )
    ref = op["outputs"]["existence_integral.json"]
    assert ref["max_abs"] > 1e299
    assert not differences(op, op)
    for entry in (64.0, 1.0):
        moved = copy.deepcopy(op)
        values = moved["outputs"]["existence_integral.json"]["values"]
        values[values.index(entry)] = entry + 1.0
        assert differences(moved, op) == [
            f"existence_integral.json values: {values!r} != {ref['values']!r}"
        ]
        rtol = REFERENCE["RTOL"]
        np.testing.assert_allclose(values, ref["values"], rtol=rtol, atol=rtol * ref["max_abs"])
