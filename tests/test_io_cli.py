import errno
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fiarma_lab.dataio
from fiarma_lab import (
    ArmaModel,
    ConfigError,
    HilbertGrid,
    LinearOperator,
    NotPSDError,
    OperatorPolynomial,
    PathFormatError,
    RunConfig,
    SampledPath,
    parse_config,
    read_path,
    write_path,
)
from fiarma_lab.cli import RUNNERS, main
from fiarma_lab.dataio import _table_bytes

from conftest import make_grid


def minimal_config(**run) -> str:
    doc = {
        "grid": {"points": [0.0], "weights": [1.0]},
        "model": {"sigma": [[1.0]]},
        "run": run,
    }
    return json.dumps(doc)


def fractional_config(d: float, theta=None, **run) -> str:
    doc = {
        "grid": {"points": [0.0], "weights": [1.0]},
        "model": {"sigma": [[1.0]], "D": [[d]]},
        "run": run,
    }
    if theta is not None:
        doc["model"]["theta"] = [[[theta]]]
    return json.dumps(doc)


GRID_2 = {"points": [0.0, 1.0], "weights": [0.5, 0.5]}
SIGMA_2 = [[1.0, 0.2], [0.2, 0.5]]
# One n=2 model of each family, each within its existence conditions.
FAMILY_MODELS = {
    "ARMA": {"sigma": SIGMA_2, "phi": [[[0.5, 0.1], [0.0, 0.3]]], "theta": [[[0.2, 0], [0, 0.2]]]},
    "D": {"sigma": SIGMA_2, "D": [[0.2, 0.05], [0.05, 0.1]]},
    "N": {"sigma": SIGMA_2, "N": [[0.7, 0.05], [0.05, 0.8]]},
}
# The families each subcommand takes; it refuses the others with exit code 1.
TAKES = {
    "simulate": ("ARMA", "D", "N"),
    "density": ("ARMA", "D"),
    "autocov": ("ARMA", "D"),
    "frac-coeffs": ("D",),
    "check-existence": ("D",),
    "existence-integral": ("D",),
    "duker-decompose": ("N",),
    "duker-verify": ("N",),
    "periodogram": ("ARMA", "D", "N"),
}


def family_config(family: str, **model) -> str:
    run = {"T": 32, "K_trunc": 16, "K": 8, "n_freq": 64, "lags": 2, "shell_points": 8}
    return json.dumps({"grid": GRID_2, "model": FAMILY_MODELS[family] | model, "run": run})


def two_point_config(points) -> str:
    return json.dumps(
        {
            "grid": {"points": points, "weights": [0.5, 0.5]},
            "model": {"sigma": [[1.0, 0.0], [0.0, 1.0]]},
        }
    )


def readme_config(**model) -> str:
    """The README example at small run sizes, with the model keys ``model`` replaced."""
    example = {
        "phi": [[[0.3, 0.0], [0.0, 0.2]]],
        "theta": [],
        "sigma": [[1.0, 0.0], [0.0, 1.0]],
        "D": [[0.3, 0.0], [0.0, 0.1]],
    }
    run = {"T": 256, "K_trunc": 64, "n_freq": 256, "seed": 7}
    return json.dumps({"grid": GRID_2, "model": example | model, "run": run})


ZERO_2 = [[0.0, 0.0], [0.0, 0.0]]
HUGE_2 = [[1e300, 0.0], [0.0, 1e300]]
# theta = Sigma = 1e300 Id: phi is certified, and the base's half-factor overflows
OVERFLOW_CONFIG = readme_config(theta=[HUGE_2], sigma=HUGE_2)
# theta = 1e200 Id, Sigma = Id: the half-factor is finite, its square is not
SQUARE_OVERFLOW_CONFIG = readme_config(theta=[[[1e200, 0.0], [0.0, 1e200]]])
# theta = 8e153 Id, Sigma = Id: the squared row norms at frequency 0 are
# finite, but not once divided by the grid weights 0.5
WEIGHTED_OVERFLOW_CONFIG = readme_config(theta=[[[8e153, 0.0], [0.0, 8e153]]])
# theta = 1e153 Id, D = diag(0.4999, 0.1): sigma_w is finite, and the weighted
# sum of condition (iii) over 1 - 2 Re d (about 1e310) is not
CONDITION_OVERFLOW_CONFIG = readme_config(
    theta=[[[1e153, 0.0], [0.0, 1e153]]], D=[[0.4999, 0.0], [0.0, 0.1]]
)
# Sigma = 1e300 Id, N = diag(0.5 + 1e-9, 0.9): the power-law sum (about 1e309) overflows
POWER_LAW_OVERFLOW_CONFIG = family_config("N", sigma=HUGE_2, N=[[0.500000001, 0.0], [0.0, 0.9]])
# theta = 1e307 Id: the filter is finite, and its FFT convolution with the noise is not
CONVOLUTION_OVERFLOW_CONFIG = readme_config(theta=[[[1e307, 0.0], [0.0, 1e307]]])
# Sigma = 1.7e308 Id: Sigma's Hermitian part is in range, though not the
# sum Sigma + Sigma^H, and the half-factor's square overflows
NEAR_RANGE_SIGMA_CONFIG = readme_config(sigma=[[1.7e308, 0.0], [0.0, 1.7e308]])
# D = diag(1e308, 0.1): exp(t D), the MA coefficients of (1 - z)^{-D} and the
# gap 1 - 2 Re d of existence condition (iii) leave the double range
NEAR_RANGE_D_CONFIG = readme_config(D=[[1e308, 0.0], [0.0, 0.1]])
# theta = 1e150 Id: the existence integral's shells near 1e300 are finite,
# and the sum of their unscaled terms would not be
HUGE_SHELLS_CONFIG = readme_config(theta=[[[1e150, 0.0], [0.0, 1e150]]])
# (config, command line, the one line of stderr) of a model in range whose
# condition sum or simulated path is not
IN_RANGE_MODEL_OVERFLOWS = [
    pytest.param(config, argv, message, id=" ".join(argv) + suffix)
    for config, suffix, message, argvs in (
        (
            CONDITION_OVERFLOW_CONFIG,
            "",
            "error: existence condition (iii)'s weighted sum overflows the double range\n",
            (["check-existence"], ["simulate"]),
        ),
        (
            POWER_LAW_OVERFLOW_CONFIG,
            " power-law",
            "error: the power-law condition's weighted sum overflows the double range\n",
            (["simulate"], ["duker-verify"]),
        ),
        (
            CONVOLUTION_OVERFLOW_CONFIG,
            "",
            "error: path values must be finite\n",
            (["simulate", "--force"], ["periodogram", "--force"]),
        ),
        (
            NEAR_RANGE_SIGMA_CONFIG,
            " sigma",
            "error: spectral density overflows at frequency -3.12932\n",
            (["density"], ["autocov"]),
        ),
        (
            NEAR_RANGE_SIGMA_CONFIG,
            " sigma",
            "error: the half-factor's square overflows the double range\n",
            (["simulate"], ["periodogram"], ["check-existence"], ["existence-integral"]),
        ),
        (
            NEAR_RANGE_D_CONFIG,
            " D",
            "error: spectral density overflows at frequency -1.04311\n",
            (["density"], ["autocov"]),
        ),
        (
            NEAR_RANGE_D_CONFIG,
            " D",
            "error: the MA coefficients of (1 - z)^{-D} overflow the double range\n",
            (["frac-coeffs"], ["simulate", "--force"], ["periodogram", "--force"]),
        ),
    )
    for argv in argvs
]


def overflow_cases(
    half: list[list[str]], square: list[list[str]], weighted: list[list[str]]
) -> list:
    """``(config, argv)`` of each command line on the overflowing half-factor,
    on its overflowing square and on its square overflowing once weighted,
    the latter two's ids prefixed ``square`` and ``weighted``."""
    cases = (
        (OVERFLOW_CONFIG, "", half),
        (SQUARE_OVERFLOW_CONFIG, "square ", square),
        (WEIGHTED_OVERFLOW_CONFIG, "weighted ", weighted),
    )
    return [
        pytest.param(config, argv, id=prefix + " ".join(argv))
        for config, prefix, argvs in cases
        for argv in argvs
    ]


def run_cli_process(argv: list[str]) -> subprocess.CompletedProcess:
    """The CLI run in a fresh Python process, outside pytest's warning filters."""
    src = str(Path(fiarma_lab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fiarma_lab.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


NON_FINITE_POINTS = "config error: grid.points: all grid points must be finite\n"
HUGE = 10**400  # a 401-digit JSON integer, beyond the double range


def ar1_config(a: float, **run) -> str:
    doc = {
        "grid": {"points": [0.0], "weights": [1.0]},
        "model": {"sigma": [[1.0]], "phi": [[[a]]]},
        "run": run,
    }
    return json.dumps(doc)


def between_scan_points_unit_root() -> str:
    """AR(1) with the unit root exp(i pi/4096), midway between two circle-scan points."""
    a = np.exp(1j * np.pi / 4096)
    doc = {
        "grid": {"points": [0.0], "weights": [1.0]},
        "model": {"sigma": [[1.0]], "phi": [[[[float(a.real), float(a.imag)]]]]},
    }
    return json.dumps(doc)


class TestParseConfig:
    def test_minimal_defaults_filled(self):
        cfg = parse_config(minimal_config())
        assert cfg.grid.n == 1
        assert cfg.run.T == 1024
        assert cfg.run.K_trunc == 2048
        assert cfg.run.seed == 0
        assert isinstance(cfg.model, ArmaModel)
        assert cfg.model.is_white_noise()

    def test_complex_entries_parsed(self):
        doc = {
            "grid": {"points": [0.0, 1.0], "weights": [0.5, 0.5]},
            "model": {"sigma": [[1.0, 0.0], [0.0, 1.0]], "D": [[[0.1, 0.2], 0.0], [0.0, 0.3]]},
        }
        cfg = parse_config(json.dumps(doc))
        assert cfg.model.D.D.entries[0, 0] == 0.1 + 0.2j

    def test_non_psd_sigma_message(self):
        doc = {
            "grid": {"points": [0.0, 1.0], "weights": [0.5, 0.5]},
            "model": {"sigma": [[1.0, 0.0], [0.0, -0.1]]},
        }
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert any("Sigma not PSD (min eig -0.1" in m for m in err.value.errors)

    def test_dimension_mismatch_names_matrix(self):
        doc = {
            "grid": {"points": [0.0, 0.5, 1.0], "weights": [0.3, 0.3, 0.4]},
            "model": {
                "sigma": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "phi": [[[0.5, 0.0], [0.0, 0.5]]],
            },
        }
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert any("model.phi[0]" in m and "grid size 3" in m for m in err.value.errors)

    def test_all_defects_reported_in_one_pass(self):
        doc = {
            "grid": {"points": [0.0, 1.0], "weights": [0.5, -0.5]},  # defect 1
            "model": {
                "sigma": [[1.0, 0.0]],  # defect 2: not square
                "D": [[0.1]],  # defect 3: wrong dimension? grid invalid -> unknown
                "N": [[0.1]],  # defect 4: both D and N
            },
            "run": {"noise_kind": "bogus"},  # defect 5
        }
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert len(err.value.errors) >= 4

    def test_syntax_error_location(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"grid": }')
        assert "line 1" in err.value.errors[0]
        assert "column" in err.value.errors[0]

    def test_unknown_keys_flagged(self):
        doc = json.loads(minimal_config())
        doc["run"] = {"TT": 4}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert any("unknown key 'TT'" in m for m in err.value.errors)

    def test_non_numeric_eta_flagged(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_config(eta="x"))
        assert any(m.startswith("run.eta:") for m in err.value.errors)

    def test_unit_root_phi_flagged(self):
        doc = {
            "grid": {"points": [0.0], "weights": [1.0]},
            "model": {"sigma": [[1.0]], "phi": [[[1.0]]]},
        }
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert any("invertible" in m for m in err.value.errors)

    @pytest.mark.parametrize("points", [["a", 1.0], [[0.0], 1.0], [True, 1.0]])
    def test_non_numeric_grid_points_flagged(self, points):
        with pytest.raises(ConfigError) as err:
            parse_config(two_point_config(points))
        assert any(m.startswith("grid.points:") for m in err.value.errors)

    @pytest.mark.parametrize(
        "key",
        ["T", "burnin", "K_trunc", "seed", "replication", "n_freq", "n_refine",
         "shell_points", "K", "lags"],
    )
    def test_boolean_run_integers_flagged(self, key):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_config(**{key: True}))
        assert any(m.startswith(f"run.{key}:") for m in err.value.errors)

    @pytest.mark.parametrize(
        "key, value, low",
        [("n_freq", 0, 1), ("shell_points", 0, 1), ("n_refine", 3, 4), ("n_refine", 0, 4)],
    )
    def test_run_size_below_minimum_flagged(self, key, value, low):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_config(**{key: value}))
        assert err.value.errors == [f"run.{key}: must be at least {low}"]

    def test_negative_size_flagged_once(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_config(T=-1))
        assert err.value.errors == ["run.T: must be a nonnegative integer"]

    def test_negative_seed_accepted(self):
        assert parse_config(minimal_config(seed=-3, replication=-1)).run.seed == -3

    @pytest.mark.parametrize("key", ["seed", "replication"])
    @pytest.mark.parametrize("value", [2**64, -(2**63) - 1])
    def test_key_outside_64_bits_flagged(self, key, value):
        """Such a value would wrap onto the noise stream of another key."""
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_config(**{key: value}))
        assert any(m.startswith(f"run.{key}: must lie in") for m in err.value.errors)

    def test_key_range_ends_accepted(self):
        cfg = parse_config(minimal_config(seed=2**64 - 1, replication=-(2**63)))
        assert (cfg.run.seed, cfg.run.replication) == (2**64 - 1, -(2**63))

    def test_unit_root_between_scan_points_flagged(self):
        with pytest.raises(ConfigError) as err:
            parse_config(between_scan_points_unit_root())
        assert any(m.startswith("model.phi: not invertible") for m in err.value.errors)

    @pytest.mark.parametrize("key", ["phi", "theta"])
    def test_power_law_with_arma_part_flagged(self, key):
        """The power-law moving average has no ARMA part to take, reported in
        the same pass as the config's other defects."""
        doc = json.loads(family_config("N", **{key: [[[0.5, 0.0], [0.0, 0.5]]]}))
        doc["run"]["T"] = 0
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.errors == [
            "model.N: the power-law moving average takes no phi or theta",
            "run.T: must be at least 1",
        ]

    @pytest.mark.parametrize(
        "model, refusal",
        [
            ({"sigma": [[1.0]], "phi": [[[1.0]]]}, "model.phi: not invertible"),
            ({"sigma": [[-0.1]]}, "model.sigma: Sigma not PSD (min eig -0.1)"),
        ],
    )
    def test_model_refusal_reported_with_run_defects(self, model, refusal):
        """The model is built in the same pass as the run section is checked."""
        doc = {"grid": {"points": [0.0], "weights": [1.0]}, "model": model, "run": {"T": 0}}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert len(err.value.errors) == 2
        assert err.value.errors[0] == "run.T: must be at least 1"
        assert err.value.errors[1].startswith(refusal)

    @pytest.mark.parametrize(
        "sigma",
        [
            [[1e-6, 1e-15], [0.0, 1e-6]],
            [[1.0, 1e-11], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, -0.1]],
            [[1.0, 0.0], [0.0, -1e-11]],
            [[1e-6, 0.0], [0.0, 1e-6]],
            SIGMA_2,
        ],
    )
    def test_sigma_verdict_matches_model(self, sigma):
        """Sigma has one rule: the config refuses exactly what the model does."""
        grid = HilbertGrid([0.0, 1.0], [0.5, 0.5])
        try:
            ArmaModel(
                OperatorPolynomial(grid),
                OperatorPolynomial(grid),
                LinearOperator(np.array(sigma, dtype=complex), grid),
            )
        except NotPSDError:
            model_accepts = False
        else:
            model_accepts = True
        doc = json.dumps({"grid": GRID_2, "model": {"sigma": sigma}})
        try:
            parse_config(doc)
        except ConfigError:
            config_accepts = False
        else:
            config_accepts = True
        assert config_accepts == model_accepts

    @pytest.mark.parametrize(
        "key, value",
        [("eta", 5.0), ("eta", True), ("format", "xlsx"), ("n_refine", 3), ("lags", -1), ("T", 0)],
    )
    def test_run_config_applies_the_config_rules(self, key, value):
        """RunConfig built in Python refuses what the config refuses, with the
        same message less the section prefix."""
        with pytest.raises(ValueError) as built:
            RunConfig(**{key: value})
        with pytest.raises(ConfigError) as parsed:
            parse_config(minimal_config(**{key: value}))
        assert str(built.value).startswith(f"{key}: ")
        assert parsed.value.errors == [f"run.{built.value}"]

    @pytest.mark.parametrize(
        "eta, n_refine, limit",
        [(1, 1023, 1022), (0.75, 1022, 1021), (3.0, HUGE, 1023)],
        ids=["integer-eta", "fractional-eta", "401-digits"],
    )
    def test_shells_below_normal_doubles_flagged(self, eta, n_refine, limit):
        """The innermost shell edge ``eta 2**-n_refine`` must be a normal
        double; a 401-digit ``n_refine`` is refused by the same rule."""
        message = (
            f"n_refine: must be at most {limit} for eta = {eta}, so that the innermost "
            "shell edge eta 2**-n_refine stays a normal double"
        )
        with pytest.raises(ConfigError) as parsed:
            parse_config(minimal_config(eta=eta, n_refine=n_refine))
        assert parsed.value.errors == [f"run.{message}"]
        with pytest.raises(ValueError) as built:
            RunConfig(eta=eta, n_refine=n_refine)
        assert str(built.value) == message
        parse_config(minimal_config(eta=eta, n_refine=limit))

    def test_resolved_round_trip(self):
        cfg = parse_config(fractional_config(0.3, T=64, seed=9))
        again = parse_config(json.dumps(cfg.resolved()))
        assert again.run.seed == 9
        assert np.array_equal(again.model.D.D.entries, cfg.model.D.D.entries)


class TestPathFiles:
    def _path(self, rng, t_len=17, n=3):
        g = make_grid(n)
        vals = rng.normal(size=(t_len, n)) + 1j * rng.normal(size=(t_len, n))
        return SampledPath(vals, g)

    def test_binary_round_trip_bit_exact(self, rng, tmp_path):
        path = self._path(rng)
        target = tmp_path / "p.bin"
        write_path(path, target)
        back = read_path(target, path.grid)
        assert np.array_equal(back.values, path.values)

    def test_csv_round_trip_value_exact(self, rng, tmp_path):
        path = self._path(rng)
        target = tmp_path / "p.csv"
        write_path(path, target)
        back = read_path(target, path.grid)
        assert np.array_equal(back.values, path.values)  # 17 sig digits round-trip

    def test_csv_header_shape(self, rng, tmp_path):
        path = self._path(rng, t_len=2, n=2)
        target = tmp_path / "p.csv"
        write_path(path, target)
        header = target.read_text().splitlines()[0]
        assert header == "t,coord_1_re,coord_1_im,coord_2_re,coord_2_im"

    def test_empty_csv_rejected(self, tmp_path):
        target = tmp_path / "e.csv"
        target.write_text("t,coord_1_re,coord_1_im\n")
        with pytest.raises(PathFormatError, match="empty path"):
            read_path(target)

    def test_csv_without_coordinates_rejected(self, tmp_path):
        target = tmp_path / "t.csv"
        target.write_text("t\n0\n1\n")
        with pytest.raises(PathFormatError, match="no coordinates"):
            read_path(target)

    def test_binary_without_coordinates_rejected(self, tmp_path):
        target = tmp_path / "z.bin"
        target.write_bytes(b"FIAR" + struct.pack("<HIQ", 1, 0, 3))
        with pytest.raises(PathFormatError, match="no coordinates"):
            read_path(target)

    @pytest.mark.parametrize("suffix", ["csv", "bin"])
    def test_grid_of_another_size_rejected(self, rng, tmp_path, suffix):
        target = tmp_path / f"p.{suffix}"
        write_path(self._path(rng, n=3), target)
        with pytest.raises(PathFormatError, match="file holds 3 coordinates, the grid has 2"):
            read_path(target, make_grid(2))

    def test_truncated_binary_rejected(self, rng, tmp_path):
        path = self._path(rng)
        target = tmp_path / "p.bin"
        write_path(path, target)
        raw = target.read_bytes()
        target.write_bytes(raw[:-8])
        with pytest.raises(PathFormatError, match="truncated"):
            read_path(target)

    def test_bad_version_rejected(self, rng, tmp_path):
        path = self._path(rng, t_len=1, n=1)
        target = tmp_path / "p.bin"
        write_path(path, target)
        raw = bytearray(target.read_bytes())
        raw[4] = 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(PathFormatError, match="version"):
            read_path(target)

    def test_non_numeric_csv_cell_rejected(self, tmp_path):
        target = tmp_path / "p.csv"
        target.write_text("t,coord_1_re,coord_1_im\n0,1.0,0.0\n1,abc,0.0\n")
        with pytest.raises(PathFormatError, match="row 1: .*'abc'"):
            read_path(target)

    @pytest.mark.parametrize("stamps", [("5", "5"), ("0", "0"), ("0", "2"), ("0", "1.5")])
    def test_csv_t_column_must_count_rows(self, tmp_path, stamps):
        target = tmp_path / "p.csv"
        rows = "".join(f"{s},1.0,0.0\n" for s in stamps)
        target.write_text("t,coord_1_re,coord_1_im\n" + rows)
        with pytest.raises(PathFormatError, match="row [01]: "):
            read_path(target)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_csv_value_names_its_row(self, tmp_path, cell):
        target = tmp_path / "p.csv"
        target.write_text(f"t,coord_1_re,coord_1_im\n0,1.0,0.0\n1,0.5,{cell}\n2,{cell},0.0\n")
        with pytest.raises(PathFormatError, match="row 1: value not finite"):
            read_path(target)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_binary_value_names_its_row(self, rng, tmp_path, bad):
        path = self._path(rng, t_len=5, n=2)
        target = tmp_path / "p.bin"
        write_path(path, target)
        raw = bytearray(target.read_bytes())
        offset = len(raw) - 5 * 2 * 16 + (3 * 2 + 1) * 16 + 8  # row 3, coordinate 2, imaginary part
        raw[offset : offset + 8] = np.float64(bad).tobytes()
        target.write_bytes(bytes(raw))
        with pytest.raises(PathFormatError, match="row 3: value not finite"):
            read_path(target)

    def test_format_is_sniffed_not_suffixed(self, rng, tmp_path):
        path = self._path(rng, t_len=3, n=1)
        target = tmp_path / "weird.dat"
        write_path(path, target, fmt="bin")
        back = read_path(target, path.grid)
        assert np.array_equal(back.values, path.values)


class TestCsvTables:
    """The one-operation table writer against ``format(x, ".17g")`` per cell."""

    @staticmethod
    def per_cell(header, cells, index=None):
        lines = [",".join(header)]
        for i, row in enumerate(cells):
            lead = [str(int(index[i]))] if index is not None else []
            lines.append(",".join(lead + [format(float(x), ".17g") for x in row]))
        return ("\n".join(lines) + "\n").encode()

    def test_matches_per_cell_formatter(self, rng):
        cells = rng.normal(size=(37, 5)) * 10.0 ** rng.integers(-300, 300, size=(37, 5))
        cells[0, :] = [-0.0, 0.0, 5e-324, -1e16, 0.1]
        cells[1, :] = [np.inf, -np.inf, np.nan, 1.0 / 3.0, -2.0**60]
        header = ["k"] + [f"c{j}" for j in range(5)]
        index = np.arange(-18, 19)
        assert _table_bytes(header, cells, index) == self.per_cell(header, cells, index)
        assert _table_bytes(header[1:], cells) == self.per_cell(header[1:], cells)
        assert _table_bytes(header, cells[:0], index[:0]) == self.per_cell(header, cells[:0])

    def test_chunked_rows_match_per_cell_formatter(self, rng, monkeypatch):
        """Rows split over many ``%`` operations, the last one partial."""
        monkeypatch.setattr(fiarma_lab.dataio, "_TABLE_CHUNK_CELLS", 12)
        cells = rng.normal(size=(37, 5))
        header = ["k"] + [f"c{j}" for j in range(5)]
        index = np.arange(37)
        assert _table_bytes(header, cells, index) == self.per_cell(header, cells, index)
        assert _table_bytes(header[1:], cells) == self.per_cell(header[1:], cells)

    def test_path_csv_matches_per_cell_formatter(self, rng, tmp_path):
        vals = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
        vals[0] = [-0.0 + 0.0j, complex(0.0, -0.0)]
        target = tmp_path / "p.csv"
        write_path(SampledPath(vals, make_grid(2)), target, fmt="csv")
        header = ["t", "coord_1_re", "coord_1_im", "coord_2_re", "coord_2_im"]
        cells = np.stack([vals.real, vals.imag], axis=-1).reshape(40, 4)
        assert target.read_bytes() == self.per_cell(header, cells, np.arange(40))


class TestCli:
    def _write(self, tmp_path, text, name="cfg.json"):
        f = tmp_path / name
        f.write_text(text)
        return f

    def test_check_existence_holds(self, tmp_path):
        cfg = self._write(tmp_path, fractional_config(0.3))
        out = tmp_path / "out"
        assert main(["check-existence", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "existence.json").read_text())
        assert report["verdict"] == "holds"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["existence.json"]

    def test_simulate_refusal_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, fractional_config(0.6, T=32))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "(ii)" in capsys.readouterr().err

    def test_simulate_force_flag(self, tmp_path):
        cfg = self._write(tmp_path, fractional_config(0.6, T=32))
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out), "--force"])
        assert code == 0
        assert (out / "path.csv").exists()

    @pytest.mark.parametrize("fmt", fiarma_lab.dataio.PATH_FORMATS)
    def test_simulate_writes_each_path_format(self, tmp_path, fmt):
        cfg = self._write(tmp_path, minimal_config(T=8, format=fmt))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["outputs"] == [f"path.{fmt}"]
        assert read_path(out / f"path.{fmt}").t_len == 8

    def test_write_path_refuses_an_unknown_format(self, rng, tmp_path):
        path = SampledPath(rng.normal(size=(4, 1)), make_grid(1))
        with pytest.raises(ValueError, match="^unknown path format 'xlsx'$"):
            write_path(path, tmp_path / "p.xlsx", fmt="xlsx")
        assert not list(tmp_path.iterdir())

    def test_vacuous_high_memory_simulates(self, tmp_path):
        cfg = self._write(tmp_path, fractional_config(0.75, theta=-1.0, T=32))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0

    def test_frac_coeffs_values(self, tmp_path):
        cfg = self._write(tmp_path, fractional_config(0.3, K=2))
        out = tmp_path / "out"
        assert main(["frac-coeffs", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "frac_coeffs.csv").read_text().splitlines()
        assert lines[0].split(",")[:2] == ["k", "m_1_1_re"]
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert values == pytest.approx([1.0, 0.3, 0.195])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["density"], "the following arguments are required: --config"),
            (["densty", "--config", "cfg.json"], "invalid choice: 'densty'"),
            ([], "the following arguments are required: subcommand, --config"),
        ],
    )
    def test_usage_errors_exit_one(self, capsys, argv, message):
        """Exit code 2 is kept for refusals, so a bad command line exits 1."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: fiarma-lab") and message in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "duker-verify" in out and "--config" in out

    def test_config_errors_exit_one(self, tmp_path, capsys):
        cfg = self._write(tmp_path, '{"grid": {"points": [0.0]}}')
        assert main(["density", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, prefix",
        [
            (two_point_config(["a", 1.0]), "config error: grid.points:"),
            (two_point_config([[0.0], 1.0]), "config error: grid.points:"),
            (
                json.dumps({"grid": {"points": [0.0], "weights": [float("nan")]}, "model": {}}),
                "config error: grid.weights: all grid weights must be strictly positive",
            ),
            (two_point_config([0.0, float("nan")]), NON_FINITE_POINTS),
            (two_point_config([float("inf"), 1.0]), NON_FINITE_POINTS),
            (
                json.dumps({"grid": {"points": [0.0], "weights": [float("inf")]}, "model": {}}),
                "config error: grid.weights: all grid weights must be finite",
            ),
            (minimal_config(T=True), "config error: run.T:"),
            (minimal_config(burnin=False), "config error: run.burnin:"),
            (between_scan_points_unit_root(), "config error: model.phi: not invertible"),
            (minimal_config(seed=2**64), "config error: run.seed: must lie in"),
            (minimal_config(seed=-(2**63) - 1), "config error: run.seed: must lie in"),
            (minimal_config(replication=2**64), "config error: run.replication: must lie in"),
            (
                json.dumps({"grid": GRID_2, "model": {"sigma": [[1e-6, 1e-15], [0.0, 1e-6]]}}),
                "config error: model.sigma: not Hermitian",
            ),
            (
                family_config("N", phi=[[[0.5, 0.0], [0.0, 0.5]]]),
                "config error: model.N: the power-law moving average takes no phi or theta",
            ),
            # integers beyond the double range, like 1e400 read as a float
            (two_point_config([HUGE, 1.0]), NON_FINITE_POINTS),
            (
                json.dumps({"grid": {"points": [0.0], "weights": [HUGE]}, "model": {}}),
                "config error: grid.weights: all grid weights must be finite",
            ),
            (
                json.dumps({"grid": GRID_2, "model": {"sigma": [[HUGE, 0.0], [0.0, 1.0]]}}),
                "config error: model.sigma: entries must be finite",
            ),
            (
                json.dumps({"grid": GRID_2, "model": {"sigma": [[1.0, [0.0, -HUGE]], [0, 1]]}}),
                "config error: model.sigma: entries must be finite",
            ),
        ],
    )
    def test_invalid_config_exits_one_with_prefix(self, tmp_path, capsys, text, prefix):
        cfg = self._write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(prefix)
        assert not (out / "manifest.json").exists()

    def test_huge_run_length_exits_one(self, tmp_path):
        """A 401-digit ``run.T`` passes the config rules; simulating it fails
        within seconds with a one-line error, in a fresh process whose hang
        the timeout would catch."""
        cfg = self._write(tmp_path, fractional_config(0.3, T=HUGE))
        out = tmp_path / "o"
        src = str(Path(fiarma_lab.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "fiarma_lab.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("key, other", [("theta", {}), ("phi", {"phi": []})])
    def test_explicit_zero_matrix_configures_the_same_path(self, tmp_path, key, other):
        """A zero coefficient matrix after the last nonzero one does not count
        toward the degree: the README example with a zero ``theta``, and its
        white base with a zero ``phi``, simulate the paths of the configs
        without them."""
        paths = []
        for name, model in (("omitted", other), ("zero", other | {key: [ZERO_2]})):
            cfg = self._write(tmp_path, readme_config(**model), f"{name}.json")
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            paths.append((out / "path.csv").read_bytes())
        assert paths[0] == paths[1]

    @pytest.mark.parametrize(
        "config, argv",
        overflow_cases(
            [
                ["density"],
                ["autocov"],
                ["check-existence"],
                ["existence-integral"],
                ["simulate"],
                ["simulate", "--force"],
            ],
            [
                ["density"],
                ["autocov"],
                ["check-existence"],
                ["existence-integral"],
                ["simulate"],
                ["periodogram", "--force"],
            ],
            [
                ["density"],
                ["autocov"],
                ["check-existence"],
                ["existence-integral"],
                ["simulate"],
                ["periodogram"],
            ],
        ),
    )
    def test_overflow_is_a_one_line_error(self, tmp_path, capsys, config, argv):
        """Every route to the overflowing base, or to a square of it beyond the
        double range, names an overflow in one line and reports no verdict.
        pytest raises an overflow warning, so none may occur on the way."""
        cfg = self._write(tmp_path, config)
        out = tmp_path / "o"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflows" in err and len(err.splitlines()) == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "config, argv",
        overflow_cases(
            [["density"], ["simulate", "--force"]],
            [["density"], ["check-existence"], ["periodogram", "--force"]],
            [["density"], ["check-existence"], ["simulate"]],
        ),
    )
    def test_overflow_is_one_line_in_a_fresh_process(self, tmp_path, config, argv):
        """Outside pytest a warning prints to stderr with its source line, so
        the one-line error holds only if none is raised."""
        cfg = self._write(tmp_path, config)
        out = tmp_path / "o"
        proc = run_cli_process([*argv, "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
        assert "overflows" in proc.stderr and "Warning" not in proc.stderr

    def test_finite_path_of_an_overflowing_square_is_written(self, tmp_path, capsys):
        """A forced simulation of the base whose square overflows draws a path
        whose values are finite, and writes it."""
        cfg = self._write(tmp_path, SQUARE_OVERFLOW_CONFIG)
        out = tmp_path / "o"
        assert main(["simulate", "--force", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        values = np.loadtxt(out / "path.csv", delimiter=",", skiprows=1)
        assert np.isfinite(values).all() and np.abs(values).max() > 1e199

    @pytest.mark.parametrize("config, argv, message", IN_RANGE_MODEL_OVERFLOWS)
    def test_in_range_model_overflow_is_one_line(self, tmp_path, capsys, config, argv, message):
        """A sum or a path beyond the double range is one error line and no
        verdict; pytest raises an overflow warning, so none may occur."""
        cfg = self._write(tmp_path, config)
        out = tmp_path / "o"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("config, argv, message", IN_RANGE_MODEL_OVERFLOWS)
    def test_in_range_model_overflow_is_one_line_in_a_fresh_process(
        self, tmp_path, config, argv, message
    ):
        cfg = self._write(tmp_path, config)
        out = tmp_path / "o"
        proc = run_cli_process([*argv, "--config", str(cfg), "--out", str(out)])
        assert (proc.returncode, proc.stderr) == (1, message)

    @pytest.mark.parametrize(
        "config, argv, code, err",
        [
            (NEAR_RANGE_SIGMA_CONFIG, ["frac-coeffs"], 0, ""),
            (NEAR_RANGE_SIGMA_CONFIG, ["simulate", "--force"], 0, ""),
            (NEAR_RANGE_D_CONFIG, ["check-existence"], 0, ""),
            (NEAR_RANGE_D_CONFIG, ["existence-integral"], 0, ""),
            *[
                (NEAR_RANGE_D_CONFIG, [sub], 2, "refused: existence condition (ii) fails")
                for sub in ("simulate", "periodogram")
            ],
        ],
        ids=["sigma frac-coeffs", "sigma simulate --force", *(
            f"D {sub}" for sub in ("check-existence", "existence-integral", "simulate",
                                   "periodogram")
        )],
    )
    def test_near_range_model_runs_without_a_warning(self, tmp_path, config, argv, code, err):
        """Sigma = 1.7e308 Id and D = diag(1e308, 0.1) in a fresh process:
        a verdict or an output without NaN, and at most the one refusal line."""
        cfg = self._write(tmp_path, config)
        out = tmp_path / "o"
        proc = run_cli_process([*argv, "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == code
        assert proc.stderr.startswith(err) and len(proc.stderr.splitlines()) == (code == 2)
        for table in out.glob("*.csv"):  # a divergent shell is inf, as it is
            assert not np.isnan(np.loadtxt(table, delimiter=",", skiprows=1)).any(), table.name
        if argv == ["check-existence"]:
            assert json.loads((out / "existence.json").read_text())["verdict"] == "fails"
        if argv == ["existence-integral"]:
            assert json.loads((out / "existence_integral.json").read_text())["diverges"] is True

    @pytest.mark.parametrize("exponent", [200.0, 1e7])
    def test_power_law_exponent_far_above_one_half(self, tmp_path, exponent):
        """N = diag(200, 0.9) has its matching constant's eigenvalue at the
        pole 1/Gamma(-199) = 0, and 1e7 lies far beyond it: both decompose in
        a fresh process, with no warning."""
        cfg = self._write(tmp_path, family_config("N", N=[[exponent, 0.0], [0.0, 0.9]]))
        for sub in ("duker-decompose", "duker-verify"):
            out = tmp_path / sub
            proc = run_cli_process([sub, "--config", str(cfg), "--out", str(out)])
            assert (proc.returncode, proc.stderr) == (0, "")
        c_mat = np.loadtxt(tmp_path / "duker-decompose" / "duker_C.csv", delimiter=",", skiprows=1)
        assert c_mat[0] == 0.0 and c_mat[1:].any()  # m_1_1_re, the entry of the exponent
        report = json.loads((tmp_path / "duker-verify" / "duker_verify.json").read_text())
        assert all(np.isfinite(v) for v in report.values())

    @pytest.mark.parametrize("sub", ["duker-decompose", "duker-verify"])
    def test_power_law_exponent_at_the_double_range(self, tmp_path, sub):
        """N = diag(1e308, 0.9), where z + 1 == z: one error line, well within
        the fresh process's timeout."""
        cfg = self._write(tmp_path, family_config("N", N=[[1e308, 0.0], [0.0, 0.9]]))
        proc = run_cli_process([sub, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert (proc.returncode, proc.stderr) == (
            1,
            "error: the binomial coefficients of (1 - z)^{N - Id} overflow the double range\n",
        )

    @pytest.mark.parametrize(
        "sub, name",
        [("existence-integral", "existence_integral"), ("check-existence", "existence")],
    )
    def test_huge_shells_keep_a_finite_integral(self, tmp_path, sub, name):
        """theta = 1e150 Id: the integral converges to about 2e300, with no
        warning in a fresh process."""
        cfg = self._write(tmp_path, HUGE_SHELLS_CONFIG)
        out = tmp_path / "o"
        proc = run_cli_process([sub, "--config", str(cfg), "--out", str(out)])
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads((out / f"{name}.json").read_text())
        integral = report.get("i_eta", report)
        assert integral["diverges"] is False
        assert 1e300 < integral["value"] < 1e301

    @pytest.mark.parametrize("sub", sorted(RUNNERS))
    @pytest.mark.parametrize("key, value", [("n_freq", 0), ("shell_points", 0), ("n_refine", 2)])
    def test_run_size_below_minimum_exits_one(self, tmp_path, capsys, sub, key, value):
        """Every subcommand refuses the config before it runs, whether or not
        it reads the value."""
        cfg = self._write(tmp_path, fractional_config(0.3, **{key: value}))
        out = tmp_path / "o"
        assert main([sub, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: run.{key}: must be at least")
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("family", sorted(FAMILY_MODELS))
    @pytest.mark.parametrize("sub", sorted(RUNNERS))
    def test_family_matrix(self, tmp_path, capsys, sub, family):
        """Every subcommand runs on the families it takes and refuses the
        rest with one line: the key it requires, or the key it does not take."""
        cfg = self._write(tmp_path, family_config(family))
        out = tmp_path / "o"
        code = main([sub, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        if family in TAKES[sub]:
            assert (code, err) == (0, "")
            assert (out / "manifest.json").exists()
            return
        if len(TAKES[sub]) == 1:
            message = f"error: model.{TAKES[sub][0]} is required by this subcommand\n"
        else:
            message = f"error: model.{family} is not taken by this subcommand\n"
        assert (code, err) == (1, message)
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("sub", ["simulate", "periodogram"])
    def test_non_causal_ar_is_a_one_line_error(self, tmp_path, capsys, sub):
        cfg = self._write(tmp_path, ar1_config(2.0, T=32))
        out = tmp_path / "o"
        assert main([sub, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: AR polynomial not causal")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (out / "manifest.json").exists()
        assert main(["density", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0

    def test_out_of_memory_is_a_one_line_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg, force):
            raise MemoryError("Unable to allocate 20.0 GiB for an array")

        monkeypatch.setitem(RUNNERS, "density", (exhausted, RUNNERS["density"][1]))
        cfg = self._write(tmp_path, minimal_config(T=16))
        out = tmp_path / "o"
        assert main(["density", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 20.0 GiB for an array\n"
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._write(tmp_path, minimal_config(T=16))
        out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
        main(["simulate", "--config", str(cfg), "--out", str(out3), "--seed", "99"])
        a = (out1 / "path.csv").read_bytes()
        b = (out2 / "path.csv").read_bytes()
        c = (out3 / "path.csv").read_bytes()
        assert a != b and b == c

    @pytest.mark.parametrize("seed", [2**64, -(2**63) - 1])
    def test_seed_override_outside_64_bits_exits_one(self, tmp_path, capsys, seed):
        """--seed is set on a parsed config, so the config check never sees it."""
        cfg = self._write(tmp_path, minimal_config(T=16))
        out = tmp_path / "o"
        args = ["simulate", "--config", str(cfg), "--out", str(out), "--seed", str(seed)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("config error: --seed: must lie in")
        assert not (out / "manifest.json").exists()

    def test_density_autocov_periodogram_run(self, tmp_path):
        cfg = self._write(
            tmp_path, fractional_config(0.3, T=64, n_freq=128, lags=2)
        )
        for sub in ("density", "autocov", "periodogram"):
            out = tmp_path / sub
            assert main([sub, "--config", str(cfg), "--out", str(out)]) == 0
        dens_lines = (tmp_path / "density" / "density.csv").read_text().splitlines()
        assert len(dens_lines) == 129

    def test_periodogram_of_one_row_is_header_only(self, tmp_path):
        """T=1 has no nonzero Fourier frequency: an empty table, not an error."""
        cfg = self._write(tmp_path, fractional_config(0.3, T=1))
        out = tmp_path / "out"
        assert main(["periodogram", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "periodogram.csv").read_text().splitlines()
        assert lines == ["lambda,m_1_1_re,m_1_1_im"]

    def test_duker_subcommands(self, tmp_path):
        doc = {
            "grid": {"points": [0.0, 1.0], "weights": [0.5, 0.5]},
            "model": {"sigma": [[1.0, 0.0], [0.0, 1.0]], "N": [[0.7, 0.0], [0.0, 0.8]]},
            "run": {"T": 128, "K_trunc": 64, "K": 32},
        }
        cfg = self._write(tmp_path, json.dumps(doc))
        out = tmp_path / "dd"
        assert main(["duker-decompose", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "duker_deltas.csv").exists()
        meta = json.loads((out / "duker_decompose.json").read_text())
        assert meta["rho"] == pytest.approx(0.7)
        out2 = tmp_path / "dv"
        assert main(["duker-verify", "--config", str(cfg), "--out", str(out2)]) == 0
        report = json.loads((out2 / "duker_verify.json").read_text())
        assert report["residual"] < 1e-8

    def test_duker_verify_force_bypasses_a_failing_exponent(self, tmp_path, capsys):
        doc = {
            "grid": {"points": [0.0, 1.0], "weights": [0.5, 0.5]},
            "model": {"sigma": [[1.0, 0.0], [0.0, 1.0]], "N": [[0.3, 0.0], [0.0, 0.8]]},
            "run": {"T": 128, "K_trunc": 64},
        }
        cfg = self._write(tmp_path, json.dumps(doc))
        args = ["duker-verify", "--config", str(cfg), "--out"]
        assert main([*args, str(tmp_path / "refused")]) == 2
        assert capsys.readouterr().err.startswith("refused: power-law moving average")
        out = tmp_path / "forced"
        assert main([*args, str(out), "--force"]) == 0
        assert json.loads((out / "duker_verify.json").read_text())["residual"] < 1e-12
        assert json.loads((out / "manifest.json").read_text())["force"] is True

    def test_frameless_power_exponent_simulates_forced(self, tmp_path):
        doc = {
            "grid": {"points": [0.0, 1.0], "weights": [0.5, 0.5]},
            "model": {"sigma": [[1.0, 0.0], [0.0, 1.0]], "N": [[0.3, 1e-7], [0.0, 0.3]]},
            "run": {"T": 16, "K_trunc": 8},
        }
        cfg = self._write(tmp_path, json.dumps(doc))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--force"]) == 0
        assert len((out / "path.csv").read_text().splitlines()) == 17

    @pytest.mark.parametrize("sub", ["simulate", "duker-decompose", "duker-verify"])
    def test_frameless_power_exponent_is_an_error(self, tmp_path, capsys, sub):
        doc = {
            "grid": {"points": [0.0, 1.0], "weights": [0.5, 0.5]},
            "model": {"sigma": [[1.0, 0.0], [0.0, 1.0]], "N": [[0.3, 1e-7], [0.0, 0.3]]},
            "run": {"T": 16, "K_trunc": 8, "K": 8},
        }
        cfg = self._write(tmp_path, json.dumps(doc))
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: operator not normal")

    def test_existence_integral_outputs(self, tmp_path):
        cfg = self._write(tmp_path, fractional_config(0.5, n_refine=20))
        out = tmp_path / "out"
        assert main(["existence-integral", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "existence_integral.json").read_text())
        assert report["diverges"] is True
        shells = (out / "shells.csv").read_text().splitlines()
        assert len(shells) == 21

    def test_overflowing_existence_integral_diverges(self, tmp_path):
        """With ``D = diag(30, 0.1)`` the shells pass the double range: the
        integral is inf and divergent, beside the verdict ``fails``."""
        doc = {
            "grid": {"points": [0.0, 1.0], "weights": [0.5, 0.5]},
            "model": {
                "phi": [[[0.3, 0.0], [0.0, 0.2]]],
                "sigma": [[1.0, 0.0], [0.0, 1.0]],
                "D": [[30.0, 0.0], [0.0, 0.1]],
            },
        }
        cfg = self._write(tmp_path, json.dumps(doc))
        for sub, name in (("existence-integral", "existence_integral"), ("check-existence", "existence")):
            out = tmp_path / sub
            assert main([sub, "--config", str(cfg), "--out", str(out)]) == 0
            report = json.loads((out / f"{name}.json").read_text())
            integral = report.get("i_eta", report)
            assert integral["diverges"] is True and integral["tail_estimate"] == 0.0
            assert integral["value"] == float("inf")
        assert report["verdict"] == "fails"

    def test_too_deep_shells_exit_one(self, tmp_path, capsys):
        cfg = self._write(tmp_path, fractional_config(0.3, n_refine=1100))
        out = tmp_path / "o"
        assert main(["existence-integral", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: run.n_refine: must be at most 1022")
        assert not (out / "manifest.json").exists()

    def test_output_directory_that_is_a_file_exits_one(self, tmp_path, capsys):
        cfg = self._write(tmp_path, fractional_config(0.3))
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["density", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory: ")
        assert len(err.splitlines()) == 1 and out.read_text() == ""

    @pytest.mark.parametrize("name", ["density.csv", "manifest.json"])
    def test_output_file_that_is_a_directory_exits_one(self, tmp_path, capsys, name):
        cfg = self._write(tmp_path, fractional_config(0.3))
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert main(["density", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and name in err
        assert len(err.splitlines()) == 1
        assert (out / name).is_dir() and not (out / "manifest.json").is_file()

    @pytest.mark.parametrize("name", ["density.csv", "manifest.json"])
    def test_output_file_that_is_a_directory_is_named_alone(self, tmp_path, capsys, name):
        """The error names the output file, never the temporary file written
        beside it, so two runs print the same line and leave nothing behind."""
        cfg = self._write(tmp_path, fractional_config(0.3))
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        errs = []
        for _ in range(2):
            assert main(["density", "--config", str(cfg), "--out", str(out)]) == 1
            errs.append(capsys.readouterr().err)
        line = f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(out / name)!r}\n"
        assert errs == [line, line]
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_manifest_regenerates_outputs_bit_identically(self, tmp_path):
        cfg = self._write(tmp_path, fractional_config(0.3, T=32, seed=5))
        out1 = tmp_path / "r1"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        replay_cfg = self._write(
            tmp_path, json.dumps(manifest["resolved_config"]), name="replay.json"
        )
        out2 = tmp_path / "r2"
        args = [manifest["subcommand"], "--config", str(replay_cfg), "--out", str(out2)]
        args += ["--seed", str(manifest["seed"])]
        if manifest["force"]:
            args.append("--force")
        assert main(args) == 0
        for name in manifest["outputs"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
