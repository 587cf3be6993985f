import json

import numpy as np
import pytest

from fiarma_lab import (
    ConfigError,
    HilbertGrid,
    PathFormatError,
    SampledPath,
    parse_config,
    read_path,
    write_path,
)
from fiarma_lab.cli import main

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


class TestParseConfig:
    def test_minimal_defaults_filled(self):
        cfg = parse_config(minimal_config())
        assert cfg.grid.n == 1
        assert cfg.run.T == 1024
        assert cfg.run.K_trunc == 2048
        assert cfg.run.seed == 0
        assert cfg.memory is None and cfg.power_exponent is None
        assert cfg.arma_model().is_white_noise()

    def test_complex_entries_parsed(self):
        doc = {
            "grid": {"points": [0.0, 1.0], "weights": [0.5, 0.5]},
            "model": {"sigma": [[1.0, 0.0], [0.0, 1.0]], "D": [[[0.1, 0.2], 0.0], [0.0, 0.3]]},
        }
        cfg = parse_config(json.dumps(doc))
        assert cfg.memory.entries[0, 0] == 0.1 + 0.2j

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

    def test_resolved_round_trip(self):
        cfg = parse_config(fractional_config(0.3, T=64, seed=9))
        again = parse_config(json.dumps(cfg.resolved()))
        assert again.run.seed == 9
        assert np.array_equal(again.memory.entries, cfg.memory.entries)


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

    def test_format_is_sniffed_not_suffixed(self, rng, tmp_path):
        path = self._path(rng, t_len=3, n=1)
        target = tmp_path / "weird.dat"
        write_path(path, target, fmt="bin")
        back = read_path(target, path.grid)
        assert np.array_equal(back.values, path.values)


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

    def test_config_errors_exit_one(self, tmp_path, capsys):
        cfg = self._write(tmp_path, '{"grid": {"points": [0.0]}}')
        assert main(["density", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

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

    def test_density_autocov_periodogram_run(self, tmp_path):
        cfg = self._write(
            tmp_path, fractional_config(0.3, T=64, n_freq=128, lags=2)
        )
        for sub in ("density", "autocov", "periodogram"):
            out = tmp_path / sub
            assert main([sub, "--config", str(cfg), "--out", str(out)]) == 0
        dens_lines = (tmp_path / "density" / "density.csv").read_text().splitlines()
        assert len(dens_lines) == 129

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
