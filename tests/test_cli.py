import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import cvpbt
from cvpbt import bounds, oracle, two_port
from cvpbt.cli import EXIT_BUDGET, EXIT_OK, EXIT_TOLERANCE, EXIT_VALIDATION, main, read_table, result_table_schema


def run(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    return code, out


SWEEP_RANGES = ["--lambda-x-range", "0.3:0.4:2", "--lambda-y-range", "0.5:0.5:1"]


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("# timestamp=") and '"timestamp"' not in line
    )


class TestTwoPortCoherent:
    def test_vacuum_table(self, tmp_path):
        code, out = run(
            tmp_path,
            "twoport-coherent",
            "--lambda-x", "0.5",
            "--lambda-y", "0.5",
            "--alpha", "0",
            "--cutoff", "20",
        )
        assert code == EXIT_OK
        table = read_table(str(out))
        assert table.metadata["trace"] == pytest.approx(1.0, abs=1e-9)
        assert table.metadata["regime"] == "positive"
        assert table.metadata["trace_norm_vs_vacuum"] == pytest.approx(0.21488, abs=1e-3)
        # diagonal output: every off-diagonal row is zero
        for row, col, real, imag in table.rows:
            if row != col:
                assert real == 0 and imag == 0

    def test_formats_round_trip(self, tmp_path):
        _, csv_out = run(
            tmp_path, "twoport-coherent", "--lambda-x", "0.4", "--lambda-y", "0.6",
            "--alpha", "0.3+0.2j", "--cutoff", "12",
        )
        _, json_out = run(
            tmp_path, "twoport-coherent", "--lambda-x", "0.4", "--lambda-y", "0.6",
            "--alpha", "0.3+0.2j", "--cutoff", "12", "--format", "json", name="out.json",
        )
        a, b = read_table(str(csv_out)), read_table(str(json_out))
        assert a.columns == b.columns
        assert np.allclose(np.array(a.rows, float), np.array(b.rows, float), atol=0)

    def test_validation_error(self, tmp_path):
        code, _ = run(tmp_path, "twoport-coherent", "--lambda-x", "1.5", "--lambda-y", "0.5")
        assert code == EXIT_VALIDATION

    def test_overflowing_amplitude_is_validation_error(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "twoport-coherent", "--lambda-x", "0.5", "--lambda-y", "0.5", "--alpha", "1e200", "--cutoff", "5",
        )
        assert code == EXIT_VALIDATION
        assert not out.exists()
        err = capsys.readouterr().err
        assert "overflows" in err and "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["inf", "1+infj", "nan"])
    def test_non_finite_amplitude_is_validation_error(self, tmp_path, capsys, alpha):
        # refused before numpy meets it, so no warning escapes under -W error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(
                tmp_path, "twoport-coherent", "--lambda-x", "0.5", "--lambda-y", "0.5", "--alpha", alpha, "--cutoff", "5",
            )
        assert code == EXIT_VALIDATION
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: amplitude {complex(alpha)!r} is not finite")


class TestEnergy:
    def test_zero_resource_row(self, tmp_path):
        code, out = run(
            tmp_path, "energy", "--lambda-x-range", "0:0:1", "--lambda-y-range", "0.2:0.8:4",
        )
        assert code == EXIT_OK
        table = read_table(str(out))
        assert all(row[2] == 0 for row in table.rows)

    def test_monotone_in_resource(self, tmp_path):
        code, out = run(
            tmp_path, "energy", "--lambda-x-range", "0.1:0.7:7", "--lambda-y-range", "0.5:0.5:1",
        )
        table = read_table(str(out))
        vals = [row[2] for row in table.rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("tol", ["0", "-1e-12", "nan"])
    def test_bad_tolerance_is_validation_error(self, tmp_path, tol):
        code, _ = run(
            tmp_path, "energy", "--lambda-x-range", "0.5:0.5:1", "--lambda-y-range", "0.5:0.5:1", "--tol", tol,
        )
        assert code == EXIT_VALIDATION

    def test_matches_module(self, tmp_path):
        _, out = run(tmp_path, "energy", "--lambda-x-range", "0.5:0.5:1", "--lambda-y-range", "0.5:0.5:1")
        table = read_table(str(out))
        expected = two_port.max_output_energy(two_port.ChannelParams(0.5, 0.5))
        assert table.rows[0][2] == pytest.approx(expected, abs=1e-12)


class TestBounds:
    def test_lossy_positive(self, tmp_path):
        code, out = run(
            tmp_path, "bounds", "--kind", "lossy", "--lambda-x", "0.5", "--lambda-y", "0.5",
            "--energy-range", "0:4:5",
        )
        assert code == EXIT_OK
        table = read_table(str(out))
        assert table.metadata["variant"] == "positive"
        assert table.rows[0][1] == pytest.approx(
            bounds.lossy_diamond_bound_positive(0, two_port.ChannelParams(0.5, 0.5)), abs=1e-12
        )

    def test_lossy_routes_negative_regime(self, tmp_path):
        code, out = run(
            tmp_path, "bounds", "--kind", "lossy", "--lambda-x", "0.1", "--lambda-y", "0.1",
            "--energy-range", "0:1:3",
        )
        assert code == EXIT_OK
        assert read_table(str(out)).metadata["variant"] == "negative-envelope"

    def test_edrc_equals_direct_norm(self, tmp_path):
        from cvpbt.fock import Cutoff, trace_norm
        from cvpbt.two_port import apply_coherent

        code, out = run(tmp_path, "bounds", "--kind", "edrc", "--lambda-x", "0.5", "--lambda-y", "0.5")
        assert code == EXIT_OK
        value = read_table(str(out)).rows[0][1]
        p = two_port.ChannelParams(0.5, 0.5)
        delta = apply_coherent(0, p, Cutoff(60)).matrix - bounds.edrc_apply(
            0, bounds.EdrcParams.matched(p), Cutoff(60)
        ).matrix
        assert value == pytest.approx(trace_norm(delta), abs=1e-10)

    def test_edrc_table_sums_omega_once(self, tmp_path, monkeypatch):
        calls = []
        original = bounds.omega

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bounds, "omega", counted)
        code, out = run(tmp_path, "bounds", "--kind", "edrc", "--lambda-x", "0.5", "--lambda-y", "0.5")
        assert code == EXIT_OK and len(calls) == 1
        p = two_port.ChannelParams(0.5, 0.5)
        assert read_table(str(out)).rows[0] == [bounds.critical_index(p), bounds.edrc_diamond_norm(p)]

    def test_sim_zero_delta(self, tmp_path):
        lam = 2**-0.25
        code, out = run(
            tmp_path, "bounds", "--kind", "sim", "--lambda-x", str(lam), "--lambda-y", str(lam),
            "--delta-range", "0:0.1:3",
        )
        assert code == EXIT_OK
        table = read_table(str(out))
        expected = 2 * bounds.edrc_diamond_norm(two_port.ChannelParams(lam, lam))
        assert table.rows[0][1] == pytest.approx(expected, abs=1e-12)

    def test_missing_range_is_validation_error(self, tmp_path):
        code, _ = run(tmp_path, "bounds", "--kind", "lossy", "--lambda-x", "0.5", "--lambda-y", "0.5")
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("spec", ["0:nan:3", "0:inf:2", "nan:1:2", "0:-inf:2"])
    @pytest.mark.parametrize("lam", ["0.5", "0.1"])  # positive and negative regime
    def test_non_finite_energy_range_is_validation_error(self, tmp_path, capsys, spec, lam):
        code, out = run(
            tmp_path, "bounds", "--kind", "lossy", "--lambda-x", lam, "--lambda-y", lam, "--energy-range", spec,
        )
        assert code == EXIT_VALIDATION
        assert not out.exists()
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err


class TestFidelitySweep:
    def test_values_in_unit_interval(self, tmp_path):
        code, out = run(
            tmp_path, "fidelity-sweep", "--input", "bell2", "--ports", "3",
            "--lambda-x-range", "0.2:0.6:3", "--lambda-y-range", "0.2:0.6:3",
        )
        assert code == EXIT_OK
        table = read_table(str(out))
        assert all(0 <= row[2] <= 1 for row in table.rows)
        assert table.metadata["cap_policy"] == "adaptive(1e-10)"

    def test_tmsv_requires_lambda_in(self, tmp_path):
        code, _ = run(
            tmp_path, "fidelity-sweep", "--input", "tmsv",
            "--lambda-x-range", "0.3:0.3:1", "--lambda-y-range", "0.3:0.3:1",
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "extra",
        [
            ["--lambda-in", "1.5"],
            ["--lambda-in", "nan"],
            ["--lambda-in", "0.3", "--cutoff", "0"],
            ["--lambda-in", "0.3", "--cutoff", "-2"],
        ],
    )
    def test_bad_tmsv_input_is_validation_error(self, tmp_path, extra):
        code, _ = run(
            tmp_path, "fidelity-sweep", "--input", "tmsv",
            "--lambda-x-range", "0.3:0.3:1", "--lambda-y-range", "0.3:0.3:1", *extra,
        )
        assert code == EXIT_VALIDATION

    def test_bell_ignores_lambda_in(self, tmp_path):
        for kind in ("bell2", "bell3"):
            code, _ = run(
                tmp_path, "fidelity-sweep", "--input", kind, "--lambda-in", "1.5",
                "--lambda-x-range", "0.3:0.3:1", "--lambda-y-range", "0.3:0.3:1",
            )
            assert code == EXIT_OK

    def test_cap_at_two_ports_is_validation_error(self, tmp_path, capsys):
        # the two-port closed form has no cap, so a given one would be dropped silently
        code, out = run(
            tmp_path, "fidelity-sweep", "--input", "bell2", "--ports", "2", "--cap", "5", *SWEEP_RANGES,
        )
        assert code == EXIT_VALIDATION
        assert not out.exists()
        assert "--cap applies to three ports only" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["bell2", "bell3"])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_cutoff_with_bell_input_is_validation_error(self, tmp_path, capsys, kind, from_config):
        # a Bell input compares on its own 2 or 3 levels, so a given cutoff would be dropped silently
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cutoff": 20000}))
        given = ["--config", str(cfg)] if from_config else []
        cutoff = [] if from_config else ["--cutoff", "20000"]
        code, out = run(tmp_path, *given, "fidelity-sweep", "--input", kind, *cutoff, *SWEEP_RANGES)
        assert code == EXIT_VALIDATION
        assert not out.exists()
        assert "--cutoff applies to the tmsv input only" in capsys.readouterr().err

    def test_tmsv_cutoff_defaults_to_twelve(self, tmp_path):
        code, out = run(tmp_path, "fidelity-sweep", "--input", "tmsv", "--lambda-in", "0.3", *SWEEP_RANGES)
        assert code == EXIT_OK
        assert read_table(str(out)).metadata["output_cutoff"] == 12

    def test_huge_cap_is_budget_refusal(self, tmp_path, monkeypatch, capsys):
        # refused from the declared build size, before any sector is listed
        monkeypatch.delenv("CVPBT_MEM_BUDGET_MB", raising=False)
        code, out = run(
            tmp_path, "fidelity-sweep", "--input", "tmsv", "--lambda-in", "0.3", "--ports", "3",
            "--lambda-x-range", "0.3:0.3:1", "--lambda-y-range", "0.3:0.3:1", "--cap", "100000",
        )
        assert code == EXIT_BUDGET
        assert not out.exists()
        assert "sector build at cap 100000" in capsys.readouterr().err

    def test_huge_default_cap_is_budget_refusal(self, tmp_path, monkeypatch, capsys):
        # lambda_x near one asks for a cap of about 1.7 million: too large to
        # build, not an invalid input
        monkeypatch.delenv("CVPBT_MEM_BUDGET_MB", raising=False)
        code, out = run(
            tmp_path, "fidelity-sweep", "--input", "bell2", "--ports", "3",
            "--lambda-x-range", "0.99999:0.99999:1", "--lambda-y-range", "0.3:0.3:1",
        )
        assert code == EXIT_BUDGET
        assert not out.exists()
        assert "3-port sector build at cap 1726930" in capsys.readouterr().err


class TestOracleVerify:
    def test_passes_at_adequate_cutoff(self, tmp_path):
        code, out = run(
            tmp_path, "oracle-verify", "--lambda-x", "0.5", "--lambda-y", "0.5",
            "--cutoff", "12", "--a-max", "2", "--b-max", "2", "--format", "json", name="report.json",
        )
        assert code == EXIT_OK
        table = read_table(str(out))
        assert table.metadata["passed"] is True

    def test_three_port_verification_run(self, tmp_path):
        code, out = run(
            tmp_path, "oracle-verify", "--ports", "3", "--lambda-x", "0.4", "--lambda-y", "0.4",
            "--cutoff", "8", "--a-max", "2", "--b-max", "2", "--tol", "1e-5",
            "--format", "json", name="r3.json",
        )
        assert code == EXIT_OK
        meta = read_table(str(out)).metadata
        assert meta["passed"] is True
        assert meta["max_deviation"] <= 1e-5

    def test_six_ports_within_default_budget(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CVPBT_MEM_BUDGET_MB", raising=False)
        code, _ = run(
            tmp_path, "oracle-verify", "--ports", "6", "--cutoff", "5",
            "--lambda-x", "0.1", "--lambda-y", "0.1",
        )
        assert code == EXIT_OK

    def test_negative_control_small_cutoff(self, tmp_path):
        code, _ = run(
            tmp_path, "oracle-verify", "--lambda-x", "0.5", "--lambda-y", "0.5",
            "--cutoff", "4", "--a-max", "1", "--b-max", "1",
        )
        assert code == EXIT_TOLERANCE

    def test_budget_refusal(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CVPBT_MEM_BUDGET_MB", "0.05")
        code, _ = run(
            tmp_path, "oracle-verify", "--lambda-x", "0.5", "--lambda-y", "0.5",
            "--cutoff", "12", "--a-max", "1", "--b-max", "1",
        )
        assert code == EXIT_BUDGET

    @pytest.mark.parametrize(
        "extra",
        [
            ["--a-max", "-1"],
            ["--b-max", "-1"],
            ["--tol", "nan"],
            ["--tol", "-1"],
        ],
    )
    def test_bad_input_is_validation_error(self, tmp_path, extra):
        code, out = run(
            tmp_path, "oracle-verify", "--lambda-x", "0.3", "--lambda-y", "0.3", "--cutoff", "4", *extra,
        )
        assert code == EXIT_VALIDATION
        assert not out.exists()

    def test_non_finite_budget_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CVPBT_MEM_BUDGET_MB", "nan")
        code, _ = run(tmp_path, "oracle-verify", "--lambda-x", "0.3", "--lambda-y", "0.3", "--cutoff", "4")
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("ports, cutoff, need", [("2", "100000000", "about 10070800859071 MiB"),
                                                     ("8", "4", "about 2374 MiB"),
                                                     ("100", "100", "more MiB than a float holds"),
                                                     ("200", "200", "more MiB than a float holds")])
    def test_oversize_is_refused_before_the_analytic_build(self, tmp_path, monkeypatch, capsys, ports, cutoff, need):
        # the oracle's window is declared first: one line, no traceback
        monkeypatch.delenv("CVPBT_MEM_BUDGET_MB", raising=False)
        code, out = run(
            tmp_path, "oracle-verify", "--ports", ports, "--cutoff", cutoff, "--lambda-x", "0.3", "--lambda-y", "0.3",
        )
        assert code == EXIT_BUDGET
        assert not out.exists()
        assert capsys.readouterr().err == f"error: channel gather needs {need}, budget is 2048 MiB " \
            "(raise CVPBT_MEM_BUDGET_MB to override)\n"


class TestTableFormat:
    def test_deterministic_modulo_timestamp(self, tmp_path):
        _, out1 = run(tmp_path, "energy", "--lambda-x-range", "0.1:0.6:4", "--lambda-y-range", "0.2:0.7:4", name="a.csv")
        _, out2 = run(tmp_path, "energy", "--lambda-x-range", "0.1:0.6:4", "--lambda-y-range", "0.2:0.7:4", name="b.csv")
        a = strip_timestamp(out1.read_text())
        b = strip_timestamp(out2.read_text())
        assert a == b

    def test_json_validates_against_schema(self, tmp_path):
        _, out = run(
            tmp_path, "energy", "--lambda-x-range", "0.2:0.4:2", "--lambda-y-range", "0.5:0.5:1",
            "--format", "json", name="e.json",
        )
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, result_table_schema())

    def test_metadata_carries_tolerances(self, tmp_path):
        _, out = run(tmp_path, "energy", "--lambda-x-range", "0.2:0.4:2", "--lambda-y-range", "0.5:0.5:1")
        assert "tol" in read_table(str(out)).metadata

    def test_csv_seventeen_digit_roundtrip(self, tmp_path):
        _, out = run(tmp_path, "energy", "--lambda-x-range", "0.123456789:0.2:2", "--lambda-y-range", "0.5:0.5:1")
        table = read_table(str(out))
        direct = two_port.max_output_energy(two_port.ChannelParams(0.123456789, 0.5))
        assert table.rows[0][2] == direct  # bit-exact through the text round trip


    def test_unwritable_output_is_validation_error(self, tmp_path, capsys):
        code = main(["energy", *SWEEP_RANGES, "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


def readme_commands() -> list:
    """The `cvpbt ...` lines of README.md's command-line usage block, split as a shell would."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("cvpbt ")]


class TestReadmeUsage:
    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
    def test_command_runs(self, tmp_path, argv):
        argv = list(argv)
        out = argv.index("--out") + 1
        argv[out] = str(tmp_path / argv[out])
        assert main(argv) == EXIT_OK
        assert read_table(argv[out]).rows


class TestConfigFile:
    def test_config_supplies_defaults_cli_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda_x": 0.3, "lambda_y": 0.5, "cutoff": 10}))
        code, out = run(
            tmp_path, "twoport-coherent", "--config", str(cfg), "--lambda-x", "0.4", name="c.csv",
        )
        assert code == EXIT_OK
        meta = read_table(str(out)).metadata
        assert meta["lambda_x"] == 0.4  # flag wins
        assert meta["lambda_y"] == 0.5  # config fills the gap
        assert meta["cutoff"] == 10

    def test_bad_config_is_validation_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code = main(["twoport-coherent", "--config", str(cfg), "--lambda-x", "0.4", "--lambda-y", "0.5"])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "config, argv",
        [
            ({"lambda_x": None}, ["bounds", "--kind", "edrc", "--lambda-y", "0.5"]),
            ({"lambda_x": [0.5]}, ["bounds", "--kind", "edrc", "--lambda-y", "0.5"]),
            ({"ports": 2.5}, ["oracle-verify", "--lambda-x", "0.3", "--lambda-y", "0.3", "--cutoff", "4"]),
            ({"ports": 2.5}, ["fidelity-sweep", "--input", "bell2", *SWEEP_RANGES]),
            ({"a_max": 1.5}, ["oracle-verify", "--lambda-x", "0.3", "--lambda-y", "0.3", "--cutoff", "4"]),
            ({"energy_range": 5}, ["bounds", "--kind", "lossy", "--lambda-x", "0.3", "--lambda-y", "0.2"]),
            ({"format": "xml"}, ["energy", *SWEEP_RANGES]),
            ({"ports": 4}, ["fidelity-sweep", "--input", "bell2", *SWEEP_RANGES]),
            ({"lamda_x": 0.3}, ["bounds", "--kind", "edrc", "--lambda-x", "0.5", "--lambda-y", "0.5"]),
        ],
    )
    def test_config_values_meet_the_flag_checks(self, tmp_path, capsys, config, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out = run(tmp_path, "--config", str(cfg), *argv)
        assert code == EXIT_VALIDATION
        assert not out.exists()
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_unknown_key_is_named_and_other_subcommands_keys_pass(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lamda_x": 0.3, "cutoff": 8}))
        argv = ["bounds", "--kind", "edrc", "--lambda-x", "0.5", "--lambda-y", "0.5"]
        assert run(tmp_path, "--config", str(cfg), *argv)[0] == EXIT_VALIDATION
        assert "lamda_x" in capsys.readouterr().err
        cfg.write_text(json.dumps({"lambda_x": 0.3, "cutoff": 8, "delta_range": "0:1:2"}))  # other subcommands' keys
        code, out = run(tmp_path, "--config", str(cfg), *argv)
        assert code == EXIT_OK and read_table(str(out)).metadata["lambda_x"] == 0.5

    def test_config_value_may_start_with_a_dash(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda_x": 0.3, "lambda_y": 0.5, "alpha": "-0.5+0.25j", "cutoff": 8}))
        code, out = run(tmp_path, "--config", str(cfg), "twoport-coherent")
        assert code == EXIT_OK
        assert read_table(str(out)).metadata["alpha"] == [-0.5, 0.25]


def sized(command, n):
    """argv of `command` at size n: an n x n parameter grid, cutoff n, or n
    energies of the lossy bound in the positive or negative regime."""
    grid = ["--lambda-x-range", f"0.1:0.5:{n}", "--lambda-y-range", f"0.1:0.5:{n}"]
    lossy = ["bounds", "--kind", "lossy", "--energy-range", f"0:5:{n}"]
    return {
        "energy": ["energy", *grid],
        "fidelity-sweep": ["fidelity-sweep", "--input", "bell2", *grid],
        "twoport-coherent": ["twoport-coherent", "--lambda-x", "0.5", "--lambda-y", "0.5", "--cutoff", str(n)],
        "bounds-lossy": [*lossy, "--lambda-x", "0.5", "--lambda-y", "0.5"],
        "bounds-lossy-negative": [*lossy, "--lambda-x", "0.3", "--lambda-y", "0.2"],
    }[command]


TINY_LAMBDA_Y = {
    "energy": ["energy", "--lambda-x-range", "0.5:0.5:1", "--lambda-y-range", "1e-9:1e-9:1"],
    "fidelity-sweep": ["fidelity-sweep", "--ports", "2", "--input", "bell2",
                       "--lambda-x-range", "0.5:0.5:1", "--lambda-y-range", "0.5:1e-9:2"],
    "twoport-coherent": ["twoport-coherent", "--lambda-x", "0.3", "--lambda-y", "1e-9", "--alpha", "1"],
    "bounds": ["bounds", "--kind", "lossy", "--lambda-x", "0.6", "--lambda-y", "1e-9", "--energy-range", "0:2:3"],
    "oracle-verify": ["oracle-verify", "--ports", "2", "--lambda-x", "0.3", "--lambda-y", "1e-9", "--cutoff", "5"],
    "fidelity-sweep-3": ["fidelity-sweep", "--ports", "3", "--input", "bell2",
                         "--lambda-x-range", "0.5:0.5:1", "--lambda-y-range", "1e-5:1e-5:1"],
    "oracle-verify-3": ["oracle-verify", "--ports", "3", "--lambda-x", "0.3", "--lambda-y", "1e-5", "--cutoff", "5"],
}


class TestTinyLambdaY:
    @pytest.mark.parametrize("command", list(TINY_LAMBDA_Y))
    def test_is_a_validation_error(self, tmp_path, capsys, command):
        # below 2^-27, 1 - lambda_y^2 rounds to 1 and the two-port weight divides by zero;
        # at 1e-5 a three-port closed-form eigenvalue rounds to 0.0 and its Gamma to nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, *TINY_LAMBDA_Y[command])
        assert code == EXIT_VALIDATION
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestOversizeInputs:
    @pytest.mark.parametrize("command", ["energy", "fidelity-sweep", "twoport-coherent"])
    def test_refused_before_allocating(self, tmp_path, monkeypatch, capsys, command):
        # each declares a few MB, against a 1 MiB budget
        monkeypatch.setenv("CVPBT_MEM_BUDGET_MB", "1")
        tracemalloc.start()
        try:
            code, out = run(tmp_path, *sized(command, 100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_BUDGET
        assert not out.exists()
        assert "budget is 1 MiB" in capsys.readouterr().err
        assert peak < 2**20

    @pytest.mark.parametrize("command", ["energy", "fidelity-sweep", "twoport-coherent", "bounds-lossy"])
    def test_size_too_large_for_a_float_is_refused(self, tmp_path, capsys, command):
        code, out = run(tmp_path, *sized(command, 10**400))
        assert code == EXIT_BUDGET
        assert not out.exists()
        err = capsys.readouterr().err
        assert "needs more MiB than a float holds" in err and "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "command, sizes",
        [
            ("energy", (50, 100)),
            ("fidelity-sweep", (50, 100)),
            ("twoport-coherent", (100, 200)),
            ("bounds-lossy", (1000, 10000)),
            ("bounds-lossy-negative", (1000, 10000)),
        ],
    )
    def test_declared_size_bounds_traced_peak(self, tmp_path, monkeypatch, command, sizes, fmt):
        declared = []
        gate = oracle.require_memory

        def recording_gate(mb, what):
            declared.append(mb)
            gate(mb, what)

        monkeypatch.setattr(oracle, "require_memory", recording_gate)
        run(tmp_path, *sized(command, 3), "--format", fmt)  # first calls load what they need
        for n in sizes:
            declared.clear()
            tracemalloc.start()
            try:
                code, _ = run(tmp_path, *sized(command, n), "--format", fmt)
                peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
            assert peak_mb <= max(declared) <= 4 * peak_mb


# -- the package runs on numpy alone -------------------------------------------

NUMPY_ALONE_COMMANDS = {
    "energy": ["energy", "--lambda-x-range", "0.1:0.5:3", "--lambda-y-range", "0.1:0.5:3"],
    "fidelity-sweep": ["fidelity-sweep", "--ports", "3", "--input", "tmsv", "--lambda-in", "0.3",
                       "--lambda-x-range", "0.2:0.5:2", "--lambda-y-range", "0.2:0.5:2"],
    "bounds": ["bounds", "--kind", "lossy", "--lambda-x", "0.6", "--lambda-y", "0.6", "--energy-range", "0:2:3"],
    "oracle-verify": ["oracle-verify", "--ports", "3", "--lambda-x", "0.3", "--lambda-y", "0.3", "--cutoff", "8"],
}


def run_python(code: str, cwd: Path, block_scipy: bool) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter that imports this cvpbt, with
    sys.modules["scipy"] = None first if `block_scipy`, so that any scipy
    import raises ImportError."""
    package_root = str(Path(cvpbt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    prelude = 'import sys; sys.modules["scipy"] = None\n' if block_scipy else ""
    return subprocess.run([sys.executable, "-c", prelude + code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


class TestNumpyAlone:
    @pytest.mark.parametrize("command", list(NUMPY_ALONE_COMMANDS))
    def test_command_runs_with_scipy_blocked(self, tmp_path, command):
        out = tmp_path / "out.json"
        argv = NUMPY_ALONE_COMMANDS[command] + ["--format", "json", "--out", str(out)]
        done = run_python(f"from cvpbt.cli import main; raise SystemExit(main({argv!r}))", tmp_path, block_scipy=True)
        assert done.returncode == EXIT_OK, done.stderr
        table = json.loads(out.read_text())
        if command == "oracle-verify":
            assert table["metadata"]["passed"] is True

    def test_import_and_oracle_run_load_no_scipy(self, tmp_path):
        argv = NUMPY_ALONE_COMMANDS["oracle-verify"] + ["--out", str(tmp_path / "out.csv")]
        code = (
            "import sys, cvpbt.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            f"assert cvpbt.cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        done = run_python(code, tmp_path, block_scipy=False)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "[]"]

    def test_import_and_oracle_run_load_no_numpy_ma(self, tmp_path):
        # np.unique without an index output imports numpy.ma on its first call
        argv = NUMPY_ALONE_COMMANDS["oracle-verify"] + ["--out", str(tmp_path / "out.csv")]
        code = (
            "import sys, cvpbt.cli\n"
            f"assert cvpbt.cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        done = run_python(code, tmp_path, block_scipy=False)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]"]
