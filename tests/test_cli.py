import json

import jsonschema
import numpy as np
import pytest

from cvpbt import bounds, two_port
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
            ["--mem-budget", "nan"],
            ["--mem-budget", "-5"],
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
