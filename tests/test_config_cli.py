import hashlib
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from squeezelink import cli, config, model
from squeezelink.config import ConfigError, load_config, preset_system, resolve_system


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


class TestPresets:
    def test_default_matches_text_parameter_set(self):
        system = config.default_system()
        res, mir = system.unit1.resonator, system.unit1.mirror
        assert res.omega_r == pytest.approx(2 * math.pi * 5.64e14)
        assert res.length == pytest.approx(25e-3)
        assert res.power == pytest.approx(10e-3)
        assert mir.omega_M == pytest.approx(2 * math.pi * 947e3)
        assert mir.mass == pytest.approx(145e-12)
        assert system.bath.r == 1.0

    def test_caption_variant_differs_only_where_quoted(self):
        text = preset_system("fig2-text")
        caption = preset_system("fig2-caption")
        assert caption.unit1.resonator.omega_r == pytest.approx(2 * math.pi * 5.26e14)
        assert caption.unit1.resonator.length == pytest.approx(125e-3)
        assert caption.unit1.resonator.kappa == text.unit1.resonator.kappa
        assert caption.unit1.mirror == text.unit1.mirror

    def test_fig3_is_resonant(self):
        system = preset_system("fig3")
        assert system.unit1.resonator.omega_r == system.unit1.resonator.omega_L

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_system("fig99")

    def test_preset_dir_lookup(self, tmp_path, monkeypatch):
        (tmp_path / "lab.ini").write_text("[unit1]\npower_mw = 4\n")
        monkeypatch.setenv(config.PRESET_DIR_ENV, str(tmp_path))
        system = preset_system("lab")
        assert system.unit1.resonator.power == pytest.approx(4e-3)
        with pytest.raises(ConfigError):
            preset_system("missing")

    def test_config_layers_over_a_preset_dir_preset(self, tmp_path, monkeypatch):
        (tmp_path / "lab.ini").write_text("[unit1]\npower_mw = 4\n[bath]\nr = 0.5\n")
        (tmp_path / "over.ini").write_text("[unit2]\ntemperature_uk = 80\n")
        monkeypatch.setenv(config.PRESET_DIR_ENV, str(tmp_path))
        system = resolve_system(str(tmp_path / "over.ini"), preset="lab")
        lab = preset_system("lab")
        assert system.unit1 == lab.unit1  # unset keys fall back to the preset, per unit
        assert system.unit2.resonator == lab.unit2.resonator
        assert system.unit2.mirror.temperature == pytest.approx(80e-6)
        assert system.bath.r == 0.5  # and r to the preset's r
        code, text = run_cli("duan", "--preset", "lab", "--config", str(tmp_path / "over.ini"))
        assert code == cli.EXIT_OK and "r = 0.5\n" in text

    def test_presets_are_the_reference_device_bit_for_bit(self):
        text, fig3 = preset_system("fig2-text"), preset_system("fig3")
        device = model.REFERENCE_DEVICE
        for unit in (text.unit1, text.unit2):
            fields = vars(unit.resonator) | vars(unit.mirror)
            assert {k: fields[k] for k in device} == dict(device)
            assert (fields["power"], fields["temperature"]) == (10e-3, 50e-6)
        assert fig3.unit1.resonator.omega_r == device["omega_L"]


class TestLoadConfig:
    def test_unit_suffix_conversion(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[unit1]\n"
            "kappa_hz = 215e3\n"
            "length_mm = 25\n"
            "mass_ng = 145\n"
            "temperature_uk = 50\n"
            "[unit2]\n"
            "kappa_rad_s = 1.0e6\n"
            "temperature_mk = 0.25\n"
            "[bath]\n"
            "r = 2.0\n"
        )
        system = load_config(str(path))
        assert system.unit1.resonator.kappa == pytest.approx(2 * math.pi * 215e3)
        assert system.unit1.resonator.length == pytest.approx(25e-3)
        assert system.unit1.mirror.mass == pytest.approx(145e-12)
        assert system.unit1.mirror.temperature == pytest.approx(50e-6)
        assert system.unit2.resonator.kappa == pytest.approx(1.0e6)
        assert system.unit2.mirror.temperature == pytest.approx(0.25e-3)
        assert system.bath.r == 2.0

    def test_missing_keys_fall_back_to_preset(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[unit1]\npower_mw = 5\n")
        system = load_config(str(path))
        assert system.unit1.resonator.power == pytest.approx(5e-3)
        assert system.unit2.resonator.power == pytest.approx(10e-3)
        assert system.unit1.mirror.omega_M == pytest.approx(2 * math.pi * 947e3)

    @pytest.mark.parametrize(
        "body",
        [
            "[unit1]\nbogus_key = 1\n",
            "[unit1]\nkappa = 1e6\n",  # missing unit suffix
            "[laser]\npower_mw = 1\n",
            "[bath]\nn = 3\n",
            "[unit1]\npower_mw = fast\n",
            "[unit1]\npower_mw = 1\npower_w = 1\n",  # duplicate quantity
            "[unit1]\npower_mw = -1\n",  # invalid physical value
            # configparser copies [DEFAULT] keys into every section
            "[DEFAULT]\npower_mw = 4\n",
            "[DEFAULT]\nbogus = 1\n",
            "[DEFAULT]\ngamma_hz = 280\n[unit1]\n[unit2]\n",
        ],
    )
    def test_rejected_configs(self, tmp_path, body):
        path = tmp_path / "bad.ini"
        path.write_text(body)
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/squeezelink.ini")

    def test_resolve_overrides(self, tmp_path):
        system = resolve_system(r_override=1.5, temperature_override=1e-4)
        assert system.bath.r == 1.5
        assert system.unit1.mirror.temperature == 1e-4
        assert system.unit2.mirror.temperature == 1e-4


class TestCliDuan:
    def parse(self, text):
        pairs = dict(line.split(" = ") for line in text.strip().splitlines())
        return pairs

    def test_adiabatic_default(self):
        code, text = run_cli("duan")
        assert code == 0
        values = self.parse(text)
        assert values["pair"] == "mirror"
        assert float(values["total"]) == pytest.approx(
            float(values["var_X"]) + float(values["var_Y"]), rel=1e-12
        )
        assert values["entangled"] in ("true", "false")

    def test_oracle_agrees_with_nonadiabatic(self):
        _, t_closed = run_cli("duan", "--regime", "nonadiabatic")
        _, t_oracle = run_cli("duan", "--regime", "oracle")
        closed = float(self.parse(t_closed)["total"])
        numeric = float(self.parse(t_oracle)["total"])
        assert numeric == pytest.approx(closed, rel=1e-6)

    def test_field_pair(self):
        code, text = run_cli("duan", "--pair", "field", "--r", "2")
        assert code == 0
        values = self.parse(text)
        assert float(values["total"]) < 2.0
        assert values["entangled"] == "true"

    def test_field_oracle_matches_field_closed_form(self):
        _, t_closed = run_cli("duan", "--pair", "field")
        _, t_oracle = run_cli("duan", "--pair", "field", "--regime", "oracle")
        closed = float(self.parse(t_closed)["total"])
        numeric = float(self.parse(t_oracle)["total"])
        assert numeric == pytest.approx(closed, rel=1e-6)

    def test_nonadiabatic_on_asymmetric_config_fails_cleanly(self, tmp_path, capsys):
        # the closed forms that assume identical units; the field pair's
        # adiabatic regime is its nonadiabatic closed form
        path = tmp_path / "c.ini"
        # C2 = inf at power_w = 1e300, never identical to a finite C1
        for body in ("[unit2]\npower_mw = 3\n", "[unit2]\npower_w = 1e300\n"):
            path.write_text(body)
            for pair, regime in (("mirror", "nonadiabatic"), ("field", "nonadiabatic"),
                                 ("field", "adiabatic")):
                code, text = run_cli("duan", "--pair", pair, "--regime", regime,
                                     "--config", str(path))
                assert code == cli.EXIT_CONFIG and text == "", (body, pair, regime)
                err = capsys.readouterr().err
                assert err.startswith("config error:") and err.count("\n") == 1, (pair, regime)
                # right for duan and for sweep alike: no sweep quantity names
                assert err.endswith("use the adiabatic mirror form or the oracle route\n")
                assert "mirror-duan-adiabatic" not in err and "oracle-duan" not in err

    def test_default_section_is_a_config_error_naming_it(self, tmp_path, capsys):
        # its keys would land in [bath] too, where they read as unknown bath keys
        path = tmp_path / "default.ini"
        path.write_text("[DEFAULT]\npower_mw = 4\n[bath]\nr = 1.5\n")
        code, text = run_cli("duan", "--config", str(path))
        assert code == cli.EXIT_CONFIG and text == ""
        err = capsys.readouterr().err
        assert err.startswith("config error: keys under [DEFAULT] in ") and err.count("\n") == 1


class TestCliSweep:
    def test_axis_sweep_csv_shape(self):
        code, text = run_cli(
            "sweep", "--axis", "bath.r", "--range", "0:2:5", "--quantity",
            "mirror-duan-adiabatic",
        )
        assert code == 0
        lines = text.strip().splitlines()
        data = [line for line in lines if not line.startswith("#")]
        assert data[0] == "bath.r,total,var_X,var_Y,entangled,C1,C2"
        assert len(data) == 6
        first = data[1].split(",")
        assert float(first[0]) == 0.0
        assert first[4] in ("true", "false")

    def test_fig3_keeps_its_resonant_cavity_under_overrides(self):
        # 50 uK is the default temperature, so this override changes nothing
        code, text = run_cli("sweep", "--figure", "fig3", "--temperature-uk", "50")
        assert code == 0 and text == run_cli("sweep", "--figure", "fig3")[1]

    def test_figure_determinism_bytes(self):
        one = cli.render_figure_csv("fig4")
        two = cli.render_figure_csv("fig4")
        assert one.encode() == two.encode()

    def test_out_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        code, text = run_cli(
            "sweep", "--axis", "bath.r", "--range", "0:1:3", "--out", str(path)
        )
        assert code == 0 and text == ""
        assert path.read_text().startswith("# squeezelink")

    def test_error_budget_exit_code(self):
        # negative r grid points fail; default budget of zero trips exit 4
        code, text = run_cli("sweep", "--axis", "bath.r", "--range=-1:1:5")
        assert code == cli.EXIT_SWEEP_ERRORS
        assert "# error at bath.r=-1" in text
        code, _ = run_cli(
            "sweep", "--axis", "bath.r", "--range=-1:1:5", "--max-errors", "3"
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep",),
            ("sweep", "--figure", "fig2", "--axis", "bath.r"),
            ("sweep", "--axis", "bath.r"),
            ("sweep", "--axis", "bath.r", "--range", "0:1"),
            ("sweep", "--axis", "bath.r", "--range", "0:1:5:cubic"),
            ("sweep", "--figure", "fig7"),
            ("duan", "--config", "/nonexistent.ini"),
            ("duan", "--preset", "bogus"),
            ("sweep", "--axis", "bath.r", "--range", "0:1:1"),
            ("sweep", "--axis", "bath.r", "--range", "1:0:5"),
            ("sweep", "--axis", "bath.r", "--range", "0:1:5:log"),
            ("sweep", "--axis", "bath.r", "--range", "0:1:3", "--max-errors", "-1"),
            ("sweep", "--axis", "bath.r", "--range", "0:inf:3"),
            ("sweep", "--axis", "bath.r", "--range", "1e-3:1e400:3:log"),
            ("sweep", "--axis", "bogus", "--range", "0:1:3"),
            ("sweep", "--axis", "bath.r", "--range=-1e308:1e308:3"),
            ("sweep", "--axis", "bath.r", "--range", "0.5:1:1000000000000"),
            ("selfcheck", "--tolerance", "nan"),
            ("selfcheck", "--tolerance", "-1"),
            ("selfcheck", "--tolerance", "inf"),
            ("selfcheck", "--only", "nope"),
            ("sweep", "--figure", "fig2", "--out", "/nonexistent/dir/x.csv"),
            ("sweep", "--axis", "bath.r", "--range", "0:1:3", "--out", "/nonexistent/dir/x.csv"),
            ("sweep", "--figure", "fig4", "--max-errors", "-1"),
            ("sweep", "--figure", "fig2", "--range", "0:1:3"),
            ("sweep", "--figure", "fig4", "--quantity", "oracle-duan"),
        ],
    )
    def test_config_errors_exit_2(self, argv):
        code, _ = run_cli(*argv)
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("argv, sha256", [
        (("--axis", "temperature", "--range", "1e-5:1:40:log"),
         "45e5f4125c5d2c82ce87701f14688c2b90766ddcbda6dd50281e5b9237ec0d41"),
        (("--axis", "bath.r", "--range=-1:1000:50", "--max-errors", "50"),  # 50 error rows
         "864549a630e6c07ff5dfa0e27ce8bc8edf124f9051cb7ba67ddfb71d89f7ad43"),
        (("--axis", "unit2.power", "--range", "1e-3:3e-2:12", "--quantity", "oracle-duan"),
         "6eeec22ec6d073fed5f4314f53c86ac3c7d1a7bebcc8646e2ec79de83eda4163"),
    ])
    def test_axis_sweep_bytes_are_pinned(self, argv, sha256):
        code, text = run_cli("sweep", *argv)
        assert code == cli.EXIT_OK
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("scale, values", [
        ("linear", [1.0, 1.5, 2.0]), ("log", [1.0, math.sqrt(2.0), 2.0]),
    ])
    def test_range_takes_a_linear_or_log_scale(self, scale, values):
        code, text = run_cli("sweep", "--axis", "bath.r", "--range", f"1:2:3:{scale}")
        assert code == cli.EXIT_OK
        header, *rows = [line for line in text.splitlines() if not line.startswith("#")]
        assert header.startswith("bath.r,")
        assert [float(row.split(",")[0]) for row in rows] == pytest.approx(values, rel=1e-11)

    def test_unknown_range_scale_is_one_line_naming_both(self, capsys):
        code, text = run_cli("sweep", "--axis", "bath.r", "--range", "0:1:5:cubic")
        assert code == cli.EXIT_CONFIG and text == ""
        assert capsys.readouterr().err == (
            "config error: bad --range scale 'cubic': use linear or log\n")

    def test_quantity_with_a_figure_is_one_line_naming_it(self, capsys):
        # a figure fixes its own quantities, so --quantity would be ignored
        code, text = run_cli("sweep", "--figure", "fig4", "--quantity", "oracle-duan")
        assert code == cli.EXIT_CONFIG and text == ""
        assert capsys.readouterr().err == (
            "config error: --quantity applies to --axis sweeps, not to --figure\n")

    def test_out_path_that_is_a_directory_is_one_line_naming_it(self, tmp_path, capsys):
        code, text = run_cli("sweep", "--figure", "fig4", "--out", str(tmp_path))
        assert code == cli.EXIT_CONFIG and text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write --out {str(tmp_path)!r}: ")
        assert err.count("\n") == 1

    def test_unknown_axis_is_one_line_naming_it(self, capsys):
        code, text = run_cli("sweep", "--axis", "bogus", "--range", "0:1:3")
        assert code == cli.EXIT_CONFIG and text == ""
        err = capsys.readouterr().err
        assert err == "config error: bad --axis 'bogus': unknown parameter path 'bogus'\n"


class TestCliBadNumbers:
    @pytest.mark.parametrize(
        "argv",
        [
            ("duan", "--r", "nan"),
            ("duan", "--r", "inf"),
            ("duan", "--temperature-uk", "nan"),
            ("duan", "--regime", "oracle", "--r", "nan"),
            ("threshold", "--temperature-uk", "nan"),
        ],
    )
    def test_non_finite_input_exits_2(self, argv, capsys):
        code, text = run_cli(*argv)
        assert code == cli.EXIT_CONFIG and text == ""
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("duan", "--r", "400"),
            ("duan", "--regime", "oracle", "--r", "400"),
            ("threshold", "--r", "1e-320"),
            ("threshold", "--r", "1e-320", "--quantity", "power"),
        ],
    )
    def test_overflow_exits_3(self, argv, capsys):
        code, _ = run_cli(*argv)
        assert code == cli.EXIT_UNSTABLE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("r", ["18", "19"])
    def test_oracle_verdict_from_cancelled_digits_exits_3(self, r, capsys):
        # the Duan variances cancel terms of order e^{2r}: at r = 18 the
        # printed total was 0 and the verdict "entangled"
        code, text = run_cli("duan", "--regime", "oracle", "--r", r)
        assert code == cli.EXIT_UNSTABLE and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: Duan variance lost its digits to cancellation")
        assert err.count("\n") == 1
        assert run_cli("duan", "--regime", "oracle", "--r", "2")[0] == 0

    def test_underflowing_rate_denominator_exits_3_naming_it(self, tmp_path, capsys):
        # at T = 0 the occupation is 0, so the rates' own check names the cause
        path = tmp_path / "c.ini"
        path.write_text("[unit1]\nomega_m_rad_s = 1e-320\n[unit2]\nomega_m_rad_s = 1e-320\n")
        code, text = run_cli("duan", "--config", str(path), "--temperature-uk", "0")
        assert code == cli.EXIT_UNSTABLE and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: steady-state rates diverge at M = 1.45e-10 kg, "
                              "omega_M = 1e-320 rad/s") and err.count("\n") == 1
        assert "M omega_M, hbar omega_L or (kappa/2)^2 + delta_eff^2 underflows to 0" in err

    def test_optimum_at_a_bracket_edge_exits_3_naming_the_search(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text("[unit1]\ngamma_hz = 1e6\n[unit2]\ngamma_hz = 1e6\n")
        code, text = run_cli("sweep", "--figure", "fig5b", "--config", str(path))
        assert code == cli.EXIT_UNSTABLE and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: search 1 of 177: no interior minimum ")
        assert err.count("\n") == 1

    def test_overflowing_cooperativity_slope_exits_3_naming_it(self, tmp_path, capsys):
        # C = Gamma_a / gamma overflows, so P_min would be 0 W and the ratio 1/0
        path = tmp_path / "c.ini"
        path.write_text("[unit1]\ngamma_hz = 1e-300\n[unit2]\ngamma_hz = 1e-300\n")
        code, text = run_cli("threshold", "--config", str(path))
        assert code == cli.EXIT_UNSTABLE and text == ""
        assert capsys.readouterr().err == (
            "error: power threshold degenerates at gamma = 6.283185307179586e-300 rad/s, "
            "P = 0.01 W: the cooperativity slope C/P is inf /W, "
            "as C = Gamma_a / gamma overflows or underflows to 0\n")

    @pytest.mark.parametrize("argv, message", [
        ((), "total variance is NaN"),
        (("--regime", "nonadiabatic"), "total variance is NaN"),
        (("--pair", "field"), "total variance is NaN"),
        (("--regime", "oracle"), "drift or diffusion matrix is not finite at stack index 0"),
    ], ids=["default", "nonadiabatic", "field", "oracle"])
    def test_nan_total_exits_3_without_a_verdict(self, argv, message, tmp_path, capsys):
        # both cooperativities overflow to inf: identical units, not differing ones
        path = tmp_path / "huge.ini"
        path.write_text("[unit1]\npower_w = 1e300\n[unit2]\npower_w = 1e300\n")
        code, text = run_cli("duan", *argv, "--config", str(path))
        assert code == cli.EXIT_UNSTABLE and text == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_cancelled_total_exits_3_without_a_verdict(self, tmp_path, capsys):
        # (2N + 1) - 2M cancels at r = 26 and leaves a negative total
        path = tmp_path / "c.ini"
        path.write_text("[unit1]\npower_mw = 15.625\ntemperature_k = 1\n"
                        "[unit2]\npower_mw = 15.625\ntemperature_k = 1\n")
        code, text = run_cli("duan", "--r", "26", "--config", str(path))
        assert code == cli.EXIT_UNSTABLE and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: total variance is -") and err.count("\n") == 1

    def test_hot_oracle_gives_a_quiet_verdict(self, capsys):
        # ||D|| overflows a float at this temperature; the residual gate must
        # still hold without numpy overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run_cli("duan", "--regime", "oracle", "--temperature-uk", "1e300")
        assert code == cli.EXIT_OK and "total = 5.9910805625e+295\n" in text
        assert capsys.readouterr().err == ""


class TestCliThreshold:
    def parse(self, text):
        return dict(line.split(" = ") for line in text.strip().splitlines())

    def test_reference_point(self):
        code, text = run_cli(
            "threshold", "--preset", "fig3", "--r", "1",
            "--temperature-uk", "62.2", "--quantity", "cooperativity",
        )
        assert code == 0
        values = self.parse(text)
        assert float(values["n_th"]) == pytest.approx(1.0, rel=0.10)

    @pytest.mark.parametrize("quantity", ["cooperativity", "power", "both"])
    def test_zero_r_cold_bath_is_degenerate(self, quantity, capsys):
        # without squeezing the total is exactly 2 at every C, even with no thermal noise
        code, text = run_cli("threshold", "--r", "0", "--temperature-uk", "0",
                             "--quantity", quantity)
        assert code == cli.EXIT_UNSTABLE and text == ""
        assert capsys.readouterr().err.startswith(
            "error: threshold cooperativity diverges at r = 0")

    def test_squeezed_cold_bath_threshold_is_zero(self):
        code, text = run_cli("threshold", "--r", "0.5", "--temperature-uk", "0")
        assert code == 0
        values = self.parse(text)
        assert float(values["C_min"]) == 0.0 and float(values["P_min_W"]) == 0.0

    def test_zero_r_warm_bath_is_degenerate(self):
        code, _ = run_cli("threshold", "--r", "0", "--quantity", "cooperativity")
        assert code == cli.EXIT_UNSTABLE

    def test_power_block(self):
        code, text = run_cli("threshold", "--preset", "fig3", "--quantity", "power")
        assert code == 0
        values = self.parse(text)
        assert float(values["diagnostic_ratio"]) == pytest.approx(2.0, rel=1e-9)
        assert float(values["P_min_W"]) > 0

    def test_asymmetric_units_are_a_config_error(self, tmp_path, capsys):
        # the thresholds are those of identical units; unit 1's would be printed
        path = tmp_path / "asym.ini"
        path.write_text("[unit2]\ntemperature_uk = 500\npower_mw = 3\n")
        code, text = run_cli("threshold", "--config", str(path))
        assert code == cli.EXIT_CONFIG and text == ""
        assert capsys.readouterr().err == (
            "config error: the thresholds assume identical units; unit 2 differs from unit 1\n")

    # the preset's 50 uK and 10 mW restated; 50 uK parses one ulp below the preset's 5e-05 K
    @pytest.mark.parametrize("restated", ["temperature_mk = 0.05\npower_w = 0.01\n",
                                          "temperature_uk = 50\n"])
    def test_unit_restated_in_other_suffixes_is_identical(self, tmp_path, restated):
        path = tmp_path / "same.ini"
        path.write_text("[unit2]\n" + restated)
        assert run_cli("threshold", "--config", str(path)) == run_cli("threshold")


class TestCliSelfcheck:
    def test_single_check(self):
        code, text = run_cli("selfcheck", "--only", "xy-symmetry")
        assert code == 0
        assert text.startswith("PASS xy-symmetry")
        assert "1/1 checks passed" in text

    def test_unknown_check_is_config_error(self):
        code, _ = run_cli("selfcheck", "--only", "bogus")
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("argv, message", [
        (("--only", "threshold", "--only", "nope"), "config error: unknown check 'nope'; known: "),
        (("--tolerance", "nan"), "config error: --tolerance must be >= 0 and finite, got nan"),
        (("--tolerance", "-1"), "config error: --tolerance must be >= 0 and finite, got -1.0"),
    ])
    def test_config_error_is_one_plain_line(self, argv, message, capsys):
        code, text = run_cli("selfcheck", *argv)
        assert code == cli.EXIT_CONFIG and text == ""
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    def test_zero_tolerance_is_valid(self):
        code, text = run_cli("selfcheck", "--only", "dissipation-ordering", "--tolerance", "0")
        assert code == 0 and text.startswith("PASS dissipation-ordering")

    def test_impossible_tolerance_fails(self):
        code, text = run_cli(
            "selfcheck", "--only", "adiabatic-limit", "--tolerance", "1e-30"
        )
        assert code == cli.EXIT_CHECK_FAILED
        assert text.startswith("FAIL adiabatic-limit")
        assert "0/1 checks passed" in text


class TestCsvRendering:
    def test_twelve_significant_digits(self):
        text = cli.render_rows_csv(
            ["a", "b"], [(1.0 / 3.0, True), (2.0, False)], {"k": 1.5}
        )
        assert "0.333333333333,true" in text
        assert "# k = 1.5" in text
        assert text.endswith("\n") and "\r" not in text


#: float cells, with NaN, infinities, signed zeros and subnormals drawn often
CELLS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e-310, sys.float_info.max])


@st.composite
def csv_tables(draw):
    """Rows that share their cell types: floats, and bools in some columns."""
    kinds = draw(st.lists(st.sampled_from([CELLS, CELLS, st.booleans()]),
                          min_size=1, max_size=8))
    return draw(st.lists(st.tuples(*kinds), min_size=1, max_size=5))


@given(rows=csv_tables())
def test_row_template_writes_each_cell_as_fmt(rows):
    assert cli._csv_lines(rows) == [",".join(map(cli._fmt, row)) for row in rows]


CLOSED_FORM_CALLS = [["duan"], ["duan", "--regime", "nonadiabatic"], ["duan", "--pair", "field"],
                     ["threshold"]]


def test_closed_form_routes_load_no_numpy():
    # numpy, the oracle and the selfcheck are bound lazily, so their keys sit in
    # sys.modules from import on: a loaded numpy shows as its submodules, and a
    # lazy module that has run holds __builtins__, which reading its namespace
    # through object.__getattribute__ finds without running it. The records are
    # no dataclasses, so no call loads dataclasses, nor a closed-form call the
    # inspect that dataclasses imports (numpy imports inspect itself)
    calls = [*CLOSED_FORM_CALLS, ["duan", "--regime", "oracle"]]
    code = (
        "import io, json, sys\n"
        "import squeezelink\n"
        "from squeezelink import cli\n"
        "def loaded():\n"
        "    ran = [name for name in ('oracle', 'selfcheck') if '__builtins__' in\n"
        "           object.__getattribute__(sys.modules['squeezelink.' + name], '__dict__')]\n"
        "    numpy = [m for m in sys.modules if m.startswith('numpy.')]\n"
        "    return {'numpy': numpy, 'ran': ran,\n"
        "            **{name: name in sys.modules for name in ('configparser', 'dataclasses',\n"
        "                                                      'inspect')}}\n"
        "runs = [loaded()]\n"
        f"for argv in {calls!r}:\n"
        "    out = io.StringIO()\n"
        "    runs.append([cli.main(argv, out=out), out.getvalue(), loaded()])\n"
        "print(json.dumps(runs))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    at_import, *runs = json.loads(proc.stdout)
    unloaded = {"configparser": False, "dataclasses": False}
    assert at_import == {"numpy": [], "ran": [], "inspect": False, **unloaded}
    for argv, (exit_code, text, state) in zip(calls, runs):
        assert [exit_code, text] == list(run_cli(*argv)), argv
        closed_form = argv in CLOSED_FORM_CALLS
        assert bool(state.pop("numpy")) != closed_form, argv
        assert not state.pop("inspect") or not closed_form, argv
        assert state == {"ran": [] if closed_form else ["oracle"], **unloaded}, argv


def test_missing_numpy_fails_at_import():
    # -S leaves site-packages, and so numpy, off the path
    src = str(Path(cli.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import squeezelink"
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.endswith("ModuleNotFoundError: No module named 'numpy'\n"), proc.stderr
