import io
import math
import warnings

import pytest

from squeezelink import cli, config
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
        path.write_text("[unit2]\npower_mw = 3\n")
        for pair, regime in (("mirror", "nonadiabatic"), ("field", "nonadiabatic"),
                             ("field", "adiabatic")):
            code, text = run_cli("duan", "--pair", pair, "--regime", regime,
                                 "--config", str(path))
            assert code == cli.EXIT_CONFIG and text == "", (pair, regime)
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1, (pair, regime)
            # right for duan and for sweep alike: no sweep quantity names
            assert err.endswith("use the adiabatic mirror form or the oracle route\n")
            assert "mirror-duan-adiabatic" not in err and "oracle-duan" not in err


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
        ],
    )
    def test_config_errors_exit_2(self, argv):
        code, _ = run_cli(*argv)
        assert code == cli.EXIT_CONFIG


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

    def test_nan_total_exits_3_without_a_verdict(self, tmp_path, capsys):
        path = tmp_path / "huge.ini"
        path.write_text("[unit1]\npower_w = 1e300\n[unit2]\npower_w = 1e300\n")
        code, text = run_cli("duan", "--config", str(path))
        assert code == cli.EXIT_UNSTABLE and text == ""
        assert capsys.readouterr().err == "error: total variance is NaN\n"

    def test_non_finite_drift_exits_3(self, tmp_path, capsys):
        path = tmp_path / "huge.ini"
        path.write_text("[unit1]\npower_w = 1e300\n[unit2]\npower_w = 1e300\n")
        code, text = run_cli("duan", "--regime", "oracle", "--config", str(path))
        assert code == cli.EXIT_UNSTABLE and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

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

    def test_zero_r_zero_nth_threshold_is_zero(self):
        code, text = run_cli(
            "threshold", "--r", "0", "--temperature-uk", "0",
            "--quantity", "cooperativity",
        )
        assert code == 0
        assert float(self.parse(text)["C_min"]) == 0.0

    def test_zero_r_warm_bath_is_degenerate(self):
        code, _ = run_cli("threshold", "--r", "0", "--quantity", "cooperativity")
        assert code == cli.EXIT_UNSTABLE

    def test_power_block(self):
        code, text = run_cli("threshold", "--preset", "fig3", "--quantity", "power")
        assert code == 0
        values = self.parse(text)
        assert float(values["diagnostic_ratio"]) == pytest.approx(2.0, rel=1e-9)
        assert float(values["P_min_W"]) > 0


class TestCliSelfcheck:
    def test_single_check(self):
        code, text = run_cli("selfcheck", "--only", "xy-symmetry")
        assert code == 0
        assert text.startswith("PASS xy-symmetry")
        assert "1/1 checks passed" in text

    def test_unknown_check_is_config_error(self):
        code, _ = run_cli("selfcheck", "--only", "bogus")
        assert code == cli.EXIT_CONFIG

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
