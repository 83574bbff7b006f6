import json

import pytest

from simomac import __version__, cli
from simomac.cli import main
from simomac.errors import InvalidRegime


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _assert_one_error_line(err):
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


class TestRegion:
    def test_json_report(self, capsys):
        code, out = _run(capsys, ["region", "--T", "5", "--N", "3"])
        assert code == 0
        rep = json.loads(out)
        assert rep["version"] == __version__
        assert rep["command"] == "region"
        assert rep["equal"] is True
        assert ["4/5", "0/1"] in rep["outer"]["vertices"]
        assert ["3/5", "3/5"] in rep["outer"]["vertices"]
        assert rep["outer"]["vertices"] == rep["inner"]["vertices"]

    def test_csv_format(self, capsys):
        code, out = _run(capsys, ["region", "--T", "5", "--N", "3",
                                  "--format", "csv"])
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0] == "0/1,0/1"
        assert all(len(r.split(",")) == 2 for r in rows)

    def test_bad_args_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["region", "--T", "0", "--N", "2"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["region", "--T", "4"])
        assert exc.value.code == 2


class TestBounds:
    ARGS = ["bounds", "--T", "4", "--N", "2", "--P-dB", "20",
            "--trials", "8000", "--seed", "7"]

    def test_deterministic_output(self, capsys):
        code1, out1 = _run(capsys, self.ARGS)
        code2, out2 = _run(capsys, self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_schema(self, capsys):
        _, out = _run(capsys, self.ARGS + ["--P-dB", "20,30"])
        rep = json.loads(out)
        assert set(rep) == {"version", "command", "config",
                            "points", "slopes", "warnings"}
        assert len(rep["points"]) == 2
        pt = rep["points"][0]
        for key in ("single_user_upper", "mac_user1_upper",
                    "single_user_training", "mac_training", "slack_bits"):
            assert key in pt
        assert rep["slopes"][0]["from_dB"] == 20.0
        assert rep["config"]["regime"] == "T_ge_N_plus_1"

    def test_negative_db_list(self, capsys):
        code, out = _run(capsys, ["bounds", "--T", "2", "--N", "2",
                                  "--P-dB", "-10,30", "--trials", "2000"])
        assert code == 0
        assert json.loads(out)["config"]["P_dB"] == [-10.0, 30.0]

    def test_empty_evaluation_half_exit_2(self, capsys):
        code = main(["bounds", "--T", "4", "--N", "2", "--P-dB", "20",
                     "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        _assert_one_error_line(captured.err)

    def test_slopes_need_both_bounds(self, capsys, monkeypatch):
        def no_mac_bound(*args, **kwargs):
            raise InvalidRegime("category 'last': mean ||A Y||^2 <= 1")

        monkeypatch.setattr(cli, "duality_bound_mac_user1", no_mac_bound)
        code, out = _run(capsys, ["bounds", "--T", "4", "--N", "2",
                                  "--P-dB", "20,30", "--trials", "2000"])
        assert code == 0
        rep = json.loads(out)
        assert rep["slopes"] == []
        assert len(rep["warnings"]) == 2
        assert all("single_user_upper" in pt and "mac_user1_upper" not in pt
                   for pt in rep["points"])

    def test_low_snr_warning(self, capsys):
        code, out = _run(capsys, ["bounds", "--T", "2", "--N", "1",
                                  "--P-dB", "-20", "--trials", "4000",
                                  "--seed", "0"])
        assert code == 0
        rep = json.loads(out)
        assert rep["warnings"]


class TestVerify:
    @pytest.mark.parametrize("suite", ["lemmas", "region", "optimizer"])
    def test_suites_pass(self, capsys, suite):
        code, out = _run(capsys, ["verify", "--suite", suite, "--seed", "0"])
        rep = json.loads(out)
        assert code == 0
        assert rep["all_passed"] is True
        assert all("margin" in c and "slack" in c for c in rep["checks"])


class TestExportPlot:
    def test_writes_polygon_files(self, capsys, tmp_path):
        prefix = str(tmp_path / "reg")
        code, out = _run(capsys, ["export-plot", "--T", "4", "--N", "2",
                                  "--out", prefix])
        assert code == 0
        for name in ("outer", "inner"):
            path = tmp_path / f"reg_{name}.csv"
            assert path.exists()
            assert path.read_text().startswith("0/1,0/1")
        assert f"{prefix}_outer.csv" in out


class TestConfigFile:
    def test_file_sets_defaults_and_flags_override(self, capsys, tmp_path,
                                                   monkeypatch):
        cfg = tmp_path / "simomac.ini"
        cfg.write_text("[common]\nseed = 11\n[region]\nformat = csv\n")
        code, out = _run(capsys, ["--config", str(cfg),
                                  "region", "--T", "5", "--N", "3"])
        assert code == 0
        assert out.startswith("0/1,0/1")  # format picked up from file
        code, out = _run(capsys, ["--config", str(cfg), "region", "--T", "5",
                                  "--N", "3", "--format", "json"])
        assert json.loads(out)["command"] == "region"
        monkeypatch.setenv("SIMOMAC_CONFIG", str(cfg))
        code, out = _run(capsys, ["region", "--T", "5", "--N", "3"])
        assert out.startswith("0/1,0/1")

    def test_missing_config_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--config", "/nonexistent.ini", "region",
                  "--T", "4", "--N", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert "/nonexistent.ini" in err

    def test_bad_value_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "simomac.ini"
        cfg.write_text("[bounds]\ntrials = abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "bounds", "--T", "4", "--N", "2",
                  "--P-dB", "20"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert "trials" in err

    @pytest.mark.parametrize("ini,argv,allowed", [
        ("[region]\nformat = xml\n", ["region", "--T", "4", "--N", "2"], ("json", "csv")),
        ("[bounds]\nfading = rayleigh\n",
         ["bounds", "--T", "4", "--N", "2", "--P-dB", "20"],
         ("iid_complex_gaussian", "iid_uniform_annulus")),
    ])
    def test_value_outside_choices_exit_2(self, capsys, tmp_path, ini, argv, allowed):
        cfg = tmp_path / "simomac.ini"
        cfg.write_text(ini)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg)] + argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        _assert_one_error_line(captured.err)
        key = ini.split("\n")[1].split(" = ")[0]
        assert key in captured.err
        assert all(choice in captured.err for choice in allowed)


class TestNegativeSeed:
    @pytest.mark.parametrize("ini,argv", [
        (None, ["bounds", "--T", "4", "--N", "2", "--P-dB", "20", "--trials", "100",
                "--seed", "-1"]),
        (None, ["verify", "--suite", "lemmas", "--seed", "-1"]),
        ("[bounds]\nseed = -3\n", ["bounds", "--T", "4", "--N", "2", "--P-dB", "20",
                                    "--trials", "100"]),
    ])
    def test_exit_2_with_one_error_line(self, capsys, tmp_path, ini, argv):
        if ini is not None:
            cfg = tmp_path / "simomac.ini"
            cfg.write_text(ini)
            argv = ["--config", str(cfg)] + argv
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        _assert_one_error_line(captured.err)
        assert "seed" in captured.err


class TestBoundsPooledFit:
    def test_pooled_fit_in_json(self, capsys):
        code, out = _run(capsys, ["bounds", "--T", "3", "--N", "4", "--P-dB", "20",
                                  "--trials", "20000", "--seed", "1"])
        assert code == 0
        pt = json.loads(out)["points"][0]
        assert "branch0/pilot" in pt["mac_user1_upper"]["pooled_fit"]
        assert pt["single_user_upper"]["pooled_fit"] == []


class TestBoundsPowerGrid:
    def test_repeated_power_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--T", "4", "--N", "2", "--P-dB", "20,20"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repeated power" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("p_db", ["150", "1600", "3000", "20,3100"])
    def test_power_beyond_150_db_exit_2(self, capsys, p_db):
        code = main(["bounds", "--T", "4", "--N", "2", "--P-dB", p_db, "--trials", "200"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        _assert_one_error_line(captured.err)
        assert "150 dB" in captured.err

    def test_145_db_still_reports(self, capsys):
        code, out = _run(capsys, ["bounds", "--T", "4", "--N", "2", "--P-dB", "145",
                                  "--trials", "2000"])
        assert code == 0
        pt = json.loads(out, parse_constant=pytest.fail)["points"][0]
        assert "single_user_upper" in pt and "mac_user1_upper" in pt

    def test_one_failed_point_keeps_the_others(self, capsys):
        # T=2, seed 6, 100 trials: at 20 dB branch 0 has evaluation trials
        # but no fit trial, so only that point's MAC bound is lost
        code, out = _run(capsys, ["bounds", "--T", "2", "--N", "2", "--P-dB", "20,30",
                                  "--trials", "100", "--seed", "6"])
        assert code == 0
        rep = json.loads(out)
        assert rep["warnings"] == ["P=20.0 dB: category 'branch0/middle': no samples to fit"]
        low, high = rep["points"]
        assert "single_user_upper" in low and "mac_user1_upper" not in low
        assert "single_user_upper" in high and "mac_user1_upper" in high
