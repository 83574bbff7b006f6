import contextlib
import io
import json
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simomac import __version__, cli, converse
from simomac.channel import FADING_KINDS, ChannelConfig, InputDistribution
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
        assert set(rep) == {"version", "libraries", "command", "config",
                            "points", "slopes", "warnings"}
        assert len(rep["points"]) == 2
        pt = rep["points"][0]
        for key in ("single_user_upper", "mac_user1_upper",
                    "single_user_training", "mac_training", "slack_bits"):
            assert key in pt
        assert rep["slopes"][0]["from_dB"] == 20.0
        assert rep["config"]["regime"] == "T_ge_N_plus_1"

    @pytest.mark.parametrize("t", [2, 4])
    def test_a_bound_has_one_report_format(self, capsys, t):
        # each bound entry is the library's BoundReport as it is, keyed by
        # its fields: the branched (V, U) MAC genie at T = 2, the
        # (T-1)-slot genie at T = 4
        p_dbs, trials, seed = (20.0, 30.0), 8_000, 7
        code, out = _run(capsys, ["bounds", "--T", str(t), "--N", "2", "--P-dB", "20,30",
                                  "--trials", str(trials), "--seed", str(seed)])
        assert code == 0
        powers = [cli._power(p_db) for p_db in p_dbs]
        cfg = ChannelConfig(T=t, N=2, P=powers[0], trials=trials, seed=seed)
        iso = InputDistribution(kind="isotropic_peak", T=t, P=cfg.P)
        single, mac = converse.duality_bounds(iso, iso, cfg, powers=powers)
        names = {f.name for f in fields(converse.BoundReport)}
        points = json.loads(out)["points"]
        assert len(points) == len(p_dbs)
        for pt, *reps in zip(points, single, mac):
            for key, rep in zip(("single_user_upper", "mac_user1_upper"), reps):
                assert pt[key] == json.loads(json.dumps(asdict(rep)))
                assert set(pt[key]) == names

    def test_negative_db_list(self, capsys):
        code, out = _run(capsys, ["bounds", "--T", "2", "--N", "2",
                                  "--P-dB", "-10,30", "--trials", "2000"])
        assert code == 0
        assert json.loads(out)["config"]["P_dB"] == [-10.0, 30.0]

    def test_single_slot_exit_2(self, capsys):
        # the MAC bound's genie follows (T, N), and at T = 1 there is none
        code = main(["bounds", "--T", "1", "--N", "2", "--P-dB", "20", "--trials", "100"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        _assert_one_error_line(captured.err)
        assert "the MAC bound needs T >= 2" in captured.err

    def test_empty_evaluation_half_exit_2(self, capsys):
        code = main(["bounds", "--T", "4", "--N", "2", "--P-dB", "20",
                     "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        _assert_one_error_line(captured.err)

    def test_slopes_need_both_bounds(self, capsys, monkeypatch):
        real = cli.duality_bounds

        def no_mac_bound(*args, powers, **kwargs):
            single, _ = real(*args, powers=powers, **kwargs)
            return single, [InvalidRegime("category 'last': mean ||A Y||^2 <= 1")] * len(powers)

        monkeypatch.setattr(cli, "duality_bounds", no_mac_bound)
        code, out = _run(capsys, ["bounds", "--T", "4", "--N", "2",
                                  "--P-dB", "20,30", "--trials", "2000"])
        assert code == 0
        rep = json.loads(out)
        assert rep["slopes"] == []
        assert len(rep["warnings"]) == 2
        assert all("single_user_upper" in pt and "mac_user1_upper" not in pt
                   for pt in rep["points"])

    def test_failed_single_user_bound_keeps_the_mac_bound(self, capsys, monkeypatch):
        # each bound fails on its own: the single-user error is warned
        # about once per point, and the finite MAC bound is still reported
        real = cli.duality_bounds

        def no_single_user_bound(*args, powers, **kwargs):
            _, mac = real(*args, powers=powers, **kwargs)
            lost = InvalidRegime("category 'offpilot': mean ||A Y||^2 <= 1")
            return [lost] * len(powers), mac

        monkeypatch.setattr(cli, "duality_bounds", no_single_user_bound)
        code, out = _run(capsys, ["bounds", "--T", "4", "--N", "2",
                                  "--P-dB", "20,30", "--trials", "2000"])
        assert code == 0
        rep = json.loads(out)
        assert rep["slopes"] == []
        assert rep["warnings"] == [f"P={p} dB: category 'offpilot': mean ||A Y||^2 <= 1"
                                   for p in ("20.0", "30.0")]
        assert all("mac_user1_upper" in pt and "single_user_upper" not in pt
                   for pt in rep["points"])
        assert all(np.isfinite(pt["mac_user1_upper"]["value"]) for pt in rep["points"])

    def test_one_pass_for_both_bounds(self, capsys, monkeypatch):
        # both bounds of the whole power grid come from one fit pass and
        # one evaluation pass
        passes = []
        real = converse.streamed
        monkeypatch.setattr(converse, "streamed",
                            lambda *args, **kwargs: passes.append(1) or real(*args, **kwargs))
        code, out = _run(capsys, ["bounds", "--T", "4", "--N", "2",
                                  "--P-dB", "20,30", "--trials", "2000"])
        assert code == 0 and len(passes) == 2
        assert all("single_user_upper" in pt and "mac_user1_upper" in pt
                   for pt in json.loads(out)["points"])

    def test_low_snr_warning(self, capsys):
        code, out = _run(capsys, ["bounds", "--T", "2", "--N", "1",
                                  "--P-dB", "-20", "--trials", "4000",
                                  "--seed", "0"])
        assert code == 0
        rep = json.loads(out)
        assert rep["warnings"]


class TestVerify:
    @pytest.mark.parametrize("suite", ["lemmas", "region", "optimizer", "props"])
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


class TestBoundsNonpilotPool:
    @pytest.mark.parametrize("trials,seed", [(40, 2), (100, 4), (100, 8), (100, 11), (100, 0)])
    def test_t2_point_fits_on_the_nonpilot_pool(self, capsys, trials, seed):
        # at T = 2 only branch 0 has a middle slot; with too few fit trials
        # there, or their mean <= 1, it is fitted on the pool of every
        # non-pilot group and the point is kept
        code, out = _run(capsys, ["bounds", "--T", "2", "--N", "2", "--P-dB", "20",
                                  "--trials", str(trials), "--seed", str(seed)])
        assert code == 0
        rep = json.loads(out, parse_constant=pytest.fail)
        assert rep["warnings"] == []
        (pt,) = rep["points"]
        for key in ("single_user_upper", "mac_user1_upper"):
            assert pt[key]["eval_trials"] == trials // 2
        mac = pt["mac_user1_upper"]
        assert mac["nonpilot_pooled_fit"] == ["branch0/middle"]
        assert "branch0/middle" in mac["fitted"] and "branch0/middle" not in mac["pooled_fit"]
        assert pt["single_user_upper"]["nonpilot_pooled_fit"] is None


class TestBoundsPowerGrid:
    def test_repeated_power_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--T", "4", "--N", "2", "--P-dB", "20,20"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repeated power" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("p_db", ["300", "1600", "3000", "20,3100"])
    def test_power_beyond_300_db_exit_2(self, capsys, p_db):
        code = main(["bounds", "--T", "4", "--N", "2", "--P-dB", p_db, "--trials", "200"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        _assert_one_error_line(captured.err)
        assert "300 dB" in captured.err

    def test_145_db_still_reports(self, capsys):
        code, out = _run(capsys, ["bounds", "--T", "4", "--N", "2", "--P-dB", "145",
                                  "--trials", "2000"])
        assert code == 0
        pt = json.loads(out, parse_constant=pytest.fail)["points"][0]
        assert "single_user_upper" in pt and "mac_user1_upper" in pt

    def test_149_db_reports_finite_bounds(self, capsys):
        # the whitened norms are a sum of non-negative parts: none
        # underflows to the origin
        code, out = _run(capsys, ["bounds", "--T", "3", "--N", "4", "--P-dB", "149",
                                  "--trials", "20000", "--seed", "3"])
        assert code == 0
        rep = json.loads(out, parse_constant=pytest.fail)
        (pt,) = rep["points"]
        assert rep["warnings"] == []
        for key in ("single_user_upper", "mac_user1_upper"):
            assert np.isfinite(pt[key]["value"]) and np.isfinite(pt[key]["std_error"])

    @pytest.mark.parametrize("t,n", [("3", "4"), ("4", "2")])
    def test_up_to_290_db_reports_without_warnings(self, capsys, t, n):
        code, out = _run(capsys, ["bounds", "--T", t, "--N", n, "--P-dB", "150,200,250,290",
                                  "--trials", "20000", "--seed", "3"])
        assert code == 0
        rep = json.loads(out, parse_constant=pytest.fail)
        assert rep["warnings"] == []
        for pt in rep["points"]:
            for key in ("single_user_upper", "mac_user1_upper"):
                assert np.isfinite(pt[key]["value"]) and np.isfinite(pt[key]["std_error"])

    def test_one_failed_point_keeps_the_others(self, capsys, monkeypatch):
        # only the 20 dB point's MAC bound fails, so only it is lost
        real = cli.duality_bounds

        def no_low_mac_bound(*args, powers, **kwargs):
            single, mac = real(*args, powers=powers, **kwargs)
            lost = InvalidRegime("category 'branch0/middle': no samples to fit")
            return single, [lost] + mac[1:]

        monkeypatch.setattr(cli, "duality_bounds", no_low_mac_bound)
        code, out = _run(capsys, ["bounds", "--T", "2", "--N", "2", "--P-dB", "20,30",
                                  "--trials", "100", "--seed", "0"])
        assert code == 0
        rep = json.loads(out)
        assert rep["warnings"] == ["P=20.0 dB: category 'branch0/middle': no samples to fit"]
        low, high = rep["points"]
        assert "single_user_upper" in low and "mac_user1_upper" not in low
        assert "single_user_upper" in high and "mac_user1_upper" in high


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    t=st.integers(1, 6),
    n=st.integers(1, 4),
    trials=st.integers(1, 300),
    p_dbs=st.lists(st.integers(-20, 60), min_size=1, max_size=3, unique=True),
    fading=st.sampled_from(FADING_KINDS),
    seed=st.integers(min_value=0),
)
def test_bounds_exit_0_with_finite_json_or_exit_2_with_one_error_line(
        t, n, trials, p_dbs, fading, seed):
    # capsys is not reset between examples, so each example captures its own
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["bounds", "--T", str(t), "--N", str(n),
                     "--P-dB", ",".join(map(str, p_dbs)), "--trials", str(trials),
                     "--fading", fading, "--seed", str(seed)])
    if code == 0:
        rep = json.loads(out.getvalue(), parse_constant=pytest.fail)
        assert [pt["P_dB"] for pt in rep["points"]] == p_dbs
    else:
        assert code == 2
        assert out.getvalue() == ""
        _assert_one_error_line(err.getvalue())


def test_cli_imports_no_scipy_submodule():
    # scipy.special and scipy.spatial (with scipy.sparse behind it) were
    # most of the start-up time; an estimate in the numpy search's
    # dimensions must not load the k-d tree either, nor a bounds run
    # (psi(N) of the conditioned statistic) scipy.special
    code = ("import contextlib, io, sys, numpy as np, simomac.cli\n"
            "from simomac.knn_entropy import _ENGINE_MIN_DIM, knn_entropy_bits\n"
            "knn_entropy_bits(np.random.default_rng(0).normal(size=(50, _ENGINE_MIN_DIM)))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert simomac.cli.main(['bounds', '--T', '3', '--N', '4', '--P-dB', '20',\n"
            "                               '--trials', '400']) == 0\n"
            "print(' '.join(sorted(sys.modules)))")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True).stdout.split()
    assert "simomac.cli" in loaded
    for name in ("scipy.special", "scipy.spatial", "scipy.sparse", "scipy.linalg"):
        assert name not in loaded
