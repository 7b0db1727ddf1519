import ctypes
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak

from lossyphase import cli, optimizer
from lossyphase.cli import (
    EXIT_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_angle,
)
from lossyphase.optimizer import optimize, pareto_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseAngle:
    def test_tokens(self):
        assert parse_angle("pi/4") == pytest.approx(math.pi / 4.0, abs=0.0)
        assert parse_angle("pi") == pytest.approx(math.pi, abs=0.0)
        assert parse_angle("3*pi/2") == pytest.approx(1.5 * math.pi, abs=1e-15)
        assert parse_angle("-pi/2") == pytest.approx(-math.pi / 2.0, abs=1e-15)

    def test_float_literal(self):
        assert parse_angle("0.7853981633974483") == 0.7853981633974483

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_angle("about pi")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "1e999", "9" * 400 + "*pi"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ValueError, match="not finite"):
            parse_angle(text)

    @pytest.mark.parametrize("text", ["pi/0", "-3*pi/0.0"])
    def test_zero_denominator_rejected(self, text):
        with pytest.raises(ValueError, match="divides by zero"):
            parse_angle(text)


class TestStatePrep:
    def test_fidelity_one(self, capsys):
        code, out, _ = run(capsys, "state-prep", "--chi", "1.7", "--half-n", "1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["result"]["forward_fidelity"] >= 1.0 - 1e-10
        assert doc["version"].startswith("lossyphase ")
        assert "wall_time_ms" in doc

    def test_four_photon_chi_zero(self, capsys):
        # chi = 0 at n = 2 keeps the |2,2> component (amplitude 2/sqrt(6)
        # before normalization); only the n = 1 member of the family is NOON.
        code, out, _ = run(capsys, "state-prep", "--chi", "0", "--half-n", "2")
        assert code == EXIT_OK
        amps = json.loads(out)["result"]["amplitudes_re"]
        ref = [1.0, 0.0, 2.0 / math.sqrt(6.0), 0.0, 1.0]
        norm = math.sqrt(sum(a * a for a in ref))
        for got, want in zip(amps, ref):
            assert got == pytest.approx(want / norm, abs=1e-12)

    def test_out_of_range_chi_exits_2(self, capsys):
        code, _, err = run(capsys, "state-prep", "--chi", "3")
        assert code == EXIT_USAGE
        assert "chi" in err

    @pytest.mark.parametrize("half_n", ["80", "86"])
    def test_overflowing_state_exits_2(self, capsys, half_n):
        # N = 160 once printed an all-zero state with forward_fidelity 0.0.
        code, out, err = run(capsys, "state-prep", "--chi", "1", "--half-n", half_n)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and ("finite" in err or "overflow" in err)


    def test_half_n_beyond_float_factorials_is_named(self, capsys):
        code, out, err = run(capsys, "state-prep", "--chi", "1", "--half-n", "86")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: half_n=86 ")


class TestProbs:
    def test_table_schema(self, capsys):
        code, out, _ = run(capsys, "probs", "--n-photons", "2", "--chi", "1.7",
                           "--eta", "0.6")
        assert code == EXIT_OK
        doc = json.loads(out)["result"]
        assert doc["n_photons"] == 2 and doc["eta"] == 0.6
        assert len(doc["entries"]) == 6
        assert set(doc["entries"][0]) == {"L", "k", "re", "im"}


class TestFisherScan:
    def test_header_and_argmax(self, capsys):
        code, out, _ = run(
            capsys, "fisher-scan", "--n-photons", "2", "--eta", "0.6",
            "--phi", "pi/2", "--theta", "0", "--chi-min", "0",
            "--chi-max", "2", "--chi-step", "0.02",
        )
        assert code == EXIT_OK
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert lines[0] == "chi,fisher"
        rows = [(float(a), float(b)) for a, b in
                (line.split(",") for line in lines[1:])]
        assert len(rows) == 101
        best_chi = max(rows, key=lambda r: r[1])[0]
        assert 0.7 <= best_chi <= 0.9

    def test_noon_probability_zero_row_is_n_squared(self, capsys):
        # Just off a probability zero of the lossless NOON state, where
        # dP^2 / P is 0/0 to rounding: F is N^2 at every phase.
        phi = repr(math.pi / 2.0 + 1e-7)
        code, out, err = run(
            capsys, "fisher-scan", "--n-photons", "2", "--eta", "1.0",
            "--phi", phi, "--theta", "0", "--chi-min", "0",
            "--chi-max", "0", "--chi-step", "0.02",
        )
        assert code == EXIT_OK and err == ""
        chi, f = out.strip().split("\n")[-1].split(",")
        assert chi == "0" and float(f) == pytest.approx(4.0, abs=1e-9)

    def test_degenerate_single_row(self, capsys):
        code, out, _ = run(
            capsys, "fisher-scan", "--n-photons", "2", "--eta", "0.6",
            "--phi", "1.0", "--theta", "0", "--chi-min", "0.5",
            "--chi-max", "0.6", "--chi-step", "5.0",
        )
        assert code == EXIT_OK
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert len(lines) == 2

    def test_zero_denominator_phi_exits_2(self, capsys):
        code, out, err = run(capsys, "fisher-scan", "--n-photons", "2",
                             "--eta", "0.6", "--phi", "pi/0")
        assert code == EXIT_USAGE
        assert "divides by zero" in err and out == ""

    @pytest.mark.parametrize("flag", ["phi", "theta"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_angle_exits_2(self, capsys, flag, value):
        code, out, err = run(capsys, "fisher-scan", "--n-photons", "2",
                             "--eta", "0.6", f"--{flag}={value}")
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: --{flag}: angle {value!r} is not finite\n"

    @pytest.mark.parametrize("step", ["1e-13", "9e-13", "0", "nan"])
    def test_chi_step_below_resolution_exits_2(self, capsys, step):
        # chi advances rounded to 12 decimals, so 1e-13 would never move it.
        code, out, err = run(capsys, "fisher-scan", "--n-photons", "2",
                             "--eta", "0.6", "--chi-step", step)
        assert code == EXIT_USAGE
        assert "chi-step >= 1e-12" in err and out == ""

    @pytest.mark.parametrize("n_photons", ["1", "2"])
    def test_infinite_chi_step_exits_2(self, capsys, n_photons):
        # lo + 0 * inf is nan, so the first point would be chi = nan.
        code, out, err = run(capsys, "fisher-scan", "--n-photons", n_photons,
                             "--eta", "0.6", "--chi-step", "inf")
        assert code == EXIT_USAGE and out == ""
        assert "chi-step >= 1e-12" in err

    @pytest.mark.parametrize("bounds", [("0", "inf"), ("inf", "inf"),
                                        ("0", "nan"), ("nan", "1"), ("-inf", "1")])
    def test_non_finite_chi_range_exits_2(self, bounds):
        # In a subprocess with a timeout: the single-photon scan ignores chi,
        # so an unchecked infinite chi-max would loop for ever.
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-m", "lossyphase.cli", "fisher-scan",
             "--n-photons", "1", "--eta", "0.6",
             f"--chi-min={bounds[0]}", f"--chi-max={bounds[1]}"],
            capture_output=True, text=True, cwd=src, timeout=60)
        assert out.returncode == EXIT_USAGE
        assert "finite chi-max >= chi-min" in out.stderr and out.stdout == ""

    @pytest.mark.parametrize("n_photons", ["1", "2", "4"])
    @pytest.mark.parametrize("bounds", [("0", "40"), ("0", "2.5"), ("-0.5", "1"),
                                        ("1.5", "1")],
                             ids=["max-40", "max-2.5", "min-negative", "min-above-max"])
    def test_chi_range_outside_0_2_exits_2(self, capsys, n_photons, bounds):
        # Checked before the scan for every N: the single photon ignores chi.
        code, out, err = run(capsys, "fisher-scan", "--n-photons", n_photons,
                             "--eta", "0.6", f"--chi-min={bounds[0]}",
                             f"--chi-max={bounds[1]}")
        assert code == EXIT_USAGE and out == ""
        assert "finite chi-max >= chi-min, both in [0, 2]" in err

    def test_dash_value_as_separate_argument(self, capsys):
        # argparse reads "-pi/2" as an option unless it is joined to its flag.
        scan = ("fisher-scan", "--n-photons", "2", "--eta", "0.6",
                "--chi-min", "0.5", "--chi-max", "0.6")
        outs = []
        for phi in (("--phi", "-pi/2"), ("--phi=-pi/2",)):
            code, out, _ = run(capsys, *scan, *phi)
            assert code == EXIT_OK
            outs.append(out.split("\n"))
        assert json.loads(outs[0][0][2:])["config"]["phi"] == -math.pi / 2.0
        assert len(outs[0]) == 9 and outs[0][1:] == outs[1][1:]

    def test_dash_infinity_as_separate_argument_exits_2(self, capsys):
        code, out, err = run(capsys, "fisher-scan", "--n-photons", "1",
                             "--eta", "0.6", "--chi-min", "-inf")
        assert code == EXIT_USAGE
        assert "finite chi-max >= chi-min" in err and out == ""

    def test_negative_number_as_separate_argument(self, capsys):
        code, out, _ = run(capsys, "fisher-scan", "--n-photons", "2", "--eta", "0.6",
                           "--theta", "-0.5", "--chi-min", "0.5", "--chi-max", "0.5")
        assert code == EXIT_OK
        header = json.loads(out.split("\n")[0][2:])
        assert header["config"]["theta"] == -0.5

    def test_chi_points_beyond_work_guard_exit_3(self, capsys, monkeypatch, tmp_path):
        # 2e12 Fisher evaluations are refused before the first one.
        def never(*args):
            raise AssertionError("fisher_information called past the work guard")

        monkeypatch.setattr(cli, "fisher_information", never)
        code, out, err = run(capsys, "fisher-scan", "--n-photons", "2", "--eta", "0.6",
                             "--chi-step", "1e-12", "--output", str(tmp_path / "f.csv"))
        assert code == EXIT_GUARD and out == ""
        assert err == ("error: 2000000000001 chi points exceed the work guard "
                       "1000000 at chi step 1e-12\n")
        assert sorted(tmp_path.iterdir()) == []

    def test_chi_step_at_resolution_accepted(self, capsys):
        code, out, _ = run(
            capsys, "fisher-scan", "--n-photons", "2", "--eta", "0.6",
            "--chi-min", "0.5", "--chi-max", "0.5", "--chi-step", "1e-12",
        )
        assert code == EXIT_OK
        assert out.strip().split("\n")[-1].startswith("0.5,")

    def test_work_guard_counts_the_rows_the_scan_writes(self, monkeypatch):
        # On the 0.1 grid, (hi - lo) / step often rounds just below an
        # integer, e.g. 0.3 / 0.1 = 2.9999999999999996, and the scan still
        # reaches hi: the count must include that point.  The last three
        # steps put a point at 2.000000000001, past hi = 2, which the CSV
        # prints as 2: only the chi handed to the state shows it.
        scanned = []
        monkeypatch.setattr(cli, "fisher_information", lambda *args: 0.0)
        monkeypatch.setattr(cli, "_state_for", lambda n, chi: scanned.append(chi))
        undercounted = 0
        for a in range(21):
            for b in range(a, 21):
                for step in (0.1, 0.02, 0.05, 0.3, 0.07, 0.25, 0.4000000000001,
                             0.6666666666668333, 1.00000000000025):
                    lo, hi = a / 10, b / 10
                    scanned.clear()
                    _, csv = cli.cmd_fisher_scan({
                        "chi_min": lo, "chi_max": hi, "chi_step": step,
                        "n_photons": 2, "eta": 0.6, "phi": 0.0, "theta": 0.0})
                    rows = csv.count("\n") - 1
                    assert optimizer._chi_grid_size(step, lo, hi) == rows, (lo, hi, step)
                    assert float(csv.split("\n")[-2].split(",")[0]) <= hi
                    assert len(scanned) == rows
                    assert all(chi <= hi for chi in scanned), (lo, hi, step)
                    undercounted += int((hi - lo) / step) + 1 < rows
        assert undercounted > 200

    def test_step_whose_last_point_rounds_past_two_stops_before_it(self, capsys):
        # 5 x 0.4000000000001 rounds to 2.000000000001, outside [0, 2].
        code, out, err = run(capsys, "fisher-scan", "--n-photons", "2", "--eta",
                             "0.6", "--chi-step", "0.4000000000001")
        assert code == EXIT_OK, err
        rows = out.strip().split("\n")[2:]
        assert len(rows) == 5 and rows[-1].startswith("1.6,")

    @pytest.mark.parametrize("bounds", [("0", "0.3", "0.1"), ("0.5", "0.5", "1e-12"),
                                        ("0", "2", "0.02")])
    def test_work_guard_refuses_one_row_past_the_budget(self, capsys, monkeypatch,
                                                         bounds):
        args = ["fisher-scan", "--n-photons", "2", "--eta", "0.6"]
        for flag, value in zip(("--chi-min", "--chi-max", "--chi-step"), bounds):
            args += [flag, value]
        code, out, _ = run(capsys, *args)
        rows = len([line for line in out.strip().split("\n")
                    if not line.startswith("#")]) - 1
        assert code == EXIT_OK
        monkeypatch.setattr(optimizer, "PLAN_BUDGET", rows - 1)
        code, out, err = run(capsys, *args)
        assert code == EXIT_GUARD and out == ""
        assert err == (f"error: {rows} chi points exceed the work guard {rows - 1} "
                       f"at chi step {float(bounds[2])!r}\n")


class TestEvaluate:
    def test_exact_single_photon(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--n1", "1", "--eta", "0.6",
                           "--method", "exact")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["result"]["mu"] == pytest.approx(0.3, abs=1e-12)
        assert doc["config"]["method"] == "exact"

    def test_speedup_regression_fixture(self, capsys):
        # (7,1) at chi2 = 1.7, eta = 0.6: the variance-sweep minimum;
        # value pinned after first computation.
        code, out, _ = run(capsys, "evaluate", "--n1", "7", "--n2", "1",
                           "--chi2", "1.7", "--eta", "0.6",
                           "--method", "speedup")
        assert code == EXIT_OK
        doc = json.loads(out)["result"]
        assert doc["holevo_variance"] == pytest.approx(
            0.2963458477377132, abs=1e-9
        )
        assert doc["branches_evaluated"] == (2 ** 8 - 1) * 6

    def test_branch_guard_exits_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "evaluate", "--n1", "2", "--n2", "2", "--chi2", "1.8",
            "--n4", "6", "--chi4", "1.3", "--eta", "0.6", "--method", "exact",
            "--output", str(tmp_path / "o.json"),
        )
        assert code == EXIT_GUARD
        assert "guard" in err
        assert sorted(tmp_path.iterdir()) == []

    def test_out_of_range_chi_of_absent_state_exits_2(self, capsys):
        code, out, err = run(capsys, "evaluate", "--n1", "1", "--chi2", "7",
                             "--eta", "0.6")
        assert code == EXIT_USAGE
        assert "chi2" in err
        assert out == ""

    @pytest.mark.parametrize("method", ["exact", "speedup", "mc"])
    def test_zero_trials_exits_2_for_every_method(self, capsys, method):
        # The artifact records trials for every method, so it is checked for
        # every method, not only where Monte Carlo reads it.
        code, out, err = run(capsys, "evaluate", "--n1", "1", "--eta", "0.6",
                             "--method", method, "--trials", "0")
        assert code == EXIT_USAGE
        assert err == "error: --trials: 0 is below 1\n"
        assert out == ""
        code, _, err = run(capsys, "optimize", "--n", "1", "--eta", "0.6",
                           "--method", method, "--trials", "-3")
        assert code == EXIT_USAGE
        assert err == "error: --trials: -3 is below 1\n"

    @pytest.mark.parametrize("method", ["exact", "speedup", "mc"])
    def test_negative_seed_exits_2_for_every_method(self, capsys, tmp_path, method):
        # numpy would reject it under mc without naming the flag, and the
        # other methods would write it to the artifact.
        code, out, err = run(capsys, "evaluate", "--n1", "2", "--eta", "0.6",
                             "--method", method, "--trials", "10", "--seed", "-1")
        assert (code, out, err) == (EXIT_USAGE, "", "error: --seed: -1 is negative\n")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n1": 2, "eta": 0.6, "method": method, "seed": -4}))
        code, out, err = run(capsys, "--config", str(cfg), "evaluate")
        assert (code, out, err) == (EXIT_USAGE, "", "error: --seed: -4 is negative\n")

    def test_mc_is_seeded(self, capsys):
        argv = ("evaluate", "--n1", "1", "--eta", "0.6", "--method", "mc",
                "--trials", "2000", "--seed", "9")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        a, b = json.loads(out1), json.loads(out2)
        assert a["result"]["mu"] == b["result"]["mu"]
        assert a["seed"] == 9


class TestOptimize:
    def test_tiny_instance(self, capsys):
        code, out, _ = run(capsys, "optimize", "--n", "3", "--eta", "1.0",
                           "--chi-step", "0.5")
        assert code == EXIT_OK
        doc = json.loads(out)["result"]
        assert doc["best_variance"] <= doc["sql_baseline"] + 1e-12

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "optimize", "--n", "2",
                           "--eta", "0.9", "--chi-step", "1.0")
        assert code == EXIT_OK
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert lines[0] == "n1,n2,chi2,n4,chi4,eta,mu,holevo_variance,branches,method"


    @pytest.mark.parametrize("argv, message", [
        (("--n", "3", "--chi-step", "1e-9"),
         "2000000002 plans exceed the work guard 1000000 for optimize --n 3 "
         "--chi-step 1e-09"),
        (("--n", "19"),
         "16695879987 records exceed the work guard 10000000000 for optimize "
         "--n 19 --chi-step 0.1 --method speedup"),
        (("--n", "9", "--method", "mc", "--trials", "100000000"),
         "100900000000 trials exceed the work guard 10000000000 for optimize "
         "--n 9 --chi-step 0.1 --method mc"),
        (("--n", "3", "--chi-step", "1e-310"),
         "chi step 1e-310 gives too many chi points to count, beyond the work "
         "guard 1000000"),
    ], ids=["plans", "records", "trials", "uncountable"])
    def test_work_beyond_guard_exits_3_before_enumerating(self, capsys, monkeypatch,
                                                          tmp_path, argv, message):
        # Counted from the arguments: no plan is built.
        def never(*args):
            raise AssertionError("plans enumerated past the work guard")

        monkeypatch.setattr("lossyphase.optimizer.enumerate_plans", never)
        code, out, err = run(capsys, "optimize", "--eta", "0.6", *argv,
                             "--output", str(tmp_path / "o.json"))
        assert code == EXIT_GUARD and out == ""
        assert err == f"error: {message}\n"
        assert sorted(tmp_path.iterdir()) == []

    def test_chi_grid_beyond_guard_exits_3_before_building_it(self, capsys, tmp_path):
        # One plan passes the work guard, and its 2,000,000,001-point chi
        # grid is refused before a point is built.
        argv = ["optimize", "--n", "1", "--eta", "0.6", "--chi-step", "1e-9",
                "--output", str(tmp_path / "o.json")]
        codes = []
        assert traced_peak(lambda: codes.append(main(argv))) < 2 ** 20
        captured = capsys.readouterr()
        assert codes == [EXIT_GUARD] and captured.out == ""
        assert captured.err == ("error: 2000000001 chi points exceed the work guard 1000000 "
                       "at chi step 1e-09\n")
        assert sorted(tmp_path.iterdir()) == []

    def test_sql_baseline_is_the_single_photon_row(self, capsys):
        # At N=26 the SQL plan is beyond the exact branch guard, so the
        # baseline must come from the evaluated table, not a re-evaluation.
        code, out, _ = run(capsys, "optimize", "--n", "26", "--eta", "0.6",
                           "--chi-step", "2", "--method", "mc",
                           "--trials", "2")
        assert code == EXIT_OK
        doc = json.loads(out)["result"]
        first = doc["pareto_table"][0]
        assert (first["plan"]["n1"], first["plan"]["n2"],
                first["plan"]["n4"]) == (26, 0, 0)
        assert doc["sql_baseline"] == first["report"]["holevo_variance"]


    @pytest.mark.parametrize("method", ["speedup", "exact"])
    def test_eta_zero_reports_inf(self, capsys, method):
        code, out, err = run(capsys, "optimize", "--n", "2", "--eta", "0",
                             "--chi-step", "1", "--method", method)
        assert code == EXIT_OK, err
        doc = json.loads(out)["result"]
        assert doc["best_variance"] == "inf"
        assert doc["sql_baseline"] == "inf"
        assert doc["best_plan"]["n1"] == 2

    def test_csv_rerun_is_byte_identical(self, capsys):
        argv = ("--format", "csv", "optimize", "--n", "5", "--eta", "0.6",
                "--chi-step", "0.5")
        runs = []
        for _ in range(2):
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            runs.append([l for l in out.splitlines() if not l.startswith("#")])
        assert len(runs[0]) == 17
        assert runs[0] == runs[1]


class TestEnvironment:
    def test_blas_threads_recorded_outside_result(self, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        want = {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None,
                "cpu_count": os.cpu_count()}
        code, out, _ = run(capsys, "evaluate", "--n1", "1", "--eta", "0.6")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["environment"] == want
        assert "environment" not in doc["result"]
        code, out, _ = run(capsys, "--format", "csv", "optimize", "--n", "2",
                           "--eta", "0.9", "--chi-step", "1.0")
        assert code == EXIT_OK
        meta = [l for l in out.splitlines() if l.startswith("#")]
        assert len(meta) == 1
        assert json.loads(meta[0][1:])["environment"] == want

    def test_blas_threads_capped_only_when_unset(self, monkeypatch):
        libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                      .glob("libscipy_openblas*"))
        if not libs:
            pytest.skip("numpy has no bundled OpenBLAS")
        lib = ctypes.CDLL(str(libs[0]))
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        get.restype = ctypes.c_int
        before = get()
        try:
            put(2)
            wide = get()  # 1 on a one-core host
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            monkeypatch.setenv("OMP_NUM_THREADS", "2")
            assert cli._cap_blas_threads() is None and get() == wide
            monkeypatch.delenv("OMP_NUM_THREADS")
            assert cli._cap_blas_threads() == 1 and get() == 1
        finally:
            put(before)


class TestConfigFile:
    @pytest.mark.parametrize("key, value, kind", [
        ("n1", 2.7, "an integer"), ("n1", True, "an integer"),
        ("n1", math.inf, "an integer"), ("eta", True, "a number"),
    ], ids=["fraction", "bool", "inf", "bool-float"])
    def test_bool_or_non_integral_number_exits_2(self, capsys, tmp_path, key, value, kind):
        # int() would truncate 2.7 to 2 and read true as 1, float() true as 1.0.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n1": 1, "eta": 0.6, key: value}))
        code, out, err = run(capsys, "--config", str(cfg), "evaluate")
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: --{key}: {value!r} is not {kind}\n"

    def test_integral_float_reads_as_integer(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"n1": 2.0, "eta": 0.6, "method": "mc", "trials": 1e5, '
                       '"seed": 3.0}')
        code, out, err = run(capsys, "--config", str(cfg), "evaluate")
        assert code == EXIT_OK, err
        config = json.loads(out)["config"]
        assert (config["n1"], config["trials"], config["seed"]) == (2, 100000, 3)
        assert all(type(config[k]) is int for k in ("n1", "trials", "seed"))

    def test_exponent_reads_as_integer_in_config_only(self, capsys, tmp_path):
        # argparse casts a flag with int(), which takes no exponent.
        cfg = tmp_path / "run.json"
        cfg.write_text('{"n1": 2, "eta": 0.6, "method": "mc", "trials": 1e3}')
        code, out, err = run(capsys, "--config", str(cfg), "evaluate")
        assert code == EXIT_OK, err
        assert json.loads(out)["config"]["trials"] == 1000
        code, out, err = run(capsys, "evaluate", "--n1", "2", "--eta", "0.6",
                             "--method", "mc", "--trials", "1e3")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith("error: argument --trials: invalid int value: '1e3'\n")

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n1": 1, "eta": 0.3, "method": "exact"}))
        code, out, _ = run(capsys, "--config", str(cfg), "evaluate",
                           "--eta", "0.6")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["eta"] == 0.6      # flag wins
        assert doc["config"]["n1"] == 1         # config fills the rest
        assert doc["result"]["mu"] == pytest.approx(0.3, abs=1e-12)

    def test_unknown_optimize_method_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 2, "eta": 0.6, "method": "bogus"}))
        code, out, err = run(capsys, "--config", str(cfg), "optimize")
        assert code == EXIT_USAGE
        assert "bogus" in err
        assert out == ""

    @pytest.mark.parametrize("step", ["1e-9", "0.5"])
    def test_unknown_optimize_method_is_refused_first(self, capsys, tmp_path,
                                                      monkeypatch, step):
        # At 1e-9 the work guard would trip (exit 3); at 0.5 every plan
        # would be built before the method was read.
        def no_plans(*args):
            raise AssertionError("plans built before the method was checked")

        monkeypatch.setattr(optimizer, "enumerate_plans", no_plans)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"method": "foo"}))
        code, out, err = run(capsys, "--config", str(cfg), "optimize", "--n", "3",
                             "--eta", "0.6", "--chi-step", step)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: unknown method 'foo': expected exact, speedup or mc\n"

    def test_unknown_evaluate_method_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n1": 1, "eta": 0.6, "method": "bogus"}))
        code, out, err = run(capsys, "--config", str(cfg), "evaluate")
        assert code == EXIT_USAGE
        assert "bogus" in err
        assert out == ""

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run(capsys, "--config", "/nonexistent.json",
                           "evaluate", "--eta", "0.6")
        assert code == EXIT_USAGE

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "artifact.json"
        code, _, _ = run(capsys, "--output", str(out_path), "evaluate",
                         "--n1", "1", "--eta", "0.6", "--method", "exact")
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["result"]["mu"] == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("argv, n_rows", [
        (("optimize", "--n", "4", "--eta", "0.6", "--chi-step", "1.0"), 10),
        (("probs", "--n-photons", "2", "--chi", "1.0", "--eta", "0.6"), None),
    ], ids=["optimize", "probs"])
    def test_artifact_config_reruns(self, capsys, tmp_path, argv, n_rows):
        # The artifact records chi_step / n_photons; fed back, they must be
        # read, not skipped in favour of the defaults.
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        first = json.loads(out)
        cfg = tmp_path / "artifact_config.json"
        cfg.write_text(json.dumps(first["config"]))
        code, out, err = run(capsys, "--config", str(cfg), argv[0])
        assert code == EXIT_OK, err
        again = json.loads(out)
        assert again["config"] == first["config"]
        assert _drop_wall_time(again["result"]) == _drop_wall_time(first["result"])
        if n_rows is not None:
            assert len(again["result"]["pareto_table"]) == n_rows

    @pytest.mark.parametrize("text, needle", [
        (json.dumps({"n": 2, "eta": 0.6, "chi_stp": 1.0}), "chi_stp"),
        (json.dumps({"n": 2, "eta": 0.6, "n1": 1}), "'n1'"),
        ("[1, 2]", "JSON object"),
        (json.dumps({"n": [9], "eta": 0.6}), "error: --n: "),
    ], ids=["misspelt", "other-command", "not-an-object", "list-value"])
    def test_bad_config_key_exits_2(self, capsys, tmp_path, text, needle):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        code, out, err = run(capsys, "--config", str(cfg), "optimize")
        assert code == EXIT_USAGE
        assert needle in err
        assert out == ""


class TestArtifactWriter:
    OPTIMIZE = ("optimize", "--n", "4", "--eta", "0.6", "--chi-step", "1.0")

    @pytest.mark.parametrize("where", ["missing/o.json", "."],
                             ids=["no-directory", "a-directory"])
    def test_unwritable_output_exits_2_before_the_search(
            self, capsys, monkeypatch, tmp_path, where):
        calls = []
        monkeypatch.setattr(cli, "optimize", lambda *a, **k: calls.append(a))
        target = tmp_path / where
        code, out, err = run(capsys, *self.OPTIMIZE, "--output", str(target))
        assert (code, out, calls) == (EXIT_USAGE, "", [])
        assert err.startswith("error: --output: ")
        assert sorted(tmp_path.iterdir()) == []

    def test_unwritable_sidecar_exits_2_before_the_search(
            self, capsys, monkeypatch, tmp_path):
        # A directory where the .csv sidecar goes: nothing is written, not
        # even the JSON artifact beside it.
        calls = []
        monkeypatch.setattr(cli, "optimize", lambda *a, **k: calls.append(a))
        (tmp_path / "o.json.csv").mkdir()
        target = tmp_path / "o.json"
        code, out, err = run(capsys, *self.OPTIMIZE, "--output", str(target))
        assert (code, out, calls) == (EXIT_USAGE, "", [])
        assert err == f"error: --output: {target}.csv is a directory\n"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "o.json.csv"]
        assert list((tmp_path / "o.json.csv").iterdir()) == []
        # As CSV the artifact is the one file, so the directory is no obstacle.
        monkeypatch.undo()
        code, _, err = run(capsys, "--format", "csv", *self.OPTIMIZE,
                           "--output", str(target))
        assert code == EXIT_OK, err
        assert target.read_text().startswith("# {")

    def test_json_bytes_are_the_encoders(self, capsys, tmp_path):
        # Floats read back exactly, so the stdout artifact re-encodes to
        # itself; the writer's edge values (non-finite, non-ASCII, empty)
        # are checked on the writer itself, to a file and to stdout.
        code, out, _ = run(capsys, *self.OPTIMIZE)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        doc["edge"] = {"inf": math.inf, "nan": math.nan, "text": "\u03c7\u00b2",
                       "empty": [[], {}], "none": None, "flag": True}
        want = json.dumps(doc, indent=2) + "\n"
        cli._emit(doc, str(tmp_path / "o.json"))
        cli._emit(doc, None)
        assert (tmp_path / "o.json").read_bytes() == want.encode()
        assert capsys.readouterr().out == want

    def test_csv_sidecar_bytes_are_kept(self, capsys, tmp_path):
        target = tmp_path / "o.json"
        code, _, _ = run(capsys, *self.OPTIMIZE, "--output", str(target))
        assert code == EXIT_OK
        text = (tmp_path / "o.json.csv").read_text()
        comment, body = text.split("\n", 1)
        assert comment.startswith("# {")
        assert body == pareto_csv(optimize(4, 0.6, chi_grid_step=1.0))
        cli._emit(text, str(target))
        assert target.read_bytes() == text.encode()

    def test_artifact_memory_stays_bounded(self, monkeypatch, tmp_path):
        # Encoding the N=9 artifact into one string before writing it
        # peaked at about 5 times the result's own to_json_dict; written as
        # it is encoded, the document and the CSV body set the peak.
        result = optimize(9, 0.6, chi_grid_step=0.1)
        monkeypatch.setattr(cli, "optimize", lambda *a, **k: result)
        argv = ["optimize", "--n", "9", "--eta", "0.6",
                "--output", str(tmp_path / "o.json")]
        assert main(argv) == EXIT_OK
        assert traced_peak(main, argv) <= 2 * traced_peak(result.to_json_dict)


def _drop_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _drop_wall_time(v) for k, v in obj.items() if k != "wall_time_ms"}
    if isinstance(obj, list):
        return [_drop_wall_time(v) for v in obj]
    return obj


def _artifact_config(out: str) -> dict:
    if out.startswith("#"):
        return json.loads(out.splitlines()[0][1:])["config"]
    return json.loads(out)["config"]


# Per command: flags (integer-valued floats check the casts) and the
# artifact config's parameter keys and types, in order.
CONFIG_CONTRACT = {
    "state-prep": (("--chi", "1"), (("chi", float), ("half_n", int))),
    "probs": (("--n-photons", "2", "--eta", "1"),
              (("n_photons", int), ("chi", float), ("eta", float))),
    "fisher-scan": (
        ("--n-photons", "2", "--eta", "1", "--phi", "1", "--chi-step", "1"),
        (("n_photons", int), ("eta", float), ("phi", float), ("theta", float),
         ("chi_min", float), ("chi_max", float), ("chi_step", float))),
    "evaluate": (("--n1", "2", "--chi2", "1", "--eta", "1", "--trials", "7"),
                 (("n1", int), ("n2", int), ("chi2", float), ("n4", int),
                  ("chi4", float), ("eta", float), ("method", str),
                  ("trials", int))),
    "optimize": (("--n", "2", "--eta", "1", "--chi-step", "1"),
                 (("n", int), ("eta", float), ("chi_step", float),
                  ("method", str), ("trials", int))),
}


@pytest.mark.parametrize("command", list(CONFIG_CONTRACT))
def test_config_contract(capsys, tmp_path, command):
    flags, params = CONFIG_CONTRACT[command]
    code, out, err = run(capsys, command, *flags, "--seed", "3")
    assert code == EXIT_OK, err
    from_flags = _artifact_config(out)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**{flag[2:]: json.loads(value) for flag, value
                                  in zip(flags[::2], flags[1::2])}, "seed": 3}))
    code, out, err = run(capsys, "--config", str(cfg), command)
    assert code == EXIT_OK, err
    from_file = _artifact_config(out)
    for config in (from_flags, from_file):
        assert list(config) == ["command", *(k for k, _ in params), "seed"]
        assert config["command"] == command and config["seed"] == 3
        for key, kind in params:
            assert type(config[key]) is kind, key
    assert from_file == from_flags


def test_csv_format_on_evaluate_still_emits_json(capsys):
    code, out, _ = run(capsys, "--format", "csv", "evaluate", "--n1", "1",
                       "--eta", "0.6", "--method", "exact")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["config"]["command"] == "evaluate"
    assert doc["result"]["mu"] == pytest.approx(0.3, abs=1e-12)


def test_json_format_on_fisher_scan_still_emits_csv(capsys):
    # --format is read by optimize alone: fisher-scan writes its CSV either way.
    scan = ("fisher-scan", "--n-photons", "2", "--eta", "0.6", "--phi", "1.0",
            "--theta", "0", "--chi-min", "0.5", "--chi-max", "0.7", "--chi-step", "0.1")
    _, default, _ = run(capsys, *scan)
    for argv in (("--format", "json") + scan, scan + ("--format", "json")):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].startswith("# {") and lines[1] == "chi,fisher"
        assert lines[1:] == default.strip().split("\n")[1:]
        assert len(lines) == 5


def test_missing_required_parameter(capsys):
    code, _, err = run(capsys, "probs", "--chi", "1.0", "--eta", "0.5")
    assert code == EXIT_USAGE
    assert "n-photons" in err


# Edge inputs: each either runs or fails with a documented exit code and a
# one-line `error:` message, never an uncaught exception.
EDGE_ARGVS = {
    "optimize-eta-0": ("optimize", "--n", "2", "--eta", "0", "--chi-step", "1"),
    "optimize-n-0": ("optimize", "--n", "0", "--eta", "0.6"),
    "optimize-eta-1.5": ("optimize", "--n", "2", "--eta", "1.5"),
    "optimize-chi-step-0": ("optimize", "--n", "2", "--eta", "0.6",
                            "--chi-step", "0"),
    "evaluate-no-photons": ("evaluate", "--eta", "0.6"),
    "evaluate-eta-0": ("evaluate", "--n1", "2", "--eta", "0"),
    "evaluate-trials-0": ("evaluate", "--n1", "1", "--eta", "0.6",
                          "--method", "mc", "--trials", "0"),
    "evaluate-n1-negative": ("evaluate", "--n1", "-1", "--eta", "0.6"),
    "evaluate-chi2-3": ("evaluate", "--n1", "1", "--chi2", "3", "--eta", "0.6"),
    "probs-n-photons-3": ("probs", "--n-photons", "3", "--eta", "0.6"),
    "probs-chi-3": ("probs", "--n-photons", "2", "--chi", "3", "--eta", "0.6"),
    "fisher-scan-eta-0": ("fisher-scan", "--n-photons", "2", "--eta", "0"),
    "state-prep-chi-3": ("state-prep", "--chi", "3"),
    "state-prep-half-n-0": ("state-prep", "--chi", "1", "--half-n", "0"),
}


@pytest.mark.parametrize("argv", EDGE_ARGVS.values(), ids=EDGE_ARGVS.keys())
def test_edge_inputs_exit_cleanly(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_GUARD)
    assert "Traceback" not in err
    if code == EXIT_USAGE:
        assert err.startswith("error:"), err
