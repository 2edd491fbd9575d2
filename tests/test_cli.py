import json
from pathlib import Path

import numpy as np
import pytest

from wgstate.cli import main
from wgstate.stategen import weighted_graph_state
from wgstate.tomography import TomographyDataset, simulate_tomography, write_dataset_csv
from make_goldens import GOLDEN_DIR, run_all


def run(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return main(argv)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestGoldenFiles:
    def test_outputs_match_goldens(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        names = run_all(tmp_path)
        assert names, "golden runs produced no files"
        missing = [n for n in names if not (GOLDEN_DIR / n).exists()]
        assert not missing, f"golden files missing (regenerate): {missing}"
        deviating = [name for name in names
                     if (tmp_path / name).read_bytes() != (GOLDEN_DIR / name).read_bytes()]
        assert not deviating, f"outputs deviate from goldens: {deviating}"


class TestStateCommand:
    def test_pi_amplitudes(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch,
                   ["state", "--phi12", "3.14159265", "--out", "g.json",
                    "--no-timestamp"]) == 0
        data = load_json(tmp_path / "g.json")
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        assert np.allclose(amps, [0.5, 0.5, 0.5, -0.5], atol=1e-7)

    def test_zero_weight_is_product_state(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch,
                   ["state", "--phi12", "0", "--out", "p.json",
                    "--no-timestamp"]) == 0
        data = load_json(tmp_path / "p.json")
        assert data["concurrence"] == pytest.approx(0.0, abs=1e-9)

    def test_pipeline_agrees_with_direct(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        phi = "2.356194490192345"
        assert main(["state", "--phi12", phi, "--out", "direct.json",
                     "--no-timestamp"]) == 0
        assert main(["state", "--phi12", phi, "--pipeline", "--out", "pipe.json",
                     "--no-timestamp"]) == 0
        direct = load_json(tmp_path / "direct.json")
        pipe = load_json(tmp_path / "pipe.json")
        a = np.array([complex(re, im) for re, im in direct["amplitudes"]])
        b = np.array([complex(re, im) for re, im in pipe["amplitudes"]])
        assert abs(np.vdot(a, b)) ** 2 >= 1 - 1e-10
        assert pipe["postselect_probability"] == pytest.approx(0.5, abs=1e-12)

    def test_manifest_written(self, tmp_path, monkeypatch):
        run(tmp_path, monkeypatch,
            ["state", "--phi12", "1.0", "--out", "s.json", "--no-timestamp"])
        manifest = load_json(tmp_path / "s.json.manifest.json")
        assert manifest["command"] == "state"
        assert "s.json" in manifest["outputs"]
        assert "timestamp" not in manifest


class TestQfiCommand:
    def test_endpoint_rows(self, tmp_path, monkeypatch):
        run(tmp_path, monkeypatch,
            ["qfi", "--grid", "3", "--out", "q.csv", "--no-timestamp"])
        rows = (tmp_path / "q.csv").read_text().splitlines()
        assert rows[0] == "phi12,F_Q,QCRB,SQL,HL"
        first = [float(x) for x in rows[1].split(",")]
        last = [float(x) for x in rows[-1].split(",")]
        assert first[1] == pytest.approx(1.0)
        assert last[1] == pytest.approx(4.0)
        assert last[2] == pytest.approx(0.25)
        assert all(float(r.split(",")[3]) == 0.5 for r in rows[1:])

    def test_single_weight(self, tmp_path, monkeypatch):
        run(tmp_path, monkeypatch,
            ["qfi", "--phi12", "1.5707963267948966", "--out", "q.csv",
             "--no-timestamp"])
        rows = (tmp_path / "q.csv").read_text().splitlines()
        assert float(rows[1].split(",")[1]) == pytest.approx(2.75)


class TestOptimizeCommand:
    def test_pauli_max_weight(self, tmp_path, monkeypatch):
        run(tmp_path, monkeypatch,
            ["optimize", "--phi12", "3.141592653589793", "--kind", "pauli",
             "--out", "o.json", "--no-timestamp"])
        data = load_json(tmp_path / "o.json")
        assert data["observable"]["pauli_labels"] == ["Z", "Y"]
        assert data["estimator_variance"] == pytest.approx(0.25, abs=1e-9)
        assert set(data["waveplates"]) == {"photon1_plus", "photon1_minus",
                                           "photon2_plus", "photon2_minus"}

    def test_general_five_eighths(self, tmp_path, monkeypatch):
        run(tmp_path, monkeypatch,
            ["optimize", "--phi12", "1.9634954084936207", "--kind", "general",
             "--seed", "12345", "--out", "og.json", "--no-timestamp"])
        data = load_json(tmp_path / "og.json")
        assert data["estimator_variance"] == pytest.approx(0.32, abs=0.01)

    def test_identical_seeds_identical_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["optimize", "--phi12", "1.1780972450961724", "--kind", "general",
                "--seed", "99", "--no-timestamp"]
        assert main(argv + ["--out", "a.json"]) == 0
        assert main(argv + ["--out", "b.json"]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_general_output_does_not_depend_on_seed(self, tmp_path, monkeypatch):
        # the general-axis search is deterministic: --seed reaches only the manifest
        monkeypatch.chdir(tmp_path)
        argv = ["optimize", "--phi12", "1.9634954084936207", "--kind", "general",
                "--no-timestamp"]
        assert main(argv + ["--seed", "1", "--out", "a.json"]) == 0
        assert main(argv + ["--seed", "2", "--out", "b.json"]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestSenseCommand:
    def test_max_weight_recovers_heisenberg_limit(self, tmp_path, monkeypatch):
        run(tmp_path, monkeypatch,
            ["sense", "--phi12", "3.141592653589793", "--observable", "ZY",
             "--rate", "150", "--duration", "10", "--bins", "6",
             "--replicates", "4000", "--seed", "1", "--out", "s",
             "--no-timestamp"])
        data = load_json(tmp_path / "s.json")
        lo, hi = data["estimator_variance"]["ci95"]
        assert lo <= 0.25 <= hi

    def test_zero_weight_identity_y(self, tmp_path, monkeypatch):
        run(tmp_path, monkeypatch,
            ["sense", "--phi12", "0", "--observable", "IY",
             "--replicates", "4000", "--seed", "1", "--out", "s0",
             "--no-timestamp"])
        data = load_json(tmp_path / "s0.json")
        lo, hi = data["estimator_variance"]["ci95"]
        assert lo <= 1.0 <= hi

    def test_zero_rate_exits_three(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch,
                   ["sense", "--phi12", "0", "--observable", "IY",
                    "--rate", "0", "--out", "x", "--no-timestamp"]) == 3

    def test_bit_reproducible(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["sense", "--phi12", "1.5707963267948966", "--observable", "ZY",
                "--replicates", "1000", "--seed", "5", "--no-timestamp"]
        (tmp_path / "r1").mkdir()
        (tmp_path / "r2").mkdir()
        monkeypatch.chdir(tmp_path / "r1")
        assert main(argv + ["--out", "run"]) == 0
        monkeypatch.chdir(tmp_path / "r2")
        assert main(argv + ["--out", "run"]) == 0
        for suffix in (".json", ".csv", ".json.manifest.json"):
            a = (tmp_path / "r1" / f"run{suffix}").read_bytes()
            b = (tmp_path / "r2" / f"run{suffix}").read_bytes()
            assert a == b, suffix


class TestTomoCommand:
    def test_simulate_then_reconstruct(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        phi = "3.141592653589793"
        assert main(["tomo", "simulate", "--phi12", phi, "--out", "d.csv",
                     "--no-timestamp"]) == 0
        assert main(["tomo", "reconstruct", "--in", "d.csv", "--phi12", phi,
                     "--mc", "5", "--seed", "2", "--out", "r.json",
                     "--no-timestamp"]) == 0
        data = load_json(tmp_path / "r.json")
        assert data["point_fidelity"] >= 0.999
        assert data["mc_samples"] == 5

    def test_uniform_counts_give_zero_concurrence(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # full depolarization produces the maximally mixed state
        assert main(["tomo", "simulate", "--phi12", "3.141592653589793",
                     "--noise", "1", "0", "--out", "u.csv",
                     "--no-timestamp"]) == 0
        assert main(["tomo", "reconstruct", "--in", "u.csv",
                     "--phi12", "3.141592653589793", "--mc", "5", "--seed", "3",
                     "--out", "u.json", "--no-timestamp"]) == 0
        data = load_json(tmp_path / "u.json")
        assert data["point_concurrence"] == pytest.approx(0.0, abs=1e-6)

    def test_malformed_csv_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.csv").write_text("nope\n1\n")
        assert main(["tomo", "reconstruct", "--in", "bad.csv", "--phi12", "0",
                     "--out", "r.json", "--no-timestamp"]) == 2

    def test_sparse_data_with_empty_resamples(self, tmp_path, monkeypatch):
        # ~2 counts per setting and one rectilinear transmitted count: some
        # of the 20 resamples have no rectilinear transmitted counts at all
        monkeypatch.chdir(tmp_path)
        phi = "3.141592653589793"
        assert main(["tomo", "simulate", "--phi12", phi, "--rate", "0.2",
                     "--poisson", "--seed", "1", "--out", "d.csv",
                     "--no-timestamp"]) == 0
        assert main(["tomo", "reconstruct", "--in", "d.csv", "--phi12", phi,
                     "--mc", "20", "--seed", "1", "--out", "r.json",
                     "--no-timestamp"]) == 0
        data = load_json(tmp_path / "r.json")
        assert data["mc_samples"] == 20
        assert 0.0 <= data["concurrence"]["mean"] <= 1.0

    def test_empty_resample_exits_three_naming_it(self, tmp_path, monkeypatch, capsys):
        # one count in the rectilinear settings: a resample draws none there
        monkeypatch.chdir(tmp_path)
        data = simulate_tomography(weighted_graph_state(1.0), 150.0, 10.0, seed=2, poisson=True)
        counts = data.counts.copy()
        counts[:4] = 0
        counts[2, 0] = 1
        write_dataset_csv(tmp_path / "d.csv", TomographyDataset(counts))
        rc, err = command_error(["tomo", "reconstruct", "--in", "d.csv", "--phi12", "1.0",
                                 "--mc", "20", "--seed", "3", "--out", "r.json",
                                 "--no-timestamp"], capsys)
        assert rc == 3
        assert "Monte Carlo resample" in err and "of 20" in err
        assert "rectilinear settings recorded no counts" in err
        assert "the data's rectilinear settings recorded 1)" in err
        assert not (tmp_path / "r.json").exists()

    def _dataset_lines(self, tmp_path):
        assert main(["tomo", "simulate", "--phi12", "1.0", "--out", "d.csv",
                     "--no-timestamp"]) == 0
        return (tmp_path / "d.csv").read_text().splitlines()

    def _reconstruct(self, capsys):
        rc = main(["tomo", "reconstruct", "--in", "d.csv", "--phi12", "1.0",
                   "--mc", "2", "--out", "r.json", "--no-timestamp"])
        return rc, capsys.readouterr().err

    def test_duplicate_row_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        lines = self._dataset_lines(tmp_path)
        (tmp_path / "d.csv").write_text("\n".join(lines + [lines[5]]) + "\n")
        rc, err = self._reconstruct(capsys)
        assert rc == 2
        assert "appears twice" in err

    @pytest.mark.parametrize("duration", ["nan", "inf", "-1"])
    def test_bad_duration_exits_two(self, tmp_path, monkeypatch, capsys, duration):
        monkeypatch.chdir(tmp_path)
        lines = self._dataset_lines(tmp_path)
        lines[7] = lines[7].rsplit(",", 1)[0] + "," + duration
        (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
        rc, err = self._reconstruct(capsys)
        assert rc == 2
        assert "duration must be finite" in err

    def test_default_mc_is_hundred(self):
        from wgstate.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(["tomo", "reconstruct", "--in", "x.csv",
                                  "--phi12", "0", "--out", "y.json"])
        assert args.mc == 100


class TestFringeCommand:
    def test_noiseless_sweep(self, tmp_path, monkeypatch):
        run(tmp_path, monkeypatch,
            ["fringe", "--steps", "24", "--exact", "--out", "f",
             "--no-timestamp"])
        data = load_json(tmp_path / "f.json")
        assert data["visibility"] == pytest.approx(1.0, abs=1e-12)
        assert abs(data["fit"]["a"]) == pytest.approx(0.5, abs=1e-6)
        assert data["fit"]["d"] == pytest.approx(0.5, abs=1e-6)

    def test_reduced_contrast_visibility(self, tmp_path, monkeypatch):
        run(tmp_path, monkeypatch,
            ["fringe", "--steps", "30", "--contrast", "0.83", "--rate", "150",
             "--seed", "6", "--out", "v", "--no-timestamp"])
        data = load_json(tmp_path / "v.json")
        assert data["visibility"] == pytest.approx(0.83, abs=0.02)

    def test_too_few_steps_exits_two(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch,
                   ["fringe", "--steps", "3", "--out", "f",
                    "--no-timestamp"]) == 2


class TestUsageErrors:
    def test_unknown_kind_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["optimize", "--phi12", "1", "--kind", "bogus", "--out", "x"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_seed_env_var(self, monkeypatch):
        from wgstate.cli import build_parser
        monkeypatch.setenv("WGSTATE_SEED", "777")
        args = build_parser().parse_args(["qfi", "--grid", "3", "--out", "x"])
        assert args.seed == 777

    def test_parser_built_once(self, monkeypatch):
        from wgstate.cli import build_parser
        monkeypatch.setenv("WGSTATE_SEED", "778")
        assert build_parser() is build_parser()

    def test_seed_env_var_change_reaches_manifest(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for seed in ("11", "22"):
            monkeypatch.setenv("WGSTATE_SEED", seed)
            assert main(["qfi", "--grid", "3", "--out", f"q{seed}.csv",
                         "--no-timestamp"]) == 0
            manifest = load_json(tmp_path / f"q{seed}.csv.manifest.json")
            assert manifest["seed"] == manifest["parameters"]["seed"] == int(seed)


def usage_error(argv, capsys):
    """Exit code and error line of a run that argparse rejects (after its usage)."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    line = stderr.strip().splitlines()[-1]
    assert "error:" in line
    return err.value.code, line


def command_error(argv, capsys):
    """Exit code and stderr of a run that fails inside its command."""
    rc = main(argv)
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    return rc, err


class TestBadInputs:
    @pytest.mark.parametrize("argv, option", [
        (["qfi", "--phi12", "nan", "--out", "q.csv"], "--phi12"),
        (["sense", "--phi12", "0", "--observable", "IY", "--rate", "nan",
          "--out", "s"], "--rate"),
        (["sense", "--phi12", "0", "--observable", "IY", "--rate", "inf",
          "--out", "s"], "--rate"),
        (["sense", "--phi12", "0", "--observable", "IY", "--shift-deg", "nan",
          "--out", "s"], "--shift-deg"),
        (["sense", "--phi12", "0", "--observable", "IY", "--theta-star", "nan",
          "--out", "s"], "--theta-star"),
        (["fringe", "--rate", "inf", "--out", "f"], "--rate"),
        (["fringe", "--contrast", "nan", "--out", "f"], "--contrast"),
    ])
    def test_non_finite_float_exits_two(self, tmp_path, monkeypatch, capsys,
                                        argv, option):
        monkeypatch.chdir(tmp_path)
        code, line = usage_error(argv + ["--no-timestamp"], capsys)
        assert code == 2
        assert f"argument {option}: expected a finite number" in line
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, option", [
        (["sense", "--phi12", "0", "--observable", "IY", "--duration", "-1",
          "--out", "s"], "--duration"),
        (["sense", "--phi12", "0", "--observable", "IY", "--rate", "-1",
          "--out", "s"], "--rate"),
        (["fringe", "--duration", "-1", "--out", "f"], "--duration"),
        (["tomo", "simulate", "--phi12", "0", "--rate", "-1", "--out", "d.csv"],
         "--rate"),
    ])
    def test_negative_rate_or_duration_exits_two(self, tmp_path, monkeypatch,
                                                 capsys, argv, option):
        monkeypatch.chdir(tmp_path)
        code, line = usage_error(argv + ["--no-timestamp"], capsys)
        assert code == 2
        assert f"argument {option}: expected a non-negative number" in line
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["sense", "--phi12", "0", "--observable", "IY", "--rate", "1e300",
         "--out", "s"],
        ["fringe", "--rate", "1e300", "--out", "f"],
        ["tomo", "simulate", "--phi12", "0", "--rate", "1e300", "--out", "d.csv"],
    ])
    def test_expected_counts_past_two_to_the_53_exit_two(self, tmp_path, monkeypatch,
                                                         capsys, argv):
        monkeypatch.chdir(tmp_path)
        code, line = usage_error(argv + ["--no-timestamp"], capsys)
        assert code == 2
        assert "--rate * --duration must be at most 2**53 expected counts" in line
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("contrast", ["2", "-0.1"])
    def test_fringe_contrast_outside_unit_interval_exits_two(
            self, tmp_path, monkeypatch, capsys, contrast):
        monkeypatch.chdir(tmp_path)
        rc, err = command_error(["fringe", "--contrast", contrast, "--out", "f",
                                 "--no-timestamp"], capsys)
        assert rc == 2
        assert "--contrast must lie in [0, 1]" in err

    @pytest.mark.parametrize("spec", ["axis:nan,0,0,0", "axis:0,0,inf,0"])
    def test_non_finite_axis_angle_exits_two(self, tmp_path, monkeypatch, capsys, spec):
        monkeypatch.chdir(tmp_path)
        rc, err = command_error(["sense", "--phi12", "0", "--observable", spec,
                                 "--out", "s", "--no-timestamp"], capsys)
        assert rc == 2
        assert f"--observable {spec!r}: expected a finite number" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bins", ["-3", "0", "1"])
    def test_sense_too_few_bins_exits_two(self, tmp_path, monkeypatch, capsys, bins):
        monkeypatch.chdir(tmp_path)
        rc, err = command_error(["sense", "--phi12", "1", "--observable", "IY",
                                 "--bins", bins, "--out", "s", "--no-timestamp"], capsys)
        assert rc == 2
        assert err == "error: --bins must be at least 2\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["sense", "--phi12", "1", "--observable", "IY", "--replicates", "5", "--out", "s"],
         "--replicates must be at least 100"),
        (["tomo", "reconstruct", "--in", "d.csv", "--phi12", "1", "--mc", "1",
          "--out", "r.json"], "--mc must be at least 2"),
    ], ids=["replicates", "mc"])
    def test_too_small_count_option_exits_two(self, tmp_path, monkeypatch, capsys,
                                              argv, message):
        monkeypatch.chdir(tmp_path)
        rc, err = command_error(argv + ["--no-timestamp"], capsys)
        assert rc == 2
        # checked first: d.csv does not exist
        assert err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_fringe_span_without_a_fringe_exits_four(self, tmp_path, monkeypatch, capsys):
        # 30 Poisson steps over 1 rad: the fit's b falls towards 0 while
        # a and d grow to -7.5e5, so the fitted curve dips far below 0
        monkeypatch.chdir(tmp_path)
        rc, err = command_error(["fringe", "--varphi-range", "0", "1", "--out", "f",
                                 "--no-timestamp"], capsys)
        assert rc == 4
        assert "not identifiable from the span --varphi-range 0 1" in err
        assert not list(tmp_path.iterdir())
        # an exact partial sweep is a fringe, fitted exactly
        assert main(["fringe", "--varphi-range", "0", "0.3", "--exact", "--out", "f",
                     "--no-timestamp"]) == 0
        fit = load_json(tmp_path / "f.json")["fit"]
        assert fit["d"] - abs(fit["a"]) >= -1e-9 and fit["residual"] <= 1e-12

    def test_fringe_empty_range_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc, err = command_error(["fringe", "--varphi-range", "0", "0", "--out", "f",
                                 "--no-timestamp"], capsys)
        assert rc == 2
        assert "--varphi-range" in err

    def test_non_integer_seed_env_var_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("WGSTATE_SEED", "abc")
        code, line = usage_error(["qfi", "--grid", "3", "--out", "q.csv"], capsys)
        assert code == 2
        assert "argument --seed: invalid int value: 'abc'" in line
        # an explicit --seed does not read the environment
        assert main(["qfi", "--grid", "3", "--seed", "1", "--out", "q.csv"]) == 0

    def test_os_error_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc, err = command_error(["state", "--phi12", "1",
                                 "--out", str(tmp_path / "missing" / "s.json")],
                                capsys)
        assert rc == 2
        assert "No such file or directory" in err
        rc, err = command_error(["tomo", "reconstruct", "--in", "absent.csv",
                                 "--phi12", "1", "--out", "r.json"], capsys)
        assert rc == 2
        assert "absent.csv" in err

    # A size option past the memory (qfi --grid 10**12, sense --replicates
    # 10**12, fringe --steps 10**13) makes numpy raise MemoryError; the
    # callee raises it here so no test allocates that much.
    @pytest.mark.parametrize("argv, callee", [
        (["qfi", "--grid", "3", "--out", "q.csv"], "qfi_closed_form"),
        (["sense", "--phi12", "1", "--observable", "IY", "--out", "s"], "bootstrap_sensing"),
        (["fringe", "--out", "f"], "cosine_fit"),
    ])
    def test_memory_error_exits_two(self, tmp_path, monkeypatch, capsys, argv, callee):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(f"wgstate.cli.{callee}", exhausted)
        rc, err = command_error(argv + ["--no-timestamp"], capsys)
        assert rc == 2
        assert err == "error: input too large: Unable to allocate 7.28 TiB for an array\n"
        assert not list(tmp_path.iterdir())


    def test_oversized_bins_exit_two_at_once(self, tmp_path, monkeypatch, capsys):
        # each setting's bins are one (bins, 4) Poisson draw, so --bins
        # 10**12 reaches numpy's MemoryError at once; the stand-in generator
        # raises it for that size and refuses a draw of one bin at a time
        class OversizedDraw:
            def __init__(self, seed):
                pass

            def poisson(self, lam, size=None):
                if size is None:
                    raise AssertionError("bins drawn one at a time")
                assert size == (10 ** 12, 4)
                raise MemoryError("Unable to allocate 29.1 TiB for an array "
                                  "with shape (1000000000000, 4) and data type int64")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("wgstate.cli.np.random.default_rng", OversizedDraw)
        rc, err = command_error(["sense", "--phi12", "1", "--observable", "IY",
                                 "--bins", "1000000000000", "--out", "s",
                                 "--no-timestamp"], capsys)
        assert rc == 2
        assert err.startswith("error: input too large: Unable to allocate 29.1 TiB")
        assert not list(tmp_path.iterdir())

    def test_oversized_mc_exits_two_at_once(self, tmp_path, monkeypatch, capsys):
        # the (n + 1, 16, 4) resample stack is allocated before the n seeds
        # are spawned, so --mc 10**12 reaches numpy's MemoryError at once;
        # the stand-ins raise it for that shape and refuse any spawn
        real_empty = np.empty

        def oversized_empty(shape, dtype=float):
            if shape == (10 ** 12 + 1, 16, 4):
                raise MemoryError("Unable to allocate 466. TiB for an array with shape "
                                  "(1000000000001, 16, 4) and data type int64")
            return real_empty(shape, dtype)

        class NoSpawn:
            def __init__(self, seed):
                pass

            def spawn(self, n):
                raise AssertionError("seeds spawned before the resample stack")

        monkeypatch.chdir(tmp_path)
        assert main(["tomo", "simulate", "--phi12", "1", "--out", "d.csv",
                     "--no-timestamp"]) == 0
        capsys.readouterr()
        monkeypatch.setattr("wgstate.tomography.np.empty", oversized_empty)
        monkeypatch.setattr("wgstate.tomography.np.random.SeedSequence", NoSpawn)
        rc, err = command_error(["tomo", "reconstruct", "--in", "d.csv", "--phi12", "1",
                                 "--mc", "1000000000000", "--out", "r.json",
                                 "--no-timestamp"], capsys)
        assert rc == 2
        assert err.startswith("error: input too large: Unable to allocate 466. TiB")
        assert not (tmp_path / "r.json").exists()


class TestObservableSpecParsing:
    def test_axis_spec(self, tmp_path, monkeypatch):
        # X on photon 1 (beta=90, alpha=0), Y on photon 2 (beta=90, alpha=90)
        run(tmp_path, monkeypatch,
            ["sense", "--phi12", "0", "--observable", "axis:90,0,90,90",
             "--replicates", "1000", "--seed", "1", "--out", "ax",
             "--no-timestamp"])
        data = load_json(tmp_path / "ax.json")
        assert data["observable"]["axis_angles_deg"] == [90.0, 0.0, 90.0, 90.0]

    def test_zero_slope_observable_exits_four(self, tmp_path, monkeypatch):
        # Z (x) Y has no phase sensitivity at weight 0
        assert run(tmp_path, monkeypatch,
                   ["sense", "--phi12", "0", "--observable", "axis:0,0,90,90",
                    "--replicates", "1000", "--seed", "1", "--out", "zs",
                    "--no-timestamp"]) == 4

    def test_comma_pauli_spec(self, tmp_path, monkeypatch):
        run(tmp_path, monkeypatch,
            ["sense", "--phi12", "0", "--observable", "I,Y",
             "--replicates", "1000", "--seed", "1", "--out", "cm",
             "--no-timestamp"])
        data = load_json(tmp_path / "cm.json")
        assert data["observable"]["pauli_labels"] == ["I", "Y"]

    def test_bad_spec_exits_two(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch,
                   ["sense", "--phi12", "0", "--observable", "XYZ",
                    "--out", "bad", "--no-timestamp"]) == 2
