import dataclasses
import errno
import hashlib
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from wgstate.cli import _json_bytes, _observable_waveplates, main
from wgstate.measurement import pauli_observable, solve_projector_batch
from wgstate.stategen import canonical_config, simulate_generation, weighted_graph_state
from wgstate.tomography import TomographyDataset, dataset_csv, simulate_tomography
from make_goldens import GOLDEN_DIR, changes, main_script, run_all


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


    def test_diff_mode_finds_no_difference_and_writes_nothing(self, capsys):
        before = {p.name: p.read_bytes() for p in GOLDEN_DIR.iterdir()}
        assert main_script(["--diff"]) == 0
        assert capsys.readouterr().out == f"0 of {len(before)} goldens differ\n"
        assert {p.name: p.read_bytes() for p in GOLDEN_DIR.iterdir()} == before

    def test_diff_names_each_changed_value(self):
        assert changes("r.json", '{"a": {"b": [1.0, 2.0]}, "c.d": "s", "e": 1}',
                       '{"a": {"b": [1.0, 2.5]}, "c.d": "t", "e": 1}') == [
            "$.a.b[1]: 2.0 -> 2.5  |delta| 0.5", """$["c.d"]: 's' -> 't'"""]
        assert changes("q.csv", "phi,F\n0.0,1.0\n1.0,2.0\n", "phi,F\n0.0,1.25\n1.0,2.0\n") == [
            "[1].F: 1.0 -> 1.25  |delta| 0.25"]


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

    def test_varphi_prime_overrides_only_the_arm_phase(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch,
                   ["state", "--phi12", "1", "--pipeline", "--varphi-prime", "0.5",
                    "--out", "v.json", "--no-timestamp"]) == 0
        data = load_json(tmp_path / "v.json")
        result = simulate_generation(
            dataclasses.replace(canonical_config(1.0), varphi_prime=0.5))
        assert data["amplitudes"] == [[a.real, a.imag] for a in result.state.amplitudes]
        assert data["postselect_probability"] == result.postselect_probability

    # squaring the sigma raised OverflowError, a traceback with exit 1
    @pytest.mark.parametrize("argv, key", [
        (["state", "--phi12", "1"], "density_matrix"),
        (["tomo", "simulate", "--phi12", "1", "--poisson"], None),
    ], ids=["state", "tomo simulate"])
    def test_huge_noise_sigma_dephases_as_sigma_forty(self, tmp_path, monkeypatch, argv, key):
        monkeypatch.chdir(tmp_path)
        for sigma in ("1e300", "40"):
            assert main(argv + ["--noise", "0.5", sigma, "--out", sigma,
                                "--no-timestamp"]) == 0
        huge, forty = (tmp_path / "1e300").read_bytes(), (tmp_path / "40").read_bytes()
        if key:
            huge, forty = json.loads(huge)[key], json.loads(forty)[key]
        assert huge == forty

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

    def test_pauli_waveplates_match_pinned_axes(self):
        # (beta, alpha) of each Pauli factor's analyzer axis; an identity
        # factor is analysed along z
        pinned = {"I": (0.0, 0.0), "Z": (0.0, 0.0),
                  "X": (np.pi / 2, 0.0), "Y": (np.pi / 2, np.pi / 2)}
        for a1 in "IXYZ":
            for a2 in "IXYZ":
                (b1, al1), (b2, al2) = pinned[a1], pinned[a2]
                settings = solve_projector_batch([b1, b1, b2, b2], [al1, al1, al2, al2],
                                                 ["+", "-", "+", "-"])
                expected = [[s.hwp_deg, s.qwp_deg, s.residual] for s in settings]
                got = _observable_waveplates(pauli_observable(a1, a2))
                assert (np.array([list(v.values()) for v in got.values()]).tobytes()
                        == np.array(expected).tobytes()), a1 + a2

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

    def test_csv_duration_reads_back_as_given(self, tmp_path, monkeypatch):
        # "%g" wrote 0.123457 in the CSV and 0.1234567 in the JSON
        assert run(tmp_path, monkeypatch,
                   ["sense", "--phi12", "1", "--observable", "ZY", "--duration", "0.1234567",
                    "--replicates", "100", "--out", "run", "--no-timestamp"]) == 0
        rows = (tmp_path / "run.csv").read_text().splitlines()[1:]
        assert {row.rsplit(",", 1)[1] for row in rows} == {"0.1234567"}
        assert load_json(tmp_path / "run.json")["duration"] == 0.1234567


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

    # the short row ended in a traceback with exit 1
    @pytest.mark.parametrize("row", ["0,VxV,45", "0,VxV,45,0,45,0,1;2;3;4,10,7"],
                             ids=["short", "long"])
    def test_ragged_csv_row_exits_two(self, tmp_path, monkeypatch, capsys, row):
        monkeypatch.chdir(tmp_path)
        data = simulate_tomography(weighted_graph_state(1.0), 150.0, 10.0)
        lines = dataset_csv(data).splitlines()
        (tmp_path / "ragged.csv").write_text("\n".join([lines[0], row] + lines[2:]) + "\n")
        assert main(["tomo", "reconstruct", "--in", "ragged.csv", "--phi12", "1",
                     "--out", "r.json", "--no-timestamp"]) == 2
        assert "malformed dataset CSV row" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

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
        (tmp_path / "d.csv").write_text(dataset_csv(TomographyDataset(counts)), newline="")
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

    @pytest.mark.parametrize("duration, message", [
        ("nan", "duration must be finite"), ("inf", "duration must be finite"),
        ("-1", "duration must be finite"),
        # the setting recorded counts
        ("0", "setting 6 (DxH) has counts but a duration of 0")],
        ids=["nan", "inf", "-1", "0"])
    def test_bad_duration_exits_two(self, tmp_path, monkeypatch, capsys, duration, message):
        monkeypatch.chdir(tmp_path)
        lines = self._dataset_lines(tmp_path)
        lines[7] = lines[7].rsplit(",", 1)[0] + "," + duration
        (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
        rc, err = self._reconstruct(capsys)
        assert rc == 2
        assert message in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("count, message", [
        (2 ** 63, "a count lies outside int64: counts must be below 2**63"),
        (10 ** 30, "a count lies outside int64: counts must be below 2**63"),
        (-2 ** 63 - 1, "a count lies outside int64: counts must be below 2**63"),
        # each count fits in int64, but the total wraps it to a negative
        # number, which read as "no counts" before
        (9223372036854775000, "counts must total below 2**63, the int64 limit")],
        ids=["2**63", "1e30", "-2**63-1", "total"])
    def test_counts_past_int64_exit_two(self, tmp_path, monkeypatch, capsys, count, message):
        monkeypatch.chdir(tmp_path)
        lines = self._dataset_lines(tmp_path)
        fields = lines[1].split(",")
        fields[6] = ";".join([str(count)] + fields[6].split(";")[1:])
        lines[1] = ",".join(fields)
        (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
        rc, err = self._reconstruct(capsys)
        assert rc == 2
        assert err == f"error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    def test_zero_duration_dataset_exits_three(self, tmp_path, monkeypatch, capsys):
        # a dataset recorded in no time is valid, and holds no counts to fit
        monkeypatch.chdir(tmp_path)
        assert main(["tomo", "simulate", "--phi12", "1.0", "--duration", "0",
                     "--out", "d.csv", "--no-timestamp"]) == 0
        rc, err = self._reconstruct(capsys)
        assert rc == 3
        assert "dataset contains no counts" in err
        assert not (tmp_path / "r.json").exists()

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

    def test_pooled_counts_past_two_to_the_53_exit_two(self, tmp_path, monkeypatch,
                                                       capsys):
        # 9e15 expected counts per bin pass the per-bin bound, but 2000 bins
        # pool to 1.8e19, past exact float64 sums and int64 alike
        monkeypatch.chdir(tmp_path)
        code, line = usage_error(["sense", "--phi12", "1", "--observable", "ZY",
                                  "--rate", "9e15", "--duration", "1", "--bins", "2000",
                                  "--replicates", "100", "--out", "s",
                                  "--no-timestamp"], capsys)
        assert code == 2
        assert ("--rate * --duration * --bins must stay below 2**53 pooled counts, "
                "got 1.8e+19") in line
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
        (["sense", "--phi12", "1", "--observable", "IY", "--shift-deg", "0", "--out", "s"],
         "--shift-deg must be > 0, got 0"),
        (["sense", "--phi12", "1", "--observable", "IY", "--shift-deg", "-5", "--out", "s"],
         "--shift-deg must be > 0, got -5"),
    ], ids=["replicates", "mc", "shift-zero", "shift-negative"])
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

    @pytest.mark.parametrize("argv, manifest", [
        (["state", "--phi12", "1", "--out", "a.json"], "a.json"),
        (["state", "--phi12", "1", "--out", "a.json"], "./sub/../a.json"),
        (["sense", "--phi12", "1", "--observable", "ZY", "--replicates", "100",
          "--out", "run"], "run.csv"),
        (["sense", "--phi12", "1", "--observable", "ZY", "--replicates", "100",
          "--out", "run"], "run.json"),
        (["fringe", "--out", "f"], "f.csv"),
        (["tomo", "reconstruct", "--in", "d.csv", "--phi12", "1", "--mc", "2",
          "--out", "r.json"], "d.csv"),
        (["tomo", "reconstruct", "--in", "r.json.manifest.json", "--phi12", "1",
          "--mc", "2", "--out", "r.json"], None),
    ])
    def test_manifest_over_a_file_of_the_command_exits_two(self, tmp_path, monkeypatch,
                                                           capsys, argv, manifest):
        # the manifest would record the digest of a file it replaced
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        Path("d.csv").write_text(
            dataset_csv(simulate_tomography(weighted_graph_state(1.0), 150.0, 10.0)), newline="")
        for name in ("a.json", "run.json", "run.csv", "f.csv", "r.json.manifest.json"):
            (tmp_path / name).write_text("before\n")
        before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        code, line = usage_error(
            argv + (["--manifest", manifest] if manifest else []) + ["--no-timestamp"], capsys)
        assert code == 2
        assert f"manifest path {manifest or 'r.json.manifest.json'} names an input or output" \
            in line
        assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before

    @pytest.mark.parametrize("argv", [
        ["state", "--phi12", "1", "--out", "s.json"],
        ["sense", "--phi12", "1", "--observable", "ZY", "--bins", "2",
         "--replicates", "100", "--out", "run"],
        ["tomo", "simulate", "--phi12", "1", "--out", "t.csv"],
    ])
    @pytest.mark.parametrize("manifest, message", [
        ("nodir/m.json", "is in a directory that does not exist"),
        ("sub", "is a directory"),
    ])
    def test_manifest_that_cannot_be_written_exits_two(self, tmp_path, monkeypatch,
                                                       capsys, argv, manifest, message):
        # refused before the command computes anything, naming the manifest path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        code, line = usage_error(argv + ["--manifest", manifest, "--no-timestamp"], capsys)
        assert code == 2
        assert f"manifest path {manifest} {message}" in line
        assert [p.name for p in tmp_path.rglob("*")] == ["sub"]

    # the squared slopes overflowed to inf: exit 0 with a variance of 0.0
    def test_shift_below_the_floor_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, err = command_error(["sense", "--phi12", "1", "--observable", "ZY",
                                     "--shift-deg", "1e-290", "--replicates", "100",
                                     "--out", "s", "--no-timestamp"], capsys)
        assert rc == 2
        assert err == "error: --shift-deg must be at least 8.55e-153 (2**-511 rad), got 1e-290\n"
        assert not list(tmp_path.iterdir())
        # the shift the message names runs, with a finite variance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sense", "--phi12", "1", "--observable", "ZY", "--shift-deg",
                         "8.55e-153", "--replicates", "100", "--out", "s",
                         "--no-timestamp"]) == 0
        assert 0 < load_json(tmp_path / "s.json")["estimator_variance"]["mean"] < 1e-290

    def test_varphi_prime_without_pipeline_exits_two(self, tmp_path, monkeypatch, capsys):
        # the direct construction has no arm phase to override
        monkeypatch.chdir(tmp_path)
        rc, err = command_error(["state", "--phi12", "1", "--varphi-prime", "0.5",
                                 "--out", "s.json", "--no-timestamp"], capsys)
        assert rc == 2
        assert "--varphi-prime applies only with --pipeline" in err
        assert not list(tmp_path.iterdir())
        assert main(["state", "--phi12", "1", "--varphi-prime", "0.5", "--pipeline",
                     "--out", "s.json", "--no-timestamp"]) == 0

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


    def test_oversized_replicates_exit_two_at_once(self, tmp_path, monkeypatch, capsys):
        # each setting's (replicates, 4) pooled counts are allocated before
        # any bin index is drawn, so --replicates 10**12 reaches numpy's
        # MemoryError at once; the stand-ins raise it for that shape and
        # refuse any index draw
        real_empty, real_rng = np.empty, np.random.default_rng

        def oversized_empty(shape, dtype=float):
            if shape == (10 ** 12, 4):
                raise MemoryError("Unable to allocate 29.1 TiB for an array with shape "
                                  "(1000000000000, 4) and data type float64")
            return real_empty(shape, dtype)

        class NoIndexDraw:
            def __init__(self, seed):
                self._rng = real_rng(seed)

            def poisson(self, *args, **kwargs):
                return self._rng.poisson(*args, **kwargs)

            def integers(self, *args, **kwargs):
                raise AssertionError("bin indices drawn before the pooled counts")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("wgstate.stats.np.empty", oversized_empty)
        monkeypatch.setattr("wgstate.stats.np.random.default_rng", NoIndexDraw)
        rc, err = command_error(["sense", "--phi12", "1", "--observable", "ZY",
                                 "--replicates", "1000000000000", "--out", "s",
                                 "--no-timestamp"], capsys)
        assert rc == 2
        assert err.startswith("error: input too large: Unable to allocate 29.1 TiB")
        assert not list(tmp_path.iterdir())


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


SENSE = ["sense", "--phi12", "1", "--observable", "ZY", "--bins", "2", "--replicates", "100"]


def files_under(path):
    return sorted(str(p.relative_to(path)) for p in path.rglob("*"))


def manifest_vouches(manifest_path):
    """True unless the manifest lists an output that is missing or whose
    bytes do not match its digest."""
    if not manifest_path.exists():
        return True
    return all((manifest_path.parent / name).is_file()
               and hashlib.sha256((manifest_path.parent / name).read_bytes()).hexdigest() == digest
               for name, digest in load_json(manifest_path)["outputs"].items())


class TestWritingOutputs:
    """Each output is written once from memory under a temporary name and
    moved into place, the manifest last; a failed run leaves no file of its
    own behind."""

    @pytest.mark.parametrize("argv, names", [
        (["state", "--phi12", "1", "--out", "s.json"], ["s.json"]),
        (SENSE + ["--out", "run"], ["run.csv", "run.json"]),
        (["fringe", "--steps", "8", "--out", "f"], ["f.csv", "f.json"]),
    ])
    def test_outputs_and_manifest_get_the_mode_of_a_new_file(self, tmp_path, monkeypatch,
                                                             argv, names):
        # temporary files are made with mode 0600; outputs must not keep it
        monkeypatch.chdir(tmp_path)
        old = os.umask(0o027)
        try:
            with open("reference", "w"):
                pass
            assert main(argv + ["--manifest", "m.json", "--no-timestamp"]) == 0
        finally:
            os.umask(old)
        mode = os.stat("reference").st_mode & 0o777
        assert mode == 0o640
        assert files_under(tmp_path) == sorted(names + ["m.json", "reference"])
        assert {os.stat(n).st_mode & 0o777 for n in names + ["m.json"]} == {mode}

    @pytest.mark.parametrize("argv", [
        ["state", "--phi12", "1", "--out", "s.json"],
        SENSE + ["--out", "run"],
        ["tomo", "simulate", "--phi12", "1", "--out", "t.csv"],
    ])
    def test_manifest_directory_removed_while_computing_leaves_nothing(
            self, tmp_path, monkeypatch, capsys, argv):
        # the directory passes the check in main, then goes before the files are written
        monkeypatch.chdir(tmp_path)
        sub = tmp_path / "sub"
        sub.mkdir()
        real = weighted_graph_state

        def remove_then_build(*args, **kwargs):
            if sub.exists():
                sub.rmdir()
            return real(*args, **kwargs)

        monkeypatch.setattr("wgstate.cli.weighted_graph_state", remove_then_build)
        rc, err = command_error(argv + ["--manifest", "sub/m.json", "--no-timestamp"], capsys)
        assert rc == 2
        assert "No such file or directory: 'sub/m.json'" in err
        assert files_under(tmp_path) == []

    def test_directory_in_place_of_the_csv_leaves_no_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.csv").mkdir()
        rc, err = command_error(SENSE + ["--out", "run", "--no-timestamp"], capsys)
        assert rc == 2
        assert err == "error: [Errno 21] Is a directory: 'run.csv'\n"
        assert files_under(tmp_path) == ["run.csv"]

    def test_rerun_to_the_same_paths_replaces_every_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for seed in ("1", "2"):
            assert main(SENSE + ["--seed", seed, "--out", "run", "--no-timestamp"]) == 0
        assert load_json(tmp_path / "run.json.manifest.json")["seed"] == 2
        assert manifest_vouches(tmp_path / "run.json.manifest.json")
        assert files_under(tmp_path) == ["run.csv", "run.json", "run.json.manifest.json"]

    @pytest.mark.parametrize("failure", ["disk full", "directory"])
    def test_rerun_failing_midway_leaves_no_false_manifest(self, tmp_path, monkeypatch,
                                                           capsys, failure):
        monkeypatch.chdir(tmp_path)
        assert main(SENSE + ["--seed", "1", "--out", "run", "--no-timestamp"]) == 0
        if failure == "directory":
            (tmp_path / "run.csv").unlink()
            (tmp_path / "run.csv").mkdir()
        else:
            # the CSV, or its temporary file, cannot be written: the disk is full
            def full_for_csv(file, *args, **kwargs):
                if "run.csv" in os.fspath(file):
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return open(file, *args, **kwargs)

            monkeypatch.setattr("wgstate.cli.open", full_for_csv, raising=False)
        capsys.readouterr()
        rc, _ = command_error(SENSE + ["--seed", "2", "--out", "run", "--no-timestamp"], capsys)
        assert rc == 2
        assert manifest_vouches(tmp_path / "run.json.manifest.json")
        assert not [name for name in files_under(tmp_path) if name.endswith(".tmp")]


class TestJsonEncoding:
    def test_complex_values_as_real_imag_pairs(self):
        z = complex(0.5, -0.0)
        m = np.arange(16).reshape(4, 4) * (0.25 - 1j / 3)
        pairs = [[[v.real, v.imag] for v in row] for row in m.tolist()]
        assert _json_bytes({"z": z, "m": m}) == _json_bytes({"z": [0.5, -0.0], "m": pairs})
        assert json.loads(_json_bytes({"z": z}))["z"] == [0.5, -0.0]

    def test_unencodable_value_raises_type_error(self):
        with pytest.raises(TypeError, match="set"):
            _json_bytes({"labels": {"ZY"}})
