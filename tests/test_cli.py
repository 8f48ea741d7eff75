"""End-to-end command-line tests, run in-process via main()."""

import argparse
import csv
import inspect
import json
import os
import tracemalloc

import numpy as np
import pytest

from zklab import (DispersionForm, besov_norm_2_1, energy, evolve, format_value, l4_probe,
                   lebesgue_norm, make_grid, random_band_limited, sobolev_norm,
                   trilinear_form_probe, write_frame_csv)
from zklab.cli import _PROBES, _grid, _initial, _parser, main
from zklab.config import RunConfig
from zklab.reporting import read_frame_csv, write_csv


def run(tmp_path, *argv):
    return main([*argv, "--output-dir", str(tmp_path)])


class TestSimulate:
    def test_small_run_outputs(self, tmp_path):
        code = run(tmp_path, "simulate", "--nx", "16", "--preset", "cosine-mode",
                   "--amplitude", "0.1", "--T", "0.01", "--dt", "0.001",
                   "--sample-every", "5")
        assert code == 0
        names = set(os.listdir(tmp_path))
        assert {"diagnostics.csv", "frame_final.csv",
                "config.json", "manifest.json"} <= names
        diag = open(tmp_path / "diagnostics.csv").read().splitlines()
        assert len(diag) == 1 + 3  # header, t = 0, 0.005, 0.01
        man = json.load(open(tmp_path / "manifest.json"))
        assert man["subcommand"] == "simulate"
        assert man["num_frames"] == 3
        assert "diagnostics.csv" in man["outputs"]

    def test_symmetrized_run_records_its_own_energy(self, tmp_path):
        code = run(tmp_path, "simulate", "--nx", "16", "--form", "symmetrized",
                   "--preset", "random", "--seed", "3", "--kmax", "4",
                   "--amplitude", "0.3", "--T", "0.002", "--dt", "0.001")
        assert code == 0
        last = open(tmp_path / "diagnostics.csv").read().splitlines()[-1]
        recorded = float(last.split(",")[2])
        final = read_frame_csv(str(tmp_path / "frame_final.csv"))
        assert recorded == pytest.approx(energy(final, DispersionForm.SYMMETRIZED),
                                         rel=1e-10)
        assert recorded != pytest.approx(energy(final), rel=1e-3)

    def test_frame_file_readable(self, tmp_path):
        run(tmp_path, "simulate", "--nx", "16", "--preset", "gaussian",
            "--T", "0.002", "--dt", "0.001")
        field = read_frame_csv(str(tmp_path / "frame_final.csv"))
        assert field.grid.nx == 16

    def test_cosine_mode_reads_jx(self, tmp_path):
        frames = {}
        for jx in (1, 2):
            out = tmp_path / str(jx)
            assert main(["simulate", "--nx", "16", "--preset", "cosine-mode",
                         "--jx", str(jx), "--amplitude", "0.1", "--T", "0.002",
                         "--dt", "0.001", "--output-dir", str(out)]) == 0
            frames[jx] = (out / "frame_final.csv").read_bytes()
            assert json.load(open(out / "config.json"))["jx"] == jx
        assert frames[1] != frames[2]

    def test_dump_frames(self, tmp_path):
        run(tmp_path, "simulate", "--nx", "16", "--preset", "gaussian",
            "--T", "0.002", "--dt", "0.001", "--dump-frames")
        assert (tmp_path / "frame_00000.csv").exists()
        assert (tmp_path / "frame_00002.csv").exists()
        # frames written as they are sampled are byte for byte evolve's, in both forms,
        # and frame_final.csv is the last of them
        config = RunConfig(nx=16, preset="random", seed=3, kmax=4.0, amplitude=0.2)
        for form in ("original", "symmetrized"):
            out = tmp_path / form
            traj = evolve(_initial(config, _grid(config)), 0.005, 0.001,
                          DispersionForm.parse(form), sample_every=1)
            assert run(out, "simulate", "--nx", "16", "--form", form, "--preset", "random",
                       "--seed", "3", "--kmax", "4", "--amplitude", "0.2", "--T", "0.005",
                       "--dt", "0.001", "--sample-every", "1", "--dump-frames") == 0
            assert len(list(out.glob("frame_0*.csv"))) == traj.num_frames
            for idx in range(traj.num_frames):
                write_frame_csv(str(tmp_path / "expected.csv"), traj.frame(idx))
                dumped = (out / f"frame_{idx:05d}.csv").read_bytes()
                assert dumped == (tmp_path / "expected.csv").read_bytes(), (form, idx)
            assert (out / "frame_final.csv").read_bytes() == dumped

    def test_memory_does_not_grow_with_the_sampled_frames(self, tmp_path):
        """States stream through simulate: sampling every step of 250 peaks within 1 MiB
        of sampling two of them."""
        peaks = []
        for every in ("1", "125"):
            tracemalloc.start()
            try:
                assert main(["simulate", "--nx", "64", "--preset", "random", "--seed", "3",
                             "--kmax", "6", "--amplitude", "0.3", "--T", "0.25",
                             "--dt", "0.001", "--sample-every", every,
                             "--output-dir", str(tmp_path / every)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[0] - peaks[1]) < 2 ** 20, peaks

    def test_determinism_byte_identical(self, tmp_path):
        argv = ["simulate", "--nx", "16", "--preset", "random",
                "--seed", "3", "--kmax", "4", "--amplitude", "0.2",
                "--T", "0.01", "--dt", "0.001", "--output-dir", str(tmp_path)]
        names = ("diagnostics.csv", "frame_final.csv", "config.json")
        assert main(argv) == 0
        first = {n: (tmp_path / n).read_bytes() for n in names}
        assert main(argv) == 0
        for n in names:
            assert (tmp_path / n).read_bytes() == first[n]


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "--nx", "7")
        assert code == 2
        assert "nx" in capsys.readouterr().err

    def test_bad_time_grid_is_2(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "--nx", "16", "--T", "0.0105",
                   "--dt", "0.001")
        assert code == 2

    def test_nan_time_is_2(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "--nx", "16", "--T", "nan", "--dt", "0.001")
        assert code == 2
        assert "t_final" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, key", [("--T-grid", "t_grid"), ("--L-grid", "l_grid")])
    def test_empty_cutoff_grid_is_2(self, tmp_path, capsys, flag, key):
        code = run(tmp_path, "probe", "--estimate", "cutoff", flag, ",")
        assert code == 2
        assert key in capsys.readouterr().err

    def test_vanishing_probe_rung_is_2(self, tmp_path, capsys):
        # every lattice pair of these shells has xi_1 = +-xi_2, so the
        # gh-bilinear symbol is 0: no ratio, no drift, no manifest
        code = run(tmp_path, "probe", "--estimate", "gh-bilinear", "--nx", "64",
                   "--ny", "16", "--lx", "5", "--ly", "2", "--N1", "2", "--N2", "2",
                   "--samples", "2", "--frames", "9")
        assert code == 2
        err = capsys.readouterr().err
        assert "gh-bilinear" in err and "(2.0, 2.0)" in err
        assert not (tmp_path / "manifest.json").exists()

    def test_instability_is_3(self, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(tmp_path, "simulate", "--nx", "16", "--preset",
                       "cosine-mode", "--amplitude", "80", "--T", "2.0",
                       "--dt", "0.02")
        assert code == 3
        err = capsys.readouterr().err
        assert "instability" in err
        # diagnostics up to the failure are flushed for post-mortem use
        assert (tmp_path / "diagnostics.csv").exists()

    def test_overflowing_data_keep_a_finite_l2(self, tmp_path, capsys):
        """Squares of 1e200 overflow the mass column; the l2 column is the
        finite norm the instability message reports.  The frame sampled before
        the blow-up is left on disk."""
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(tmp_path, "simulate", "--nx", "16", "--T", "0.002",
                       "--dt", "0.001", "--amplitude", "1e200", "--dump-frames")
        assert code == 3
        assert [p.name for p in tmp_path.glob("frame_*.csv")] == ["frame_00000.csv"]
        reported = float(capsys.readouterr().err.split("'l2': ")[1].split("}")[0])
        with open(tmp_path / "diagnostics.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert float(row["mass (integral u^2)"]) == np.inf
        assert float(row["l2 (spatial L2)"]) == pytest.approx(reported, rel=1e-12)

    @pytest.mark.parametrize("header, body", [
        ("# zklab-frame nx=8 ny 8 lx=6.28 ly=6.28", "0," * 7 + "0"),
        ("# zklab-frame nx=8 ny=8 lx=6.28 ly=6.28", "0," * 7 + "abc"),
        ("# zklab-frame nx=8 lx=6.28 ly=6.28", "0," * 7 + "0"),
        ("# zklab-frame nx=8 ny=8 lx=6.28 ly=6.28", "0," * 7 + "nan"),
    ], ids=["token-without-equals", "non-numeric-cell", "missing-ny",
            "non-finite-cell"])
    def test_malformed_frame_file_is_2(self, tmp_path, capsys, header, body):
        path = tmp_path / "frame.csv"
        path.write_text(header + "\n" + "\n".join([body] * 8) + "\n")
        code = run(tmp_path, "norms", "--input", str(path))
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and str(path) in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--nx", "16", "--preset", "random", "--T", "0.002", "--dt", "0.001"],
        ["probe", "--estimate", "strichartz", "--nx", "16", "--samples", "1",
         "--frames", "5"],
    ], ids=["simulate", "probe"])
    def test_negative_seed_is_2(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv, "--seed", "-1") == 2
        assert "'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("windows", ["0", "-3"])
    def test_gwp_without_windows_is_2(self, tmp_path, capsys, windows):
        code = run(tmp_path, "gwp", "--nx", "16", "--preset", "random",
                   "--amplitude", "0.3", "--s", "0.95", "--T", "0.02",
                   "--delta", "0.01", "--dt", "0.001", "--max-windows", windows)
        assert code == 2
        assert "max_windows" in capsys.readouterr().err
        assert not (tmp_path / "gwp_ledger.json").exists()

    @pytest.mark.parametrize("argv", [
        ["norms", "--input", "frame.csv", "--nx", "64"],
        ["imethod-scan", "--form", "symmetrized"],
        ["gwp", "--form", "original"],
        ["probe", "--estimate", "l4", "--form", "symmetrized"],
        ["probe", "--preset", "random"],
    ], ids=["norms-nx", "scan-form", "gwp-form", "probe-form", "probe-preset"])
    def test_unread_flag_is_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {argv[-2]}" in err
        # the subcommand's own usage and error line, which name its flags
        assert err.startswith(f"usage: zklab {argv[0]} ")
        assert f"zklab {argv[0]}: error:" in err

    @pytest.mark.parametrize("name, key, value", [
        ("imethod-scan", "form", "symmetrized"), ("gwp", "form", "original"),
        ("norms", "seed", 41), ("probe", "amplitude", 9.0)])
    def test_unread_config_key_is_2(self, tmp_path, capsys, name, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        assert main([name, "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{key!r}" in err and name in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("argv, key, estimate", [
        (["maximal", "--nx", "16", "--samples", "1", "--frames", "9", "--q", "4"], "q",
         "maximal"),
        (["cutoff", "--nx", "16"], "nx", "cutoff"),
        (["cutoff", "--seed", "3"], "seed", "cutoff"),
    ], ids=["maximal-q", "cutoff-nx", "cutoff-seed"])
    def test_key_the_estimate_does_not_read_is_2(self, tmp_path, capsys, argv, key, estimate):
        assert run(tmp_path, "probe", "--estimate", *argv) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}: not read by probe --estimate {estimate}" in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("data, message", [
        ({"estimate": "cutoff", "samples": 2},
         "config key 'samples': not read by probe --estimate cutoff"),
        ({"estimate": "nope"}, "unknown estimate 'nope'"),
    ], ids=["unread", "unknown"])
    def test_probe_config_file_outside_its_estimate_is_2(self, tmp_path, capsys, data,
                                                         message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data))
        assert main(["probe", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_step_count_beyond_a_float_is_2(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "--nx", "16", "--T", "1e300", "--dt", "1e-300")
        assert code == 2
        assert "t_final = 1e+300 must be a whole number of steps" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("sample_every", 2.5), ("nx", 16.7), ("sample_every", True), ("dt", True)])
    def test_truncated_or_boolean_config_number_is_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        code = main(["simulate", "--config", str(cfg), "--T", "0.004",
                     "--output-dir", str(tmp_path)])
        assert code == 2
        assert f"{key!r}" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("name", ["imethod-scan", "gwp"])
    def test_partial_step_window_is_2(self, tmp_path, capsys, name):
        code = run(tmp_path, name, "--nx", "16", "--preset", "random", "--amplitude", "0.3",
                   "--s", "0.95", "--delta", "0.0015", "--dt", "0.001",
                   *(["--max-windows", "4"] if name == "gwp" else []))
        assert code == 2
        assert "delta = 0.0015 must be a whole number of steps of dt = 0.001" in (
            capsys.readouterr().err)
        assert not (tmp_path / "manifest.json").exists()

    def test_unknown_key_in_config_file_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"wavenumber": 3}))
        code = main(["simulate", "--config", str(cfg),
                     "--output-dir", str(tmp_path)])
        assert code == 2
        assert "wavenumber" in capsys.readouterr().err


class TestOtherSubcommands:
    def test_picard_csv(self, tmp_path):
        code = run(tmp_path, "picard", "--nx", "16", "--preset", "random",
                   "--seed", "2", "--kmax", "4", "--amplitude", "0.05",
                   "--n-iter", "3", "--num-nodes", "33")
        assert code == 0
        lines = open(tmp_path / "picard.csv").read().splitlines()
        assert lines[0].startswith("iteration")
        assert len(lines) == 4
        man = json.load(open(tmp_path / "manifest.json"))
        assert man["contraction_failed"] is False

    def test_imethod_scan_csv(self, tmp_path):
        code = run(tmp_path, "imethod-scan", "--nx", "16", "--preset", "random",
                   "--seed", "4", "--kmax", "3", "--amplitude", "1.0",
                   "--s", "0.9", "--N-list", "4,8", "--delta", "0.01",
                   "--dt", "0.0005")
        assert code == 0
        lines = open(tmp_path / "imethod_scan.csv").read().splitlines()
        assert len(lines) == 3
        man = json.load(open(tmp_path / "manifest.json"))
        assert "slope" in man

    def test_imethod_scan_with_one_distinct_n_is_2(self, tmp_path, capsys):
        code = run(tmp_path, "imethod-scan", "--nx", "16", "--preset", "random",
                   "--amplitude", "0.5", "--N-list", "4,4", "--delta", "0.01",
                   "--dt", "0.001")
        assert code == 2
        assert "distinct" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "manifest.json")

    def test_gwp_ledger(self, tmp_path):
        code = run(tmp_path, "gwp", "--nx", "16", "--preset", "random",
                   "--seed", "6", "--kmax", "3", "--norm", "sobolev",
                   "--norm-s", "1.0", "--amplitude", "0.5", "--s", "0.95",
                   "--T", "0.05", "--delta", "0.03", "--dt", "0.001")
        assert code == 0
        ledger = json.load(open(tmp_path / "gwp_ledger.json"))
        assert ledger["status"] == "completed"
        assert ledger["windows"]

    def test_probe_cutoff_rows(self, tmp_path):
        code = run(tmp_path, "probe", "--estimate", "cutoff",
                   "--T-grid", "0.5,1", "--L-grid", "4,8")
        assert code == 0
        lines = open(tmp_path / "probe.csv").read().splitlines()
        assert len(lines) == 5  # header plus the 2x2 grid
        assert lines[0].split(",")[:2] == ["T", "L"]

    def test_probe_strichartz_row(self, tmp_path):
        code = run(tmp_path, "probe", "--estimate", "strichartz", "--nx", "16",
                   "--q", "6", "--r", "4", "--samples", "2", "--frames", "17")
        assert code == 0
        lines = open(tmp_path / "probe.csv").read().splitlines()
        assert len(lines) == 2
        assert "ratio" in lines[0]

    @pytest.mark.parametrize("argv, estimate", [
        (["strichartz", "--nx", "16", "--frames", "5", "--samples", "1"], "strichartz"),
        (["maximal", "--nx", "16", "--frames", "5", "--samples", "1"], "maximal-derivative"),
        (["bilinear", "--nx", "32", "--N1", "2", "--N2", "8", "--frames", "5",
          "--samples", "1"], "bilinear-lowhigh"),
        (["gh-bilinear", "--nx", "32", "--N1", "4", "--N2", "2", "--frames", "5",
          "--samples", "1"], "gh-bilinear"),
        (["l4", "--nx", "16", "--frames", "5", "--samples", "1"], "l4-riesz"),
        (["cutoff", "--T-grid", "0.5,1", "--L-grid", "4,8"], "cutoff-high"),
        (["trilinear", "--nx", "32", "--N1", "8", "--N2", "2", "--N3", "8",
          "--T", "0.125", "--num-steps", "64", "--samples", "1"], "trilinear-form"),
    ], ids=["strichartz", "maximal", "bilinear", "gh-bilinear", "l4", "cutoff",
            "trilinear"])
    def test_every_estimate_writes_its_report(self, tmp_path, argv, estimate):
        # cutoff reads no --samples, so each other estimate is given its own
        code = run(tmp_path, "probe", "--estimate", *argv)
        assert code == 0
        man = json.load(open(tmp_path / "manifest.json"))
        assert man["estimate"] == estimate
        if argv[0] != "cutoff":
            header, *rows = open(tmp_path / "probe.csv").read().splitlines()
            assert len(rows) == 1
            assert dict(zip(header.split(","), rows[0].split(",")))["estimate"] == estimate

    @pytest.mark.parametrize("estimate, extra", [
        ("strichartz", []),
        ("gh-bilinear", ["--nx", "32", "--N1", "4", "--N2", "2"]),
    ])
    def test_probe_frame_count(self, tmp_path, capsys, estimate, extra):
        argv = ["probe", "--estimate", estimate, "--nx", "16", *extra, "--samples", "1"]
        assert run(tmp_path, *argv, "--frames", "1") == 2
        assert "error:" in capsys.readouterr().err
        assert run(tmp_path, *argv, "--frames", "2") == 0

    def test_trilinear_resolves_its_own_steps(self, tmp_path):
        code = run(tmp_path, "probe", "--estimate", "trilinear", "--nx", "32",
                   "--N1", "8", "--N2", "2", "--N3", "8", "--T", "0.125",
                   "--samples", "1")
        assert code == 0
        row = trilinear_form_probe(8.0, 2.0, 8.0, 0.125,
                                   make_grid(32, 32, 2 * np.pi, 2 * np.pi),
                                   samples=1, seed=0).to_row()
        expected = tmp_path / "library.csv"
        write_csv(str(expected), list(row.keys()), [list(row.values())])
        assert (tmp_path / "probe.csv").read_bytes() == expected.read_bytes()

    def test_norms_subcommand(self, tmp_path, capsys):
        run(tmp_path, "simulate", "--nx", "16", "--preset", "cosine-mode",
            "--amplitude", "0.5", "--T", "0.002", "--dt", "0.001")
        code = main(["norms", "--input", str(tmp_path / "frame_final.csv"),
                     "--norm-name", "sobolev", "--s", "1.0",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sobolev =" in out
        assert (tmp_path / "norms.csv").exists()

    def test_probe_csv_reads_back(self, tmp_path):
        code = run(tmp_path, "probe", "--estimate", "l4", "--nx", "16",
                   "--samples", "1", "--frames", "9")
        assert code == 0
        with open(tmp_path / "probe.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = l4_probe(make_grid(16, 16, 2 * np.pi, 2 * np.pi), samples=1,
                            seed=0, span=1.0, frames=9).to_row()
        assert "," in expected["caveat"]
        assert rows == [{k: format_value(v) for k, v in expected.items()}]

    @pytest.mark.parametrize("name, reported, value", [
        ("sobolev", "sobolev", lambda f: sobolev_norm(f, 1.5)),
        ("homogeneous-sobolev", "homogeneous-sobolev",
         lambda f: sobolev_norm(f, 1.5, homogeneous=True)),
        ("besov", "besov-2-1", lambda f: besov_norm_2_1(f, 1.5)),
        ("lebesgue", "lebesgue", lambda f: lebesgue_norm(f, 3.0)),
    ])
    def test_every_norm_writes_the_library_value(self, tmp_path, capsys, name,
                                                  reported, value):
        frame = tmp_path / "frame.csv"
        write_frame_csv(str(frame), random_band_limited(
            make_grid(8, 8, 2 * np.pi, 2 * np.pi), seed=5, kmax=2.0))
        code = run(tmp_path, "norms", "--input", str(frame), "--norm-name", name,
                   "--s", "1.5", "--p", "3")
        assert code == 0
        expected = value(read_frame_csv(str(frame)))
        with open(tmp_path / "norms.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["name"] == reported
        assert row["value"] == format_value(expected)
        assert f"{reported} = {expected:.17g}" in capsys.readouterr().out
        assert json.load(open(tmp_path / "manifest.json"))["value"] == expected

    def test_norms_requires_input(self, tmp_path, capsys):
        code = run(tmp_path, "norms", "--norm-name", "sobolev")
        assert code == 2
        assert "input" in capsys.readouterr().err


# Every action of every subcommand parser: option strings, dest, type, choices
# and action kind.  A subcommand takes a flag for each key its runner reads and
# for no other key.
_COMMON_ACTIONS = [
    (("-h", "--help"), "help", None, None, "_HelpAction"),
    (("--config",), "config", None, None, "_StoreAction"),
    (("--output-dir",), "output_dir", None, None, "_StoreAction"),
]
_GRID_ACTIONS = [
    (("--nx",), "nx", int, None, "_StoreAction"),
    (("--ny",), "ny", int, None, "_StoreAction"),
    (("--lx",), "lx", float, None, "_StoreAction"),
    (("--ly",), "ly", float, None, "_StoreAction"),
]
_FORM_ACTION = (("--form",), "form", None, {"original", "symmetrized"}, "_StoreAction")
_SEED_ACTION = (("--seed",), "seed", int, None, "_StoreAction")
_DATA_ACTIONS = [
    _SEED_ACTION,
    (("--preset",), "preset", None, None, "_StoreAction"),
    (("--amplitude",), "amplitude", float, None, "_StoreAction"),
    (("--sigma",), "sigma", float, None, "_StoreAction"),
    (("--jx",), "jx", int, None, "_StoreAction"),
    (("--jy",), "jy", int, None, "_StoreAction"),
    (("--kmax",), "kmax", float, None, "_StoreAction"),
    (("--envelope",), "envelope", float, None, "_StoreAction"),
    (("--norm",), "norm", None, None, "_StoreAction"),
    (("--norm-s",), "norm_s", float, None, "_StoreAction"),
]
_SUBCOMMAND_ACTIONS = {
    "simulate": _GRID_ACTIONS + [_FORM_ACTION] + _DATA_ACTIONS + [
        (("--T",), "t_final", float, None, "_StoreAction"),
        (("--dt",), "dt", float, None, "_StoreAction"),
        (("--sample-every",), "sample_every", int, None, "_StoreAction"),
        (("--dump-frames",), "dump_frames", None, None, "_StoreTrueAction"),
    ],
    "picard": _GRID_ACTIONS + [_FORM_ACTION] + _DATA_ACTIONS + [
        (("--horizon",), "horizon", float, None, "_StoreAction"),
        (("--n-iter",), "n_iter", int, None, "_StoreAction"),
        (("--num-nodes",), "num_nodes", int, None, "_StoreAction"),
        (("--c0",), "c0", float, None, "_StoreAction"),
    ],
    "imethod-scan": _GRID_ACTIONS + _DATA_ACTIONS + [
        (("--s",), "s", float, None, "_StoreAction"),
        (("--N-list",), "n_list", None, None, "_StoreAction"),
        (("--delta",), "delta", float, None, "_StoreAction"),
        (("--dt",), "dt", float, None, "_StoreAction"),
    ],
    "gwp": _GRID_ACTIONS + _DATA_ACTIONS + [
        (("--s",), "s", float, None, "_StoreAction"),
        (("--T",), "t_target", float, None, "_StoreAction"),
        (("--delta",), "delta", float, None, "_StoreAction"),
        (("--dt",), "dt", float, None, "_StoreAction"),
        (("--N",), "n_block", float, None, "_StoreAction"),
        (("--max-windows",), "max_windows", int, None, "_StoreAction"),
    ],
    "probe": _GRID_ACTIONS + [_SEED_ACTION] + [
        (("--estimate",), "estimate", None,
         {"strichartz", "maximal", "bilinear", "gh-bilinear", "l4", "cutoff",
          "trilinear"}, "_StoreAction"),
        (("--q",), "q", float, None, "_StoreAction"),
        (("--r",), "r", float, None, "_StoreAction"),
        (("--N1",), "n1", float, None, "_StoreAction"),
        (("--N2",), "n2", float, None, "_StoreAction"),
        (("--N3",), "n3", float, None, "_StoreAction"),
        (("--samples",), "samples", int, None, "_StoreAction"),
        (("--span",), "span", float, None, "_StoreAction"),
        (("--frames",), "frames", int, None, "_StoreAction"),
        (("--T-grid",), "t_grid", None, None, "_StoreAction"),
        (("--L-grid",), "l_grid", None, None, "_StoreAction"),
        (("--T",), "t_length", float, None, "_StoreAction"),
        (("--num-steps",), "num_steps", int, None, "_StoreAction"),
    ],
    "norms": [
        (("--input",), "input", None, None, "_StoreAction"),
        (("--norm-name",), "norm_name", None,
         {"sobolev", "homogeneous-sobolev", "besov", "lebesgue"}, "_StoreAction"),
        (("--s",), "s", float, None, "_StoreAction"),
        (("--p",), "p", float, None, "_StoreAction"),
    ],
}


def _read_keys(name: str) -> set:
    """The RunConfig keys the recorded table gives the subcommand."""
    return {action[1] for action in _COMMON_ACTIONS[2:] + _SUBCOMMAND_ACTIONS[name]}


# The RunConfig keys each probe estimate reads besides estimate and output_dir:
# 73 accepted (estimate, key) pairs in all, against 7 x 19 for the probe flags.
_GRID_KEYS = {"nx", "ny", "lx", "ly"}
_WINDOW_KEYS = {"samples", "seed", "span", "frames"}
_ESTIMATE_KEYS = {
    "strichartz": _GRID_KEYS | {"q", "r"} | _WINDOW_KEYS,
    "maximal": _GRID_KEYS | _WINDOW_KEYS,
    "bilinear": _GRID_KEYS | {"n1", "n2"} | _WINDOW_KEYS,
    "gh-bilinear": _GRID_KEYS | {"n1", "n2"} | _WINDOW_KEYS,
    "l4": _GRID_KEYS | _WINDOW_KEYS,
    "trilinear": _GRID_KEYS | {"n1", "n2", "n3", "t_length", "samples", "seed", "num_steps"},
    "cutoff": {"t_grid", "l_grid"},
}


def _echo_keys(argv: list) -> set:
    """The keys config.json holds for a run of ``argv``: a probe's are its estimate's."""
    if argv[0] != "probe":
        return _read_keys(argv[0])
    return {"output_dir", "estimate"} | _ESTIMATE_KEYS[argv[argv.index("--estimate") + 1]]


# one quick run of each subcommand ("probe" runs l4), then of each other estimate
_RUNS = {
    "simulate": ["--nx", "16", "--preset", "random", "--seed", "3", "--kmax", "4",
                 "--T", "0.002", "--dt", "0.001"],
    "picard": ["--nx", "16", "--preset", "random", "--amplitude", "0.05",
               "--n-iter", "2", "--num-nodes", "17"],
    "imethod-scan": ["--nx", "16", "--preset", "random", "--amplitude", "0.5",
                     "--N-list", "4,8", "--delta", "0.01", "--dt", "0.001"],
    "gwp": ["--nx", "16", "--preset", "random", "--amplitude", "0.3", "--s", "0.95",
            "--T", "0.02", "--delta", "0.01", "--dt", "0.001", "--max-windows", "3"],
    "probe": ["--estimate", "l4", "--nx", "16", "--samples", "1", "--frames", "9"],
    "norms": ["--norm-name", "besov", "--s", "0.5"],
}
_RUNS = {name: [name, *argv] for name, argv in _RUNS.items()} | {
    f"probe-{estimate}": ["probe", "--estimate", estimate, *argv] for estimate, argv in {
        "strichartz": ["--nx", "16", "--samples", "1", "--frames", "9"],
        "maximal": ["--nx", "16", "--samples", "1", "--frames", "9"],
        "bilinear": ["--nx", "32", "--N1", "2", "--N2", "8", "--samples", "1",
                     "--frames", "5"],
        "gh-bilinear": ["--nx", "16", "--N1", "4", "--N2", "2", "--samples", "1",
                        "--frames", "5"],
        "cutoff": ["--T-grid", "0.5,1", "--L-grid", "4,8"],
        "trilinear": ["--nx", "16", "--N1", "4", "--N2", "1", "--N3", "4", "--T", "0.0625",
                      "--samples", "1"],
    }.items()}


class TestConfigEcho:
    @pytest.mark.parametrize("name", list(_RUNS))
    def test_echo_holds_the_read_keys_and_reruns(self, tmp_path, name):
        """config.json and the manifest's config hold exactly the keys the
        subcommand reads, a probe's those of its estimate, and rerunning from
        config.json rewrites every file but the manifest byte for byte."""
        out = tmp_path / "out"
        argv = [*_RUNS[name], "--output-dir", str(out)]
        if name == "norms":
            frame = tmp_path / "frame.csv"
            write_frame_csv(str(frame), random_band_limited(
                make_grid(8, 8, 2 * np.pi, 2 * np.pi), seed=5, kmax=2.0))
            argv += ["--input", str(frame)]
        assert main(argv) == 0
        echoed = json.load(open(out / "config.json"))
        assert set(echoed) == _echo_keys(argv)
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["config"] == echoed
        assert manifest["seed"] == echoed.get("seed")

        def bodies():
            return {p.name: p.read_bytes() for p in out.iterdir()
                    if p.name != "manifest.json"}

        first = bodies()
        assert main([argv[0], "--config", str(out / "config.json")]) == 0
        assert bodies() == first

    @pytest.mark.parametrize("estimate", list(_PROBES))
    def test_each_probe_reads_its_keys_by_name(self, estimate):
        """The table gives each estimate the recorded keys, and each key but the
        grid's names a parameter of its probe (cutoff's take their own names)."""
        probe, keys = _PROBES[estimate]
        assert set(keys) == _ESTIMATE_KEYS[estimate]
        names = {"t_grid": "t_values", "l_grid": "l_values"}
        params = inspect.signature(probe).parameters
        assert {names.get(k, k) for k in keys if k not in _GRID_KEYS} <= set(params)
        assert ("grid" in params) == (estimate != "cutoff")


def _subparsers() -> dict:
    parser = _parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestParser:
    @pytest.mark.parametrize("name", list(_SUBCOMMAND_ACTIONS))
    def test_actions_match_the_recorded_table(self, name):
        actions = _subparsers()[name]._actions
        got = [(tuple(a.option_strings), a.dest, a.type,
                set(a.choices) if a.choices else None, type(a).__name__)
               for a in actions]
        assert got == _COMMON_ACTIONS + _SUBCOMMAND_ACTIONS[name]
        # unset flags must not override the config file or the defaults
        assert all(a.default is None for a in actions[1:])

    def test_every_key_has_a_flag(self):
        """104 flags after --config, and each RunConfig key is one of them."""
        flags = [a for name in _SUBCOMMAND_ACTIONS
                 for a in _subparsers()[name]._actions[2:]]
        assert len(flags) == 104
        assert {a.dest for a in flags} == set(RunConfig().to_dict())

    def test_subcommands_in_order(self):
        assert list(_subparsers()) == list(_SUBCOMMAND_ACTIONS)

    @pytest.mark.parametrize("name, key", [
        ("simulate", "t_final"), ("gwp", "t_target"), ("probe", "t_length")])
    def test_T_resolves_per_subcommand(self, name, key):
        args = _parser().parse_args([name, "--T", "0.5"])
        assert getattr(args, key) == 0.5

    def test_malformed_int_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--nx", "abc"])
        assert exc.value.code == 2
        assert "argument --nx: invalid int value: 'abc'" in capsys.readouterr().err
