"""End-to-end command-line tests, run in-process via main()."""

import json
import os

import numpy as np
import pytest

from zklab import DispersionForm, energy, make_grid, trilinear_form_probe
from zklab.cli import main
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

    def test_dump_frames(self, tmp_path):
        run(tmp_path, "simulate", "--nx", "16", "--preset", "gaussian",
            "--T", "0.002", "--dt", "0.001", "--dump-frames")
        assert (tmp_path / "frame_00000.csv").exists()
        assert (tmp_path / "frame_00002.csv").exists()

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

    @pytest.mark.parametrize("header, body", [
        ("# zklab-frame nx=8 ny 8 lx=6.28 ly=6.28", "0," * 7 + "0"),
        ("# zklab-frame nx=8 ny=8 lx=6.28 ly=6.28", "0," * 7 + "abc"),
        ("# zklab-frame nx=8 lx=6.28 ly=6.28", "0," * 7 + "0"),
    ], ids=["token-without-equals", "non-numeric-cell", "missing-ny"])
    def test_malformed_frame_file_is_2(self, tmp_path, capsys, header, body):
        path = tmp_path / "frame.csv"
        path.write_text(header + "\n" + "\n".join([body] * 8) + "\n")
        code = run(tmp_path, "norms", "--input", str(path))
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and str(path) in err

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
        (["strichartz", "--nx", "16", "--frames", "5"], "strichartz"),
        (["maximal", "--nx", "16", "--frames", "5"], "maximal-derivative"),
        (["bilinear", "--nx", "32", "--N1", "2", "--N2", "8", "--frames", "5"],
         "bilinear-lowhigh"),
        (["gh-bilinear", "--nx", "32", "--N1", "4", "--N2", "2", "--frames", "5"],
         "gh-bilinear"),
        (["l4", "--nx", "16", "--frames", "5"], "l4-riesz"),
        (["cutoff", "--T-grid", "0.5,1", "--L-grid", "4,8"], "cutoff-high"),
        (["trilinear", "--nx", "32", "--N1", "8", "--N2", "2", "--N3", "8",
          "--T", "0.125", "--num-steps", "64"], "trilinear-form"),
    ], ids=["strichartz", "maximal", "bilinear", "gh-bilinear", "l4", "cutoff",
            "trilinear"])
    def test_every_estimate_writes_its_report(self, tmp_path, argv, estimate):
        code = run(tmp_path, "probe", "--estimate", *argv, "--samples", "1")
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

    def test_norms_requires_input(self, tmp_path, capsys):
        code = run(tmp_path, "norms", "--norm-name", "sobolev")
        assert code == 2
        assert "input" in capsys.readouterr().err
