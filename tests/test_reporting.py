"""Artifact-emission tests: round trips, formatting, manifest schema."""

import csv
import json
import math
import os

import numpy as np
import pytest

from zklab import (
    DataError,
    DiagnosticsRecorder,
    DispersionForm,
    Field,
    SolverState,
    build_manifest,
    dealias,
    energy,
    evolve,
    format_value,
    make_field,
    make_grid,
    mass,
    read_frame_csv,
    validate_manifest,
    write_csv,
    write_frame_csv,
    write_json,
)
from zklab.dynamics import max_dispersion

G = make_grid(16, 16, 2 * np.pi, 4 * np.pi)


class TestFormatting:
    def test_format_value_types(self):
        assert format_value(True) == "true"
        assert format_value(np.bool_(False)) == "false"
        assert format_value(np.int64(7)) == "7"
        assert format_value(0.1) == "0.10000000000000001"
        assert format_value("label") == "label"

    def test_float_round_trip(self):
        for v in (1.0 / 3.0, np.pi, 1e-300, 123456.789):
            assert float(format_value(v)) == v


class TestCsvJson:
    def test_csv_rows_and_dict_rows(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(path, ["a", "b (units)"], [(1, 2.5), {"a": 3, "b": 4.5}])
        lines = open(path).read().splitlines()
        assert lines[0] == "a,b (units)"
        assert lines[1] == "1,2.5"
        assert lines[2] == "3,4.5"

    def test_csv_quotes_only_cells_with_commas_or_quotes(self, tmp_path):
        path = str(tmp_path / "out.csv")
        cells = ["x, y", 'say "hi"', 1.5, ""]
        write_csv(path, ["a", "b", "c", "d"], [cells])
        lines = open(path).read().splitlines()
        assert lines == ["a,b,c,d", '"x, y","say ""hi""",1.5,']
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [["a", "b", "c", "d"],
                                            ["x, y", 'say "hi"', "1.5", ""]]

    def test_json_deterministic(self, tmp_path):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        payload = {"z": np.float64(1.5), "a": np.arange(3), "n": np.int32(2)}
        write_json(p1, payload)
        write_json(p2, payload)
        assert open(p1).read() == open(p2).read()
        data = json.load(open(p1))
        assert data["a"] == [0, 1, 2]

    def test_no_temp_files_left(self, tmp_path):
        write_csv(str(tmp_path / "x.csv"), ["a"], [(1,)])
        assert all(not f.endswith(".tmp") for f in os.listdir(tmp_path))


class TestFrameFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        u = make_field(G, rng.standard_normal((16, 16)))
        path = str(tmp_path / "frame.csv")
        write_frame_csv(path, u)
        v = read_frame_csv(path)
        assert v.grid == G
        np.testing.assert_array_equal(v.values, u.values)

    def test_rejects_foreign_file(self, tmp_path):
        path = str(tmp_path / "foreign.csv")
        open(path, "w").write("a,b\n1,2\n")
        with pytest.raises(DataError):
            read_frame_csv(path)

    def test_rejects_truncated_body(self, tmp_path):
        u = make_field(G, np.ones((16, 16)))
        path = str(tmp_path / "frame.csv")
        write_frame_csv(path, u)
        lines = open(path).read().splitlines()
        open(path, "w").write("\n".join(lines[:-3]) + "\n")
        with pytest.raises(DataError):
            read_frame_csv(path)


class TestManifest:
    def test_build_and_validate(self):
        man = build_manifest("simulate", {"seed": 3, "dt": 1e-3}, 1.25, ["a.csv"])
        validate_manifest(man)
        assert man["tool"] == "zklab"
        assert man["seed"] == 3
        assert len(man["config_sha256"]) == 64
        assert man["outputs"] == ["a.csv"]

    def test_sha_tracks_config(self):
        a = build_manifest("simulate", {"dt": 1e-3}, 0.0, [])
        b = build_manifest("simulate", {"dt": 2e-3}, 0.0, [])
        assert a["config_sha256"] != b["config_sha256"]

    def test_missing_key_rejected(self):
        man = build_manifest("probe", {}, 0.0, [])
        del man["versions"]
        with pytest.raises(DataError):
            validate_manifest(man)

    def test_wrong_type_rejected(self):
        man = build_manifest("probe", {}, 0.0, [])
        man["wall_time_s"] = "fast"
        with pytest.raises(DataError):
            validate_manifest(man)


class TestDiagnosticsRecorder:
    def test_records_conserved_quantities(self):
        rec = DiagnosticsRecorder()
        x = G.x[:, None] + 0.0 * G.y[None, :]
        u0 = make_field(G, 0.1 * np.cos(x))
        evolve(u0, 0.01, 1e-3, DispersionForm.ORIGINAL,
               sample_every=5, diagnostics=rec)
        assert len(rec.rows) == 3
        t_col = [row[0] for row in rec.rows]
        np.testing.assert_allclose(t_col, [0.0, 5e-3, 1e-2], atol=1e-12)
        masses = [row[1] for row in rec.rows]
        assert masses[0] == pytest.approx(masses[-1], rel=1e-10)
        assert len(rec.HEADER) == len(rec.rows[0])

    @pytest.mark.parametrize("form", list(DispersionForm))
    @pytest.mark.parametrize("nx, ny", [(16, 16), (16, 32), (64, 8)])
    def test_rows_are_the_public_quantities(self, form, nx, ny):
        """Rows read off each state's band block equal the public calls on its
        full-spectrum field."""
        g = make_grid(nx, ny, 2 * np.pi, 3.0)
        u = make_field(g, 0.3 * np.random.default_rng(4).standard_normal((nx, ny)))
        rec, want = DiagnosticsRecorder(form), []

        def both(state):
            rec(state)
            field = Field(g, g.full_spectrum(state.band), "spectral")
            m = mass(field)
            want.append((state.t, m, energy(field, form), math.sqrt(m),
                         float(np.max(np.abs(field.values)))))

        dt = min(1e-3, 0.5 / max_dispersion(g, form))
        evolve(u, 4 * dt, dt, form, sample_every=2, diagnostics=both)
        assert len(want) == 3
        assert rec.rows == want

    def test_l2_stays_finite_where_mass_overflows(self):
        u = dealias(make_field(G, 1e200 * np.cos(G.x[:, None] + 0.0 * G.y[None, :])))
        rec = DiagnosticsRecorder()
        with np.errstate(over="ignore", invalid="ignore"):
            rec(SolverState(u, 0.0, 1e-3, DispersionForm.ORIGINAL))
        _, m, _, l2, linf = rec.rows[0]
        assert m == np.inf
        # ||A cos x||_2 = A sqrt(area / 2)
        assert l2 == pytest.approx(1e200 * math.sqrt(G.area / 2.0), rel=1e-14)
        assert linf == pytest.approx(1e200, rel=1e-14)
