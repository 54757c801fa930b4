"""End-to-end command tests: files, manifests, exit codes, determinism."""

import hashlib
import json
import logging
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikmig import migrate as migrate_module
from ikmig.cli import main
from ikmig.forward import (
    array_response_band,
    direct_arrivals_band,
    intensity_data,
    read_field_csv,
    write_field_csv,
    write_illumination_csv,
    write_intensity_csv,
)
from ikmig.migrate import migrate_broadband_stack, write_image_csv
from ikmig.recover import recover_band
from ikmig.scene import (
    FrequencyGrid,
    ImageWindowSpec,
    PointScatterer,
    Scene,
    emit_scene,
    linear_array,
    parse_scene,
    preset_scene,
)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_clean_dir(path):
    leftovers = list(path.glob("*.tmp"))
    assert leftovers == []


def exit_code(argv):
    """main's return code, counting argparse's SystemExit as its exit code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def small_scene():
    return Scene(
        dimension=3,
        c0=343.0,
        receivers=linear_array((0.0, 0.0), 4.0, 9, (0.0, 1.0)),
        source=np.array([0.5, -3.0]),
        band=FrequencyGrid(400.0, 800.0, 5),
        scatterers=(PointScatterer((5.0, 0.0), 1e-3),),
        window=ImageWindowSpec((5.0, 0.0), 0.2, 4),
    )


@pytest.fixture(scope="module")
def point_sim(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim_point")
    assert main(["simulate", "--scene", "preset:point", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def point_rec(tmp_path_factory, point_sim):
    out = tmp_path_factory.mktemp("rec_point")
    rc = main(["recover", "--scene", "preset:point",
               "--data", str(point_sim / "intensity.csv"), "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """scene.json, intensity.csv, illumination.csv and recovered.csv of small_scene()."""
    out = tmp_path_factory.mktemp("small")
    sc = small_scene()
    (out / "scene.json").write_text(emit_scene(sc))
    write_intensity_csv(intensity_data(sc), out / "intensity.csv")
    write_illumination_csv(intensity_data(sc), out / "illumination.csv")
    write_field_csv(sc.band.omegas, recover_band(sc, intensity_data(sc)), out / "recovered.csv")
    return out


@pytest.fixture(scope="module")
def exp_point(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp_point")
    rc = main(["experiment", "--case", "point", "--out", str(out),
               "--threads", "2"])
    assert rc == 0
    return out


class TestSimulate:
    def test_row_counts(self, point_sim):
        lines = (point_sim / "intensity.csv").read_text().splitlines()
        assert len(lines) == 1 + 100 * 501
        illum = (point_sim / "illumination.csv").read_text().splitlines()
        assert len(illum) == 1 + 100
        assert_clean_dir(point_sim)

    def test_values_match_in_process(self, point_sim):
        sc = preset_scene("point")
        want = intensity_data(sc)
        rows = (point_sim / "intensity.csv").read_text().splitlines()[1:]
        got_first = float(rows[0].split(",")[3])
        got_last = float(rows[-1].split(",")[3])
        assert got_first == want.values[0, 0]
        assert got_last == want.values[-1, -1]

    def test_manifest_hashes(self, point_sim):
        manifest = json.loads((point_sim / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert len(manifest["scene_sha256"]) == 64
        for name, digest in manifest["outputs"].items():
            assert digest == sha256(point_sim / name)

    def test_stochastic_runs_are_byte_deterministic(self, tmp_path):
        args = ["simulate", "--scene", "preset:stochastic", "--stochastic",
                "--seed", "5", "--noise-fraction", "0.1"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "intensity.csv").read_bytes() == (b / "intensity.csv").read_bytes()
        assert (a / "illumination.csv").read_bytes() == (b / "illumination.csv").read_bytes()

    def test_scene_file_input_is_hashed(self, tmp_path):
        spath = tmp_path / "scene.json"
        spath.write_text(emit_scene(small_scene()))
        out = tmp_path / "out"
        assert main(["simulate", "--scene", str(spath), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"]["scene"]["sha256"] == sha256(spath)


class TestRecover:
    def test_matches_in_process_recovery(self, point_rec):
        sc = preset_scene("point")
        want = recover_band(sc, intensity_data(sc))
        got = read_field_csv(point_rec / "recovered.csv", sc)
        assert np.array_equal(got, want)
        assert_clean_dir(point_rec)

    def test_report_contents(self, point_rec):
        report = json.loads((point_rec / "report.json").read_text())
        assert report["geometry"]["ok"] is True
        assert report["geometry"]["violating_receivers"] == []
        conds = report["conditioning"]
        assert len(conds) == 100
        assert all(c == conds[0] for c in conds)
        assert conds[0] == pytest.approx(2.4083189157584597, rel=1e-12)

    def test_sidecar_defaulting(self, point_sim, point_rec):
        manifest = json.loads((point_rec / "manifest.json").read_text())
        assert manifest["inputs"]["illumination"]["path"] == str(
            point_sim / "illumination.csv")

    def test_missing_sidecar_defaults_to_unit_illumination(self, point_sim, tmp_path):
        data = tmp_path / "intensity.csv"
        data.write_bytes((point_sim / "intensity.csv").read_bytes())
        out = tmp_path / "out"
        rc = main(["recover", "--scene", "preset:point",
                   "--data", str(data), "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "illumination" not in manifest["inputs"]

    def test_no_scatterers_recovers_nothing(self, tmp_path):
        from dataclasses import replace
        sc = replace(small_scene(), scatterers=())
        spath = tmp_path / "scene.json"
        spath.write_text(emit_scene(sc))
        sim = tmp_path / "sim"
        rec = tmp_path / "rec"
        assert main(["simulate", "--scene", str(spath), "--out", str(sim)]) == 0
        assert main(["recover", "--scene", str(spath),
                     "--data", str(sim / "intensity.csv"), "--out", str(rec)]) == 0
        ptilde = read_field_csv(rec / "recovered.csv", sc)
        g0 = direct_arrivals_band(sc)
        assert np.max(np.abs(ptilde)) <= 1e-12 * np.max(np.abs(g0))


class TestMigrate:
    @pytest.fixture()
    def prepared(self, tmp_path):
        sc = small_scene()
        spath = tmp_path / "scene.json"
        spath.write_text(emit_scene(sc))
        ptilde = recover_band(sc, intensity_data(sc))
        p = array_response_band(sc)
        fpath = tmp_path / "recovered.csv"
        rpath = tmp_path / "reference.csv"
        write_field_csv(sc.band.omegas, ptilde, fpath)
        write_field_csv(sc.band.omegas, p, rpath)
        return sc, spath, fpath, rpath, ptilde, p

    def test_image_matches_in_process(self, prepared, tmp_path):
        sc, spath, fpath, _, ptilde, _ = prepared
        out = tmp_path / "out"
        rc = main(["migrate", "--scene", str(spath), "--field", str(fpath),
                   "--out", str(out)])
        assert rc == 0
        (want,) = migrate_broadband_stack(sc, ptilde[:, :, None])
        write_image_csv(want, sc.window, tmp_path / "want.csv")
        assert (out / "image.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert (out / "image.pgm").read_text().startswith("P2\n")
        metrics = json.loads((out / "metrics.json").read_text())
        assert "reference" not in metrics
        assert metrics["image"]["correlation"] is None
        assert_clean_dir(out)

    def test_reference_metrics(self, prepared, tmp_path):
        sc, spath, fpath, rpath, _, _ = prepared
        out = tmp_path / "out"
        rc = main(["migrate", "--scene", str(spath), "--field", str(fpath),
                   "--reference", str(rpath), "--out", str(out)])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"image", "reference", "peak_displacement_cells"}
        assert metrics["peak_displacement_cells"] == 0
        assert 0.9 <= metrics["image"]["correlation"] <= 1.0
        assert metrics["reference"]["correlation"] is None
        assert (out / "image_reference.csv").exists()
        assert (out / "image_reference.pgm").exists()

    def test_reference_does_not_change_the_image_bytes(self, prepared, tmp_path):
        # A field's image must not depend on what else shares its stack.
        _, spath, fpath, rpath, _, _ = prepared
        alone, paired = tmp_path / "alone", tmp_path / "paired"
        args = ["migrate", "--scene", str(spath), "--field", str(fpath)]
        assert main(args + ["--out", str(alone)]) == 0
        assert main(args + ["--reference", str(rpath), "--out", str(paired)]) == 0
        for name in ("image.csv", "image.pgm"):
            assert (alone / name).read_bytes() == (paired / name).read_bytes()

    def test_band_mismatch_is_a_format_error(self, prepared, tmp_path):
        sc, spath, _, _, ptilde, _ = prepared
        wrong = tmp_path / "wrong.csv"
        write_field_csv(sc.band.omegas * 1.01, ptilde, wrong)
        out = tmp_path / "out"
        rc = main(["migrate", "--scene", str(spath), "--field", str(wrong),
                   "--out", str(out)])
        assert rc == 2

    def test_reference_receiver_count_is_a_format_error(self, prepared, tmp_path, capsys):
        sc, spath, fpath, _, _, p = prepared
        short = tmp_path / "short.csv"
        write_field_csv(sc.band.omegas, p[:, :-1], short)
        rc = main(["migrate", "--scene", str(spath), "--field", str(fpath),
                   "--reference", str(short), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: reference file holds 40 data rows; the scene expects 45\n")

    @pytest.mark.parametrize("flag", ["--field", "--reference"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_field_is_a_format_error(self, prepared, tmp_path, capsys, flag, value):
        _, spath, fpath, rpath, _, _ = prepared
        bad = tmp_path / "bad.csv"
        lines = (fpath if flag == "--field" else rpath).read_text().splitlines()
        lines[7] = ",".join(lines[7].split(",")[:3] + [value, "0"])
        bad.write_text("\n".join(lines) + "\n")
        files = {"--field": fpath, "--reference": rpath, flag: bad}
        rc = main(["migrate", "--scene", str(spath), "--field", str(files["--field"]),
                   "--reference", str(files["--reference"]), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag[2:]} data must be finite\n"
        assert not (tmp_path / "out" / "metrics.json").exists()

    @pytest.mark.parametrize("case, message", [
        ("header", "error: unexpected reference header"),
        ("row", "error: malformed reference row"),
        ("inf", "error: reference data must be finite"),
    ])
    def test_reference_errors_name_the_reference(self, prepared, tmp_path, capsys,
                                                 case, message):
        _, spath, fpath, rpath, _, _ = prepared
        lines = rpath.read_text().splitlines()
        if case == "header":
            lines[0] = "freq_index,omega_rad_s,receiver_index,re"
        elif case == "row":
            lines[3] = lines[3].rsplit(",", 1)[0]
        else:
            lines[3] = lines[3].rsplit(",", 1)[0] + ",inf"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["migrate", "--scene", str(spath), "--field", str(fpath),
                   "--reference", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1


class TestExperiment:
    def test_point_metrics(self, exp_point):
        metrics = json.loads((exp_point / "metrics.json").read_text())
        assert metrics["peak_displacement_cells"] == 0
        assert metrics["true"]["peak_cell"] == [0, 0]
        assert metrics["recovered"]["correlation"] >= 0.99
        assert metrics["geometry"]["ok"] is True
        assert metrics["linearization_residual_max"] == pytest.approx(
            0.11531241853097331, rel=1e-9)

    def test_point_artifacts(self, exp_point):
        for name in ("scene.json", "intensity.csv", "illumination.csv",
                     "recovered.csv", "image_true.csv", "image_true.pgm",
                     "image_recovered.csv", "image_recovered.pgm",
                     "metrics.json", "manifest.json"):
            assert (exp_point / name).exists(), name
        manifest = json.loads((exp_point / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            assert digest == sha256(exp_point / name)
        assert_clean_dir(exp_point)

    def test_point_images_match_in_process(self, exp_point, tmp_path):
        sc = preset_scene("point")
        p = array_response_band(sc)
        ptilde = recover_band(sc, intensity_data(sc))
        images = migrate_broadband_stack(sc, np.stack([p, ptilde], axis=2), threads=2)
        for name, image in zip(("image_true.csv", "image_recovered.csv"), images):
            write_image_csv(image, sc.window, tmp_path / name)
            assert (exp_point / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_equals_recover_then_migrate(self, exp_point, tmp_path):
        # The experiment runs the same stages as `recover` then `migrate --reference`.
        scene = exp_point / "scene.json"
        sc = parse_scene(scene.read_text())
        truth = tmp_path / "truth.csv"
        write_field_csv(sc.band.omegas, array_response_band(sc), truth)
        rec, mig = tmp_path / "rec", tmp_path / "mig"
        assert main(["recover", "--scene", str(scene),
                     "--data", str(exp_point / "intensity.csv"), "--out", str(rec)]) == 0
        assert main(["migrate", "--scene", str(scene), "--field", str(rec / "recovered.csv"),
                     "--reference", str(truth), "--threads", "2", "--out", str(mig)]) == 0
        for got, want in ((rec / "recovered.csv", "recovered.csv"),
                          (mig / "image.csv", "image_recovered.csv"),
                          (mig / "image.pgm", "image_recovered.pgm"),
                          (mig / "image_reference.csv", "image_true.csv"),
                          (mig / "image_reference.pgm", "image_true.pgm")):
            assert got.read_bytes() == (exp_point / want).read_bytes(), want

    def test_stochastic_requires_seed(self, tmp_path):
        out = tmp_path / "out"
        assert main(["experiment", "--case", "stochastic",
                     "--out", str(out)]) == 2

    def test_stochastic_noisy_end_to_end(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["experiment", "--case", "stochastic_noisy",
                   "--out", str(out), "--seed", "3", "--threads", "2"])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["peak_displacement_cells"] <= 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["noise_fraction"] == 0.1
        values = np.array([
            float(line.split(",")[3])
            for line in (out / "intensity.csv").read_text().splitlines()[1:]
        ])
        assert np.all(values >= 0.0)

    def test_condition_study(self, tmp_path):
        out = tmp_path / "out"
        assert main(["experiment", "--case", "condition_study",
                     "--out", str(out)]) == 0
        limits = json.loads((out / "limits.json").read_text())
        rows = (out / "condition.csv").read_text().splitlines()
        assert rows[0] == "freq_index,omega_rad_s,cond_d3,cond_d2"
        assert len(rows) == 101
        d3 = np.array([float(r.split(",")[2]) for r in rows[1:]])
        d2 = np.array([float(r.split(",")[3]) for r in rows[1:]])
        assert np.all(d3 == limits["d3_distance_ratio"])
        assert np.max(np.abs(d2 / limits["d2_sqrt_limit"] - 1.0)) < 1e-8
        assert limits["d2_sqrt_limit"] == pytest.approx(
            np.sqrt(limits["d3_distance_ratio"]), rel=1e-12)

    def test_spurious_term(self, tmp_path):
        out = tmp_path / "out"
        assert main(["experiment", "--case", "spurious_term",
                     "--out", str(out), "--threads", "2"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["degenerate"] is False
        assert report["geometry_ok"] is True
        assert 0.0 < report["ratio"] < 0.05
        assert (out / "image_mirror.csv").exists()
        assert (out / "image_true.pgm").exists()

    def test_spurious_term_builds_each_kernel_once(self, tmp_path, monkeypatch):
        # Both images share one geometry build: every (cell, receiver)
        # entry is built once for the whole band and both fields.
        entries = []
        geometry = migrate_module._geometry

        def counting(scene, cells, spacing):
            d_recv, d_src, mask = geometry(scene, cells, spacing)
            entries.append(d_recv.size)
            return d_recv, d_src, mask

        monkeypatch.setattr(migrate_module, "_geometry", counting)
        assert main(["experiment", "--case", "spurious_term",
                     "--out", str(tmp_path / "out"), "--threads", "2"]) == 0
        sc = preset_scene("point")
        assert sum(entries) == sc.window.cells_per_side ** 2 * sc.n_receivers

    def test_unknown_case(self, tmp_path):
        assert main(["experiment", "--case", "bogus",
                     "--out", str(tmp_path / "out")]) == 2


class TestConditionCommand:
    def test_writes_per_frequency_values(self, tmp_path):
        spath = tmp_path / "scene.json"
        spath.write_text(emit_scene(small_scene()))
        out = tmp_path / "out"
        assert main(["condition", "--scene", str(spath), "--out", str(out)]) == 0
        rows = (out / "condition.csv").read_text().splitlines()
        assert rows[0] == "freq_index,omega_rad_s,cond"
        assert len(rows) == 6
        sc = small_scene()
        dists = np.linalg.norm(sc.receivers - sc.source, axis=1)
        want = dists.max() / dists.min()
        assert float(rows[1].split(",")[2]) == pytest.approx(want, rel=1e-12)


class TestCheckGeometry:
    def test_failing_preset_reports_and_exits_zero(self, capsys):
        rc = main(["check-geometry", "--scene", "preset:breakdown_d"])
        assert rc == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["ok"] is False
        assert payload["violating_receivers"] == [250]
        assert "view cone" in captured.err

    def test_passing_preset(self, capsys, tmp_path):
        out = tmp_path / "geom"
        rc = main(["check-geometry", "--scene", "preset:point", "--out", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        saved = json.loads((out / "geometry.json").read_text())
        assert saved == payload


class TestWarnings:
    """Each warning reaches stderr once per call, as a "warning: " line,
    and ``main`` leaves no handler behind."""

    def assert_warns_once_per_call(self, capsys, argv, message):
        capsys.readouterr()
        for _ in range(2):
            assert main(argv) == 0
            err = capsys.readouterr().err
            assert [line for line in err.splitlines() if "warning" in line] == [
                f"warning: {message}"]
            assert logging.getLogger("ikmig").handlers == []

    def test_scatterer_outside_the_window(self, tmp_path, capsys):
        spath = tmp_path / "scene.json"
        outside = replace(small_scene(), scatterers=(PointScatterer((30.0, 0.0), 1e-3),))
        spath.write_text(emit_scene(outside))
        self.assert_warns_once_per_call(
            capsys, ["simulate", "--scene", str(spath), "--out", str(tmp_path / "o")],
            "scatterer 0 lies outside the image window")

    def test_recover_geometry(self, tmp_path, capsys):
        # The source sits in front of the middle receiver, inside its view cone.
        sc = replace(small_scene(), source=np.array([0.5, 0.0]))
        spath = tmp_path / "scene.json"
        spath.write_text(emit_scene(sc))
        write_intensity_csv(intensity_data(sc), tmp_path / "intensity.csv")
        self.assert_warns_once_per_call(
            capsys, ["recover", "--scene", str(spath), "--data", str(tmp_path / "intensity.csv"),
                     "--out", str(tmp_path / "o")],
            "geometric visibility violated at receivers [4]")

    def test_check_geometry(self, capsys):
        self.assert_warns_once_per_call(
            capsys, ["check-geometry", "--scene", "preset:breakdown_d"],
            "source lies inside a receiver view cone")

    def test_run_as_a_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ikmig.cli", "check-geometry", "--scene", "preset:breakdown_d"],
            capture_output=True, text=True, env=src_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "warning: source lies inside a receiver view cone\n"


class TestExitCodes:
    def test_noise_fraction_without_stochastic(self, tmp_path, capsys):
        rc = main(["simulate", "--scene", "preset:point", "--noise-fraction",
                   "0.1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "requires --stochastic" in capsys.readouterr().err

    def test_stochastic_without_seed(self, tmp_path, capsys):
        rc = main(["simulate", "--scene", "preset:point", "--stochastic",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "requires --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
    def test_noise_fraction_must_be_finite_and_nonnegative(self, tmp_path, capsys, value):
        rc = main(["simulate", "--scene", "preset:point", "--stochastic", "--seed", "1",
                   "--noise-fraction", value, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "--noise-fraction" in capsys.readouterr().err

    def test_stochastic_needs_a_band_of_positive_width(self, tmp_path, capsys):
        spath = tmp_path / "scene.json"
        spath.write_text(emit_scene(replace(small_scene(), band=FrequencyGrid(600.0, 600.0, 1))))
        rc = main(["simulate", "--scene", str(spath), "--stochastic", "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "band must span a positive width" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_thread_count_must_be_positive(self, small_files, tmp_path, capsys, threads):
        for command in (["migrate", "--scene", str(small_files / "scene.json"),
                         "--field", str(small_files / "recovered.csv")],
                        ["experiment", "--case", "condition_study"]):
            rc = exit_code(command + ["--threads", threads, "--out", str(tmp_path / "o")])
            assert rc == 2
            assert "--threads" in capsys.readouterr().err

    def test_missing_scene_file(self, tmp_path):
        rc = main(["simulate", "--scene", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 4

    def test_invalid_scene_json(self, tmp_path):
        spath = tmp_path / "scene.json"
        for content in (b"{broken", b"\xff{}"):
            spath.write_bytes(content)
            rc = main(["simulate", "--scene", str(spath),
                       "--out", str(tmp_path / "o")])
            assert rc == 2

    def test_data_scene_grid_mismatch(self, tmp_path):
        sc = small_scene()
        sim = tmp_path / "sim"
        spath = tmp_path / "scene.json"
        spath.write_text(emit_scene(sc))
        assert main(["simulate", "--scene", str(spath), "--out", str(sim)]) == 0
        other = tmp_path / "other.json"
        other.write_text(emit_scene(replace(sc, band=FrequencyGrid(300.0, 900.0, 5))))
        rc = main(["recover", "--scene", str(other),
                   "--data", str(sim / "intensity.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_non_numeric_scene_number_is_a_parse_error(self, tmp_path, capsys):
        doc = json.loads(emit_scene(small_scene()))
        doc["band"]["f_min_hz"] = "abc"
        spath = tmp_path / "scene.json"
        spath.write_text(json.dumps(doc))
        rc = main(["simulate", "--scene", str(spath), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "band.f_min_hz" in capsys.readouterr().err

    def test_non_integer_csv_index_is_a_format_error(self, tmp_path, capsys):
        data = tmp_path / "intensity.csv"
        header = b"freq_index,omega_rad_s,receiver_index,value\n"
        for content, message in ((header + b"x,1.0,0,2.0\n", "malformed"),
                                 (b"\xff" + header, "undecodable")):
            data.write_bytes(content)
            rc = main(["recover", "--scene", "preset:point", "--data", str(data),
                       "--out", str(tmp_path / "o")])
            assert rc == 2
            assert message in capsys.readouterr().err

    def test_zero_illumination_is_a_numeric_error(self, tmp_path):
        sc = small_scene()
        sim = tmp_path / "sim"
        spath = tmp_path / "scene.json"
        spath.write_text(emit_scene(sc))
        assert main(["simulate", "--scene", str(spath), "--out", str(sim)]) == 0
        illum = sim / "illumination.csv"
        lines = illum.read_text().splitlines()
        parts = lines[2].split(",")
        lines[2] = f"{parts[0]},{parts[1]},0"
        illum.write_text("\n".join(lines) + "\n")
        rc = main(["recover", "--scene", str(spath),
                   "--data", str(sim / "intensity.csv"),
                   "--illumination", str(illum),
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    # Sizes past the 128 TiB user address space, so the allocation fails at
    # once on any host.  A side of 6e6 cells asks for 524 TiB of cell
    # coordinates after touching about 0.14 GB of per-side offsets; a side
    # of 2e7 would touch 0.46 GB first.
    def test_too_large_window_is_out_of_memory(self, small_files, tmp_path, capsys):
        spath = tmp_path / "scene.json"
        huge = ImageWindowSpec((5.0, 0.0), 0.2, 3 * 10**6)
        spath.write_text(emit_scene(replace(small_scene(), window=huge)))
        rc = main(["migrate", "--scene", str(spath),
                   "--field", str(small_files / "recovered.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ")
        assert "Traceback" not in err

    # Lengths past what a NumPy array can address: NumPy refuses these with
    # ValueError before any allocation, so they must map to out of memory too.
    @pytest.mark.parametrize("case", ["band", "window", "receivers"])
    def test_sizes_past_the_address_range_are_out_of_memory(
            self, small_files, tmp_path, capsys, case):
        doc = json.loads(emit_scene(small_scene()))
        argv = ["condition"]
        if case == "band":
            doc["band"]["count"] = 10**30
        elif case == "window":
            doc["window"]["half_extent"] = 10**30
            argv = ["migrate", "--field", str(small_files / "recovered.csv")]
        else:
            doc["receivers"] = {"linear": {"center": [0.0, 0.0], "length": 4.0,
                                           "count": 10**30, "axis": [0.0, 1.0]}}
        spath = tmp_path / "scene.json"
        spath.write_text(json.dumps(doc))
        rc = main(argv + ["--scene", str(spath), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ")
        assert "Traceback" not in err

    def test_too_many_receivers_is_out_of_memory(self, tmp_path, capsys):
        doc = json.loads(emit_scene(small_scene()))
        doc["receivers"] = {"linear": {"center": [0.0, 0.0], "length": 4.0,
                                       "count": 10**15, "axis": [0.0, 1.0]}}
        spath = tmp_path / "scene.json"
        spath.write_text(json.dumps(doc))
        rc = main(["simulate", "--scene", str(spath), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ")
        assert "Traceback" not in err


def test_commands_close_their_files(tmp_path):
    """Under -X dev an unclosed file prints a ResourceWarning to stderr."""
    env = src_env()
    for args in (["condition", "--scene", "preset:point", "--out", str(tmp_path / "c")],
                 ["check-geometry", "--scene", "preset:point", "--out", str(tmp_path / "g")]):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "ikmig.cli",
             *args], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr


@settings(max_examples=40, deadline=None)
@given(noise=st.floats(), threads=st.integers(-2, 4))
def test_fuzzed_flags_keep_the_exit_code_contract(small_files, noise, threads):
    scene = str(small_files / "scene.json")
    out = str(small_files / "fuzz")
    rc = exit_code(["simulate", "--scene", scene, "--stochastic", "--seed", "1",
                    f"--noise-fraction={noise!r}", "--out", out])
    assert rc in {0, 2, 3, 4}
    rc = exit_code(["migrate", "--scene", scene, "--field", str(small_files / "recovered.csv"),
                    f"--threads={threads}", "--out", out])
    assert rc in {0, 2, 3, 4}


def mutate(raw: bytes, edits) -> bytes:
    """``raw`` with each (position, byte) edit applied in turn: the byte at
    the position (modulo the length) is replaced, or deleted for None."""
    out = bytearray(raw)
    for pos, byte in edits:
        if not out:
            break
        if byte is None:
            del out[pos % len(out)]
        else:
            out[pos % len(out)] = byte
    return bytes(out)


# Replacements and deletions only: no edit can lengthen a number by more
# than the bytes around it, so a mutated file cannot ask for a huge problem.
_EDITS = st.lists(
    st.tuples(st.integers(0, 2**16),
              st.none() | st.sampled_from(list(b"-+.e0123456789,:[]{}\"\n")) | st.integers(0, 255)),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(data_edits=_EDITS, illumination_edits=_EDITS, field_edits=_EDITS, scene_edits=_EDITS)
def test_fuzzed_input_files_keep_the_exit_code_contract(
        small_files, data_edits, illumination_edits, field_edits, scene_edits):
    fuzz = small_files / "fuzz_files"
    fuzz.mkdir(exist_ok=True)
    scene = str(small_files / "scene.json")
    data = fuzz / "intensity.csv"
    data.write_bytes(mutate((small_files / "intensity.csv").read_bytes(), data_edits))
    rc = exit_code(["recover", "--scene", scene, "--data", str(data), "--out", str(fuzz / "rec")])
    assert rc in {0, 2, 3, 4}
    # Not named illumination.csv, which ``recover`` above would take as its sidecar.
    illum = fuzz / "illum.csv"
    illum.write_bytes(mutate((small_files / "illumination.csv").read_bytes(),
                             illumination_edits))
    rc = exit_code(["recover", "--scene", scene, "--data", str(small_files / "intensity.csv"),
                    "--illumination", str(illum), "--out", str(fuzz / "rec")])
    assert rc in {0, 2, 3, 4}
    field = fuzz / "recovered.csv"
    field.write_bytes(mutate((small_files / "recovered.csv").read_bytes(), field_edits))
    for flag in ("--field", "--reference"):
        files = {"--field": small_files / "recovered.csv",
                 "--reference": small_files / "recovered.csv", flag: field}
        rc = exit_code(["migrate", "--scene", scene, "--field", str(files["--field"]),
                        "--reference", str(files["--reference"]), "--out", str(fuzz / "mig")])
        assert rc in {0, 2, 3, 4}
    scene = fuzz / "scene.json"
    scene.write_bytes(mutate((small_files / "scene.json").read_bytes(), scene_edits))
    rc = exit_code(["simulate", "--scene", str(scene), "--out", str(fuzz / "sim")])
    assert rc in {0, 2, 3, 4}
