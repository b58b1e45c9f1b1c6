import json
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from anesmpc import cli, geometry, mpc, pipeline, pkpd, qp
from anesmpc.errors import GeometryError, ModelConfigError

from conftest import controller_path, patient_path
from oracles import load_matrix, load_polyhedron


@pytest.fixture(scope="module")
def paths():
    return str(patient_path()), str(controller_path())


@pytest.fixture(scope="module")
def bundle(paths):
    return cli.build_bundle(*paths)


class TestIngredients:
    def test_bundle_files_and_manifest(self, paths, tmp_path_factory, capsys):
        out = tmp_path_factory.mktemp("bundle")
        rc = cli.main(["ingredients", "--patient", paths[0], "--config", paths[1],
                       "--out", str(out)])
        assert rc == 0
        for name in ("K.txt", "P.txt", "psi.txt", "A_w.txt", "X_a.poly", "D.txt",
                     "m_bar.txt", "V.txt", "steady_segment.txt", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["lambda"] == 0.99
        assert manifest["parameters"]["m_bar"] == [0.12, 0.27]
        # written K/P round-trip and show the two-drug sparsity pattern
        K = load_matrix(out / "K.txt")
        P = load_matrix(out / "P.txt")
        assert np.max(np.abs(K[0, 2:])) <= 1e-10
        assert np.max(np.abs(P[:2, 2:])) <= 1e-10
        capsys.readouterr()

    def test_manifest_proves_invariance(self, paths, bundle, tmp_path):
        pipeline.save_ingredients(tmp_path, bundle, *paths)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"]["invariance_excess"] <= 1e-9

    def test_summary_printed(self, paths, tmp_path, capsys):
        rc = cli.main(["ingredients", "--patient", paths[0], "--config", paths[1],
                       "--out", str(tmp_path)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "lambda" in text and "m_bar" in text and "X_a" in text


class TestSimulate:
    def test_csv_and_plots(self, paths, tmp_path, capsys):
        rc = cli.main(["simulate", "--patient", paths[0], "--config", paths[1],
                       "--out", str(tmp_path), "--duration", "600", "--svg"])
        assert rc == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert len(lines) == 1 + 120  # header + one row per control step
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(97.4)  # starts at E0
        last = lines[-1].split(",")
        assert abs(float(last[1]) - 50.0) <= 1.0
        for name in ("bis.svg", "inputs.svg", "fast_states.svg"):
            assert (tmp_path / name).stat().st_size > 500
        capsys.readouterr()

    def test_duration_not_multiple_of_ts(self, paths, tmp_path, capsys):
        rc = cli.main(["simulate", "--patient", paths[0], "--config", paths[1],
                       "--out", str(tmp_path), "--duration", "601"])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_duration(self, paths, tmp_path, capsys, duration):
        rc = cli.main(["simulate", "--patient", paths[0], "--config", paths[1],
                       "--out", str(tmp_path), "--duration", duration])
        assert rc == 2
        assert "duration must be a positive multiple of Ts" in capsys.readouterr().err


class TestValidate:
    def test_default_config_all_pass(self, paths, capsys):
        rc = cli.main(["validate", "--patient", paths[0], "--config", paths[1]])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == len(pipeline.VALIDATION_CHECKS)
        assert "FAIL" not in out

    def test_corrupted_gain_fails_cancellation(self, bundle):
        import dataclasses

        bad = dataclasses.replace(bundle, gain=dataclasses.replace(
            bundle.gain, D=-bundle.gain.D))
        results = pipeline.run_validation_checks(
            bad, checks=[("cancellation", pipeline._check_cancellation)])
        assert results[0][1] is False

    def test_disturbance_bound_certified_on_the_nominal_run(self, bundle):
        import dataclasses

        checks = [("disturbance-bound", pipeline._check_disturbance_bound)]
        ((_, ok, detail, _),) = pipeline.run_validation_checks(bundle, checks=checks)
        assert ok and "(0.0522, 0.193) vs m_bar (0.12, 0.27)" in detail
        # a bound below what the nominal run needs fails
        low = dataclasses.replace(bundle, m_bar=np.array([0.05, 0.19]))
        ((_, ok, _, _),) = pipeline.run_validation_checks(low, checks=checks)
        assert ok is False

    def test_nominal_loop_simulated_once(self, bundle, monkeypatch):
        runs = []
        real = cli.sim.simulate_closed_loop

        def counting(*a, **k):
            runs.append(1)
            return real(*a, **k)

        monkeypatch.setattr(cli.sim, "simulate_closed_loop", counting)
        results = pipeline.run_validation_checks(bundle)
        assert all(ok for _, ok, *_ in results)
        assert len(runs) == 1
        # any subset still runs on its own
        for name, fn in pipeline.VALIDATION_CHECKS:
            runs.clear()
            (result,) = pipeline.run_validation_checks(bundle, checks=[(name, fn)])
            assert result[:2] == (name, True)
            assert len(runs) == (name in ("lyapunov-descent", "recursive-feasibility",
                                          "disturbance-bound"))

    def test_reads_the_substepped_plant_simulate_runs(self, paths, bundle, tmp_path,
                                                      capsys):
        config = _config_with(tmp_path, "plant_substeps", "8")
        rc = cli.main(["validate", "--patient", paths[0], "--config", config])
        out = capsys.readouterr().out
        assert rc == 0
        (seen,) = re.findall(r"max \|D x_s\| \(([^)]*)\)", out)
        rc = cli.main(["simulate", "--patient", paths[0], "--config", config,
                       "--out", str(tmp_path / "run"), "--duration", "600"])
        assert rc == 0
        capsys.readouterr()
        x_s = np.loadtxt(tmp_path / "run" / "run.csv", delimiter=",", skiprows=1,
                         usecols=range(12, 16))
        peak = np.abs(x_s @ bundle.gain.D.T).max(axis=0)
        # the Ts plant would read (0.0522, 0.193)
        assert seen == f"{peak[0]:.3g}, {peak[1]:.3g}" == "0.0523, 0.193"

    def test_non_invariant_set_fails_lp_proof(self, bundle):
        import dataclasses

        ing = bundle.ingredients
        grown = dataclasses.replace(ing, A_w=1.05 * ing.A_w)
        bad = dataclasses.replace(bundle)
        bad.ingredients = grown
        checks = dict(pipeline.VALIDATION_CHECKS)
        (result,) = pipeline.run_validation_checks(
            bad, checks=[("invariant-set-lp", checks["invariant-set-lp"])])
        assert result[1] is False
        (result,) = pipeline.run_validation_checks(
            bundle, checks=[("invariant-set-lp", checks["invariant-set-lp"])])
        assert result[1] is True
        # one LP per mirror pair of X_a runs
        assert ing.X_a.nrows // 2 == 22 and result[2].startswith("22 LPs, ")

    def test_lambda_one_rejected_cleanly(self, paths, tmp_path, capsys):
        cfg_text = controller_path().read_text().replace("lambda = 0.99", "lambda = 1.0")
        bad = tmp_path / "bad.ini"
        bad.write_text(cfg_text)
        rc = cli.main(["validate", "--patient", paths[0], "--config", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "finitely determined" in err


class TestSteadySet:
    def test_prints_segment(self, paths, capsys):
        rc = cli.main(["steady-set", "--patient", paths[0], "--config", paths[1]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "g_eff" in out and "segment" in out

    def test_missing_patient_file(self, paths, capsys):
        rc = cli.main(["steady-set", "--patient", "/nonexistent.ini",
                       "--config", paths[1]])
        assert rc == 2
        capsys.readouterr()


class TestConfigLoader:
    def test_roundtrip_of_shipped_config(self):
        fc = mpc.load_controller_config(controller_path())
        assert fc.mpc.N == 24
        assert fc.Ts == 5.0
        np.testing.assert_allclose(np.diag(fc.mpc.Q), [1, 10, 1, 10])
        np.testing.assert_allclose(fc.m_bar, [0.12, 0.27])
        assert fc.mpc.vd.weight == 10.0
        assert fc.settling_band == 2.0

    def test_missing_m_bar_named(self, tmp_path):
        text = "\n".join(l for l in controller_path().read_text().splitlines()
                         if not l.startswith("m_bar"))
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        with pytest.raises(ModelConfigError, match="'m_bar' in \\[controller\\] is missing"):
            mpc.load_controller_config(bad)

    def test_readme_names_every_key(self):
        # every key the loaders accept appears in a backquoted span of the
        # README's config section; the retired mode key only as retired
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
        words = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", section))))
        for key in mpc._CONTROLLER_KEYS + pkpd._PK_KEYS + pkpd._PD_KEYS:
            assert key in words, key
        retired = re.findall(r"[^.]*`disturbance_bound_mode`[^.]*", section)
        assert retired and all("retired" in sentence for sentence in retired)

    def test_missing_key_named(self, tmp_path):
        text = "\n".join(l for l in controller_path().read_text().splitlines()
                         if not l.startswith("N ="))
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        with pytest.raises(ModelConfigError, match="'N'"):
            mpc.load_controller_config(bad)


def _config_with(tmp_path, key, value):
    """A copy of the shipped controller config with `key` set to `value`."""
    lines = controller_path().read_text().splitlines()
    (i,) = [i for i, l in enumerate(lines) if l.split("=")[0].strip() == key]
    lines[i] = f"{key} = {value}"
    path = tmp_path / "edited.ini"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestBadConfigValues:
    @pytest.mark.parametrize("key, value", [
        ("N", "nan"), ("N", "inf"), ("N", "2.5"),
        ("Q_diag", "1, nan, 1, 10"),
        ("Ts", "inf"),
        ("u_max", "6.67, inf"),
        ("m_bar", "nan, 0.27"),
        ("y_ref", "nan"),
        ("plant_substeps", "0"), ("plant_substeps", "2.7"),
        ("u_min", "7, 0"), ("vd_weight", "-10"), ("y_ref", "99"),
        ("lambda", "1.5"), ("m_bar", "-0.1, 0.27"),
        ("settling_band", "-1"), ("settling_band", "0"),
        ("settling_band", ""), ("plant_substeps", ""),
    ])
    def test_rejected_with_exit_2_naming_the_key(self, paths, tmp_path, capsys,
                                                  key, value):
        config = _config_with(tmp_path, key, value)
        rc = cli.main(["simulate", "--patient", paths[0], "--config", config,
                       "--out", str(tmp_path / "out"), "--duration", "10"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"'{key}'" in err

    @pytest.mark.parametrize("line", [
        "epsilon = 0", "epsilon = 1e-6", "vd_linear = 0, 0", "plant_substep = 2",
        "disturbance_bound_mode = fixed", "disturbance_bound_mode = worst-case",
    ])
    def test_unknown_key_rejected_with_exit_2(self, paths, tmp_path, capsys, line):
        config = tmp_path / "extra.ini"
        config.write_text(controller_path().read_text() + line + "\n")
        rc = cli.main(["simulate", "--patient", paths[0], "--config", str(config),
                       "--out", str(tmp_path / "out"), "--duration", "10"])
        err = capsys.readouterr().err
        assert rc == 2
        key = line.split("=")[0].strip()
        assert err == f"error: {config}: unknown key '{key}' in [controller]\n"

    @pytest.mark.parametrize("section", ["controler", "Controller", "mpc"])
    def test_unknown_section_rejected_with_exit_2(self, paths, tmp_path, capsys, section):
        config = tmp_path / "extra.ini"
        config.write_text(controller_path().read_text() + f"[{section}]\nepsilon = 1e-6\n")
        rc = cli.main(["steady-set", "--patient", paths[0], "--config", str(config)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {config}: unknown section [{section}]\n"

    def test_worst_case_bound_leaves_no_input_room(self, paths, tmp_path, capsys):
        # a propofol bound above its limit 6.67, as the steady state under
        # maximal input gives on this patient (7.17), leaves V empty
        config = _config_with(tmp_path, "m_bar", "7, 0.27")
        rc = cli.main(["ingredients", "--patient", paths[0], "--config", config,
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "input box too tight" in err

    @pytest.mark.parametrize("value", ["100, 16.67", "6.67, 100",
                                       "1e20, 16.67", "6.67, 1e300"])
    def test_wide_input_box_misses_the_steady_segment(self, paths, tmp_path, capsys,
                                                      monkeypatch, value):
        # lambda shrinks the wide box about its far-off centre, which lifts
        # the steady-input floor past the whole BIS-50 segment; the build
        # says so before propagating X_a from the box's huge rows
        built = []
        monkeypatch.setattr(pipeline.terminal, "compute_terminal_ingredients",
                            lambda *a, **k: built.append(1))
        config = _config_with(tmp_path, "u_max", value)
        rc = cli.main(["simulate", "--patient", paths[0], "--config", config,
                       "--out", str(tmp_path / "out"), "--duration", "10"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "'lambda'" in err and "'u_min'/'u_max'" in err
        assert err.count("\n") == 1
        assert not built

    def test_failed_polyhedron_computation_exits_2(self, paths, tmp_path, capsys,
                                                   monkeypatch):
        # u_max = 1e20 leaves the set's small rows below the rounding of its
        # large ones; the steady-set check that names this box first is
        # skipped so that X_a's own computation fails
        monkeypatch.setattr(pipeline.mpc, "build_steady_input_set", lambda *a, **k: None)
        config = _config_with(tmp_path, "u_max", "1e20, 16.67")
        rc = cli.main(["ingredients", "--patient", paths[0], "--config", config,
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: polyhedron computation failed:")
        assert err.count("\n") == 1

    def test_geometry_error_in_construction_exits_2(self, paths, tmp_path, capsys,
                                                    monkeypatch):
        def fail(*a, **k):
            raise GeometryError("simplex did not converge within the pivot cap")

        monkeypatch.setattr(pipeline.terminal, "compute_terminal_ingredients", fail)
        rc = cli.main(["ingredients", "--patient", paths[0], "--config", paths[1],
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == ("error: polyhedron computation failed: "
                       "simplex did not converge within the pivot cap\n")


def _patient_with(tmp_path, section, key, value):
    """A copy of the shipped patient file with `key` in [section] set to `value`."""
    lines = patient_path().read_text().splitlines()
    start = lines.index(f"[{section}]")
    i = next(i for i in range(start, len(lines)) if lines[i].split("=")[0].strip() == key)
    lines[i] = f"{key} = {value}"
    path = tmp_path / "patient.ini"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestBadPatientValues:
    @pytest.mark.parametrize("section, key, value", [
        ("propofol", "Cl1", "inf"),
        ("propofol", "V2", "1e400"),
        ("remifentanil", "ke", "nan"),
        ("pd", "Ce50p", "inf"),
        ("pd", "gamma", "inf"),
        ("pd", "E0", "97.4, 1"),
    ])
    def test_rejected_with_exit_2_naming_the_key(self, paths, tmp_path, capsys,
                                                  section, key, value):
        patient = _patient_with(tmp_path, section, key, value)
        rc = cli.main(["simulate", "--patient", patient, "--config", paths[1],
                       "--out", str(tmp_path / "out"), "--duration", "10"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"'{key}' in [{section}]" in err

    @pytest.mark.parametrize("section, line", [
        ("pd", "Ce50 = 4.47"), ("propofol", "Cl4 = 0.1"), ("remifentanil", "k10 = 0.5"),
    ])
    def test_unknown_key_rejected_with_exit_2(self, paths, tmp_path, capsys, section,
                                              line):
        lines = patient_path().read_text().splitlines()
        lines.insert(lines.index(f"[{section}]") + 1, line)
        patient = tmp_path / "patient.ini"
        patient.write_text("\n".join(lines) + "\n")
        rc = cli.main(["simulate", "--patient", str(patient), "--config", paths[1],
                       "--out", str(tmp_path / "out"), "--duration", "10"])
        err = capsys.readouterr().err
        assert rc == 2
        key = line.split("=")[0].strip().lower()
        assert err == f"error: {patient}: unknown key '{key}' in [{section}]\n"


    @pytest.mark.parametrize("section", ["propofl", "PD", "eleveld"])
    def test_unknown_section_rejected_with_exit_2(self, paths, tmp_path, capsys, section):
        patient = tmp_path / "patient.ini"
        patient.write_text(patient_path().read_text() + f"[{section}]\nCe50p = 4.47\n")
        rc = cli.main(["steady-set", "--patient", str(patient), "--config", paths[1]])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {patient}: unknown section [{section}]\n"


class TestBundleUnread:
    def test_simulate_ignores_a_tampered_bundle(self, paths, tmp_path, capsys):
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        rc = cli.main(["ingredients", "--patient", paths[0], "--config", paths[1],
                       "--out", str(shared)])
        assert rc == 0
        X_a = load_polyhedron(shared / "X_a.poly")
        geometry.save_polyhedron(shared / "X_a.poly",
                                 geometry.Polyhedron(X_a.F[:-10], X_a.g[:-10]))
        runs = []
        for out in (shared, fresh):
            rc = cli.main(["simulate", "--patient", paths[0], "--config", paths[1],
                           "--out", str(out), "--duration", "600"])
            assert rc == 0
            runs.append([line.rsplit(",", 1)[0]
                         for line in (out / "run.csv").read_text().splitlines()])
        assert runs[0] == runs[1]
        # both manifests survive side by side
        assert json.loads((shared / "manifest.json").read_text())["subcommand"] == "ingredients"
        assert (shared / "manifest_simulate.json").exists()
        capsys.readouterr()


class TestExitCodes:
    def test_infeasibility_maps_to_exit_3(self, paths, tmp_path, monkeypatch, capsys):
        from anesmpc.errors import SolverInfeasibleError

        def boom(*a, **k):
            raise SolverInfeasibleError("forced for the exit-code contract", step=7)

        monkeypatch.setattr(cli, "build_bundle", boom)
        rc = cli.main(["simulate", "--patient", paths[0], "--config", paths[1],
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "step 7" in err

    def test_iteration_limit_has_its_own_message(self, paths, tmp_path, monkeypatch,
                                                 capsys):
        # the cold first solve of the tracking QP needs many iterations
        monkeypatch.setattr(qp, "qp_solve", partial(qp.qp_solve, max_iter=1))
        rc = cli.main(["simulate", "--patient", paths[0], "--config", paths[1],
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "iteration limit at step 0" in err
        assert "infeasible" not in err


class TestDeterminism:
    def test_repeat_run_identical_csv_apart_from_timing(self, paths, tmp_path):
        outs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            rc = cli.main(["simulate", "--patient", paths[0], "--config", paths[1],
                           "--out", str(out), "--duration", "100"])
            assert rc == 0
            outs.append((out / "run.csv").read_text().splitlines())
        for la, lb in zip(*outs):
            assert la.rsplit(",", 1)[0] == lb.rsplit(",", 1)[0]
