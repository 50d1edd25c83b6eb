"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import contextlib
import importlib.util
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatsurf.bonnet import bonnet_pair
from quatsurf.charts import build_immersion
from quatsurf.cli import (_FLAGS, _KINDS, COMMANDS, ConfigError,
                          RunConfig, _parse_complex, main, run)
from quatsurf.generators import CATALOG, make_surface
from quatsurf.io import write_field_csv, write_report


def read_report(outdir, command):
    name = command.replace("-", "_") + "_report.json"
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def _load_golden_sweep():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                        "golden_sweep.py")
    spec = importlib.util.spec_from_file_location("golden_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


golden_sweep = _load_golden_sweep()


def refused(argv, code, outdir):
    """Run the CLI on argv with ``--outdir=outdir``, assert that it exits
    with code and keeps the command-line contract, and return its JSON
    error line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv + ["--outdir=%s" % outdir]) == code
    breach = golden_sweep.contract_breach(argv, code, err.getvalue(),
                                          str(outdir))
    assert breach is None, breach
    return json.loads(err.getvalue())


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_generate_then_analyze_file_input(name, tmp_path):
    out = str(tmp_path / "gen")
    assert main(["generate", "--generator", name, "--n", "33",
                 "--outdir", out]) == 0
    rep = read_report(out, "generate")
    assert rep["results"]["label"] == name
    assert rep["results"]["conformality_residual"] < 1e-3
    assert os.path.exists(os.path.join(out, "%s_surface.obj" % name))
    csv = os.path.join(out, "%s_fields.csv" % name)

    ana = str(tmp_path / "ana")
    assert main(["analyze", "--input", csv, "--outdir", ana]) == 0
    rep2 = read_report(ana, "analyze")
    assert rep2["grid"] == rep["grid"]
    if name == "cylinder":
        assert rep2["results"]["H"]["mean"] == pytest.approx(0.5, abs=1e-3)
        # the file's surface is closed for q = 1 at the default --closed-tol
        assert main(["dual", "--input", csv, "--q", "1",
                     "--outdir", str(tmp_path / "dual")]) == 0

    # the file reads back on the generator's grid, so analyzing it writes
    # the bytes analyzing the generator does
    assert main(["analyze", "--generator", name, "--n", "33",
                 "--outdir", ana]) == 0
    blobs = [open(os.path.join(ana, label + "_curvature.csv"), "rb").read()
             for label in (name + "_fields", name)]
    assert blobs[0] == blobs[1]


def test_analyze_report_structure(tmp_path):
    out = str(tmp_path / "a")
    assert main(["analyze", "--generator", "cylinder", "--n", "65",
                 "--outdir", out]) == 0
    rep = read_report(out, "analyze")
    assert set(rep) == {"command", "config", "config_hash", "grid",
                        "tolerances", "results"}
    assert rep["command"] == "analyze"
    assert len(rep["config_hash"]) == 16
    assert rep["grid"]["ny"] == rep["grid"]["nx"] == 65
    # unset flags fall through to the RunConfig defaults
    assert (rep["config"]["eps"], rep["config"]["steps"]) == (1.0, 8)
    assert set(rep["tolerances"]) == {"closed_tol", "chart_tol",
                                      "umbilic_tol", "classify_tol",
                                      "det_tol"}
    res = rep["results"]
    assert res["H"]["mean"] == pytest.approx(0.5, abs=1e-4)
    assert res["umbilic_count"] == 0
    assert res["weingarten_rel"] < 1e-4
    assert os.path.exists(os.path.join(out, "cylinder_curvature.csv"))


def test_bonnet_command(tmp_path):
    out = str(tmp_path / "b")
    assert main(["bonnet", "--generator", "cylinder", "--n", "33",
                 "--eps", "1.0", "--outdir", out]) == 0
    rep = read_report(out, "bonnet")
    res = rep["results"]
    assert res["metric_rel"] < 1e-8
    assert res["noncongruent"] is True
    assert res["congruence_rms"] > res["congruence_floor"]
    assert os.path.exists(os.path.join(out, "cylinder_mate_plus.obj"))
    assert os.path.exists(os.path.join(out, "cylinder_mate_minus.obj"))


def test_solve_ivp_command(tmp_path):
    out = str(tmp_path / "s")
    assert main(["solve-ivp", "--generator", "cylinder", "--n", "33",
                 "--param", "rotation=0.7853981633974483", "--q", "1j",
                 "--steps", "8", "--outdir", out]) == 0
    rep = read_report(out, "solve-ivp")
    res = rep["results"]
    assert res["wellposed"]["angular_margin_deg"] == pytest.approx(45.0,
                                                                   abs=1e-3)
    assert res["curve_match_rel"] < 1e-4


def test_converge_command(tmp_path, capsys):
    out = str(tmp_path / "c")
    assert main(["converge", "--kind", "weingarten", "--generator",
                 "catenoid", "--n", "17", "--levels", "2",
                 "--outdir", out]) == 0
    rep = read_report(out, "converge")
    assert rep["results"]["grid_sizes"] == [17, 33]
    series = rep["results"]["series"]
    assert all(o > 1.9 for row in series.values() for o in row["orders"])
    text = capsys.readouterr().out
    assert "orders:" in text


def test_missing_command_is_config_error(tmp_path):
    payload = refused([], 1, tmp_path / "o")
    assert (payload["error"], payload["operation"]) == ("ConfigError",
                                                        "parse")
    assert payload["message"] == ("the following arguments are required: "
                                  "command")


def test_numerical_error_has_module_and_operation(tmp_path):
    payload = refused(["dual", "--generator", "catenoid", "--n", "33",
                       "--q", "1j"], 2, tmp_path / "o")
    assert (payload["module"], payload["operation"]) == ("quatsurf.duality",
                                                         "integrate_dual")
    assert "not isothermic" in payload["message"]


# inputs whose overflow, divide or invalid events numpy would only warn of
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    "dual --generator cylinder --q 1e300",
    "dual --generator cylinder --q 1e-300",
    "generate --generator sphere --param extent=1e300",
    "generate --generator enneper --param order=1e6",
    "generate --generator unduloid --param neck=1e-300",
    "generate --generator ellipsoid_of_revolution --param a=1e-300",
])
def test_a_floating_point_event_is_a_numerical_failure(argv, tmp_path):
    payload = refused(argv.split() + ["--n", "17"], 2, tmp_path / "o")
    stage = {"dual": ("quatsurf.duality", "integrate_dual"),
             "generate": ("quatsurf.generators", "make_surface")}
    assert (payload["error"], payload["module"], payload["operation"]) \
        == ("FloatingPointError",) + stage[argv.split()[0]]


def test_converge_error_names_the_failing_stage(tmp_path):
    # the n=17 cylinder already fails closedness inside integrate_dual,
    # before bonnet_pair runs
    payload = refused(["converge", "--generator", "cylinder", "--kind",
                       "bonnet", "--n", "17"], 2, tmp_path / "o")
    assert (payload["module"], payload["operation"]) == ("quatsurf.duality",
                                                         "integrate_dual")
    assert "not isothermic" in payload["message"]


@pytest.mark.parametrize("param", ["bogus=1", "n=9", "x_span=1",
                                   "radius=nan", "radius=-inf",
                                   "chart_tol=0.01", "radius", "radius=abc",
                                   "=1"])
def test_bad_generator_param_is_config_error(param, tmp_path):
    payload = refused(["analyze", "--generator", "cylinder", "--n", "17",
                       "--param", param], 1, tmp_path / "p")
    assert (payload["error"], payload["operation"]) == ("ConfigError",
                                                        "parse")


def _leaves(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj


def test_dual_report_is_finite_at_a_branch_point(tmp_path, capsys):
    out = str(tmp_path / "d")
    assert main(["dual", "--generator", "enneper", "--param", "order=2",
                 "--n", "33", "--outdir", out]) == 0
    assert capsys.readouterr().err == ""
    res = read_report(out, "dual")["results"]
    assert res["branch_nodes"] == [[16, 16]]
    assert res["real_multiple_rel"] < 1e-3
    leaves = list(_leaves(res))
    assert not any(v in ("nan", "inf", "-inf") for v in leaves)
    assert all(math.isfinite(v) for v in leaves if isinstance(v, float))


def test_error_node_is_machine_readable(tmp_path):
    # y-stretched plane: valid CSV, but the chart is not conformal, and
    # that failure names the offending node
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("x,y,px,py,pz\n")
        for j in range(7):
            for i in range(7):
                fh.write("%g,%g,%g,%g,0\n" % (0.1 * i, 0.1 * j,
                                              0.1 * i, 0.2 * j))
    payload = refused(["analyze", "--input", str(path)], 2, tmp_path / "o")
    assert (payload["module"], payload["operation"]) == ("quatsurf.charts",
                                                         "build_immersion")
    assert "not conformal" in payload["message"]
    node = payload["node"]
    assert isinstance(node, list) and len(node) == 2
    assert all(isinstance(v, int) and 0 <= v < 7 for v in node)


def test_flat_input(tmp_path):
    # a 17 x 17 plane (pz = 0): dN vanishes identically, so every
    # relative residual reads 0, and the dual of a plane is a plane
    path = tmp_path / "plane.csv"
    with open(path, "w") as fh:
        fh.write("x,y,px,py,pz\n")
        for j in range(17):
            for i in range(17):
                fh.write("%g,%g,%g,%g,0\n" % (i / 16, j / 16, i / 16, j / 16))
    out = str(tmp_path / "a")
    assert main(["analyze", "--input", str(path), "--outdir", out]) == 0
    assert read_report(out, "analyze")["results"]["weingarten_rel"] == 0
    out = str(tmp_path / "d")
    assert main(["dual", "--input", str(path), "--q", "1",
                 "--outdir", out]) == 0
    assert read_report(out, "dual")["results"]["classify"] == "dual_pair"


def test_verify_builds_the_cylinder_pair_once_per_run(tmp_path,
                                                      monkeypatch):
    import quatsurf.cli as cli
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return bonnet_pair(*args, **kwargs)

    monkeypatch.setattr(cli, "bonnet_pair", counted)
    out = str(tmp_path / "all")
    assert main(["verify", "--all", "--n", "33", "--outdir", out]) == 0
    assert len(calls) == 1
    everything = read_report(out, "verify")["results"]["checks"]
    # each check alone builds its own pair: nothing outlives a run
    for k, check in enumerate(("bonnet_cylinder", "distortion_identity")):
        out = str(tmp_path / check)
        assert main(["verify", "--check", check, "--n", "33",
                     "--outdir", out]) == 0
        assert len(calls) == k + 2
        checks = read_report(out, "verify")["results"]["checks"]
        assert checks == {check: everything[check]}


def test_verify_builds_each_surface_once_per_run(tmp_path, monkeypatch):
    import quatsurf.cli as cli
    calls = {"make_surface": 0, "integrate_dual": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    assert main(["verify", "--all", "--n", "33",
                 "--outdir", str(tmp_path)]) == 0
    # the cylinder, the catenoid and the rotated cylinder; the duals of
    # the dual and bonnet stages, of the cylinder's dual and of the
    # catenoid
    assert calls == {"make_surface": 3, "integrate_dual": 4}


def test_verify_bonnet_check_reads_the_bonnet_command_figures(tmp_path):
    assert main(["verify", "--check", "bonnet_cylinder", "--n", "33",
                 "--outdir", str(tmp_path / "v")]) == 0
    check = read_report(str(tmp_path / "v"),
                        "verify")["results"]["checks"]["bonnet_cylinder"]
    assert main(["bonnet", "--generator", "cylinder", "--n", "33", "--eps",
                 "1", "--outdir", str(tmp_path / "b")]) == 0
    bonnet = read_report(str(tmp_path / "b"), "bonnet")["results"]
    assert check["metrics"] == {"metric_rel": bonnet["metric_rel"],
                                "congruence_rms": bonnet["congruence_rms"]}
    # the check passes on the command's own noncongruence verdict
    assert check["passed"] and bonnet["noncongruent"] is True


def test_verify_reports_the_cylinder_grid_without_sampling_it(tmp_path,
                                                              monkeypatch):
    import quatsurf.cli as cli
    import quatsurf.generators as generators
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_immersion(*args, **kwargs)

    for module in (cli, generators):
        monkeypatch.setattr(module, "build_immersion", counted)
    out = str(tmp_path / "verify")
    assert main(["verify", "--check", "quaternion_algebra", "--n", "21",
                 "--outdir", out]) == 0
    assert calls == []
    gen = str(tmp_path / "generate")
    assert main(["generate", "--generator", "cylinder", "--n", "21",
                 "--outdir", gen]) == 0
    assert len(calls) == 1
    assert (read_report(out, "verify")["grid"]
            == read_report(gen, "generate")["grid"])


def test_verify_all_with_a_named_check_is_a_parse_error(tmp_path):
    payload = refused(["verify", "--all", "--check", "quaternion_algebra"],
                      1, tmp_path / "v")
    assert (payload["error"], payload["module"], payload["operation"]) \
        == ("ConfigError", "quatsurf.cli", "parse")
    assert "--all" in payload["message"]


def test_outdir_env_fallback(tmp_path, monkeypatch):
    target = str(tmp_path / "from-env")
    monkeypatch.setenv("QUATSURF_OUTDIR", target)
    assert main(["generate", "--generator", "sphere", "--n", "17"]) == 0
    assert os.path.exists(os.path.join(target, "generate_report.json"))
    # explicit flag wins over the environment
    explicit = str(tmp_path / "explicit")
    assert main(["generate", "--generator", "sphere", "--n", "17",
                 "--outdir", explicit]) == 0
    assert os.path.exists(os.path.join(explicit, "generate_report.json"))


def test_parse_complex():
    assert _parse_complex("1j") == 1j
    assert _parse_complex("2") == 2 + 0j
    assert _parse_complex("-1+0.5j") == -1 + 0.5j
    with pytest.raises(ConfigError):
        _parse_complex("nope")


def test_grid_size_default_has_one_home(tmp_path):
    assert RunConfig(command="verify").n == 33
    assert RunConfig(command="analyze", generator="cylinder").n == 65
    # a configuration built in code runs verify on the CLI's grid
    assert run(RunConfig(command="verify", checks=["io_roundtrip"],
                         outdir=str(tmp_path / "code"))) == 0
    assert main(["verify", "--check", "io_roundtrip",
                 "--outdir", str(tmp_path / "cli")]) == 0
    grids = [read_report(str(tmp_path / d), "verify")["grid"]
             for d in ("code", "cli")]
    assert grids[0] == grids[1] and grids[0]["nx"] == 33


def test_runconfig_validation(tmp_path):
    with pytest.raises(ConfigError, match="n"):
        RunConfig(command="analyze", generator="cylinder", n=3).validate()
    with pytest.raises(ConfigError):
        RunConfig(command="frobnicate").validate()
    with pytest.raises(ConfigError, match="kind"):
        RunConfig(command="converge", generator="cylinder").validate()
    with pytest.raises(ConfigError):
        RunConfig(command="analyze", generator="mobius_strip").validate()
    with pytest.raises(ConfigError, match="eps"):
        RunConfig(command="bonnet", generator="cylinder",
                  eps=-1.0).validate()
    # the one check of check names: a RunConfig built in code is refused
    # as the --check flag is
    with pytest.raises(ConfigError, match="unknown check 'nope'"):
        RunConfig(command="verify", checks=["quaternion_algebra", "nope"])
    # converge has no --qdiff flag, but a RunConfig built in code can name
    # a file
    path = tmp_path / "qdiff.csv"
    path.write_text("x,y,re_phi,im_phi\n")
    with pytest.raises(ConfigError, match="^converge cannot refine a fixed "
                       "--qdiff file; use --q or a generator with a known "
                       "differential$"):
        RunConfig(command="converge", kind="dual", generator="cylinder",
                  qdiff_path=str(path))
    cfg = RunConfig(command="analyze", generator="cylinder")
    cfg.validate()
    d = cfg.as_dict()
    assert d["command"] == "analyze"


IVP = ["--generator", "cylinder", "--n", "17",
       "--param", "rotation=0.7853981633974483", "--q", "1j"]


@pytest.mark.parametrize("argv, operation, message", [
    (["dual", "--generator", "cylinder", "--n", "17", "--q", "bogus"],
     "parse", "--q must be a finite complex number"),
    (["solve-ivp"] + IVP + ["--row", "99"], "solve-ivp",
     "row 99 outside grid (ny=17)"),
    (["verify", "--check", "nope"], "parse", "unknown check 'nope'"),
    (["converge", "--kind", "ivp", "--levels", "2"] + IVP + ["--row", "99"],
     "converge", "row 99 outside grid (ny=17)"),
    (["converge", "--kind", "dual", "--generator", "cylinder", "--levels",
      "0"], "parse", "levels must be at least 1"),
    (["solve-ivp", "--generator", "cylinder", "--steps", "0"], "parse",
     "steps must be at least 1"),
    (["dual", "--q", "1"], "parse",
     "command 'dual' needs --generator or --input"),
    (["converge", "--kind", "dual"], "parse", "converge resamples the "
     "surface at each level and therefore needs --generator"),
    (["verify", "--seed", "-1"], "parse", "seed must be non-negative"),
], ids=["dual-q", "solve-ivp-row", "verify-check", "converge-row",
        "levels-0", "steps-0", "dual-no-source", "converge-no-generator",
        "seed-negative"])
def test_cli_errors_name_the_command(argv, operation, message, tmp_path):
    # flag values are refused before the outdir exists; a --row outside
    # the grid only once the surface is read
    payload = refused(argv, 1, tmp_path / "o")
    assert payload["message"].startswith(message)
    assert (payload["error"], payload["module"], payload["operation"]) \
        == ("ConfigError", "quatsurf.cli", operation)
    assert (tmp_path / "o").exists() == (operation != "parse")


def test_dual_of_an_input_file_needs_a_differential(tmp_path):
    imm = make_surface("cylinder", n=17).imm
    path = str(tmp_path / "surf.csv")
    write_field_csv(path, imm.grid, {"px": imm.positions[..., 0],
                                     "py": imm.positions[..., 1],
                                     "pz": imm.positions[..., 2]})
    out = tmp_path / "o"
    payload = refused(["dual", "--input", path], 1, out)
    assert payload["message"] == ("no quadratic differential: pass --q or "
                                  "--qdiff, or use a generator with a "
                                  "known one")
    assert (payload["error"], payload["module"], payload["operation"]) \
        == ("ConfigError", "quatsurf.cli", "dual")
    # the surface was read before the differential was looked for
    assert out.exists()


@pytest.mark.parametrize("argv", [
    ["bonnet", "--eps", "nan"],
    ["bonnet", "--eps", "inf"],
    ["dual", "--q", "nan"],
    ["dual", "--q", "1+infj"],
    ["analyze", "--chart-tol", "inf"],
], ids=["eps-nan", "eps-inf", "q-nan", "q-inf", "chart-tol-inf"])
def test_non_finite_eps_or_q_is_config_error(argv, tmp_path):
    payload = refused(argv + ["--generator", "cylinder", "--n", "17"], 1,
                      tmp_path / "o")
    assert (payload["error"], payload["module"], payload["operation"]) \
        == ("ConfigError", "quatsurf.cli", "parse")
    assert "finite" in payload["message"]


def test_qdiff_grid_mismatch_is_config_error(tmp_path):
    path = tmp_path / "phi.csv"
    with open(path, "w") as fh:
        fh.write("x,y,re_phi,im_phi\n")
        for j in range(5):
            for i in range(5):
                fh.write("%g,%g,1,0\n" % (0.25 * i, 0.25 * j))
    payload = refused(["dual", "--generator", "cylinder", "--n", "17",
                       "--qdiff", str(path)], 1, tmp_path / "o")
    assert (payload["error"], payload["module"], payload["operation"]) \
        == ("ConfigError", "quatsurf.cli", "dual")
    assert "5x5" in payload["message"] and "17x17" in payload["message"]

    # same node count, another chart: the sphere's grid under the cylinder
    grid = make_surface("sphere", n=33).imm.grid
    path = str(tmp_path / "phi_sphere.csv")
    write_field_csv(path, grid, {"re_phi": np.ones((grid.ny, grid.nx)),
                                 "im_phi": np.zeros((grid.ny, grid.nx))})
    payload = refused(["dual", "--generator", "cylinder", "--n", "33",
                       "--qdiff", path], 1, tmp_path / "o")
    assert (payload["module"], payload["operation"]) == ("quatsurf.cli",
                                                         "dual")
    cylinder = make_surface("cylinder", n=33).imm.grid
    assert path in payload["message"]
    assert all("spacing (%r, %r)" % (g.hx, g.hy) in payload["message"]
               for g in (grid, cylinder))
    # on the grid it was written on, the same file is accepted
    assert main(["dual", "--generator", "sphere", "--n", "33",
                 "--qdiff", path, "--outdir", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("kind, argv, names", [
    ("dual", ["--generator", "catenoid", "--n", "17"],
     {"classical_rel", "path_deviation"}),
    ("bonnet", ["--generator", "unduloid", "--n", "33"],
     {"mean_curvature_diff_max", "distortion_identity_rel",
      "distortion_cr_rel"}),
    ("ivp", IVP,
     {"spin_norm_dev_max", "curve_match_rel", "q_residual_normal_rel"}),
])
def test_converge_kinds(kind, argv, names, tmp_path):
    out = str(tmp_path / "c")
    assert main(["converge", "--kind", kind, "--levels", "2"] + argv
                + ["--outdir", out]) == 0
    res = read_report(out, "converge")["results"]
    n = int(argv[argv.index("--n") + 1])
    assert res["grid_sizes"] == [n, 2 * n - 1]
    assert set(res["series"]) == names
    assert all(len(row["residuals"]) == 2 for row in res["series"].values())


def test_converge_row_names_the_same_curve_on_every_rung(tmp_path):
    # row 8 is the default, middle row of the first rung (n = 17)
    argv = ["converge", "--kind", "ivp", "--generator", "sphere", "--param",
            "rotation=0.5", "--n", "17", "--levels", "3", "--steps", "4"]
    results = []
    for k, row in enumerate(([], ["--row", "8"])):
        assert main(argv + row + ["--outdir", str(tmp_path / str(k))]) == 0
        results.append(read_report(str(tmp_path / str(k)),
                                   "converge")["results"])
    assert results[0] == results[1]


def test_tolerance_flags_change_the_outcome(tmp_path):
    out = str(tmp_path / "t")
    refused(["dual", "--generator", "catenoid", "--n", "33", "--closed-tol",
             "1e-12"], 2, out)
    payload = refused(["generate", "--generator", "cylinder", "--n", "33",
                       "--chart-tol", "1e-14"], 2, out)
    assert (payload["module"], payload["operation"]) \
        == ("quatsurf.generators", "make_surface")
    assert refused(["solve-ivp"] + IVP + ["--det-tol", "2"], 2,
                   out)["operation"] == "check_wellposed"
    counts = []
    for extra in ([], ["--umbilic-tol", "0.05"]):
        assert main(["analyze", "--generator", "enneper", "--param",
                     "order=2", "--n", "33", "--outdir", out] + extra) == 0
        counts.append(read_report(out, "analyze")["results"]
                      ["umbilic_count"])
    assert counts == [1, 9]


def test_outdir_that_is_a_file_is_config_error(tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    payload = refused(["analyze", "--generator", "cylinder", "--n", "17"],
                      1, path)
    assert (payload["error"], payload["module"], payload["operation"]) \
        == ("ConfigError", "quatsurf.io", "ensure_outdir")


@pytest.mark.parametrize("command, blocked, operation", [
    ("analyze", "analyze_report.json", "write_report"),
    ("generate", "cylinder_surface.obj", "write_obj"),
    ("analyze", "cylinder_curvature.csv", "write_field_csv"),
])
def test_unwritable_artifact_is_config_error(command, blocked, operation,
                                             tmp_path):
    (tmp_path / blocked).mkdir()
    payload = refused([command, "--generator", "cylinder", "--n", "17"], 1,
                      tmp_path)
    assert (payload["error"], payload["module"], payload["operation"]) \
        == ("ConfigError", "quatsurf.io", operation)
    assert str(tmp_path / blocked) in payload["message"]


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


GRID_7 = [(str(0.1 * i), str(0.1 * j)) for j in range(7) for i in range(7)]
# ways to break a well-formed 7 x 7 node CSV
MALFORMED = ["missing_column", "narrow_rows", "ragged_row", "non_numeric",
             "header_only", "empty", "non_finite", "duplicate_row"]
# the node a malformed CSV's error names, where it names one: row 10 of
# the table is node (j=1, i=3)
MALFORMED_NODE = {"non_finite": [1, 3], "duplicate_row": [1, 3]}


def _malformed_csv(path, header, kind):
    width = len(header) - 2
    rows = [xy + ("1",) * width for xy in GRID_7]
    if kind == "missing_column":
        header = header[:-1]
        rows = [r[:-1] for r in rows]
    elif kind == "narrow_rows":
        rows = [r[:-1] for r in rows]
    elif kind == "ragged_row":
        rows[3] = rows[3][:-1]
    elif kind == "non_numeric":
        rows[3] = rows[3][:-1] + ("abc",)
    elif kind == "header_only":
        rows = []
    elif kind == "non_finite":
        rows[10] = rows[10][:-1] + ("nan",)
    elif kind == "duplicate_row":
        rows[10] = rows[9]
    if kind == "empty":
        path.write_text("")
    else:
        _write_csv(path, header, rows)


# no warning may be printed next to the one JSON error line
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", MALFORMED)
@pytest.mark.parametrize("argv, header, operation", [
    (["analyze", "--input"], ["x", "y", "px", "py", "pz"],
     "read_positions_csv"),
    (["dual", "--generator", "cylinder", "--n", "17", "--qdiff"],
     ["x", "y", "re_phi", "im_phi"], "read_qdiff_csv"),
], ids=["input", "qdiff"])
def test_malformed_csv_is_config_error(kind, argv, header, operation,
                                       tmp_path):
    path = tmp_path / "bad.csv"
    _malformed_csv(path, header, kind)
    payload = refused(argv + [str(path)], 1, tmp_path / "o")
    assert (payload["error"], payload["module"], payload["operation"]) \
        == ("ConfigError", "quatsurf.io", operation)
    assert payload["node"] == MALFORMED_NODE.get(kind)


# flags a command accepted without reading them
UNREAD_FLAGS = (
    [(c, "--seed") for c in ("generate", "analyze", "dual", "bonnet",
                             "solve-ivp", "converge")]
    + [(c, "--closed-tol") for c in ("generate", "analyze", "verify")]
    + [(c, "--umbilic-tol") for c in ("generate", "dual", "solve-ivp",
                                       "verify", "converge")]
    + [("verify", "--chart-tol"), ("converge", "--input"),
       ("converge", "--qdiff")])


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_unread_flags_are_rejected(command, flag, tmp_path):
    payload = refused([command, flag, "1"], 1, tmp_path / "o")
    assert (payload["error"], payload["operation"]) == ("ConfigError",
                                                        "parse")
    assert "unrecognized arguments: %s" % flag in payload["message"]


def test_verify_records_a_check_that_raises_and_runs_the_rest(tmp_path,
                                                              capsys):
    # at n=17 the cylinder fails integrate_dual's closedness gate, so the
    # checks that integrate its dual raise; each is a FAIL in the report
    out = str(tmp_path / "v")
    assert main(["verify", "--n", "17", "--outdir", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    res = read_report(out, "verify")["results"]
    assert res["total"] == 11
    raised = {name: check["metrics"]["error"]
              for name, check in res["checks"].items()
              if "error" in check["metrics"]}
    assert "dual_roundtrip" in raised and "bonnet_cylinder" in raised
    assert "not isothermic" in raised["dual_roundtrip"]
    assert not any(res["checks"][name]["passed"] for name in raised)
    assert res["checks"]["quaternion_algebra"]["passed"] is True
    assert "FAIL dual_roundtrip" in captured.out


def test_verify_stops_at_a_configuration_error(tmp_path, monkeypatch):
    import quatsurf.cli as cli

    def unreadable(path):
        raise ConfigError("cannot read %s" % path)

    monkeypatch.setattr(cli, "read_positions_csv", unreadable)
    out = tmp_path / "v"
    payload = refused(["verify", "--check", "io_roundtrip", "--n", "17"], 1,
                      out)
    assert payload["error"] == "ConfigError"
    assert not (out / "verify_report.json").exists()


# a value for each flag that the command line accepts on its own, and
# values that no numeric flag accepts; n stays <= 17 and levels <= 2
GOOD_VALUES = {
    "--generator": ["cylinder", "catenoid", "sphere", "enneper"],
    "--param": ["rotation=0.5", "radius=2", "order=2"],
    "--input": ["missing.csv"],
    "--n": ["5", "9", "17"],
    "--q": ["1", "1j", "0.5+0.5j"],
    "--qdiff": ["missing.csv"],
    "--eps": ["0.5", "1"],
    "--row": ["0", "4", "8"],
    "--steps": ["1", "2"],
    "--closed-tol": ["1e-2"],
    "--chart-tol": ["1e-2"],
    "--umbilic-tol": ["1e-3"],
    "--det-tol": ["0.01"],
    "--seed": ["0", "3"],
    "--kind": ["weingarten", "dual", "bonnet", "ivp"],
    "--levels": ["1", "2"],
    "--check": ["quaternion_algebra", "march_manufactured", "io_roundtrip"],
}
JUNK_VALUES = ["4.5", "nan", "inf", "", "abc", "-1"]
# --outdir is always the fuzz test's own temporary directory
DRAWN_FLAGS = sorted(set(_FLAGS) - {"--outdir"}) + ["--no-such-flag"]


@st.composite
def argument_lists(draw):
    """A command with a small grid and a surface, then up to 5 flags drawn
    from every flag there is; a flag given twice takes its last value."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, "--n", draw(st.sampled_from(["9", "17"]))]
    for flag in (["--generator"] if command != "verify" else []) \
            + (["--levels", "--kind"] if command == "converge" else []):
        argv += [flag, draw(st.sampled_from(GOOD_VALUES[flag]))]
    for flag in draw(st.lists(st.sampled_from(DRAWN_FLAGS), max_size=5)):
        argv.append(flag)
        if _FLAGS.get(flag, {}).get("action") != "store_true":
            good = GOOD_VALUES.get(flag, JUNK_VALUES)
            argv.append(draw(st.sampled_from(good)
                             | st.sampled_from(JUNK_VALUES)))
    return argv


@settings(max_examples=300, deadline=None, database=None)
@given(argv=argument_lists())
def test_any_argument_list_exits_with_a_documented_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        outdir = os.path.join(tmp, "o")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--outdir", outdir])
            except SystemExit as exc:
                pytest.fail("SystemExit(%r) for %r" % (exc.code, argv))
        breach = golden_sweep.contract_breach(argv, code, err.getvalue(),
                                              outdir)
        assert breach is None, (argv, breach)


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """(outdir, broken cases) of one golden sweep, shared by the tests
    that read it."""
    outdir = str(tmp_path_factory.mktemp("golden"))
    return outdir, golden_sweep.main_sweep(outdir)


def test_golden_sweep_covers_every_command_kind_and_flag(swept):
    argvs = [argv for _, _, argv, _ in golden_sweep.CASES]
    words = {word for argv in argvs for word in argv.split()}
    # every case also gets --outdir
    assert set(COMMANDS) | set(_FLAGS) - {"--outdir"} <= words
    for kind in _KINDS:
        assert any(argv.startswith("converge --kind %s " % kind)
                   for argv in argvs)
    # every case gives what it expects and keeps the command-line contract
    assert swept[1] == []


def test_golden_sweep_matches_the_committed_manifest(swept):
    # a change that moves an output regenerates the manifest with
    # `python tools/golden_sweep.py OUTDIR --manifest tools/golden.sha256`
    manifest = os.path.normpath(os.path.join(
        os.path.dirname(golden_sweep.__file__), "golden.sha256"))
    env, moved = golden_sweep.manifest_differences(swept[0], manifest)
    if env:
        pytest.skip("the manifest was written under %s, this is %s"
                    % (", ".join(env), ", ".join(golden_sweep.environment())))
    assert moved == [], "sweep files that differ from %s: %s" % (
        manifest, ", ".join(moved))


def test_golden_sweep_keeps_reports_at_full_precision(tmp_path, monkeypatch):
    import quatsurf.cli as cli
    _, _, argv, setup = next(case for case in golden_sweep.CASES
                             if case[0] == "bonnet-cylinder")
    golden_sweep.run_case(str(tmp_path / "a"), argv, setup)
    stage = cli._bonnet

    def nudged(*args):
        objects, results = stage(*args)
        results["metric_rel"] = float(np.nextafter(results["metric_rel"],
                                                   1.0))
        return objects, results

    monkeypatch.setattr(cli, "_bonnet", nudged)
    golden_sweep.run_case(str(tmp_path / "b"), argv, setup)
    # the sweep puts the CLI's own writer back after each case
    assert cli.write_report is write_report

    def read(case, suffix):
        path = tmp_path / case / "out" / ("bonnet_report" + suffix)
        return path.read_bytes()

    # the report rounds the one-ulp change away; its full copy keeps it
    assert read("a", ".json") == read("b", ".json")
    assert read("a", ".full.json") != read("b", ".full.json")


def test_golden_sweep_names_a_case_with_another_exit_code(tmp_path,
                                                          monkeypatch):
    argv = "analyze --generator cylinder --n 4"
    monkeypatch.setattr(golden_sweep, "CASES", [
        ("error-small-n", 0, argv, None),
        ("error-small-n", (1, "ConfigError", "quatsurf.cli", "analyze"), argv,
         None)])
    assert golden_sweep.main_sweep(str(tmp_path)) == [
        "01-error-small-n exit 1 (expected 0)",
        "02-error-small-n exit 1 (operation 'parse', expected 'analyze')"]
