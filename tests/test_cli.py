"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import json
import math
import os

import numpy as np
import pytest

from quatsurf.bonnet import bonnet_pair
from quatsurf.charts import build_immersion
from quatsurf.cli import (ConfigError, RunConfig, _parse_complex,
                          _parse_param_list, main)


def read_report(outdir, command):
    name = command.replace("-", "_") + "_report.json"
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def last_stderr_json(capsys):
    err = capsys.readouterr().err.strip().split("\n")[-1]
    return json.loads(err)


def test_generate_then_analyze_file_input(tmp_path, capsys):
    out = str(tmp_path / "gen")
    assert main(["generate", "--generator", "cylinder", "--n", "33",
                 "--outdir", out]) == 0
    rep = read_report(out, "generate")
    assert rep["results"]["label"] == "cylinder"
    assert rep["results"]["conformality_residual"] < 1e-3
    assert os.path.exists(os.path.join(out, "cylinder_surface.obj"))
    csv = os.path.join(out, "cylinder_fields.csv")
    assert os.path.exists(csv)

    out2 = str(tmp_path / "ana")
    assert main(["analyze", "--input", csv, "--outdir", out2]) == 0
    rep2 = read_report(out2, "analyze")
    assert rep2["results"]["H"]["mean"] == pytest.approx(0.5, abs=1e-3)
    assert rep2["grid"] == rep["grid"]


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


def test_unknown_generator_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "e")
    code = main(["analyze", "--generator", "cylinder", "--n", "4",
                 "--outdir", out])
    assert code == 1
    payload = last_stderr_json(capsys)
    assert payload["exit_code"] == 1
    assert payload["error"] == "ConfigError"
    assert payload["module"] == "quatsurf.cli"
    assert payload["operation"] == "parse"


def test_numerical_error_has_module_and_operation(tmp_path, capsys):
    out = str(tmp_path / "e2")
    code = main(["dual", "--generator", "catenoid", "--n", "33",
                 "--q", "1j", "--outdir", out])
    assert code == 2
    payload = last_stderr_json(capsys)
    assert payload["exit_code"] == 2
    assert payload["module"] == "quatsurf.duality"
    assert payload["operation"] == "integrate_dual"
    assert "not isothermic" in payload["message"]


def test_converge_error_names_the_failing_stage(tmp_path, capsys):
    # the n=17 cylinder already fails closedness inside integrate_dual,
    # before bonnet_pair runs
    code = main(["converge", "--generator", "cylinder", "--kind", "bonnet",
                 "--n", "17", "--outdir", str(tmp_path / "c")])
    assert code == 2
    payload = last_stderr_json(capsys)
    assert payload["module"] == "quatsurf.duality"
    assert payload["operation"] == "integrate_dual"
    assert "not isothermic" in payload["message"]


@pytest.mark.parametrize("param", ["bogus=1", "n=9", "x_span=1",
                                   "radius=nan", "radius=-inf",
                                   "chart_tol=0.01"])
def test_bad_generator_param_is_config_error(param, tmp_path, capsys):
    code = main(["analyze", "--generator", "cylinder", "--n", "17",
                 "--param", param, "--outdir", str(tmp_path / "p")])
    assert code == 1
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert payload["exit_code"] == 1


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


def test_error_node_is_machine_readable(tmp_path, capsys):
    # y-stretched plane: valid CSV, but the chart is not conformal, and
    # that failure names the offending node
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("x,y,px,py,pz\n")
        for j in range(7):
            for i in range(7):
                fh.write("%g,%g,%g,%g,0\n" % (0.1 * i, 0.1 * j,
                                              0.1 * i, 0.2 * j))
    code = main(["analyze", "--input", str(path),
                 "--outdir", str(tmp_path / "o")])
    assert code == 2
    payload = last_stderr_json(capsys)
    assert payload["module"] == "quatsurf.charts"
    assert payload["operation"] == "build_immersion"
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


def test_verify_all_is_byte_identical(tmp_path, capsys):
    outs = [str(tmp_path / "v1"), str(tmp_path / "v2")]
    for out in outs:
        assert main(["verify", "--all", "--n", "33", "--outdir", out]) == 0
    blobs = [open(os.path.join(o, "verify_report.json"), "rb").read()
             for o in outs]
    assert blobs[0] == blobs[1]
    text = capsys.readouterr().out
    assert "FAIL" not in text
    rep = read_report(outs[0], "verify")
    assert rep["results"]["passed"] is True
    assert rep["results"]["failures"] == 0


def test_verify_builds_the_cylinder_pair_once_per_run(tmp_path,
                                                      monkeypatch):
    import quatsurf.cli as cli
    calls = []

    def counted(*args):
        calls.append(args)
        return bonnet_pair(*args)

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


def test_verify_unknown_check(tmp_path, capsys):
    code = main(["verify", "--check", "no_such_check",
                 "--outdir", str(tmp_path / "v")])
    assert code == 1
    assert last_stderr_json(capsys)["error"] == "ConfigError"


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


def test_parse_param_list():
    assert _parse_param_list(["radius=2", "rotation=0.5"]) \
        == {"radius": 2.0, "rotation": 0.5}
    assert _parse_param_list(None) == {}
    with pytest.raises(ConfigError):
        _parse_param_list(["radius"])
    with pytest.raises(ConfigError):
        _parse_param_list(["radius=abc"])


def test_parse_complex():
    assert _parse_complex("1j") == 1j
    assert _parse_complex("2") == 2 + 0j
    assert _parse_complex("-1+0.5j") == -1 + 0.5j
    with pytest.raises(ConfigError):
        _parse_complex("nope")


def test_runconfig_validation():
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
    cfg = RunConfig(command="analyze", generator="cylinder")
    cfg.validate()
    d = cfg.as_dict()
    assert d["command"] == "analyze"


IVP = ["--generator", "cylinder", "--n", "17",
       "--param", "rotation=0.7853981633974483", "--q", "1j"]


@pytest.mark.parametrize("argv", [
    ["dual", "--generator", "cylinder", "--n", "17", "--q", "bogus"],
    ["solve-ivp"] + IVP + ["--row", "99"],
    ["verify", "--check", "nope"],
    ["converge", "--kind", "ivp", "--levels", "2"] + IVP + ["--row", "99"],
], ids=["dual-q", "solve-ivp-row", "verify-check", "converge-row"])
def test_cli_errors_name_the_command(argv, tmp_path, capsys):
    code = main(argv + ["--outdir", str(tmp_path / "o")])
    assert code == 1
    payload = last_stderr_json(capsys)
    assert (payload["error"], payload["exit_code"]) == ("ConfigError", 1)
    assert (payload["module"], payload["operation"]) \
        == ("quatsurf.cli", argv[0])


@pytest.mark.parametrize("argv, operation", [
    (["bonnet", "--eps", "nan"], "parse"),
    (["bonnet", "--eps", "inf"], "parse"),
    (["dual", "--q", "nan"], "dual"),
    (["dual", "--q", "1+infj"], "dual"),
], ids=["eps-nan", "eps-inf", "q-nan", "q-inf"])
def test_non_finite_eps_or_q_is_config_error(argv, operation, tmp_path,
                                             capsys):
    code = main(argv + ["--generator", "cylinder", "--n", "17",
                        "--outdir", str(tmp_path / "o")])
    assert code == 1
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["exit_code"]) == ("ConfigError", 1)
    assert (payload["module"], payload["operation"]) == ("quatsurf.cli",
                                                         operation)
    assert "finite" in payload["message"]


def test_qdiff_grid_mismatch_is_config_error(tmp_path, capsys):
    path = tmp_path / "phi.csv"
    with open(path, "w") as fh:
        fh.write("x,y,re_phi,im_phi\n")
        for j in range(5):
            for i in range(5):
                fh.write("%g,%g,1,0\n" % (0.25 * i, 0.25 * j))
    code = main(["dual", "--generator", "cylinder", "--n", "17",
                 "--qdiff", str(path), "--outdir", str(tmp_path / "o")])
    assert code == 1
    payload = last_stderr_json(capsys)
    assert payload["error"] == "ConfigError"
    assert (payload["module"], payload["operation"]) == ("quatsurf.cli",
                                                         "dual")
    assert "5x5" in payload["message"] and "17x17" in payload["message"]


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


def test_tolerance_flags_change_the_outcome(tmp_path, capsys):
    out = str(tmp_path / "t")
    assert main(["dual", "--generator", "catenoid", "--n", "33",
                 "--closed-tol", "1e-12", "--outdir", out]) == 2
    assert main(["generate", "--generator", "cylinder", "--n", "33",
                 "--chart-tol", "1e-14", "--outdir", out]) == 2
    payload = last_stderr_json(capsys)
    assert (payload["module"], payload["operation"]) \
        == ("quatsurf.generators", "make_surface")
    assert main(["solve-ivp"] + IVP + ["--det-tol", "2",
                                        "--outdir", out]) == 2
    assert last_stderr_json(capsys)["operation"] == "check_wellposed"
    counts = []
    for extra in ([], ["--umbilic-tol", "0.05"]):
        assert main(["analyze", "--generator", "enneper", "--param",
                     "order=2", "--n", "33", "--outdir", out] + extra) == 0
        counts.append(read_report(out, "analyze")["results"]
                      ["umbilic_count"])
    assert counts == [1, 9]


def test_outdir_that_is_a_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    code = main(["analyze", "--generator", "cylinder", "--n", "17",
                 "--outdir", str(path)])
    assert code == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    payload = json.loads(err[0])
    assert (payload["error"], payload["exit_code"]) == ("ConfigError", 1)
    assert (payload["module"], payload["operation"]) == ("quatsurf.io",
                                                         "ensure_outdir")


@pytest.mark.parametrize("command, blocked, operation", [
    ("analyze", "analyze_report.json", "write_report"),
    ("generate", "cylinder_surface.obj", "write_obj"),
    ("analyze", "cylinder_curvature.csv", "write_field_csv"),
])
def test_unwritable_artifact_is_config_error(command, blocked, operation,
                                             tmp_path, capsys):
    (tmp_path / blocked).mkdir()
    code = main([command, "--generator", "cylinder", "--n", "17",
                 "--outdir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    payload = json.loads(err[0])
    assert (payload["error"], payload["exit_code"]) == ("ConfigError", 1)
    assert (payload["module"], payload["operation"]) == ("quatsurf.io",
                                                         operation)
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
                                       tmp_path, capsys):
    path = tmp_path / "bad.csv"
    _malformed_csv(path, header, kind)
    code = main(argv + [str(path), "--outdir", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    payload = json.loads(err[0])
    assert (payload["error"], payload["exit_code"]) == ("ConfigError", 1)
    assert (payload["module"], payload["operation"]) == ("quatsurf.io",
                                                         operation)
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
def test_unread_flags_are_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err
