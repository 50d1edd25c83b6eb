"""Command-line front end: generators, analysis pipelines, invariant
verification, and convergence ladders, with reproducible artifacts.

Artifacts are OBJ meshes, CSV node fields, and canonical JSON reports
(sorted keys, fixed float formatting, no timestamps), so a repeated run
with the same configuration produces byte-identical output.  Exit codes:
0 success, 1 configuration/validation error, 2 numerical failure; on
failure a machine-readable JSON error naming the failing module,
operation, and node (when known) is printed to stderr.
"""

import argparse
import cmath
import functools
import inspect
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .charts import (_CHART_TOL, _UMBILIC_TOL, GridChart,
                     anticonformality_residual, build_immersion, field_stats,
                     interior, relate_hopf, rms, tangentiality_residual,
                     umbilics, weingarten_residual, weingarten_split)
from .quaternions import qconj, qmul, qnorm, quat, to_vec
from .quaddiff import QuadDifferential, check_holomorphic
from .duality import (_CLOSED_TOL, classify_christoffel, integrate_dual,
                      verify_duality)
from .bonnet import (bonnet_pair, shape_distortion_check,
                     umbilic_branch_correspondence)
from .cauchy import (_MIN_BAND_ROWS, CauchyProblem, _march_span,
                     check_wellposed, march_solve, reconstruct)
from .generators import _SPANS, CATALOG, GeneratorResult, make_surface
from .align import similarity_distance
from .io import (ConfigError, config_hash, ensure_outdir, read_positions_csv,
                 read_qdiff_csv, write_field_csv, write_obj, write_report)

OUTDIR_ENV = "QUATSURF_OUTDIR"
DEFAULT_OUTDIR = "quatsurf-out"

# errors from the CLI's own code are reported under this module name, also
# when it runs as __main__
_CLI_MODULE = "quatsurf.cli"

# node coordinates embedded in library error messages, e.g. "(j=3, i=17)"
_NODE_RE = re.compile(r"\(j=(\d+),\s*i=(\d+)\)")

# the RunConfig fields that are tolerances, reported together
_TOLERANCES = ("closed_tol", "chart_tol", "umbilic_tol")

# errors that end a run as a numerical failure (exit 2), ArithmeticError
# for the FloatingPointError of run()'s np.errstate
_NUMERICAL = (ValueError, RuntimeError, ArithmeticError,
              np.linalg.LinAlgError)

# grid nodes per side when n is unset (RunConfig.n is None); verify's checks
# run on a smaller grid
_N_DEFAULT, _N_VERIFY = 65, 33


@dataclass
class RunConfig:
    """Validated settings for one CLI invocation.

    Collects the command, input sources (generator name + parameters or
    input file paths), grid size, tolerances, output directory, and seed
    into one record.  ``as_dict`` returns the canonical form that is
    embedded, along with its hash, in every report.  The field defaults
    are the CLI defaults: flags left unset fall through to them.
    """

    command: str
    generator: str | None = None
    params: dict = field(default_factory=dict)
    input_path: str | None = None
    qdiff_path: str | None = None
    q: str | None = None
    eps: float = 1.0
    row: int | None = None
    steps: int = 8
    n: int | None = None
    closed_tol: float = _CLOSED_TOL
    chart_tol: float = _CHART_TOL
    umbilic_tol: float = _UMBILIC_TOL
    outdir: str | None = None
    seed: int = 0
    checks: list = field(default_factory=list)
    kind: str | None = None
    levels: int = 3

    def __post_init__(self):
        self.params = dict(self.params or {})
        self.checks = list(self.checks or [])
        if self.n is None:
            self.n = _N_VERIFY if self.command == "verify" else _N_DEFAULT
        self.validate()

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError("unknown command: %r" % (self.command,))
        if self.n < 5:
            raise ConfigError("grid size n must be at least 5, got %d"
                              % self.n)
        if self.levels < 1:
            raise ConfigError("levels must be at least 1")
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        for name in ("eps",) + _TOLERANCES:
            val = getattr(self, name)
            if not (val > 0 and math.isfinite(val)):
                raise ConfigError("%s must be positive and finite, got %r"
                                  % (name, val))
        if self.q is not None:
            _parse_complex(self.q)  # kept as typed: the report holds the text
        if self.generator is not None and self.generator not in CATALOG:
            raise ConfigError("unknown generator %r; choose from %s"
                              % (self.generator, ", ".join(sorted(CATALOG))))
        if self.generator is not None:
            # n and chart_tol have their own flags
            sig = inspect.signature(CATALOG[self.generator]).parameters
            known = [k for k in sig if k not in ("n", "chart_tol")]
            unknown = sorted(set(self.params) - set(known))
            if unknown:
                raise ConfigError("generator %r has no parameter %s; "
                                  "choose from %s"
                                  % (self.generator, ", ".join(unknown),
                                     ", ".join(known)))
        for path in (self.input_path, self.qdiff_path):
            if path is not None and not os.path.isfile(path):
                raise ConfigError("input file does not exist: %s" % path)
        if "--input" in _COMMAND_FLAGS[self.command][1] \
                and self.generator is None and self.input_path is None:
            raise ConfigError("command %r needs --generator or --input"
                              % self.command)
        if self.command == "converge":
            if self.kind not in _KINDS:
                raise ConfigError("converge needs --kind from %s"
                                  % (", ".join(_KINDS)))
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        names = [name for name, _ in VERIFY_CHECKS]
        for check in self.checks:
            if check not in names:
                raise ConfigError("unknown check %r; choose from %s"
                                  % (check, ", ".join(names)))

    def as_dict(self):
        d = asdict(self)
        del d["outdir"]
        d["input"] = d.pop("input_path")
        d["qdiff"] = d.pop("qdiff_path")
        d["tolerances"] = {name: d.pop(name) for name in _TOLERANCES}
        return d


def _param(item):
    """One --param KEY=VALUE as (key, value), VALUE a finite number."""
    key, _, raw = item.partition("=")
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (key.strip() and math.isfinite(value)):
        raise argparse.ArgumentTypeError("expected KEY=VALUE with a finite "
                                         "number VALUE, got %r" % item)
    return key.strip(), value


def _parse_complex(text):
    try:
        value = complex(text.replace(" ", ""))
    except ValueError:
        value = cmath.nan
    if not cmath.isfinite(value):
        raise ConfigError("--q must be a finite complex number (forms like "
                          "1, -2.5, 1j, 0.5+0.5j), got %r" % text)
    return value


def _load_surface(config):
    """The working surface as a GeneratorResult: the catalog surface, or
    the input file's, named by its base name, with no known q or dual."""
    if config.generator is not None:
        return make_surface(config.generator, n=config.n,
                            chart_tol=config.chart_tol, **config.params)
    grid, positions = read_positions_csv(config.input_path)
    imm = build_immersion(grid, positions, chart_tol=config.chart_tol)
    label = os.path.splitext(os.path.basename(config.input_path))[0]
    return GeneratorResult(label, imm)


def _load_qdiff(config, surf):
    """--qdiff file, --q constant, or the surface's known differential."""
    imm = surf.imm
    if config.qdiff_path is not None:
        q = QuadDifferential(*read_qdiff_csv(config.qdiff_path))
        try:
            return QuadDifferential.coerce(imm.grid, q)
        except ValueError as exc:
            raise ConfigError("--qdiff %s: %s"
                              % (config.qdiff_path, exc)) from exc
    if config.q is not None:
        return QuadDifferential.coerce(imm.grid, _parse_complex(config.q))
    if surf.q_known is not None:
        return surf.q_known
    raise ConfigError("no quadratic differential: pass --q or --qdiff, "
                      "or use a generator with a known one")


def _nodes_list(nodes, limit=64):
    return [[int(j), int(i)] for j, i in list(nodes)[:limit]]


def _centred_rms(got, want):
    """RMS distance between two (..., 3) point sets, each translated to
    zero mean."""
    got = got - got.reshape(-1, 3).mean(axis=0)
    want = want - want.reshape(-1, 3).mean(axis=0)
    return float(rms(np.linalg.norm(got - want, axis=-1)))


def _position_fields(imm):
    p = imm.positions
    return {"px": p[..., 0], "py": p[..., 1], "pz": p[..., 2]}


# ---------------------------------------------------------------------------
# pipeline stages: (config, imm[, q]) -> (objects, results), shared by the
# command handlers and the converge ladder


def _analyze(config, imm):
    curv = weingarten_split(imm)
    _, wrel = weingarten_residual(imm, curv)
    _, arel = anticonformality_residual(imm, curv)
    _, trel = tangentiality_residual(imm, curv)
    _, hrel = relate_hopf(imm, curv)
    return curv, {
        "H": field_stats(curv.H),
        "hopf_abs": field_stats(np.abs(curv.hopf_qd)),
        "weingarten_rel": wrel,
        "anticonformality_rel": arel,
        "tangentiality_rel": trel,
        "hopf_consistency_rel": hrel,
        "conformality_residual": imm.conformality_residual,
    }


def _dual(config, imm, q):
    dual = integrate_dual(imm, q, closed_tol=config.closed_tol)
    checks = verify_duality(imm, dual, weingarten_split(imm))
    return dual, {
        "closedness_rel": dual.closedness_rel,
        "path_deviation": dual.path_deviation,
        "branch_nodes": _nodes_list(dual.branch_nodes),
        "branch_multiplicities": [int(m) for m in dual.branch_mults],
        "pole_count": len(dual.pole_nodes),
        "H_dual": field_stats(dual.Hstar),
        "classical_rel": checks["classical_rel"],
        "wedge_rel": checks["wedge_rel"],
        "real_multiple_rel": checks["real_multiple_rel"],
        "fitted_vs_Hdual_rms": checks["fitted_vs_Hstar_rms"],
    }


def _bonnet(config, imm, q, dual=None):
    if dual is None:
        dual = integrate_dual(imm, q, closed_tol=config.closed_tol)
    pair = bonnet_pair(imm, dual, config.eps, closed_tol=config.closed_tol,
                       chart_tol=config.chart_tol)
    _, dist_rel = shape_distortion_check(imm, dual, pair)
    dH = np.abs(interior(pair.Hplus) - interior(pair.Hminus))
    floor = 1e-3 * imm.diameter()
    return (dual, pair), {
        "eps": config.eps,
        "metric_rel": pair.metric_rel,
        "mean_curvature_diff_max": float(np.max(dH)),
        "H_plus": field_stats(pair.Hplus),
        "H_minus": field_stats(pair.Hminus),
        "congruence_rms": pair.congruence_rms,
        "congruence_floor": floor,
        "noncongruent": bool(pair.congruence_rms > floor),
        "normal_recovery_rel": pair.normal_recovery_rel,
        "distortion_identity_rel": dist_rel,
        "distortion_cr_rel": pair.D_cr_rel,
    }


def _solve_ivp(config, imm, q):
    row = config.row if config.row is not None else imm.grid.ny // 2
    if not (0 <= row < imm.grid.ny):
        raise ConfigError("row %d outside grid (ny=%d)" % (row, imm.grid.ny))
    lo, hi = _march_span(row, config.steps, imm.grid.ny)
    if hi - lo + 1 < _MIN_BAND_ROWS:
        raise ConfigError("band of rows %d-%d too thin to differentiate "
                          "(need at least %d rows)" % (lo, hi, _MIN_BAND_ROWS))
    prob = CauchyProblem(imm, q, row)
    well = check_wellposed(prob)
    spin = march_solve(prob, config.steps)
    band, rep = reconstruct(prob, spin, closed_tol=config.closed_tol,
                            chart_tol=config.chart_tol)
    return band, {
        "row": row,
        "steps": config.steps,
        "rows_solved": [lo, hi],
        "wellposed": well,
        "spin_norm": field_stats(qnorm(spin.lam[lo:hi + 1]),
                                 interior_only=False),
        "curve_match_rel": rep["curve_match_rel"],
        "closedness_rel": rep["closedness_rel"],
        "q_residual_tangential_rel": rep["q_residual_tangential_rel"],
        "q_residual_normal_rel": rep["q_residual_normal_rel"],
        "path_deviation": rep["path_deviation"],
    }


# ---------------------------------------------------------------------------
# command handlers: each returns (results dict, grid) and writes artifacts


def _cmd_generate(config, outdir):
    surf = _load_surface(config)
    imm, label = surf.imm, surf.name
    write_obj(os.path.join(outdir, "%s_surface.obj" % label), imm.positions,
              comment="generated surface: %s" % label)
    fields = _position_fields(imm)
    fields["log_density"] = imm.u
    fields["conformality"] = imm.conformality_field
    write_field_csv(os.path.join(outdir, "%s_fields.csv" % label),
                    imm.grid, fields)
    results = {
        "label": label,
        "diameter": imm.diameter(),
        "conformality_residual": imm.conformality_residual,
        "log_density": field_stats(imm.u),
        "has_known_qdiff": surf.q_known is not None,
        "has_known_dual": surf.dual_known is not None,
    }
    return results, imm.grid


def _cmd_analyze(config, outdir):
    surf = _load_surface(config)
    curv, results = _analyze(config, surf.imm)
    umb = umbilics(curv, tol=config.umbilic_tol)
    write_field_csv(os.path.join(outdir, "%s_curvature.csv" % surf.name),
                    surf.imm.grid,
                    {"H": curv.H,
                     "re_hopf": curv.hopf_qd.real,
                     "im_hopf": curv.hopf_qd.imag,
                     "conformality": surf.imm.conformality_field})
    results.update(label=surf.name, umbilic_count=len(umb),
                   umbilic_nodes=_nodes_list(umb))
    return results, surf.imm.grid


def _cmd_dual(config, outdir):
    surf = _load_surface(config)
    dual, results = _dual(config, surf.imm, _load_qdiff(config, surf))
    write_obj(os.path.join(outdir, "%s_dual.obj" % surf.name),
              dual.positions, comment="dual surface of %s" % surf.name)
    results["label"] = surf.name
    if not dual.branch_nodes:
        istar = dual.as_immersion(chart_tol=config.chart_tol)
        flip = qnorm(istar.N + surf.imm.N)
        results["normal_flip_rms"] = float(rms(interior(flip)))
        results["classify"] = classify_christoffel(surf.imm, istar)
    if surf.dual_known is not None:
        results["known_dual_rms"] = _centred_rms(dual.positions,
                                                 surf.dual_known)
    return results, surf.imm.grid


def _cmd_bonnet(config, outdir):
    surf = _load_surface(config)
    (dual, pair), results = _bonnet(config, surf.imm,
                                    _load_qdiff(config, surf))
    corr = umbilic_branch_correspondence(pair, dual, tol=config.umbilic_tol)
    write_obj(os.path.join(outdir, "%s_mate_plus.obj" % surf.name),
              to_vec(pair.fplus), comment="mate at +eps")
    write_obj(os.path.join(outdir, "%s_mate_minus.obj" % surf.name),
              to_vec(pair.fminus), comment="mate at -eps")
    results.update(label=surf.name, umbilic_branch_match=corr["all_match"],
                   distortion_zeros=_nodes_list(corr["distortion_zeros"]))
    return results, surf.imm.grid


def _cmd_solve_ivp(config, outdir):
    surf = _load_surface(config)
    band, results = _solve_ivp(config, surf.imm, _load_qdiff(config, surf))
    write_obj(os.path.join(outdir, "%s_band.obj" % surf.name),
              band.positions, comment="marched band")
    results["label"] = surf.name
    return results, surf.imm.grid


# converge --kind: the stage it runs, whether that stage takes a quadratic
# differential, and the result names it records at each rung
_KINDS = {
    "weingarten": (_analyze, False, ("weingarten_rel", "anticonformality_rel",
                                     "tangentiality_rel")),
    "dual": (_dual, True, ("classical_rel", "path_deviation")),
    "bonnet": (_bonnet, True, ("mean_curvature_diff_max",
                               "distortion_identity_rel",
                               "distortion_cr_rel")),
    "ivp": (_solve_ivp, True, ("spin_norm_dev_max", "curve_match_rel",
                               "q_residual_normal_rel")),
}


def _orders(values):
    return [float(np.log2(a / b)) if a > 0 and b > 0 else float("inf")
            for a, b in zip(values, values[1:])]


def _cmd_converge(config, outdir):
    stage, takes_q, names = _KINDS[config.kind]
    # every rung is a nested slice of one sample at the finest rung (--n
    # names the first): rung k keeps every s-th node, s = 2**(levels-1-k)
    top = 2 ** (config.levels - 1)
    surf = _load_surface(replace(config, n=(config.n - 1) * top + 1))
    fine = surf.imm.grid
    if any((m - 1) % top or m < 4 * top + 1 for m in (fine.nx, fine.ny)):
        raise ConfigError("converge --levels %d needs k*%d+1 nodes on each "
                          "axis with k >= 4, got nx=%d, ny=%d"
                          % (config.levels, top, fine.nx, fine.ny))
    q = _load_qdiff(config, surf) if takes_q else None
    series = {name: [] for name in names}
    grids = []
    for k in range(config.levels):
        s = top >> k
        grid = GridChart(1 + (fine.nx - 1) // s, 1 + (fine.ny - 1) // s,
                         fine.hx * s, fine.hy * s, fine.x0, fine.y0)
        imm = build_immersion(grid, surf.imm.positions[::s, ::s],
                              chart_tol=config.chart_tol)
        args = (QuadDifferential(grid, q.phi[::s, ::s]),) if takes_q else ()
        # --row names the first rung's row: the same curve on rung k
        rung = replace(config, row=config.row and config.row * 2 ** k)
        _, results = stage(rung, imm, *args)
        grids.append(grid)
        if config.kind == "ivp":
            # max | |lam| - 1 | over the band, from its min and max
            stats = results["spin_norm"]
            results["spin_norm_dev_max"] = max(stats["max"] - 1.0,
                                               1.0 - stats["min"])
        for name in names:
            series[name].append(float(results[name]))
    table = {name: {"residuals": vals, "orders": _orders(vals)}
             for name, vals in series.items()}
    return {"kind": config.kind, "grid_sizes": [g.nx for g in grids],
            "series": table}, grids[0]


# ---------------------------------------------------------------------------
# verify: a registry of fast self-checks


def _check_quaternion_algebra(seed, surface, cylinder):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((64, 4))
    b = rng.standard_normal((64, 4))
    c = rng.standard_normal((64, 4))
    assoc = qmul(qmul(a, b), c) - qmul(a, qmul(b, c))
    norm_mult = qnorm(qmul(a, b)) - qnorm(a) * qnorm(b)
    conj_rev = qconj(qmul(a, b)) - qmul(qconj(b), qconj(a))
    worst = max(float(np.max(qnorm(assoc))),
                float(np.max(np.abs(norm_mult))),
                float(np.max(qnorm(conj_rev))))
    return worst < 1e-12, {"max_residual": worst}


def _check_weingarten(seed, surface, cylinder):
    _, res = cylinder(_analyze)
    wrel, h_mean = res["weingarten_rel"], res["H"]["mean"]
    ok = wrel < 1e-3 and abs(h_mean - 0.5) < 1e-3
    return ok, {"weingarten_rel": wrel, "H_mean": h_mean}


def _check_hopf(seed, surface, cylinder):
    curv, res = cylinder(_analyze)
    hrel = res["hopf_consistency_rel"]
    # loose tol: the coefficient comes from differentiated samples, so
    # one-sided stencils inflate its CR residual near the boundary
    grid = surface("cylinder").imm.grid
    worst = check_holomorphic(QuadDifferential(grid, curv.hopf_qd), tol=5e-3)
    return hrel < 1e-3, {"hopf_consistency_rel": hrel, "cr_worst": worst}


def _check_dual_roundtrip(seed, surface, cylinder):
    gen = surface("cylinder")
    istar = cylinder(_dual)[0].as_immersion()
    flip = float(rms(interior(qnorm(istar.N + gen.imm.N))))
    dual2 = integrate_dual(istar, gen.q_known)
    sim = similarity_distance(dual2.positions, gen.imm.positions)
    ok = flip < 1e-4 and sim < 1e-3
    return ok, {"normal_flip_rms": flip, "roundtrip_similarity": sim}


def _check_catenoid_dual(seed, surface, cylinder):
    gen = surface("catenoid")
    dual = integrate_dual(gen.imm, gen.q_known)
    err = _centred_rms(dual.positions, gen.dual_known)
    size = _centred_rms(gen.dual_known, np.zeros(3))  # RMS radius
    return err < 1e-3 * max(size, 1.0), {"dual_vs_gauss_rms": err}


def _check_classify(seed, surface, cylinder):
    cyl = surface("cylinder").imm
    scaled = build_immersion(cyl.grid, 2.0 * cyl.positions + 0.25)
    dual = cylinder(_dual)[0].as_immersion()
    got = (classify_christoffel(cyl, scaled),
           classify_christoffel(cyl, dual),
           classify_christoffel(cyl, surface("catenoid").imm))
    want = ("scaling", "dual_pair", "unrelated")
    return got == want, {"got": list(got), "want": list(want)}


def _check_bonnet(seed, surface, cylinder):
    res = cylinder(_bonnet)[1]
    return (res["metric_rel"] < 1e-8 and res["noncongruent"],
            {name: res[name] for name in ("metric_rel", "congruence_rms")})


def _check_distortion(seed, surface, cylinder):
    rel = cylinder(_bonnet)[1]["distortion_identity_rel"]
    return rel < 0.05, {"distortion_identity_rel": rel}


def _check_march(seed, surface, cylinder):
    imm = surface("cylinder", rotation=np.pi / 4).imm
    prob = CauchyProblem(imm, 1j, imm.grid.ny // 2)
    spin = march_solve(prob, 4)
    lo, hi = spin.band_rows()
    dev = float(np.max(qnorm(spin.lam[lo:hi + 1]
                             - quat(1.0, 0.0, 0.0, 0.0))))
    return dev < 1e-3, {"spin_dev_max": dev}


def _check_characteristic_reject(seed, surface, cylinder):
    imm = surface("cylinder", rotation=np.pi / 4).imm
    prob = CauchyProblem(imm, 1.0 + 0.0j, imm.grid.ny // 2)
    try:
        check_wellposed(prob)
    except ValueError:
        return True, {"rejected": True}
    return False, {"rejected": False}


def _check_io_roundtrip(seed, surface, cylinder):
    import tempfile
    imm = surface("cylinder").imm
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "surf.csv")
        write_field_csv(path, imm.grid, _position_fields(imm))
        grid, pos = read_positions_csv(path)
    err = float(np.max(np.abs(pos - imm.positions)))
    same = grid.spec() == imm.grid.spec()
    return err < 1e-12 and same, {"roundtrip_max_err": err}


VERIFY_CHECKS = [
    ("quaternion_algebra", _check_quaternion_algebra),
    ("weingarten_cylinder", _check_weingarten),
    ("hopf_consistency", _check_hopf),
    ("dual_roundtrip", _check_dual_roundtrip),
    ("catenoid_dual_gauss", _check_catenoid_dual),
    ("classify_matrix", _check_classify),
    ("bonnet_cylinder", _check_bonnet),
    ("distortion_identity", _check_distortion),
    ("march_manufactured", _check_march),
    ("characteristic_reject", _check_characteristic_reject),
    ("io_roundtrip", _check_io_roundtrip),
]


def _cmd_verify(config, outdir):
    selected = [(m, f) for m, f in VERIFY_CHECKS
                if not config.checks or m in config.checks]

    # per-run memos, so each is built once: a catalog surface at the run's
    # n, and a command stage on the cylinder (with its q where it takes
    # one; the mates take the dual _dual integrated)
    @functools.cache
    def surface(name, **params):
        return make_surface(name, n=config.n, **params)

    @functools.cache
    def cylinder(stage):
        gen = surface("cylinder")
        if stage is _analyze:
            return stage(config, gen.imm)
        if stage is _bonnet:
            return stage(config, gen.imm, gen.q_known, cylinder(_dual)[0])
        return stage(config, gen.imm, gen.q_known)

    outcomes = {}
    for name, fn in selected:
        try:
            passed, metrics = fn(config.seed, surface, cylinder)
        except ConfigError:
            raise
        except _NUMERICAL as exc:  # a check that raises fails; the rest run
            passed, metrics = False, {"error": str(exc)}
        outcomes[name] = {"passed": bool(passed), "metrics": metrics}
    failures = sum(not out["passed"] for out in outcomes.values())
    results = {
        "checks": outcomes,
        "total": len(selected),
        "failures": failures,
        "passed": failures == 0,
    }
    # make_surface("cylinder", n=config.n)'s grid, without the surface
    grid = GridChart.from_bounds(*_SPANS["cylinder"], config.n, config.n)
    return results, grid


_HANDLERS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "dual": _cmd_dual,
    "bonnet": _cmd_bonnet,
    "solve-ivp": _cmd_solve_ivp,
    "converge": _cmd_converge,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# report plumbing and entry point


def _locate(exc, operation):
    """(module, operation) an error is reported under: the outermost
    public function of a library module in its traceback, else the CLI
    itself with the given operation."""
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        name = tb.tb_frame.f_code.co_name
        if module.startswith("quatsurf.") and module != _CLI_MODULE \
                and not name.startswith("_"):
            return module, name
        tb = tb.tb_next
    return _CLI_MODULE, operation


def _emit_error(exc, code, operation):
    node = None
    match = _NODE_RE.search(str(exc))
    if match:
        node = [int(match.group(1)), int(match.group(2))]
    module, operation = _locate(exc, operation)
    payload = {
        "error": type(exc).__name__,
        "module": module,
        "operation": operation,
        "message": str(exc),
        "node": node,
        "exit_code": code,
    }
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


def _print_summary(command, results):
    if command == "verify":
        for name, out in results["checks"].items():
            print("%s %s" % ("PASS" if out["passed"] else "FAIL", name))
        print("verify: %d/%d checks passed"
              % (results["total"] - results["failures"], results["total"]))
        return
    if command == "converge":
        print("convergence (%s) on grids %s"
              % (results["kind"],
                 "/".join(str(n) for n in results["grid_sizes"])))
        for name, row in sorted(results["series"].items()):
            res = " ".join("%.3e" % v for v in row["residuals"])
            orders = " ".join("%.2f" % o for o in row["orders"])
            print("  %-28s %s   orders: %s" % (name, res, orders))
        return
    for key in ("label", "conformality_residual", "weingarten_rel",
                "umbilic_count", "closedness_rel", "path_deviation",
                "metric_rel", "congruence_rms", "curve_match_rel"):
        if key in results:
            val = results[key]
            if isinstance(val, float):
                print("  %s: %.6e" % (key, val))
            else:
                print("  %s: %s" % (key, val))


def run(config):
    try:
        outdir = config.outdir or os.environ.get(OUTDIR_ENV, DEFAULT_OUTDIR)
        ensure_outdir(outdir)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            results, grid = _HANDLERS[config.command](config, outdir)
        cfg = config.as_dict()
        report = {
            "command": config.command,
            "config": cfg,
            "config_hash": config_hash(cfg),
            "grid": grid.spec() if grid is not None else None,
            "results": results,
        }
        name = config.command.replace("-", "_") + "_report.json"
        write_report(os.path.join(outdir, name), report)
        print("%s: report written to %s"
              % (config.command, os.path.join(outdir, name)))
        _print_summary(config.command, results)
        if config.command == "verify" and not results["passed"]:
            return 2
        return 0
    except (ConfigError, MemoryError) as exc:
        return _emit_error(exc, 1, config.command)
    except _NUMERICAL as exc:
        return _emit_error(exc, 2, config.command)


# every option with its argparse settings; each command below lists exactly
# the options its code reads
_FLAGS = {
    "--generator": dict(help="analytic test surface to sample: %s"
                        % ", ".join(sorted(CATALOG))),
    "--param": dict(action="append", dest="params", type=_param,
                    metavar="KEY=VALUE",
                    help="numeric generator parameter (repeatable)"),
    "--input": dict(dest="input_path", help="CSV with columns x,y,px,py,pz"),
    "--n": dict(type=int, help="grid nodes per side (default %d, verify %d)"
                % (_N_DEFAULT, _N_VERIFY)),
    "--outdir": dict(help="artifact directory (or set $%s)" % OUTDIR_ENV),
    "--q": dict(help="constant quadratic differential coefficient, "
                     "e.g. '1j' or '0.5+0.5j'"),
    "--qdiff": dict(dest="qdiff_path",
                    help="CSV with columns x,y,re_phi,im_phi"),
    "--eps": dict(type=float,
                  help="spectral parameter (default %g)" % RunConfig.eps),
    "--row": dict(type=int, help="initial row (default: middle)"),
    "--steps": dict(type=int, help="march steps per side (default %d)"
                    % RunConfig.steps),
    "--closed-tol": dict(type=float, help="closedness tolerance (default %g)"
                         % RunConfig.closed_tol),
    "--chart-tol": dict(type=float, help="conformal chart tolerance "
                        "(default %g)" % RunConfig.chart_tol),
    "--umbilic-tol": dict(type=float, help="umbilic tolerance (default %g)"
                          % RunConfig.umbilic_tol),
    "--seed": dict(type=int, help="random seed (default %d)" % RunConfig.seed),
    "--kind": dict(help="which residual family to refine: %s"
                   % ", ".join(_KINDS)),
    "--levels": dict(type=int, help="ladder rungs: n, 2n-1, 4n-3 "
                     "(default %d)" % RunConfig.levels),
    "--all": dict(action="store_true",
                  help="run every check (default when none named; not "
                       "with --check)"),
    "--check": dict(action="append", dest="checks", metavar="NAME",
                    help="run one named check (repeatable): %s"
                    % ", ".join(name for name, _ in VERIFY_CHECKS)),
}
_SOURCE = ("--generator", "--param", "--input", "--n", "--outdir",
           "--chart-tol")
_QDIFF = ("--q", "--qdiff", "--closed-tol")
_COMMAND_FLAGS = {
    "generate": ("sample a catalog surface to disk", _SOURCE),
    "analyze": ("curvature decomposition and umbilic report",
                _SOURCE + ("--umbilic-tol",)),
    "dual": ("integrate the dual surface", _SOURCE + _QDIFF),
    "bonnet": ("build a Bonnet mate pair",
               _SOURCE + _QDIFF + ("--eps", "--umbilic-tol")),
    "solve-ivp": ("march the Cauchy problem off an initial row",
                  _SOURCE + _QDIFF + ("--row", "--steps")),
    "verify": ("run built-in self checks",
               ("--all", "--check", "--n", "--outdir", "--seed")),
    "converge": ("grid refinement ladder with observed orders",
                 ("--kind", "--levels") + _SOURCE + _QDIFF
                 + ("--eps", "--row", "--steps")),
}
COMMANDS = tuple(_COMMAND_FLAGS)


class _Parser(argparse.ArgumentParser):
    """Raises an argument error as a ConfigError, not a usage exit."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    """Flags left unset are absent from the parsed namespace (SUPPRESS),
    so RunConfig's field defaults apply to them."""
    parser = _Parser(
        prog="quatsurf",
        description="curvature, duality, and Bonnet-pair analysis of "
                    "conformally parametrized surface patches")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags) in _COMMAND_FLAGS.items():
        p = sub.add_parser(command, help=text,
                           argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None):
    try:
        args = vars(_build_parser().parse_args(argv))
        # --all restates verify's default, every check unless some are named
        if args.pop("all", False) and "checks" in args:
            raise ConfigError("--all runs every check; it cannot be "
                              "combined with --check")
        config = RunConfig(**args)
    except ConfigError as exc:
        return _emit_error(exc, 1, "parse")
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
