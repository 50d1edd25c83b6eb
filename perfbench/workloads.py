"""The benchmark's three seeded workloads.

A workload turns a seeded random generator into an endless stream of job
parameters (``draws``), runs one job by calling into quatsurf (``job``) and
checks that job's outputs (``check``).  Only ``job`` is timed.  Every
drawn parameter is plain JSON so that it can be recorded; quatsurf
receives only the inputs built from it.

Library functions are looked up on their modules at call time, so that a
traced run sees the wrappers that ``spans.traced`` installs there.
"""

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import quatsurf
import quatsurf.cli


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    draws: Callable   # (rng, n or None) -> iterator of parameter dicts
    job: Callable     # (params, workdir) -> outputs
    check: Callable   # (params, outputs, workdir) -> (passed, values)
    # Rerun the first job untimed and require byte-identical artifacts.
    rerun_identical: bool = False


def _cycle(rng, items):
    """Endless sequence of seeded permutations of ``items``: every block of
    len(items) jobs meets each item once, so seeds change the order and the
    drawn parameters, not the mix."""
    while True:
        for k in rng.permutation(len(items)):
            yield items[k]


# ---------------------------------------------------------------------------
# mates-large: the library pipeline from surface to Bonnet mates

MATES_SURFACES = (("cylinder", {}), ("unduloid", {}), ("enneper", {"order": 2}),
                  ("sphere", {}), ("catenoid", {}))


def mates_draws(rng, n=None):
    n = n or 513
    for generator, params in _cycle(rng, MATES_SURFACES):
        yield {"generator": generator, "params": params, "n": n,
               "rotation": float(rng.uniform(0.0, np.pi)),
               "eps": float(rng.uniform(0.5, 2.0))}


def mates_job(p, workdir):
    gen = quatsurf.make_surface(p["generator"], n=p["n"],
                                rotation=p["rotation"], **p["params"])
    imm = gen.imm
    curv = quatsurf.weingarten_split(imm)
    dual = quatsurf.integrate_dual(imm, gen.q_known)
    quatsurf.verify_duality(imm, dual, curv)
    pair = quatsurf.bonnet_pair(imm, dual, p["eps"])
    _, distortion = quatsurf.shape_distortion_check(imm, dual, pair)
    match = quatsurf.umbilic_branch_correspondence(pair, dual)
    return {"metric_rel": pair.metric_rel,
            "congruence_rms": pair.congruence_rms,
            "diameter": imm.diameter(),
            "distortion_identity_rel": distortion,
            "all_match": match["all_match"]}


def mates_check(p, out, workdir):
    # The thresholds of `quatsurf verify --all`.  all_match is recorded
    # but not gated: zero_locus misses zeros that fall between nodes.
    passed = {
        "metric_rel": out["metric_rel"] < 1e-8,
        "congruence": out["congruence_rms"] > 1e-3 * out["diameter"],
        "distortion_identity": out["distortion_identity_rel"] < 0.05,
    }
    return passed, dict(out)


# ---------------------------------------------------------------------------
# artifacts-large: three CLI commands per surface, in process

# Catalog differential of each surface at rotation 0; a chart rotation
# multiplies it by e^{2 i rotation}.
ARTIFACT_SURFACES = (("cylinder", 1.0), ("catenoid", -1.0), ("sphere", 1.0))


def artifacts_draws(rng, n=None):
    n = n or 257
    for generator, phi0 in _cycle(rng, ARTIFACT_SURFACES):
        rotation = float(rng.uniform(0.0, np.pi))
        q = phi0 * np.exp(2j * rotation)
        yield {"generator": generator, "n": n, "rotation": rotation,
               "q": "%.17g%+.17gj" % (q.real, q.imag)}


def artifacts_argvs(p, workdir):
    csv = os.path.join(workdir, p["generator"] + "_fields.csv")
    return [["generate", "--generator", p["generator"], "--n", str(p["n"]),
             "--param", "rotation=%r" % p["rotation"], "--outdir", workdir],
            ["analyze", "--input", csv, "--outdir", workdir],
            ["dual", "--input", csv, "--q=" + p["q"], "--outdir", workdir]]


def artifacts_job(p, workdir):
    os.makedirs(workdir)
    codes = []
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        for argv in artifacts_argvs(p, workdir):
            try:
                code = quatsurf.cli.main(argv)
            except SystemExit as exc:  # argparse rejects an argument
                code = exc.code
            codes.append(code)
            if code != 0:
                break
    return {"exit_codes": codes, "stderr": err.getvalue()[-2000:]}


def read_csv_columns(path):
    """Columns of a quatsurf CSV by header name, parsed with numpy alone."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: rows[:, k] for k, name in enumerate(header)}


def artifacts_check(p, out, workdir):
    passed = {"exit_codes": out["exit_codes"] == [0, 0, 0]}
    values = dict(out)
    if out["exit_codes"][0] == 0:
        cols = read_csv_columns(
            os.path.join(workdir, p["generator"] + "_fields.csv"))
        want = quatsurf.make_surface(p["generator"], n=p["n"],
                                     rotation=p["rotation"]).imm.positions
        got = np.stack([cols["px"], cols["py"], cols["pz"]], axis=-1)
        err = float(np.max(np.abs(got - want.reshape(-1, 3))))
        passed["csv_roundtrip"] = err <= 1e-12
        values["csv_roundtrip_max_err"] = err
    return passed, values


def same_tree(a, b):
    """True when two directories hold the same file names and bytes."""
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, \
                open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


# ---------------------------------------------------------------------------
# cauchy-small: the marching solver on small grids

# Two jobs at n = 65 for each at n = 129.  With an even split the median
# would sit in the gap between the two sizes' latencies and jump across it
# from run to run; this way it falls inside the n = 65 cluster and the
# tail percentile inside the n = 129 one.
CAUCHY_SIZES = (65, 129, 65)


def cauchy_draws(rng, n=None):
    k = 0
    while True:
        size = n or CAUCHY_SIZES[k % len(CAUCHY_SIZES)]
        k += 1
        yield {"n": size, "rotation": float(rng.uniform(0.3, 1.2)),
               "row": int(rng.integers(size // 4, 3 * size // 4 + 1)),
               "steps": 8}


def cauchy_job(p, workdir):
    n, row = p["n"], p["row"]
    gen = quatsurf.make_surface("cylinder", n=n, rotation=p["rotation"])
    # The cylinder's own differential e^{2 i rotation}: the background is
    # isothermic for it, so lambda = 1 solves the march exactly.
    prob = quatsurf.CauchyProblem(gen.imm, gen.q_known, row)
    quatsurf.check_wellposed(prob)
    spin = quatsurf.march_solve(prob, p["steps"])
    quatsurf.reconstruct(prob, spin)
    angles = quatsurf.characteristic_angles(gen.imm, prob.tau, (row, n // 2))
    lo, hi = spin.row_span
    return {"band": spin.lam[lo:hi + 1], "angles": list(angles)}


def cauchy_check(p, out, workdir):
    dev = float(np.max(np.linalg.norm(out["band"] - [1.0, 0.0, 0.0, 0.0],
                                      axis=-1)))
    passed = {"manufactured_solution": dev < 1e-3,
              "four_angles": len(out["angles"]) == 4}
    return passed, {"lam_dev_max": dev, "angles": out["angles"],
                    "band_rows": int(out["band"].shape[0])}


WORKLOADS = {w.name: w for w in (
    Workload(
        "mates-large",
        "Runs quaternions, charts, duality and bonnet at n=513 with no io; "
        "unduloid jobs run scipy's ODE and enneper jobs push a real branch "
        "point through zero_locus.",
        mates_draws, mates_job, mates_check),
    Workload(
        "artifacts-large",
        "CLI generate/analyze/dual at n=257: writers and the CSV reader take "
        "most of the time, io writes sit next to reads of the same files, "
        "and it is the only workload that runs cli.",
        artifacts_draws, artifacts_job, artifacts_check,
        rerun_identical=True),
    Workload(
        "cauchy-small",
        "About 100 ms jobs dominated by Python loops (symbol, check_wellposed,"
        " march rows): quaternions in the small-array per-call-overhead "
        "regime that mates-large never reaches.",
        cauchy_draws, cauchy_job, cauchy_check),
)}
