"""Closed-loop job runner, and the metrics computed from its records.

End-to-end metrics come from an untraced loop.  Per-layer metrics come
from a second, traced loop over the same job parameters; the difference
in latency between the two loops is the tracing overhead.
"""

import contextlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import spans
from .workloads import same_tree

SETUP_SPAWNS = 7

# The metrics BENCHMARK.json gates on: name, unit, which way is better,
# bound (the share of the parent's median by which a later change may
# worsen it before it counts as a regression).  On a shared 2-vCPU host
# other tenants slow every job by up to ~1.7x for seconds to minutes at a
# time, and only ever slow it, so the gated latency is the fastest job of
# the run; job_p50_s, job_tail_s, nodes_per_s and failed_frac are
# reported beside it.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("job_min_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_LAYER_FUNCTIONS = (
    "quaternions.qmul.calls", "quaternions.qmul.self_s",
    "charts.weingarten_split.calls", "charts.weingarten_split.self_s",
    "charts.build_immersion.self_s", "charts.closedness_residual.calls",
    "quaddiff.form_from_qdiff.self_s", "quaddiff.zero_locus.self_s",
    "quaddiff.cr_residual.self_s",
    "duality.integrate_dual.self_s", "duality.integrate_form.calls",
    "duality.verify_duality.self_s",
    "bonnet.bonnet_pair.calls", "bonnet.bonnet_pair.total_s",
    "bonnet.spin_integrate.self_s",
    "cauchy.symbol.calls", "cauchy.characteristic_angles.self_s",
    "cauchy.check_wellposed.calls", "cauchy.march_solve.self_s",
    "cauchy.reconstruct.self_s",
    "generators.make_surface.self_s",
    "align.congruence_distance.self_s", "align.rigid_align.self_s",
    "io.write_obj.self_s", "io.write_field_csv.self_s",
    "io.read_positions_csv.self_s", "io.write_report.self_s",
    "cli.generate.total_s", "cli.analyze.total_s", "cli.dual.total_s",
)

_UNITS = {"calls": "calls/job", "self_s": "s/job", "total_s": "s/job"}

# Derived per-layer metrics: name -> (unit, total over the traced jobs as a
# function of the per-function summary).
_DERIVED = {
    "quaternions.qmul.mb_computed":
        ("MB/job", lambda s: s["quaternions.qmul"]["value"] / 1e6),
    "charts.deriv.calls":
        ("calls/job", lambda s: s["charts.deriv_x"]["calls"]
         + s["charts.deriv_y"]["calls"]),
    "charts.deriv.self_s":
        ("s/job", lambda s: s["charts.deriv_x"]["self_s"]
         + s["charts.deriv_y"]["self_s"]),
    "cauchy.rows_marched":
        ("rows/job", lambda s: s["cauchy.march_solve"]["value"]),
    "io.write_obj.mb": ("MB/job", lambda s: s["io.write_obj"]["value"] / 1e6),
    "io.write_field_csv.mb":
        ("MB/job", lambda s: s["io.write_field_csv"]["value"] / 1e6),
    "io.read_positions_csv.mb":
        ("MB/job", lambda s: s["io.read_positions_csv"]["value"] / 1e6),
}

# Counts per bonnet_pair call rather than per job.
_PER_PAIR = {
    "bonnet.spin_form.per_pair": "bonnet.spin_form",
    "bonnet.bonnet_pair.weingarten_calls": "charts.weingarten_split",
}


def per_layer_names():
    """[(name, unit)] of every per-layer metric, in report order."""
    out = []
    for layer in spans.LAYERS:
        out.append(("%s.self_s" % layer, "s/job"))
        out.append(("%s.calls" % layer, "calls/job"))
        out += [(n, _UNITS[n.rsplit(".", 1)[1]]) for n in _LAYER_FUNCTIONS
                if n.startswith(layer + ".")]
        out += [(n, unit) for n, (unit, _) in _DERIVED.items()
                if n.startswith(layer + ".")]
        out += [(n, "calls/pair") for n in _PER_PAIR
                if n.startswith(layer + ".")]
    out += [("trace.overhead_s", "s/job"), ("trace.overhead_frac", "ratio")]
    return out


@dataclass
class JobRecord:
    index: int
    params: dict
    latency_s: float
    nodes: int
    error: str = None
    passed: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    @property
    def failed(self):
        return self.error is not None or not all(self.passed.values())

    def as_dict(self):
        return {"index": self.index, "params": self.params,
                "latency_s": self.latency_s, "nodes": self.nodes,
                "failed": self.failed, "error": self.error,
                "passed": self.passed, "values": self.values}


def run_job(workload, index, params, workdir, tracer=None):
    """One timed job and its untimed (and untraced) output check.  A job
    that raises is recorded as failed; it does not end the run."""
    root = tracer.begin(tracer.code("bench.job")) if tracer else None
    t0 = perf_counter()
    try:
        out, error = workload.job(params, workdir), None
    except Exception:
        out, error = None, traceback.format_exc(limit=-3)
    latency = perf_counter() - t0
    if tracer:
        tracer.end(root)
    record = JobRecord(index, params, latency, params["n"] ** 2, error)
    if error is None:
        with tracer.paused() if tracer else contextlib.nullcontext():
            try:
                record.passed, record.values = workload.check(params, out,
                                                              workdir)
            except Exception:
                record.error = "check raised: " + traceback.format_exc(-3)
    return record


def run_loop(workload, jobs, workroot, seconds=None, tracer=None,
             setup=None):
    """Closed loop: the next job starts when the previous one has returned
    and been checked.  Stops when ``jobs`` runs out or, once at least one
    job ran, when ``seconds`` of wall time have passed.  ``setup`` takes
    its import timings between jobs."""
    records = []
    start = perf_counter()
    for k, params in enumerate(jobs):
        elapsed = perf_counter() - start
        if seconds is not None and k and elapsed >= seconds:
            break
        if setup is not None:
            setup.poll(elapsed)
        workdir = os.path.join(workroot, "job%d" % k)
        records.append(run_job(workload, k, params, workdir, tracer))
        if k or not workload.rerun_identical:
            shutil.rmtree(workdir, ignore_errors=True)
    return records


def rerun_first(workload, record, workroot):
    """Run the first job again, untimed, into the same directory, and gate
    that job on its artifacts and reports being byte-identical."""
    workdir = os.path.join(workroot, "job0")
    if not os.path.isdir(workdir):
        return
    timed = workdir + ".timed"
    os.rename(workdir, timed)
    try:
        workload.job(record.params, workdir)
        record.passed["rerun_identical"] = same_tree(timed, workdir)
    except Exception:
        record.passed["rerun_identical"] = False
        record.values["rerun_error"] = traceback.format_exc(limit=-3)
    finally:
        shutil.rmtree(timed, ignore_errors=True)
        shutil.rmtree(workdir, ignore_errors=True)


def tail_percentile(latencies):
    """The highest whole percentile with at least 10 samples beyond it, by
    nearest rank; None for fewer than 20 samples."""
    n = len(latencies)
    if n < 20:
        return None
    p = 100 * (n - 10) // n
    rank = max(1, math.ceil(p * n / 100))
    return {"percentile": p, "value": sorted(latencies)[rank - 1],
            "beyond": n - rank, "count": n}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupTimer:
    """Wall times of fresh interpreters that each run ``import quatsurf``
    from the checkout's sources.  The spawns are spread evenly over the
    run, so that their median sees the same machine states as the jobs."""

    def __init__(self, root, seconds, spawns=SETUP_SPAWNS):
        self.root = root
        self.due = [seconds * i / spawns for i in range(spawns)]
        self.samples = []

    def spawn(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import quatsurf"],
                       cwd=self.root, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        self.samples.append(perf_counter() - t0)

    def poll(self, elapsed):
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self.spawn()

    def finish(self):
        self.poll(float("inf"))
        return self.samples


def end_to_end(records, setup_samples, rss_mb):
    """Every end-to-end metric, as {name: {"value", "unit", ...}}."""
    lat = [r.latency_s for r in records]
    failed = sum(r.failed for r in records)
    nodes = sum(r.nodes for r in records if not r.failed)
    out = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s",
                    "samples": len(setup_samples)},
        "job_min_s": {"value": min(lat), "unit": "s", "samples": len(lat)},
        "job_p50_s": {"value": statistics.median(lat), "unit": "s",
                      "samples": len(lat)},
        "nodes_per_s": {"value": nodes / sum(lat), "unit": "nodes/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "failed_frac": {"value": failed / len(records), "unit": "ratio",
                        "failed": failed, "attempted": len(records)},
    }
    tail = tail_percentile(lat)
    if tail is not None:
        out["job_tail_s"] = {"value": tail.pop("value"), "unit": "s", **tail}
    return out


def per_layer(tracer, untraced, traced):
    """Every per-layer metric, per traced job.  The tracing overhead is the
    median over jobs of traced minus untraced latency of the same job,
    which keeps the first job's warm-up out of it."""
    jobs = len(traced)
    overhead = statistics.median(
        t.latency_s - u.latency_s for u, t in zip(untraced, traced))
    summary = spans.summarise(tracer)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0.0}
    s = {name: summary.get(name, zero)
         for name in spans.public_functions(spans.layer_modules())}
    out = {}
    for layer in spans.LAYERS:
        own = [v for k, v in s.items() if k.startswith(layer + ".")]
        out["%s.self_s" % layer] = sum(v["self_s"] for v in own) / jobs
        out["%s.calls" % layer] = sum(v["calls"] for v in own) / jobs
    for name in _LAYER_FUNCTIONS:
        fn, stat = name.rsplit(".", 1)
        out[name] = s[fn][stat] / jobs
    for name, (_, total) in _DERIVED.items():
        out[name] = total(s) / jobs
    pairs = s["bonnet.bonnet_pair"]["calls"]
    for name, inner in _PER_PAIR.items():
        inside = spans.calls_within(tracer, inner, "bonnet.bonnet_pair")
        out[name] = inside / pairs if pairs else 0.0
    out["trace.overhead_s"] = overhead
    out["trace.overhead_frac"] = overhead / statistics.median(
        u.latency_s for u in untraced)
    units = dict(per_layer_names())
    return {name: {"value": out[name], "unit": units[name]}
            for name, _ in per_layer_names()}, summary


def _lscpu():
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              env=dict(os.environ, LC_ALL="C"),
                              check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {}
    keep = ("Model name", "CPU(s)", "Thread(s) per core", "L1d cache",
            "L1i cache", "L2 cache", "L3 cache")
    rows = (line.split(":", 1) for line in text.splitlines() if ":" in line)
    return {k.strip(): v.strip() for k, v in rows if k.strip() in keep}


def _filesystem(path):
    """Type of the filesystem holding ``path``, from this process's mount
    table (longest matching mount point)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) >= len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return {"mount_point": best or None, "type": fstype}


def _blas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {}


def environment(workroot):
    import scipy
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _lscpu(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": threads,
        "outdir_filesystem": _filesystem(workroot),
        "note": "quatsurf's writers never fsync, so io.* figures measure "
                "the page cache, not the disk.  Byte counts are computed "
                "from array and file sizes, not measured traffic.",
    }
