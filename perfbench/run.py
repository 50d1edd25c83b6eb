"""Run one quatsurf benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mates-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one process each

Run from anywhere; the checkout is the directory above this file, and the
library is imported from its ``src``.  ``--trace 0`` runs the closed loop
untraced for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs it untraced for half of ``--seconds``, then replays the
same jobs with every public quatsurf function wrapped in a span, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object; the full report (job parameters,
checks, environment) and, for traced runs, every span are written to
``perfbench/out``.  ``--write-spec`` rewrites ``BENCHMARK.json`` from the
tables in this package.
"""

import argparse
import json
import os
import sys

# One BLAS thread: the single-threaded baseline.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
RUN_SECONDS = 30


def spec():
    """The contents of BENCHMARK.json."""
    from perfbench.harness import END_TO_END, per_layer_names
    from perfbench.workloads import WORKLOADS
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in per_layer_names()],
    }


def run(name, seed, seconds, trace, n=None, setup_spawns=None, out=OUT):
    """Run one workload and return (final line dict, full report dict)."""
    import shutil

    import numpy as np

    from perfbench import harness, spans
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    tag = "%s_seed%d_trace%d" % (name, seed, trace)
    workroot = os.path.join(out, tag + "_work")
    os.makedirs(workroot, exist_ok=True)
    # A traced run reports no end-to-end metrics, so it times no set-up.
    setup = harness.SetupTimer(ROOT, seconds,
                               0 if trace else
                               setup_spawns or harness.SETUP_SPAWNS)
    draws = workload.draws(np.random.default_rng(seed), n)
    budget = seconds / 2 if trace else seconds
    records = harness.run_loop(workload, draws, workroot, seconds=budget,
                               setup=setup)
    setup_samples = setup.finish()
    if workload.rerun_identical:
        harness.rerun_first(workload, records[0], workroot)
    report = {"workload": name, "why": workload.why, "seed": seed,
              "seconds": seconds, "trace": trace,
              "environment": harness.environment(workroot),
              "closed_loop": "one job at a time; the next starts when the "
                             "previous one has returned"}
    if trace:
        tracer = spans.Tracer()
        with spans.traced(tracer):
            traced = harness.run_loop(workload, [r.params for r in records],
                                      workroot, tracer=tracer)
        metrics, summary = harness.per_layer(tracer, records, traced)
        tracer.save(os.path.join(out, tag + "_spans.npz"))
        report["traced_jobs"] = [r.as_dict() for r in traced]
        report["functions"] = summary
        reported = [name for name, _ in harness.per_layer_names()]
    else:
        traced = []
        metrics = harness.end_to_end(records, setup_samples,
                                     harness.peak_rss_mb())
        reported = [name for name, *_ in harness.END_TO_END]
    report["setup_samples_s"] = setup_samples
    report["jobs"] = [r.as_dict() for r in records]
    report["metrics"] = metrics
    attempted = records + traced
    failed = sum(r.failed for r in attempted)
    final = {"correct": failed == 0, "attempted": len(attempted),
             "failed": failed,
             "metrics": {k: {"value": metrics[k]["value"],
                             "unit": metrics[k]["unit"]} for k in reported}}
    with open(os.path.join(out, tag + ".json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    shutil.rmtree(workroot, ignore_errors=True)
    return final, report


def run_all(seed, seconds, trace):
    """Every workload in turn, each in a fresh interpreter so that its
    set-up time and peak RSS are its own.  Prints each workload's output,
    then one JSON object of their result lines."""
    import subprocess

    from perfbench.workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)], stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        help="omit to run every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quatsurf", "__init__.py")):
        sys.stderr.write("perfbench: no quatsurf sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0

    from perfbench.workloads import WORKLOADS
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(WORKLOADS))
    final, report = run(args.workload, args.seed, args.seconds, args.trace)

    print("%s seed=%d jobs=%d failed=%d" % (args.workload, args.seed,
                                            final["attempted"],
                                            final["failed"]))
    for name, m in report["metrics"].items():
        extra = {k: v for k, v in m.items() if k not in ("value", "unit")}
        print("  %-40s %14.6g %-10s %s" % (name, m["value"], m["unit"],
                                           json.dumps(extra) if extra else ""))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
