import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import quatsurf
import quatsurf.bonnet
import quatsurf.cauchy
import quatsurf.cli
import quatsurf.quaternions
from perfbench import harness, run, spans
from perfbench.workloads import Workload

ROOT = run.ROOT


def test_no_tail_below_twenty_samples():
    assert harness.tail_percentile([1.0] * 19) is None
    assert harness.tail_percentile([]) is None


@pytest.mark.parametrize("n", [20, 21, 37, 100, 150, 1000])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    lat = list(np.random.default_rng(n).permutation(n) + 1.0)
    tail = harness.tail_percentile(lat)
    p = tail["percentile"]
    assert tail["count"] == n
    assert sum(x > tail["value"] for x in lat) == tail["beyond"] >= 10
    # one percentile higher would leave fewer than ten samples beyond it
    rank = -(-(p + 1) * n // 100)
    assert n - rank < 10
    if n == 100:
        assert (p, tail["value"]) == (90, 90.0)


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,4] > b [2,3]; root > c [5,6]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    assert spans.self_times(parent, start, end).tolist() == [6.0, 2.0, 1.0,
                                                             1.0]


def test_summarise_nested_wrapped_calls(monkeypatch):
    clock = itertools.count()
    monkeypatch.setattr(spans, "perf_counter", lambda: float(next(clock)))
    tracer = spans.Tracer()
    inner = tracer.wrap("m.inner", lambda: None)

    def outer_fn():
        inner()
        inner()

    outer = tracer.wrap("m.outer", outer_fn)
    outer()
    s = spans.summarise(tracer)
    # outer spans ticks 0..5 and covers two inner spans of one tick each
    assert s["m.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0,
                            "value": 0.0}
    assert s["m.inner"]["calls"] == 2
    assert s["m.inner"]["self_s"] == 2.0
    assert spans.calls_within(tracer, "m.inner", "m.outer") == 2


def _bound_objects():
    mods = [quatsurf] + list(spans.layer_modules().values())
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("_HANDLERS", k): v
                 for k, v in quatsurf.cli._HANDLERS.items()})
    return snap


def test_wrapper_replaces_every_binding_and_restores_them():
    before = _bound_objects()
    qmul = quatsurf.quaternions.qmul
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.traced(tracer):
            # names bound by `from .x import f` in other modules
            assert quatsurf.bonnet.qmul is not qmul
            assert quatsurf.bonnet.qmul is quatsurf.quaternions.qmul
            assert quatsurf.qmul is quatsurf.quaternions.qmul
            assert quatsurf.cli.write_obj is not before[("quatsurf.io",
                                                         "write_obj")]
            assert quatsurf.cli.check_wellposed is \
                quatsurf.cauchy.check_wellposed
            assert quatsurf.cli._HANDLERS["dual"] is not \
                before[("_HANDLERS", "dual")]
            quatsurf.bonnet.qmul(np.eye(4)[0], np.eye(4)[1])
            raise RuntimeError("restore after an error too")
    after = _bound_objects()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert spans.summarise(tracer)["quaternions.qmul"]["calls"] == 1
    quatsurf.quaternions.qmul(np.eye(4)[0], np.eye(4)[1])
    assert len(tracer.parents) == 1


def test_paused_tracer_records_nothing():
    tracer = spans.Tracer()
    with spans.traced(tracer):
        with tracer.paused():
            quatsurf.qmul(np.eye(4)[0], np.eye(4)[1])
        quatsurf.qmul(np.eye(4)[0], np.eye(4)[1])
    assert len(tracer.parents) == 1


def _toy_workload():
    def draws(rng, n=None):
        for k in itertools.count():
            yield {"n": 3, "k": k}

    def job(p, workdir):
        if p["k"] == 3:
            raise ValueError("job 3 raises")
        return p["k"]

    def check(p, out, workdir):
        return {"even": out % 2 == 0}, {"out": out}

    return Workload("toy", "toy", draws, job, check)


def test_failed_checks_and_raising_jobs_count_in_failed_frac(tmp_path):
    toy = _toy_workload()
    jobs = itertools.islice(toy.draws(None), 6)
    records = harness.run_loop(toy, jobs, str(tmp_path))
    assert [r.failed for r in records] == [False, True, False, True, False,
                                           True]
    assert "job 3 raises" in records[3].error
    m = harness.end_to_end(records, [0.5], 10.0)
    assert m["failed_frac"]["value"] == pytest.approx(0.5)
    assert m["failed_frac"]["attempted"] == 6
    # only nodes of jobs that passed count as completed
    assert m["nodes_per_s"]["value"] == pytest.approx(
        27 / sum(r.latency_s for r in records))


def _final_line_ok(final, names):
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["attempted"] >= 1
    assert list(final["metrics"]) == names
    json.dumps(final)


@pytest.mark.parametrize("name", ["mates-large", "artifacts-large",
                                  "cauchy-small"])
def test_smoke_each_workload_at_n33(name, tmp_path):
    e2e = [m[0] for m in harness.END_TO_END]
    final, report = run.run(name, 5, 0.5, 0, n=33, setup_spawns=1,
                            out=str(tmp_path))
    _final_line_ok(final, e2e)
    assert all(v["value"] > 0 for v in final["metrics"].values())
    # At n = 33 two checks depend on resolution: the march's 1e-3
    # tolerance on lambda, and the chart check that `dual` applies to the
    # integrated dual of strongly rotated catenoids.  The rest must hold.
    jobs = report["jobs"]
    if name == "mates-large":
        assert final["failed"] == 0
    if name == "artifacts-large":
        assert all(j["passed"]["csv_roundtrip"] for j in jobs)
        assert all(j["values"]["exit_codes"][:2] == [0, 0] for j in jobs)
        assert jobs[0]["passed"]["rerun_identical"]
    if name == "cauchy-small":
        assert all(j["passed"]["four_angles"] for j in jobs)
    assert final["failed"] == sum(j["failed"] for j in jobs)

    final, report = run.run(name, 5, 0.5, 1, n=33, setup_spawns=1,
                            out=str(tmp_path))
    _final_line_ok(final, [n for n, _ in harness.per_layer_names()])
    m = {k: v["value"] for k, v in final["metrics"].items()}
    if name == "mates-large":
        assert m["bonnet.spin_form.per_pair"] == 4
        assert m["bonnet.bonnet_pair.weingarten_calls"] == 4
        assert m["io.calls"] == m["cauchy.calls"] == m["cli.calls"] == 0
    if name == "artifacts-large":
        assert m["bonnet.calls"] == m["cauchy.calls"] == 0
        assert m["io.write_obj.mb"] > 0 and m["cli.dual.total_s"] > 0
    if name == "cauchy-small":
        assert m["cauchy.check_wellposed.calls"] == 2
        assert m["io.calls"] == m["bonnet.calls"] == 0
    assert os.path.isfile(tmp_path / ("%s_seed5_trace1_spans.npz" % name))
    assert sorted(os.listdir(tmp_path)) == sorted(
        "%s_seed5_trace%s" % (name, s) for s in
        ("0.json", "1.json", "1_spans.npz"))


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == run.spec()


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cauchy-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
