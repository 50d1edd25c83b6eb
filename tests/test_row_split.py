"""The whole-grid kernels split their rows over two threads on large
operands: the same bits as one inline call, and the threading contract.

Each test lowers or raises the private threshold quaternions._SPLIT_SIZE
to force one path, and puts a counting worker pool in place of the
lazily started one, so every hand-off to the worker is seen.  Outputs
are compared by their bytes (signed zeros and NaN payloads included).
"""

import functools
import importlib
import inspect
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

import quatsurf
from quatsurf import quaternions
from quatsurf.bonnet import _rotate, _spin_rotation
from quatsurf.charts import (GridChart, _frame_rows, _mean_curvature_rows,
                             _weingarten_rows, deriv_x, deriv_y, raw_frame,
                             weingarten_split)
from quatsurf.duality import (DualResult, _cumint_x, _cumint_y,
                              _duality_rows, _mean_curvature, _routing_rows,
                              integrate_form, verify_duality)
from quatsurf.quaddiff import _hopf_form_rows, form_from_qdiff
from quatsurf.quaternions import (QForm, _qempty, _split_rows, from_vec, qdot,
                                  qmul, qnormsq, wedge)

INLINE = 1 << 62
SPLIT = 1


class CountingPool:
    """A one-worker pool that counts the jobs handed to it and keeps the
    name of each job's row fill."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(1)
        self.submitted = 0
        self.fills = []

    def submit(self, fn, *args):
        self.submitted += 1
        # _split_rows hands over (context.run, _fill_half, fill, ...)
        self.fills.append(args[1].__name__)
        return self.pool.submit(fn, *args)


@pytest.fixture
def pool(monkeypatch):
    """Two CPUs and a counting worker in place of the process's own."""
    counting = CountingPool()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(quaternions, "_split_pool", (os.getpid(), counting))
    yield counting
    counting.pool.shutdown(wait=True)


def interleaved(rng, ny, nx):
    return rng.standard_normal((ny, nx, 4))


def planar(rng, ny, nx):
    out = _qempty((ny, nx))
    out[...] = rng.standard_normal((ny, nx, 4))
    return out


LAYOUTS = {"interleaved": interleaved, "planar": planar}
# odd and even row counts, and a single row (an empty lower half)
SHAPES = [(7, 9), (8, 10), (1, 9)]


def kernels(rng, layout, ny, nx):
    """{name: (kernel, args)} for every kernel that splits its rows."""
    a = LAYOUTS[layout](rng, ny, nx)
    b = LAYOUTS[layout](rng, ny, nx)
    s = rng.standard_normal((ny, nx))
    z = s + 1j * rng.standard_normal((ny, nx))
    R = _spin_rotation(a)
    found = {
        "qmul": (qmul, (a, b)),
        "qnormsq": (qnormsq, (a,)),
        "qdot": (qdot, (a, b)),
        "deriv_x": (deriv_x, (a, 0.3)),
        "deriv_x_scalar": (deriv_x, (s, 0.3)),
        "deriv_x_complex": (deriv_x, (z, 0.3)),
        "spin_rotation": (_spin_rotation, (a,)),
        "rotate": (_rotate, (R, b)),
        "cumint_x": (_cumint_x, (a, 0.3)),
        "wedge": (lambda a, b: wedge(QForm(a, b), QForm(b, a)), (a, b)),
    }
    if ny >= 5:  # the stencils along y need five rows
        found["deriv_y"] = (deriv_y, (a, 0.2))
        found["cumint_y"] = (_cumint_y, (a, 0.2))
    return found


@pytest.mark.parametrize("ny,nx", SHAPES)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_split_is_bitwise_the_inline_result(pool, monkeypatch, layout,
                                            ny, nx):
    seed = [ny, nx, len(layout)]
    for name, (kernel, args) in kernels(np.random.default_rng(seed), layout,
                                        ny, nx).items():
        # the split result first: rows it left unwritten would hold
        # stale memory, not a copy of the inline result
        monkeypatch.setattr(quaternions, "_SPLIT_SIZE", SPLIT)
        before = pool.submitted
        split = kernel(*args)
        after = pool.submitted
        assert after > before, name
        monkeypatch.setattr(quaternions, "_SPLIT_SIZE", INLINE)
        inline = kernel(*args)
        assert pool.submitted == after, name
        assert split.shape == inline.shape and split.dtype == inline.dtype
        assert split.tobytes() == inline.tobytes(), name


def test_broadcasts_and_stacks_stay_inline(pool, monkeypatch):
    rng = np.random.default_rng(3)
    field = rng.standard_normal((6, 7, 4))
    stack = rng.standard_normal((3, 6, 7, 4))
    R_row = _spin_rotation(field[:1])
    cases = {}
    for name, (a, b) in {"constant": (field[0, 0], field),
                         "row": (field[:1], field),
                         "stack": (stack, stack[::-1])}.items():
        cases[name + "_qmul"] = (qmul, (a, b))
        cases[name + "_qdot"] = (qdot, (a, b))
    cases.update({"stack_qnormsq": (qnormsq, (stack,)),
                  "stack_deriv_x": (deriv_x, (stack, 0.3)),
                  "stack_cumint_x": (_cumint_x, (stack, 0.3)),
                  "row_rotate": (_rotate, (R_row, field))})
    monkeypatch.setattr(quaternions, "_SPLIT_SIZE", INLINE)
    want = {name: kernel(*args).tobytes()
            for name, (kernel, args) in cases.items()}
    monkeypatch.setattr(quaternions, "_SPLIT_SIZE", SPLIT)
    for name, (kernel, args) in cases.items():
        assert kernel(*args).tobytes() == want[name], name
        assert pool.submitted == 0, name


def test_the_smallest_operand_decides(pool, monkeypatch):
    a = np.random.default_rng(4).standard_normal((8, 9, 4))
    R = _spin_rotation(a)  # ten planes to a's four
    monkeypatch.setattr(quaternions, "_SPLIT_SIZE", a.size + 1)
    _rotate(R, a)
    assert pool.submitted == 0
    monkeypatch.setattr(quaternions, "_SPLIT_SIZE", a.size)
    _rotate(R, a)
    assert pool.submitted == 1


def test_worker_sees_the_callers_errstate(pool, monkeypatch):
    monkeypatch.setattr(quaternions, "_SPLIT_SIZE", SPLIT)
    a = np.zeros((8, 9, 4))
    # rows 4-7 go to the worker, and inf * 0 is an invalid operation
    # whose result, NaN, lands only there
    a[6, 4, 0] = np.inf
    b = np.zeros_like(a)
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            qmul(a, b)
    assert pool.submitted == 1
    with np.errstate(invalid="ignore"):
        nan_rows = np.unique(np.argwhere(np.isnan(qmul(a, b)))[:, 0])
    assert nan_rows.tolist() == [6]


def raise_on_nan(out, a):
    out[...] = a
    if np.isnan(a).any():
        raise ValueError("NaN in these rows")


@pytest.mark.parametrize("row", [1, 6])
def test_an_exception_from_either_half_reaches_the_caller(pool, monkeypatch,
                                                          row):
    monkeypatch.setattr(quaternions, "_SPLIT_SIZE", SPLIT)
    a = np.zeros((8, 3))
    a[row, 0] = np.nan
    with pytest.raises(ValueError, match="NaN in these rows"):
        _split_rows(raise_on_nan, np.empty_like(a), (a,))
    # the worker is free and no half is left marked busy
    b = np.arange(24.0).reshape(8, 3)
    assert np.array_equal(_split_rows(raise_on_nan, np.empty_like(b), (b,)),
                          b)
    assert pool.submitted == 2


def test_the_caller_waits_for_the_worker_before_raising(pool, monkeypatch):
    monkeypatch.setattr(quaternions, "_SPLIT_SIZE", SPLIT)
    done = []

    def fill(out, a):
        if a[0, 0] == 0.0:
            raise ValueError("lower half")
        time.sleep(0.2)
        done.append(True)

    a = np.arange(8.0).reshape(4, 2)
    with pytest.raises(ValueError, match="lower half"):
        _split_rows(fill, np.empty_like(a), (a,))
    assert done == [True]


def test_cumint_submits_one_job(pool, monkeypatch):
    monkeypatch.setattr(quaternions, "_SPLIT_SIZE", SPLIT)
    g = np.random.default_rng(5).standard_normal((8, 9, 4))
    _cumint_x(g, 0.1)
    assert pool.submitted == 1


def test_a_kernel_called_inside_a_half_runs_inline(pool, monkeypatch):
    monkeypatch.setattr(quaternions, "_SPLIT_SIZE", SPLIT)
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((2, 8, 9, 4))

    def fill(out, a, b):
        out[...] = qmul(a, b)  # would wait on the busy worker if it split

    out = _qempty((8, 9))
    caller = threading.Thread(target=_split_rows, args=(fill, out, (a, b)))
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert pool.submitted == 1
    monkeypatch.setattr(quaternions, "_SPLIT_SIZE", INLINE)
    assert out.tobytes() == qmul(a, b).tobytes()


def test_one_cpu_never_submits(pool, monkeypatch):
    monkeypatch.setattr(quaternions, "_SPLIT_SIZE", SPLIT)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    rng = np.random.default_rng(7)
    for kernel, args in kernels(rng, "planar", 8, 9).values():
        kernel(*args)
    assert pool.submitted == 0


def test_import_starts_no_thread():
    code = ("import sys, threading, quatsurf; "
            "assert 'concurrent.futures' not in sys.modules; "
            "assert threading.active_count() == 1")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


# ---------------------------------------------------------------------------
# the stage fills: each stage hands its whole pointwise tail to one fill

def unit_normals(rng, ny, nx):
    v = rng.standard_normal((ny, nx, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return from_vec(v)


def stage_fills(rng, ny, nx):
    """{name: (fill, fresh outputs, rows, args)} for each stage's row
    fill on random fields over an (ny, nx) grid, outputs allocated as
    the stage allocates them."""
    shape = (ny, nx)
    f = [planar(rng, ny, nx) for _ in range(8)]
    N = unit_normals(rng, ny, nx)
    H, Hs = rng.standard_normal((2, ny, nx))
    phi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # a branch node (df* = 0) and a NaN H* in the last row, which the
    # worker fills whenever the rows split
    tx, ty = f[2].copy(), f[3].copy()
    tx[-1, 1] = ty[-1, 1] = 0.0
    Hs[-1, 2] = np.nan
    jr, ir = ny // 2, nx // 2
    base = (f[0][jr:jr + 1, :1] - f[0][jr:jr + 1, ir:ir + 1]) \
        + (f[1][:1, :1] - f[1][jr:jr + 1, :1])

    def real(k, dtype=float):
        return tuple(np.empty(shape, dtype=dtype) for _ in range(k))

    return {
        "weingarten": (
            _weingarten_rows,
            lambda: (np.empty(shape), _qempty(shape), _qempty(shape),
                     np.empty(shape + (2, 2)), np.empty(shape, complex),
                     np.empty((ny, 2))),
            (N, f[0], f[1], f[2], f[3]), ()),
        "mean_curvature": (
            _mean_curvature_rows, lambda: real(3), (f[0], f[1], f[2], f[3]),
            ()),
        "frame": (_frame_rows, lambda: (_qempty(shape),) + real(3),
                  (f[0], f[1]), ()),
        "hopf_form": (_hopf_form_rows, lambda: (_qempty(shape), _qempty(shape)),
                      (phi, f[0], N), ()),
        "routing": (_routing_rows, lambda: (_qempty(shape),) + real(1),
                    (f[0], f[1]), (f[0][jr:jr + 1], f[1][jr:jr + 1], ir,
                                   base)),
        "duality": (
            _duality_rows,
            lambda: real(2, bool) + real(7),
            (f[0], f[1], tx, ty, f[4], f[5], f[6], f[7], H, Hs), ()),
    }


@pytest.mark.parametrize("ny,nx", SHAPES)
def test_each_stage_fill_splits_to_the_inline_bits(pool, monkeypatch, ny,
                                                   nx):
    fills = stage_fills(np.random.default_rng([ny, nx, 11]), ny, nx)
    for name, (fill, outputs, rows, args) in fills.items():
        monkeypatch.setattr(quaternions, "_SPLIT_SIZE", SPLIT)
        before = pool.submitted
        with np.errstate(all="raise"):
            split = _split_rows(fill, outputs(), rows, *args)
        assert pool.submitted == before + 1, name
        monkeypatch.setattr(quaternions, "_SPLIT_SIZE", INLINE)
        with np.errstate(all="raise"):
            inline = _split_rows(fill, outputs(), rows, *args)
        assert pool.submitted == before + 1, name
        for k, (got, want) in enumerate(zip(split, inline)):
            assert got.dtype == want.dtype, (name, k)
            assert got.tobytes() == want.tobytes(), (name, k)


def stage_calls(rng, ny, nx):
    """{name: (the fills of its jobs, call)} for each stage with a row
    fill; each call returns its outputs as a tuple of arrays."""
    grid = GridChart(nx, ny, 0.3, 0.2)
    f = [planar(rng, ny, nx) for _ in range(6)]
    imm = SimpleNamespace(grid=grid, fx=f[0], fy=f[1],
                          N=unit_normals(rng, ny, nx))
    phi = rng.standard_normal((ny, nx)) + 1j * rng.standard_normal((ny, nx))
    positions = from_vec(rng.standard_normal((ny, nx, 3)))
    curv = SimpleNamespace(H=rng.standard_normal((ny, nx)),
                           omega=QForm(f[2], f[3]), dN=QForm(f[4], f[5]))
    Hs = rng.standard_normal((ny, nx))
    Hs[-1, 2] = np.nan
    tau = QForm(f[3].copy(), f[2].copy())
    tau.ax[-1, 1] = tau.ay[-1, 1] = 0.0
    dual = DualResult(grid, None, tau, 0.0, 0.0, [], [], [], Hs)

    def arrays(result):
        if isinstance(result, (tuple, list)):
            return tuple(a for r in result for a in arrays(r))
        if isinstance(result, QForm):
            return (result.ax, result.ay)
        if isinstance(result, dict):
            return tuple(np.float64(v) for _, v in sorted(result.items()))
        if isinstance(result, float):
            return (np.float64(result),)
        if isinstance(result, np.ndarray):
            return (result,)
        return arrays([result.H, result.omega, result.II, result.hopf_qd,
                       result.dN])

    deriv, cumint = "_deriv_x_rows", "_cumint_x_rows"
    return {
        "weingarten_split": ([deriv, deriv, "_weingarten_rows"],
                             lambda: arrays(weingarten_split(imm))),
        "raw_frame": ([deriv, deriv, "_frame_rows"],
                      lambda: arrays(raw_frame(grid, positions))),
        "form_from_qdiff": (["_hopf_form_rows"],
                            lambda: arrays(form_from_qdiff(imm, phi))),
        "integrate_form": ([cumint, cumint, "_routing_rows"],
                           lambda: arrays(integrate_form(
                               grid, QForm(f[0], f[1]), (1, 2)))),
        "verify_duality": (["_duality_rows"],
                           lambda: arrays(verify_duality(imm, dual, curv))),
        "mean_curvature": ([deriv, deriv, "_frame_rows", deriv, deriv,
                            "_mean_curvature_rows"],
                           lambda: arrays(_mean_curvature(grid, positions))),
    }


@pytest.mark.parametrize("ny,nx", SHAPES[:2])
def test_each_stage_hands_its_tail_to_one_job(pool, monkeypatch, ny, nx):
    calls = stage_calls(np.random.default_rng([ny, nx, 12]), ny, nx)
    for name, (jobs, call) in calls.items():
        monkeypatch.setattr(quaternions, "_SPLIT_SIZE", SPLIT)
        pool.fills.clear()
        with np.errstate(all="raise"):
            split = call()
        # one job of the stage's own fill, after the derivatives or
        # cumulative integrals it starts from
        assert pool.fills == jobs, name
        monkeypatch.setattr(quaternions, "_SPLIT_SIZE", INLINE)
        pool.fills.clear()
        with np.errstate(all="raise"):
            inline = call()
        assert pool.fills == [], name
        assert len(split) == len(inline), name
        for k, (got, want) in enumerate(zip(split, inline)):
            assert got.tobytes() == want.tobytes(), (name, k)


@pytest.mark.parametrize("flaw,message", [(0, "has a real part"),
                                          (1, "is not unit length")])
def test_a_non_unit_normal_in_the_worker_rows_raises_as_inline(
        pool, monkeypatch, flaw, message):
    rng = np.random.default_rng(13)
    N = unit_normals(rng, 8, 9)
    N[6, 4, flaw] += 1e-6  # row 6 lies in the upper half
    imm = SimpleNamespace(grid=GridChart(9, 8, 0.3, 0.2), N=N,
                          fx=planar(rng, 8, 9), fy=planar(rng, 8, 9))
    for size in (SPLIT, INLINE):
        monkeypatch.setattr(quaternions, "_SPLIT_SIZE", size)
        with pytest.raises(ValueError, match="normal field " + message):
            weingarten_split(imm)
    assert pool.fills.count("_weingarten_rows") == 1


# the layer modules whose public functions perfbench's tracer wraps
LAYERS = ("quaternions", "charts", "quaddiff", "duality", "bonnet", "cauchy",
          "generators", "align", "io", "cli")


def test_no_public_function_runs_off_the_calling_thread(pool, monkeypatch):
    """A profiler that wraps every public function keeps one span stack,
    so a fill may call only private kernels: wrap every binding of every
    public layer function, force every kernel to split, and run the
    pipeline from surface to Bonnet mates."""
    modules = [importlib.import_module("quatsurf." + name) for name in LAYERS]
    namespaces = [quatsurf] + modules
    threads = []

    def recording(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            threads.append((fn.__qualname__, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    for mod in modules:
        for attr, fn in list(vars(mod).items()):
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapper = recording(fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            monkeypatch.setattr(ns, key, wrapper)

    monkeypatch.setattr(quaternions, "_SPLIT_SIZE", SPLIT)
    gen = quatsurf.make_surface("enneper", n=33, order=2)
    curv = quatsurf.weingarten_split(gen.imm)
    dual = quatsurf.integrate_dual(gen.imm, gen.q_known)
    quatsurf.verify_duality(gen.imm, dual, curv)
    pair = quatsurf.bonnet_pair(gen.imm, dual, 0.7)
    quatsurf.shape_distortion_check(gen.imm, dual, pair)
    for own in ("_weingarten_rows", "_frame_rows", "_hopf_form_rows",
                "_routing_rows", "_duality_rows", "_mean_curvature_rows"):
        assert own in pool.fills, own
    caller = threading.get_ident()
    assert len(threads) > 100
    assert [name for name, ident in threads if ident != caller] == []
