"""The whole-grid kernels split their rows over two threads on large
operands: the same bits as one inline call, and the threading contract.

Each test lowers or raises the private threshold quaternions._SPLIT_SIZE
to force one path, and puts a counting worker pool in place of the
lazily started one, so every hand-off to the worker is seen.  Outputs
are compared by their bytes (signed zeros and NaN payloads included).
"""

import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from quatsurf import quaternions
from quatsurf.bonnet import _rotate, _spin_rotation
from quatsurf.charts import deriv_x, deriv_y
from quatsurf.duality import _cumint_x, _cumint_y
from quatsurf.quaternions import _qempty, _split_rows, qdot, qmul, qnormsq

INLINE = 1 << 62
SPLIT = 1


class CountingPool:
    """A one-worker pool that counts the jobs handed to it."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(1)
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
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
