"""Principal symbol, well-posedness gating, and the marching solver.

The workhorse configuration is a cylinder chart rotated by pi/4 with
the constant differential i: the chart rows then sit exactly halfway
between the stretch directions (45 degree margin), and the identity
spin field solves the march, so every error is pure solver error.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import quatsurf as qs
from quatsurf import cauchy, qnorm
from quatsurf.bonnet import SpinField
from quatsurf.cauchy import (_COND_LIMIT, CauchyProblem, _certified,
                             _left_matrix, _right_matrix, _system,
                             characteristic_angles, check_wellposed,
                             march_solve, reconstruct, stretch_alignment,
                             symbol)
from quatsurf.charts import deriv_x, weingarten_split
from quatsurf.quaternions import qconj, qinv, qmul, to_vec, wedge

ROT = np.pi / 4


@pytest.fixture(scope="module")
def prob(surf):
    g = surf("cylinder", 33, rotation=ROT)
    return CauchyProblem(g.imm, 1j, row=16)


def test_problem_setup(prob):
    assert prob.row == 16
    assert prob.margin_ok
    assert prob.margin_deg == pytest.approx(45.0, abs=1e-6)
    assert prob.q.phi[0, 0] == 1j


def test_symbol_invertible_off_characteristic(prob):
    s = symbol(prob.imm, prob.tau, (16, 16), (0.0, 1.0))
    assert s.matrix.shape == (4, 4)
    assert abs(s.normalized_det()) > 0.01
    # normalized det is scale-invariant in the covector
    s2 = symbol(prob.imm, prob.tau, (16, 16), (0.0, 3.0))
    assert s2.normalized_det() == pytest.approx(s.normalized_det(),
                                                rel=1e-10)


def test_symbol_degenerates_on_characteristic(prob):
    t = np.pi / 4
    on = symbol(prob.imm, prob.tau, (16, 16), (np.cos(t), np.sin(t)))
    off = symbol(prob.imm, prob.tau, (16, 16), (0.0, 1.0))
    assert abs(on.normalized_det()) < 1e-3 * abs(off.normalized_det())


def test_det_profile_and_characteristic_angles(prob):
    found = characteristic_angles(prob.imm, prob.tau, (16, 16))
    assert len(found) == 4
    want = np.deg2rad([45.0, 135.0, 225.0, 315.0])
    assert np.abs(np.degrees(np.array(found) - want)).max() < 0.01


def test_characteristics_align_with_stretch(prob):
    found = characteristic_angles(prob.imm, prob.tau, (16, 16))
    errs = stretch_alignment(prob.q, (16, 16), found)
    assert max(errs) < 0.01


def test_check_wellposed_report(prob):
    rep = check_wellposed(prob)
    assert rep["row"] == 16
    assert rep["min_normalized_det"] >= 0.01
    assert rep["angular_margin_deg"] == pytest.approx(45.0, abs=1e-6)


def test_check_wellposed_is_the_row_of_symbols(prob):
    rep = check_wellposed(prob)
    dets = [abs(symbol(prob.imm, prob.tau, (16, i), (0.0, 1.0))
                .normalized_det()) for i in range(prob.imm.grid.nx)]
    want = min(dets)
    assert abs(rep["min_normalized_det"] - want) <= 4 * np.spacing(want)


def test_characteristic_angles_refuse_a_zero_of_q(surf):
    # q = -2z vanishes at the centre node: every covector is
    # characteristic there and the pencil is singular
    g = surf("enneper", 33, order=2)
    tau = qs.form_from_qdiff(g.imm, g.q_known)
    with pytest.raises(ValueError, match=r"\(j=16, i=16\)"):
        characteristic_angles(g.imm, tau, (16, 16))
    # next to it one root lies a rounding error below angle 0
    found = characteristic_angles(g.imm, tau, (16, 17))
    assert len(found) == 4
    assert all(0.0 <= t < 2 * np.pi for t in found)


def test_characteristic_curve_rejected(surf):
    g = surf("cylinder", 33, rotation=ROT)
    # real constant differential: stretch directions land on the grid
    # axes, so every grid row is characteristic
    bad = CauchyProblem(g.imm, 1.0, row=16)
    assert not bad.margin_ok
    with pytest.raises(ValueError, match="characteristic"):
        check_wellposed(bad)
    with pytest.raises(ValueError, match="characteristic"):
        march_solve(bad, steps=4)


def test_problem_rejects_a_row_off_the_grid(prob):
    # a negative row would otherwise wrap to the top of the grid
    for row in (-1, prob.imm.grid.ny):
        with pytest.raises(ValueError, match="row index out of range"):
            CauchyProblem(prob.imm, 1j, row)


@pytest.mark.parametrize("row", [16.5, np.float64(16.0), True, "16"])
def test_problem_takes_only_an_integer_row(prob, row):
    # int() used to march 16.5 from row 16 and True from row 1
    with pytest.raises(TypeError, match="integer"):
        CauchyProblem(prob.imm, 1j, row)


@pytest.mark.parametrize("row", [16, np.int64(16), np.int32(16)])
def test_problem_takes_any_integer_type_as_row(prob, row):
    got = CauchyProblem(prob.imm, 1j, row).row
    assert got == 16 and type(got) is int


@pytest.mark.parametrize("steps", [2.7, np.float64(2.0), True, "2"])
def test_march_takes_only_integer_steps(prob, steps):
    with pytest.raises(TypeError, match="integer"):
        march_solve(prob, steps)


def test_march_refuses_negative_steps(prob):
    # a negative count used to march nothing and return the initial row
    with pytest.raises(ValueError, match="steps must be >= 0"):
        march_solve(prob, -3)


@pytest.mark.parametrize("steps", [0, np.int64(2)])
def test_march_takes_any_integer_type_as_steps(prob, steps):
    assert march_solve(prob, steps).band_rows() == (16 - steps, 16 + steps)


def test_march_holds_identity_solution(prob):
    spin = march_solve(prob, steps=8)
    lo, hi = spin.band_rows()
    assert (lo, hi) == (8, 24)
    assert np.isnan(spin.lam[:lo]).all()
    assert np.isnan(spin.lam[hi + 1:]).all()
    band = spin.lam[lo:hi + 1]
    ident = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.abs(band - ident).max() < 2e-4


def test_march_keeps_q_compatibility_off_the_identity(prob):
    # a varying initial spin gives the q row (the fourth row of each
    # system) work to do: with its sign flipped q_residual_normal_rel
    # reads about 0.2
    th = 0.1 * np.sin(np.linspace(0.0, 2 * np.pi, prob.imm.grid.nx))
    mu = np.zeros((prob.imm.grid.nx, 4))
    mu[:, 0] = np.cos(th)
    mu[:, 1] = np.sin(th)
    _, rep = reconstruct(prob, march_solve(prob, steps=8, lam0=mu))
    assert rep["closedness_rel"] < 5e-3
    assert rep["q_residual_normal_rel"] < 5e-3


def test_march_argument_validation(prob):
    with pytest.raises(ValueError, match=r"\(nx, 4\)"):
        march_solve(prob, steps=2, lam0=np.ones((7, 4)))
    zero0 = np.zeros((prob.imm.grid.nx, 4))
    with pytest.raises(ValueError, match="vanishes"):
        march_solve(prob, steps=2, lam0=zero0)


def test_march_rejects_a_non_finite_initial_spin_at_its_node(prob):
    lam0 = np.zeros((prob.imm.grid.nx, 4))
    lam0[:, 0] = 1.0
    lam0[5, 2] = np.nan
    with pytest.raises(ValueError, match=r"non-finite at node \(j=16, i=5\)"):
        march_solve(prob, steps=2, lam0=lam0)


def test_march_treats_a_tiny_nonzero_initial_spin_as_nonvanishing(prob):
    # |lam|^2 underflows to 0 at this node, yet lam does not vanish there,
    # as SpinField also holds; the march then stops on conditioning
    lam0 = np.zeros((prob.imm.grid.nx, 4))
    lam0[:, 0] = 1.0
    lam0[5] = [1e-200, 1e-200, 0.0, 0.0]
    with pytest.raises(RuntimeError, match="condition"):
        march_solve(prob, steps=2, lam0=lam0)


def test_march_bits_do_not_depend_on_the_condition_bound(prob, monkeypatch):
    # the bound only decides whether the exact condition number is taken;
    # the cylinder's rows are certified, so the march takes none, and with
    # the bound forced to fail every row's SVD runs and lam keeps its bits
    svds = []
    exact_cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond",
                        lambda M: svds.append(len(M)) or exact_cond(M))
    fast = march_solve(prob, steps=8).lam
    assert svds == []
    monkeypatch.setattr(cauchy, "_certified", lambda M: False)
    exact = march_solve(prob, steps=8).lam
    # 8 steps, 2 directions, predictor and corrector; the step-0
    # predictor is the same for both directions and is solved once
    assert svds == [prob.imm.grid.nx] * 31
    assert exact.tobytes() == fast.tobytes()


def test_cylinder_rows_are_certified_without_an_inverse(prob, monkeypatch):
    # the scale-free determinant bound certifies every cylinder row, so
    # no SVD is taken; the march takes no inverse anywhere
    calls = []
    for name in ("inv", "cond"):
        exact = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda M, exact=exact, name=name:
                            calls.append(name) or exact(M))
    march_solve(prob, steps=8)
    assert calls == []


def test_rows_the_determinant_leaves_open_take_the_exact_condition(
        surf, monkeypatch):
    # on the rotated sphere one stacked solve of two rows is left open by
    # the determinant bound: its two rows take the SVD, both clear the
    # limit, and lam keeps the bits of a march that takes every SVD
    g = surf("sphere", 33, rotation=0.2)
    prob = CauchyProblem(g.imm, g.q_known, row=16)
    svds = []
    exact_cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond",
                        lambda M: svds.append(len(M)) or exact_cond(M))
    fast = march_solve(prob, steps=8).lam
    assert svds == [prob.imm.grid.nx] * 2
    monkeypatch.setattr(cauchy, "_certified", lambda M: False)
    assert march_solve(prob, steps=8).lam.tobytes() == fast.tobytes()


def march_sequential_explicit(prob, steps, lam0=None):
    """The march written out one direction at a time, upward first, one
    4x4 solve per row, with the exact condition number of every row: the
    results and aborts march_solve must reproduce bit for bit."""
    check_wellposed(prob)
    imm, tau, grid = prob.imm, prob.tau, prob.imm.grid
    omega = weingarten_split(imm).omega
    wz = (wedge(omega, tau) - wedge(tau, omega))[..., 0]

    def solve_row(lam, j):
        lam_x = deriv_x(lam[None], grid.hx)[0]
        lc = qconj(lam)
        lai = qinv(lam)
        Nv = to_vec(imm.N[j])
        M = _system(qmul(lc, imm.fx[j]), qmul(lai, tau.ax[j]), Nv)
        b = np.zeros((lam.shape[0], 4))
        b[:, 0:3] = qmul(lc, qmul(imm.fy[j], lam_x))[:, 1:4]
        cross = qmul(lam_x, qmul(lai, tau.ay[j]))
        b[:, 3] = wz[j] / 4.0 - np.einsum("nk,nk->n", Nv, cross[:, 1:4])
        conds = np.linalg.cond(M)
        worst = int(np.argmax(conds))
        if conds[worst] > _COND_LIMIT:
            raise RuntimeError(
                "march aborted: system condition %.3e exceeds %.1e at node "
                "(j=%d, i=%d); the march is approaching a characteristic "
                "direction" % (float(conds[worst]), _COND_LIMIT, j, worst))
        return np.linalg.solve(M, b[..., None])[..., 0]

    lam = np.full((grid.ny, grid.nx, 4), np.nan)
    if lam0 is None:
        lam[prob.row] = (1.0, 0.0, 0.0, 0.0)
    else:
        lam[prob.row] = lam0
        SpinField(grid, lam, row_span=(prob.row, prob.row))
    ref_mag = float(qnorm(lam[prob.row]).min())
    j_lo = j_hi = prob.row
    for direction in (+1, -1):
        h = direction * grid.hy
        j = prob.row
        for _ in range(int(steps)):
            jn = j + direction
            if jn < 0 or jn >= grid.ny:
                break
            k1 = solve_row(lam[j], j)
            k2 = solve_row(lam[j] + h * k1, jn)
            lam[jn] = lam[j] + 0.5 * h * (k1 + k2)
            low = float(qnorm(lam[jn]).min())
            if low < 1e-6 * ref_mag:
                raise RuntimeError(
                    "march aborted: |lambda| collapsed to %.3e of its "
                    "initial size at row j=%d" % (low / ref_mag, jn))
            j = jn
            j_lo = min(j_lo, j)
            j_hi = max(j_hi, j)
    return SpinField(grid, lam, row_span=(j_lo, j_hi))


def _outcome(march, prob, steps, lam0):
    try:
        spin = march(prob, steps, lam0=lam0)
    except Exception as err:
        return type(err), str(err)
    return spin.lam.tobytes(), spin.row_span


@settings(max_examples=40, deadline=None, database=None)
@given(name=st.sampled_from(["sphere", "cylinder"]),
       n=st.sampled_from([17, 33]), rotation=st.floats(0.1, 1.2),
       row_frac=st.floats(0.0, 1.0), steps=st.integers(0, 14),
       seed=st.integers(0, 2 ** 32 - 1), spread=st.floats(0.0, 1.0))
def test_march_matches_the_sequential_explicit_march(name, n, rotation,
                                                     row_frac, steps, seed,
                                                     spread):
    # both directions in lockstep give the bits and the abort of the
    # march one direction at a time, upward first
    g = qs.make_surface(name, n=n, rotation=rotation)
    prob = CauchyProblem(g.imm, g.q_known, row=round(row_frac * (n - 1)))
    try:
        check_wellposed(prob)
    except ValueError:
        assume(False)
    lam0 = (np.array([1.0, 0.0, 0.0, 0.0])
            + spread * np.random.default_rng(seed).standard_normal((n, 4)))
    assume(np.all(np.any(lam0 != 0.0, axis=-1)))
    want = _outcome(march_sequential_explicit, prob, steps, lam0)
    assert _outcome(march_solve, prob, steps, lam0) == want


def test_sphere_march_abort_names_the_worst_node(surf):
    # the sphere with a rotated chart: the march reaches a row whose
    # bound is not certified, so its exact condition number is reported
    g = surf("sphere", 33, rotation=0.2)
    prob = CauchyProblem(g.imm, g.q_known, row=16)
    with pytest.raises(RuntimeError) as info:
        march_solve(prob, steps=12)
    assert str(info.value) == (
        "march aborted: system condition 8.320e+08 exceeds 1.0e+08 at node "
        "(j=24, i=0); the march is approaching a characteristic direction")


@pytest.mark.parametrize("rotation, row, message", [
    # the downward side fails at j=15 first, but the upward side's
    # abort at j=29 is the one a march of the upward side first meets
    (0.15, 22, "system condition 5.967e+08 exceeds 1.0e+08 at node "
               "(j=29, i=32)"),
    # only the downward side fails, after the upward side has finished
    (0.2, 24, "system condition 3.789e+08 exceeds 1.0e+08 at node "
              "(j=16, i=32)"),
])
def test_sphere_march_reports_the_upward_side_abort_first(surf, rotation,
                                                          row, message):
    g = surf("sphere", 33, rotation=rotation)
    prob = CauchyProblem(g.imm, g.q_known, row=row)
    with pytest.raises(RuntimeError) as info:
        march_solve(prob, steps=14)
    assert str(info.value) == (
        "march aborted: " + message + "; the march is approaching a "
        "characteristic direction")


@pytest.mark.parametrize("rotation, row, steps, drift, message", [
    # the downward side collapses at j=20 first; the upward side's
    # collapse at j=25 is the one a march of the upward side first meets
    (0.15, 22, 14, 9e-3, "1.000e-07 of its initial size at row j=25"),
    # only the downward side collapses
    (0.2, 24, 4, 0.1, "1.006e-07 of its initial size at row j=20"),
])
def test_march_collapse_reports_the_upward_side_first(surf, monkeypatch,
                                                      rotation, row, steps,
                                                      drift, message):
    # no input met so far collapses before its systems lose their
    # condition, so the norm the collapse check reads is shrunk 1e7-fold
    # wherever lam has drifted from 1 by more than drift
    def shrunk(q):
        moved = np.abs(np.asarray(q) - (1.0, 0.0, 0.0, 0.0)).max(axis=-1)
        return qnorm(q) * np.where(moved > drift, 1e-7, 1.0)

    monkeypatch.setattr(cauchy, "qnorm", shrunk)
    g = surf("sphere", 33, rotation=rotation)
    prob = CauchyProblem(g.imm, g.q_known, row=row)
    with pytest.raises(RuntimeError) as info:
        march_solve(prob, steps=steps)
    assert str(info.value) == "march aborted: |lambda| collapsed to " + message


@settings(max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       log_conds=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
       log_scale=st.floats(-100.0, 100.0))
def test_condition_bound_certifies_only_rows_below_the_limit(seed, log_conds,
                                                             log_scale):
    # 4x4 stacks U diag(s) V^T with set singular values: cond from 1 to
    # 1e10 per matrix, at scales from 1e-100 to 1e100
    rng = np.random.default_rng(seed)
    stack = []
    for log_cond in log_conds:
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        middle = np.sort(rng.uniform(0.0, log_cond, 2))
        s = 10.0 ** (log_scale - np.concatenate(([0.0], middle, [log_cond])))
        stack.append((u * s) @ v.T)
    M = np.array(stack)
    if _certified(M):
        assert np.linalg.cond(M).max() <= _COND_LIMIT
    # and certified exactly when every |det| of the stack scaled to
    # |M|_F = 1 reaches 2 / _COND_LIMIT, away from rounding at the edge
    margin = (np.linalg.slogdet(M)[1]
              - 4 * np.log(np.linalg.norm(M, axis=(1, 2)))
              - np.log(2 / _COND_LIMIT))
    if np.all(np.abs(margin) > 1e-9):
        assert _certified(M) == bool(np.all(margin > 0))


def test_condition_bound_refuses_singular_and_non_finite_stacks():
    M = np.tile(np.eye(4), (3, 1, 1))
    assert _certified(M)
    M[1, 2] = 0.0
    assert not _certified(M)
    M[1] = np.eye(4)
    M[2, 0, 0] = np.nan
    assert not _certified(M)
    M[2, 0, 0] = np.inf
    assert not _certified(M)


def test_reconstruct_recovers_background(prob):
    spin = march_solve(prob, steps=8)
    new, rep = reconstruct(prob, spin)
    assert rep["rows"] == (8, 24)
    assert new.grid.ny == 17
    assert new.grid.y0 == pytest.approx(prob.imm.grid.y0
                                        + 8 * prob.imm.grid.hy)
    assert rep["curve_match_rel"] < 1e-4
    assert rep["closedness_rel"] < 5e-3
    assert rep["q_residual_tangential_rel"] < 0.05
    assert rep["q_residual_normal_rel"] < 0.05
    # identity spin: the band must reproduce the background positions
    err = np.abs(new.positions - prob.imm.positions[8:25]).max()
    assert err < 1e-4


def test_reconstruct_needs_five_rows(prob):
    thin = march_solve(prob, steps=1)
    with pytest.raises(ValueError, match="too thin"):
        reconstruct(prob, thin)


def test_march_from_constant_rotation_row(surf):
    g = surf("cylinder", 33, rotation=ROT)
    th = 0.3
    mu = np.zeros((33, 4))
    mu[:, 0] = np.cos(th)
    mu[:, 3] = np.sin(th)
    # marching initial spin mu instead of 1 extends the curve data
    # conj(mu) df mu off the row into a conformal immersion
    prob = CauchyProblem(g.imm, 1j, row=16)
    spin = march_solve(prob, 8, lam0=mu)
    new, rep = reconstruct(prob, spin)
    lo, hi = spin.band_rows()
    # a constant unit spin solves the march, so the extension is the
    # rigidly rotated band
    dev = np.abs(spin.lam[lo:hi + 1] - mu[0]).max()
    assert dev < 2e-4
    d = qs.congruence_distance(new.positions, g.imm.positions[lo:hi + 1])
    assert d < 1e-4
    assert rep["closedness_rel"] < 5e-3


def test_multiplication_matrices_apply_the_product():
    rng = np.random.default_rng(7)
    for shape in ((), (9,), (3, 5)):
        q = rng.standard_normal(shape + (4,))
        a = rng.standard_normal(shape + (4,))
        L, R = _left_matrix(q), _right_matrix(q)
        assert L.shape == R.shape == shape + (4, 4)
        scale = qnorm(q) * qnorm(a)
        left = np.einsum("...rk,...k->...r", L, a)
        right = np.einsum("...rk,...k->...r", R, a)
        assert np.all(qnorm(left - qmul(q, a)) <= 1e-14 * scale)
        assert np.all(qnorm(right - qmul(a, q)) <= 1e-14 * scale)


def test_multiplication_matrices_hold_signed_components():
    # each entry is exactly one signed component of q: the tables as
    # they read in the algebra
    q = np.random.default_rng(8).standard_normal((6, 4))
    w, x, y, z = (q[:, k] for k in range(4))
    left = np.stack([np.stack(r, -1) for r in (
        (w, -x, -y, -z), (x, w, -z, y), (y, z, w, -x), (z, -y, x, w))], -2)
    right = np.stack([np.stack(r, -1) for r in (
        (w, -x, -y, -z), (x, w, z, -y), (y, -z, w, x), (z, y, -x, w))], -2)
    assert np.array_equal(_left_matrix(q), left)
    assert np.array_equal(_right_matrix(q), right)
