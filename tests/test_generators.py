"""Catalog surfaces: conformality, curvature values, known differentials."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import quatsurf as qs
from quatsurf.charts import interior, rms, weingarten_split
from quatsurf.generators import _SPANS, CATALOG, _chart, make_surface
from quatsurf.quaternions import qnorm


def test_catalog_contents():
    for name in ("sphere", "cylinder", "catenoid", "enneper", "unduloid",
                 "ellipsoid_of_revolution"):
        assert name in CATALOG
    with pytest.raises(ValueError):
        make_surface("torus_of_revolution")


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_generator_builds_a_conformal_chart(name):
    gen = make_surface(name, n=33)
    assert gen.imm.conformality_residual < 1e-3
    assert gen.imm.grid.nx == 33
    assert gen.imm.grid.ny == 33
    assert gen.name == name
    assert gen.imm.diameter() > 0


def test_make_surface_takes_only_an_integer_node_count():
    # 33.5 used to sample 33 nodes at the spacing of 33.5, so the sphere's
    # chart stopped at x = 0.5815 instead of its extent 0.6
    with pytest.raises(TypeError, match="integer"):
        make_surface("sphere", n=33.5)


def test_mean_curvature_values(surf):
    cases = [("sphere", 1.0), ("cylinder", 0.5), ("catenoid", 0.0),
             ("unduloid", 2.0 / 3.0)]
    for name, want in cases:
        H = interior(weingarten_split(surf(name, 33).imm).H)
        assert abs(float(np.mean(H)) - want) < 1e-4, name


def test_cmc_examples_have_constant_H(surf):
    for name in ("sphere", "cylinder", "unduloid"):
        H = interior(weingarten_split(surf(name, 33).imm).H)
        assert H.std() / abs(H.mean()) < 1e-3, name


def test_ellipsoid_H_varies(surf):
    H = interior(weingarten_split(surf("ellipsoid_of_revolution", 33).imm).H)
    assert H.std() / abs(H.mean()) > 1e-2


def test_known_differentials_integrate(dual_of):
    for name in ("cylinder", "catenoid", "enneper", "unduloid"):
        dual = dual_of(name, 33)
        assert dual.closedness_rel < 5e-3, name


def test_cylinder_rotation_parameter():
    base = make_surface("cylinder", n=33)
    rot = make_surface("cylinder", n=33, rotation=np.pi / 4)
    # rotating the chart coordinates rotates the differential by e^{2ia}
    assert np.allclose(rot.q_known.phi,
                       np.exp(0.5j * np.pi) * base.q_known.phi)
    dual = qs.integrate_dual(rot.imm, rot.q_known)
    assert dual.closedness_rel < 5e-3
    # rotated chart must fail with the unrotated differential
    with pytest.raises(ValueError, match="not isothermic"):
        qs.integrate_dual(rot.imm, base.q_known.phi[0, 0])


@pytest.mark.parametrize("name", ["sphere", "cylinder", "catenoid",
                                  "unduloid", "enneper",
                                  "ellipsoid_of_revolution"])
@settings(max_examples=15, deadline=None, database=None)
@given(rotation=st.floats(0.0, np.pi, exclude_max=True))
def test_rotation_turns_the_known_differential(surf, name, rotation):
    # z = e^{i rot} z~ multiplies the coefficient by e^{2 i rot}; rotated
    # ellipsoid charts need n >= 65 to pass the default chart_tol
    n = 65 if name == "ellipsoid_of_revolution" else 33
    base = surf(name, n)
    rot = make_surface(name, n=n, rotation=rotation)
    turn = np.exp(2j * rotation)
    if name == "enneper":
        # order 2: phi = -2 z = -2 e^{i rot} z~ in the rotated chart
        X, Y = base.imm.grid.mesh()
        want = -2 * np.exp(1j * rotation) * (X + 1j * Y) * turn
        assert np.max(np.abs(rot.q_known.phi - want)) < 1e-12
    else:
        assert np.array_equal(rot.q_known.phi, turn * base.q_known.phi)
    assert qs.integrate_dual(rot.imm, rot.q_known).closedness_rel < 5e-3


def test_catenoid_dual_is_gauss_map(surf, dual_of):
    gen = surf("catenoid", 33)
    dual = dual_of("catenoid", 33)
    got = dual.positions - dual.positions.reshape(-1, 3).mean(axis=0)
    want = gen.dual_known - gen.dual_known.reshape(-1, 3).mean(axis=0)
    assert rms(np.linalg.norm(got - want, axis=-1)) < 1e-3
    # and the Gauss map of a catenoid is the unit normal
    assert np.max(np.abs(qnorm(gen.imm.N) - 1.0)) < 1e-9


def test_sphere_extent_parameter():
    wide = make_surface("sphere", n=33, extent=0.6)
    narrow = make_surface("sphere", n=33, extent=0.1)
    assert narrow.imm.diameter() < wide.imm.diameter()
    assert narrow.imm.conformality_residual < wide.imm.conformality_residual


@pytest.mark.parametrize("name", ["unduloid", "ellipsoid_of_revolution"])
def test_profile_ode_failure_raises(name):
    # a radius whose square underflows makes the dual height's slope
    # z'/radius^2 infinite from the first step, so the RK lattice holds
    # non-finite states (numpy's divide warning is silenced, as it would
    # fail the test before the refusal)
    radius = {"unduloid": "neck", "ellipsoid_of_revolution": "a"}[name]
    with np.errstate(divide="ignore"), \
            pytest.raises(RuntimeError, match="profile integration failed"):
        make_surface(name, n=17, **{radius: 1e-300})


ROTATIONS = (0.0, 0.3, 1.1)


@pytest.mark.parametrize("rotation", ROTATIONS)
def test_unduloid_profile_keeps_its_first_integral(rotation):
    neck, bulge = 0.5, 1.0
    H = 1.0 / (neck + bulge)
    _, _, Y = _chart(65, _SPANS["unduloid"], rotation)
    r, _, psi, _ = qs.generators._delaunay_profile(neck, bulge, Y)
    assert np.max(np.abs(r * np.sin(psi) - H * r * r - neck * bulge * H)) \
        < 1e-12


@pytest.mark.parametrize("rotation", ROTATIONS)
def test_round_ellipsoid_latitude_is_the_gudermannian(rotation):
    # a = c is the unit sphere in Mercator coordinates
    gen = make_surface("ellipsoid_of_revolution", n=65, a=1.0, c=1.0,
                       rotation=rotation)
    f = gen.imm.positions
    theta = np.arctan2(f[..., 2], np.hypot(f[..., 0], f[..., 1]))
    _, _, Y = _chart(65, _SPANS["ellipsoid_of_revolution"], rotation)
    assert np.max(np.abs(theta - 2 * np.arctan(np.tanh(Y / 2)))) < 1e-12


def _dop853_positions(name, n, rotation):
    """The surface's positions from a DOP853 profile (rtol 1e-13), with
    the profile ODEs written out here as the generators document them."""
    _, X, Y = _chart(n, _SPANS[name], rotation)
    if name == "unduloid":
        neck, bulge = 0.5, 1.0
        s0 = [neck, 0.0, np.pi / 2]

        def rhs(_, s):
            r, psi = s[0], s[2]
            return [r * np.cos(psi), r * np.sin(psi),
                    2 * r / (neck + bulge) - np.sin(psi)]
    else:
        a, c = 1.0, 2.0
        s0 = [0.0]

        def rhs(_, s):
            ct, st = np.cos(s[0]), np.sin(s[0])
            return [a * ct / np.hypot(a * st, c * ct)]
    prof = np.empty((len(s0),) + Y.shape)
    for side, end in ((Y >= 0, Y.max()), (Y < 0, Y.min())):
        sol = solve_ivp(rhs, (0.0, end), s0, method="DOP853", rtol=1e-13,
                        atol=1e-14, dense_output=True)
        prof[:, side] = sol.sol(Y[side])
    if name == "unduloid":
        r, z = prof[0], prof[1]
        return np.stack([r * np.cos(X), r * np.sin(X), -z], axis=-1)
    theta = prof[0]
    return np.stack([a * np.cos(theta) * np.cos(X),
                     -a * np.cos(theta) * np.sin(X), c * np.sin(theta)],
                    axis=-1)


# n = 513 for the unduloid only: mates jobs run it there, and the lattice
# does not depend on n, only the Hermite reads do
@pytest.mark.parametrize("name, n, rotation",
                         [(name, 65, rot) for rot in ROTATIONS
                          for name in ("unduloid", "ellipsoid_of_revolution")]
                         + [("unduloid", 513, 0.3)])
def test_profile_matches_a_dop853_reference(name, n, rotation):
    got = make_surface(name, n=n, rotation=rotation).imm.positions
    want = _dop853_positions(name, n, rotation)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def scipy_modules_after(code):
    """The scipy modules loaded once code has run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(qs.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code += ("\nimport sys\n"
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    assert scipy_modules_after("import quatsurf, quatsurf.cli") == "[]"


def test_cauchy_path_and_cli_load_no_scipy(tmp_path):
    # the Cauchy layer end to end, CLI commands, the benchmark's mates job
    # on all five of its surfaces, both profile ODEs, and a Bonnet pair
    # whose umbilic masks are not empty
    root = os.path.dirname(os.path.dirname(os.path.dirname(qs.__file__)))
    code = """
import json, os, sys
sys.path.insert(0, %r)
import quatsurf as qs
from quatsurf import cli
from perfbench.workloads import MATES_SURFACES, mates_job

gen = qs.make_surface("cylinder", n=33, rotation=0.7)
prob = qs.CauchyProblem(gen.imm, gen.q_known, 16)
qs.check_wellposed(prob)
band, report = qs.reconstruct(prob, qs.march_solve(prob, 4))
angles = qs.characteristic_angles(gen.imm, prob.tau, (16, 16))
assert len(qs.stretch_alignment(gen.q_known, (16, 16), angles)) == 4
for command in ("generate", "analyze", "dual", "solve-ivp"):
    assert cli.main([command, "--generator", "cylinder", "--param",
                     "rotation=0.7", "--n", "33", "--outdir", %r]) == 0
for generator, params in MATES_SURFACES:
    mates_job({"generator": generator, "params": params, "n": 33,
               "rotation": 0.3, "eps": 1.0}, None)
qs.make_surface("ellipsoid_of_revolution", n=65, rotation=0.3)
assert cli.main(["bonnet", "--generator", "enneper", "--n", "33",
                 "--umbilic-tol", "5e-2", "--outdir", %r]) == 0
with open(os.path.join(%r, "bonnet_report.json")) as fh:
    results = json.load(fh)["results"]
assert results["distortion_zeros"] and results["umbilic_branch_match"]
""" % (root, str(tmp_path), str(tmp_path), str(tmp_path))
    assert scipy_modules_after(code) == "[]"


def test_unknown_parameter_rejected():
    with pytest.raises(TypeError):
        make_surface("cylinder", n=33, wavelength=2.0)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_one_node_is_refused_as_the_grid_refuses_it(name):
    with pytest.raises(ValueError,
                       match="^grid needs nx, ny >= 5 for the stencils$"):
        make_surface(name, n=1)


@pytest.mark.parametrize("name, params, message", [
    ("enneper", {"order": 0}, "order must be >= 1"),
    ("unduloid", {"neck": 2.0, "bulge": 1.0}, "need 0 < neck <= bulge"),
    # the order is the surface's, not rounded to one
    ("enneper", {"order": 2.5}, "order must be an integer, got 2.5"),
])
def test_out_of_range_shape_parameter_is_refused(name, params, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        make_surface(name, n=9, **params)


def test_an_integral_float_order_is_that_order():
    # --param order=2 passes the float 2.0
    two, two_f = (make_surface("enneper", n=17, order=k) for k in (2, 2.0))
    assert np.array_equal(two.imm.positions, two_f.imm.positions)
    assert np.array_equal(two.q_known.phi, two_f.q_known.phi)


# the ellipsoid's rotated chart misses chart_tol at n=17 (see its docstring)
NESTED = [(name, n, rotation) for name in sorted(CATALOG) for n in (17, 33)
          for rotation in (0.0, 0.4)
          if (name, n, rotation) != ("ellipsoid_of_revolution", 17, 0.4)]


@pytest.mark.parametrize("name, n, rotation", NESTED)
def test_every_other_node_of_the_finer_sample_is_the_coarser_sample(
        name, n, rotation):
    # converge builds each rung as a slice of one sample at the finest rung,
    # and gives the ladder of per-rung samples only while this holds bit for
    # bit
    coarse, fine = (make_surface(name, n=m, rotation=rotation)
                    for m in (n, 2 * n - 1))
    spec = dict(fine.imm.grid.spec(), nx=n, ny=n, hx=2 * fine.imm.grid.hx,
                hy=2 * fine.imm.grid.hy)
    assert coarse.imm.grid.spec() == spec
    assert np.array_equal(coarse.imm.positions,
                          fine.imm.positions[::2, ::2])
    assert np.array_equal(coarse.q_known.phi, fine.q_known.phi[::2, ::2])
    assert (coarse.dual_known is None) == (fine.dual_known is None)
    if coarse.dual_known is not None:
        assert np.array_equal(coarse.dual_known, fine.dual_known[::2, ::2])
