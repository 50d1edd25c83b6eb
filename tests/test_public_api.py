"""The package's public surface: the names ``from quatsurf import *`` gives."""

import inspect

import quatsurf

PUBLIC = [
    'BonnetPair', 'CATALOG', 'CauchyProblem', 'ChartImmersion',
    'CurvatureData', 'DualResult', 'GeneratorResult', 'GridChart',
    'QForm', 'QuadDifferential', 'SpinField', 'SymbolMap',
    'align', 'anticonformal_defect', 'anticonformality_residual',
    'bonnet', 'bonnet_pair', 'build_immersion',
    'canonical_json', 'catenoid', 'cauchy', 'characteristic_angles',
    'charts', 'check_holomorphic', 'check_wellposed',
    'classify_christoffel', 'cmc_eps_uniqueness', 'config_hash',
    'congruence_distance', 'cr_residual', 'cylinder', 'deriv_x',
    'deriv_y', 'duality', 'ellipsoid_of_revolution', 'enneper',
    'ensure_outdir', 'field_stats', 'floored_relative',
    'form_from_qdiff', 'form_rms', 'from_real', 'from_vec',
    'generators', 'integrate_dual', 'integrate_form', 'interior', 'io',
    'make_surface', 'march_solve', 'noncharacteristic', 'qconj',
    'qdiff_from_form', 'qdot', 'qinv', 'qiszero', 'qmul', 'qnorm',
    'qnormsq', 'quaddiff', 'quat', 'quaternions', 'raw_frame',
    'read_positions_csv', 'read_qdiff_csv', 'reconstruct',
    'relate_hopf', 'rigid_align', 'rms', 'shape_distortion_check',
    'similarity_distance', 'sphere', 'spin_form', 'spin_integrate',
    'split_conformal', 'split_tangential', 'split_value', 'star',
    'stretch_alignment', 'stretch_directions', 'symbol',
    'tangentiality_residual', 'to_vec', 'umbilic_branch_correspondence',
    'umbilics', 'unduloid', 'verify_duality', 'wedge',
    'weingarten_residual', 'weingarten_split', 'write_field_csv',
    'write_obj', 'write_report', 'zero_locus',
]


def test_public_names_are_pinned():
    # a name added to or dropped from the package namespace shows here
    assert sorted(quatsurf.__all__) == PUBLIC


# The three tolerance defaults, each a constant of the module that applies
# its check, keyed by the RunConfig field that carries it on the CLI.
TOLERANCE_OWNERS = {
    "chart_tol": (quatsurf.charts, "_CHART_TOL"),
    "umbilic_tol": (quatsurf.charts, "_UMBILIC_TOL"),
    "closed_tol": (quatsurf.duality, "_CLOSED_TOL"),
}
# public functions whose plain ``tol`` keyword is one of the three
TOL_KEYWORDS = {
    quatsurf.umbilics: "umbilic_tol",
    quatsurf.umbilic_branch_correspondence: "umbilic_tol",
}


def _public_callables():
    """Every public function and public method defined in the package."""
    for module in vars(quatsurf).values():
        if not inspect.ismodule(module) \
                or not module.__name__.startswith("quatsurf."):
            continue
        for name, obj in vars(module).items():
            if name.startswith("_") or \
                    getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                yield from (f for n, f in vars(obj).items()
                            if inspect.isfunction(f) and not n.startswith("_"))


def test_every_tolerance_default_is_its_owning_constant():
    from quatsurf.cli import RunConfig
    fields = RunConfig.__dataclass_fields__
    seen = {name: [] for name in TOLERANCE_OWNERS}
    for fn in _public_callables():
        params = inspect.signature(fn).parameters
        for name in TOLERANCE_OWNERS:
            if name in params:
                seen[name].append((fn, name))
        if fn in TOL_KEYWORDS:
            seen[TOL_KEYWORDS[fn]].append((fn, "tol"))
    # 17 keyword defaults; with RunConfig's fields, 20 reads of 3 constants
    assert {name: len(uses) for name, uses in seen.items()} == {
        "chart_tol": 11, "umbilic_tol": 2, "closed_tol": 4}
    for name, (module, constant) in TOLERANCE_OWNERS.items():
        value = getattr(module, constant)
        for fn, keyword in seen[name]:
            where = (fn.__qualname__, keyword)
            assert inspect.signature(fn).parameters[keyword].default \
                is value, where
            # the signature names the constant: a literal equal to it in
            # the owning module would compile to the same object
            header = inspect.getsource(fn).split('"""', 1)[0]
            assert "%s=%s" % (keyword, constant) in header, where
        assert fields[name].default is value, name
