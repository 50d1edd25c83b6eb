"""The package's public surface: the names ``from quatsurf import *`` gives."""

import quatsurf

PUBLIC = [
    'BonnetPair', 'CATALOG', 'CauchyProblem', 'ChartCurve',
    'ChartImmersion', 'CurvatureData', 'DualResult', 'GeneratorResult',
    'GridChart', 'QForm', 'QuadDifferential', 'SpinField', 'SymbolMap',
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
