"""Pointwise quaternion algebra and one-form value operations."""

import re

import numpy as np
import pytest

from quatsurf.quaternions import (QForm, anticonformal_defect,
                                  check_unit_imaginary, from_real,
                                  from_vec, qconj, qdot, qinv, qiszero, qmul,
                                  qnorm, qnormsq, quat, split_conformal,
                                  split_tangential, split_value, star,
                                  to_vec, wedge)

RNG = np.random.default_rng(20240817)

ONE = quat(1.0)
I = quat(0.0, 1.0)
J = quat(0.0, 0.0, 1.0)
K = quat(0.0, 0.0, 0.0, 1.0)


def test_basis_multiplication_table():
    assert np.allclose(qmul(I, J), K)
    assert np.allclose(qmul(J, K), I)
    assert np.allclose(qmul(K, I), J)
    assert np.allclose(qmul(J, I), -K)
    for e in (I, J, K):
        assert np.allclose(qmul(e, e), -ONE)
        assert np.allclose(qmul(ONE, e), e)
        assert np.allclose(qmul(e, ONE), e)


def test_random_algebra_identities():
    a = RNG.standard_normal((128, 4))
    b = RNG.standard_normal((128, 4))
    c = RNG.standard_normal((128, 4))
    assert np.max(qnorm(qmul(qmul(a, b), c) - qmul(a, qmul(b, c)))) < 1e-12
    assert np.max(np.abs(qnorm(qmul(a, b)) - qnorm(a) * qnorm(b))) < 1e-12
    assert np.max(qnorm(qconj(qmul(a, b)) - qmul(qconj(b), qconj(a)))) < 1e-12
    # noncommutativity is the generic case
    assert np.max(qnorm(qmul(a, b) - qmul(b, a))) > 1e-3


def test_inverse():
    a = RNG.standard_normal((64, 4))
    assert np.max(qnorm(qmul(a, qinv(a)) - ONE)) < 1e-12
    assert np.max(qnorm(qmul(qinv(a), a) - ONE)) < 1e-12
    with pytest.raises(ZeroDivisionError):
        qinv(np.zeros(4))


def test_inverse_when_norm_squared_underflows():
    # |q|^2 = 5e-400 underflows to 0, but q is not zero
    q = np.array([1e-200, 2e-200, 0.0, 0.0])
    assert qnormsq(q) == 0.0 and not qiszero(q)
    inv = qinv(q)
    assert np.allclose(inv, [2e199, -4e199, 0.0, 0.0], rtol=1e-15, atol=0)
    assert np.allclose(qmul(q, inv), ONE, rtol=0, atol=1e-15)
    # in a batch, the rescaled path leaves the other rows' bits alone
    a = RNG.standard_normal((8, 4))
    batch = a.copy()
    batch[3] = q
    got = qinv(batch)
    assert np.array_equal(np.delete(got, 3, axis=0),
                          np.delete(qinv(a), 3, axis=0))
    assert np.array_equal(got[3], inv)
    batch[5] = 0.0
    with pytest.raises(ZeroDivisionError):
        qinv(batch)


def test_iszero_needs_all_four_components_zero():
    q = np.zeros((3, 4))
    q[1, 2] = 1e-300
    q[2, 0] = -0.0
    assert qiszero(q).tolist() == [True, False, True]


def test_embeddings_and_projections():
    v = RNG.standard_normal((10, 3))
    q = from_vec(v)
    assert q.shape == (10, 4)
    assert np.all(q[..., 0] == 0.0)
    assert np.allclose(to_vec(q), v)
    r = from_real(np.array([2.0, -1.0]))
    assert np.allclose(r[..., 0], [2.0, -1.0])
    assert np.all(r[..., 1:] == 0.0)


def test_qdot_matches_product_real_part():
    a = RNG.standard_normal((32, 4))
    b = RNG.standard_normal((32, 4))
    # <a, b> = Re(a conj(b))
    assert np.max(np.abs(qdot(a, b) - qmul(a, qconj(b))[..., 0])) < 1e-12


@pytest.mark.parametrize("shape", [(3,), (2, 5), (), (4, 3)])
def test_kernels_refuse_a_trailing_axis_other_than_4(shape):
    # qmul used to raise IndexError on (3,) and to drop a fifth component
    bad = np.ones(shape)
    good = np.ones(shape[:-1] + (4,))
    for call in (lambda: qmul(bad, good), lambda: qmul(good, bad),
                 lambda: qnormsq(bad), lambda: qdot(bad, good),
                 lambda: qdot(good, bad)):
        with pytest.raises(ValueError, match=r"shape %s" % re.escape(
                str(shape))):
            call()


def test_star_is_quarter_turn():
    ax = RNG.standard_normal((7, 7, 4))
    ay = RNG.standard_normal((7, 7, 4))
    w = QForm(ax, ay)
    s = star(w)
    assert np.allclose(s.ax, ay)
    assert np.allclose(s.ay, -ax)
    ss = star(s)
    assert np.allclose(ss.ax, -w.ax)
    assert np.allclose(ss.ay, -w.ay)


def _random_unit_normals(shape):
    v = RNG.standard_normal(shape + (3,))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return from_vec(v)


def test_conformal_split_is_a_projector_pair():
    N = _random_unit_normals((9, 9))
    w = QForm(RNG.standard_normal((9, 9, 4)), RNG.standard_normal((9, 9, 4)))
    kc, ka = split_conformal(w, N)
    back = kc + ka
    assert np.max(qnorm(back.ax - w.ax)) < 1e-12
    assert np.max(qnorm(back.ay - w.ay)) < 1e-12
    # defining identities star(kc) = N kc and star(ka) = -N ka
    assert np.max((star(kc) - kc.lmul(N)).norm()) < 1e-12
    assert np.max((star(ka) + ka.lmul(N)).norm()) < 1e-12
    # idempotence
    kc2, _ = split_conformal(kc, N)
    assert np.max((kc2 - kc).norm()) < 1e-12


def test_anticonformal_defect_is_twice_the_conformal_part():
    N = _random_unit_normals((9, 9))
    w = QForm(RNG.standard_normal((9, 9, 4)), RNG.standard_normal((9, 9, 4)))
    kc, ka = split_conformal(w, N)
    want = 2.0 * kc.norm()
    got = anticonformal_defect(w, N).norm()
    assert np.max(np.abs(got - want) / want) < 1e-14
    assert np.max(anticonformal_defect(ka, N).norm()) < 1e-12


def test_tangential_split():
    N = _random_unit_normals((9, 9))
    w = QForm(RNG.standard_normal((9, 9, 4)), RNG.standard_normal((9, 9, 4)))
    tang, perp = split_tangential(w, N)
    back = tang + perp
    assert np.max((back - w).norm()) < 1e-12
    # tangential values anticommute with N, transversal values commute
    anti = qmul(N, tang.ax) + qmul(tang.ax, N)
    comm = qmul(N, perp.ax) - qmul(perp.ax, N)
    assert np.max(qnorm(anti)) < 1e-12
    assert np.max(qnorm(comm)) < 1e-12


def test_check_unit_imaginary_refuses_a_real_part_then_a_length():
    N = np.tile(I, (9, 9, 1))
    real = N.copy()
    real[4, 4, 0] = 1e-6
    with pytest.raises(ValueError, match="^normal field has a real part$"):
        check_unit_imaginary(real)
    with pytest.raises(ValueError, match="^normal field is not unit length$"):
        check_unit_imaginary(1.001 * N)


def test_value_splits_are_complementary():
    N = _random_unit_normals((16,))
    q = RNG.standard_normal((16, 4))
    t, p = split_value(q, N)
    assert np.max(qnorm(t + p - q)) < 1e-12
    assert np.max(qnorm(split_value(p, N)[0])) < 1e-12
    assert np.max(qnorm(split_value(t, N)[1])) < 1e-12


def test_wedge_antisymmetry_under_component_swap():
    a = QForm(RNG.standard_normal((5, 4)), RNG.standard_normal((5, 4)))
    w_aa = wedge(a, a)
    # a ^ a = [ax, ay] commutator, zero only for commuting components
    direct = qmul(a.ax, a.ay) - qmul(a.ay, a.ax)
    assert np.max(qnorm(w_aa - direct)) < 1e-12


def test_qform_arithmetic():
    a = QForm(np.ones((3, 4)), np.zeros((3, 4)))
    b = QForm(np.zeros((3, 4)), np.ones((3, 4)))
    s = a + 2.0 * b - a
    assert np.allclose(s.ax, 0.0)
    assert np.allclose(s.ay, 2.0)
    n = (a + b).norm()
    assert np.allclose(n, np.sqrt(8.0))
    neg = -a
    assert np.allclose(neg.ax, -1.0)
