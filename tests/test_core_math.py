"""Vector primitives, gradient checker, label flattening, seeded streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersphere import (
    DimensionMismatchError,
    NonFiniteError,
    Polarity,
    ZeroNormError,
    unit_normalize,
)
from hiersphere.rng import (
    STREAM_DATA_GEOMETRY,
    STREAM_DATA_NOISE_TEST,
    STREAM_DATA_NOISE_TRAIN,
    make_rng,
)

from _oracles import HierLabel, cosine_sim, grad_check

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vectors(min_size=1, max_size=8):
    return st.lists(finite_floats, min_size=min_size, max_size=max_size).map(np.asarray)


# ---------------------------------------------------------------- normalize


def test_unit_normalize_example():
    out = unit_normalize([3.0, 4.0])
    np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-12)


def test_unit_normalize_preserves_unit_vectors():
    v = np.array([1.0, 0.0, 0.0])
    np.testing.assert_array_equal(unit_normalize(v), v)


def test_unit_normalize_zero_vector_raises():
    with pytest.raises(ZeroNormError):
        unit_normalize([0.0, 0.0, 0.0])


def test_unit_normalize_rejects_nan():
    with pytest.raises(NonFiniteError):
        unit_normalize([1.0, float("nan")])


def test_unit_normalize_rejects_matrix():
    with pytest.raises(DimensionMismatchError):
        unit_normalize(np.ones((2, 2)))


@given(vectors(min_size=2, max_size=10))
def test_unit_normalize_norm_one_and_idempotent(v):
    if np.linalg.norm(v) <= 1e-6:
        return
    u = unit_normalize(v)
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    np.testing.assert_allclose(unit_normalize(u), u, atol=1e-15)


@given(vectors(min_size=2, max_size=6), st.floats(min_value=1e-3, max_value=1e3))
def test_unit_normalize_scale_invariant(v, c):
    if np.linalg.norm(v) <= 1e-3:
        return
    np.testing.assert_allclose(unit_normalize(v), unit_normalize(c * v), atol=1e-12)


# ------------------------------------------------------------------- cosine


def test_cosine_orthogonal():
    assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_parallel_and_antiparallel():
    assert cosine_sim([2.0, 0.0], [5.0, 0.0]) == 1.0
    assert cosine_sim([2.0, 0.0], [-5.0, 0.0]) == -1.0


def test_cosine_known_angle():
    # 45 degrees
    val = cosine_sim([1.0, 0.0], [1.0, 1.0])
    assert abs(val - math.sqrt(0.5)) < 1e-12


def test_cosine_zero_vector_raises():
    with pytest.raises(ZeroNormError):
        cosine_sim([0.0, 0.0], [1.0, 0.0])


def test_cosine_length_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        cosine_sim([1.0, 0.0], [1.0, 0.0, 0.0])


@given(vectors(min_size=2, max_size=8), st.data())
def test_cosine_symmetry_and_bounds(a, data):
    b = data.draw(st.lists(finite_floats, min_size=a.size, max_size=a.size).map(np.asarray))
    if np.linalg.norm(a) <= 1e-6 or np.linalg.norm(b) <= 1e-6:
        return
    s = cosine_sim(a, b)
    assert -1.0 <= s <= 1.0
    assert s == cosine_sim(b, a)


@given(vectors(min_size=2, max_size=6), st.floats(min_value=1e-2, max_value=1e2))
def test_cosine_positive_scale_invariant(a, c):
    if np.linalg.norm(a) <= 1e-3:
        return
    b = np.roll(a, 1) + 0.5
    if np.linalg.norm(b) <= 1e-3:
        return
    assert abs(cosine_sim(a, b) - cosine_sim(c * a, b)) < 1e-12


# --------------------------------------------------------------- grad check


def test_grad_check_quadratic():
    rep = grad_check(lambda x: float(x[0] ** 2), [3.0], [6.0], step=1e-3)
    assert rep.max_rel_error < 1e-6


def test_grad_check_linear_is_exact_to_roundoff():
    w = np.array([2.0, -1.5, 0.25])
    rep = grad_check(lambda x: float(w @ x), [0.3, -0.7, 1.1], w)
    assert rep.max_rel_error < 1e-9


def test_grad_check_flags_wrong_gradient():
    rep = grad_check(lambda x: float(x[0] ** 2), [3.0], [5.0], step=1e-3)
    assert rep.max_rel_error > 1e-2


def test_grad_check_reports_per_coordinate():
    rep = grad_check(lambda x: float((x**2).sum()), [1.0, 2.0], [2.0, 4.0])
    assert rep.per_coordinate_errors.shape == (2,)
    assert rep.max_rel_error == rep.per_coordinate_errors.max()


def test_grad_check_nonfinite_probe_raises():
    def f(x):
        return float("nan") if x[0] > 1.0 else float(x[0])

    with pytest.raises(NonFiniteError):
        grad_check(f, [1.0], [1.0], step=0.5)


def test_grad_check_rejects_bad_step():
    with pytest.raises(ValueError):
        grad_check(lambda x: 0.0, [1.0], [0.0], step=0.0)


def test_grad_check_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        grad_check(lambda x: 0.0, [1.0, 2.0], [0.0])


# ------------------------------------------------------------------- labels


def test_polarity_numeric_values():
    # the package's signed polarity is ordinal - NEUTRAL.ordinal
    assert Polarity.POSITIVE.ordinal - Polarity.NEUTRAL.ordinal == 1
    assert Polarity.NEUTRAL.ordinal - Polarity.NEUTRAL.ordinal == 0
    assert Polarity.NEGATIVE.ordinal - Polarity.NEUTRAL.ordinal == -1


@given(st.integers(min_value=0, max_value=500), st.sampled_from(list(Polarity)))
def test_subclass_index_bijection(class_id, polarity):
    lb = HierLabel(class_id=class_id, polarity=polarity)
    assert 3 * class_id <= lb.subclass_index < 3 * (class_id + 1)
    assert HierLabel.from_subclass_index(lb.subclass_index) == lb


def test_subclass_indices_distinct_within_class():
    idxs = {HierLabel(7, p).subclass_index for p in Polarity}
    assert len(idxs) == 3


def test_negative_class_id_rejected():
    from hiersphere.errors import DataError

    with pytest.raises(DataError):
        HierLabel(class_id=-1, polarity=Polarity.NEUTRAL)


# ---------------------------------------------------------------------- rng


def test_make_rng_deterministic():
    a = make_rng(42, STREAM_DATA_GEOMETRY).standard_normal(8)
    b = make_rng(42, STREAM_DATA_GEOMETRY).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_make_rng_streams_differ():
    a = make_rng(42, STREAM_DATA_NOISE_TRAIN).standard_normal(8)
    b = make_rng(42, STREAM_DATA_NOISE_TEST).standard_normal(8)
    assert not np.array_equal(a, b)


def test_make_rng_seeds_differ():
    a = make_rng(1, STREAM_DATA_GEOMETRY).standard_normal(8)
    b = make_rng(2, STREAM_DATA_GEOMETRY).standard_normal(8)
    assert not np.array_equal(a, b)


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=64))
def test_make_rng_nested_streams_reproducible(seed, stream):
    a = make_rng(seed, stream, 3).integers(0, 1000, size=4)
    b = make_rng(seed, stream, 3).integers(0, 1000, size=4)
    np.testing.assert_array_equal(a, b)
