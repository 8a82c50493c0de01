"""Planar projection (classical MDS) and SVG output."""

import csv
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiersphere import (
    DatasetTooSmallError,
    DegenerateDistancesError,
    DimensionMismatchError,
    Polarity,
    classical_mds,
    emit_svg_scatter,
)
from hiersphere.rng import make_rng
from hiersphere.viz import (
    MARKER_SHAPES,
    POLARITY_COLORS,
    _distance_rows,
    marker_shape_for_class,
)

from _oracles import HierLabel, ids_of, ref_classical_mds

POS, NEU, NEG = Polarity.POSITIVE, Polarity.NEUTRAL, Polarity.NEGATIVE


def pairwise(coords):
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


# ---------------------------------------------------------------------- mds


def test_equilateral_triangle_recovered():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    mds = classical_mds(pts)
    rec = pairwise(mds.coords)
    iu = np.triu_indices(3, 1)
    assert np.max(np.abs(rec[iu] - 1.0)) < 1e-6
    assert mds.stress < 1e-9
    np.testing.assert_allclose(mds.eigenvalues, [0.5, 0.5], atol=1e-9)


def test_collinear_points_recovered_on_a_line():
    # three points at 0, 1, 3 on a line
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    d = pairwise(pts)
    mds = classical_mds(pts)
    rec = pairwise(mds.coords)
    iu = np.triu_indices(3, 1)
    assert np.max(np.abs(rec[iu] - d[iu]) / d[iu]) < 1e-6
    assert mds.stress < 1e-9
    assert abs(mds.eigenvalues[1]) < 1e-9
    assert np.max(np.abs(mds.coords[:, 1])) < 1e-6


def test_planar_points_reproduced_exactly():
    rng = make_rng(1, 300)
    flat = rng.normal(size=(7, 2))
    lifted = np.hstack([flat, np.zeros((7, 3))])  # rank-2 set in 5 dimensions
    mds = classical_mds(lifted)
    np.testing.assert_allclose(pairwise(mds.coords), pairwise(flat), atol=1e-9)
    assert mds.stress < 1e-9


def test_rigid_transform_gives_identical_coordinates():
    rng = make_rng(2, 301)
    pts = rng.normal(size=(6, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    moved = pts @ q.T + rng.normal(size=3)
    a = classical_mds(pts)
    b = classical_mds(moved)
    np.testing.assert_allclose(a.coords, b.coords, atol=1e-9)


def test_duplicate_points_coincide():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    mds = classical_mds(pts)
    assert np.linalg.norm(mds.coords[1] - mds.coords[2]) < 1e-9


def test_tetrahedron_cannot_be_flat():
    # four mutually equidistant points (unit edges) need three dimensions
    pts = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    mds = classical_mds(pts / np.sqrt(8.0))
    assert mds.stress > 1e-2
    assert mds.eigenvalues[0] > 0.0 and mds.eigenvalues[1] > 0.0


def test_coords_centered_and_eigcolumns_ordered():
    rng = make_rng(3, 302)
    mds = classical_mds(rng.normal(size=(8, 4)))
    np.testing.assert_allclose(mds.coords.mean(axis=0), [0.0, 0.0], atol=1e-9)
    assert mds.eigenvalues[0] >= mds.eigenvalues[1]


def test_mds_deterministic():
    rng = make_rng(4, 303)
    pts = rng.normal(size=(6, 3))
    a, b = classical_mds(pts), classical_mds(pts)
    np.testing.assert_array_equal(a.coords, b.coords)
    assert a.stress == b.stress


def test_all_zero_distances_degenerate():
    with pytest.raises(DegenerateDistancesError):
        classical_mds(np.ones((4, 2)))


def test_too_few_points_rejected():
    with pytest.raises(DatasetTooSmallError):
        classical_mds(np.zeros((2, 2)))


def test_one_dimensional_input_rejected():
    with pytest.raises(DimensionMismatchError):
        classical_mds(np.zeros(5))


def test_marker_shape_cycle():
    assert marker_shape_for_class(0) == "circle"
    assert marker_shape_for_class(4) == "cross"
    assert marker_shape_for_class(5) == MARKER_SHAPES[0]
    assert marker_shape_for_class(12) == MARKER_SHAPES[2]


@st.composite
def point_sets(draw):
    """n x d points of rank <= r, built from m distinct rows repeated in a drawn order."""
    n = draw(st.integers(3, 60))
    d = draw(st.integers(1, 8))
    r = draw(st.integers(1, d))
    m = draw(st.integers(2, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.uniform(-1.0, 1.0, size=(m, r)) @ rng.uniform(-1.0, 1.0, size=(r, d))
    rows = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return distinct[rows]


def assert_columns_match(got, want):
    for k in range(got.shape[1]):
        g, w = got[:, k], want[:, k]
        if abs(w.max() + w.min()) <= 1e-9 and g @ w < 0.0:
            g = -g  # largest entries of both signs tie, so the sign rule may pick either
        np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-9)


@settings(max_examples=150, deadline=None)
@given(point_sets())
@example(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))  # equal top eigenvalues
@example(np.array([[-1.0, 2.0], [0.0, 2.0], [1.0, 2.0], [0.0, 2.0]]))  # sign-rule tie on a line
@example(  # a second eigenvalue, 3.58e-7, below 1e-6 of the first yet well above rounding
    np.array([[-0.24873228, 0.82394068], [-0.26388801, 0.8697414], [0.27789279, -0.86777294]])
)
def test_points_mds_matches_gram_oracle(pts):
    if np.all(pts == pts[0]):
        with pytest.raises(DegenerateDistancesError):
            classical_mds(pts)
        return
    mds = classical_mds(pts)
    coords, eigenvalues, stress = ref_classical_mds(pts)
    xc = pts - pts.mean(axis=0)
    lam = np.concatenate([np.linalg.eigvalsh(xc.T @ xc)[::-1], np.zeros(2)])
    tiny = 1e-6 * lam[0]

    np.testing.assert_allclose(mds.eigenvalues, eigenvalues, rtol=0.0, atol=1e-9 * lam[0])
    if lam[1] - lam[2] <= tiny < lam[1]:
        return  # the second axis is not determined, so neither is the plane
    # Both sides take distances from |a|^2 + |b|^2 - 2 a.b, which leaves up to
    # ~1e-8 at coincident points, so stress agrees to about that.
    assert abs(mds.stress - stress) <= 1e-6
    if lam[1] <= tiny:
        # The second axis may be rounding noise, so its direction is not
        # compared; on each side its column's norm is sqrt(max(eigenvalue, 0)),
        # compared squared to the eigenvalues' tolerance. A zero eigenvalue
        # gives a zero column here.
        for column, eigenvalue in ((mds.coords[:, 1], mds.eigenvalues[1]),
                                   (coords[:, 1], eigenvalues[1])):
            assert abs(column @ column - max(eigenvalue, 0.0)) <= 1e-9 * lam[0]
        if mds.eigenvalues[1] <= 0.0:
            assert not np.any(mds.coords[:, 1])
        assert_columns_match(mds.coords[:, :1], coords[:, :1])
    elif lam[0] - lam[1] <= tiny:
        # a rotation within the plane is free: compare what it preserves
        np.testing.assert_allclose(pairwise(mds.coords), pairwise(coords), rtol=0.0, atol=1e-9)
    else:
        assert_columns_match(mds.coords, coords)


def test_points_mds_memory_is_linear_in_points():
    pts = make_rng(6, 305).normal(size=(3000, 32))
    tracemalloc.start()
    try:
        classical_mds(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 3000 x 3000 float64 matrix alone would take 72 MB
    assert peak < 24e6


def test_distance_rows_have_an_exact_zero_diagonal():
    # at this scale |x|^2 + |x|^2 - 2 x.x rounds above zero on some rows
    x = make_rng(9, 308).normal(size=(40, 3)) * 1e3
    sq = (x * x).sum(axis=1)
    block = _distance_rows(x, sq, 8, 40)
    np.testing.assert_array_equal(block[np.arange(32), np.arange(8, 40)], 0.0)
    np.testing.assert_allclose(block, pairwise(x)[8:40], rtol=1e-9, atol=1e-6)


def test_stress_spans_several_row_blocks():
    # more rows than one stress block, against the oracle's all-pairs sum
    pts = make_rng(8, 307).normal(size=(300, 4))
    mds = classical_mds(pts)
    assert abs(mds.stress - ref_classical_mds(pts)[2]) <= 1e-12


# ---------------------------------------------------------------------- svg


def scatter_fixture():
    rng = make_rng(5, 304)
    labels = []
    for c in range(2):
        for pol in (POS, NEU, NEG):
            labels.extend([HierLabel(c, pol)] * 3)
    pts = rng.normal(size=(len(labels), 4))
    return classical_mds(pts), labels, ["alpha", "beta"]


def markers_of(root, css_class):
    return [el for el in root.iter() if el.get("class") == css_class]


def test_svg_marker_and_legend_counts(tmp_path):
    mds, labels, names = scatter_fixture()
    out = tmp_path / "plot.svg"
    emit_svg_scatter(mds, ids_of(labels), names, str(out))
    root = ET.parse(str(out)).getroot()
    assert root.tag.endswith("svg")
    assert len(markers_of(root, "marker")) == len(labels)
    # one legend marker per class plus one per polarity
    assert len(markers_of(root, "legend-marker")) == len(names) + 3
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    for expected in ["alpha", "beta", "positive", "neutral", "negative"]:
        assert expected in texts


def test_svg_declaration_and_dimensions(tmp_path):
    mds, labels, names = scatter_fixture()
    out = tmp_path / "plot.svg"
    emit_svg_scatter(mds, ids_of(labels), names, str(out))
    head = out.read_bytes()[:60]
    assert head.startswith(b"<?xml")
    root = ET.parse(str(out)).getroot()
    assert root.get("width") == "770"
    assert root.get("height") == "600"


def test_svg_polarity_colors(tmp_path):
    mds, labels, names = scatter_fixture()
    out = tmp_path / "plot.svg"
    emit_svg_scatter(mds, ids_of(labels), names, str(out))
    root = ET.parse(str(out)).getroot()
    markers = markers_of(root, "marker")
    # document order matches label order
    for el, label in zip(markers, labels):
        color = el.get("fill") if el.get("fill") != "none" else el.get("stroke")
        assert color == POLARITY_COLORS[label.polarity]


def test_svg_all_neutral_is_gray(tmp_path):
    rng = make_rng(6, 305)
    labels = [HierLabel(0, NEU)] * 5
    mds = classical_mds(rng.normal(size=(5, 3)))
    out = tmp_path / "plot.svg"
    emit_svg_scatter(mds, ids_of(labels), ["only"], str(out))
    root = ET.parse(str(out)).getroot()
    for el in markers_of(root, "marker"):
        assert el.get("fill") == "#808080"


def test_svg_shapes_follow_class(tmp_path):
    rng = make_rng(7, 306)
    labels = [HierLabel(0, POS), HierLabel(1, POS), HierLabel(4, POS)]
    mds = classical_mds(rng.normal(size=(3, 3)))
    out = tmp_path / "plot.svg"
    emit_svg_scatter(mds, ids_of(labels), ["a", "b", "c", "d", "e"], str(out))
    root = ET.parse(str(out)).getroot()
    tags = [el.tag.split("}")[-1] for el in markers_of(root, "marker")]
    assert tags == ["circle", "rect", "path"]
    cross = markers_of(root, "marker")[2]
    assert cross.get("fill") == "none"
    assert cross.get("stroke") == "#000000"


def test_svg_label_count_mismatch(tmp_path):
    mds, labels, names = scatter_fixture()
    with pytest.raises(DimensionMismatchError):
        emit_svg_scatter(mds, ids_of(labels)[:-1], names, str(tmp_path / "x.svg"))
    with pytest.raises(DimensionMismatchError):
        emit_svg_scatter(mds, ids_of(labels), names, str(tmp_path / "x.svg"), ids=["one"])


def test_csv_round_trips_coordinates(tmp_path):
    mds, labels, names = scatter_fixture()
    out = tmp_path / "plot.svg"
    csv_path = tmp_path / "plot.csv"
    ids = [f"id{i}" for i in range(len(labels))]
    emit_svg_scatter(mds, ids_of(labels), names, str(out), ids=ids, csv_path=str(csv_path))
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "x", "y", "class", "polarity"]
    assert len(rows) == len(labels) + 1
    for i, row in enumerate(rows[1:]):
        assert row[0] == ids[i]
        assert float(row[1]) == mds.coords[i, 0]  # repr() round-trip is exact
        assert float(row[2]) == mds.coords[i, 1]
        assert row[3] == names[labels[i].class_id]
        assert row[4] == labels[i].polarity.value


def test_csv_default_ids_are_indices(tmp_path):
    mds, labels, names = scatter_fixture()
    csv_path = tmp_path / "plot.csv"
    emit_svg_scatter(mds, ids_of(labels), names, str(tmp_path / "p.svg"), csv_path=str(csv_path))
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "0"


def test_svg_deterministic_bytes(tmp_path):
    mds, labels, names = scatter_fixture()
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg_scatter(mds, ids_of(labels), names, str(p1))
    emit_svg_scatter(mds, ids_of(labels), names, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
