"""2-D projection of embedding sets and SVG scatter rendering.

Projection is classical (Torgerson) multidimensional scaling of point
coordinates under the Euclidean metric. The double-centered Gram matrix of
the centered points Xc is Xc Xc^T, so the coordinates are the projections
onto the top two eigenvectors of the d x d scatter Xc^T Xc, and no N x N
matrix is built. Deterministic by construction; each coordinate column's
sign is fixed so its largest-magnitude entry is positive. The scatter
encodes class as marker shape and polarity as color.
"""

import csv
import math
from dataclasses import dataclass
from xml.etree import ElementTree as ET

import numpy as np

from .errors import DatasetTooSmallError, DegenerateDistancesError, DimensionMismatchError
from .labels import Polarity

POLARITY_COLORS = {
    Polarity.POSITIVE: "#000000",
    Polarity.NEUTRAL: "#808080",
    Polarity.NEGATIVE: "#FF0000",
}
MARKER_SHAPES = ("circle", "square", "triangle", "diamond", "cross")

PLOT_SIZE = 600.0
LEGEND_WIDTH = 170.0
MARKER_SIZE = 4.0


@dataclass
class Mds2D:
    coords: np.ndarray
    eigenvalues: np.ndarray
    stress: float


STRESS_BLOCK = 128  # rows of the pairwise-distance matrices held at once


def _largest_entry_positive(vec: np.ndarray) -> np.ndarray:
    return -vec if vec[int(np.argmax(np.abs(vec)))] < 0.0 else vec


def _distance_rows(x: np.ndarray, sq: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Euclidean distances from rows start:stop of x to every row, diagonal exactly zero.

    sq holds the squared row norms of x.
    """
    d2 = x[start:stop] @ x.T
    d2 *= -2.0
    d2 += sq[start:stop, None]
    d2 += sq
    rows = np.arange(stop - start)
    d2[rows, rows + start] = 0.0
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2, out=d2)


def _mds_from_points(xc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top two principal axes of centered points, from the d x d scatter matrix.

    The double-centered Gram matrix of Euclidean points is xc @ xc.T, whose
    nonzero eigenvalues are those of xc.T @ xc; an eigenvector v of the
    scatter gives the coordinate column xc @ v. Axes beyond d, and axes with
    a non-positive eigenvalue, are zero columns.
    """
    eigvals, eigvecs = np.linalg.eigh(xc.T @ xc)
    coords = np.zeros((xc.shape[0], 2))
    top = np.zeros(2)
    for k in range(min(2, xc.shape[1])):
        i = xc.shape[1] - 1 - k
        top[k] = eigvals[i]
        if eigvals[i] > 0.0:
            coords[:, k] = _largest_entry_positive(xc @ eigvecs[:, i])
    return coords, top


def _stress(coords: np.ndarray, xc: np.ndarray) -> float:
    """sqrt(sum (d_hat - d)^2 / sum d^2) over all pairs, STRESS_BLOCK rows at a time.

    d are the distances between the rows of xc, d_hat those between the rows
    of coords. Each unordered pair is counted twice, which leaves the ratio
    unchanged.
    """
    n = coords.shape[0]
    sq = (coords * coords).sum(axis=1)
    sq_in = (xc * xc).sum(axis=1)
    residual = total = 0.0
    for start in range(0, n, STRESS_BLOCK):
        stop = min(start + STRESS_BLOCK, n)
        d_in = _distance_rows(xc, sq_in, start, stop)
        total += float(np.vdot(d_in, d_in))
        d_hat = _distance_rows(coords, sq, start, stop)
        d_hat -= d_in
        residual += float(np.vdot(d_hat, d_hat))
        del d_in, d_hat  # free both blocks before the next pair is built
    return math.sqrt(residual / total)


def classical_mds(points) -> Mds2D:
    """Project N points, the rows of an N x d array, to the plane.

    No N x N matrix is built: the projection takes O(N d^2 + d^3) time and a
    d x d scatter, the stress O(N^2 d) time and STRESS_BLOCK x N memory.
    Stress is the normalized residual sqrt(sum (d_hat - d)^2 / sum d^2) over
    unordered pairs of Euclidean distances.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatchError("input must be 2-D")
    n = arr.shape[0]
    if n < 3:
        raise DatasetTooSmallError(f"need at least 3 points, got {n}")
    if np.all(arr == arr[0]):
        raise DegenerateDistancesError("all points coincide")
    xc = arr - arr.mean(axis=0)
    coords, top = _mds_from_points(xc)
    return Mds2D(coords=coords, eigenvalues=top, stress=_stress(coords, xc))


def _marker_element(shape: str, cx: float, cy: float, color: str, css_class: str) -> ET.Element:
    s = MARKER_SIZE
    if shape == "circle":
        el = ET.Element("circle", cx=f"{cx:.2f}", cy=f"{cy:.2f}", r=f"{s:.2f}")
    elif shape == "square":
        el = ET.Element(
            "rect",
            x=f"{cx - s:.2f}",
            y=f"{cy - s:.2f}",
            width=f"{2 * s:.2f}",
            height=f"{2 * s:.2f}",
        )
    elif shape == "triangle":
        pts = [(cx, cy - s), (cx - s, cy + s), (cx + s, cy + s)]
        el = ET.Element("polygon", points=" ".join(f"{x:.2f},{y:.2f}" for x, y in pts))
    elif shape == "diamond":
        pts = [(cx, cy - s), (cx + s, cy), (cx, cy + s), (cx - s, cy)]
        el = ET.Element("polygon", points=" ".join(f"{x:.2f},{y:.2f}" for x, y in pts))
    else:  # cross: two stroked diagonals in one path
        el = ET.Element(
            "path",
            d=(
                f"M {cx - s:.2f} {cy - s:.2f} L {cx + s:.2f} {cy + s:.2f} "
                f"M {cx - s:.2f} {cy + s:.2f} L {cx + s:.2f} {cy - s:.2f}"
            ),
        )
        el.set("stroke-width", "1.5")
    if shape == "cross":
        el.set("stroke", color)
        el.set("fill", "none")
    else:
        el.set("fill", color)
    el.set("class", css_class)
    return el


def marker_shape_for_class(class_id: int) -> str:
    return MARKER_SHAPES[class_id % len(MARKER_SHAPES)]


def emit_svg_scatter(
    mds: Mds2D,
    labels: np.ndarray,
    class_names: list[str],
    out_path: str,
    ids: list[str] | None = None,
    csv_path: str | None = None,
) -> None:
    """Write an SVG 1.1 scatter of the projected points.

    labels holds each point's int sub-class id. One marker element per point
    (class = shape, polarity = color), plus a legend column. Optionally also
    writes a CSV of (id, x, y, class, polarity).
    """
    coords = np.asarray(mds.coords, dtype=np.float64)
    class_ids, ordinals = np.divmod(np.asarray(labels, dtype=np.int64), 3)
    points = list(zip(class_ids.tolist(), map(Polarity.from_ordinal, ordinals.tolist())))
    if coords.shape[0] != len(points):
        raise DimensionMismatchError("one label per projected point required")
    if ids is not None and len(ids) != len(points):
        raise DimensionMismatchError("one id per projected point required")

    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.where(hi - lo > 0.0, hi - lo, 1.0)
    lo = lo - 0.05 * span
    hi = hi + 0.05 * span
    span = hi - lo

    def to_px(pt: np.ndarray) -> tuple[float, float]:
        x = (pt[0] - lo[0]) / span[0] * PLOT_SIZE
        y = (hi[1] - pt[1]) / span[1] * PLOT_SIZE
        return float(x), float(y)

    width = PLOT_SIZE + LEGEND_WIDTH
    root = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        version="1.1",
        width=f"{width:.0f}",
        height=f"{PLOT_SIZE:.0f}",
        viewBox=f"0 0 {width:.0f} {PLOT_SIZE:.0f}",
    )
    ET.SubElement(
        root, "rect", x="0", y="0", width=f"{width:.0f}", height=f"{PLOT_SIZE:.0f}", fill="#FFFFFF"
    )

    points_group = ET.SubElement(root, "g", id="points")
    for i, (class_id, polarity) in enumerate(points):
        cx, cy = to_px(coords[i])
        shape = marker_shape_for_class(class_id)
        color = POLARITY_COLORS[polarity]
        points_group.append(_marker_element(shape, cx, cy, color, "marker"))

    legend = ET.SubElement(root, "g", id="legend")
    lx = PLOT_SIZE + 16.0
    ly = 24.0
    for class_id, name in enumerate(class_names):
        shape = marker_shape_for_class(class_id)
        legend.append(_marker_element(shape, lx, ly, "#000000", "legend-marker"))
        text = ET.SubElement(
            legend, "text", x=f"{lx + 12.0:.2f}", y=f"{ly + 4.0:.2f}"
        )
        text.set("font-size", "12")
        text.text = name
        ly += 18.0
    ly += 8.0
    for polarity in (Polarity.POSITIVE, Polarity.NEUTRAL, Polarity.NEGATIVE):
        legend.append(
            _marker_element("square", lx, ly, POLARITY_COLORS[polarity], "legend-marker")
        )
        text = ET.SubElement(
            legend, "text", x=f"{lx + 12.0:.2f}", y=f"{ly + 4.0:.2f}"
        )
        text.set("font-size", "12")
        text.text = polarity.value
        ly += 18.0

    ET.ElementTree(root).write(out_path, encoding="UTF-8", xml_declaration=True)

    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "x", "y", "class", "polarity"])
            for i, (class_id, polarity) in enumerate(points):
                writer.writerow(
                    [
                        ids[i] if ids is not None else str(i),
                        repr(float(coords[i, 0])),
                        repr(float(coords[i, 1])),
                        class_names[class_id],
                        polarity.value,
                    ]
                )
