"""2-D projection of embedding sets and SVG scatter rendering.

Projection is classical (Torgerson) multidimensional scaling of point
coordinates under the Euclidean metric. The double-centered Gram matrix of
the centered points Xc is Xc Xc^T, so the coordinates are the projections
onto the top two eigenvectors of the d x d scatter Xc^T Xc, and no N x N
matrix is built. Deterministic by construction; each coordinate column's
sign is fixed so its largest-magnitude entry is positive. The scatter
encodes class as marker shape and polarity as color; its SVG is written as
text, one format string per marker.
"""

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DatasetTooSmallError, DegenerateDistancesError
from .errors import DimensionMismatchError
from .labels import Polarity

POLARITY_COLORS = {
    Polarity.POSITIVE: "#000000",
    Polarity.NEUTRAL: "#808080",
    Polarity.NEGATIVE: "#FF0000",
}
PLOT_SIZE = 600.0
LEGEND_WIDTH = 170.0
MARKER_SIZE = 4.0

# each shape's element, its attributes in the order of the ElementTree writer whose
# bytes the SVG keeps (tests/_oracles.py): x, y the centre; l, t, r, b the edges
# MARKER_SIZE away; s that size and w twice it; c the color; k the CSS class
_FILLED = ' fill="{c}" class="{k}" />'
_POLYGON = '<polygon points="%s"' + _FILLED
_MARKERS = {
    "circle": '<circle cx="{x:.2f}" cy="{y:.2f}" r="{s:.2f}"' + _FILLED,
    "square": '<rect x="{l:.2f}" y="{t:.2f}" width="{w:.2f}" height="{w:.2f}"' + _FILLED,
    "triangle": _POLYGON % "{x:.2f},{t:.2f} {l:.2f},{b:.2f} {r:.2f},{b:.2f}",
    "diamond": _POLYGON % "{x:.2f},{t:.2f} {r:.2f},{y:.2f} {x:.2f},{b:.2f} {l:.2f},{y:.2f}",
    "cross": (  # two stroked diagonals in one path
        '<path d="M {l:.2f} {t:.2f} L {r:.2f} {b:.2f} M {l:.2f} {b:.2f} L {r:.2f} {t:.2f}" '
        'stroke-width="1.5" stroke="{c}" fill="none" class="{k}" />'
    ),
}
MARKER_SHAPES = tuple(_MARKERS)

# what XML 1.0 cannot carry: C0 controls but tab, LF and CR; surrogates,
# which a str holds only unpaired and UTF-8 cannot encode; U+FFFE and U+FFFF
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_SURROGATE = re.compile("[\ud800-\udfff]")


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


def marker_shape_for_class(class_id: int) -> str:
    return MARKER_SHAPES[class_id % len(MARKER_SHAPES)]


def _marker(shape: str, x: float, y: float, color: str, css_class: str) -> str:
    s = MARKER_SIZE
    return _MARKERS[shape].format(
        x=x, y=y, l=x - s, t=y - s, r=x + s, b=y + s, s=s, w=2 * s, c=color, k=css_class
    )


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
    writes a CSV of (id, x, y, class, polarity). Before either file is
    opened, a class name XML cannot hold, or an id for the CSV that UTF-8
    cannot encode, is a DataError.
    """
    coords = np.asarray(mds.coords, dtype=np.float64)
    class_ids, ordinals = np.divmod(np.asarray(labels, dtype=np.int64), 3)
    points = list(zip(class_ids.tolist(), map(Polarity.from_ordinal, ordinals.tolist())))
    if coords.shape[0] != len(points):
        raise DimensionMismatchError("one label per projected point required")
    if ids is not None and len(ids) != len(points):
        raise DimensionMismatchError("one id per projected point required")
    unwritable = [("class", name, "XML") for name in filter(_NOT_XML.search, class_names)]
    if csv_path is not None and ids is not None:
        unwritable += [("id", rid, "UTF-8") for rid in filter(_SURROGATE.search, ids)]
    if unwritable:
        raise DataError("{} {!r} holds a character {} cannot encode".format(*unwritable[0]))

    lo, hi = coords.min(axis=0), coords.max(axis=0)
    pad = 0.05 * np.where(hi - lo > 0.0, hi - lo, 1.0)
    lo, hi = lo - pad, hi + pad
    span = hi - lo
    xs = ((coords[:, 0] - lo[0]) / span[0] * PLOT_SIZE).tolist()
    ys = ((hi[1] - coords[:, 1]) / span[1] * PLOT_SIZE).tolist()

    w, h = f"{PLOT_SIZE + LEGEND_WIDTH:.0f}", f"{PLOT_SIZE:.0f}"
    doc = [
        "<?xml version='1.0' encoding='UTF-8'?>\n<svg xmlns=\"http://www.w3.org/2000/svg\" "
        f'version="1.1" width="{w}" height="{h}" viewBox="0 0 {w} {h}"><rect x="0" y="0" '
        f'width="{w}" height="{h}" fill="#FFFFFF" /><g id="points">'
    ]
    for x, y, (class_id, polarity) in zip(xs, ys, points):
        color = POLARITY_COLORS[polarity]
        doc.append(_marker(marker_shape_for_class(class_id), x, y, color, "marker"))
    doc.append('</g><g id="legend">')
    keys = [(marker_shape_for_class(i), "#000000", name) for i, name in enumerate(class_names)]
    keys += [("square", color, polarity.value) for polarity, color in POLARITY_COLORS.items()]
    lx = PLOT_SIZE + 16.0
    for i, (shape, color, name) in enumerate(keys):
        ly = 24.0 + 18.0 * i + (8.0 if i >= len(class_names) else 0.0)  # a gap, then polarities
        doc.append(_marker(shape, lx, ly, color, "legend-marker"))
        doc.append(f'<text x="{lx + 12.0:.2f}" y="{ly + 4.0:.2f}" font-size="12"')
        # ElementTree's text escaping; an empty text closes the element
        text = name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        doc.append(f">{text}</text>" if text else " />")
    doc.append("</g></svg>")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("".join(doc))

    if csv_path is not None:
        rows = zip(
            ids if ids is not None else map(str, range(len(points))),
            map(repr, coords[:, 0].tolist()),
            map(repr, coords[:, 1].tolist()),
            (class_names[class_id] for class_id, _ in points),
            (polarity.value for _, polarity in points),
        )
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "x", "y", "class", "polarity"])
            writer.writerows(rows)
