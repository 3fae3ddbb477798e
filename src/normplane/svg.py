"""Standalone SVG renderings of point sets with their computed structures."""

from __future__ import annotations

import numpy as np

from .errors import IoError

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="0 0 {w} {h}">\n'
    '<defs><marker id="arrow" viewBox="0 0 8 8" refX="7" refY="4" '
    'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
    '<path d="M 0 0 L 8 4 L 0 8 z" fill="#888"/></marker></defs>\n'
    '<rect width="{w}" height="{h}" fill="white"/>\n'
)


_SIZE, _MARGIN = 640.0, 40.0  # the square drawing's side, the border around the points


class _Canvas:
    def __init__(self, pts: np.ndarray):
        # an empty set has no bounding box: its canvas draws nothing
        lo = pts.min(axis=0) if len(pts) else np.zeros(2)
        hi = pts.max(axis=0) if len(pts) else lo
        span = max(float((hi - lo).max()), 1e-12)
        self.scale = (_SIZE - 2 * _MARGIN) / span
        self.lo = lo

    def xy(self, p) -> tuple[float, float]:
        x = _MARGIN + (p[0] - self.lo[0]) * self.scale
        y = _SIZE - _MARGIN - (p[1] - self.lo[1]) * self.scale
        return x, y

    def fmt(self, p) -> str:
        x, y = self.xy(p)
        return f"{x:.2f},{y:.2f}"


def emit_svg(S, hull, fng, tree, bipartition=None, path=None) -> str:
    """Render points, hull, FNG arrows, spines, tree edges and the optional
    2-clustering stabbing line; returns the SVG text and writes it to
    ``path`` when given."""
    pts = S.points
    cv = _Canvas(pts)
    out = [_HEADER.format(w=_SIZE, h=_SIZE)]

    if hull is not None and len(hull.vertices) >= 2:
        ring = " ".join(cv.fmt(pts[i]) for i in hull.vertices)
        out.append(
            f'<polygon class="hull" points="{ring}" fill="none" '
            'stroke="#cccccc" stroke-width="1.5"/>\n'
        )

    if tree is not None:
        for p, q in pts[tree.edges]:
            out.append(_segment(cv, "tree-edge", p, q, 'stroke="#222222" stroke-width="3"'))

    if fng is not None:
        for i in np.flatnonzero(fng.fn[fng.fn] != np.arange(len(pts))):
            out.append(_segment(cv, "fng-arrow", pts[i], pts[fng.fn[i]],
                                'stroke="#888888" stroke-width="1" marker-end="url(#arrow)"'))
        for x, xp in fng.spines:
            out.append(_segment(cv, "spine", pts[x], pts[xp],
                                'stroke="#d62728" stroke-width="4" stroke-dasharray="8 4" '
                                'opacity="0.8"'))

    if bipartition is not None and bipartition.witness_line is not None:
        out.append(_stab_line_element(bipartition.witness_line, pts, cv))

    # clusters take palette colours in order of their representatives
    reps = np.zeros(len(pts), dtype=np.intp) if fng is None else fng.cluster_of
    slot = np.unique(reps, return_inverse=True)[1] % len(_PALETTE)
    for i, p in enumerate(pts):
        color = _PALETTE[slot[i]]
        x, y = cv.xy(p)
        out.append(
            f'<circle class="point" cx="{x:.2f}" cy="{y:.2f}" r="4" '
            f'fill="{color}" stroke="black" stroke-width="0.8"/>\n'
        )
        out.append(
            f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="10" '
            f'fill="#555">{i}</text>\n'
        )

    out.append("</svg>\n")
    text = "".join(out)
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoError(f"cannot write SVG to {path!r}: {exc}") from exc
    return text


def _stab_line_element(line, pts: np.ndarray, cv: _Canvas) -> str:
    # chord of the drawing area: offset the data bbox center onto the line,
    # then extend along the line direction well past the bbox diagonal
    center = pts.mean(axis=0)
    foot = center - line.eval(center) * np.array([line.a, line.b])
    direction = np.array([-line.b, line.a])
    reach = float(np.abs(pts - pts.mean(axis=0)).max()) * 4.0 + 1.0
    return _segment(cv, "stab-line", foot - reach * direction, foot + reach * direction,
                    'stroke="#2ca02c" stroke-width="2" stroke-dasharray="2 6"')


def _segment(cv: _Canvas, cls: str, p, q, style: str) -> str:
    """A ``<line>`` of class ``cls`` from p to q (data coordinates) with the
    style attributes ``style``."""
    (x1, y1), (x2, y2) = cv.xy(p), cv.xy(q)
    return (f'<line class="{cls}" x1="{x1:.2f}" y1="{y1:.2f}" '
            f'x2="{x2:.2f}" y2="{y2:.2f}" {style}/>\n')
