"""Time-series utilities for the figure benches.

Figures 2/3 (per-packet jitter) and Figure 4 (improvement vs congestion)
are regenerated as ASCII charts plus machine-readable arrays; the chart is
deliberately small -- it exists to show the *shape* (where the cross traffic
bites, which curve is lower/flatter), not publication graphics.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bin_series", "ascii_chart", "first_divergence"]


def first_divergence(a, b, *, eps: float = 0.0) -> dict | None:
    """First bucket where two telemetry series disagree beyond ``eps``.

    Compares bucket means (missing-on-one-side counts as divergence) after
    aligning on bucket width; series whose widths differ -- adaptive
    downsampling merged one further than the other -- are reported as
    diverged at bucket 0.  Returns ``{"bucket", "time_s", "a", "b"}`` or
    None when the series agree everywhere.
    """
    if a.bucket_s != b.bucket_s:
        return {"bucket": 0, "time_s": 0.0, "a": f"bucket_s={a.bucket_s}",
                "b": f"bucket_s={b.bucket_s}"}
    ma, mb = a.means(), b.means()
    for i in range(max(len(ma), len(mb))):
        va = ma[i] if i < len(ma) else None
        vb = mb[i] if i < len(mb) else None
        if va is None and vb is None:
            continue
        if va is None or vb is None or abs(va - vb) > eps:
            return {"bucket": i, "time_s": (i + 0.5) * a.bucket_s,
                    "a": va, "b": vb}
    return None


def bin_series(x: np.ndarray, y: np.ndarray, bins: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Average ``y`` into ``bins`` equal-width buckets of ``x``.

    Returns (bin centers, bin means); empty buckets yield NaN means, which
    the chart renderer skips.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0:
        return np.empty(0), np.empty(0)
    edges = np.linspace(x.min(), x.max(), bins + 1)
    idx = np.clip(np.digitize(x, edges) - 1, 0, bins - 1)
    sums = np.bincount(idx, weights=y, minlength=bins)
    counts = np.bincount(idx, minlength=bins)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, means


def ascii_chart(series: dict[str, tuple[np.ndarray, np.ndarray]], *,
                width: int = 72, height: int = 16,
                title: str = "", ylabel: str = "") -> str:
    """Render one or more (x, y) series as an ASCII chart.

    Each series gets a marker character in registration order
    (``*``, ``o``, ``+``, ``x``).  Axes are annotated with min/max.
    """
    markers = "*o+x#@"
    cleaned = {}
    for name, (x, y) in series.items():
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        keep = np.isfinite(x) & np.isfinite(y)
        if keep.any():
            cleaned[name] = (x[keep], y[keep])
    if not cleaned:
        return f"{title}\n(no data)"

    all_x = np.concatenate([x for x, _ in cleaned.values()])
    all_y = np.concatenate([y for _, y in cleaned.values()])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for k, (name, (x, y)) in enumerate(cleaned.items()):
        m = markers[k % len(markers)]
        cols = np.clip(((x - x_lo) / (x_hi - x_lo) * (width - 1)).astype(int),
                       0, width - 1)
        rows = np.clip(((y - y_lo) / (y_hi - y_lo) * (height - 1)).astype(int),
                       0, height - 1)
        for c, r in zip(cols, rows):
            grid[height - 1 - r][c] = m

    lines = []
    if title:
        lines.append(title)
    legend = "  ".join(f"{markers[k % len(markers)]}={name}"
                       for k, name in enumerate(cleaned))
    lines.append(legend)
    lines.append(f"{y_hi:.4g} {ylabel}")
    lines.extend("|" + "".join(row) for row in grid)
    lines.append(f"{y_lo:.4g} +" + "-" * (width - 1))
    lines.append(f"x: {x_lo:.4g} .. {x_hi:.4g}")
    return "\n".join(lines)
