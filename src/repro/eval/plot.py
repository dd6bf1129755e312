"""Turn run artifacts into figures: latency-vs-load knees, backend crossovers.

``python -m repro.eval.plot`` renders the two figure families the
evaluation leans on, from artifacts the sweep/orchestrator layers
already emit — no simulation rerun:

* ``knee`` — offered load vs p99 latency per placement mode, from a
  :meth:`~repro.serve.sweep.SweepResult.to_json` file, a JSON-lines file
  of sweep-point dicts, or an orchestrator SQLite store
  (``repro.eval.orchestrator`` collect output);
* ``crossover`` — payload size vs mean leg latency per restructuring
  backend, from a JSON file of ``{payload_bytes, backend, mean_s}``
  records (the shape ``benchmarks/test_backend_planner.py`` sweeps).

Figures are written to **deterministic output paths** under
``--out-dir``: a self-contained SVG rendered by the in-tree writer
(byte-identical across runs for identical inputs), with no plotting
dependency.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sqlite3
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Series",
    "load_sweep_points",
    "load_crossover_records",
    "render_svg",
    "compose_svg",
    "knee_figure",
    "crossover_figure",
    "main",
]

# Deliberately small, fixed palette: series color assignment follows
# sorted label order, so output bytes never depend on dict ordering.
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 72, 16, 36, 56  # margins: left/right/top/bottom


class Series:
    """One labeled polyline: ``points`` are ascending (x, y) pairs."""

    def __init__(self, label: str, points: Sequence[Tuple[float, float]]):
        self.label = label
        self.points = sorted((float(x), float(y)) for x, y in points)


# -- artifact loading ----------------------------------------------------------


def load_sweep_points(path: str) -> List[Dict[str, object]]:
    """Sweep-point dicts from a JSON sweep result, a JSON-lines file, or
    an orchestrator SQLite store (done rows' result payloads)."""
    if path.endswith((".db", ".sqlite", ".sqlite3")):
        with sqlite3.connect(path) as conn:
            rows = conn.execute(
                "SELECT result_json FROM experiments "
                "WHERE status = 'done' ORDER BY point_key"
            ).fetchall()
        return [json.loads(row[0]) for row in rows if row[0]]
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.strip()
    if not stripped:
        return []
    if path.endswith(".jsonl"):
        return [json.loads(line) for line in stripped.splitlines() if line]
    doc = json.loads(stripped)
    if isinstance(doc, dict) and "points" in doc:
        return list(doc["points"])
    if isinstance(doc, list):
        return doc
    raise ValueError(f"unrecognized sweep artifact shape in {path}")


def load_crossover_records(path: str) -> List[Dict[str, object]]:
    """Backend-crossover records: ``{payload_bytes, backend, mean_s}``."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "records" in doc:
        doc = doc["records"]
    if not isinstance(doc, list):
        raise ValueError(f"unrecognized crossover artifact shape in {path}")
    return doc


# -- deterministic SVG rendering -----------------------------------------------


def _fmt(value: float) -> str:
    """Fixed-precision coordinate/label formatting: determinism anchor."""
    return f"{value:.2f}"


def _ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _chart_lines(
    series: Sequence[Series],
    title: str,
    xlabel: str,
    ylabel: str,
    log_x: bool = False,
    markers: Sequence[Tuple[float, str]] = (),
) -> List[str]:
    """One chart's SVG elements on a ``_W`` x ``_H`` canvas (no ``<svg>``
    wrapper) — shared by the standalone figure writer and the
    multi-panel dashboard compositor.

    ``markers`` are ``(x, label)`` vertical annotation lines (the
    dashboard's alert fire/clear ticks); markers outside the x range are
    skipped.
    """
    series = sorted(series, key=lambda s: s.label)
    xs = [x for s in series for x, _ in s.points]
    ys = [y for s in series for _, y in s.points]
    if not xs:
        raise ValueError("nothing to plot: no points in any series")
    tx = (lambda v: math.log10(v)) if log_x else (lambda v: v)
    x_lo, x_hi = min(tx(x) for x in xs), max(tx(x) for x in xs)
    y_lo, y_hi = 0.0, max(ys) * 1.05 or 1.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (tx(x) - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MT + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out: List[str] = []
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    out.append(
        f'<text x="{_W // 2}" y="20" text-anchor="middle" '
        f'font-size="13">{title}</text>'
    )
    # Axes + gridlines + tick labels.
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        out.append(
            f'<line x1="{_ML}" y1="{_fmt(y)}" x2="{_W - _MR}" '
            f'y2="{_fmt(y)}" stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{_ML - 6}" y="{_fmt(y + 4)}" '
            f'text-anchor="end">{_fmt(t)}</text>'
        )
    for t in _ticks(x_lo, x_hi):
        x = _ML + (t - x_lo) / (x_hi - x_lo) * plot_w
        label = 10.0 ** t if log_x else t
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_MT}" x2="{_fmt(x)}" '
            f'y2="{_MT + plot_h}" stroke="#eeeeee"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_MT + plot_h + 16}" '
            f'text-anchor="middle">{_fmt(label)}</text>'
        )
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    out.append(
        f'<text x="{_W // 2}" y="{_H - 12}" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="16" y="{_MT + plot_h // 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + plot_h // 2})">{ylabel}</text>'
    )
    # Series polylines + markers + legend.
    for index, s in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        coords = " ".join(
            f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in s.points
        )
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        for x, y in s.points:
            out.append(
                f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.5" '
                f'fill="{color}"/>'
            )
        ly = _MT + 14 + index * 14
        out.append(
            f'<line x1="{_ML + 8}" y1="{ly - 4}" x2="{_ML + 28}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(f'<text x="{_ML + 34}" y="{ly}">{s.label}</text>')
    # Vertical annotation markers (alert fires/clears), drawn on top.
    for mx, label in markers:
        if not x_lo <= tx(mx) <= x_hi:
            continue
        x = px(mx)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_MT}" x2="{_fmt(x)}" '
            f'y2="{_MT + plot_h}" stroke="#d62728" '
            f'stroke-dasharray="4,3"/>'
        )
        out.append(
            f'<text x="{_fmt(x + 3)}" y="{_MT + 12}" '
            f'fill="#d62728">{label}</text>'
        )
    return out


def render_svg(
    series: Sequence[Series],
    path: str,
    title: str,
    xlabel: str,
    ylabel: str,
    log_x: bool = False,
    markers: Sequence[Tuple[float, str]] = (),
) -> str:
    """Write a line chart as a standalone SVG; returns ``path``.

    Pure function of its inputs: fixed canvas, fixed palette in sorted
    label order, fixed-precision coordinates — identical inputs yield
    byte-identical files on every platform.
    """
    out: List[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
        f'height="{_H}" viewBox="0 0 {_W} {_H}" '
        f'font-family="monospace" font-size="11">'
    )
    out.extend(_chart_lines(
        series, title, xlabel, ylabel, log_x=log_x, markers=markers
    ))
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out))
        fh.write("\n")
    return path


def compose_svg(
    panels: Sequence[Dict[str, object]],
    path: str,
    cols: int = 2,
) -> str:
    """Write a multi-panel SVG dashboard; returns ``path``.

    Each panel is the kwargs of :func:`_chart_lines` (``series``,
    ``title``, ``xlabel``, ``ylabel``, optional ``log_x``/``markers``)
    rendered onto its own ``_W`` x ``_H`` tile, laid out row-major in a
    ``cols``-wide grid of ``<g transform="translate(...)">`` groups —
    the same deterministic primitives as the single figures, so equal
    inputs compose byte-identically.
    """
    if not panels:
        raise ValueError("nothing to compose: no panels")
    cols = max(1, min(cols, len(panels)))
    rows = (len(panels) + cols - 1) // cols
    total_w, total_h = cols * _W, rows * _H
    out: List[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
        f'height="{total_h}" viewBox="0 0 {total_w} {total_h}" '
        f'font-family="monospace" font-size="11">'
    )
    for index, panel in enumerate(panels):
        x = (index % cols) * _W
        y = (index // cols) * _H
        out.append(f'<g transform="translate({x},{y})">')
        out.extend(_chart_lines(
            panel["series"],  # type: ignore[arg-type]
            str(panel["title"]),
            str(panel["xlabel"]),
            str(panel["ylabel"]),
            log_x=bool(panel.get("log_x", False)),
            markers=panel.get("markers", ()),  # type: ignore[arg-type]
        ))
        out.append("</g>")
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out))
        fh.write("\n")
    return path


# -- figure families -----------------------------------------------------------


def knee_figure(
    points: Sequence[Dict[str, object]],
    out_dir: str,
    stem: str = "knee",
    metric: str = "p99_s",
) -> List[str]:
    """Latency-vs-load knee: one series per mode, ``metric`` in ms."""
    by_mode: Dict[str, List[Tuple[float, float]]] = {}
    for point in points:
        by_mode.setdefault(str(point["mode"]), []).append(
            (float(point["offered_rps"]), float(point[metric]) * 1e3)
        )
    if not by_mode:
        raise ValueError("no sweep points to plot")
    series = [Series(mode, pts) for mode, pts in by_mode.items()]
    os.makedirs(out_dir, exist_ok=True)
    svg = os.path.join(out_dir, f"{stem}.svg")
    return [render_svg(
        series, svg, title=f"latency-vs-load knee ({metric})",
        xlabel="offered load (req/s)", ylabel=f"{metric} (ms)",
    )]


def crossover_figure(
    records: Sequence[Dict[str, object]],
    out_dir: str,
    stem: str = "backend-crossover",
) -> List[str]:
    """Backend-crossover: payload size (log x) vs mean leg latency per
    restructuring backend — the DSA/DRX/XDMA/planner comparison."""
    by_backend: Dict[str, List[Tuple[float, float]]] = {}
    for record in records:
        by_backend.setdefault(str(record["backend"]), []).append(
            (float(record["payload_bytes"]), float(record["mean_s"]) * 1e6)
        )
    if not by_backend:
        raise ValueError("no crossover records to plot")
    series = [Series(backend, pts) for backend, pts in by_backend.items()]
    os.makedirs(out_dir, exist_ok=True)
    svg = os.path.join(out_dir, f"{stem}.svg")
    return [render_svg(
        series, svg, title="restructuring-backend crossover",
        xlabel="payload (bytes, log10 ticks)", ylabel="mean leg (us)",
        log_x=True,
    )]


# -- CLI -----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.plot",
        description="Render figures from sweep/orchestrator artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    knee = sub.add_parser("knee", help="latency-vs-load knee figure")
    knee.add_argument("--input", required=True,
                      help="sweep JSON / JSONL / orchestrator .db")
    knee.add_argument("--out-dir", required=True)
    knee.add_argument("--stem", default="knee")
    knee.add_argument("--metric", default="p99_s",
                      choices=("p50_s", "p95_s", "p99_s", "mean_s"))
    cross = sub.add_parser("crossover", help="backend-crossover figure")
    cross.add_argument("--input", required=True,
                       help="JSON of {payload_bytes, backend, mean_s}")
    cross.add_argument("--out-dir", required=True)
    cross.add_argument("--stem", default="backend-crossover")
    args = parser.parse_args(argv)

    if args.command == "knee":
        written = knee_figure(
            load_sweep_points(args.input), args.out_dir,
            stem=args.stem, metric=args.metric,
        )
    else:
        written = crossover_figure(
            load_crossover_records(args.input), args.out_dir,
            stem=args.stem,
        )
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
