"""Stamped benchmark artifacts and self-contained HTML reports.

Two related jobs live here:

* **Stamped artifacts** — :func:`stamp_bench` adds ``schema_version``
  plus host metadata (python version, cpu count, platform) to the
  ``BENCH_sim.json`` / ``BENCH_service.json`` / ``BENCH_analytic.json``
  emitters in ``benchmarks/``, so a number is never read without the
  machine it came from.
* **HTML reports** — :func:`render_html` emits one self-contained
  page (inline CSS + SVG, zero network fetches): the performance /
  energy-efficiency Pareto front (:func:`repro.core.explorer.pareto_front`,
  the same front ``repro report --pareto`` prints), the sweep heatmap
  and the per-stage profile breakdown.
"""

from __future__ import annotations

import html
import math
import os
import platform
import time
from pathlib import Path
from typing import Optional, Sequence, Union

from ..core.explorer import pareto_front

__all__ = [
    "SCHEMA_VERSION",
    "host_metadata",
    "render_html",
    "stamp_bench",
    "write_html",
]

#: Version stamped onto BENCH artifacts.
SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# stamped benchmark artifacts
# ----------------------------------------------------------------------
def host_metadata() -> dict:
    """The reproducibility context a benchmark number is meaningless without."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
    }


def stamp_bench(payload: dict) -> dict:
    """Add ``schema_version`` + host metadata to a BENCH payload."""
    return {**payload, "schema_version": SCHEMA_VERSION, "host": host_metadata()}


# ----------------------------------------------------------------------
# SVG primitives (everything below is rendering, no I/O)
# ----------------------------------------------------------------------
#: Sequential blue ramp, light -> dark (shared by both modes).
_RAMP = ("#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
         "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
         "#0d366b")

_CSS = """
:root { color-scheme: light; }
body {
  margin: 0; padding: 24px 32px 64px;
  background: var(--page); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
.viz-root {
  color-scheme: light;
  --page: #f9f9f7; --surface: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --ink-muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
  --series-7: #4a3aa7; --series-8: #e34948;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page: #0d0d0d; --surface: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
    --series-7: #9085e9; --series-8: #e66767;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page: #0d0d0d; --surface: #1a1a19;
  --ink: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
  --grid: #2c2c2a; --baseline: #383835;
  --border: rgba(255,255,255,0.10);
  --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
  --series-7: #9085e9; --series-8: #e66767;
}
h1 { font-size: 22px; font-weight: 650; margin: 0 0 4px; }
h2 { font-size: 16px; font-weight: 650; margin: 36px 0 4px; }
.sub { color: var(--ink-2); margin: 0 0 16px; }
.card {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 20px; margin: 12px 0;
  overflow-x: auto;
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 12px 0; }
.tile {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 18px; min-width: 110px;
}
.tile .v { font-size: 24px; font-weight: 650; }
.tile .k { color: var(--ink-2); font-size: 12px; }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif;
           fill: var(--ink-muted); }
svg .lbl { fill: var(--ink-2); }
svg .val { fill: var(--ink); font-variant-numeric: tabular-nums; }
svg .cell-dark { fill: #ffffff; }
.legend { display: flex; flex-wrap: wrap; gap: 4px 16px;
          margin: 6px 0 0; color: var(--ink-2); font-size: 12px; }
.legend .swatch { display: inline-block; width: 10px; height: 10px;
                  border-radius: 2px; margin-right: 5px; }
table { border-collapse: collapse; margin: 8px 0; font-size: 13px; }
th, td { text-align: right; padding: 4px 12px;
         border-bottom: 1px solid var(--grid);
         font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; }
th:first-child, td:first-child { text-align: left; }
details summary { cursor: pointer; color: var(--ink-2); margin-top: 8px; }
"""


def _esc(text) -> str:
    return html.escape(str(text), quote=True)


def _fmt_num(value: float) -> str:
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e5 or magnitude < 1e-3:
        return f"{value:.2e}"
    if magnitude >= 100:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def _log_ticks(lo: float, hi: float) -> list:
    """Decade tick positions covering a positive [lo, hi] range."""
    start = math.floor(math.log10(lo))
    stop = math.ceil(math.log10(hi))
    return [10.0 ** d for d in range(start, stop + 1)]


def _ramp_color(fraction: float) -> str:
    fraction = min(1.0, max(0.0, fraction))
    return _RAMP[round(fraction * (len(_RAMP) - 1))]


def _legend(entries: Sequence[tuple]) -> str:
    items = "".join(
        f'<span><span class="swatch" style="background:{color}"></span>'
        f"{_esc(name)}</span>"
        for name, color in entries
    )
    return f'<div class="legend">{items}</div>'


# ----------------------------------------------------------------------
# chart builders
# ----------------------------------------------------------------------
def _ok_records(records: Sequence[dict]) -> list:
    return [
        r for r in records
        if r.get("status") == "ok" and "metrics" in r
    ]


#: The report's trade-off: performance vs energy efficiency, both maximized.
_FRONT_OBJECTIVES = (
    (lambda r: r["metrics"]["performance"], True),
    (lambda r: r["metrics"]["energy_efficiency"], True),
)


def _record_label(record: dict) -> str:
    job = record.get("job", {})
    flow = job.get("flow", "?")
    capacity = job.get("capacity_mib", "?")
    bandwidth = job.get("bandwidth", "?")
    return f"{flow} {capacity}MiB @ {bandwidth:g}B/c" if isinstance(
        bandwidth, (int, float)) else f"{flow} {capacity}MiB"


def _pareto_svg(records: Sequence[dict]) -> str:
    points = _ok_records(records)
    if len(points) < 2:
        return "<p>not enough successful records for a Pareto view.</p>"
    front = pareto_front(points, _FRONT_OBJECTIVES)  # performance-sorted
    front_keys = {r["key"] for r in front}
    xs = [r["metrics"]["performance"] for r in points]
    ys = [r["metrics"]["energy_efficiency"] for r in points]
    if min(xs) <= 0 or min(ys) <= 0:
        return "<p>non-positive metrics; skipping Pareto view.</p>"

    width, height = 640, 380
    left, right, top, bottom = 64, 16, 12, 46
    plot_w, plot_h = width - left - right, height - top - bottom
    lx0, lx1 = math.log10(min(xs)) - 0.05, math.log10(max(xs)) + 0.05
    ly0, ly1 = math.log10(min(ys)) - 0.05, math.log10(max(ys)) + 0.05

    def sx(v: float) -> float:
        return left + (math.log10(v) - lx0) / (lx1 - lx0) * plot_w

    def sy(v: float) -> float:
        return top + plot_h - (math.log10(v) - ly0) / (ly1 - ly0) * plot_h

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" '
        f'aria-label="Pareto front: performance vs energy efficiency">'
    ]
    for tick in _log_ticks(min(xs), max(xs)):
        if not (10 ** lx0 <= tick <= 10 ** lx1):
            continue
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" '
            f'y2="{top + plot_h}" stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{x:.1f}" y="{height - 26}" '
            f'text-anchor="middle">{_fmt_num(tick)}</text>'
        )
    for tick in _log_ticks(min(ys), max(ys)):
        if not (10 ** ly0 <= tick <= 10 ** ly1):
            continue
        y = sy(tick)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" '
            f'y2="{y:.1f}" stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{left - 6}" y="{y + 4:.1f}" '
            f'text-anchor="end">{_fmt_num(tick)}</text>'
        )
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="var(--baseline)" stroke-width="1"/>'
        f'<text x="{left + plot_w / 2:.0f}" y="{height - 8}" '
        f'text-anchor="middle" class="lbl">performance '
        f'(executions/s, log)</text>'
        f'<text x="14" y="{top + plot_h / 2:.0f}" text-anchor="middle" '
        f'class="lbl" transform="rotate(-90 14 {top + plot_h / 2:.0f})">'
        f'energy efficiency (executions/J, log)</text>'
    )
    # Dominated points recede; the front carries the story.
    for record in points:
        if record["key"] in front_keys:
            continue
        m = record["metrics"]
        parts.append(
            f'<circle cx="{sx(m["performance"]):.1f}" '
            f'cy="{sy(m["energy_efficiency"]):.1f}" r="4" '
            f'fill="var(--ink-muted)" fill-opacity="0.45">'
            f"<title>{_esc(_record_label(record))}\n"
            f"performance {_fmt_num(m['performance'])}/s, "
            f"efficiency {_fmt_num(m['energy_efficiency'])}/J, "
            f"EDP {_fmt_num(m['edp'])}</title></circle>"
        )
    path = " ".join(
        f"{'M' if i == 0 else 'L'}{sx(r['metrics']['performance']):.1f},"
        f"{sy(r['metrics']['energy_efficiency']):.1f}"
        for i, r in enumerate(front)
    )
    parts.append(
        f'<path d="{path}" fill="none" stroke="var(--series-1)" '
        f'stroke-width="2" stroke-opacity="0.7"/>'
    )
    for record in front:
        m = record["metrics"]
        parts.append(
            f'<circle cx="{sx(m["performance"]):.1f}" '
            f'cy="{sy(m["energy_efficiency"]):.1f}" r="5" '
            f'fill="var(--series-1)" stroke="var(--surface)" '
            f'stroke-width="2">'
            f"<title>{_esc(_record_label(record))}  (on front)\n"
            f"performance {_fmt_num(m['performance'])}/s, "
            f"efficiency {_fmt_num(m['energy_efficiency'])}/J, "
            f"EDP {_fmt_num(m['edp'])}</title></circle>"
        )
    best = min(front, key=lambda r: r["metrics"]["edp"])
    bm = best["metrics"]
    parts.append(
        f'<text x="{sx(bm["performance"]) + 8:.1f}" '
        f'y="{sy(bm["energy_efficiency"]) - 8:.1f}" class="lbl">'
        f"best EDP: {_esc(_record_label(best))}</text>"
    )
    parts.append("</svg>")
    table = _front_table(front)
    return "".join(parts) + _legend(
        [("Pareto front", "var(--series-1)"), ("dominated", "var(--ink-muted)")]
    ) + table


def _front_table(front: Sequence[dict]) -> str:
    rows = "".join(
        f"<tr><td>{_esc(_record_label(r))}</td>"
        f"<td>{_fmt_num(r['metrics']['performance'])}</td>"
        f"<td>{_fmt_num(r['metrics']['energy_efficiency'])}</td>"
        f"<td>{_fmt_num(r['metrics']['edp'])}</td>"
        f"<td>{_fmt_num(r['metrics']['frequency_mhz'])}</td></tr>"
        for r in front
    )
    return (
        "<details><summary>Pareto front as a table</summary><table>"
        "<tr><th>point</th><th>perf (/s)</th><th>eff (/J)</th>"
        "<th>EDP (J·s)</th><th>freq (MHz)</th></tr>"
        f"{rows}</table></details>"
    )


def _heatmap_axes(points: Sequence[dict]) -> Optional[tuple]:
    rows = sorted(
        {(p["job"].get("capacity_mib"), p["job"].get("flow"))
         for p in points if "job" in p},
        key=lambda rf: (str(rf[1]), rf[0] if rf[0] is not None else 0),
    )
    cols = sorted(
        {p["job"].get("bandwidth") for p in points if "job" in p},
        key=lambda b: b if isinstance(b, (int, float)) else 0,
    )
    if len(rows) < 2 or len(cols) < 2:
        return None
    return rows, cols


def _heatmap_svg(records: Sequence[dict]) -> str:
    points = _ok_records(records)
    axes = _heatmap_axes(points)
    if axes is None:
        return "<p>not enough axis variation for a sweep heatmap.</p>"
    rows, cols = axes
    cells: dict = {}
    for p in points:
        job = p["job"]
        key = ((job.get("capacity_mib"), job.get("flow")), job.get("bandwidth"))
        edp = p["metrics"]["edp"]
        if key not in cells or edp < cells[key]:
            cells[key] = edp
    values = [v for v in cells.values() if v > 0]
    if not values:
        return "<p>no positive EDP values; skipping heatmap.</p>"
    lo, hi = math.log10(min(values)), math.log10(max(values))
    span = (hi - lo) or 1.0

    cell_w, cell_h, left, top = 72, 34, 120, 28
    width = left + cell_w * len(cols) + 16
    height = top + cell_h * len(rows) + 40
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" '
        f'aria-label="EDP heatmap over capacity/flow and bandwidth">'
    ]
    for j, bandwidth in enumerate(cols):
        x = left + j * cell_w + cell_w / 2
        parts.append(
            f'<text x="{x:.0f}" y="{top - 10}" '
            f'text-anchor="middle">{bandwidth:g}</text>'
        )
    for i, (capacity, flow) in enumerate(rows):
        y = top + i * cell_h + cell_h / 2 + 4
        parts.append(
            f'<text x="{left - 8}" y="{y:.0f}" text-anchor="end" '
            f'class="lbl">{_esc(flow)} {_esc(capacity)}MiB</text>'
        )
        for j, bandwidth in enumerate(cols):
            edp = cells.get(((capacity, flow), bandwidth))
            x = left + j * cell_w
            cy = top + i * cell_h
            if edp is None:
                parts.append(
                    f'<rect x="{x + 1}" y="{cy + 1}" width="{cell_w - 2}" '
                    f'height="{cell_h - 2}" rx="3" fill="var(--grid)"/>'
                )
                continue
            fraction = (math.log10(edp) - lo) / span
            color = _ramp_color(fraction)
            text_class = "cell-dark" if fraction > 0.45 else "val"
            parts.append(
                f'<rect x="{x + 1}" y="{cy + 1}" width="{cell_w - 2}" '
                f'height="{cell_h - 2}" rx="3" fill="{color}">'
                f"<title>{_esc(flow)} {_esc(capacity)}MiB @ "
                f"{bandwidth:g}B/c\nEDP {_fmt_num(edp)} J·s</title></rect>"
                f'<text x="{x + cell_w / 2:.0f}" y="{cy + cell_h / 2 + 4:.0f}" '
                f'text-anchor="middle" class="{text_class}">'
                f"{_fmt_num(edp)}</text>"
            )
    parts.append(
        f'<text x="{left + cell_w * len(cols) / 2:.0f}" y="{height - 10}" '
        f'text-anchor="middle" class="lbl">bandwidth (B/cycle) — cell: '
        f"min EDP (J·s), lighter is better</text></svg>"
    )
    return "".join(parts)


def _stage_svg(breakdown: dict) -> str:
    if not breakdown:
        return "<p>no stage observations recorded.</p>"
    stages = sorted(
        breakdown.items(), key=lambda item: item[1]["total_s"], reverse=True
    )
    bar_h, gap, left, top = 26, 10, 150, 8
    width = 640
    plot_w = width - left - 170
    height = top + len(stages) * (bar_h + gap) + 30
    longest = max(s["total_s"] for _, s in stages) or 1.0
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="per-stage time">'
    ]
    for i, (name, stats) in enumerate(stages):
        y = top + i * (bar_h + gap)
        bar_w = max(2.0, stats["total_s"] / longest * plot_w)
        parts.append(
            f'<text x="{left - 8}" y="{y + bar_h / 2 + 4}" '
            f'text-anchor="end" class="lbl">{_esc(name)}</text>'
            f'<rect x="{left}" y="{y}" width="{bar_w:.1f}" '
            f'height="{bar_h}" rx="4" fill="var(--series-1)">'
            f"<title>{_esc(name)}: {stats['total_s']:.3f}s across "
            f"{stats['count']} calls (mean "
            f"{stats['mean_s'] * 1e3:.3f}ms)</title></rect>"
            f'<text x="{left + bar_w + 8:.1f}" y="{y + bar_h / 2 + 4}" '
            f'class="val">{stats["total_s"]:.3f}s · {stats["share"]:.1%} · '
            f"{stats['count']}×</text>"
        )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" '
        f'y2="{height - 26}" stroke="var(--baseline)" stroke-width="1"/>'
        "</svg>"
    )
    return "".join(parts)


# ----------------------------------------------------------------------
# page assembly
# ----------------------------------------------------------------------
def _tiles(records: Sequence[dict]) -> str:
    points = _ok_records(records)
    failed = len(records) - len(points)
    tiles = [("records", str(len(records))), ("ok", str(len(points))),
             ("failed", str(failed))]
    if points:
        front = pareto_front(points, _FRONT_OBJECTIVES)
        best = min(points, key=lambda r: r["metrics"]["edp"])
        tiles.append(("on Pareto front", str(len(front))))
        tiles.append(("best EDP (J·s)", _fmt_num(best["metrics"]["edp"])))
    body = "".join(
        f'<div class="tile"><div class="v">{_esc(value)}</div>'
        f'<div class="k">{_esc(name)}</div></div>'
        for name, value in tiles
    )
    return f'<div class="tiles">{body}</div>'


def render_html(
    records: Optional[Sequence[dict]] = None,
    stage_profile: Optional[dict] = None,
    title: str = "repro report",
) -> str:
    """One self-contained HTML report (inline CSS + SVG, no fetches).

    Every section is optional: pass sweep ``records`` for the Pareto
    front and heatmap, and a :meth:`StageProfiler.breakdown` dict for
    the stage view.
    """
    sections = []
    if records:
        sections.append(_tiles(records))
        sections.append("<h2>Pareto front</h2><p class=\"sub\">performance "
                        "vs energy efficiency; blue points are maximal.</p>"
                        f'<div class="card">{_pareto_svg(records)}</div>')
        sections.append("<h2>Sweep heatmap</h2><p class=\"sub\">min EDP per "
                        "configuration cell.</p>"
                        f'<div class="card">{_heatmap_svg(records)}</div>')
    if stage_profile:
        sections.append("<h2>Per-stage profile</h2><p class=\"sub\">where "
                        "evaluation wall-clock goes.</p>"
                        f'<div class="card">{_stage_svg(stage_profile)}</div>')
    if not sections:
        sections.append("<p>nothing to report: no records or profile "
                        "supplied.</p>")
    generated = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())
    host = host_metadata()
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        '<body class="viz-root">\n'
        f"<h1>{_esc(title)}</h1>\n"
        f'<p class="sub">generated {generated} · python {host["python"]} · '
        f'{host["cpu_count"]} cpus</p>\n'
        + "\n".join(sections)
        + "\n</body></html>\n"
    )


def write_html(
    path: Union[str, Path],
    records: Optional[Sequence[dict]] = None,
    stage_profile: Optional[dict] = None,
    title: str = "repro report",
) -> Path:
    """Render and write a report; returns the path."""
    path = Path(path)
    path.write_text(
        render_html(records=records, stage_profile=stage_profile,
                    title=title),
        encoding="utf-8",
    )
    return path
