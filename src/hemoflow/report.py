"""Human-readable run report: Markdown tables and an SVG bar chart.

Both are rendered from segment statistics keyed by (parameter, frame),
where a parameter is ``<quantity>:<model>``; per-frame quantities are
shown at the systolic frame and OSI over the cycle.
"""

from __future__ import annotations

import logging
from pathlib import Path

log = logging.getLogger("hemoflow")

QUANTITIES = ("wss", "osi", "el_rate")

_UNITS = {"wss": "Pa", "osi": "-", "el_rate": "uW"}
_PALETTE = ("#4878a8", "#e49444", "#5ca05c", "#c24f4f", "#8f7ac2",
            "#937860")


def _panels(blocks: dict, systolic: int):
    """(quantity, frame, model -> stats) per quantity present in blocks."""
    for quantity in QUANTITIES:
        frame = None if quantity == "osi" else systolic
        picked = {param.split(":", 1)[1]: block
                  for (param, frame_key), block in blocks.items()
                  if param.startswith(f"{quantity}:") and frame_key == frame}
        if picked:
            yield quantity, frame, picked


def _report_tables(blocks: dict, systolic: int) -> str:
    lines = ["# Hemodynamic summary", ""]
    for quantity, frame, picked in _panels(blocks, systolic):
        when = "cycle" if frame is None else f"frame {frame}"
        lines.append(f"## {quantity} [{_UNITS[quantity]}] ({when})")
        lines.append("")
        models = list(picked)
        segments = picked[models[0]].segments
        lines.append("| segment | " + " | ".join(models) + " |")
        lines.append("|" + "---|" * (len(models) + 1))
        for i, segment in enumerate(segments):
            cells = []
            for model in models:
                block = picked[model]
                if block.means[i] is None:
                    cells.append("n/a")
                else:
                    cells.append(f"{block.means[i]:.4g} +/- "
                                 f"{block.stds[i]:.4g}")
            lines.append(f"| {segment} | " + " | ".join(cells) + " |")
        lines.append("")
    return "\n".join(lines)


def _comparison_table(rows: list[dict]) -> str:
    lines = ["## Model differences (alternative vs reference)", "",
             "| param | segment | alternative | absolute | relative % |",
             "|---|---|---|---|---|"]
    for row in rows:
        absolute = row["absolute_difference"]
        relative = row["relative_difference_pct"]
        lines.append(
            f"| {row['param']} | {row['segment']} | "
            f"{row['alternative_model']} | "
            f"{'n/a' if absolute is None else f'{absolute:+.4g}'} | "
            f"{'n/a' if relative is None else f'{relative:+.2f}'} |")
    lines.append("")
    return "\n".join(lines)


def _svg_report(blocks: dict, systolic: int) -> str:
    """Grouped mean+-std bar charts, one panel per quantity."""
    panel_w, panel_h, margin = 640, 190, 48
    panels = []
    y0 = 0
    for quantity, frame, picked in _panels(blocks, systolic):
        models = list(picked)
        segments = picked[models[0]].segments
        tops = [block.means[i] + (block.stds[i] or 0.0)
                for block in picked.values()
                for i in range(len(segments)) if block.means[i] is not None]
        vmax = max(tops) if tops else 1.0
        vmax = vmax if vmax > 0 else 1.0
        plot_w = panel_w - 2 * margin
        plot_h = panel_h - 60
        group_w = plot_w / len(segments)
        bar_w = min(26.0, group_w / (len(models) + 1))
        parts = [f'<g transform="translate(0,{y0})">',
                 f'<text x="{margin}" y="18" font-size="15" '
                 f'font-weight="bold">{quantity} [{_UNITS[quantity]}]'
                 f'{"" if frame is None else f" at frame {frame}"}</text>',
                 f'<line x1="{margin}" y1="{30 + plot_h}" '
                 f'x2="{margin + plot_w}" y2="{30 + plot_h}" '
                 'stroke="#444"/>']
        for s, segment in enumerate(segments):
            gx = margin + s * group_w
            for mi, model in enumerate(models):
                block = picked[model]
                mean = block.means[s]
                if mean is None:
                    continue
                h = max(0.0, mean / vmax * plot_h)
                x = gx + (mi + 1) * (group_w - bar_w * len(models)) \
                    / (len(models) + 1) + mi * bar_w
                y = 30 + plot_h - h
                color = _PALETTE[mi % len(_PALETTE)]
                parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" '
                             f'width="{bar_w:.1f}" height="{h:.1f}" '
                             f'fill="{color}"/>')
                std = block.stds[s] or 0.0
                if std > 0:
                    eh = std / vmax * plot_h
                    cx = x + bar_w / 2
                    parts.append(
                        f'<line x1="{cx:.1f}" y1="{max(30, y - eh):.1f}" '
                        f'x2="{cx:.1f}" y2="{min(30 + plot_h, y + eh):.1f}" '
                        'stroke="#222" stroke-width="1.2"/>')
            parts.append(f'<text x="{gx + group_w / 2:.1f}" '
                         f'y="{30 + plot_h + 16}" font-size="12" '
                         f'text-anchor="middle">{segment}</text>')
        parts.append(f'<text x="{margin}" y="{30 + plot_h + 34}" '
                     f'font-size="11" fill="#333">max {vmax:.4g} '
                     f'{_UNITS[quantity]}; models: '
                     + ", ".join(f"{m} ({_PALETTE[i % len(_PALETTE)]})"
                                 for i, m in enumerate(models))
                     + "</text>")
        parts.append("</g>")
        panels.append("\n".join(parts))
        y0 += panel_h
    body = "\n".join(panels)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{panel_w}" '
            f'height="{max(y0, 1)}" font-family="sans-serif">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n'
            f"{body}\n</svg>\n")


def write_report(blocks: dict, comparison: list[dict] | None, systolic: int,
                 out: Path) -> None:
    """Write ``report.md`` (tables, then model differences) and ``report.svg``."""
    text = _report_tables(blocks, systolic)
    if comparison:
        text += "\n" + _comparison_table(comparison)
    (out / "report.md").write_text(text)
    (out / "report.svg").write_text(_svg_report(blocks, systolic))
    log.info("report written to %s", out)
