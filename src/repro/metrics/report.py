"""Plain-text table formatting for benchmark harness output."""

from __future__ import annotations


def format_table(headers: list[str], rows: list[list], title: str | None = None) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]] + [
        [_fmt(v) for v in row] for row in rows
    ]
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_rows(rows: list[dict], title: str) -> str:
    """Render dict rows as a table whose headers are the first row's keys."""
    if not rows:
        return f"{title}\n(no rows)"
    headers = list(rows[0])
    body = [[row.get(h, "") for h in headers] for row in rows]
    return format_table(headers, body, title=title)
