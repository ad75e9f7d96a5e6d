"""Report rendering: experiment rows to Markdown / CSV.

The benchmark suite prints raw rows; these helpers turn the same rows into
the artifacts EXPERIMENTS.md embeds.
"""

from __future__ import annotations

import io
from typing import Any, Sequence


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def rows_to_markdown(rows: Sequence[dict], title: str = "") -> str:
    """Render homogeneous row dicts as a GitHub-flavoured Markdown table."""
    if not rows:
        return f"*{title}: no rows*" if title else "*no rows*"
    columns = list(rows[0])
    out = io.StringIO()
    if title:
        out.write(f"### {title}\n\n")
    out.write("| " + " | ".join(columns) + " |\n")
    out.write("|" + "|".join("---" for _ in columns) + "|\n")
    for row in rows:
        out.write("| " + " | ".join(_fmt(row.get(col, "")) for col in columns) + " |\n")
    return out.getvalue()


def rows_to_csv(rows: Sequence[dict]) -> str:
    """Render rows as CSV text (stable column order from the first row)."""
    if not rows:
        return ""
    columns = list(rows[0])
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col, "")) for col in columns))
    return "\n".join(lines) + "\n"


__all__ = ["rows_to_csv", "rows_to_markdown"]
