"""Result emission: CSV, JSON, and a small SVG plotter.

The data files are the contract; all are UTF-8. CSV carries 6
significant digits for eyeballing and diffing. JSON keeps full double
precision and is ``json.dumps(obj, indent=2)`` plus a newline, byte for
byte, with dataclasses as their fields and numpy values as their
``tolist()``. Float arrays go through one ``%`` format each, not one
call per element. The SVG renderer is a convenience view of data
already written elsewhere, kept deliberately plain: polylines, two
axes, a text legend.
"""
from __future__ import annotations

import csv
import dataclasses
import io
from html import escape
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "fmt6",
    "csv_text",
    "row_table",
    "write_csv",
    "write_json",
    "PlotSeries",
    "svg_line_plot",
]


def fmt6(value: Any) -> str:
    """Render one CSV cell; floats get 6 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return str(value).lower()
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def csv_text(header: Sequence[str], rows: Iterable[Iterable[Any]]) -> str:
    """The CSV table as text: a header line, then one line per row.

    Cells holding a comma, a quote or a line break are quoted, so every
    row parses back to the header's width. A 2-d float array of rows is
    formatted in one pass; its cells read as ``fmt6`` would write them.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and _plain_float(rows):
        line = ",".join(["%.6g"] * rows.shape[1]) + "\n"
        return buf.getvalue() + line * rows.shape[0] % tuple(rows.ravel().tolist())
    writer.writerows([fmt6(cell) for cell in row] for row in rows)
    return buf.getvalue()


def row_table(
    cls: type, rows: Iterable[Any], lead: str | None = None
) -> tuple[tuple[str, ...], Iterable[tuple]]:
    """``(header, rows)`` of ``cls`` rows for ``csv_text``, converted lazily.

    The header is the fields of ``cls``, which are also the rows' JSON
    keys, so an empty table keeps its header. With ``lead``, ``rows``
    holds ``(value, row)`` pairs and ``lead`` names the value's column.
    """
    header = tuple(f.name for f in dataclasses.fields(cls))
    if lead is None:
        return header, map(dataclasses.astuple, rows)
    return (lead, *header), ((value, *dataclasses.astuple(row)) for value, row in rows)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Iterable[Any]]) -> None:
    Path(path).write_text(csv_text(header, rows), encoding="utf-8")


def _plain_float(a: np.ndarray) -> bool:
    """Whether ``a.tolist()`` holds Python floats: float16 to float64."""
    return a.dtype.kind == "f" and a.dtype.itemsize <= 8


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)


def _block(items: list[str], level: int, brackets: str) -> str:
    """``items`` between ``brackets``, one per line, indented as ``json`` does."""
    if not items:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * level + brackets[1]


def _json_key(key: Any) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{_json_text(key, 0)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_text(obj: Any, level: int) -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` writes it at nesting ``level``.

    The type checks run in ``json``'s order. A float array of finite
    values is formatted in one pass, through a template of ``%r`` slots
    laid out as its nested list would be.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    if isinstance(obj, (list, tuple)):
        return _block([_json_text(value, level + 1) for value in obj], level, "[]")
    if isinstance(obj, dict):
        return _block(
            [f"{_json_key(k)}: {_json_text(v, level + 1)}" for k, v in obj.items()], level, "{}"
        )
    if isinstance(obj, np.ndarray) and _plain_float(obj) and np.isfinite(obj).all():
        template = "%r"
        for depth in range(obj.ndim - 1, -1, -1):
            template = _block([template] * obj.shape[depth], level + depth, "[]")
        return template % tuple(obj.ravel().tolist())
    if isinstance(obj, (np.ndarray, np.generic)):
        return _json_text(obj.tolist(), level)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _json_text({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, level)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: str | Path, obj: Any) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline; see the module docstring."""
    Path(path).write_text(_json_text(obj, 0) + "\n", encoding="utf-8")


@dataclasses.dataclass(frozen=True)
class PlotSeries:
    label: str
    x: np.ndarray
    y: np.ndarray
    kind: str = "line"  # "line" or "points"


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#7f7f7f")

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _spread(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        pad = 0.5 if lo == 0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    return lo, hi


def svg_line_plot(
    path: str | Path,
    series: Sequence[PlotSeries],
    title: str,
    xlabel: str,
    ylabel: str,
    xlog: bool = False,
) -> None:
    """Write a minimal standalone SVG of the given series.

    The title, axis labels and series labels are escaped, so names
    holding ``&``, ``<`` or quotes still give a well-formed file.
    ``html.escape`` does this at a fraction of the import cost of
    ``xml.sax.saxutils``, which loads ``urllib.request``.
    """
    xs = [np.log10(s.x) if xlog else np.asarray(s.x, dtype=float) for s in series]
    ys = [np.asarray(s.y, dtype=float) for s in series]
    x_lo, x_hi = _spread(min(float(a.min()) for a in xs), max(float(a.max()) for a in xs))
    y_lo, y_hi = _spread(min(float(a.min()) for a in ys), max(float(a.max()) for a in ys))

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    def xtick(x: float) -> str:
        val = 10.0**x if xlog else x
        return f"{val:.3g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-size="15">{escape(title)}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" text-anchor="middle">'
        f"{escape(xlabel)}</text>",
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">{escape(ylabel)}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        gx = x_lo + frac * (x_hi - x_lo)
        gy = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{px(gx):.1f}" y="{_H - _MB + 16}" text-anchor="middle">{xtick(gx)}</text>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{py(gy) + 4:.1f}" text-anchor="end">{gy:.3g}</text>'
        )
        if frac > 0:
            parts.append(
                f'<line x1="{_ML}" y1="{py(gy):.1f}" x2="{_W - _MR}" y2="{py(gy):.1f}" '
                f'stroke="#dddddd"/>'
            )

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        sx, sy = xs[i], ys[i]
        if s.kind == "points":
            for xv, yv in zip(sx, sy):
                parts.append(
                    f'<circle cx="{px(float(xv)):.1f}" cy="{py(float(yv)):.1f}" r="4" '
                    f'fill="{color}"/>'
                )
        else:
            coords = " ".join(
                f"{px(float(xv)):.1f},{py(float(yv)):.1f}" for xv, yv in zip(sx, sy)
            )
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{_W - _MR - 6}" y="{_MT + 14 + 16 * i}" text-anchor="end" '
            f'fill="{color}">{escape(s.label)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
