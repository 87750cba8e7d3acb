"""Minimal native SVG emission: line charts, histograms, scatter panels.

No plotting library: output is deterministic text, so re-rendering the same
numbers reproduces the same bytes, and every figure travels with the CSV it
was drawn from.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Figure", "COLORS", "PALETTE"]

COLORS = {"g": "#c02020", "e": "#2040c0", "gdo": "#c02020", "edo": "#2040c0",
          "fit": "#101010", "ref": "#888888"}
PALETTE = ("#c02020", "#2040c0", "#208040", "#806020")
WIDTH, HEIGHT = 640, 420                  # every figure's size, in pixels
TOP, RIGHT, BOTTOM, LEFT = 50, 15, 35, 55  # and its margins


class Figure:
    """One SVG panel with margins, linear axes and simple marks."""

    def __init__(self, title: str = "", xlabel: str = "", ylabel: str = ""):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self._body: list[str] = []
        self._legend: list[tuple[str, str]] = []
        self._xlim: tuple[float, float] | None = None
        self._ylim: tuple[float, float] | None = None

    # -- coordinate handling ------------------------------------------------
    def set_limits(self, xlim, ylim) -> None:
        span = lambda lo, hi: (lo, hi if hi > lo else lo + 1.0)
        self._xlim = span(*map(float, xlim))
        self._ylim = span(*map(float, ylim))

    # each maps data coordinates, a number or an array, to pixels, with the
    # arithmetic of one float at a time
    def _sx(self, x) -> np.ndarray:
        lo, hi = self._xlim
        return LEFT + (np.asarray(x, dtype=float) - lo) / (hi - lo) * (
            WIDTH - LEFT - RIGHT)

    def _sy(self, y) -> np.ndarray:
        lo, hi = self._ylim
        h = HEIGHT - TOP - BOTTOM
        return TOP + h - (np.asarray(y, dtype=float) - lo) / (hi - lo) * h

    # -- marks ----------------------------------------------------------------
    def _mark(self, elements, color: str, label: str) -> None:
        self._body.extend(elements)
        if label:
            self._legend.append((label, color))

    def polyline(self, x, y, color: str, width: float = 1.3,
                 dash: str = "", label: str = "") -> None:
        pts = " ".join(map("{:.6g},{:.6g}".format, self._sx(x).tolist(),
                           self._sy(y).tolist()))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._mark([f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
                    f'{dash_attr} points="{pts}"/>'], color, label)

    def scatter(self, x, y, color: str, label: str = "") -> None:
        circle = ('<circle cx="{:.6g}" cy="{:.6g}" r="2.0"'
                  f' fill="{color}" fill-opacity="0.55"/>')
        self._mark(map(circle.format, self._sx(x).tolist(),
                       self._sy(y).tolist()), color, label)

    def bars(self, lefts, rights, heights, color: str, label: str = "") -> None:
        heights = np.asarray(heights)
        drawn = heights > 0
        x = self._sx(np.asarray(lefts)[drawn])
        y = self._sy(heights[drawn])
        rect = ('<rect x="{:.6g}" y="{:.6g}" width="{:.6g}" height="{:.6g}"'
                f' fill="{color}" fill-opacity="0.6"/>')
        self._mark(map(rect.format, x.tolist(), y.tolist(),
                       (self._sx(np.asarray(rights)[drawn]) - x).tolist(),
                       (self._sy(self._ylim[0]) - y).tolist()), color, label)

    def vline(self, x: float, color: str, label: str = "") -> None:
        sx = f"{self._sx(x):.6g}"
        self._mark([f'<line x1="{sx}" y1="{TOP}" x2="{sx}"'
                    f' y2="{HEIGHT - BOTTOM}" stroke="{color}"'
                    ' stroke-width="1.2" stroke-dasharray="6,4"/>'], color, label)

    # -- assembly ---------------------------------------------------------
    def _ticks(self, lo: float, hi: float) -> list[float]:
        return [float(f"{v:.3g}") for v in np.linspace(lo, hi, 5)]

    def render(self) -> str:
        if self._xlim is None or self._ylim is None:
            raise RuntimeError("set_limits must be called before render")
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}"'
            f' height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]
        x0, y0 = LEFT, HEIGHT - BOTTOM
        x1, y1 = WIDTH - RIGHT, TOP
        out.append(f'<rect x="{x0}" y="{y1}" width="{x1 - x0}"'
                   f' height="{y0 - y1}" fill="none" stroke="#404040"/>')
        font = 'font-family="Helvetica,Arial,sans-serif"'
        for v in self._ticks(*self._xlim):
            sx = f"{self._sx(v):.6g}"
            out.append(f'<line x1="{sx}" y1="{y0}" x2="{sx}" y2="{y0 + 4}"'
                       ' stroke="#404040"/>')
            out.append(f'<text x="{sx}" y="{y0 + 16}" {font} font-size="11"'
                       f' text-anchor="middle">{v:.6g}</text>')
        for v in self._ticks(*self._ylim):
            sy = f"{self._sy(v):.6g}"
            out.append(f'<line x1="{x0 - 4}" y1="{sy}" x2="{x0}" y2="{sy}"'
                       ' stroke="#404040"/>')
            out.append(f'<text x="{x0 - 7}" y="{sy}" {font} font-size="11"'
                       f' text-anchor="end" dominant-baseline="middle">{v:.6g}</text>')
        if self.title:
            out.append(f'<text x="{(x0 + x1) / 2:.6g}" y="{y1 - 5}" {font}'
                       f' font-size="13" text-anchor="middle">{self.title}</text>')
        if self.xlabel:
            out.append(f'<text x="{(x0 + x1) / 2:.6g}" y="{HEIGHT - 6}" {font}'
                       f' font-size="12" text-anchor="middle">{self.xlabel}</text>')
        if self.ylabel:
            out.append(f'<text x="14" y="{(y0 + y1) / 2:.6g}" {font} font-size="12"'
                       f' text-anchor="middle"'
                       f' transform="rotate(-90 14 {(y0 + y1) / 2:.6g})">'
                       f'{self.ylabel}</text>')
        out.extend(self._body)
        for i, (label, color) in enumerate(self._legend):
            ly = y1 + 16 + i * 16
            out.append(f'<rect x="{x1 - 130}" y="{ly - 9}" width="12" height="9"'
                       f' fill="{color}"/>')
            out.append(f'<text x="{x1 - 113}" y="{ly}" {font}'
                       f' font-size="11">{label}</text>')
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.render())


def family_color(name: str, index: int = 0) -> str:
    return COLORS.get(name, PALETTE[index % len(PALETTE)])
