import numpy as np
from hypothesis import given, strategies as st

from morilab import svgplot
from morilab.svgplot import Figure

coords = st.floats(-1e6, 1e6)
points = st.lists(st.tuples(coords, coords, st.integers(-2, 40)), max_size=30)


def scalar_sx(fig: Figure, x: float) -> float:
    """The x pixel of one Python float, as the marks once computed it."""
    lo, hi = fig._xlim
    return svgplot.LEFT + (x - lo) / (hi - lo) * (
        svgplot.WIDTH - svgplot.LEFT - svgplot.RIGHT)


def scalar_sy(fig: Figure, y: float) -> float:
    lo, hi = fig._ylim
    h = svgplot.HEIGHT - svgplot.TOP - svgplot.BOTTOM
    return svgplot.TOP + h - (y - lo) / (hi - lo) * h


@given(xlim=st.tuples(coords, coords), ylim=st.tuples(coords, coords),
       pts=points)
def test_marks_write_each_point_as_the_scalar_formulas(xlim, ylim, pts):
    # the marks scale whole arrays; every number they write must be the
    # f"{v:.6g}" of the same formula applied to one float at a time
    fig = Figure(xlim, ylim)
    x, y, h = (list(col) for col in zip(*pts)) if pts else ([], [], [])
    fig.polyline(np.array(x), np.array(y), "#000000")
    fig.scatter(np.array(x), np.array(y), "#000000")
    fig.bars(x, y, h, "#000000")

    sx = lambda v: f"{scalar_sx(fig, v):.6g}"
    sy = lambda v: f"{scalar_sy(fig, v):.6g}"
    y0 = scalar_sy(fig, fig._ylim[0])
    polyline = " ".join(f"{sx(a)},{sy(b)}" for a, b in zip(x, y))
    circles = [f'<circle cx="{sx(a)}" cy="{sy(b)}" r="2.0" fill="#000000"'
               ' fill-opacity="0.55"/>' for a, b in zip(x, y)]
    rects = [f'<rect x="{sx(lo)}" y="{sy(n)}"'
             f' width="{scalar_sx(fig, hi) - scalar_sx(fig, lo):.6g}"'
             f' height="{y0 - scalar_sy(fig, n):.6g}" fill="#000000"'
             ' fill-opacity="0.6"/>' for lo, hi, n in pts if n > 0]
    assert fig._body == [
        '<polyline fill="none" stroke="#000000" stroke-width="1.3"'
        f' points="{polyline}"/>', *circles, *rects]
