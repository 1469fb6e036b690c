import math
import sys

import numpy as np
import pytest

from etsmc.config import build_config
from etsmc.plots import (HEIGHT, MARGIN, MAX_POINTS, PALETTE, WIDTH,
                         PlotError, emit_plot)
from etsmc.sim import run_event_triggered


def test_line_plot_structure(tmp_path):
    path = tmp_path / "line.svg"
    xs = list(range(10))
    emit_plot([("a", xs, [v * 0.5 for v in xs]),
               ("b", xs, [v * -0.5 for v in xs])],
              "line", path, title="demo", xlabel="x", ylabel="y")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2
    for label in ("demo", ">a<", ">b<", ">x<", ">y<"):
        assert label in text


def test_stem_plot_structure(tmp_path):
    path = tmp_path / "stem.svg"
    emit_plot([("gaps", [0.0, 1.0, 2.0], [0.1, 0.2, 0.3])], "stem", path)
    text = path.read_text()
    assert "<polyline" not in text
    # one baseline bar per point plus the two axes
    assert text.count("<line") == 3 + 2


def test_deterministic_bytes(tmp_path):
    xs = np.linspace(0.0, 1.0, 500)
    ys = np.sin(xs * 7.0)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot([("s", xs, ys)], "line", a, title="t")
    emit_plot([("s", xs, ys)], "line", b, title="t")
    assert a.read_bytes() == b.read_bytes()


def test_large_series_thinned(tmp_path):
    n = 50_001
    xs = np.linspace(0.0, 50.0, n)
    path = tmp_path / "big.svg"
    emit_plot([("s", xs, np.cos(xs))], "line", path)
    poly = path.read_text().split('points="')[1].split('"')[0]
    count = len(poly.split())
    assert count <= MAX_POINTS + 1
    # last sample is always kept
    assert poly.split()[-1].startswith("740.000")


def test_stem_figure_of_a_dense_log_is_bounded(tmp_path, traced_peak):
    # events.svg of a run that fires at every step, a whole run's memory
    # peak: thinned to at most MAX_POINTS + 1 stems, it holds about 841 KB
    # at 10,001 events and at 50,001, where a line figure of the same run
    # holds 0.36 to 0.41 MB; 1,000,000 B leaves a 19% margin
    _, log, _ = run_event_triggered(build_config({"t_end": 10.0}))
    assert len(log.instants) == 10_001
    series = [("inter-event time", log.instants[:-1], log.gaps)]
    _, kept, peak = traced_peak(emit_plot, series, "stem",
                                tmp_path / "events.svg")
    assert peak - kept <= 1_000_000


def test_flat_series_has_no_degenerate_scale(tmp_path):
    path = tmp_path / "flat.svg"
    emit_plot([("c", [0.0, 1.0, 2.0], [1.5, 1.5, 1.5])], "line", path)
    assert "nan" not in path.read_text()


@pytest.mark.parametrize("series,style", [
    ([], "line"),
    ([("a", [], [])], "line"),
    ([("a", [1.0, 2.0], [1.0])], "line"),
    ([("a", [1.0], [1.0])], "scatter"),
])
def test_rejected_inputs_write_nothing(tmp_path, series, style):
    path = tmp_path / "bad.svg"
    with pytest.raises(PlotError):
        emit_plot(series, style, path)
    assert not path.exists()


def test_flat_axis_beyond_half_unit_resolution(tmp_path):
    # at 1e17 one ulp is 16: +-0.5 would leave the axis flat
    path = tmp_path / "flat.svg"
    emit_plot([("c", [0.0, 1.0, 2.0], [1e17] * 3)], "line", path)
    text = path.read_text()
    assert "nan" not in text and "inf" not in text
    assert ">99999999999999984.000<" in text
    assert ">100000000000000016.000<" in text
    assert 'points="60.000,250.000 400.000,250.000 740.000,250.000"' in text


@pytest.mark.parametrize("value,edge", [(sys.float_info.max, "60.000"),
                                        (-sys.float_info.max, "440.000")])
def test_flat_axis_at_largest_float_keeps_finite_bounds(tmp_path, value,
                                                        edge):
    # one ulp outward from +-float max overflows: that bound stays put,
    # so the values lie on the edge of the plot
    path = tmp_path / "flat.svg"
    emit_plot([("c", [0.0, 1.0, 2.0], [value] * 3)], "line", path)
    text = path.read_text()
    assert "nan" not in text and "inf" not in text
    assert (f'points="60.000,{edge} 400.000,{edge} 740.000,{edge}"'
            in text)
    path = tmp_path / "flat-x.svg"
    emit_plot([("c", [value] * 3, [0.0, 1.0, 2.0])], "line", path)
    text = path.read_text()
    assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_flat_axis_at_infinity_is_rejected(tmp_path, value, axis):
    path = tmp_path / "flat.svg"
    flat, ramp = [value] * 3, [0.0, 1.0, 2.0]
    xs, ys = (flat, ramp) if axis == "x" else (ramp, flat)
    with pytest.raises(PlotError, match="all"):
        emit_plot([("c", xs, ys)], "line", path)
    assert not path.exists()


# --- bitwise oracle: the point-wise emitter, one Python float at a time ---

def _oracle_fmt(v):
    return f"{v:.3f}"


def _oracle_scale(vals):
    lo = min(vals)
    hi = max(vals)
    if hi == lo:
        lo -= 0.5
        hi += 0.5
    return lo, hi


def _oracle_thin(xs, ys):
    n = len(xs)
    if n <= MAX_POINTS:
        return list(xs), list(ys)
    stride = -(-n // MAX_POINTS)
    keep = list(range(0, n, stride))
    if keep[-1] != n - 1:
        keep.append(n - 1)
    return [xs[i] for i in keep], [ys[i] for i in keep]


def _oracle_svg(series, style, title="", xlabel="", ylabel=""):
    W, H, M = WIDTH, HEIGHT, MARGIN
    thinned = [(name, *_oracle_thin(xs, ys)) for name, xs, ys in series]
    all_x = [v for _, xs, _ in thinned for v in xs]
    all_y = [v for _, _, ys in thinned for v in ys]
    if style == "stem":
        all_y = all_y + [0.0]
    xlo, xhi = _oracle_scale(all_x)
    ylo, yhi = _oracle_scale(all_y)

    def px(v):
        return M + (v - xlo) / (xhi - xlo) * (W - 2 * M)

    def py(v):
        return H - M - (v - ylo) / (yhi - ylo) * (H - 2 * M)

    f = _oracle_fmt
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
        f'height="{H}" viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{M}" y1="{H - M}" x2="{W - M}" '
        f'y2="{H - M}" stroke="black" stroke-width="1"/>',
        f'<line x1="{M}" y1="{M}" x2="{M}" '
        f'y2="{H - M}" stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{W // 2}" y="{M // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>')
    if xlabel:
        parts.append(
            f'<text x="{W // 2}" y="{H - 15}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    if ylabel:
        parts.append(
            f'<text x="18" y="{H // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {H // 2})">{ylabel}</text>')
    parts.append(
        f'<text x="{M}" y="{H - M + 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{f(xlo)}</text>')
    parts.append(
        f'<text x="{W - M}" y="{H - M + 18}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="11">'
        f'{f(xhi)}</text>')
    parts.append(
        f'<text x="{M - 8}" y="{H - M + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{f(ylo)}</text>')
    parts.append(
        f'<text x="{M - 8}" y="{M + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{f(yhi)}</text>')
    for idx, (name, xs, ys) in enumerate(thinned):
        color = PALETTE[idx % len(PALETTE)]
        if style == "line":
            pts = " ".join(f"{f(px(x))},{f(py(y))}" for x, y in zip(xs, ys))
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        else:
            base = py(0.0)
            for x, y in zip(xs, ys):
                parts.append(
                    f'<line x1="{f(px(x))}" y1="{f(base)}" '
                    f'x2="{f(px(x))}" y2="{f(py(y))}" '
                    f'stroke="{color}" stroke-width="1"/>')
        if name:
            parts.append(
                f'<text x="{W - M}" y="{M + 16 * (idx + 1)}" '
                f'text-anchor="end" font-family="sans-serif" font-size="12" '
                f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


#: n = MAX_POINTS is drawn whole; the others are thinned with stride 2, 2,
#: 26 and 26, and (n - 1) % stride is 0, 1, 2 and 0
LENGTHS = [MAX_POINTS, MAX_POINTS + 1, MAX_POINTS + 2, 50_001, 51_975]

#: values placed at kept and dropped points: signed zeros, overflow of the
#: span, nonfinite values
SPECIAL = {"plain": [], "signed-zero": [-0.0, 0.0],
           "huge": [1.7e308, -1.7e308], "nonfinite": [math.nan, math.inf]}


def _series(n, special, seed):
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.uniform(0.0, 0.01, n))
    ys = rng.normal(0.0, 3.0, n)
    stride = -(-n // MAX_POINTS)
    for i, v in enumerate(SPECIAL[special]):
        for a in (xs, ys):
            a[[i * stride, (i + 1) * stride - 1 if stride > 1 else i + 1]] = v
            a[-1 - i] = -v
    return xs, ys


KINDS = {
    "ndarray": lambda a: a,
    "memoryview": lambda a: memoryview(a).toreadonly(),
    "list": lambda a: a.tolist(),
}


def _check(tmp_path, series, style, **labels):
    path = tmp_path / "fig.svg"
    emit_plot(series, style, path, **labels)
    # the oracle runs on np.float64 scalars for ndarray input, which warn
    # where a Python float silently overflows
    with np.errstate(all="ignore"):
        expected = _oracle_svg(series, style, **labels)
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("special", SPECIAL)
@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("style", ["line", "stem"])
def test_array_emitter_matches_pointwise_oracle(tmp_path, style, n, special,
                                                kind):
    xs, ys = _series(n, special, seed=n)
    _check(tmp_path, [("s", KINDS[kind](xs), KINDS[kind](ys))], style,
           title="t", xlabel="x", ylabel="y")


@pytest.mark.parametrize("style", ["line", "stem"])
def test_stride_zero_and_several_series_match_oracle(tmp_path, style):
    n = 50_001
    t = np.linspace(0.0, 50.0, n)
    t.flags.writeable = False
    const = np.broadcast_to(np.float64(0.4472), (n,))  # stride 0, as x1ref
    gaps = memoryview(np.broadcast_to(np.float64(0.001), (n - 1,)))
    assert const.strides == (0,) and gaps.strides == (0,)
    xs, ys = _series(4_001, "signed-zero", seed=3)
    series = [("a", t, np.sin(t)), ("ref", t, const),
              ("gaps", memoryview(t)[:-1], gaps),
              ("short", xs.tolist(), memoryview(ys)),
              ("", [0.0, 1.0], [-0.0, 2.0])]
    _check(tmp_path, series, style)


@pytest.mark.parametrize("value", [1.5, -0.0, 2.0 ** 52, 2.0 ** 52 + 1])
@pytest.mark.parametrize("style", ["line", "stem"])
def test_flat_axis_matches_oracle_where_half_unit_separates(
        tmp_path, style, value):
    _check(tmp_path, [("c", [value] * 3, [value] * 3)], style)
