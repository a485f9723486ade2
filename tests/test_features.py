"""Kinematics against closed forms, rendering geometry, synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsda.errors import ConfigError, ProtocolError
from hsda.features import (
    CHANNEL_NAMES,
    N_CHANNELS,
    RgbCanvas,
    compute_channels,
    kinematic_features,
    render_image,
    synth_generate,
    write_ppm,
    write_raw_csv,
    write_signal_csv,
)
from hsda.features.render import COLOR_FLOOR, MARGIN_PX, _minmax_unit
from hsda.ingest import StrokeSequence, clean_record, parse_raw, preprocess

FS = 200.0


def make_stroke(t_ms, x, y, p, label="HC"):
    return StrokeSequence(
        subject_id="s",
        task_id=1,
        label=label,
        t=np.asarray(t_ms, dtype=np.float64),
        x=np.asarray(x, dtype=np.float64),
        y=np.asarray(y, dtype=np.float64),
        p=np.asarray(p, dtype=np.float64),
    )


def circle_arrays(r=2.0, omega=3.0, seconds=2.0, fs=FS):
    t = np.arange(int(seconds * fs)) / fs
    return t * 1000.0, r * np.cos(omega * t), r * np.sin(omega * t), 0.5 + 0.1 * t


# ---------------------------------------------------------------------------


class TestKinematics:
    def test_circle_closed_forms(self):
        r, omega = 2.0, 3.0
        t_ms, x, y, p = circle_arrays(r, omega)
        ch = compute_channels(t_ms, x, y, p)
        interior = slice(2, -2)
        np.testing.assert_allclose(ch["speed"][interior], r * omega, rtol=1e-2)
        np.testing.assert_allclose(ch["curvature"][interior], 1.0 / r, rtol=1e-2)
        np.testing.assert_allclose(ch["angular_speed"][interior], omega, rtol=1e-2)

    def test_clockwise_circle_signs(self):
        t = np.arange(400) / FS
        ch = compute_channels(t * 1000.0, np.cos(-2 * t), np.sin(-2 * t), np.ones(400) * 0.5)
        assert np.all(ch["curvature"][2:-2] < 0)
        assert np.all(ch["angular_speed"][2:-2] < 0)

    def test_line_constant_velocity(self):
        t = np.arange(400) / FS
        ch = compute_channels(t * 1000.0, 1.0 + 2.0 * t, 3.0 * t, np.full(400, 0.7))
        np.testing.assert_allclose(ch["speed"], np.hypot(2.0, 3.0), rtol=1e-9)
        np.testing.assert_allclose(ch["acceleration"], 0.0, atol=1e-6)
        np.testing.assert_allclose(ch["curvature"], 0.0, atol=1e-6)

    def test_pressure_ramp(self):
        t = np.arange(400) / FS
        k = 4.2
        ch = compute_channels(t * 1000.0, np.sin(t), np.cos(t), k * t)
        np.testing.assert_allclose(ch["pressure_rate"], k, rtol=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ProtocolError, match="5 samples"):
            compute_channels([0, 5, 10, 15], [0, 1, 2, 3], [0, 1, 2, 3], [1, 1, 1, 1])

    def test_nonmonotone_rejected(self):
        with pytest.raises(ProtocolError, match="increasing"):
            compute_channels([0, 5, 5, 15, 20], np.zeros(5), np.zeros(5), np.ones(5))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_derivatives_rejected(self):
        # timestamps 1e-300 ms apart: the derivatives overflow to inf and nan
        t_ms = np.arange(20) * 1e-300
        stroke = make_stroke(t_ms, 0.1 * np.arange(20), np.sin(np.arange(20.0)), np.full(20, 0.5))
        for build in (kinematic_features, lambda s: render_image(s, size=16)):
            with pytest.raises(ProtocolError, match="not finite"):
                build(stroke)

    def test_signal_matrix_standardized(self):
        t_ms, x, y, p = circle_arrays()
        m = kinematic_features(make_stroke(t_ms, x, y, p))
        assert m.channels.shape == (N_CHANNELS, len(t_ms))
        for i, name in enumerate(CHANNEL_NAMES):
            row = m.channels[i]
            if np.ptp(row) == 0:
                continue
            assert abs(row.mean()) < 1e-6, name
            assert abs(row.std() - 1.0) < 1e-6, name

    def test_angle_unwrap_no_spikes(self):
        # three full revolutions cross the +/- pi seam repeatedly
        t = np.arange(600) / FS
        ch = compute_channels(t * 1000.0, np.cos(2 * np.pi * t), np.sin(2 * np.pi * t), np.ones(600))
        np.testing.assert_allclose(ch["angular_speed"][2:-2], 2 * np.pi, rtol=1e-2)

    def test_write_signal_csv(self, tmp_path):
        t_ms, x, y, p = circle_arrays(seconds=0.1)
        m = kinematic_features(make_stroke(t_ms, x, y, p))
        out = tmp_path / "sig.csv"
        write_signal_csv(m, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CHANNEL_NAMES)
        assert len(lines) == 1 + m.channels.shape[1]
        parsed = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_allclose(parsed.T, m.channels, atol=1e-6)


# ---------------------------------------------------------------------------


class TestRender:
    def test_horizontal_stroke_single_row(self):
        x = np.linspace(0.0, 1.0, 6)
        s = make_stroke(np.arange(6) * 5.0, x, np.zeros(6), np.full(6, 0.5))
        canvas = render_image(s, size=64).pixels
        lit = np.argwhere(canvas.max(axis=0) > 0)
        rows = np.unique(lit[:, 0])
        assert len(rows) == 1
        cols = np.sort(lit[:, 1])
        assert np.array_equal(cols, np.arange(cols[0], cols[-1] + 1))  # contiguous
        assert canvas.max() <= 1.0
        lit_vals = canvas[:, lit[:, 0], lit[:, 1]]
        assert lit_vals.min() >= 0.1 - 1e-12

    def test_background_exactly_zero(self):
        t_ms, x, y, p = circle_arrays()
        canvas = render_image(make_stroke(t_ms, x, y, p), size=64).pixels
        unlit = canvas.max(axis=0) == 0
        assert unlit.any()
        assert np.all(canvas[:, unlit] == 0.0)

    def test_deterministic(self):
        t_ms, x, y, p = circle_arrays()
        a = render_image(make_stroke(t_ms, x, y, p), size=96).pixels
        b = render_image(make_stroke(t_ms, x, y, p), size=96).pixels
        assert np.array_equal(a, b)

    def test_circle_centroid_at_center(self):
        t_ms, x, y, p = circle_arrays(seconds=2.1)
        canvas = render_image(make_stroke(t_ms, x, y, p), size=128).pixels
        lit = np.argwhere(canvas.max(axis=0) > 0)
        centroid = lit.mean(axis=0)
        center = (128 - 1) / 2.0
        assert abs(centroid[0] - center) <= 1.0
        assert abs(centroid[1] - center) <= 1.0

    def test_translation_scale_invariance(self):
        # grid-aligned coordinates keep the affine map exact in binary floats
        rng = np.random.default_rng(4)
        n = 50
        t_ms = np.arange(n) * 5.0
        x = rng.integers(0, 129, size=n) / 64.0
        y = rng.integers(0, 129, size=n) / 64.0
        p = np.full(n, 0.5)
        base = render_image(make_stroke(t_ms, x, y, p), size=64).pixels
        moved = render_image(
            make_stroke(t_ms, 2.0 * x + 8.0, 2.0 * y - 4.0, p), size=64
        ).pixels
        assert np.array_equal(base.max(axis=0) > 0, moved.max(axis=0) > 0)
        np.testing.assert_allclose(base, moved, atol=1e-12)

    def test_canvas_rejects_nan(self):
        with pytest.raises(ValueError, match="outside"):
            RgbCanvas(4, np.array([10]), np.array([[0.5], [np.nan], [0.5]]))

    def test_canvas_densifies_to_the_same_bytes(self):
        values = np.array([[1.0, 0.5, 0.1], [0.2, 0.3, 0.1], [0.4, 0.6, 1.0]])
        canvas = RgbCanvas(5, np.array([0, 7, 24]), values)
        assert canvas.shape == (3, 5, 5) and canvas.dtype == np.float64 and canvas.lit.dtype == np.int32
        dense = np.zeros((3, 25))
        dense[:, [0, 7, 24]] = values
        dense = dense.reshape(3, 5, 5)
        for got in (canvas.pixels, np.asarray(canvas)):
            assert got.dtype == np.float64 and got.tobytes() == dense.tobytes()
        batch = np.asarray([canvas, canvas], dtype=np.float32)
        assert batch.dtype == np.float32 and batch.tobytes() == np.stack([dense] * 2).astype(np.float32).tobytes()
        narrow = canvas.astype(np.float32)
        assert narrow.dtype == np.float32 and narrow.pixels.tobytes() == dense.astype(np.float32).tobytes()
        with pytest.raises(ValueError):
            canvas.values[0, 0] = 0.0
        with pytest.raises(ValueError):
            canvas.lit[0] = 1
        with pytest.raises(ValueError, match="copies"):
            np.asarray(canvas, copy=False)

    @pytest.mark.parametrize("size", [16, 128])
    def test_lit_is_exactly_the_painted_positions(self, size):
        n = 6
        point = make_stroke(np.arange(n) * 5.0, np.ones(n), np.ones(n), np.full(n, 0.5))
        for s in synth_generate(4, seed=0) + [point]:
            canvas = render_image(s, size=size)
            assert np.all(np.diff(canvas.lit) > 0)
            painted = np.flatnonzero(canvas.pixels.reshape(3, -1).max(axis=0) > 0)
            assert np.array_equal(canvas.lit, painted) and canvas.values.shape == (3, painted.size)
        assert list(canvas.lit) == [(size // 2) * (size + 1)]  # the point's one pixel, at the center

    def test_no_on_paper_segment_renders_an_empty_canvas(self):
        t_ms, x, y, _ = circle_arrays(seconds=0.5)
        # pen up throughout, and pen down on every other sample only
        for p in (np.zeros(len(x)), np.arange(len(x)) % 2 * 0.5):
            canvas = render_image(make_stroke(t_ms, x, y, p), size=64)
            assert canvas.lit.shape == (0,) and canvas.values.shape == (3, 0)
            assert canvas.pixels.tobytes() == np.zeros((3, 64, 64)).tobytes()

    def test_degenerate_point_single_pixel(self, caplog):
        n = 6
        s = make_stroke(np.arange(n) * 5.0, np.ones(n), np.ones(n), np.full(n, 0.5))
        canvas = render_image(s, size=32).pixels
        assert [r.getMessage() for r in caplog.records] == [
            "%s task %02d: degenerate bounding box, rendering a single pixel" % (s.subject_id, s.task_id)
        ]
        lit = np.argwhere(canvas.max(axis=0) > 0)
        assert len(lit) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_coordinates_overflowing_the_canvas_rejected(self):
        from hsda.train import build_dataset

        # finite kinematics (samples 1000 s apart), but a bounding box 4e-322
        # wide overflows the scale, one 2e308 wide overflows the extent, and
        # one from 1e308 to 1.7e308 overflows the midpoint
        for x in ([0.0, 1e-322, 2e-322, 3e-322, 4e-322], [-1e308, -5e307, 0.0, 5e307, 1e308],
                  [1e308, 1.2e308, 1.4e308, 1.6e308, 1.7e308]):
            s = make_stroke(np.arange(5) * 1e6, x, np.zeros(5), np.full(5, 0.5))
            with pytest.raises(ProtocolError, match="overflow the canvas"):
                render_image(s, size=16)
            assert build_dataset([s], canvas_size=16) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_color_range_overflow_rejected(self, tmp_path):
        from hsda.train import build_dataset

        # a csv-v1 block whose kinematic channels reach ~1e307: max - min overflows
        raw = tmp_path / "huge.csv"
        raw.write_text(
            "b,1,HC\n5.0,1.7209468052432864,2.73632478879006e+306,1.7663251912448072\n"
            "10.0,-0.9456473628377351,nan,nan\n15.0,-0.8353136472004867,1.647384273614417,nan\n"
            "20.0,-2.7583151453487083e+307,0.49288909900051836,-4.185414248360619e+305\n"
            "25.0,0.20353927046150133,1.0921792778097412,8.204900731387431e+305\n"
            "35.0,1.169467856889077,1.752644835086882,-0.521113075241252\n"
        )
        (s,) = preprocess(parse_raw(str(raw)))
        with pytest.raises(ProtocolError, match="color scale"):
            render_image(s, size=16)
        assert build_dataset([s], canvas_size=16) == []

    def test_pen_up_segments_not_drawn(self):
        n = 11
        x = np.linspace(0, 1, n)
        p = np.full(n, 0.5)
        p[4:7] = 0.0  # lift the pen mid-stroke
        s = make_stroke(np.arange(n) * 5.0, x, np.zeros(n), p)
        canvas = render_image(s, size=64).pixels
        cols = np.sort(np.unique(np.argwhere(canvas.max(axis=0) > 0)[:, 1]))
        gaps = np.diff(cols)
        assert gaps.max() > 1  # a hole where the pen was up

    def test_ppm_roundtrip(self, tmp_path):
        t_ms, x, y, p = circle_arrays()
        canvas = render_image(make_stroke(t_ms, x, y, p), size=48)
        path = tmp_path / "img.ppm"
        write_ppm(canvas, path)
        data = path.read_bytes()
        assert data.startswith(b"P6\n48 48\n255\n")
        back = np.frombuffer(data[len(b"P6\n48 48\n255\n") :], dtype=np.uint8)
        back = back.reshape(48, 48, 3).transpose(2, 0, 1) / 255.0
        np.testing.assert_allclose(back, canvas.pixels, atol=1.0 / 255.0 + 1e-12)



def bresenham(r0, c0, r1, c1):
    """Integer line from (r0,c0) to (r1,c1), both endpoints included."""
    dr = abs(r1 - r0)
    dc = abs(c1 - c0)
    sr = 1 if r0 < r1 else -1
    sc = 1 if c0 < c1 else -1
    err = dr - dc
    r, c = r0, c0
    while True:
        yield r, c
        if r == r1 and c == c1:
            return
        e2 = 2 * err
        if e2 > -dc:
            err -= dc
            r += sr
        if e2 < dr:
            err += dr
            c += sc


def loop_render(s, size):
    """Reference renderer: one Bresenham line per resampled step, painted in a Python loop."""
    raw = compute_channels(s.t, s.x, s.y, s.p)
    colors = np.stack(
        [
            _minmax_unit(raw["pressure_rate"]),
            _minmax_unit(raw["acceleration"]),
            _minmax_unit(raw["angular_speed"]),
        ]
    )
    colors = COLOR_FLOOR + (1.0 - COLOR_FLOOR) * colors
    x, y = s.x, s.y
    xmin, xmax, ymin, ymax = x.min(), x.max(), y.min(), y.max()
    extent = max(xmax - xmin, ymax - ymin)
    canvas = np.zeros((3, size, size))
    center = (size - 1) / 2.0
    assert extent > 0.0, "the oracle covers non-degenerate traces only"
    scale = (size - 1 - 2 * MARGIN_PX) / extent
    col = (x - (xmin + xmax) / 2.0) * scale + center
    row = center - (y - (ymin + ymax) / 2.0) * scale
    on_paper = s.p > 0
    for i in range(len(x) - 1):
        if not (on_paper[i] and on_paper[i + 1]):
            continue
        seg = np.hypot(row[i + 1] - row[i], col[i + 1] - col[i])
        n_pts = max(2, int(np.ceil(seg)) + 1)
        ts = np.linspace(0.0, 1.0, n_pts)
        rr = row[i] + ts * (row[i + 1] - row[i])
        cc = col[i] + ts * (col[i + 1] - col[i])
        for j in range(n_pts - 1):
            color = colors[:, i] if ts[j] < 0.5 else colors[:, i + 1]
            for pr, pc in bresenham(
                int(round(rr[j])), int(round(cc[j])), int(round(rr[j + 1])), int(round(cc[j + 1]))
            ):
                if 0 <= pr < size and 0 <= pc < size:
                    canvas[:, pr, pc] = color
    return canvas


@st.composite
def lattice_walks(draw):
    """Canvas size and a pen walk whose samples map onto the half-pixel lattice.

    Two pen-up anchors pin the bounding box to (size - 1 - 2 * MARGIN_PX) units,
    so the canvas scale is exactly 1 and every sample lands on a multiple of
    half a pixel, where rounding half to even turns 1-px steps into 2-px ones.
    """
    size = draw(st.sampled_from([32, 64, 128]))
    span = size - 1 - 2 * MARGIN_PX
    n = draw(st.integers(3, 40))
    step = st.integers(-6, 6).map(lambda k: k / 2.0)  # up to 3 px per axis
    x = [draw(st.integers(0, 2 * span)) / 2.0]
    y = [draw(st.integers(0, 2 * span)) / 2.0]
    for _ in range(n - 1):
        x.append(min(span, max(0.0, x[-1] + draw(step))))
        y.append(min(span, max(0.0, y[-1] + draw(step))))
    p = [draw(st.sampled_from([0.0, 0.5, 0.5, 0.5])) for _ in range(n)]
    return size, [0.0, span] + x, [0.0, span] + y, [0.0, 0.0] + p


class TestRenderMatchesLoop:
    @pytest.mark.parametrize("size", [32, 64, 128])
    def test_synth_records_both_classes(self, size):
        records = synth_generate(2, seed=9)
        assert {s.label for s in records} == {"HC", "AD"}
        for s in records:
            assert np.array_equal(render_image(s, size=size).pixels, loop_render(s, size))

    @settings(max_examples=150, deadline=None)
    @given(lattice_walks())
    def test_half_pixel_lattice_walks(self, walk):
        size, x, y, p = walk
        s = make_stroke(np.arange(len(x)) * 5.0, x, y, p)
        assert np.array_equal(render_image(s, size=size).pixels, loop_render(s, size))

    def test_all_pen_up_is_blank(self):
        t_ms, x, y, _ = circle_arrays(seconds=0.5)
        s = make_stroke(t_ms, x, y, np.zeros(len(x)))
        canvas = render_image(s, size=64).pixels
        assert not canvas.any()
        assert np.array_equal(canvas, loop_render(s, 64))

    def test_single_on_paper_segment(self):
        x, y = [0.0, 3.7, 5.0, 6.0, 2.0], [0.0, 1.3, 2.0, 4.0, 1.0]
        s = make_stroke(np.arange(5) * 5.0, x, y, [0.0, 0.5, 0.5, 0.0, 0.0])
        canvas = render_image(s, size=64).pixels
        assert canvas.any()
        assert np.array_equal(canvas, loop_render(s, 64))

    def test_rounded_two_pixel_steps_light_the_middle(self):
        # columns 4, 61.5, 63.5, 65.5, 67.5, 123: the resampled points of the
        # inner segments sit on half pixels and round to steps of 2
        x = [-59.5, -2.0, 0.0, 2.0, 4.0, 59.5]
        s = make_stroke(np.arange(6) * 5.0, x, np.zeros(6), np.full(6, 0.5))
        canvas = render_image(s, size=128).pixels
        assert np.array_equal(canvas, loop_render(s, 128))
        cols = np.unique(np.argwhere(canvas.max(axis=0) > 0)[:, 1])
        assert np.array_equal(cols, np.arange(4, 124))


def read_back(strokes, tmp_path):
    """The strokes as every command sees them: written as csv-v1, parsed, preprocessed."""
    path = tmp_path / "strokes.csv"
    write_raw_csv(strokes, path)
    return preprocess(parse_raw(path))


class TestRenderFromCsv:
    def test_pen_up_samples_not_drawn(self, tmp_path):
        # two strokes on the baseline; between them the pen lifts and arcs above it
        n = 20
        x = np.r_[np.linspace(0.0, 0.4, n), np.linspace(0.4, 0.6, n), np.linspace(0.6, 1.0, n)]
        y = np.r_[np.zeros(n), 0.5 * np.sin(np.linspace(0.0, np.pi, n)), np.zeros(n)]
        p = np.r_[np.full(n, 0.6), np.zeros(n), np.full(n, 0.6)]
        (s,) = read_back([make_stroke(np.arange(3 * n) * 5.0, x, y, p)], tmp_path)
        lit = np.argwhere(render_image(s, size=64).pixels.max(axis=0) > 0)
        assert len(np.unique(lit[:, 0])) == 1  # the baseline only

    def test_tall_letter_stays_tall(self, tmp_path):
        # an "L": a stem 1.5 tall, then a foot 0.3 wide
        x = np.r_[np.zeros(30), np.linspace(0.0, 0.3, 10)[1:]]
        y = np.r_[np.linspace(1.5, 0.0, 30), np.zeros(9)]
        (s,) = read_back([make_stroke(np.arange(39) * 5.0, x, y, np.full(39, 0.5))], tmp_path)
        lit = np.argwhere(render_image(s, size=64).pixels.max(axis=0) > 0)
        height, width = np.ptp(lit, axis=0) + 1
        assert (height, width) == (56, 12)

    def test_unrepaired_records_match_the_in_memory_path(self, tmp_path):
        records = synth_generate(60, seed=42)
        path = tmp_path / "synth.csv"
        write_raw_csv(records, path)
        compared = 0
        for memory, raw in zip(records, parse_raw(path)):
            read, outliers = clean_record(raw, z_max=6.0)
            if outliers:
                continue
            compared += 1
            lit_memory = render_image(memory, size=128).pixels.max(axis=0) > 0
            lit_read = render_image(read, size=128).pixels.max(axis=0) > 0
            assert np.array_equal(lit_read, lit_memory), memory.subject_id
            # the csv keeps 9 significant digits
            np.testing.assert_allclose(
                kinematic_features(read).channels, kinematic_features(memory).channels, rtol=0, atol=1e-2
            )
        assert compared == 115


# ---------------------------------------------------------------------------


def band_power(v: np.ndarray, fs: float, lo: float, hi: float) -> float:
    # Hann-tapered periodogram; without the taper, leakage from the large
    # low-frequency component buries the tremor band entirely.
    v = (v - v.mean()) * np.hanning(len(v))
    spec = np.abs(np.fft.rfft(v)) ** 2 / len(v)
    freqs = np.fft.rfftfreq(len(v), d=1.0 / fs)
    mask = (freqs >= lo) & (freqs <= hi)
    return float(spec[mask].mean())


class TestSynth:
    def test_balanced_labels(self):
        recs = synth_generate(7, seed=0)
        labels = [seq.label for seq in recs]
        assert labels.count("HC") == 7 and labels.count("AD") == 7
        assert labels == ["HC"] * 7 + ["AD"] * 7

    def test_sampling_and_duration(self):
        for seq in synth_generate(3, seed=1):
            dt = np.diff(seq.t)
            np.testing.assert_allclose(dt, 5.0, atol=1e-9)  # 200 Hz in ms
            lo, hi = (3.8, 5.0) if seq.label == "AD" else (2.0, 3.2)
            assert lo * 200 <= len(seq) <= hi * 200
            assert np.all(seq.p > 0)

    def test_impaired_motor_signature(self):
        # the class cues the generator promises: slower strokes, fatiguing
        # pressure, and a duration gap wide enough to survive augmentation
        recs = synth_generate(8, seed=3)
        speed = {"HC": [], "AD": []}
        slope = {"HC": [], "AD": []}
        length = {"HC": [], "AD": []}
        w = np.ones(25) / 25.0  # 125 ms box kills the tremor band
        for seq in recs:
            label = seq.label
            xs = np.convolve(seq.x, w, mode="valid")
            ys = np.convolve(seq.y, w, mode="valid")
            v = np.hypot(np.diff(xs), np.diff(ys)) * FS
            speed[label].append(np.mean(v))
            u = np.linspace(0.0, 1.0, len(seq))
            slope[label].append(np.polyfit(u, seq.p, 1)[0])
            length[label].append(len(seq))
        assert max(speed["AD"]) < min(speed["HC"])
        assert max(slope["AD"]) < min(slope["HC"])
        assert max(length["HC"]) < min(length["AD"])

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_raw_csv(synth_generate(4, seed=9), a)
        write_raw_csv(synth_generate(4, seed=9), b)
        assert a.read_bytes() == b.read_bytes()
        write_raw_csv(synth_generate(4, seed=10), b)
        assert a.read_bytes() != b.read_bytes()

    def test_tremor_band_separation(self):
        recs = synth_generate(12, seed=42)
        power = {"HC": [], "AD": []}
        for seq in recs:
            px = band_power(seq.x, FS, 8.0, 12.0)
            py = band_power(seq.y, FS, 8.0, 12.0)
            power[seq.label].append(px + py)
        ratio = np.mean(power["AD"]) / np.mean(power["HC"])
        assert ratio >= 3.0

    def test_roundtrip_through_parser(self, tmp_path):
        recs = synth_generate(3, seed=5)
        path = tmp_path / "synth.csv"
        write_raw_csv(recs, path)
        parsed = parse_raw(path)
        assert len(parsed) == len(recs)
        for seq, raw in zip(recs, parsed):
            assert raw.label == seq.label
            assert raw.subject_id == seq.subject_id
            assert len(raw) == len(seq)
            np.testing.assert_allclose(raw.x, seq.x, rtol=1e-6)
            np.testing.assert_allclose(raw.p, seq.p, rtol=1e-6)

    def test_n_per_class_guard(self):
        with pytest.raises(ConfigError):
            synth_generate(0, seed=0)
