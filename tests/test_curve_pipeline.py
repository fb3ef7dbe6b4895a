"""The curve drivers' producer ring against the step loop it replaced.

``curve_oracle`` keeps the old loop: one ``standard_normal(dim)`` draw per
step, squared for a second moment, and one reference-engine ``ema_step``
per config. The drivers now take each step's signal from the generator
``simlab._signal_rows``, whose producer thread fills two chunk buffers in
turn, one chunk ahead of the caller, and step each config in its own
in-place store; the signal rows and every curve must equal the oracle's
bit for bit (``==`` on floats), for every preset and rounding mode, custom
formats and one to three trials, over chunk layouts that put schedule
boundaries inside chunks and end trials on short chunks. The lifecycle tests check that no producer
thread outlives a call and that errors from either thread reach the caller.
"""

import contextlib
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from emastall import engine, simlab
from emastall.engine import EmaConfig
from emastall.formats import PRESETS, FpFormat, RoundingMode
from emastall.quantize import ScalingMode, ScalingScheme
from emastall.simlab import (
    GradientStream,
    GradientStreamSpec,
    default_ema_config,
    run_first_moment_curves,
    run_stall_curves,
)

import curve_oracle as oracle

NR, SR = RoundingMode.NEAREST_EVEN, RoundingMode.STOCHASTIC
JOIN_S = 60

# (dim, ring bytes or None for the default ring, steps): the ring is two
# chunk buffers. A 512 KB ring gives dim 64 chunks of 512 steps, so 515
# steps end each trial on a 3-step chunk; the 1280-byte ring gives dim 8
# chunks of 10 steps, so 12 steps end each trial on a 2-step chunk; dim
# 33000 gets one step per chunk
LAYOUTS = [
    (64, None, 1),
    (64, None, 7),
    (64, 1 << 19, 515),
    (8, 1280, 1),
    (8, 1280, 3),
    (8, 1280, 12),
    (33_000, None, 1),
    (33_000, None, 3),
]
LAYOUT_IDS = [f"dim{d}-{'ring' if r else 'default'}-steps{s}" for d, r, s in LAYOUTS]
STREAMS = {
    "iid": {},
    "mu": {"mu": 0.75},
    # segment ends fall inside 10-step chunks; the last factor then holds.
    # No factor is a power of two, so scaling by factor and by scales in
    # turn would round differently from one product factor * scales
    "piecewise": {"kind": "piecewise", "schedule": ((3, 1.5), (4, 0.3), (2, 7.0))},
}


def _spec(dim, stream):
    return GradientStreamSpec(dimension=dim, seed=5, **STREAMS[stream])


# custom formats: a signed E3M2 whose 16-element block scales follow the
# proposal, and an unsigned E2M3 without zero or subnormals under frozen
# 16-element block anchors, which saturate
E3M2 = FpFormat("e3m2", 1, 3, 2, 3)
E2M3U = FpFormat("e2m3u", 0, 2, 3, 1, has_subnormals=False, exclude_zero=True)
BLOCK16 = ScalingScheme(ScalingMode.BLOCKWISE, 16)


def _emas(second_moment):
    # every preset under both rounding modes (an unsigned one clamps a
    # signed first moment at its bottom point), the custom formats and the
    # full-precision control
    beta = 0.99 if second_moment else 0.9
    return [default_ema_config(n, beta, r) for n in PRESETS for r in (NR, SR)] + [
        EmaConfig(beta, E3M2, BLOCK16, r) for r in (NR, SR)
    ] + [
        EmaConfig(beta, E2M3U, BLOCK16, r, freeze_scale=True, init_scale=2.0)
        for r in (NR, SR)
    ] + [default_ema_config(None, beta)]


def _bounded(fn, *args, **kwargs):
    """fn(*args, **kwargs) on a helper thread joined with a timeout; the
    helper is a daemon, so a hung call fails the test, not the whole run."""
    out = {}

    def target():
        try:
            out["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # handed back to the test below
            out["error"] = exc

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(JOIN_S)
    assert not helper.is_alive(), "curve call did not finish"
    if "error" in out:
        raise out["error"]
    return out["value"]


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64).tolist()


@pytest.mark.parametrize("dim,ring,steps,chunk,n_bufs", [
    (10_000, None, 200, 6, 2),
    (64, None, 7, 7, 2),  # one chunk per trial
    (64, None, 2100, 1024, 2),
    (8, 1280, 12, 10, 2),
    (33_000, None, 3, 1, 2),
])
def test_ring_layout(dim, ring, steps, chunk, n_bufs, monkeypatch):
    # chunks of `chunk` steps end at trial ends; holding the first row, the
    # caller leaves the producer n_bufs buffers to fill before it waits
    if ring is not None:
        monkeypatch.setattr(simlab, "_RING_BYTES", ring)
    per_trial = [chunk] * (steps // chunk) + ([steps % chunk] if steps % chunk else [])
    fill, fills, filled = GradientStream.fill, [], threading.Event()

    def counted_fill(self, out):
        fills.append(len(out))
        if len(fills) == n_bufs:
            filled.set()
        return fill(self, out)

    monkeypatch.setattr(GradientStream, "fill", counted_fill)

    def rows():
        with contextlib.closing(
            simlab._signal_rows(_spec(dim, "iid"), steps, 2, True)
        ) as signals:
            next(signals)
            assert filled.wait(JOIN_S)
            time.sleep(0.1)  # room for a fill the ring should not allow
            assert len(fills) == n_bufs
            assert sum(1 for _ in signals) == steps * 2 - 1

    _bounded(rows)
    assert fills == per_trial * 2


@pytest.mark.parametrize("second_moment", [True, False], ids=["second", "first"])
@pytest.mark.parametrize("stream", list(STREAMS))
@pytest.mark.parametrize("dim,ring,steps", LAYOUTS, ids=LAYOUT_IDS)
def test_ring_rows_equal_step_by_step_draws(dim, ring, steps, stream, second_moment,
                                            monkeypatch):
    if ring is not None:
        monkeypatch.setattr(simlab, "_RING_BYTES", ring)
    spec, trials = _spec(dim, stream), 2
    want = []
    for trial in range(trials):
        gs = oracle.OracleStream(spec, trial)
        for _ in range(steps):
            g = gs.draw()
            want.append(_bits(g * g if second_moment else g))

    def rows():
        with contextlib.closing(
            simlab._signal_rows(spec, steps, trials, second_moment)
        ) as signals:
            return [_bits(row[0, 0]) for row in signals]

    assert _bounded(rows) == want


DRIVERS = pytest.mark.parametrize("driver,second_moment", [
    (run_stall_curves, True),
    (run_first_moment_curves, False),
], ids=["stall", "first-moment"])


def _check_curves(dim, ring, steps, stream, driver, second_moment, trials, monkeypatch):
    # every config in one multi-format call
    if ring is not None:
        monkeypatch.setattr(simlab, "_RING_BYTES", ring)
    spec, emas = _spec(dim, stream), _emas(second_moment)
    results = _bounded(driver, spec, emas, steps, trials=trials)
    want = oracle.curve_fractions(spec, emas, steps, trials, second_moment)
    for result, fracs in zip(results, want):
        assert result.series["stalled_fraction"] == fracs.tolist()
        assert result.metrics["measured_floor"] == fracs[0]


@DRIVERS
@pytest.mark.parametrize("stream", list(STREAMS))
@pytest.mark.parametrize("dim,ring,steps", LAYOUTS, ids=LAYOUT_IDS)
def test_curves_equal_oracle(dim, ring, steps, stream, driver, second_moment,
                             monkeypatch):
    _check_curves(dim, ring, steps, stream, driver, second_moment, 2, monkeypatch)


# the layouts above but the 515-step one, whose trials run long
SHORT = [(layout, i) for layout, i in zip(LAYOUTS, LAYOUT_IDS) if layout[2] < 100]


@pytest.mark.parametrize("trials", [1, 3])
@DRIVERS
@pytest.mark.parametrize("stream", list(STREAMS))
@pytest.mark.parametrize("dim,ring,steps", [layout for layout, _ in SHORT],
                         ids=[i for _, i in SHORT])
def test_curves_equal_oracle_over_trials(dim, ring, steps, stream, driver,
                                         second_moment, trials, monkeypatch):
    # a trial's stores start from fresh states and rounding streams
    _check_curves(dim, ring, steps, stream, driver, second_moment, trials,
                  monkeypatch)


def test_draw_equals_oracle_draw():
    spec = _spec(16, "piecewise")
    gs, ref = GradientStream(spec, 1), oracle.OracleStream(spec, 1)
    for _ in range(12):
        assert _bits(gs.draw()) == _bits(ref.draw())


@pytest.mark.parametrize("kwargs", [
    {"mu": 0.5},
    # segment ends at steps 4, 9 and 11 fall inside the blocks below
    {"kind": "piecewise", "mu": 0.5, "schedule": ((4, 1.5), (5, 0.3), (2, 7.0))},
    # a factor of 1.0 scales by scales alone
    {"kind": "piecewise", "schedule": ((4, 1.0), (5, 0.3))},
], ids=["mu", "piecewise-mu", "piecewise-unit"])
def test_fill_equals_oracle_draws(kwargs):
    # blocks of 6, 6, 1 and 5 rows, as a double-buffered ring fills them
    spec = GradientStreamSpec(dimension=37, seed=11, **kwargs)
    gs, ref = GradientStream(spec, 2), oracle.OracleStream(spec, 2)
    for n in (6, 6, 1, 5):
        for row in gs.fill(np.empty((n, 37))):
            assert _bits(row) == _bits(ref.draw())


def test_proposal_bits_ignore_the_sign_of_a_zero_signal():
    # fill skips adding mu = 0, which could only leave a -0.0 draw where
    # adding it gives +0.0; no proposal may tell the two apart
    x = np.array([0.0, -0.0, 1.5, -(2.0 ** -1074), 3e300, -7.25])
    for beta in (0.9, 0.999):
        plus = engine._proposal(x, np.zeros_like(x), 1.0 - beta)
        minus = engine._proposal(x, np.full_like(x, -0.0), 1.0 - beta)
        assert _bits(plus) == _bits(minus)


class TestLifecycle:
    def test_no_thread_outlives_a_call(self):
        baseline = threading.active_count()
        _bounded(run_stall_curves, _spec(64, "iid"), [default_ema_config("bf16", 0.99)],
                 5)
        assert threading.active_count() == baseline

    def test_overflowing_stream_raises_only_the_value_error(self):
        # g * g overflows; the producer squares under errstate, so no
        # RuntimeWarning comes before the one-line error, even as an error
        baseline = threading.active_count()
        spec = GradientStreamSpec(dimension=8, seed=0, sigma=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite or overflowing signal"):
                _bounded(run_stall_curves, spec, [default_ema_config("bf16", 0.999)], 10)
        assert threading.active_count() == baseline

    def test_caller_error_mid_run_stops_the_producer(self, monkeypatch):
        # 10-step chunks in 2 buffers: by the time the caller fails at step
        # 7, holding chunk 1, the producer has filled chunk 2 and has no
        # free buffer left to wait for
        monkeypatch.setattr(simlab, "_RING_BYTES", 1280)
        fill, store = GradientStream.fill, engine._Store.store
        fills, steps, ring_full = [], [], threading.Event()

        def counted_fill(self, out):
            fills.append(1)
            if len(fills) == 2:
                ring_full.set()
            return fill(self, out)

        def failing_store(self, proposal):
            steps.append(1)
            if len(steps) == 7:
                assert ring_full.wait(JOIN_S)
                raise ValueError("caller failed")
            return store(self, proposal)

        monkeypatch.setattr(GradientStream, "fill", counted_fill)
        monkeypatch.setattr(engine._Store, "store", failing_store)
        baseline = threading.active_count()
        with pytest.raises(ValueError, match="caller failed"):
            _bounded(run_stall_curves, _spec(8, "iid"),
                     [default_ema_config("bf16", 0.99)], 200)
        assert threading.active_count() == baseline
        assert len(fills) == 2

    def test_producer_error_is_raised_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(simlab, "_RING_BYTES", 1280)
        fill = GradientStream.fill
        calls = []

        def failing_fill(self, out):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("producer failed")
            return fill(self, out)

        monkeypatch.setattr(GradientStream, "fill", failing_fill)
        baseline = threading.active_count()
        with pytest.raises(RuntimeError, match="producer failed"):
            _bounded(run_stall_curves, _spec(8, "iid"),
                     [default_ema_config("bf16", 0.99)], 200)
        assert threading.active_count() == baseline

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity API")
    def test_caller_affinity_is_untouched(self):
        before = os.sched_getaffinity(0)
        _bounded(run_stall_curves, _spec(64, "iid"), [default_ema_config("bf16", 0.99)],
                 5)
        assert os.sched_getaffinity(0) == before


def test_concurrent_calls_under_fast_switching(monkeypatch):
    # more callers than cores, each with its own two buffers of 10-step
    # chunks; a row handed out before it was filled, or overwritten while
    # read, would change some curve
    monkeypatch.setattr(simlab, "_RING_BYTES", 1280)
    emas = _emas(True)[:4]
    cases = [_spec(8, s) for s in STREAMS] * 2
    want = [oracle.curve_fractions(spec, emas, 40, 2, True).tolist() for spec in cases]
    got = [None] * len(cases)

    def run(i):
        got[i] = [r.series["stalled_fraction"]
                  for r in run_stall_curves(cases[i], emas, 40, trials=2)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=run, args=(i,), daemon=True)
                   for i in range(len(cases))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(JOIN_S)
        assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(interval)
    assert got == want
