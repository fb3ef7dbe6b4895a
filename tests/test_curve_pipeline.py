"""The curve drivers' producer ring against the step loop it replaced.

``curve_oracle`` keeps the old loop: one ``standard_normal(dim)`` draw per
step, squared for a second moment, and one ``ema_step`` per config. The
drivers now take each step's signal from the generator
``simlab._signal_rows``, whose producer thread fills a ring of chunks ahead
of the caller; the signal rows and every curve must equal the oracle's bit
for bit (``==`` on floats), over chunk layouts that put schedule boundaries
inside chunks and end trials on short chunks. The lifecycle tests check
that no producer thread outlives a call and that errors from either thread
reach the caller.
"""

import contextlib
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from emastall import simlab
from emastall.formats import PRESETS, RoundingMode
from emastall.simlab import (
    GradientStream,
    GradientStreamSpec,
    default_ema_config,
    run_first_moment_curves,
    run_stall_curve,
    run_stall_curves,
)

import curve_oracle as oracle

NR, SR = RoundingMode.NEAREST_EVEN, RoundingMode.STOCHASTIC
JOIN_S = 60

# (dim, ring bytes or None for the default ring, steps): dim 64 gets chunks
# of up to 512 steps, so 515 steps end each trial on a 3-step chunk; the
# 1280-byte ring gives dim 8 chunks of 5 steps in 4 buffers, so 12 steps end
# each trial on a 2-step chunk; dim 33000 gets one step per chunk in 3
# buffers
LAYOUTS = [
    (64, None, 1),
    (64, None, 7),
    (64, None, 515),
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
    # segment ends fall inside 5-step chunks; the last factor then holds.
    # No factor is a power of two, so scaling by factor and by scales in
    # turn would round differently from one product factor * scales
    "piecewise": {"kind": "piecewise", "schedule": ((3, 1.5), (4, 0.3), (2, 7.0))},
}


def _spec(dim, stream):
    return GradientStreamSpec(dimension=dim, seed=5, **STREAMS[stream])


def _emas(second_moment):
    beta = 0.99 if second_moment else 0.9
    names = [n for n in PRESETS if second_moment or PRESETS[n].sign_bits]
    return [default_ema_config(n, beta, r) for n in names for r in (NR, SR)] + [
        default_ema_config(None, beta)
    ]


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
    (10_000, None, 200, 3, 4),
    (64, None, 7, 7, 2),  # one chunk per trial
    (64, None, 600, 512, 4),
    (8, 1280, 12, 5, 4),
    (33_000, None, 3, 1, 3),
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
            return [_bits(row) for row in signals]

    assert _bounded(rows) == want


@pytest.mark.parametrize("driver,second_moment", [
    (run_stall_curves, True),
    (run_first_moment_curves, False),
], ids=["stall", "first-moment"])
@pytest.mark.parametrize("stream", list(STREAMS))
@pytest.mark.parametrize("dim,ring,steps", LAYOUTS, ids=LAYOUT_IDS)
def test_curves_equal_oracle(dim, ring, steps, stream, driver, second_moment,
                             monkeypatch):
    if ring is not None:
        monkeypatch.setattr(simlab, "_RING_BYTES", ring)
    spec, emas = _spec(dim, stream), _emas(second_moment)
    results = _bounded(driver, spec, emas, steps, trials=2)
    want = oracle.curve_fractions(spec, emas, steps, 2, second_moment)
    for result, fracs in zip(results, want):
        assert result.series["stalled_fraction"] == fracs.tolist()
        assert result.metrics["measured_floor"] == fracs[0]


def test_draw_equals_oracle_draw():
    spec = _spec(16, "piecewise")
    gs, ref = GradientStream(spec, 1), oracle.OracleStream(spec, 1)
    for _ in range(12):
        assert _bits(gs.draw()) == _bits(ref.draw())


class TestLifecycle:
    def test_no_thread_outlives_a_call(self):
        baseline = threading.active_count()
        _bounded(run_stall_curve, _spec(64, "iid"), default_ema_config("bf16", 0.99), 5)
        assert threading.active_count() == baseline

    def test_overflowing_stream_raises_only_the_value_error(self):
        # g * g overflows; the producer squares under errstate, so no
        # RuntimeWarning comes before the one-line error, even as an error
        baseline = threading.active_count()
        spec = GradientStreamSpec(dimension=8, seed=0, sigma=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite or overflowing signal"):
                _bounded(run_stall_curve, spec, default_ema_config("bf16", 0.999), 10)
        assert threading.active_count() == baseline

    def test_caller_error_mid_run_stops_the_producer(self, monkeypatch):
        # 5-step chunks in 4 buffers: by the time the caller fails at step
        # 7, holding chunk 1, the producer has filled chunk 4 and has no
        # free buffer left to wait for
        monkeypatch.setattr(simlab, "_RING_BYTES", 1280)
        fill, step = GradientStream.fill, simlab.ema_step
        fills, steps, ring_full = [], [], threading.Event()

        def counted_fill(self, out):
            fills.append(1)
            if len(fills) == 5:
                ring_full.set()
            return fill(self, out)

        def failing_step(*args, **kwargs):
            steps.append(1)
            if len(steps) == 7:
                assert ring_full.wait(JOIN_S)
                raise ValueError("caller failed")
            return step(*args, **kwargs)

        monkeypatch.setattr(GradientStream, "fill", counted_fill)
        monkeypatch.setattr(simlab, "ema_step", failing_step)
        baseline = threading.active_count()
        with pytest.raises(ValueError, match="caller failed"):
            _bounded(run_stall_curve, _spec(8, "iid"), default_ema_config("bf16", 0.99),
                     200)
        assert threading.active_count() == baseline
        assert len(fills) == 5

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
            _bounded(run_stall_curve, _spec(8, "iid"), default_ema_config("bf16", 0.99),
                     200)
        assert threading.active_count() == baseline

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity API")
    def test_caller_affinity_is_untouched(self):
        before = os.sched_getaffinity(0)
        _bounded(run_stall_curve, _spec(64, "iid"), default_ema_config("bf16", 0.99), 5)
        assert os.sched_getaffinity(0) == before

    def test_worker_cpus_leave_out_one_allowed_cpu(self):
        cpus = simlab._worker_cpus()
        if cpus is not None:
            allowed = os.sched_getaffinity(0)
            assert cpus < allowed and len(allowed - cpus) == 1

    def test_unplaceable_producer_gives_the_same_curve(self, monkeypatch):
        spec, ema = _spec(64, "mu"), default_ema_config("fp8_e4m3", 0.99, SR)
        placed = _bounded(run_stall_curve, spec, ema, 9, trials=2)
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        assert simlab._worker_cpus() is None
        unplaced = _bounded(run_stall_curve, spec, ema, 9, trials=2)
        assert unplaced.series == placed.series


def test_concurrent_calls_under_fast_switching(monkeypatch):
    # more callers than cores, each with its own ring of 5-step chunks and a
    # one-step-ahead window; a row handed out before it was filled, or
    # overwritten while read, would change some curve
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
