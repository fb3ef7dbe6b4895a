"""Reference step loop of the curve drivers for equivalence tests.

``OracleStream`` is the gradient stream as it drew before the producer
ring: one ``standard_normal(dim)`` call per step, scaled as
``factor * scales * (mu + xi)``. ``curve_fractions`` is the old
``simlab._curve_results`` loop: per trial, one draw per step, squared for a
second moment, and one single-state step per config, taken by the frozen
reference engine (``engine_oracle.ema_step`` on an ``OracleState``), so the
oracle shares no store code with the drivers. The curve drivers must
reproduce its per-step stalled fractions bit for bit.
"""

from __future__ import annotations

import numpy as np

from emastall.simlab import _KEY_GRAD, _KEY_ROUND, _KEY_SCALES

from engine_oracle import OracleState, ema_step


class OracleStream:
    def __init__(self, spec, trial=0):
        self.spec = spec
        scale_rng = np.random.default_rng([spec.seed, trial, _KEY_SCALES])
        u = scale_rng.random(spec.dimension)
        self.scales = spec.sigma * np.exp2(u * spec.sigma_binades)
        self._rng = np.random.default_rng([spec.seed, trial, _KEY_GRAD])
        self._t = 0

    def _segment_factor(self):
        if self.spec.kind != "piecewise":
            return 1.0
        t = self._t
        for steps, factor in self.spec.schedule:
            if t < steps:
                return factor
            t -= steps
        return self.spec.schedule[-1][1]

    def draw(self):
        factor = self._segment_factor()
        self._t += 1
        xi = self._rng.standard_normal(self.spec.dimension)
        return factor * self.scales * (self.spec.mu + xi)


def curve_fractions(stream, emas, steps, trials, second_moment):
    """(len(emas), steps) stalled fractions averaged over trials."""
    acc = np.zeros((len(emas), steps))
    for trial in range(trials):
        gs = OracleStream(stream, trial)
        rngs = [np.random.default_rng([stream.seed, trial, _KEY_ROUND]) for _ in emas]
        states = [OracleState.initialize(ema, stream.dimension) for ema in emas]
        for t in range(steps):
            g = gs.draw()
            signal = g * g if second_moment else g
            for c, rng in enumerate(rngs):
                states[c], frac = ema_step(states[c], signal, rng)
                acc[c, t] += frac
    return acc / trials
