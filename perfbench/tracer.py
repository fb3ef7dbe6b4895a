"""Span tracing from outside the package, and the per-layer metrics.

``Tracer.install`` replaces each traced public name with a wrapper in every
module where a caller looks it up (``emastall.engine.quantize`` as well as
``emastall.quantize.quantize``), and on classes for methods; ``restore``
puts the originals back. A wrapper records one span (name, start, end,
parent, info) in memory; ``info`` holds the counts taken at that boundary.
Wrappers never touch an RNG, so traced outputs must equal untraced ones.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns

LAYERS = ("formats", "quantize", "engine", "theory", "simlab", "cli")
MODULES = tuple(f"emastall.{m}" for m in LAYERS)
PRESET_MODES = tuple(f"{p}.{m}" for p in ("bf16", "fp8_e4m3", "fp4_e2m1", "fp4_e2m2u")
                     for m in ("nr", "sr"))


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _grid_count(mode):
    def count(tracer, args, kwargs, result):
        grid, mag = args[0], _arg(args, kwargs, 1, "mag")
        return (f"{tracer.grid_names.get(id(grid), 'custom')}.{mode}", mag.size)
    return count


def _write_count(tracer, args, kwargs, result):
    return (len(result.codes), len(result.scales))


def _read_count(tracer, args, kwargs, result):
    return (len(args[0]), 0)


def _decode_count(tracer, args, kwargs, result):
    return (f"{_arg(args, kwargs, 0, 'fmt').name}.decode", result.size)


def _ema_count(tracer, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "state"))
    return (n, round(result[1] * n))


def _adam_count(tracer, args, kwargs, result):
    n = len(_arg(args, kwargs, 4, "params"))
    stats = result[3]
    return (2 * n, round(stats["stalled_m"] * n) + round(stats["stalled_v"] * n))


def _reset_count(tracer, args, kwargs, result):
    return bool(result[1])


# (layer, owning module, public name, counter); "Class.method" patches the class
TARGETS = (
    ("formats", "emastall.formats", "RoundingGrid.nearest_idx", _grid_count("nr")),
    ("formats", "emastall.formats", "RoundingGrid.stochastic_idx", _grid_count("sr")),
    ("formats", "emastall.formats", "round_nearest_array", None),
    ("formats", "emastall.formats", "round_stochastic_array", None),
    ("formats", "emastall.formats", "decode_array", _decode_count),
    ("quantize", "emastall.quantize", "quantize", _write_count),
    ("quantize", "emastall.quantize", "quantize_with_scales", _write_count),
    ("quantize", "emastall.quantize", "dequantize", _read_count),
    ("quantize", "emastall.quantize", "stalled_fraction", _read_count),
    ("engine", "emastall.engine", "ema_step", _ema_count),
    ("engine", "emastall.engine", "adam_step", _adam_count),
    ("engine", "emastall.engine", "apply_adam_update", None),
    ("engine", "emastall.engine", "apply_reset_policy", _reset_count),
    ("engine", "emastall.engine", "skip_intervention_step", None),
    ("theory", "emastall.theory", "p_stall_nr_ss", None),
    ("theory", "emastall.theory", "p_stall_sr_ss", None),
    ("theory", "emastall.theory", "p_stall_nr_transient", None),
    ("theory", "emastall.theory", "startup_window", None),
    ("theory", "emastall.theory", "reset_period_Kstar", None),
    ("theory", "emastall.theory", "remaining_error_E", None),
    ("theory", "emastall.theory", "predictor_row", None),
    ("simlab", "emastall.simlab", "GradientStream.draw", None),
    ("simlab", "emastall.simlab", "QuadraticInstance.step_begin", None),
    ("simlab", "emastall.simlab", "QuadraticInstance.grad_sample", None),
    ("simlab", "emastall.simlab", "run_stall_curve", None),
    ("simlab", "emastall.simlab", "run_first_moment_curve", None),
    ("simlab", "emastall.simlab", "run_skip_study", None),
    ("simlab", "emastall.simlab", "run_reset_study", None),
    ("simlab", "emastall.simlab", "run_reset_training", None),
    ("cli", "emastall.cli", "main", None),
    ("cli", "emastall.cli", "_save_result", None),
    ("cli", "emastall.cli", "_emit_table", None),
)

_DRAWS = {"draw", "step_begin", "grad_sample"}
_STEPS = {"ema_step", "adam_step", "skip_intervention_step"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._patched: list = []  # (holder, attribute, original)
        self.grid_names: dict = {}

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, None)
            if counter is not None:
                spans[idx] = (name, t0, t1, parent, counter(self, args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        formats = importlib.import_module("emastall.formats")
        for fmt in formats.PRESETS.values():
            for factory in ("_normalized_grid", "_raw_grid"):
                if hasattr(formats, factory):
                    self.grid_names[id(getattr(formats, factory)(fmt))] = fmt.name
        modules = [importlib.import_module(m) for m in ("emastall",) + MODULES]
        for layer, owner, public, counter in TARGETS:
            span = f"{layer}.{public.rsplit('.', 1)[-1]}"
            if "." in public:
                cls_name, meth = public.split(".")
                cls = getattr(importlib.import_module(owner), cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is None:
                    self.missing.append(public)
                    continue
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span, original, counter))
                continue
            original = getattr(importlib.import_module(owner), public, None)
            if original is None:
                self.missing.append(public)
                continue
            wrapper = self._wrap(span, original, counter)
            for mod in modules:
                # theory is traced where the other modules call it, not in
                # its own inner loops (the K* scan)
                if layer == "theory" and mod.__name__ == owner:
                    continue
                if vars(mod).get(public) is original:
                    self._patched.append((mod, public, original))
                    setattr(mod, public, wrapper)

    def restore(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def take_spans(self) -> list:
        spans, self.spans[:] = list(self.spans), []
        return spans


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and self times (span time minus its children's)."""
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    m = {f"{layer}.{k}": 0 for layer in LAYERS for k in ("calls", "self_ns")}
    m.update({k: 0 for k in ("formats.elems", "quantize.elems", "quantize.blocks",
                             "engine.steps", "engine.resets", "engine.writes",
                             "engine.stalled", "simlab.draws", "simlab.draw_ns",
                             "cli.commands")})
    tag_ns = {t: 0 for t in PRESET_MODES}
    tag_elems = {t: 0 for t in PRESET_MODES}
    for i, (name, t0, t1, parent, info) in enumerate(spans):
        layer, fn = name.split(".", 1)
        self_ns = t1 - t0 - child_ns[i]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_ns"] += self_ns
        outer = parent < 0 or not spans[parent][0].startswith(layer + ".")
        if layer == "engine" and fn in _STEPS and outer:
            m["engine.steps"] += 1
        elif layer == "simlab" and fn in _DRAWS:
            m["simlab.draws"] += 1
            m["simlab.draw_ns"] += t1 - t0
        elif layer == "cli" and fn == "main":
            m["cli.commands"] += 1
        if info is None:
            continue  # a call that raised, or a name traced for calls and time only
        if layer == "formats":
            tag, n = info
            m["formats.elems"] += n
            if tag in tag_ns:
                tag_ns[tag] += self_ns
                tag_elems[tag] += n
        elif layer == "quantize" and outer:
            m["quantize.elems"] += info[0]
            m["quantize.blocks"] += info[1]
        elif layer == "engine" and fn == "apply_reset_policy":
            m["engine.resets"] += info
        elif layer == "engine":
            m["engine.writes"] += info[0]
            m["engine.stalled"] += info[1]

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    out = {
        "formats.calls": m["formats.calls"],
        "formats.elems": m["formats.elems"],
        "formats.self_s": m["formats.self_ns"] * 1e-9,
        "formats.ns_per_elem": ratio(m["formats.self_ns"], m["formats.elems"]),
    }
    for tag in PRESET_MODES:
        out[f"formats.ns_per_elem.{tag}"] = ratio(tag_ns[tag], tag_elems[tag])
    out.update({
        "quantize.calls": m["quantize.calls"],
        "quantize.elems": m["quantize.elems"],
        "quantize.blocks": m["quantize.blocks"],
        "quantize.self_s": m["quantize.self_ns"] * 1e-9,
        "engine.steps": m["engine.steps"],
        "engine.self_s": m["engine.self_ns"] * 1e-9,
        "engine.us_per_step": ratio(m["engine.self_ns"], m["engine.steps"], 1e-3),
        "engine.resets": m["engine.resets"],
        "engine.stalled_frac": ratio(m["engine.stalled"], m["engine.writes"]),
        "theory.calls": m["theory.calls"],
        "theory.self_s": m["theory.self_ns"] * 1e-9,
        "simlab.draws": m["simlab.draws"],
        "simlab.draw_s": m["simlab.draw_ns"] * 1e-9,
        "simlab.self_s": m["simlab.self_ns"] * 1e-9,
        "cli.commands": m["cli.commands"],
        "cli.self_s": m["cli.self_ns"] * 1e-9,
    })
    return out
