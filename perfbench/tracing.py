"""Outside-in span tracing for the svhm benchmark.

The program is not edited.  Instead, each layer boundary is wrapped where it
is called from: the name a caller module looks up (``svhm.codec.pipeline``'s
``estimate_motion``, ``svhm.codec.coding``'s ``range_encode``, ...) is
replaced by a wrapper for the duration of a traced sweep and restored after.

Spans are kept in memory as ``[name, parent index, start, end]``.  A span's
self time is its duration minus the durations of its direct children; the
program is single-threaded, so children never overlap.  Counter hooks run
inside ``trace.*`` spans of their own, so their cost is charged to no layer.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

SLOPE_SPLIT = 2.15   # criterion 1 spends ~90% of its BA time at slopes >= this


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           perf_counter(), 0.0])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][3] = perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, self seconds)}``, hook spans excluded."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for (name, _, start, end), c in zip(self.spans, child):
            if name.startswith("trace."):
                continue
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - c)
        return out


class Untraced:
    """Stand-in used for the measured (trace-off) runs: a plain call."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Probe:
    """Installed in the measured (trace-off) runs: a plain call, then a
    checkpoint of the calibrated clock, which may cut a calibration piece
    there (``harness.Clock``).  No span is recorded."""

    def __init__(self, clock):
        self.clock = clock

    def call(self, name, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        self.clock.checkpoint()
        return out


def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _layer_name(base: str):
    # enhancement-layer calls are the ones coded against the base frame
    return lambda args, kwargs: base + (
        ".enh" if _arg(args, kwargs, 5, "extra") is not None else ".base")


def _slope_name(args, kwargs):
    slope = _arg(args, kwargs, 2, "slope")
    return "rdtheory.blahut_arimoto." + (
        "slope_lt_2.15" if slope < SLOPE_SPLIT else "slope_ge_2.15")


def _range_encode_hook(prog):
    def hook(tracer, args, kwargs, result):
        symbols, params = args[0], args[1]
        tracer.count("range_coder.symbols", symbols.size)
        tracer.count("range_coder.zero_symbols", int((symbols == 0).sum()))
        tracer.count("range_coder.coded_bits", result.bit_length)
        tracer.count("range_coder.model_bits",
                     prog.entropy_model.estimate_rate(symbols, params))
    return hook


def _skip_hook(prog):
    def hook(tracer, args, kwargs, result):
        if _arg(args, kwargs, 5, "extra") is not None:
            return
        # the program's own SKIP rule, so the count follows any change to it
        skip = prog.coding._alpha_blocks(_arg(args, kwargs, 2, "alpha"))[1]
        tracer.count("codec.base.skip_blocks", int(skip.sum()))
        tracer.count("codec.base.blocks", skip.size)
    return hook


def call_sites(prog):
    """(module, attribute, span name or namer, counter hook) per boundary."""
    return [
        (prog.pipeline, "estimate_motion", "codec.motion.estimate_motion", None),
        (prog.pipeline, "compensate", "codec.motion.compensate", None),
        (prog.pipeline, "derive_mode_maps", "codec.modes.derive_mode_maps", None),
        (prog.pipeline, "combine_predictor", "codec.modes.combine_predictor", None),
        (prog.coding, "code_intra_frame", "codec.coding.code_intra_frame", None),
        (prog.coding, "decode_intra_frame", "codec.coding.decode_intra_frame", None),
        (prog.coding, "code_inter_frame",
         _layer_name("codec.coding.code_inter_frame"), _skip_hook(prog)),
        (prog.coding, "decode_inter_frame",
         _layer_name("codec.coding.decode_inter_frame"), None),
        (prog.coding, "code_flow", "codec.coding.code_flow", None),
        (prog.coding, "decode_flow", "codec.coding.decode_flow", None),
        (prog.coding, "range_encode", "range_coder.range_encode",
         _range_encode_hook(prog)),
        (prog.coding, "range_decode", "range_coder.range_decode", None),
        (prog.transform, "forward", "codec.transform.forward", None),
        (prog.transform, "inverse", "codec.transform.inverse", None),
        (prog.rdtheory, "blahut_arimoto", _slope_name, None),
    ]


def _wrap(tracer: Tracer, fn, name, hook):
    namer = name if callable(name) else (lambda args, kwargs: name)

    def wrapper(*args, **kwargs):
        result = tracer.call(namer(args, kwargs), fn, *args, **kwargs)
        if hook is not None:
            tracer.call("trace.hook", hook, tracer, args, kwargs, result)
        return result
    return wrapper


@contextmanager
def installed(tracer, prog, probe: bool = False):
    """Wrap every call site for the duration of the block.  With ``probe``
    (a ``Probe`` in place of the tracer) the counter hooks are left out and a
    call site that no longer exists is skipped: checkpoints only refine the
    calibration, so a renamed function must not stop a measured run."""
    saved = []
    try:
        for module, attr, name, hook in call_sites(prog):
            if not hasattr(module, attr):
                if probe:
                    continue
                raise RuntimeError(
                    f"call site {module.__name__}.{attr} no longer exists; "
                    "the trace table needs updating")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, None if probe else hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
