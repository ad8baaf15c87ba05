"""Span recording around the calls into each lorarake layer.

The benchmark never edits the library. It replaces, for the length of a
traced run, the module attributes that `lorarake.simulate` and
`lorarake.fastsim` look up at call time with thin wrappers that record
one span per call: name, start, end and the index of the enclosing span.
Spans stay in memory; `summarize` turns them into per-name call counts,
inclusive time and self time (inclusive minus the time covered by child
spans), so the self times of all spans add up to the root spans' time.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

# (owner module, attribute, span name, only_at_top). The batched detector
# kernels still live as private names in lorarake.simulate; they are
# wrapped here as the `detectors` layer until they move to detectors.py.
# numpy.fft.fft is recorded only when called directly from the sweep (the
# dechirp+FFT front end); FFTs inside another wrapped layer count toward
# that layer's self time.
LAYER_TARGETS = (
    ("lorarake.simulate", "build_frame", "channel.build_frame", False),
    ("lorarake.simulate", "apply_channel", "channel.apply_channel", False),
    ("lorarake.simulate", "complex_noise", "channel.complex_noise", False),
    ("lorarake.simulate", "dechirped_gain", "channel.dechirped_gain", False),
    ("lorarake.simulate", "dechirp", "waveform.dechirp", False),
    ("numpy.fft", "fft", "waveform.fft", True),
    ("lorarake.simulate", "detect_paths", "estimator.detect_paths", False),
    ("lorarake.simulate", "_rake_scores", "detectors.rake", False),
    ("lorarake.simulate", "_mf_scores", "detectors.mf", False),
    ("lorarake.simulate", "mf_filter_bank", "detectors.mf_bank", False),
    ("lorarake.simulate", "_ideal_scores", "detectors.ideal_mf", False),
    ("lorarake.simulate", "_candidate_masks", "detectors.candidates", False),
    ("lorarake.simulate", "_masked_argmax", "detectors.masked_argmax", False),
    ("lorarake.simulate", "tdel_detect", "detectors.tdel", False),
    ("lorarake.fastsim", "simulate_ser", "fastsim.simulate_ser", False),
    ("lorarake.fastsim", "sample_correlated_noise", "fastsim.noise", False),
    ("lorarake.fastsim", "edge_statistics", "fastsim.edge", False),
)

ROOT = "sweep"
OBSERVE = "trace.observe"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    """In-memory span recorder with attribute patching.

    `observers` maps a span name to a callable (args, kwargs, result)
    that derives domain counters from a wrapped call; its own time is
    recorded as a `trace.observe` span so it never hides in a layer.
    """

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    missing: dict = field(default_factory=dict)
    observers: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name (a root span when none is open)."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def wrap(self, module_name: str, attr: str, name: str, only_at_top: bool = False) -> bool:
        """Patch module_name.attr with a recording wrapper; False when it is absent."""
        try:
            owner = importlib.import_module(module_name)
        except ImportError as exc:
            self.missing[name] = f"module {module_name} not importable: {exc}"
            return False
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing[name] = f"{module_name}.{attr} not found"
            return False
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack or (only_at_top and len(tracer._stack) > 1):
                return fn(*args, **kwargs)
            out = tracer.call(name, fn, *args, **kwargs)
            observe = tracer.observers.get(name)
            if observe is not None:
                tracer.call(OBSERVE, observe, args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))
        return True

    def install(self) -> None:
        for module_name, attr, name, only_at_top in LAYER_TARGETS:
            self.wrap(module_name, attr, name, only_at_top)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)


def summarize(spans) -> dict:
    """name -> {"calls", "total_s", "self_s"} over a list of spans."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += s.end - s.start - child_time[i]
    return out
