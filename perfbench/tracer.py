"""Counting and span-recording wrappers around the public entry points of svjd.

The wrappers replace module attributes, so every caller that looks a function
up through a module (``svjd.proj.build_grid``, ``svjd.calibration.price_strike_slice``,
...) goes through them; ``src/`` itself is not touched. In counting mode a
wrapper only counts calls and work units (about 1 us per call, so untraced
runs wrap only the entry points whose counts they record). In span mode it
also records one span (name, start, end, parent, run id, tag) per call;
spans stay in memory until ``write_spans`` dumps them when the run ends.
"""
from __future__ import annotations

import json
import sys
import threading
import time
import weakref
from collections import defaultdict

import numpy as np

# span name -> (defining module, attribute). Every loaded svjd module whose
# attribute of that name is the same function object is patched as well.
ENTRY_POINTS = {
    "models.char_exponent": ("svjd.models", "char_exponent"),
    "models.cumulants_numeric": ("svjd.models", "cumulants_numeric"),
    "proj.build_grid": ("svjd.proj", "build_grid"),
    "proj.dual_zeta": ("svjd.proj", "dual_zeta"),
    "proj.proj_coefficients": ("svjd.proj", "proj_coefficients"),
    "proj.price_strike_slice": ("svjd.proj", "price_strike_slice"),
    "black_scholes.implied_vol": ("svjd.black_scholes", "implied_vol"),
    "calibration.residuals": ("svjd.calibration", "residuals"),
    "calibration.objective": ("svjd.calibration", "objective"),
    "calibration.calibrate": ("svjd.calibration", "calibrate"),
    "calibration.synthetic_surface": ("svjd.calibration", "synthetic_surface"),
    "montecarlo.mc_run": ("svjd.montecarlo", "mc_run"),
    "montecarlo.evaluate_payoff": ("svjd.montecarlo", "evaluate_payoff"),
    "cli.main": ("svjd.cli", "main"),
}


class Tracer:
    """Call counters, work counters and (optionally) spans for one run."""

    def __init__(self, spans: bool):
        self.record_spans = spans
        self.recording = True
        self.calls = defaultdict(int)
        self.work = defaultdict(int)      # nodes, strikes, chunks, bytes, failures
        self.spans = []                    # (name, start, end, parent, run_id, tag)
        self.run_id = 0
        self.tag = ""
        self.hooks = {}                    # span name -> callable run before each call
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []

    # -- installation -----------------------------------------------------

    def install(self, names=None) -> None:
        """Wrap the named entry points (all of ENTRY_POINTS by default)."""
        for name in ENTRY_POINTS if names is None else names:
            module_name, attr = ENTRY_POINTS[name]
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "svjd" or mod_name.startswith("svjd.")) \
                        and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        tracer = self
        count_work = _WORK_COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            with tracer._lock:
                tracer.calls[name] += 1
                if count_work is not None:
                    count_work(tracer, args, kwargs)
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook()
            opened = tracer._open() if tracer.record_spans else None
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.add(name + ".failures", 1)
                raise
            finally:
                if opened is not None:
                    tracer._close(name, opened)

        wrapper.__wrapped__ = fn
        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple:
        """Reserve a span slot under the current thread's innermost span."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        return index, parent, self.tag, time.perf_counter()

    def _close(self, name: str, opened: tuple) -> None:
        end = time.perf_counter()
        index, parent, tag, start = opened
        self._stack().pop()
        self.spans[index] = (name, start, end, parent, self.run_id, tag)

    def add(self, key: str, amount: int) -> None:
        with self._lock:
            self.work[key] += amount

    # -- benchmark-side spans ---------------------------------------------

    def span(self, name: str, tag: str | None = None):
        """Context manager recording a span from the benchmark's own code."""
        return _BenchSpan(self, name, tag)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per (span name, tag): duration minus the time covered
        by direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _, tag) in enumerate(self.spans):
            out[(name, tag)] += (end - start) - child[i]
        return out

    def span_cost_s(self, n: int = 20000) -> float:
        """Measured cost of recording one span around a trivial call."""
        probe = Tracer(spans=True)
        wrapped = probe._wrap("trace.probe", _noop)
        t0 = time.perf_counter()
        for _ in range(n):
            _noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        traced = time.perf_counter() - t0
        return max(traced - bare, 0.0) / n

    def write_spans(self, path: str) -> None:
        """One JSON array per line after a header line naming the fields;
        parent is the line index (from 0, header excluded) of the parent span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "run", "tag"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _BenchSpan:
    """A span around benchmark code; a tag given here labels every span inside."""

    def __init__(self, tracer: Tracer, name: str, tag: str | None):
        self.tracer, self.name, self.tag = tracer, name, tag

    def __enter__(self):
        tr = self.tracer
        self.saved_tag = tr.tag
        if self.tag is not None:
            tr.tag = self.tag
        self.opened = tr._open() if tr.record_spans and tr.recording else None
        return self

    def __exit__(self, *exc):
        if self.opened is not None:
            self.tracer._close(self.name, self.opened)
        self.tracer.tag = self.saved_tag
        return False


def _noop():
    return None


def _count_nodes(tracer, args, kwargs):
    xi = args[2] if len(args) > 2 else kwargs["xi"]
    tracer.work["models.char_exponent.nodes"] += int(np.size(xi))


def _count_strikes(tracer, args, kwargs):
    strikes = args[3] if len(args) > 3 else kwargs["strikes"]
    tracer.work["proj.price_strike_slice.strikes"] += len(strikes)


def _count_batch(tracer, args, kwargs):
    """A payoff call on a path batch not seen before in this thread marks a new
    chunk; its bytes are the arrays handed across the payoff boundary."""
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    local = tracer._local
    last = getattr(local, "last_batch", None)
    if last is None or last() is not batch:
        local.last_batch = weakref.ref(batch)
        tracer.work["montecarlo.chunks"] += 1
        nbytes = batch.log_prices.nbytes
        if batch.variance is not None:
            nbytes += batch.variance.nbytes
        tracer.work["montecarlo.batch_bytes"] += nbytes


_WORK_COUNTERS = {
    "models.char_exponent": _count_nodes,
    "proj.price_strike_slice": _count_strikes,
    "montecarlo.evaluate_payoff": _count_batch,
}
