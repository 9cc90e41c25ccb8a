"""Span tracing of pbacc's public functions, installed from outside ``src/``.

Each traced function is replaced at the name its caller looks it up by (for
example ``pbacc.protocols.encode``, which is what the protocol runners call)
with a wrapper that records a span: name, start, end, parent span and op id.
Spans stay in memory until :meth:`Tracer.write_spans`.  Nothing is recorded
while ``Tracer.op`` is None, so output checks can call the same functions
without adding spans.

Self time of a span is its duration minus the durations of its direct child
spans; everything runs on one thread, so children never overlap.
"""

from __future__ import annotations

import csv
import math
import time

import pbacc.codec
import pbacc.harness
import pbacc.learners
import pbacc.privacy
import pbacc.protocols


def _decode_bytes(args, kwargs, result) -> dict:
    results = args[0] if args else kwargs["results"]
    return {"bytes": sum(p.nbytes for _, p in results)}


def _encode_bytes(args, kwargs, result) -> dict:
    shares, _ = result
    return {"bytes": sum(s.payload.nbytes for s in shares)}


def _subset_inf(args, kwargs, result) -> dict:
    return {"inf": int(math.isinf(result))}


_RUNNERS = ("run_dlcd_secure_training", "run_uncoded_dlcd", "run_dldd_secure_aggregation",
            "run_dldd_secure_training", "run_uncoded_dldd")

#: (module, attribute, span name, result hook).  The attribute is the name
#: the caller resolves at call time, so every call site is covered once.
PATCH_POINTS = [
    (pbacc.harness, "spec_from_dict", "harness.spec_from_dict", None),
    (pbacc.harness, "run_experiment", "harness.run_experiment", None),
    (pbacc.harness, "write_tensor", "harness.write_tensor", None),
    (pbacc.harness, "make_plan", "interpolation.make_plan", None),
    (pbacc.harness, "run_scheme", "protocols.run_scheme", None),
    (pbacc.harness, "worst_case_leakage", "privacy.search", None),
    *[(pbacc.protocols, name, f"protocols.{name}", None) for name in _RUNNERS],
    (pbacc.protocols, "encode", "codec.encode", _encode_bytes),
    (pbacc.protocols, "decode", "codec.decode", _decode_bytes),
    (pbacc.protocols, "forward", "learners.forward", None),
    (pbacc.protocols, "forward_with_cache", "learners.forward_with_cache", None),
    (pbacc.protocols, "backward_from_output", "learners.backward_from_output", None),
    (pbacc.protocols, "loss_and_output_grad", "learners.loss_and_output_grad", None),
    (pbacc.protocols, "sgd_step", "learners.sgd_step", None),
    (pbacc.protocols, "local_train", "learners.local_train", None),
    (pbacc.protocols, "aggregate", "learners.aggregate", None),
    (pbacc.protocols, "evaluate", "learners.evaluate", None),
    (pbacc.learners, "forward", "learners.forward", None),
    (pbacc.codec, "encode", "codec.encode", _encode_bytes),
    (pbacc.codec, "decode", "codec.decode", _decode_bytes),
    (pbacc.codec, "berrut_basis", "interpolation.basis", None),
    (pbacc.codec, "berrut_basis_matrix", "interpolation.basis_matrix", None),
    (pbacc.privacy, "berrut_basis_matrix", "interpolation.basis_matrix", None),
    (pbacc.privacy, "leakage_for_subset", "privacy.subset", _subset_inf),
    (pbacc.privacy, "worst_case_leakage", "privacy.search", None),
    (pbacc.privacy, "max_secure_amplitude", "privacy.amplitude", None),
]

# Span record layout: [name, start, end, parent index, op id, extras or None].
NAME, START, END, PARENT, OP, EXTRA = range(6)


class Tracer:
    """Records spans around pbacc calls while installed and ``op`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(record)
            stack.append(index)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                record[EXTRA] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, hook in PATCH_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def wrap(self, fn, name: str):
        """``fn`` recording a span named ``name``, for the benchmark's own calls."""
        return self._wrap(fn, name, None)

    def write_spans(self, path: str) -> None:
        """Write every span as CSV; times are seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "op"])
            for i, s in enumerate(self.spans):
                writer.writerow([i, s[NAME], f"{s[START] - t0:.9f}", f"{s[END] - t0:.9f}",
                                 s[PARENT], s[OP]])


class LayerTotals:
    """Per-name call counts, inclusive and self time, and summed extras."""

    def __init__(self, spans: list[list]):
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self.extra: dict[str, dict[str, float]] = {}
        self.nested: dict[tuple[str, str], int] = {}
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.seconds[name] = self.seconds.get(name, 0.0) + dur
            self.self_seconds[name] = self.self_seconds.get(name, 0.0) + dur - child_time[i]
            if s[EXTRA]:
                acc = self.extra.setdefault(name, {})
                for k, v in s[EXTRA].items():
                    acc[k] = acc.get(k, 0) + v
            if s[PARENT] >= 0:
                key = (spans[s[PARENT]][NAME], name)
                self.nested[key] = self.nested.get(key, 0) + 1

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_seconds.items() if k.startswith(prefix))
