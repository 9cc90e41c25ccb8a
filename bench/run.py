"""pbacc benchmark: one closed-loop workload per process, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src/`` beside this
directory.  With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics from a
traced pass.  Human-readable report lines come first; the last line of
standard output is the JSON result.  Full results (metadata included) and
the span file of a traced run are written under ``.bench_out/``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NoReturn

#: BLAS threads per process, fixed so every commit is measured alike.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS cap, which numpy reads on import)
import scipy.linalg  # noqa: E402

#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5
#: A probe that has not finished set-up within this many seconds has failed.
PROBE_TIMEOUT_S = 120
#: Samples beyond the tail percentile, at the workload's minimum op count.
TAIL_SAMPLES = 10

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_library():
    if not (SRC / "pbacc" / "__init__.py").is_file():
        _fail(f"pbacc sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def _setup(workloads, name: str, seed: int):
    """Import, input generation and one warm-up op: what setup_s covers."""
    wl = workloads.WORKLOADS[name](seed, str(ROOT / ".bench_out" / name))
    wl.op(wl.inputs(-1))
    return wl


def _probe_setup_s(args) -> float:
    """Median wall time from process spawn to the end of set-up."""
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _fail(f"set-up probe exited with code {proc.returncode}")
        # the probe prints CLOCK_MONOTONIC, which all processes share
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples)


class _Record:
    def __init__(self, key: int, value: float):
        self.key, self.value = key, value


class Calibration:
    """A fixed numpy/scipy kernel, timed between ops, that does not call pbacc.

    Load from co-tenants on a shared host slows whole stretches of a run by
    up to about 2x.  It slows a kernel with the same mix of work as the ops
    by close to the same factor, so an op's latency over the mean of the
    kernel's latency just before and just after it keeps pbacc's cost and
    drops most of the host's.  Two mixes cover the workloads:

    * ``calls``: many small-array numpy calls and interpreter work, a small
      dense product and a small generalized eigenproblem; data within L2;
    * ``stream``: a product writing 32 MB and reductions reading 26 MB,
      bound by memory bandwidth like the large-payload codec.
    """

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        if kind == "calls":
            self.small = [rng.standard_normal((50, 8)) for _ in range(8)]
            self.weight = rng.standard_normal((8, 8))
            self.bias = rng.standard_normal(8)
            self.nodes = np.cos(np.arange(50) * np.pi / 49)
            self.signs = (-1.0) ** np.arange(50)
            sym = rng.standard_normal((10, 10))
            self.gram = sym @ sym.T + np.eye(10)
            self.square = rng.standard_normal((120, 120))
            self.vector = rng.standard_normal(1 << 15)
            self._kernel = self._calls
        elif kind == "stream":
            self.basis = rng.standard_normal((256, 16))
            self.coeffs = rng.standard_normal((16, 2048 * 8))
            self.evals = np.empty((256, 2048 * 8))
            self.stack = rng.standard_normal((200, 2048, 8))
            self.weights = rng.standard_normal(200)
            self._kernel = self._stream
        else:
            raise ValueError(f"unknown calibration kind {kind!r}")

    def __call__(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def _calls(self) -> None:
        records = [_Record(i, float(i)) for i in range(2000)]
        table: dict[int, float] = {}
        for r in records:
            table[r.key % 97] = table.get(r.key % 97, 0.0) + r.value
        for k in range(60):
            terms = self.signs / (0.3 + 0.001 * k - self.nodes)
            q = terms / terms.sum()
            stacked = np.stack([np.moveaxis(x, 0, 0) for x in self.small[:4]])
            np.tensordot(q[:4], stacked, axes=(0, 0))
            np.maximum(np.tanh(self.small[k % 8] @ self.weight + self.bias), 0.0).sum()
            np.abs(self.nodes - 0.3).min()
        for _ in range(3):
            self.square @ self.square
            np.tanh(self.vector)
        for _ in range(5):
            scipy.linalg.eigh(self.gram, self.gram + np.eye(10), eigvals_only=True)

    def _stream(self) -> None:
        np.matmul(self.basis, self.coeffs, out=self.evals)
        np.maximum(self.evals, 0.0, out=self.evals)
        for _ in range(2):
            np.tensordot(self.weights, self.stack, axes=(0, 0))


class Tally:
    """Op durations, quality figures and failures of one pass."""

    def __init__(self):
        self.durations: list[float] = []
        self.calibration: list[float] = []
        self.relative: list[float] = []
        self.quality: list[float] = []
        self.attempted = 0
        self.failed = 0

    def check(self, wl, inp, out, error: bool) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            return
        try:
            value = wl.check(inp, out)
        except Exception:  # any check error fails the op, and the run goes on
            traceback.print_exc()
            self.failed += 1
            return
        if value is not None:
            self.quality.append(value)


def _timed_op(op, inp):
    """Run one op; returns (output, seconds, raised)."""
    start = time.perf_counter()
    try:
        out = op(inp)
    except Exception:  # a failing op is counted, and the run goes on
        traceback.print_exc()
        return None, time.perf_counter() - start, True
    return out, time.perf_counter() - start, False


def _run_op(wl, op, inp, tally: Tally) -> None:
    """Time one op, then check it outside the timer."""
    out, dt, raised = _timed_op(op, inp)
    tally.durations.append(dt)
    tally.check(wl, inp, out, raised)


def _closed_loop(wl, seconds: float, min_ops: int, tally: Tally) -> None:
    """Ops back to back until both the time and the op floor are reached.

    The calibration kernel runs before the first op and after every op,
    outside the ops' timers, so each op has a kernel time on either side.
    """
    calibrate = Calibration(wl.calibration)
    calibrate()  # the first call pays one-time costs
    before = calibrate()
    i = 0
    while sum(tally.durations) < seconds or i < min_ops:
        inp = wl.inputs(i)
        out, dt, raised = _timed_op(wl.op, inp)
        after = calibrate()
        tally.durations.append(dt)
        tally.calibration.append(after)
        tally.relative.append(dt / (0.5 * (before + after)))
        tally.check(wl, inp, out, raised)
        before = after
        i += 1


def _nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def _metadata(seed: int) -> dict:
    def blas(module):
        dep = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "workload_seed": seed, "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "numpy_blas": blas(np), "scipy_blas": blas(scipy),
        "cpu": _cpu_model(), **_cache_sizes(),
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {"l2": "unknown", "l3": "unknown"}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"l{level}"] = size
    return sizes


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _end_to_end(args, wl, tally: Tally, setup_s: float) -> tuple[dict, dict]:
    """BENCHMARK.json's end-to-end metrics, and report-only figures.

    Raw op latencies move by up to about 2x with the host's load, far beyond
    any bound a gate could use, so the gated latency is op_p50_rel: the
    median over ops of the op's latency relative to the calibration kernel.
    """
    tail_pct = 100.0 * (1.0 - TAIL_SAMPLES / wl.min_ops)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_rel": (statistics.median(tally.relative), "x"),
        "op_tail_rel": (_nearest_rank(tally.relative, tail_pct), "x"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    extras = {
        "ops_per_s": (len(tally.durations) / sum(tally.durations), "1/s"),
        "op_p10_ms": (_nearest_rank(tally.durations, 10.0) * 1e3, "ms"),
        "op_p50_ms": (statistics.median(tally.durations) * 1e3, "ms"),
        "op_tail_ms": (_nearest_rank(tally.durations, tail_pct) * 1e3, "ms"),
        "calib_p50_ms": (statistics.median(tally.calibration) * 1e3, "ms"),
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "op_tail_percentile": tail_pct, "ops_timed": len(tally.durations),
        "setup_probes": 1 if args.smoke else SETUP_PROBES,
    }
    if wl.quality is not None:
        # the first min_ops ops are the same in every run of a seed
        firsts = tally.quality[:wl.min_ops]
        extras[wl.quality] = (statistics.median(firsts) if firsts else math.nan, wl.quality_unit)
    return metrics, extras


def _per_layer(t, untraced: Tally, traced: Tally, uncoded: Tally | None, stats: dict) -> dict:
    """Per-op layer figures from the traced pass's span totals ``t``."""
    ops = len(traced.durations)

    def calls(name):
        return t.calls.get(name, 0) / ops

    def secs(name):
        return t.seconds.get(name, 0.0) / ops

    def extra(name, key):
        return t.extra.get(name, {}).get(key, 0)

    def rate(num, den):
        return num / den if den else 0.0

    subsets = t.calls.get("privacy.subset", 0)
    amplitudes = t.calls.get("privacy.amplitude", 0)
    coded_s = sum(untraced.durations)
    return {
        "interpolation.basis_calls": (calls("interpolation.basis"), "count/op"),
        "interpolation.basis_s": (secs("interpolation.basis"), "s/op"),
        "interpolation.basis_matrix_calls": (calls("interpolation.basis_matrix"), "count/op"),
        "interpolation.basis_matrix_s": (secs("interpolation.basis_matrix"), "s/op"),
        "codec.decode_calls": (calls("codec.decode"), "count/op"),
        "codec.decode_s": (secs("codec.decode"), "s/op"),
        "codec.decode_bytes_in": (extra("codec.decode", "bytes") / ops, "B/op"),
        "codec.decode_gbps": (rate(extra("codec.decode", "bytes"),
                                   t.seconds.get("codec.decode", 0.0)) / 1e9, "GB/s"),
        "codec.encode_calls": (calls("codec.encode"), "count/op"),
        "codec.encode_s": (secs("codec.encode"), "s/op"),
        "codec.encode_bytes_out": (extra("codec.encode", "bytes") / ops, "B/op"),
        "codec.encode_gbps": (rate(extra("codec.encode", "bytes"),
                                   t.seconds.get("codec.encode", 0.0)) / 1e9, "GB/s"),
        "privacy.search_calls": (calls("privacy.search"), "count/op"),
        "privacy.search_s": (secs("privacy.search"), "s/op"),
        "privacy.subsets_evaluated": (subsets / ops, "count/op"),
        "privacy.subset_eval_us": (rate(t.seconds.get("privacy.subset", 0.0), subsets) * 1e6,
                                   "us"),
        "privacy.inf_subset_ratio": (rate(extra("privacy.subset", "inf"), subsets), "ratio"),
        "privacy.amplitude_calls": (calls("privacy.amplitude"), "count/op"),
        "privacy.amplitude_s": (secs("privacy.amplitude"), "s/op"),
        "privacy.searches_per_amplitude": (
            rate(t.nested.get(("privacy.amplitude", "privacy.search"), 0), amplitudes), "count"),
        "learners.forward_calls": (calls("learners.forward"), "count/op"),
        "learners.forward_s": (secs("learners.forward"), "s/op"),
        "learners.local_train_calls": (calls("learners.local_train"), "count/op"),
        "learners.local_train_s": (secs("learners.local_train"), "s/op"),
        "learners.aggregate_s": (secs("learners.aggregate"), "s/op"),
        "learners.evaluate_s": (secs("learners.evaluate"), "s/op"),
        "protocols.run_scheme_s": (secs("protocols.run_scheme"), "s/op"),
        "protocols.self_s": (t.layer_self("protocols") / ops, "s/op"),
        "protocols.messages": (stats.get("messages", 0) / ops, "count/op"),
        "protocols.elements": (stats.get("elements", 0) / ops, "count/op"),
        "protocols.rounds": (stats.get("rounds", 0) / ops, "count/op"),
        "protocols.coding_overhead_x": (
            rate(coded_s, sum(uncoded.durations)) if uncoded else 0.0, "x"),
        "harness.run_experiment_s": (secs("harness.run_experiment"), "s/op"),
        "harness.self_s": (t.layer_self("harness") / ops, "s/op"),
        "harness.bytes_written": (stats.get("bytes_written", 0) / ops, "B/op"),
        "trace.overhead_ratio": (rate(coded_s, sum(traced.durations)), "ratio"),
    }


def _traced_run(args, wl):
    """Each op index runs untraced, traced and, for training, uncoded, in turn.

    Interleaving the three keeps the host's load alike for all of them, so
    the ratios between them are not skewed by a slow stretch of the run.
    """
    import tracer as tracer_mod

    indices = range(2 if args.smoke else wl.trace_ops)
    untraced, traced = Tally(), Tally()
    uncoded = Tally() if wl.uncoded_scheme is not None else None
    tracer = tracer_mod.Tracer()
    traced_op = tracer.wrap(wl.op, "bench.op")
    stats: dict[str, int] = {}
    for i in indices:
        inp = wl.inputs(i)
        _run_op(wl, wl.op, inp, untraced)
        tracer.install()
        try:
            tracer.op = i
            out, dt, raised = _timed_op(traced_op, inp)
        finally:
            tracer.op = None
            tracer.uninstall()
        traced.durations.append(dt)
        traced.check(wl, inp, out, raised)
        if not raised:
            for k, v in wl.output_stats(inp).items():
                stats[k] = stats.get(k, 0) + v
        if uncoded is not None:
            _run_op(wl, wl.op, wl.uncoded_inputs(inp), uncoded)

    metrics = _per_layer(tracer_mod.LayerTotals(tracer.spans), untraced, traced, uncoded, stats)
    spans_path = ROOT / ".bench_out" / f"spans_{wl.name}_seed{args.seed}.csv"
    tracer.write_spans(str(spans_path))
    tallies = [untraced, traced] + ([uncoded] if uncoded else [])
    extras = {"traced_ops": len(indices), "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, extras, tallies


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="op time to measure (untraced runs; a traced run makes "
                             "a fixed number of ops so its counts repeat)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a handful of ops and one set-up probe (self-check only)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = _load_library()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        _setup(workloads, args.workload, args.seed)
        print(repr(time.monotonic()), flush=True)
        return

    setup_s = None if args.trace else _probe_setup_s(args)
    wl = _setup(workloads, args.workload, args.seed)
    (ROOT / ".bench_out").mkdir(exist_ok=True)

    if args.trace:
        metrics, extras, tallies = _traced_run(args, wl)
    else:
        tally = Tally()
        _closed_loop(wl, args.seconds, 2 if args.smoke else wl.min_ops, tally)
        tallies = [tally]
        try:
            wl.finish_checks()
        except Exception:  # counted like a failed op check
            traceback.print_exc()
            tally.failed += 1
        metrics, extras = _end_to_end(args, wl, tally, setup_s)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    meta = _metadata(args.seed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    print(f"# {wl.name} seed={args.seed} trace={args.trace}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in list(metrics.items()) + [
            (k, v) for k, v in extras.items() if isinstance(v, tuple)]:
        print(f"{name:36s} {value:>16.6g} {unit}")
    print("# " + json.dumps({k: v for k, v in extras.items() if not isinstance(v, tuple)}))
    record = result | {"workload": wl.name, "meta": meta, "extras": extras}
    out_path = ROOT / ".bench_out" / f"result_{wl.name}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
