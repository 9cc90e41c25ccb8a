"""The four benchmark workloads.

A workload is built once from the workload seed (set-up), then yields the
inputs of op ``i`` from ``(seed, i)`` alone, so a seed fixes every input no
matter how many ops a run completes.  ``op`` is the only timed call; it
passes the generated inputs to pbacc through module attributes, so the
tracer's wrappers see every call.  ``check`` runs after the timer stops.
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

import numpy as np

import pbacc.cli  # noqa: F401  (set-up covers the command-line shim's import)
from pbacc import codec, harness, interpolation, privacy, protocols

#: Ceiling on the sup-norm relative error of codec_bulk's decoded relu.  Over
#: 340 ops of 40 seeds the error had median 0.019, p99 0.049 and max 0.069; a
#: broken decode is off by O(1).
DECODE_REL_ERR_CEILING = 0.2

#: Target leakage in bits per data element for leakage_audit's solver.
LEAKAGE_EPSILON = 0.6


class CheckFailed(Exception):
    """An op produced an output that fails the workload's check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    name = ""
    #: Every run completes at least this many timed ops; the tail percentile
    #: and the quality median are taken over them.
    min_ops = 0
    #: Ops run in each pass of a traced run.
    trace_ops = 0
    #: Name of the per-op quality figure ``check`` returns, or None.
    quality = None
    quality_unit = ""
    #: Scheme that runs the same spec without coding, for training workloads.
    uncoded_scheme = None
    #: Mix of the calibration kernel timed between ops (see run.Calibration).
    calibration = "calls"

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir

    def rng(self, i: int) -> np.random.Generator:
        # i = -1 is the warm-up op, which no timed op repeats
        return np.random.default_rng([self.seed, i + 1])

    def inputs(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> float | None:
        raise NotImplementedError

    def finish_checks(self) -> None:
        """Checks made once per run, after the timed loop."""

    def output_stats(self, inp) -> dict:
        """Counts read from what op ``inp`` wrote, for the traced run."""
        return {}


class _Training(Workload):
    """One op is ``run_experiment`` on a one-cell spec built from the seed."""

    quality = "final_loss"
    quality_unit = "loss"
    scheme = ""

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.op_dir = os.path.join(out_dir, "ops")
        self.first = None

    def spec_dict(self, spec_seed: int) -> dict:
        raise NotImplementedError

    def inputs(self, i):
        spec_seed = int(self.rng(i).integers(2**31))
        return self.spec_dict(spec_seed) | {"output": self.op_dir}

    def uncoded_inputs(self, inp):
        return inp | {"scheme": self.uncoded_scheme,
                      "output": os.path.join(self.out_dir, "uncoded")}

    def op(self, inp):
        return harness.run_experiment(harness.spec_from_dict(inp))

    def _outputs(self, inp) -> dict[str, bytes]:
        files = {}
        for name in ("summary.json", "rounds.csv"):
            with open(os.path.join(inp["output"], name), "rb") as fh:
                files[name] = fh.read()
        return files

    def check(self, inp, out):
        spec = harness.spec_from_dict(inp)
        n_batches = math.ceil(spec.samples / spec.K) if spec.scheme == protocols.DLCD_SECURE_TRAINING else 0
        expected = protocols.expected_message_counts(spec.scheme, spec.n_nodes, n_batches)
        want = ([expected["once"]] if expected["once"] else []) + [expected["per_round"]] * spec.rounds
        with open(os.path.join(inp["output"], "rounds.csv"), newline="") as fh:
            got = [int(row["messages"]) for row in csv.DictReader(fh)]
        _require(got == want, f"per-round message counts {got} != expected {want}")
        loss = json.loads(self._outputs(inp)["summary.json"])["cells"][0]["final_loss"]
        _require(math.isfinite(loss), f"final loss {loss} is not finite")
        _require(loss == out["cells"][0]["final_loss"], "summary.json disagrees with the result")
        if self.first is None:
            self.first = (inp, self._outputs(inp))
        return loss

    def output_stats(self, inp):
        """The RoundTrace ledger totals, as the harness wrote them, and file sizes."""
        with open(os.path.join(inp["output"], "rounds.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {"messages": sum(int(r["messages"]) for r in rows),
                "elements": sum(int(r["elements"]) for r in rows),
                "rounds": sum(1 for r in rows if int(r["round"]) >= 1),
                "bytes_written": sum(f.stat().st_size for f in Path(inp["output"]).iterdir())}

    def finish_checks(self):
        # rerunning the first op's spec must reproduce its files byte for byte
        inp, files = self.first
        self.op(inp)
        _require(self._outputs(inp) == files, "rerun of one spec did not reproduce its outputs")


class CodedTraining(_Training):
    """The dlcd_secure_training outlier: per-batch worker loops and small decodes."""

    name = "coded_training"
    min_ops = 50
    trace_ops = 20
    scheme = protocols.DLCD_SECURE_TRAINING
    uncoded_scheme = protocols.UNCODED_DLCD

    def spec_dict(self, spec_seed):
        return {
            "scheme": self.scheme, "seed": spec_seed, "rounds": 1,
            "network": {"nodes": 50}, "plan": {"K": 1},
            "privacy": {"sigma_n": 10.0, "T": 30, "c": 10},
            "training": {"dataset": "two_clusters", "loss": "softmax_ce", "samples": 200,
                         "hidden": [8], "activation": "tanh", "batch_size": 8},
        }


class SecureAggregation(_Training):
    """dldd_secure_aggregation at the paper's Cox geometry: N^2 shares per round."""

    name = "secure_aggregation"
    min_ops = 50
    trace_ops = 20
    scheme = protocols.DLDD_SECURE_AGGREGATION
    uncoded_scheme = protocols.UNCODED_DLDD

    def spec_dict(self, spec_seed):
        return {
            "scheme": self.scheme, "seed": spec_seed, "rounds": 2,
            "network": {"nodes": 70}, "plan": {"K": 1},
            "privacy": {"sigma_n": 10.0, "T": 42, "c": 14},
            "training": {"dataset": "survival", "loss": "cox_ph", "samples": 1400,
                         "features": 4, "hidden": [16], "activation": "tanh",
                         "batch_size": 20},
        }


class LeakageAudit(Workload):
    """Greedy worst-case search then the amplitude solver, on two plans."""

    name = "leakage_audit"
    min_ops = 25
    trace_ops = 10
    #: (K, T) of the two plans; both use N=50 and c=3.
    PLANS = ((1, 30), (2, 10))
    N, C = 50, 3

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.plans = [interpolation.make_plan(K, T, self.N) for K, T in self.PLANS]

    def inputs(self, i):
        sigma_n = math.exp(self.rng(i).uniform(math.log(10.0), math.log(400.0)))
        return [privacy.PrivacyConfig(K=p.K, T=p.T, sigma_n=sigma_n, c=self.C,
                                      epsilon=LEAKAGE_EPSILON) for p in self.plans]

    def op(self, inp):
        out = []
        for plan, cfg in zip(self.plans, inp):
            report = privacy.worst_case_leakage(plan, cfg)
            out.append((report, privacy.max_secure_amplitude(plan, cfg, cfg.epsilon)))
        return out

    def check(self, inp, out):
        for plan, cfg, (report, s) in zip(self.plans, inp, out):
            _require(report.subsets_evaluated > 0, "search evaluated no subsets")
            _require(0.0 <= s <= cfg.s, f"amplitude {s} outside [0, {cfg.s}]")
            if s > 0:
                at_s = privacy.worst_case_leakage(plan, _with_s(cfg, s)).i_L
                at_2s = privacy.worst_case_leakage(plan, _with_s(cfg, 2 * s)).i_L
                _require(at_s <= cfg.epsilon < at_2s,
                         f"K={cfg.K}: i_L(s)={at_s}, i_L(2s)={at_2s}, eps={cfg.epsilon}")
        return None


def _with_s(cfg: privacy.PrivacyConfig, s: float) -> privacy.PrivacyConfig:
    return privacy.PrivacyConfig(K=cfg.K, T=cfg.T, sigma_n=cfg.sigma_n, c=cfg.c, s=s,
                                 epsilon=cfg.epsilon)


class CodecBulk(Workload):
    """Encode a 4 MiB tensor to 256 shares, relu each, decode from 200."""

    name = "codec_bulk"
    min_ops = 50
    trace_ops = 20
    quality = "decode_rel_err"
    quality_unit = "ratio"
    calibration = "stream"
    SHAPE = (65536, 8)
    N, K, T, SIGMA_N, KEEP = 256, 8, 8, 0.1, 200

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.plan = interpolation.make_plan(self.K, self.T, self.N)

    def inputs(self, i):
        rng = self.rng(i)
        x = rng.standard_normal(self.SHAPE)
        noise = codec.NoiseSpec(sigma_n=self.SIGMA_N, T=self.T, seed=int(rng.integers(2**31)))
        subset = np.sort(rng.choice(self.N, size=self.KEEP, replace=False))
        return x, noise, subset

    def op(self, inp):
        x, noise, subset = inp
        shares, _ = codec.encode(x, self.plan, noise)
        results = [(shares[j].beta, np.maximum(shares[j].payload, 0.0)) for j in subset]
        return codec.decode(results, self.plan, out_extent=x.shape[0])

    def check(self, inp, out):
        x = inp[0]
        _require(out.shape == x.shape, f"decoded shape {out.shape} != {x.shape}")
        expected = np.maximum(x, 0.0)
        err = float(np.max(np.abs(out - expected)) / np.max(np.abs(expected)))
        _require(err < DECODE_REL_ERR_CEILING,
                 f"decode relative error {err} above ceiling {DECODE_REL_ERR_CEILING}")
        return err


WORKLOADS = {w.name: w for w in (CodedTraining, SecureAggregation, LeakageAudit, CodecBulk)}
