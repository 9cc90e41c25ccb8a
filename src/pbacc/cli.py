"""Command-line front-end.

Subcommands:

* ``run <spec-file>``  -- execute an experiment file and write metrics.
* ``leakage``          -- worst-case leakage bound for a coding plan.
* ``roundtrip``        -- encode/apply/decode error for a named function.
* ``nodes``            -- print the node families of a coding plan.

A bad spec or argument, or a run too large to allocate, prints one
``error:`` line and exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .codec import NoiseSpec, roundtrip_error
from .harness import SpecError, load_spec, run_experiment
from .interpolation import DEFAULT_NOISE_SHIFT, make_plan
from .privacy import (
    GREEDY,
    STRATEGIES,
    PrivacyConfig,
    max_secure_amplitude,
    worst_case_leakage,
)

FUNCTIONS = {
    "identity": lambda v: v,
    "square": lambda v: v * v,
    "relu": lambda v: np.maximum(v, 0.0),
    "affine": lambda v: 2.0 * v + 1.0,
}


def _add_plan_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--N", type=int, required=True, help="worker count")
    parser.add_argument("--K", type=int, required=True, help="data points per coding group")
    parser.add_argument("--T", type=int, required=True, help="noise blocks")
    parser.add_argument("--shift", type=float, default=DEFAULT_NOISE_SHIFT,
                        help="noise-node shift (default %(default)s)")


class _Parser(argparse.ArgumentParser):
    """Argument errors take :func:`main`'s one-line ``error:`` path, in every subcommand too."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pbacc")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec file")
    p_run.add_argument("spec", help="YAML experiment file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--strategy", choices=STRATEGIES, default=None)

    p_leak = sub.add_parser("leakage", help="worst-case leakage bound")
    _add_plan_args(p_leak)
    p_leak.add_argument("--sigma", type=float, required=True, help="noise std dev scale")
    p_leak.add_argument("--c", type=int, required=True, help="colluder count")
    p_leak.add_argument("--s", type=float, default=1.0, help="input amplitude bound")
    p_leak.add_argument("--epsilon", type=float, default=1.0, help="target bits/element")
    p_leak.add_argument("--strategy", choices=STRATEGIES, default=GREEDY)
    p_leak.add_argument("--report-max-s", action="store_true",
                        help="when the bound fails at the given s, also report the "
                             "largest s that satisfies epsilon")

    p_rt = sub.add_parser("roundtrip", help="encode/apply/decode error")
    _add_plan_args(p_rt)
    p_rt.add_argument("--function", choices=sorted(FUNCTIONS), default="identity")
    p_rt.add_argument("--sigma", type=float, default=0.0)
    p_rt.add_argument("--subset-size", type=int, default=None,
                      help="number of fastest results used (default: all N)")
    p_rt.add_argument("--extent", type=int, default=None,
                      help="coding-axis extent of the test tensor (default: 4K)")
    p_rt.add_argument("--seed", type=int, default=0)

    p_nodes = sub.add_parser("nodes", help="print node families")
    _add_plan_args(p_nodes)
    return parser


def cmd_leakage(args) -> int:
    plan = make_plan(args.K, args.T, args.N, args.shift)
    cfg = PrivacyConfig(K=args.K, T=args.T, sigma_n=args.sigma, c=args.c,
                        s=args.s, epsilon=args.epsilon)
    report = worst_case_leakage(plan, cfg, strategy=args.strategy)
    payload = report.to_dict() | {
        "epsilon": args.epsilon,
        "meets_epsilon": bool(report.i_L <= args.epsilon),
        "config": {"N": args.N, "K": args.K, "T": args.T, "sigma_n": args.sigma,
                   "c": args.c, "s": args.s, "shift": args.shift},
    }
    if args.report_max_s and report.i_L > args.epsilon:
        payload["max_s_for_epsilon"] = max_secure_amplitude(
            plan, cfg, args.epsilon, strategy=args.strategy)
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    return 0


def cmd_roundtrip(args) -> int:
    plan = make_plan(args.K, args.T, args.N, args.shift)
    noise = NoiseSpec(sigma_n=args.sigma, T=args.T, seed=args.seed)
    extent = args.extent if args.extent is not None else 4 * args.K
    if extent < 1:
        raise ValueError(f"extent must be >= 1, got {extent}")
    rng = np.random.default_rng(args.seed)
    x = rng.normal(0.0, 1.0, size=extent)
    subset_size = args.subset_size if args.subset_size is not None else args.N
    if not 1 <= subset_size <= args.N:
        raise ValueError(f"subset size must be in [1, {args.N}]")
    subset = sorted(rng.choice(args.N, size=subset_size, replace=False).tolist()) \
        if subset_size < args.N else list(range(args.N))
    err = roundtrip_error(x, FUNCTIONS[args.function], plan, noise, subset)
    print(json.dumps({
        "function": args.function, "max_relative_error": err,
        "subset_size": subset_size,
        "config": {"N": args.N, "K": args.K, "T": args.T, "sigma_n": args.sigma,
                   "shift": args.shift, "extent": extent, "seed": args.seed},
    }, indent=2, sort_keys=True))
    return 0


def cmd_nodes(args) -> int:
    plan = make_plan(args.K, args.T, args.N, args.shift)
    print(json.dumps({
        "data_nodes": plan.alphas[:plan.K].tolist(),
        "noise_nodes": plan.alphas[plan.K:].tolist(),
        "encoder_nodes": plan.betas.tolist(),
        "perturbed_encoder_indices": list(plan.perturbed),
    }, indent=2, sort_keys=True))
    return 0


def _show(value: float | None, spec: str) -> str:
    """A summary number for printing; None (not a finite number) prints as n/a."""
    return "n/a" if value is None else format(value, spec)


def cmd_run(args) -> int:
    spec = load_spec(args.spec)
    for attr in ("seed", "output_dir", "strategy"):   # command-line overrides
        if getattr(args, attr) is not None:
            setattr(spec, attr, getattr(args, attr))
    summary = run_experiment(spec)
    for cell in summary["cells"]:
        leak = cell["leakage"]
        leak_txt = f" i_L={_show(leak['i_L'], '.4g')}" if leak else ""
        print(f"cell {cell['cell']}: final_loss={_show(cell['final_loss'], '.6g')} "
              f"final_accuracy={_show(cell['final_accuracy'], '.4g')}{leak_txt}")
    print(f"wrote {spec.output_dir}/rounds.csv and {spec.output_dir}/summary.json")
    return 0


def main(argv=None) -> int:
    handlers = {"run": cmd_run, "leakage": cmd_leakage,
                "roundtrip": cmd_roundtrip, "nodes": cmd_nodes}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SpecError as exc:
        print(f"error: invalid experiment spec: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
