"""Command-line interface.

Subcommands: classify, generate, norm, transform, experiment.  Exit codes:
0 on success/pass, 2 when an experiment fails its thresholds, 1 on usage
errors (bad flags, unknown experiment, out-of-range parameters), on
non-finite input values, on grids over the cell budget and on atoms, norms
or route totals beyond double range.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .dyadic import (
    CapacityError,
    function_from_json,
    function_to_json,
    lp_quasinorm,
)
from .families import (
    ALTERNATING,
    TRIVIAL_DUAL,
    NestedSpec,
    ScatteredSpec,
    nested_family,
    scattered,
    spike_pair,
    tensor_spike_pair,
)
from .haar import (
    HaarCoefficients,
    TensorHaarCoefficients,
    analyze,
    synthesize,
    tensor_analyze,
    tensor_synthesize,
)
from .norms import (
    INF,
    BesovParams,
    a_norm,
    b0_221_weighted_sum,
    b_norm_modulus,
    square_function_norm,
)
from .regimes import System, classify
from .sequences import linf_lp_norm, lqlp_norm
from .experiments import EXPERIMENTS, default_config, random_step, run_experiment


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="haar-besov", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    cl = sub.add_parser("classify", help="basis-property regime of (p, q, s, d)")
    cl.add_argument("--p", type=float, required=True)
    cl.add_argument("--q", type=float, required=True)
    cl.add_argument("--s", type=float, required=True)
    cl.add_argument("--d", type=int, required=True)
    cl.add_argument("--system", choices=["isotropic", "tensor"], default="isotropic")
    cl.add_argument(
        "--allow-degenerate",
        action="store_true",
        help="accept s >= 1/p and report the degenerate regime",
    )

    gen = sub.add_parser("generate", help="emit a function as JSON")
    gen.add_argument(
        "family",
        choices=["nested", "spike", "spike-sums", "scattered", "tensor-spike", "random"],
    )
    gen.add_argument("--d", type=int, default=1)
    gen.add_argument("--m", type=int, default=4)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--alpha", type=float, default=0.5)
    gen.add_argument("--rule", choices=[TRIVIAL_DUAL, ALTERNATING], default=TRIVIAL_DUAL)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--distribution", choices=["uniform", "normal"], default="uniform")
    gen.add_argument("--out", type=str, default=None, help="default: stdout")

    nrm = sub.add_parser("norm", help="quasi-norms of a function file")
    nrm.add_argument("--input", type=str, required=True)
    nrm.add_argument("--p", type=float, required=True)
    nrm.add_argument("--q", type=float, default=None)
    nrm.add_argument("--s", type=float, default=None)
    nrm.add_argument(
        "--route",
        action="append",
        choices=["lp", "a", "modulus", "lqlp", "linflp", "square", "b0221"],
        help="repeatable; default: lp and a",
    )

    tr = sub.add_parser("transform", help="Haar analysis / synthesis")
    tr.add_argument("--input", type=str, required=True)
    tr.add_argument("--system", choices=["isotropic", "tensor"], default="isotropic")
    tr.add_argument("--inverse", action="store_true")
    tr.add_argument("--m", type=int, default=None, help="synthesis grid level")
    tr.add_argument("--out", type=str, default=None)

    ex = sub.add_parser("experiment", help="run a named experiment")
    ex.add_argument("name", choices=list(EXPERIMENTS))
    ex.add_argument("--p", type=float, default=None)
    ex.add_argument("--q", type=float, default=None)
    ex.add_argument("--s", type=float, default=None)
    ex.add_argument("--d", type=int, default=None)
    ex.add_argument("--seed", type=int, default=None)
    ex.add_argument("--m", type=int, default=None, help="upper end of the m range")
    ex.add_argument("--kmax", type=int, default=None, help="upper end of the k range")
    ex.add_argument("--samples", type=int, default=None)
    ex.add_argument("--alpha", type=float, default=None)
    ex.add_argument("--out", type=str, default=None, help="report base path")
    ex.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _cmd_classify(args) -> int:
    prm = BesovParams(args.p, args.q, args.s, args.d, allow_degenerate=args.allow_degenerate)
    res = classify(prm, System(args.system))
    obj = {"regime": res.regime.value, "citation": res.citation}
    if res.note:
        obj["note"] = res.note
    _emit(json.dumps(obj, sort_keys=True), None)
    return 0


def _cmd_generate(args) -> int:
    if args.family == "nested":
        f = nested_family(NestedSpec(args.d, args.m, rule=args.rule))
    elif args.family == "spike":
        f = spike_pair(args.m, args.d).f
    elif args.family == "spike-sums":
        f = spike_pair(args.m, args.d).g(args.k)
    elif args.family == "scattered":
        f = scattered(ScatteredSpec(args.k, args.d, args.alpha))
    elif args.family == "tensor-spike":
        prm = BesovParams(0.5, 1.0, 0.0, args.d)
        f = tensor_spike_pair(args.k, args.d, prm).f
    else:
        f = random_step(args.seed, args.d, args.m, args.distribution)
    _emit(function_to_json(f), args.out)
    return 0


def _cmd_norm(args) -> int:
    with open(args.input) as fh:
        f = function_from_json(fh.read())
    routes = args.route or ["lp", "a"]
    needs_prm = {"a", "modulus", "lqlp"} & set(routes)
    prm = None
    if needs_prm:
        if args.q is None or args.s is None:
            raise UsageError("routes a/modulus/lqlp need --q and --s")
        prm = BesovParams(args.p, args.q, args.s, f.d)
    out = {}
    for route in routes:
        if route == "lp":
            out["lp"] = lp_quasinorm(f, args.p)
        elif route == "a":
            out["a"] = a_norm(f, prm)
        elif route == "modulus":
            out["modulus"] = b_norm_modulus(f, prm)
        elif route == "lqlp":
            out["lqlp"] = lqlp_norm(analyze(f), prm)
        elif route == "linflp":
            if args.s is None:
                raise UsageError("route linflp needs --s")
            sup = linf_lp_norm(analyze(f), BesovParams(args.p, INF, args.s, f.d))
            out["linflp"] = sup.value
            out["linflp_per_level"] = sup.per_level.tolist()
        elif route == "square":
            out["square"] = square_function_norm(f, args.p)
        elif route == "b0221":
            out["b0221"] = b0_221_weighted_sum(f)
    _emit(json.dumps(out, sort_keys=True), None)
    return 0


def _cmd_transform(args) -> int:
    with open(args.input) as fh:
        text = fh.read()
    if args.inverse:
        if args.system == "isotropic":
            c = HaarCoefficients.from_json(text)
            m = args.m if args.m is not None else c.max_level
            f = synthesize(c, m)
        else:
            c = TensorHaarCoefficients.from_json(text, args.m or 0)
            f = tensor_synthesize(c, args.m)
        _emit(function_to_json(f), args.out)
        return 0
    f = function_from_json(text)
    if args.system == "isotropic":
        _emit(analyze(f).to_json(), args.out)
    else:
        _emit(tensor_analyze(f).to_json(), args.out)
    return 0


def _cmd_experiment(args) -> int:
    overrides = dict(
        p=args.p,
        q=args.q,
        s=args.s,
        d=args.d,
        seed=args.seed,
        m_hi=args.m,
        k_hi=args.kmax,
        samples=args.samples,
        alpha=args.alpha,
    )
    try:
        result = run_experiment(default_config(args.name, **overrides))
        if args.out:
            result.write(args.out, args.format)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    sys.stdout.write(result.json_text())
    return 0 if result.passed else 2


_COMMANDS = dict(
    classify=_cmd_classify, generate=_cmd_generate, norm=_cmd_norm,
    transform=_cmd_transform, experiment=_cmd_experiment,
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError, OSError, CapacityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
