"""Batch CLI: integrate set functions, run the selection oracle, apply
lattice operations, check chains, and run the axiom checker and measure
reconstruction against built-in or external functionals.

Exit codes: 0 when every asserted certificate or axiom holds, 1 when a check
fails, 2 on usage, parse or protocol errors and on geometry beyond desk scale.
All randomness is seeded and recorded in the report header, so reports are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .axioms import (
    MUTANT_NAMES,
    SampleSet,
    SetFunctional,
    integral_functional,
    mutant_catalog,
    reconstruct_measure,
    run_axiom_checks,
    verify_representation,
)
from .cone import ValidationError
from .integral import (
    ParametricChain,
    aumann_integral,
    integral_over,
    monotone_limit_check,
    selection_oracle,
)
from .linalg import format_rational, read_number
from .protocol import ExternalFunctional, ProtocolError
from .upperset import inf_set, sup_set, weighted_sum
from .workspace import Workspace, parse_workspace


def _flags_line(args, extra: str = "") -> str:
    parts = [
        f"{key.replace('_', '-')}={getattr(args, key)}"
        for key in ("seed", "trials", "w_samples", "sample_count", "epsilon_schedule")
        if hasattr(args, key)
    ]
    if extra:
        parts.append(extra)
    return "flags: " + " ".join(parts)


def _build_functional(ws: Workspace, name: str, samples: SampleSet) -> SetFunctional:
    """The functional a workspace name or inline form resolves to; mutants are
    built on ``samples``."""
    spec = ws.functional_spec(name)
    if spec.kind == "integral":
        return integral_functional(ws.measure(spec.measure), f"integral:{spec.measure}")
    if spec.kind == "mutant":
        if spec.mutant not in MUTANT_NAMES:
            raise ValidationError(
                f"unknown mutant {spec.mutant!r} (available: {', '.join(sorted(MUTANT_NAMES))})"
            )
        return mutant_catalog(samples, ws.measure(spec.measure))[spec.mutant]
    external = ExternalFunctional(spec.command, ws.cone)
    return SetFunctional(external.name, external)


def _override_schedule(chain, spec: str):
    if spec == "auto":
        return chain
    rate = read_number(spec, "--epsilon-schedule expects a rational number, got {!r}")
    if not isinstance(chain, ParametricChain):
        raise ValidationError("--epsilon-schedule applies only to a parametric chain")
    return ParametricChain(chain.space, chain.cone, chain.indices, rate)


def _print_integral(res, *head: str) -> int:
    for line in head:
        print(line)
    print(f"value: {res.value.literal()}")
    print(res.certificate_table())
    ok = res.certificate_ok()
    print(f"certificate: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_integrate(ws: Workspace, args) -> int:
    res = aumann_integral(ws.setfunction(args.function), ws.measure(args.measure))
    return _print_integral(res, f"integral of {args.function} with respect to {args.measure}")


def cmd_integrate_over(ws: Workspace, args) -> int:
    F, mu = ws.setfunction(args.function), ws.measure(args.measure)
    res = integral_over(F, mu, args.atoms)
    subset = "{" + ", ".join(ws.space.check_subset(args.atoms)) + "}"
    return _print_integral(
        res,
        f"integral of {args.function} over {subset} with respect to {args.measure}",
        f"mass of subset: {format_rational(mu.mass_of(args.atoms))}",
    )


def cmd_oracle(ws: Workspace, args) -> int:
    F, mu = ws.setfunction(args.function), ws.measure(args.measure)
    report = selection_oracle(F, mu, trials=args.trials, seed=args.seed)
    print(_flags_line(args))
    print(report.describe())
    return 0 if report.passed else 1


def cmd_lattice(ws: Workspace, args) -> int:
    names = args.functions
    fs = [ws.setfunction(n) for n in names]
    if args.scalar is not None and args.operation != "scale":
        raise ValidationError("--scalar applies only to scale")
    if args.operation == "oplus":
        if len(fs) < 2:
            raise ValidationError("oplus needs at least two set functions")
        values = [weighted_sum(ws.cone, [(1, f.values[i]) for f in fs]) for i in range(len(ws.space))]
    elif args.operation == "scale":
        if args.scalar is None or len(fs) != 1:
            raise ValidationError("scale needs --scalar and exactly one set function")
        factor = read_number(args.scalar, "--scalar expects a rational number, got {!r}")
        values = fs[0].scale(factor).values
    else:
        op = inf_set if args.operation == "inf" else sup_set
        values = [op(ws.cone, [f.values[i] for f in fs]) for i in range(len(ws.space))]
    print(f"pointwise {args.operation} of {', '.join(names)}:")
    for atom, value in zip(ws.space.atoms, values):
        print(f"{atom}: {value.literal()}")
    return 0


def cmd_chain_check(ws: Workspace, args) -> int:
    chain = _override_schedule(ws.chain(args.chain), args.epsilon_schedule)
    mu = ws.measure(args.measure)
    print(_flags_line(args))
    report = monotone_limit_check(chain, mu)
    print(report.describe())
    return 0 if report.ok else 1


@contextlib.contextmanager
def _axiom_checks(ws: Workspace, args):
    """Print the flags line and the axiom report on one sample set; yields
    the functional and whether every check passed, and closes the functional
    afterwards."""
    samples = SampleSet(
        ws.space, ws.cone, seed=args.seed, count=args.sample_count, extra_directions=args.w_samples
    )
    with contextlib.closing(_build_functional(ws, args.functional, samples)) as phi:
        print(_flags_line(args, extra=f"functional={args.functional}"))
        report = run_axiom_checks(phi, samples)
        print(report.describe())
        yield phi, report.passed


def cmd_check_axioms(ws: Workspace, args) -> int:
    with _axiom_checks(ws, args) as (_, passed):
        return 0 if passed else 1


def cmd_reconstruct(ws: Workspace, args) -> int:
    with _axiom_checks(ws, args) as (phi, passed):
        if not passed:
            print("reconstruction skipped: axiom checks failed")
            return 1
        rec = reconstruct_measure(phi, ws.space, ws.cone)
        print(rec.describe())
        if not rec.ok:
            return 1
        rep = verify_representation(phi, rec.measure, ws.space, ws.cone, seed=args.seed)
        print(rep.describe())
        return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uppersets",
        description="Exact upper-set calculus, Aumann integration, and the "
        "integral-representation axiom checker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("workspace", help="workspace file")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="seed for all randomness")

    p = sub.add_parser("integrate", help="Aumann integral of a set function")
    common(p, seed=False)
    p.add_argument("function")
    p.add_argument("measure")
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("integrate-over", help="integral over a subset of atoms")
    common(p, seed=False)
    p.add_argument("function")
    p.add_argument("measure")
    p.add_argument("atoms", nargs="*", help="atoms of the subset (may be empty via --)")
    p.set_defaults(fn=cmd_integrate_over)

    p = sub.add_parser("oracle", help="selection-based cross-check of an integral")
    common(p)
    p.add_argument("function")
    p.add_argument("measure")
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("lattice", help="pointwise lattice operations")
    common(p, seed=False)
    p.add_argument("operation", choices=["oplus", "scale", "inf", "sup"])
    p.add_argument("functions", nargs="+")
    p.add_argument("--scalar", help="rational factor for scale")
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("chain-check", help="monotone convergence along a chain")
    common(p, seed=False)
    p.add_argument("chain")
    p.add_argument("measure")
    p.add_argument(
        "--epsilon-schedule",
        default="auto",
        help="'auto' (declared schedule) or a rational r for the bound r/n",
    )
    p.set_defaults(fn=cmd_chain_check)

    for name, fn in (("check-axioms", cmd_check_axioms), ("reconstruct", cmd_reconstruct)):
        p = sub.add_parser(
            name,
            help="run the six-axiom conformance check"
            + ("" if name == "check-axioms" else " and reconstruct the measure"),
        )
        common(p)
        p.add_argument(
            "functional",
            help="workspace functional name, integral:MEASURE, or mutant:NAME:MEASURE",
        )
        p.add_argument("--sample-count", type=int, default=20)
        p.add_argument("--w-samples", type=int, default=2, help="extra random dual directions")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(parse_workspace(args.workspace), args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except (ValidationError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was closed early: point it at devnull so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
