"""Command-line front end: select, genlog, verify, scale.

Every subcommand reads CSV, writes a JSON report (stdout or --output), and is
deterministic given its arguments: identical invocations produce byte-identical
reports.

Exit codes: 0 success, 2 I/O failure, 3 infeasible configuration or domain
violation, 4 numerical failure, 5 verification bound check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import (
    DomainViolationError,
    InfeasibleKError,
    InvalidAssignmentError,
    InvalidInputError,
    UnmlError,
)
from .gaussian import exact_log_norm_1d, log_norm_bound
from .genlogistic import GenLogisticSpec, genlog_codelength, genlog_mle
from .mixture import best_clustering  # noqa: F401  (bench/spans.py patches it here)
from .mixture import select
from .stats import (
    DomainSpec,
    choose_scale,
    load_csv,
    save_csv,
    scale_dataset,
)
from .verify import mc_log_norm_dataspace, quad_log_norm_1d

EXIT_OK = 0
EXIT_IO = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4
EXIT_BOUND_FAILED = 5


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _unit_factor(unit: str) -> float:
    return 1.0 if unit == "nats" else 1.0 / math.log(2.0)


def _spec_dict(spec: DomainSpec) -> dict:
    return {
        "R": spec.R,
        "eps1": [float(v) for v in spec.eps1],
        "eps2": [float(v) for v in spec.eps2],
    }


def cmd_select(args) -> int:
    data = load_csv(args.input, header=args.header)
    report = select(data, range(args.k_min, args.k_max + 1), args.seed, args.restarts,
                    R=args.r, eps2=args.eps2, eps1=args.eps1, margin=args.margin)
    f = _unit_factor(args.unit)
    payload = {
        "command": "select",
        "selected_k": report.selected_k,
        "alpha": report.alpha,
        "seed": report.seed,
        "restarts": report.restarts,
        "margin": args.margin,
        "unit": args.unit,
        "n": data.n,
        "m": data.m,
        "spec": _spec_dict(report.spec),
        "entries": [
            {
                "k": e.k,
                "data_term": e.data_term * f,
                "log_norm": e.log_norm * f,
                "total": e.total * f,
                "labels": [int(v) for v in e.assignment.labels],
            }
            for e in report.entries
        ],
        "skipped": [{"k": s.k, "reason": s.reason} for s in report.skipped],
    }
    _emit(payload, args.output)
    return EXIT_OK


def cmd_genlog(args) -> int:
    data = load_csv(args.input, header=args.header)
    if data.m != 1:
        raise InvalidInputError(
            f"generalized logistic fitting needs a single-column CSV, got m={data.m}")
    x = data.rows[:, 0]
    spec = GenLogisticSpec(theta_min=args.theta_min, theta_max=args.theta_max)
    theta_hat = genlog_mle(x)
    codelength = genlog_codelength(x, spec)
    f = _unit_factor(args.unit)
    payload = {
        "command": "genlog",
        "n": data.n,
        "theta_hat": theta_hat,
        "codelength": codelength * f,
        "theta_min": spec.theta_min,
        "theta_max": spec.theta_max,
        "unit": args.unit,
    }
    _emit(payload, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = DomainSpec.uniform(args.m, R=args.r, eps1=args.eps1, eps2=args.eps2)
    est = mc_log_norm_dataspace(args.n, spec, args.samples, args.seed)
    bound = log_norm_bound(args.n, spec)
    ok = est.log_value + 3.0 * est.std_error_log < bound
    payload = {
        "command": "verify",
        "m": args.m,
        "n": args.n,
        "samples": est.samples,
        "accepted": est.accepted,
        "seed": est.seed,
        "estimate": est.log_value,
        "stderr": est.std_error_log,
        "effective_samples": est.effective_samples,
        "max_weight_share": est.max_weight_share,
        "bound": bound,
        "pass": bool(ok),
        "spec": _spec_dict(spec),
    }
    if args.m == 1:
        payload["exact"] = exact_log_norm_1d(args.n, spec)
        payload["quadrature"] = quad_log_norm_1d(args.n, spec)
    _emit(payload, args.output)
    return EXIT_OK if ok else EXIT_BOUND_FAILED


def cmd_scale(args) -> int:
    data = load_csv(args.input, header=args.header)
    # scaling ignores eps1, so eps2 stands in for it
    spec = DomainSpec.uniform(data.m, R=args.r, eps1=args.eps2, eps2=args.eps2)
    alpha = choose_scale(data, spec, margin=args.margin)
    scaled = scale_dataset(data, alpha)
    save_csv(scaled, args.scaled_output)
    payload = {
        "command": "scale",
        "alpha": alpha,
        "margin": args.margin,
        "n": data.n,
        "m": data.m,
        "scaled_output": args.scaled_output,
    }
    _emit(payload, args.output)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--output", default=None, help="JSON report path (default stdout)")
    p.add_argument("--header", action="store_true", help="skip the first CSV line")


def _add_domain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=float, default=1.0,
                   help="bound on the squared mean norm (default 1)")
    p.add_argument("--eps2", type=float, default=0.25,
                   help="eigenvalue upper bound (default 0.25)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unml",
        description="Restricted-domain NML code lengths and cluster-count selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="select the number of clusters by code length")
    p.add_argument("input", help="CSV file, one observation per row")
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--margin", type=float, default=1.05,
                   help="slack factor applied to the scale (default 1.05)")
    p.add_argument("--unit", choices=("nats", "bits"), default="nats")
    _add_domain_flags(p)
    p.add_argument("--eps1", type=float, default=None,
                   help="eigenvalue lower bound (default: derived from the "
                        "smallest observed cluster eigenvalue)")
    _add_common(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("genlog", help="fit a generalized logistic code length")
    p.add_argument("input", help="single-column CSV")
    p.add_argument("--theta-min", type=float, default=0.01)
    p.add_argument("--theta-max", type=float, default=100.0)
    p.add_argument("--unit", choices=("nats", "bits"), default="nats")
    _add_common(p)
    p.set_defaults(func=cmd_genlog)

    p = sub.add_parser("verify", help="check the normalization bound by Monte Carlo")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--samples", type=int, default=100_000)
    _add_domain_flags(p)
    p.add_argument("--eps1", type=float, default=0.01,
                   help="eigenvalue lower bound (default 0.01)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scale", help="rescale a dataset into the restricted domain")
    p.add_argument("input", help="CSV file, one observation per row")
    p.add_argument("--scaled-output", required=True, help="path for the scaled CSV")
    p.add_argument("--margin", type=float, default=1.05)
    _add_domain_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_scale)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0 <= args.seed < 2 ** 64:
            raise InvalidInputError(f"seed must be a 64-bit unsigned integer, "
                                    f"got {args.seed}")
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InfeasibleKError, DomainViolationError, InvalidAssignmentError,
            ValueError) as exc:  # InvalidInputError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (FloatingPointError, UnmlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
