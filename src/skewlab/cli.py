"""Command-line surface: campaign runner, bound calculator, pair classifier,
grid scanners, and counterexample reproduction.

Exit codes for `verify`: 0 all asserted inequalities pass, 1 a violation was
found, 2 configuration or domain error (in which case no report is written).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing
from importlib import resources

from .functions import (
    Assumption,
    check_assumption,
    classify_pair,
    beta_coefficient,
    l_scan_min,
    lemma41_check,
    ratio_bounds,
    triple_from_spec,
)
from .harness import (
    INEQUALITIES,
    ConfigError,
    _setting_from_entry,
    config_from_dict,
    run_campaign,
    search_counterexample,
)
from .linalg import DomainError

__all__ = ["main", "run", "load_default_config"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_json_arg(text: str):
    """Parse an inline JSON argument; an @path prefix reads from a file."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def load_default_config() -> dict:
    """The bundled theorem campaign (all inequalities, dims 2/3/4/8)."""
    text = resources.files("skewlab").joinpath("data/default_campaign.json").read_text()
    return json.loads(text)


def _cmd_verify(args) -> int:
    if args.format is not None and not args.out:
        raise ValueError("--format needs --out: the report is only written to a file")
    if args.config is None:
        doc = load_default_config()
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    config = config_from_dict(doc)

    report = run_campaign(config, threads=args.threads)
    for stats in report.stats:
        status = "PASS" if stats.violations == 0 else "VIOLATED"
        print(
            f"{status} {stats.setting['id']}: samples={stats.samples} "
            f"violations={stats.violations} min_margin={_fmt(stats.min_margin)}"
        )
    if args.out:
        fmt = args.format or "json"
        with open(args.out, "w", encoding="utf-8") as fh:
            if fmt == "json":
                fh.write(report.to_json_text())
                fh.write("\n")
            else:
                # closed on a failed write too, which stops the workers
                with closing(report.csv_rows(args.threads)) as text:
                    fh.writelines(text)
        print(f"report written to {args.out} ({fmt})")
    return 1 if report.failed else 0


def _cmd_beta(args) -> int:
    triple = triple_from_spec(_parse_json_arg(args.triple))
    bounds = ratio_bounds(triple, k=args.grid)
    beta = beta_coefficient(bounds)
    assumption = check_assumption(triple)
    print(f"m_g = {_fmt(bounds.m_g)}")
    print(f"M_g = {_fmt(bounds.M_g)}")
    print(f"m_h = {_fmt(bounds.m_h)}")
    print(f"M_h = {_fmt(bounds.M_h)}")
    print(f"beta = {_fmt(beta)}")
    print(f"assumption = {assumption.value}")
    if assumption is Assumption.NEITHER:
        print("warning: triple satisfies neither condition; beta carries no guarantee",
              file=sys.stderr)
    return 0


def _cmd_pairs(args) -> int:
    triple = triple_from_spec(_parse_json_arg(args.triple))
    # everything is decided before the first print, so an error prints nothing
    classes = [(name, *classify_pair(triple.f, fn, k=args.grid, eps=triple.eps))
               for name, fn in (("(f,g)", triple.g), ("(f,h)", triple.h))]
    assumption = check_assumption(triple)
    for name, kind, m, big_m in classes:
        print(f"{name}: {kind.value} m={_fmt(m)} M={_fmt(big_m)}")
    print(f"assumption = {assumption.value}")
    return 0


def _cmd_scan_l(args) -> int:
    triple = triple_from_spec(_parse_json_arg(args.triple))
    result = l_scan_min(triple, k=args.grid)
    assumption = check_assumption(triple)
    if assumption is not Assumption.NEITHER:
        bound = 16.0 * beta_coefficient(ratio_bounds(triple))
    print(f"min_L = {_fmt(result.min_value)}")
    print(f"argmin = ({_fmt(result.arg_x)}, {_fmt(result.arg_y)})")
    print(f"assumption = {assumption.value}")
    if assumption is Assumption.NEITHER:
        print("no bound asserted (triple satisfies neither condition)")
        return 0
    print(f"16*beta = {_fmt(bound)}")
    if result.min_value >= bound - 1e-9:
        print("PASS: min L >= 16*beta")
        return 0
    print("FAIL: min L < 16*beta")
    return 1


def _cmd_lemma41(args) -> int:
    report = lemma41_check(args.a, args.b, args.c, rmax=args.rmax, steps=args.steps)
    print(f"rhs = {_fmt(report.rhs)}")
    print("r,lhs,margin")
    for r, margin in zip(report.r_grid, report.margins):
        print(f"{_fmt(r)},{_fmt(margin + report.rhs)},{_fmt(margin)}")
    print(f"min_margin = {_fmt(report.min_margin)} at r = {_fmt(report.argmin_r)}")
    print(f"limit_gap = {_fmt(report.limit_gap)}")
    print(f"violations = {report.violations}")
    return 0 if report.violations == 0 else 1


def _cmd_counterexample(args) -> int:
    setting = args.id if args.entry is None else _setting_from_entry(_parse_json_arg(args.entry))
    record = search_counterexample(setting, budget=args.budget, seed=args.seed, dim=args.dim)
    if record is None:
        print("exhausted")
        return 1
    print(f"violation at index {record.index} (dim {record.dim})")
    print(f"lhs = {_fmt(record.lhs)}")
    print(f"rhs = {_fmt(record.rhs)}")
    print(f"margin = {_fmt(record.margin)}")
    print(record.to_json_text())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewlab",
        description="verify uncertainty-relation trace inequalities numerically",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification campaign from a config file")
    p.add_argument("config", nargs="?", default=None,
                   help="path to a campaign config (default: bundled campaign)")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.add_argument("--format", choices=("json", "csv"), default=None,
                   help="report format (default: json); needs --out")
    p.add_argument("--threads", type=int, default=1, help="worker processes (default: 1)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("beta", help="ratio bounds and the corner coefficient of a triple")
    p.add_argument("--triple", required=True, help="triple spec as JSON (or @file)")
    p.add_argument("--grid", type=int, default=10_000)
    p.set_defaults(fn=_cmd_beta)

    p = sub.add_parser("pairs", help="classify the (f,g) and (f,h) pairs of a triple")
    p.add_argument("--triple", required=True)
    p.add_argument("--grid", type=int, default=10_000)
    p.set_defaults(fn=_cmd_pairs)

    p = sub.add_parser("scan-l", help="grid-minimize the two-point ratio surface")
    p.add_argument("--triple", required=True)
    p.add_argument("--grid", type=int, default=200)
    p.set_defaults(fn=_cmd_scan_l)

    p = sub.add_parser("lemma41", help="margins of the scalar exponential inequality")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--rmax", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=2000)
    p.set_defaults(fn=_cmd_lemma41)

    p = sub.add_parser("counterexample", help="hunt for a violating instance")
    which = p.add_mutually_exclusive_group(required=True)
    plain = [i.value for i, record in INEQUALITIES.items() if record.functions is None]
    which.add_argument("--id", choices=plain,
                       help="inequality id, with its parameters drawn per sample "
                            "(THM31_FGH and COR41_PAIR need their functions: use --entry)")
    which.add_argument("--entry",
                       help="one campaign entry as JSON (or @file), e.g. a THM31_FGH "
                            "entry with its triple")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=2)
    p.set_defaults(fn=_cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the error code here
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, DomainError, ValueError, OverflowError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
