"""Command line interface.

Four subcommands over a shared expression argument:

* eval         -- evaluate the term expression at one index
* series       -- convergence report for the term series
* product      -- convergence report for the infinite product, plus the
                  absolute-convergence comparison and the log-sum
                  identity diagnostic
* check-bounds -- the two-sided log/norm comparison for one term value

Exit codes: 0 success, 1 numeric failure, an idempotent slot value with
a second complex part or (with --strict) a verdict other than
converged, 2 expression parse or usage error, 3 singular abort. JSON
output uses full-precision floats; text output rounds to 6 significant
digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import seqspec
from .core import Bicomplex, NonFiniteError, SingularOperand
from .products import SingularTerm, analyze_product, log_bound_check

# the single-analysis views stay importable here: bench/tracer.py wraps
# them by name on this module
from .products import (  # noqa: F401
    absolute_convergence_check,
    evaluate_product,
    log_sum_equivalence,
)
from .series import analyze_series
from .seqspec import IdempotentSlotError, ParseError
from .transcendental import log_branch

__all__ = ["main", "RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    command: str
    expr: str
    tol: float
    window: int
    max_terms: int
    at: int
    branch: tuple[int, int] | None
    json_output: bool
    strict: bool


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicomplex",
        description="Bicomplex sequence evaluation and convergence reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("expr", help="term expression in the sequence variable n")
    common.add_argument("--tol", type=float, default=1e-10,
                        help="convergence tolerance (default 1e-10)")
    common.add_argument("--window", type=int, default=8,
                        help="stability window length (default 8)")
    common.add_argument("--max-terms", type=int, default=10**6,
                        help="term budget (default 1000000)")
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--strict", action="store_true",
                        help="exit 1 unless the verdict is a clean convergence")

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate the expression at one index")
    p_eval.add_argument("--at", type=int, default=1, metavar="N",
                        help="term index (default 1)")
    p_eval.add_argument("--branch", type=int, nargs=2, metavar=("M", "N"),
                        help="also print the (M, N) branch logarithm of the value")

    sub.add_parser("series", parents=[common],
                   help="convergence report for the term series")
    sub.add_parser("product", parents=[common],
                   help="convergence report for the infinite product")

    p_bounds = sub.add_parser("check-bounds", parents=[common],
                              help="two-sided log/norm comparison for one term value")
    p_bounds.add_argument("--at", type=int, default=1, metavar="N",
                          help="term index (default 1)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if not args.tol > 0.0:
        raise ValueError("--tol must be positive")
    if args.window < 2:
        raise ValueError("--window must be at least 2")
    if args.max_terms < 1:
        raise ValueError("--max-terms must be at least 1")
    at = getattr(args, "at", 1)
    if at < 1:
        raise ValueError("--at must be at least 1")
    branch = getattr(args, "branch", None)
    return RunConfig(
        command=args.command,
        expr=args.expr,
        tol=args.tol,
        window=args.window,
        max_terms=args.max_terms,
        at=at,
        branch=tuple(branch) if branch is not None else None,
        json_output=args.json,
        strict=args.strict,
    )


def _f(x: float) -> str:
    return format(x, ".6g")


def _bc_json(w: Bicomplex | None):
    if w is None:
        return None
    pair = w.idempotent()
    return {
        "four_reals": list(w.four_reals),
        "idempotent": [
            [pair.p1.real, pair.p1.imag],
            [pair.p2.real, pair.p2.imag],
        ],
    }


def _bc_lines(label: str, w: Bicomplex | None) -> list[str]:
    if w is None:
        return [f"{label}: non-finite"]
    return [
        f"{label} (four-real): {w.format_four_real(6)}",
        f"{label} (idempotent): {w.format_idempotent(6)}",
    ]


def _emit(cfg: RunConfig, payload: dict, text_lines: list[str]) -> None:
    if cfg.json_output:
        envelope = {
            "command": cfg.command,
            "expr": cfg.expr,
            "config": {
                "tol": cfg.tol,
                "window": cfg.window,
                "max_terms": cfg.max_terms,
                "at": cfg.at,
                "branch": list(cfg.branch) if cfg.branch is not None else None,
                "strict": cfg.strict,
            },
        }
        envelope.update(payload)
        print(json.dumps(envelope, indent=2))
    else:
        for line in text_lines:
            print(line)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_eval(cfg: RunConfig, node) -> int:
    value = seqspec.eval_term(node, cfg.at)
    branch_log = None
    if cfg.branch is not None:
        branch_log = log_branch(value, cfg.branch)
    lines = _bc_lines("value", value)
    if branch_log is not None:
        m, n = cfg.branch
        lines += _bc_lines(f"branch ({m}, {n}) log", branch_log)
    _emit(cfg, {"value": _bc_json(value), "branch_log": _bc_json(branch_log)}, lines)
    return 0


def _series_json(report) -> dict:
    return {
        "verdict": report.verdict,
        "terms_used": report.terms_used,
        "tail_delta": report.tail_delta,
        "absolute": report.absolute,
        "component_verdicts": list(report.component_verdicts),
        "absolute_component_verdicts": list(report.absolute_component_verdicts),
        "limit_estimate": _bc_json(report.limit_estimate),
    }


def _cmd_series(cfg: RunConfig, node) -> int:
    report = analyze_series(
        seqspec.term_generator(node),
        tol=cfg.tol, window=cfg.window, n_max=cfg.max_terms,
    )
    lines = [
        f"verdict: {report.verdict}",
        f"terms used: {report.terms_used}",
        f"tail delta: {_f(report.tail_delta)}",
        f"absolute: {_yn(report.absolute)}",
        "component verdicts: " + ", ".join(report.component_verdicts),
    ]
    lines += _bc_lines("limit estimate", report.limit_estimate)
    _emit(cfg, {"report": _series_json(report)}, lines)
    if cfg.strict and report.verdict != "converged":
        return 1
    return 0


def _cmd_product(cfg: RunConfig, node) -> int:
    report, absolute_check, identity = analyze_product(
        seqspec.term_generator(node),
        tol=cfg.tol, window=cfg.window, n_max=cfg.max_terms,
    )
    lines = [
        f"verdict: {report.verdict}",
        f"terms used: {report.terms_used}",
        f"necessary condition: {_yn(report.necessary_condition_ok)}",
        f"absolute: {_yn(report.absolute)}",
        f"criteria agreement: {_yn(report.criteria_agreement)}",
    ]
    if report.singular_index is not None:
        lines.append(f"singular index: {report.singular_index}")
    lines += _bc_lines("limit estimate", report.limit_estimate)
    lines += _bc_lines("log sum", report.log_sum)
    if absolute_check is not None:
        lines.append(
            "absolute check: "
            f"{absolute_check.via_log_norms} / {absolute_check.via_deviation_norms}"
            f" ({'agree' if absolute_check.agree else 'disagree'})"
        )
        if absolute_check.hypothesis_violation_index is not None:
            lines.append(
                f"hypothesis violated at index {absolute_check.hypothesis_violation_index}"
            )
    if identity is not None:
        m, n = identity.branch_offset
        lines.append(
            f"log-sum identity: max discrepancy {_f(identity.max_discrepancy)}"
            f" over {identity.terms_used} terms,"
            f" branch offset ({m}, {n}), {identity.branch_offset_changes} changes"
        )

    payload = {
        "product": {
            "verdict": report.verdict,
            "terms_used": report.terms_used,
            "necessary_condition_ok": report.necessary_condition_ok,
            "absolute": report.absolute,
            "criteria_agreement": report.criteria_agreement,
            "singular_index": report.singular_index,
            "limit_estimate": _bc_json(report.limit_estimate),
            "log_sum": _bc_json(report.log_sum),
        },
        "absolute_check": None if absolute_check is None else {
            "via_log_norms": absolute_check.via_log_norms,
            "via_deviation_norms": absolute_check.via_deviation_norms,
            "agree": absolute_check.agree,
            "hypothesis_violation_index": absolute_check.hypothesis_violation_index,
            "terms_used": absolute_check.terms_used,
        },
        "log_sum_identity": None if identity is None else {
            "max_discrepancy": identity.max_discrepancy,
            "branch_offset": list(identity.branch_offset),
            "branch_offset_changes": identity.branch_offset_changes,
            "terms_used": identity.terms_used,
            "product_limit": _bc_json(identity.product_limit),
            "exp_of_log_sum": _bc_json(identity.exp_of_log_sum),
        },
    }
    _emit(cfg, payload, lines)
    if report.verdict == "singular_term":
        return 3
    if cfg.strict and report.verdict != "converged_nonsingular":
        return 1
    return 0


def _cmd_check_bounds(cfg: RunConfig, node) -> int:
    value = seqspec.eval_term(node, cfg.at)
    try:
        check = log_bound_check(value)
    except ValueError:
        payload = {
            "bounds": {
                "norm": abs(value),
                "precondition_ok": False,
                "ratio": None,
                "log_norm": None,
                "lower_ok": None,
                "upper_ok": None,
            }
        }
        lines = [
            f"norm: {_f(abs(value))}",
            "precondition: failed (norm must be below 0.5)",
        ]
        _emit(cfg, payload, lines)
        return 1 if cfg.strict else 0
    payload = {
        "bounds": {
            "norm": check.norm,
            "precondition_ok": True,
            "ratio": check.ratio,
            "log_norm": check.log_norm,
            "lower_ok": check.lower_ok,
            "upper_ok": check.upper_ok,
        }
    }
    lines = [
        f"norm: {_f(check.norm)}",
        "precondition: ok",
        f"ratio: {_f(check.ratio)}",
        f"lower bound: {'ok' if check.lower_ok else 'violated'}",
        f"upper bound: {'ok' if check.upper_ok else 'violated'}",
    ]
    _emit(cfg, payload, lines)
    if cfg.strict and not (check.lower_ok and check.upper_ok):
        return 1
    return 0


_DISPATCH = {
    "eval": _cmd_eval,
    "series": _cmd_series,
    "product": _cmd_product,
    "check-bounds": _cmd_check_bounds,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        node = seqspec.parse(cfg.expr)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[cfg.command](cfg, node)
    except (SingularOperand, SingularTerm) as err:
        print(f"singular abort: {err}", file=sys.stderr)
        return 3
    except NonFiniteError as err:
        print(f"non-finite abort: {err}", file=sys.stderr)
        return 1
    except IdempotentSlotError as err:
        print(f"evaluation error at term {err.term_index}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
