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
import os
import sys

from . import _HOME, seqspec
from .core import Bicomplex, NonFiniteError, SingularOperand, SingularTerm, _validate
from .seqspec import IdempotentSlotError, ParseError
from .transcendental import log_bound_check, log_branch

__all__ = ["main"]

# The library analyzers stay readable here, as bench/tracer.py wraps them
# by name on this module. Each loads its home module, the package's
# ``_HOME`` entry, on first read only (PEP 562), so eval and check-bounds
# load neither products nor series.
_ANALYZERS = ("evaluate_product", "absolute_convergence_check", "log_sum_equivalence",
              "analyze_series")


def __getattr__(name):
    if name not in _ANALYZERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(_HOME[name], globals(), level=1), name)


class _Formatter(argparse.HelpFormatter):
    """argparse's default formatter, its default width read as
    ``shutil.get_terminal_size`` reads it: ``COLUMNS``, then the terminal
    of ``sys.__stdout__``, then 80. argparse imports ``shutil`` for it, and
    with it ``bz2``, ``lzma`` and ``fnmatch``, on every run."""

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None):
        if width is None:
            try:
                width = int(os.environ["COLUMNS"])
            except (KeyError, ValueError):
                width = 0
            if width <= 0:
                try:
                    width = os.get_terminal_size(sys.__stdout__.fileno()).columns
                except (AttributeError, ValueError, OSError):
                    width = 0
            width = (width or 80) - 2
        super().__init__(prog, indent_increment, max_help_position, width)


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The arguments every command takes."""
    parser.add_argument("expr", help="term expression in the sequence variable n")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="convergence tolerance (default 1e-10)")
    parser.add_argument("--window", type=int, default=8,
                        help="stability window length (default 8)")
    parser.add_argument("--max-terms", type=int, default=10**6,
                        help="term budget (default 1000000)")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 unless the verdict is a clean convergence")
    # the JSON envelope reports both for every command
    parser.set_defaults(at=1, branch=None)


def _add_own(parser: argparse.ArgumentParser, name: str) -> None:
    """The handler and the arguments of the command ``name`` alone."""
    parser.set_defaults(run=_COMMANDS[name][0])
    if name in ("eval", "check-bounds"):
        parser.add_argument("--at", type=int, default=1, metavar="N",
                            help="term index (default 1)")
    if name == "eval":
        parser.add_argument("--branch", type=int, nargs=2, metavar=("M", "N"),
                            help="also print the (M, N) branch logarithm of the value")


def _build_parser() -> argparse.ArgumentParser:
    """The whole tree: a top-level parser with one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="bicomplex",
        description="Bicomplex sequence evaluation and convergence reports.",
        formatter_class=_Formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False, formatter_class=_Formatter)
    _add_common(common)
    for name, (_, text) in _COMMANDS.items():
        _add_own(sub.add_parser(name, parents=[common], help=text, formatter_class=_Formatter),
                 name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The run configuration of ``argv``: what
    ``_build_parser().parse_args(argv)`` gives, from one parser where
    ``argv[0]`` names a command.

    The tree hands every string after a command's name to that command's
    subparser, an ``ArgumentParser(prog="bicomplex " + name)`` with the
    arguments of the one built here. That parser prints the command's
    help and usage errors; the tree adds only the report of strings left
    over. So the tree is built where argv names no command or leaves a
    string over, and its parse prints the help or the error.
    """
    if argv and argv[0] in _COMMANDS:
        command = argparse.ArgumentParser(prog="bicomplex " + argv[0],
                                          formatter_class=_Formatter)
        _add_common(command)
        _add_own(command, argv[0])
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


# parameter of core._validate -> the option that sets it
_OPTIONS = {"tol": "--tol", "window": "--window", "n_max": "--max-terms"}


def _check_args(args: argparse.Namespace) -> None:
    """The checks argparse cannot make; ValueError names the option."""
    try:
        _validate(args.tol, args.window, args.max_terms)
    except ValueError as err:
        name, rule = str(err).split(" ", 1)
        raise ValueError(f"{_OPTIONS[name]} {rule}") from None
    if args.at < 1:
        raise ValueError("--at must be at least 1")


def _f(x: float) -> str:
    return format(x, ".6g")


def _bc_json(w: Bicomplex | None):
    if w is None:
        return None
    return {
        "four_reals": list(w.four_reals),
        "idempotent": [[w.p1.real, w.p1.imag], [w.p2.real, w.p2.imag]],
    }


# the report fields that hold a bicomplex value
_VALUE_FIELDS = ("limit_estimate", "log_sum", "product_limit", "exp_of_log_sum")


def _report_json(report) -> dict | None:
    """The JSON object of a report record, None for a missing report: the
    record's fields in order, its bicomplex values last."""
    if report is None:
        return None
    doc = {}
    for field in sorted(report._fields, key=_VALUE_FIELDS.__contains__):
        value = getattr(report, field)
        doc[field] = _bc_json(value) if field in _VALUE_FIELDS else value
    return doc


def _bc_lines(label: str, w: Bicomplex | None) -> list[str]:
    if w is None:
        return [f"{label}: non-finite"]
    return [
        f"{label} (four-real): {w.format_four_real(6)}",
        f"{label} (idempotent): {w.format_idempotent(6)}",
    ]


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    """Print the JSON envelope with ``--json``, else the text lines. JSON
    has no infinity or NaN: a report holding one is a NonFiniteError."""
    if args.json:
        import json
        envelope = {
            "command": args.command,
            "expr": args.expr,
            "config": {
                "tol": args.tol,
                "window": args.window,
                "max_terms": args.max_terms,
                "at": args.at,
                "branch": args.branch,
                "strict": args.strict,
            },
        }
        envelope.update(payload)
        try:
            text = json.dumps(envelope, indent=2, allow_nan=False)
        except ValueError as err:
            raise NonFiniteError(f"JSON output: {err}") from None
        print(text)
    else:
        for line in text_lines:
            print(line)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_eval(args: argparse.Namespace, node) -> int:
    value = seqspec.eval_term(node, args.at)
    branch_log = None if args.branch is None else log_branch(value, args.branch)
    lines = _bc_lines("value", value)
    if branch_log is not None:
        lines += _bc_lines("branch ({}, {}) log".format(*args.branch), branch_log)
    _emit(args, {"value": _bc_json(value), "branch_log": _bc_json(branch_log)}, lines)
    return 0


def _cmd_series(args: argparse.Namespace, node) -> int:
    from .series import _analyze_pairs
    blocks = seqspec._lane_blocks(node, 1, args.max_terms + 1)
    report = _analyze_pairs(blocks, args.tol, args.window, args.max_terms)
    lines = [
        f"verdict: {report.verdict}",
        f"terms used: {report.terms_used}",
        f"tail delta: {_f(report.tail_delta)}",
        f"absolute: {_yn(report.absolute)}",
        "component verdicts: " + ", ".join(report.component_verdicts),
    ]
    lines += _bc_lines("limit estimate", report.limit_estimate)
    _emit(args, {"report": _report_json(report)}, lines)
    if args.strict and report.verdict != "converged":
        return 1
    return 0


def _cmd_product(args: argparse.Namespace, node) -> int:
    from .products import _analyze_product_pairs
    blocks = seqspec._lane_blocks(node, 1, args.max_terms + 1)
    report, absolute_check, identity = _analyze_product_pairs(
        blocks, args.tol, args.window, args.max_terms
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
        "product": _report_json(report),
        "absolute_check": _report_json(absolute_check),
        "log_sum_identity": _report_json(identity),
    }
    _emit(args, payload, lines)
    if report.verdict == "singular_term":
        return 3
    if args.strict and report.verdict != "converged_nonsingular":
        return 1
    return 0


def _cmd_check_bounds(args: argparse.Namespace, node) -> int:
    value = seqspec.eval_term(node, args.at)
    try:
        check = log_bound_check(value)
    except ValueError:
        check = None  # the precondition ||w|| < 1/2 failed
    # abs(value) is check.norm whenever the check ran
    bounds = dict(norm=abs(value), precondition_ok=check is not None,
                  ratio=None, log_norm=None, lower_ok=None, upper_ok=None)
    lines = [f"norm: {_f(bounds['norm'])}"]
    if check is None:
        lines.append("precondition: failed (norm must be below 0.5)")
    else:
        bounds.update(ratio=check.ratio, log_norm=check.log_norm,
                      lower_ok=check.lower_ok, upper_ok=check.upper_ok)
        lines += [
            "precondition: ok",
            f"ratio: {_f(check.ratio)}",
            f"lower bound: {'ok' if check.lower_ok else 'violated'}",
            f"upper bound: {'ok' if check.upper_ok else 'violated'}",
        ]
    _emit(args, {"bounds": bounds}, lines)
    if args.strict and not (check is not None and check.lower_ok and check.upper_ok):
        return 1
    return 0


# command -> (handler, help line)
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate the expression at one index"),
    "series": (_cmd_series, "convergence report for the term series"),
    "product": (_cmd_product, "convergence report for the infinite product"),
    "check-bounds": (_cmd_check_bounds, "two-sided log/norm comparison for one term value"),
}


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        _check_args(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        node = seqspec.parse(args.expr)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    try:
        code = args.run(args, node)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, and point stdout at
        # devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
