"""Seeded short CLI jobs and their reference checks.

``generate(seed)`` yields an endless, reproducible stream of jobs over
the whole expression grammar (``+ - * / ^``, ``exp log sqrt``,
``[..|..]``, the constants) and all four commands. Series and product
jobs get a small term budget so each job takes milliseconds. About one
job in twelve is made syntactically invalid on purpose, and about one in
a hundred is nested deep in parentheses; both exercise the error paths.

``check(job, outcome)`` compares what the CLI did with the reference in
``reference.py`` and returns None or a one-line reason for failing.
"""

from __future__ import annotations

import json
import math
import random
import re
from typing import NamedTuple

from . import reference as ref

COMMANDS = ("eval", "check-bounds", "series", "product")
COMMAND_WEIGHTS = (30, 20, 25, 25)
CORRUPTIONS = (" )", " +", " ^ 1.5", " * foo", " $", "[")
EXIT_CODES = (0, 1, 2, 3)


class Job(NamedTuple):
    argv: list[str]
    command: str
    tree: tuple | None      # None when the text is invalid on purpose
    valid: bool
    json: bool
    at: int
    max_terms: int


class Outcome(NamedTuple):
    code: int | None        # None when main() raised
    uncaught: str | None    # exception type name when main() raised
    stdout: str
    wall_ns: int
    cpu_ns: int
    start_ns: int           # perf_counter_ns at the start


def _number(rng: random.Random):
    style = rng.random()
    if style < 0.5:
        text = str(rng.randint(0, 9))
    elif style < 0.85:
        text = f"{rng.randint(0, 9)}.{rng.randint(0, 99):02d}"
    else:
        text = f"{rng.randint(1, 9)}e{rng.choice(('-3', '-1', '2', '3'))}"
    return ("num", float(text), text)


def _tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.4:
            return _number(rng)
        if pick < 0.7:
            return ("var",)
        return ("const", rng.choice(tuple(ref.CONSTANTS)))
    pick = rng.random()
    if pick < 0.48:
        kind = rng.choice(("add", "sub", "mul", "div"))
        return (kind, _tree(rng, depth - 1), _tree(rng, depth - 1))
    if pick < 0.58:
        return ("neg", _tree(rng, depth - 1))
    if pick < 0.72:
        return ("pow", _tree(rng, depth - 1), rng.randint(-3, 4))
    if pick < 0.9:
        return ("call", rng.choice(ref.FUNCTIONS), _tree(rng, depth - 1))
    return ("idem", _tree(rng, depth - 1), _tree(rng, depth - 1))


def generate(seed: int):
    """Endless reproducible job stream for ``seed``."""
    rng = random.Random(seed)
    while True:
        command = rng.choices(COMMANDS, COMMAND_WEIGHTS)[0]
        tree = _tree(rng, rng.randint(1, 4))
        text = ref.render(tree)
        valid = True
        roll = rng.random()
        if roll < 0.08:
            text += rng.choice(CORRUPTIONS)
            valid = False
        elif roll < 0.09:
            depth = rng.randint(50, 3000)
            text = "(" * depth + text + ")" * depth
        opts: list[str] = []
        at = max_terms = 1
        if command in ("eval", "check-bounds"):
            at = rng.randint(1, 50)
            opts += ["--at", str(at)]
            if command == "eval" and rng.random() < 0.2:
                opts += ["--branch", str(rng.randint(-2, 2)), str(rng.randint(-2, 2))]
        else:
            max_terms = rng.randint(16, 128)
            opts += ["--max-terms", str(max_terms),
                     "--tol", rng.choice(("1e-6", "1e-8", "1e-10")),
                     "--window", str(rng.randint(2, 10))]
        as_json = rng.random() < 0.75
        if as_json:
            opts.append("--json")
        if rng.random() < 0.1:
            opts.append("--strict")
        yield Job(
            argv=[command, *opts, "--", text],
            command=command,
            tree=tree if valid else None,
            valid=valid,
            json=as_json,
            at=at,
            max_terms=max_terms,
        )


def terms_used(job: Job, out: str) -> int:
    """The primary report's terms_used, or 0 when there is none."""
    if job.command not in ("series", "product") or not out:
        return 0
    if job.json:
        try:
            doc = json.loads(out)
        except ValueError:
            return 0
        section = doc.get("report") or doc.get("product") or {}
        return int(section.get("terms_used", 0))
    m = re.search(r"^terms used: (\d+)$", out, re.M)
    return int(m.group(1)) if m else 0


def pair(bc) -> tuple[complex, complex]:
    """Idempotent components of a Bicomplex in the CLI's JSON output."""
    (a, b), (c, d) = bc["idempotent"]
    return complex(a, b), complex(c, d)


def _scan(tree, first: int, last: int):
    """Reference terms first..last; stops at the first failure, which it
    returns as the second element."""
    values = []
    for n in range(first, last + 1):
        try:
            values.append(ref.evaluate(tree, n))
        except (ref.Singular, ref.NonFinite, ref.Uncertain) as err:
            return values, err
    return values, None


def _may_be_singular(v) -> bool:
    return ref.singular_bounds(v)[0] <= ref.SINGULAR_TOL


def _singular_index(job: Job, out: str) -> int | None:
    if job.json:
        return json.loads(out)["product"]["singular_index"]
    m = re.search(r"^singular index: (\d+)$", out, re.M)
    return int(m.group(1)) if m else None


def check(job: Job, outcome: Outcome) -> str | None:
    """None when the outcome agrees with the reference, else a reason.

    Exit 3 needs an operand or product term that the reference cannot
    rule out as a zero divisor; exit 1 without output needs an overflow
    or an undecided operation; a report is compared value by value."""
    if outcome.uncaught is not None:
        return f"uncaught {outcome.uncaught}"
    code, out = outcome.code, outcome.stdout
    if code not in EXIT_CODES:
        return f"exit code {code}"
    if not job.valid:
        return None if code == 2 else f"invalid expression gave exit {code}"
    if code == 2:
        return "valid expression gave exit 2"
    pointwise = job.command in ("eval", "check-bounds")
    first, last = (job.at, job.at) if pointwise else (1, job.max_terms)
    values, stop = _scan(job.tree, first, last)
    if code == 3:
        if stop is not None:
            return None
        if job.command == "eval" and "--branch" in job.argv:
            return None if _may_be_singular(values[0]) else "branch log refused an invertible value"
        index = _singular_index(job, out) if job.command == "product" and out else None
        if index is not None and _may_be_singular(values[index - 1]):
            return None
        return "singular abort without a singular operand"
    if not out:
        # exit 1 with nothing printed is a numeric abort
        if stop is None or (isinstance(stop, ref.Singular) and stop.definite):
            return "numeric abort without a numeric cause"
        return None
    if not job.json:
        return None
    doc = json.loads(out)
    if job.command == "eval":
        return _check_value(values, stop, doc["value"])
    if job.command == "check-bounds":
        if stop is not None:
            return _definite(stop)
        want = values[0]
        norm = doc["bounds"]["norm"]
        ref_norm = math.hypot(abs(want.p1), abs(want.p2)) / math.sqrt(2.0)
        if abs(norm - ref_norm) > want.err + ref.ROUND * ref.EPS * ref_norm:
            return f"check-bounds norm {norm!r} != reference {ref_norm!r}"
        return None
    if job.command == "series":
        report = doc["report"]
        return _check_fold(values, stop, report, job.max_terms, series=True)
    report = doc["product"]
    if report["verdict"] == "singular_term":
        return None
    return _check_fold(values, stop, report, job.max_terms, series=False)


def _definite(stop) -> str | None:
    if isinstance(stop, (ref.Singular, ref.NonFinite)) and stop.definite:
        return f"a report although the reference is {stop}"
    return None


def _check_value(values, stop, bc) -> str | None:
    if stop is not None:
        return _definite(stop)
    if bc is None:
        return None
    got, want = pair(bc), values[0]
    bound = want.err + ref.rounding(want.mag)
    if not (ref.close(got[0], want.p1, bound) and ref.close(got[1], want.p2, bound)):
        return f"value {got} != reference {want[:2]}"
    return None


def _check_fold(values, stop, report, budget: int, series: bool) -> str | None:
    """Compare a series or product limit with the reference partial sum
    or product over the same terms.

    The product analyzer multiplies both components up to its stop. The
    series analyzer stops adding to a component once that component has
    a verdict, so each series component must match the reference partial
    sum at some count up to terms_used."""
    used = report["terms_used"]
    if not 1 <= used <= budget:
        return f"terms_used {used} outside 1..{budget}"
    if stop is not None and len(values) < used:
        return _definite(stop)
    bc = report["limit_estimate"]
    if bc is None:
        return None
    got = pair(bc)
    acc = ref.Val(0j, 0j, 0.0) if series else ref.Val(1 + 0j, 1 + 0j, 0.0)
    partials = []
    try:
        for v in values[:used]:
            acc = ref.add(acc, v) if series else ref.mul(acc, v)
            partials.append(acc)
    except (ref.Singular, ref.NonFinite, ref.Uncertain):
        return None
    if not series:
        partials = partials[-1:]
    for k in (0, 1):
        if not any(ref.close(got[k], p[k], p.err + ref.rounding(p.mag)) for p in partials):
            return f"limit component {k + 1} {got[k]!r} != reference {partials[-1][k]!r}"
    return None
