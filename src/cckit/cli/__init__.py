"""Command line front end.

Subcommands: classify, dualize, verify, bracket, symmetry, suite.
Exit codes: 0 all checks passed, 1 a mathematical check failed,
2 malformed input (bad JSON/schema/expressions, bad environment cap).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from ..algebra import TermLimitExceeded, format_scalar, refresh_term_limit
from ..algebra.parser import MAX_EXPONENT
from ..report import CheckEntry, ConditionReport, format_residual, residual_is_zero
from ..structures import (
    CovariantPair,
    NotRegular,
    StructureError,
    classify,
    dualize,
    regularity_density,
    verify_contravariant_identities,
    verify_duality,
)
from ..symmetries import PairChecks, SymmetryTarget, commutator_residual, pair_bracket
from .files import InputError, load_pairs, load_structure, pair_spec, tensor_spec
from .suite import run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cckit",
        description=(
            "Exact calculus for almost-cosymplectic-contact structures on "
            "odd-dimensional coordinate charts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(
        name: str, help_text: str, handler, pairs: bool = False
    ) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        cmd.add_argument(
            "-s", "--structure", required=True, metavar="FILE",
            help="structure file (JSON)",
        )
        if pairs:
            cmd.add_argument(
                "-p", "--pairs", required=True, metavar="FILE",
                help="generator pair file (JSON)",
            )
        cmd.add_argument(
            "--json", action="store_true", dest="as_json",
            help="emit a machine-readable JSON report",
        )
        return cmd

    add("classify", "classification and regularity density", _cmd_classify)
    add("dualize", "solve for the dual pair (E, Lambda) and certify it",
        _cmd_dualize)
    add("verify", "duality certificate plus the bracket identities of the dual",
        _cmd_verify)
    add("bracket", "bracket of two generator pairs plus compatibility check",
        _cmd_bracket, pairs=True)
    symmetry = add("symmetry", "certify a pair as a symmetry generator",
                   _cmd_symmetry, pairs=True)
    symmetry.add_argument(
        "-t", "--target", required=True,
        choices=[target.value for target in SymmetryTarget],
        help="symmetry target",
    )
    suite = add("suite", "randomized exact identity suite", _cmd_suite)
    suite.add_argument("--trials", type=int, default=5,
                       help="trials per section (default 5)")
    suite.add_argument("--degree", type=int, default=2,
                       help="max total degree of random coefficients (default 2)")
    suite.add_argument("--seed", type=int, default=0,
                       help="random seed (same seed, same report)")
    return parser


class _Output:
    """Collects the report; prints text immediately or JSON at the end."""

    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.doc: dict[str, Any] = {}
        self.reports: list[dict[str, Any]] = []

    def say(self, line: str = "") -> None:
        if not self.as_json:
            print(line)

    def set(self, key: str, value: Any) -> None:
        self.doc[key] = value

    def report(self, report: ConditionReport, chart) -> None:
        rendered = {
            "title": report.title,
            "ok": report.ok,
            "entries": [
                {
                    "label": entry.label,
                    "ok": entry.ok,
                    "residual": None
                    if entry.ok and residual_is_zero(entry.residual)
                    else format_residual(entry.residual, chart),
                }
                for entry in report.entries
            ],
        }
        self.reports.append(rendered)
        self.say(f"{report.title}: {'pass' if report.ok else 'FAIL'}")
        for entry in report.entries:
            mark = "ok " if entry.ok else "FAIL"
            self.say(f"  [{mark}] {entry.label}")
            if not entry.ok:
                self.say(f"         residual: {format_residual(entry.residual, chart)}")

    def finish(self, exit_code: int) -> int:
        if self.as_json:
            self.doc["reports"] = self.reports
            self.doc["ok"] = exit_code == EXIT_OK
            print(json.dumps(self.doc, indent=2))
        return exit_code


def _cmd_classify(args, cov: CovariantPair, out: _Output) -> int:
    kind = classify(cov)
    density = regularity_density(cov)
    out.set("class", kind.value)
    out.set("density", format_scalar(density, cov.chart))
    out.say(f"class: {kind.value}")
    out.say(f"regularity density: {format_scalar(density, cov.chart)}")
    return EXIT_OK


def _cmd_dualize(args, cov: CovariantPair, out: _Output) -> int:
    con = dualize(cov)
    chart = cov.chart
    out.set("E", tensor_spec(con.E))
    out.set("Lambda", tensor_spec(con.Lam))
    out.say(f"E = {format_residual(con.E, chart)}")
    out.say(f"Lambda = {format_residual(con.Lam, chart)}")
    certificate = verify_duality(cov, con)
    out.set("density", format_scalar(regularity_density(cov), chart))
    out.report(certificate, chart)
    return EXIT_OK if certificate.ok else EXIT_CHECK_FAILED


def _cmd_verify(args, cov: CovariantPair, out: _Output) -> int:
    con = dualize(cov)
    chart = cov.chart
    certificate = verify_duality(cov, con)
    out.report(certificate, chart)
    identities = verify_contravariant_identities(cov, con)
    out.report(identities, chart)
    passed = certificate.ok and identities.ok
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_bracket(args, cov: CovariantPair, out: _Output) -> int:
    pairs = load_pairs(args.pairs, cov.chart)
    if len(pairs) != 2:
        raise InputError(
            f"{args.pairs}: bracket needs exactly 2 pairs, got {len(pairs)}"
        )
    con = dualize(cov)
    chart = cov.chart
    g1, g2 = pairs
    result = pair_bracket(cov, con, g1, g2)
    out.set("bracket", pair_spec(result))
    out.say(f"bracket alpha = {format_residual(result.alpha, chart)}")
    out.say(f"bracket h = {format_scalar(result.h, chart)}")
    residual = commutator_residual(cov, con, g1, g2, result)
    report = ConditionReport(
        "compatibility with the vector field commutator",
        (CheckEntry.of("X of the bracket minus [X_1, X_2]", residual),),
    )
    out.report(report, chart)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_symmetry(args, cov: CovariantPair, out: _Output) -> int:
    pairs = load_pairs(args.pairs, cov.chart)
    con = dualize(cov)
    chart = cov.chart
    target = SymmetryTarget(args.target)
    all_ok = True
    for index, g in enumerate(pairs):
        checks = PairChecks(cov, con, g)
        conditions = checks.conditions(target)
        out.report(conditions, chart)
        direct = checks.direct(target)
        out.report(direct, chart)
        agree = conditions.ok == direct.ok
        cross = ConditionReport(
            f"pair {index}: condition verdict matches direct verdict",
            (CheckEntry.verdict(
                f"conditions {'pass' if conditions.ok else 'fail'}, "
                f"direct {'pass' if direct.ok else 'fail'}", agree),),
        )
        out.report(cross, chart)
        verdicts = [conditions.ok, agree]
        if target in (SymmetryTarget.cov_pair, SymmetryTarget.contra_pair):
            eq = checks.equivalence()
            three_way = ConditionReport(
                f"pair {index}: covariant / contravariant / direct verdicts",
                (eq.summary("three certification routes agree"),),
            )
            out.report(three_way, chart)
            verdicts.append(eq.agree)
        all_ok = all_ok and all(verdicts)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _cmd_suite(args, cov: CovariantPair, out: _Output) -> int:
    chart = cov.chart
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
    if args.degree < 0:
        raise InputError("--degree must be non-negative")
    # the random exponent draw takes O(degree) steps per term, which no
    # term cap bounds; an input may ask for no larger power than this
    if args.degree > MAX_EXPONENT:
        raise InputError(f"--degree must be at most {MAX_EXPONENT}")
    result = run_suite(cov, args.trials, args.degree, args.seed)
    out.set("seed", args.seed)
    out.set("trials", args.trials)
    out.set("degree", args.degree)
    for section in result.sections:
        out.report(section, chart)
    skipped = []
    for title, reason in result.skipped:
        out.say(f"{title}: skipped ({reason})")
        skipped.append({"title": title, "reason": reason})
    out.set("skipped", skipped)
    return EXIT_OK if result.ok else EXIT_CHECK_FAILED


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Output(getattr(args, "as_json", False))
    out.set("command", args.command)
    try:
        refresh_term_limit()
    except TermLimitExceeded as exc:
        print(f"environment: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        code = args.handler(args, load_structure(args.structure), out)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except TermLimitExceeded as exc:
        print(f"size cap exceeded: {exc} ({exc.hint})", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NotRegular as exc:
        print(f"regularity check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except StructureError as exc:
        print(f"mathematical check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return out.finish(code)


def main() -> None:
    sys.exit(run())
