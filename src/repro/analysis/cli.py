"""``python -m repro.analysis`` — lint and verify Prolog/WAM code.

Subcommands::

    python -m repro.analysis                 # corpus: lint + verify all
    python -m repro.analysis corpus          # same, explicitly
    python -m repro.analysis lint F.pl ...   # lint source files
    python -m repro.analysis verify F.pl ... # compile + verify files

Exit codes are stable for CI: **0** clean, **1** findings, **2**
usage/parse error.  ``-q`` prints findings only.  Lint findings are
the L rules and M201 (docs/ANALYSIS.md).
"""

from __future__ import annotations

import sys
from typing import List, Optional, Tuple

from ..errors import ReproError
from .corpus import CorpusEntry, corpus_entries
from .lint import LintFinding, lint_text
from .verifier import check_code

__all__ = ["main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    quiet = "-q" in args
    args = [a for a in args if a != "-q"]
    if not args:
        args = ["corpus"]
    command, operands = args[0], args[1:]

    if command == "corpus" and not operands:
        return _run_corpus(quiet)
    if command == "lint" and operands:
        return _run_files(operands, verify=False, quiet=quiet)
    if command == "verify" and operands:
        return _run_files(operands, verify=True, quiet=quiet)
    print(__doc__.strip(), file=sys.stderr)
    return EXIT_ERROR


# =====================================================================
# Runners
# =====================================================================

def _run_corpus(quiet: bool) -> int:
    findings = 0
    units = 0
    procedures = 0
    hard_error = False
    for entry in corpus_entries():
        units += 1
        try:
            findings += _report_lint(entry.name,
                                     lint_text(entry.text,
                                               name=entry.name,
                                               extra_defined=entry.extra_defined))
        except ReproError as exc:
            hard_error = True
            print(f"{entry.name}: parse error: {exc}", file=sys.stderr)
            continue
        if entry.lint_only:
            continue
        try:
            n, unit_findings = _verify_entry(entry)
        except ReproError as exc:
            hard_error = True
            print(f"{entry.name}: compile error: {exc}", file=sys.stderr)
            continue
        procedures += n
        findings += unit_findings
    if not quiet:
        print(f"repro.analysis: {units} corpus units linted, "
              f"{procedures} procedures verified, "
              f"{findings} finding(s)")
    if hard_error:
        return EXIT_ERROR
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def _verify_entry(entry: CorpusEntry) -> Tuple[int, int]:
    """Compile *entry* into a fresh session (self-verify armed, so the
    compiler and assembler check every block they emit) and verify
    every resulting procedure's code block."""
    from .. import EduceStar
    from . import enable_self_verify, self_verify_enabled
    was = self_verify_enabled()
    enable_self_verify(True)
    try:
        session = EduceStar()
        session.consult(entry.text)
    finally:
        enable_self_verify(was)
    checked = 0
    findings = 0
    machine = session.machine
    for proc in machine.procedures.values():
        if not proc.code:
            continue
        checked += 1
        for f in check_code(proc.code, arity=proc.arity,
                            dictionary=machine.dictionary):
            findings += 1
            print(f"{entry.name}: {proc.name}/{proc.arity}: "
                  f"{f.rule} @{f.offset}: {f.message}")
    return checked, findings


def _run_files(paths: List[str], verify: bool, quiet: bool) -> int:
    findings = 0
    procedures = 0
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return EXIT_ERROR
        entry = CorpusEntry(path, text)
        try:
            findings += _report_lint(path, lint_text(text, name=path))
            if verify:
                n, unit_findings = _verify_entry(entry)
                procedures += n
                findings += unit_findings
        except ReproError as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            return EXIT_ERROR
    if not quiet:
        what = f", {procedures} procedures verified" if verify else ""
        print(f"repro.analysis: {len(paths)} file(s){what}, "
              f"{findings} finding(s)")
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def _report_lint(unit: str, findings: List[LintFinding]) -> int:
    for f in findings:
        print(f"{unit}: {f.rule} {f.indicator}: {f.message}")
    return len(findings)
