"""Static analysis over WAM code and Prolog source (`docs/ANALYSIS.md`).

Three layers, mirroring the verification story of compile-time analyses
in B-Prolog and BinProlog (PAPERS.md) applied to the paper's
compiled-code-in-the-EDB architecture (§3.1):

* :mod:`~repro.analysis.verifier` — structural verification (V rules)
  and an abstract interpreter over the instruction CFG (A rules);
* :mod:`~repro.analysis.determinism` — first-argument partitioning,
  switch-table coverage and dead-code reachability (D rules);
* :mod:`~repro.analysis.lint` — clause-local source lint for ``.pl``
  programs (L rules and M201), with inline ``% lint:`` pragma waivers.

The compiler and assembler verify their own output when
:func:`enable_self_verify` has been called (the test suite turns it
on); the dynamic loader runs the structural rules over every
EDB-fetched clause record before anything executes it; and
``python -m repro.analysis`` lints/verifies the shipped corpus for CI.
"""

from __future__ import annotations

from .determinism import ProcedureReport, analyze_clauses
from .lint import LintFinding, lint_text
from .verifier import (Finding, check_clause, check_code, verify_clause,
                       verify_code)

__all__ = [
    "Finding", "LintFinding", "ProcedureReport",
    "analyze_clauses", "check_clause", "check_code", "lint_text",
    "verify_clause", "verify_code",
    "enable_self_verify", "self_verify_enabled", "describe_procedure",
]


def enable_self_verify(enabled: bool = True) -> None:
    """Make the compiler and assembler verify every block they emit.

    Debug/test knob: the tier-1 suite enables it in ``conftest.py`` so
    every compilation anywhere in the suite doubles as a verifier test.
    """
    from ..wam import assembler
    assembler.SELF_VERIFY = bool(enabled)


def self_verify_enabled() -> bool:
    from ..wam import assembler
    return assembler.SELF_VERIFY


def describe_procedure(session, name: str, arity: int) -> str:
    """Human-readable analysis report for one procedure — the REPL's
    ``:verify name/arity`` command.

    Looks the procedure up in main memory first, then in the EDB
    (fetching, decoding and verifying its stored clause code the same
    way the loader does).
    """
    from ..edb.codec import decode_code
    from ..wam.indexing import build_procedure_layout
    machine = session.machine
    lines = [f"{name}/{arity}:"]

    proc = machine.procedure(name, arity)
    if proc is not None and proc.code:
        findings = check_code(proc.code, arity=arity,
                              dictionary=machine.dictionary)
        lines.append(f"  main-memory block: {len(proc.code)} instructions"
                     f" ({proc.kind})")
        lines.extend(_render(findings))
        return "\n".join(lines)

    stored = session.store.lookup(name, arity)
    if stored is None:
        return f"no such procedure: {name}/{arity}"
    if stored.mode != "rules":
        return (f"{name}/{arity}: stored in {stored.mode!r} mode "
                f"({stored.nclauses} clauses) — code is generated at "
                "load time, nothing stored to verify")

    clauses = session.store.fetch_clauses(name, arity, {})
    findings: list = []
    compiled = []
    for i, sc in enumerate(clauses):
        code = decode_code(sc.relative_code, machine.dictionary,
                           session.store.external_dict)
        for f in check_code(code, arity=arity,
                            dictionary=machine.dictionary):
            findings.append(Finding(f.rule, f.offset,
                                    f"clause {i}: {f.message}"))
        compiled.append(session.loader._as_compiled(machine, sc, code))
    lines.append(f"  EDB: {len(clauses)} stored clauses "
                 f"(version {stored.version})")
    if not findings:
        layout = build_procedure_layout(compiled, index=machine.index_enabled)
        report = analyze_clauses(compiled, layout=layout)
        findings.extend(report.findings)
        lines.append("  block: "
                     f"{len(layout.code)} instructions, "
                     f"{len(report.partitions)} first-arg partitions, "
                     f"{report.deterministic_keys} deterministic")
        for (kind, key), positions in sorted(report.partitions.items(),
                                             key=lambda kv: str(kv[0])):
            lines.append(f"    {kind}"
                         f"{'' if key is None else ':' + str(key)}"
                         f" -> clauses {positions}")
    lines.extend(_render(findings))
    return "\n".join(lines)


def _render(findings) -> list:
    if not findings:
        return ["  verdict: clean"]
    out = [f"  verdict: {len(findings)} finding(s)"]
    for f in findings:
        out.append(f"    {f.rule} @{f.offset}: {f.message}")
    return out
