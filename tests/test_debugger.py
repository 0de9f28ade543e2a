"""Tests for the disassembler, tracer and instruction profiler."""

import pytest

from repro.errors import ExistenceError
from repro.wam.debugger import (
    Tracer,
    disassemble,
    format_instruction,
    instruction_profile,
)


class TestDisassemble:
    def test_static_procedure_listing(self, machine):
        machine.consult("p(a, X) :- q(X).")
        text = disassemble(machine, "p", 2)
        assert "% p/2 (static)" in text
        assert "get_constant 'a', X0" in text
        assert "execute q/1" in text

    def test_indexing_shown_symbolically(self, machine):
        machine.consult("k(a). k(b). k(f(1)).")
        text = disassemble(machine, "k", 1)
        assert "switch_on_term" in text
        assert "'a'->" in text
        assert "f/1->" in text

    def test_dynamic_procedure_compiled_on_demand(self, machine):
        machine.solve_once("assertz(d(1))")
        text = disassemble(machine, "d", 1)
        assert "get_constant 1, X0" in text

    def test_unknown_procedure_raises(self, machine):
        with pytest.raises(ExistenceError):
            disassemble(machine, "nope", 3)

    def test_format_single_instruction(self, machine):
        machine.consult("p(x).")
        proc = machine.procedure("p", 1)
        line = format_instruction(machine, proc.code[0])
        assert line == "get_constant 'x', X0"


class TestTracer:
    def test_captures_calls(self, machine):
        # The top-level goal itself is metacalled (no CALL instruction);
        # everything it invokes from compiled code is traced.
        machine.consult("t :- a, b. a :- b. b.")
        with Tracer(machine) as tracer:
            machine.solve_once("t")
        assert ("a", 0) in tracer.calls
        assert tracer.calls.count(("b", 0)) == 2

    def test_spypoints_filter_events(self, machine):
        machine.consult("outer :- inner1, inner2. inner1. inner2.")
        with Tracer(machine, spypoints=[("inner2", 0)]) as tracer:
            machine.solve_once("outer")
        spy_events = [e for e in tracer.events if "inner" in e]
        assert spy_events and all("inner2" in e for e in spy_events)

    def test_opcode_counts(self, machine):
        machine.consult("f(1). f(2).")
        with Tracer(machine) as tracer:
            machine.count_solutions("f(_)")
        assert tracer.opcode_counts["proceed"] >= 2

    def test_hook_restored_on_exit(self, machine):
        with Tracer(machine):
            pass
        assert machine.trace_hook is None

    def test_sink_receives_events(self, machine):
        machine.consult("g(1).")
        received = []
        with Tracer(machine, sink=received.append):
            machine.solve_once("g(_)")
        assert received

    def test_max_events_bounds_memory(self, machine):
        machine.consult("loop(0). loop(N) :- N > 0, M is N - 1, loop(M).")
        with Tracer(machine, max_events=10) as tracer:
            machine.solve_once("loop(100)")
        assert len(tracer.events) == 10

    def test_tracing_does_not_change_answers(self, machine):
        machine.consult("n(1). n(2). n(3).")
        plain = [s["X"] for s in machine.solve("n(X)")]
        with Tracer(machine):
            traced = [s["X"] for s in machine.solve("n(X)")]
        assert plain == traced


class TestInstructionProfile:
    def test_profile_shape(self, machine):
        machine.consult("sum([], 0). sum([H|T], S) :- sum(T, S0), "
                        "S is S0 + H.")
        profile = instruction_profile(machine, "sum([1,2,3], _)")
        assert profile["call"] >= 1 or profile["execute"] >= 1
        assert profile["arith"] >= 3  # the three is/2 evaluations

    def test_deterministic(self, machine):
        machine.consult("p(a). p(b).")
        a = instruction_profile(machine, "p(a)")
        b = instruction_profile(machine, "p(a)")
        assert a == b
