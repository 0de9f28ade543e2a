"""A goal that raises, one that hits its deadline and one refused by a
full queue each land in ``failed_share`` and in no latency sample."""

import threading

from repro import QueryService

from harness import OpLog, timed_read
from wl_service import failure_reason

LOOP = "loop(N) :- N > 0, M is N - 1, loop(M).\nloop(0).\n"


def test_raise_deadline_and_refusal_are_failures_without_latency():
    log = OpLog()
    release = threading.Event()
    with QueryService(workers=1, queue_size=1) as svc:
        svc.store_program(LOOP)

        def ask(goal, timeout=None):
            return timed_read(
                log, lambda: svc.submit(goal, timeout=timeout).result(),
                lambda answers: True, failure_reason)

        def broken(session):
            raise ValueError("goal raised")

        assert ask("loop(10)") is not None                 # the one success
        assert ask(broken) is None                         # raises
        assert ask("loop(100000000)", timeout=0.05) is None    # deadline

        # one goal occupies the worker, one fills the queue: the third
        # submission is refused
        running = threading.Event()

        def hold(session):
            running.set()
            release.wait(10)
            return []

        blocker = svc.submit(hold)
        assert running.wait(10)
        queued = svc.submit("loop(1)")
        assert ask("loop(1)") is None                      # refused
        release.set()
        blocker.result(10)
        queued.result(10)

    assert log.attempted == 4
    assert log.failures == {"exception": 1, "deadline": 1, "refused": 1}
    assert log.failed_share == 0.75
    assert len(log.read_ms) == 1 and len(log.first_ms) == 1
