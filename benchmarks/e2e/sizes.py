"""Frozen sizes of the six workloads.

``full`` is what ``BENCHMARK.json`` measures; ``smoke`` is the same
workloads at about a twentieth of the data, for a check that takes
seconds.  The numbers were fitted once on the seed commit (2 cores) so
that one run — three set-ups, the timed window and the restart check —
stays under half a minute, and are constants from then on: a later change
is compared at the same sizes.

Keys: ``round`` is (class-1, class-2) reads per round; ``band1`` /
``band2`` the answer counts a class-1 / class-2 goal must have to enter
the pool and ``reach2`` the number of change points of a class-2 goal
(see ``wl_mvv.MvvInputs``); ``writes_per_round`` the writes every round
carries (``write_tail``: the writes after the read window);
``trace_window`` what the traced run executes (a fixed count, so
per-layer counts repeat exactly).
"""

#: default ``--seconds`` (``run_seconds`` in BENCHMARK.json)
RUN_SECONDS = 10
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: which goals may enter an MVV pool, at paper scale and at a tenth of it
_BANDS = dict(band1=(3, 3), band2=(18, 26), reach2=(20, 28))
_SMOKE_BANDS = dict(band1=(3, 3), band2=(5, 40), reach2=(10, 40))

SIZES = {
    "full": {
        "mvv_warm": dict(
            _BANDS, scale=1.0, buffer_pages=2048, pool1=48, pool2=6,
            round=(20, 5), writes_per_round=10, baseline_sample=5,
            trace_window={"rounds": 9}),
        "mvv_cold": dict(
            _BANDS, scale=1.0, buffer_pages=64, pool1=48, pool2=8,
            round=(9, 1), writes_per_round=10, baseline_sample=5,
            trace_window={"rounds": 4}),
        "wisconsin_mix": dict(
            scale=1.0, buffer_pages=128, writes_per_round=8,
            trace_window={"rounds": 9}),
        "reach_datalog": dict(
            edges=8000, trace_window={"rounds": 3}),
        "service_closed_read": dict(
            _BANDS, scale=1.0, buffer_pages=2048, pool1=48, pool2=0,
            round=(48, 0), queue_size=8, deadline_s=5.0, write_tail=300,
            baseline_sample=3, trace_window={"rounds": 6}),
        "service_open_mixed": dict(
            _BANDS, scale=1.0, pool1=48, pool2=0, queue_size=64,
            deadline_s=5.0, read_rate=80.0, write_rate=30.0, zipf_s=1.1,
            note_share=0.3, baseline_sample=3,
            trace_window={"seconds": 3.0}),
    },
    "smoke": {
        "mvv_warm": dict(
            _SMOKE_BANDS, scale=0.1, buffer_pages=2048, pool1=12, pool2=3,
            round=(8, 2), writes_per_round=10, baseline_sample=2,
            trace_window={"rounds": 1}),
        "mvv_cold": dict(
            _SMOKE_BANDS, scale=0.1, buffer_pages=8, pool1=12, pool2=3,
            round=(7, 1), writes_per_round=10, baseline_sample=2,
            trace_window={"rounds": 1}),
        "wisconsin_mix": dict(
            scale=0.1, buffer_pages=16, writes_per_round=4,
            trace_window={"rounds": 1}),
        "reach_datalog": dict(
            edges=1000, trace_window={"rounds": 1}),
        "service_closed_read": dict(
            _SMOKE_BANDS, scale=0.1, buffer_pages=2048, pool1=8, pool2=0,
            round=(12, 0), queue_size=8, deadline_s=5.0, write_tail=50,
            baseline_sample=2, trace_window={"rounds": 1}),
        "service_open_mixed": dict(
            _SMOKE_BANDS, scale=0.1, pool1=12, pool2=0, queue_size=64,
            deadline_s=5.0, read_rate=80.0, write_rate=20.0, zipf_s=1.1,
            note_share=0.3, baseline_sample=2,
            trace_window={"seconds": 1.0}),
    },
}
