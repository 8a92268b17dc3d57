"""Tests for the active-profile context: recording, spans, sim tracing."""

import pytest

from repro.events import Resource, Simulator
from repro.perfmon.collector import (
    HOST_CLOCK,
    SIM_CLOCK,
    SimSpanTracer,
    Span,
    active,
    profile,
    record,
    replay,
    sim_tracer,
    span,
    tape,
)


class TestActivation:
    def test_no_profile_by_default(self):
        assert active() is None

    def test_profile_activates_and_deactivates(self):
        with profile(run="demo") as prof:
            assert active() is prof
            assert prof.meta["run"] == "demo"
        assert active() is None

    def test_nested_profiles_stack(self):
        with profile(level="outer") as outer:
            with profile(level="inner") as inner:
                assert active() is inner
            assert active() is outer

    def test_recording_is_noop_without_profile(self):
        record("processor", {"cycles": 1.0})  # must not raise

    def test_recording_lands_in_active_profile_only(self):
        with profile() as outer:
            record("processor", {"cycles": 1.0})
            with profile() as inner:
                record("processor", {"cycles": 10.0})
        assert outer.counters.get("processor", "cycles") == 1.0
        assert inner.counters.get("processor", "cycles") == 10.0


class TestTape:
    def test_tape_records_calls_in_order_and_still_counts(self):
        with profile() as prof:
            with tape() as calls:
                record("processor", {"cycles": 1.0})
                record("memory", {"sequential_words": 2.0})
        assert calls == [("processor", {"cycles": 1.0}), ("memory", {"sequential_words": 2.0})]
        assert prof.counters.get("processor", "cycles") == 1.0

    def test_tape_without_profile_stays_empty(self):
        with tape() as calls:
            record("processor", {"cycles": 1.0})
        assert calls == []

    def test_nested_tape_extends_its_outer_tape(self):
        with profile():
            with tape() as outer:
                record("processor", {"cycles": 1.0})
                with tape() as inner:
                    record("processor", {"cycles": 2.0})
                record("processor", {"cycles": 3.0})
        assert inner == [("processor", {"cycles": 2.0})]
        assert [c[1]["cycles"] for c in outer] == [1.0, 2.0, 3.0]

    def test_replay_counts_again_and_extends_an_open_tape(self):
        with profile() as prof:
            with tape() as calls:
                record("processor", {"cycles": 1.0})
            with tape() as outer:
                replay(calls)
        assert prof.counters.get("processor", "cycles") == 2.0
        assert outer == calls

    def test_replay_with_no_active_profile_is_a_noop(self):
        with profile() as prof:
            with tape() as calls:
                record("processor", {"cycles": 1.0})
        replay(calls)  # must not raise, and lands nowhere
        assert prof.counters.get("processor", "cycles") == 1.0
        assert active() is None

    def test_replay_keeps_call_order(self):
        # Float sums depend on order: 1e16 + 1 + 1 rounds away both ones,
        # 1 + 1 + 1e16 keeps them.
        with profile() as first:
            with tape() as calls:
                for value in (1.0, 1.0, 1e16):
                    record("processor", {"cycles": value})
        with profile() as again:
            replay(calls)
        assert again.counters.get("processor", "cycles") == 1e16 + 2.0
        assert again.counters.to_dict() == first.counters.to_dict()

    def test_taped_increments_are_copies(self):
        increments = {"cycles": 1.0}
        with profile():
            with tape() as calls:
                record("processor", increments)
        increments["cycles"] = 5.0
        assert calls == [("processor", {"cycles": 1.0})]


class TestHostSpans:
    def test_span_noop_without_profile(self):
        with span("quiet") as s:
            assert s is None

    def test_span_records_duration_and_attrs(self):
        with profile() as prof:
            with span("work", exp_id="t1") as s:
                assert s is not None
        [recorded] = prof.spans
        assert recorded.name == "work"
        assert recorded.clock == HOST_CLOCK
        assert recorded.attrs == {"exp_id": "t1"}
        assert recorded.end_s is not None
        assert recorded.duration_s >= 0.0

    def test_nesting_tracked_via_parent_links(self):
        with profile() as prof:
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner2"):
                    pass
        outer, inner, inner2 = prof.spans
        assert outer.parent is None
        assert inner.parent == 0
        assert inner2.parent == 0

    def test_finished_spans_filters_clock(self):
        with profile() as prof:
            with span("host-side"):
                pass
            prof.spans.append(Span(name="sim-side", clock=SIM_CLOCK,
                                   start_s=0.0, end_s=1.0))
            prof.spans.append(Span(name="open", clock=HOST_CLOCK, start_s=0.0))
        assert [s.name for s in prof.finished_spans(HOST_CLOCK)] == ["host-side"]
        assert [s.name for s in prof.finished_spans(SIM_CLOCK)] == ["sim-side"]
        assert len(prof.finished_spans()) == 2


class TestSimTracing:
    def test_sim_tracer_requires_active_profile(self):
        assert sim_tracer() is None
        with profile():
            assert isinstance(sim_tracer(), SimSpanTracer)

    def test_simulator_records_sim_clock_spans(self):
        def worker(delay):
            yield delay
            return delay

        with profile() as prof:
            sim = Simulator(tracer=sim_tracer(prefix="t"))
            sim.spawn(worker(2.5), name="a")
            sim.spawn(worker(1.0), name="b", delay=0.5)
            sim.run()
        spans = {s.name: s for s in prof.finished_spans(SIM_CLOCK)}
        assert set(spans) == {"t:a", "t:b"}
        assert spans["t:a"].start_s == 0.0
        assert spans["t:a"].end_s == pytest.approx(2.5)
        assert spans["t:b"].start_s == pytest.approx(0.5)
        assert spans["t:b"].end_s == pytest.approx(1.5)

    def test_sim_span_durations_are_simulated_not_host(self):
        def worker():
            yield 1000.0  # a thousand simulated seconds, instant on host

        with profile() as prof:
            sim = Simulator(tracer=sim_tracer())
            sim.spawn(worker(), name="slow")
            sim.run()
        [recorded] = prof.finished_spans(SIM_CLOCK)
        assert recorded.duration_s == pytest.approx(1000.0)

    def test_tracer_sees_queued_start_not_spawn(self):
        def blocked(res):
            from repro.events import Acquire, Release

            yield Acquire(res, 1)
            yield 1.0
            yield Release(res, 1)

        def holder(res):
            from repro.events import Acquire, Release

            yield Acquire(res, 1)
            yield 5.0
            yield Release(res, 1)

        with profile() as prof:
            sim = Simulator(tracer=sim_tracer())
            res = Resource(1, "cpu")
            sim.spawn(holder(res), name="holder")
            sim.spawn(blocked(res), name="blocked")
            sim.run()
        spans = {s.name: s for s in prof.finished_spans(SIM_CLOCK)}
        # Both processes *step* at t=0 (the acquire executes then), but
        # the blocked one only finishes after the holder releases.
        assert spans["sim:blocked"].end_s == pytest.approx(6.0)

    def test_untraced_simulator_still_runs_under_profile(self):
        def worker():
            yield 1.0

        with profile() as prof:
            sim = Simulator()
            sim.spawn(worker())
            sim.run()
        assert prof.finished_spans(SIM_CLOCK) == []
