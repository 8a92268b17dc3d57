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
    sim_tracer,
    span,
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
