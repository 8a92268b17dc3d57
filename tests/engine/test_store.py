"""Tests for the content-addressed result store."""

import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.deps import ExperimentDigest
from repro.engine.store import (
    CHUNK_SCHEMA,
    STORE_SCHEMA,
    CachedResult,
    ChunkStore,
    ResultStore,
    canonical_bytes,
    payload_checksum,
)
from repro.suite.results import Experiment

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="concurrency tests fork writer processes",
)


def _digest(exp_id="table_x", key=None):
    return ExperimentDigest(
        exp_id=exp_id, key=key or ("a" * 64), modules=("repro.units",)
    )


def _experiment(exp_id="table_x"):
    exp = Experiment(exp_id=exp_id, title="a test experiment",
                     headers=["k", "v"], rows=[["speed", 865.9]],
                     series={"curve": [(1.0, 2.0), (3.0, 4.0)]},
                     paper_values={"speed": 865.9, 7: "int-keyed"})
    exp.check("holds", True, detail="why")
    return exp


class TestPutGet:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        digest = _digest()
        store.put(digest, _experiment(), elapsed_s=0.25)
        cached = store.get(digest)
        assert cached is not None
        assert cached.exp_id == "table_x"
        assert cached.elapsed_s == 0.25
        assert canonical_bytes(cached.experiment) == canonical_bytes(_experiment())

    def test_contains(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        assert not store.contains(digest)
        store.put(digest, _experiment(), 0.0)
        assert store.contains(digest)

    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).get(_digest()) is None

    def test_mismatched_ids_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        try:
            store.put(_digest(exp_id="other"), _experiment(), 0.0)
        except ValueError:
            return
        raise AssertionError("expected ValueError")

    def test_atomic_write_leaves_no_staging(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_digest(), _experiment(), 0.0)
        assert list(store.tmp_dir.glob("*.tmp")) == []

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        store.entry_path(digest).write_text("{not json")
        assert store.get(digest) is None

    def test_wrong_schema_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        payload = json.loads(store.entry_path(digest).read_text())
        payload["schema"] = 999
        store.entry_path(digest).write_text(json.dumps(payload))
        assert store.get(digest) is None

    def test_entries_carry_a_verifiable_checksum(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        payload = json.loads(store.entry_path(digest).read_text())
        assert payload["checksum"] == payload_checksum(payload["experiment"])


class TestQuarantine:
    def test_unparseable_entry_is_quarantined_on_read(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        name = store.entry_path(digest).name
        store.entry_path(digest).write_text("{not json")
        assert store.get(digest) is None
        assert not store.entry_path(digest).exists()
        assert (store.quarantine_dir / name).exists()
        assert store.quarantine_log == [(name, "unparseable JSON")]

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        """A tampered payload that still parses is caught by integrity."""
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        payload = json.loads(store.entry_path(digest).read_text())
        payload["experiment"]["title"] = "tampered"
        store.entry_path(digest).write_text(json.dumps(payload))
        assert store.get(digest) is None
        assert store.quarantine_log[0][1] == "checksum mismatch"

    def test_old_schema_is_a_miss_but_not_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        payload = json.loads(store.entry_path(digest).read_text())
        payload["schema"] = 1
        store.entry_path(digest).write_text(json.dumps(payload))
        assert store.get(digest) is None
        assert store.entry_path(digest).exists()  # left for overwrite
        assert store.quarantine_log == []

    def test_stats_count_corrupt_and_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        good = _digest("exp.a", "1" * 64)
        bad = _digest("exp.a", "2" * 64)
        gone = _digest("exp.a", "3" * 64)
        for d in (good, bad, gone):
            store.put(d, _experiment("exp.a"), 0.0)
        store.entry_path(bad).write_text("{not json")
        store.entry_path(gone).write_text("{not json")
        store.get(gone)  # quarantined on the way out
        stats = store.stats()
        assert stats.entries == 2
        assert stats.corrupt == 1
        assert stats.quarantined == 1
        assert "1 corrupt" in stats.summary()
        assert "1 quarantined" in stats.summary()

    def test_gc_quarantines_corrupt_entries_even_when_live(self, tmp_path):
        store = ResultStore(tmp_path)
        live = _digest("exp.a", "1" * 64)
        store.put(live, _experiment("exp.a"), 0.0)
        store.entry_path(live).write_text("{not json")
        removed = store.gc({"exp.a": live})
        assert [e.corrupt for e in removed] == [True]
        assert not store.entry_path(live).exists()
        assert len(store.quarantined_entries()) == 1

    def test_fault_injector_hook_corrupts_a_fresh_write(self, tmp_path):
        from repro.faults.inject import FaultAction, FaultInjector

        store = ResultStore(tmp_path)
        store.fault_injector = FaultInjector(actions=(
            FaultAction(site="store_entry", exp_id="table_x", kind="corrupt"),
        ))
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        assert store.fault_injector.applied_counts() == {"store_entry": 1}
        assert store.get(digest) is None  # quarantined, not served
        assert len(store.quarantined_entries()) == 1

    def test_clear_empties_the_quarantine_too(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        store.entry_path(digest).write_text("{not json")
        store.get(digest)
        assert len(store.quarantined_entries()) == 1
        store.clear()
        assert store.quarantined_entries() == []


class TestSurvey:
    def test_entries_and_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        d1 = _digest("exp.a", "1" * 64)
        d2 = _digest("exp.a", "2" * 64)
        d3 = _digest("exp.b", "3" * 64)
        for d in (d1, d2, d3):
            store.put(d, _experiment(d.exp_id), 0.0)
        entries = store.entries()
        assert len(entries) == 3
        # Dots in experiment ids survive the filename encoding.
        assert {e.exp_id for e in entries} == {"exp.a", "exp.b"}
        stats = store.stats({"exp.a": d1, "exp.b": d3})
        assert stats.entries == 3
        assert stats.by_experiment == {"exp.a": 2, "exp.b": 1}
        assert (stats.live, stats.stale) == (2, 1)
        assert stats.total_bytes > 0

    def test_empty_store(self, tmp_path):
        stats = ResultStore(tmp_path / "nowhere").stats()
        assert stats.entries == 0
        assert stats.live is None


class TestHygiene:
    def test_gc_drops_only_unaddressed(self, tmp_path):
        store = ResultStore(tmp_path)
        live = _digest("exp.a", "1" * 64)
        dead = _digest("exp.a", "2" * 64)
        store.put(live, _experiment("exp.a"), 0.0)
        store.put(dead, _experiment("exp.a"), 0.0)
        removed = store.gc({"exp.a": live})
        assert [e.key for e in removed] == [dead.key]
        assert store.contains(live)
        assert not store.contains(dead)

    def test_gc_dry_run_removes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        dead = _digest("exp.a", "2" * 64)
        store.put(dead, _experiment("exp.a"), 0.0)
        removed = store.gc({}, dry_run=True)
        assert len(removed) == 1
        assert store.contains(dead)

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_digest(), _experiment(), 0.0)
        assert store.clear() == 1
        assert store.entries() == []


class TestStagingSweep:
    """``gc`` and ``clear`` sweep ``tmp/`` by the writer pid each staging
    name carries: a live writer's file stays, a dead writer's goes."""

    @pytest.mark.parametrize("sweep", ["gc", "clear"])
    def test_live_writer_survives_a_sweep_loop(self, tmp_path, sweep):
        # A sweep that unlinks the staging file between the write and
        # os.replace fails the write with FileNotFoundError.
        results = ResultStore(tmp_path / "cache")
        chunks = ChunkStore(tmp_path / "cache")
        key = "e" * 64
        sweep_once = (lambda: results.gc({})) if sweep == "gc" else results.clear
        errors = _race_threads(
            lambda i: chunks.put("race", key, {"value": 7, "round": i}),
            sweep_once,
            writers=1,
            rounds=300,
        )
        assert errors == []
        assert chunks.get("race", key)["value"] == 7

    @pytest.mark.parametrize("sweep", ["gc", "clear"])
    def test_dead_writers_staging_is_swept(self, tmp_path, sweep):
        store = ResultStore(tmp_path / "cache")
        store.tmp_dir.mkdir(parents=True)
        dead = subprocess.Popen([sys.executable, "-c", ""])
        dead.wait()
        key = "e" * 64
        orphan = store.tmp_dir / f"sec4.7.3.{key}.{dead.pid}.1.tmp"
        nameless = store.tmp_dir / "stray.tmp"
        live = store.tmp_dir / f"sec4.7.3.{key}.{os.getpid()}.1.tmp"
        for path in (orphan, nameless, live):
            path.write_text("{}", encoding="utf-8")
        if sweep == "gc":
            store.gc({})
        else:
            store.clear()
        assert sorted(store.tmp_dir.iterdir()) == [live]


class TestCanonicalBytes:
    def test_round_trip_is_byte_identical(self, tmp_path):
        """The store's byte-identity contract, including int-keyed
        paper_values (the table7 shape that once broke it)."""
        store = ResultStore(tmp_path)
        digest = _digest()
        original = _experiment()
        store.put(digest, original, 0.0)
        assert canonical_bytes(store.get(digest).experiment) == canonical_bytes(original)


class TestChunkStore:
    KEY = "b" * 64

    def test_round_trip(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        chunk = {"trace_ids": ["hint"], "values": [1.0, 2.5, 0.1]}
        path = store.put("explore", self.KEY, chunk)
        assert path.name == f"explore.{self.KEY}.json"
        assert store.contains("explore", self.KEY)
        assert store.get("explore", self.KEY) == chunk

    def test_floats_round_trip_bit_exactly(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        values = [0.1, 1e300, 5e-324, 1.0 / 3.0, 9.2e-9]
        store.put("explore", self.KEY, {"values": values})
        back = store.get("explore", self.KEY)["values"]
        assert all(a == b for a, b in zip(values, back))

    def test_miss_returns_none(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        assert store.get("explore", self.KEY) is None
        assert not store.contains("explore", self.KEY)

    def test_bad_addresses_rejected(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        for namespace, key in [("", self.KEY), ("a.b", self.KEY),
                               ("a/b", self.KEY), ("explore", "short"),
                               ("explore", "Z" * 64)]:
            try:
                store.entry_path(namespace, key)
            except ValueError:
                continue
            raise AssertionError(f"{namespace!r}/{key!r} accepted")

    def test_unparseable_json_quarantined(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        path = store.put("explore", self.KEY, {"v": 1})
        path.write_text("{ not json", encoding="utf-8")
        assert store.get("explore", self.KEY) is None
        assert not path.exists()
        assert (store.quarantine_dir / path.name).exists()
        assert store.quarantine_log[-1][1] == "unparseable JSON"

    def test_checksum_mismatch_quarantined(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        path = store.put("explore", self.KEY, {"v": 1})
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["chunk"]["v"] = 2  # tamper without re-checksumming
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get("explore", self.KEY) is None
        assert store.quarantine_log[-1][1] == "checksum mismatch"

    def test_old_schema_is_a_plain_miss(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        path = store.put("explore", self.KEY, {"v": 1})
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["schema"] = 0
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get("explore", self.KEY) is None
        assert path.exists()  # not quarantined: recompute overwrites

    def test_entries_and_clear(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        store.put("explore", "c" * 64, {"v": 1})
        store.put("other", "d" * 64, {"v": 2})
        entries = store.entries()
        assert [e.exp_id for e in entries] == ["explore", "other"]
        assert store.clear() == 2
        assert store.entries() == []

    def test_shares_root_layout_with_result_store(self, tmp_path):
        # tmp/ is shared; each record kind quarantines into its own
        # directory, so result stats never count a chunk's damage.
        root = tmp_path / "cache"
        chunk_store = ChunkStore(root)
        result_store = ResultStore(root)
        assert chunk_store.quarantine_dir == root / "quarantine" / "chunks"
        assert result_store.quarantine_dir == root / "quarantine" / "results"
        assert chunk_store.tmp_dir == result_store.tmp_dir


def _racing_writer(root, namespace, key, rounds, barrier):
    """Hammer one chunk address from a separate process (fork target)."""
    store = ChunkStore(root)
    barrier.wait()
    for i in range(rounds):
        store.put(namespace, key, {"value": 7, "round": i % 3})


class TestChunkStoreConcurrency:
    """Two processes racing the same chunk key must leave one valid
    entry: the atomic tmp/ + os.replace discipline means readers only
    ever see a complete payload, so nothing gets quarantined."""

    KEY = "e" * 64

    @needs_fork
    def test_racing_writers_one_valid_entry_no_quarantine(self, tmp_path):
        root = tmp_path / "cache"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(3)
        writers = [
            ctx.Process(
                target=_racing_writer,
                args=(root, "race", self.KEY, 200, barrier),
            )
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        store = ChunkStore(root)
        barrier.wait()  # release both writers together
        # read mid-race: every observed payload must be complete
        seen = 0
        while any(w.is_alive() for w in writers):
            chunk = store.get("race", self.KEY)
            if chunk is not None:
                assert chunk["value"] == 7
                seen += 1
        for writer in writers:
            writer.join()
            assert writer.exitcode == 0

        entries = store.entries()
        assert [(e.exp_id, e.key) for e in entries] == [("race", self.KEY)]
        final = store.get("race", self.KEY)
        assert final is not None and final["value"] == 7
        assert store.quarantine_log == []
        assert not store.quarantine_dir.is_dir() or not any(
            store.quarantine_dir.iterdir()
        )

    @needs_fork
    def test_distinct_pids_never_collide_in_tmp(self, tmp_path):
        # The staging name embeds the pid, so concurrent writers never
        # truncate each other's in-flight file; after the dust settles
        # tmp/ holds no leftovers.
        root = tmp_path / "cache"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        writer = ctx.Process(
            target=_racing_writer, args=(root, "race", self.KEY, 100, barrier)
        )
        writer.start()
        store = ChunkStore(root)
        barrier.wait()
        for i in range(100):
            store.put("race", self.KEY, {"value": 7, "round": i % 3})
        writer.join()
        assert writer.exitcode == 0
        assert list(store.tmp_dir.glob("*.tmp")) == []
        assert store.get("race", self.KEY)["value"] == 7


def _race_threads(write, read, writers=4, rounds=100):
    """Run ``write(i)`` for ``rounds`` rounds in each of ``writers``
    threads while this thread keeps calling ``read()``; returns what
    the writers raised.  A short switch interval makes the threads
    interleave inside each write."""
    errors = []
    barrier = threading.Barrier(writers + 1)

    def writer():
        try:
            barrier.wait(timeout=30)
            for i in range(rounds):
                write(i)
        except Exception as exc:  # collected: the test asserts none
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        barrier.wait(timeout=30)
        while any(thread.is_alive() for thread in threads):
            read()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def _chunk_race(root):
    store = ChunkStore(root)
    key = "e" * 64

    def read():
        chunk = store.get("race", key)
        assert chunk is None or chunk["value"] == 7
        return chunk

    return store, (lambda i: store.put("race", key, {"value": 7, "round": i % 3})), read


def _result_race(root):
    store = ResultStore(root)
    digest = _digest()
    expected = canonical_bytes(_experiment())

    def read():
        cached = store.get(digest)
        assert cached is None or canonical_bytes(cached.experiment) == expected
        return cached

    return store, (lambda i: store.put(digest, _experiment(), float(i % 3))), read


class TestThreadedWriters:
    """Threads of one process racing one address: the staging name is
    unique per thread, so no writer truncates another's file, every
    write lands, readers only ever see complete records, and nothing
    is quarantined."""

    @pytest.mark.parametrize("race", [_chunk_race, _result_race], ids=["chunks", "results"])
    def test_racing_threads_one_valid_entry_no_quarantine(self, tmp_path, race):
        store, write, read = race(tmp_path / "cache")
        assert _race_threads(write, read) == []
        assert len(store.entries()) == 1
        assert read() is not None
        assert store.quarantine_log == []
        assert not store.quarantine_dir.is_dir() or not any(store.quarantine_dir.iterdir())
        assert list(store.tmp_dir.glob("*.tmp")) == []

    def test_scan_skips_records_removed_while_listing(self, tmp_path):
        # The spool scans (admission quotas, recovery) while other
        # threads delete or quarantine records.
        store = ChunkStore(tmp_path / "cache")
        keys = [f"{i:064x}" for i in range(20)]
        for key in keys:
            store.put("svcjob-public", key, {"v": 1})
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                for key in keys:
                    store.delete("svcjob-public", key)
                    store.put("svcjob-public", key, {"v": 1})

        thread = threading.Thread(target=churn)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            for _ in range(300):
                assert all(entry.size_bytes > 0 for entry in store.entries())
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            thread.join(timeout=60)
        assert not thread.is_alive()


class TestQuarantinePerKind:
    KEY = "b" * 64

    def test_chunk_quarantine_is_not_a_result_quarantine(self, tmp_path):
        root = tmp_path / "cache"
        chunks = ChunkStore(root)
        results = ResultStore(root)
        path = chunks.put("explore", self.KEY, {"v": 1})
        path.write_text('{"schema": 1, "key"', encoding="utf-8")  # torn
        assert chunks.get("explore", self.KEY) is None
        quarantined = chunks.quarantine_dir / path.name
        assert quarantined.exists()
        assert results.stats().quarantined == 0
        results.clear()
        assert quarantined.exists()


class TestBadBytes:
    """Bytes that once crashed a reader now end in quarantine."""

    KEY = "c" * 64

    def test_undecodable_result_is_quarantined_by_get_and_counted_by_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        store.entry_path(digest).write_bytes(b"\xff\xfe")
        assert store.stats().corrupt == 1
        assert store.get(digest) is None
        assert store.quarantine_log == [(store.entry_path(digest).name, "unparseable JSON")]
        assert store.stats().quarantined == 1

    def test_undecodable_result_is_recomputed_by_run_engine(self, tmp_path):
        from repro.engine import run_engine, suite_digests

        store = ResultStore(tmp_path)
        run_engine(["table2"], jobs=1, store=store)
        path = store.entry_path(suite_digests(["table2"])["table2"])
        path.write_bytes(b"\xff\xfe")
        report = run_engine(["table2"], jobs=1, store=store)
        assert [r.exp_id for r in report.successes] == ["table2"]
        assert len(store.quarantine_log) == 1
        assert store.get(suite_digests(["table2"])["table2"]) is not None

    def test_deeply_nested_chunk_is_quarantined(self, tmp_path):
        store = ChunkStore(tmp_path)
        path = store.put("explore", self.KEY, {"v": 1})
        path.write_text("[" * 200_000, encoding="utf-8")
        assert store.get("explore", self.KEY) is None
        assert store.quarantine_log == [(path.name, "unparseable JSON")]

    def test_checksummed_result_that_does_not_deserialize_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        path = store.put(digest, _experiment(), 0.0)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["experiment"]["series"] = [[1.0, 2.0]]
        payload["checksum"] = payload_checksum(payload["experiment"])
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(digest) is None
        assert store.quarantine_log == [(path.name, "payload does not deserialize")]


# --------------------------------------------------------------- fuzzing
#
# Every read either returns a verified record or None; a record that is
# not of another schema and does not verify ends in its kind's
# quarantine; stats() and gc(dry_run=True) never raise and move nothing.

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)
_EXPERIMENT_FIELDS = sorted(
    json.loads(canonical_bytes(_experiment()).decode("utf-8"))
)
_FUZZ = settings(max_examples=150, deadline=None)


def _other_schema(raw: bytes, schema: int) -> bool:
    """Whether ``raw`` parses to an object stamped with another schema."""
    try:
        parsed = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError):
        return False
    return isinstance(parsed, dict) and parsed.get("schema") != schema


def _assert_read_outcome(store, path, raw, schema, got):
    quarantined = store.quarantine_dir / path.name
    if got is not None:
        assert path.exists() and not quarantined.exists()
        assert store.quarantine_log == []
    elif _other_schema(raw, schema):
        assert path.exists() and store.quarantine_log == []
    else:
        assert not path.exists() and quarantined.exists()
        assert [name for name, _ in store.quarantine_log] == [path.name]


def _check_result_bytes(raw: bytes) -> None:
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        digest = _digest()
        path = store.entry_path(digest)
        path.parent.mkdir(parents=True)
        path.write_bytes(raw)
        stats = store.stats()
        removed = store.gc({}, dry_run=True)
        assert [entry.corrupt for entry in removed] == [stats.corrupt == 1]
        assert path.exists() and store.quarantine_log == []
        got = store.get(digest)
        if got is not None:
            assert isinstance(got, CachedResult) and isinstance(got.experiment, Experiment)
            assert stats.corrupt == 0
        _assert_read_outcome(store, path, raw, STORE_SCHEMA, got)


def _check_chunk_bytes(raw: bytes) -> None:
    with tempfile.TemporaryDirectory() as root:
        store = ChunkStore(root)
        path = store.entry_path("explore", TestBadBytes.KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(raw)
        got = store.get("explore", TestBadBytes.KEY)
        if got is not None:
            record = json.loads(raw.decode("utf-8"))
            assert got == record["chunk"]
            assert payload_checksum(got) == record["checksum"]
        _assert_read_outcome(store, path, raw, CHUNK_SCHEMA, got)


def _valid_result_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as root:
        return ResultStore(root).put(_digest(), _experiment(), 0.5).read_bytes()


def _valid_chunk_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as root:
        return ChunkStore(root).put("explore", TestBadBytes.KEY, {"v": [1.0, 2.5]}).read_bytes()


_byte_inputs = st.binary(max_size=64) | _json_values.map(
    lambda value: json.dumps(value).encode("utf-8")
)


class TestReaderFuzz:
    @given(raw=_byte_inputs)
    @example(raw=b"\xff\xfe")
    @example(raw=b"[" * 200_000)
    @_FUZZ
    def test_arbitrary_bytes(self, raw):
        _check_result_bytes(raw)
        _check_chunk_bytes(raw)

    def test_every_truncation_of_a_valid_record(self):
        for valid, check in ((_valid_result_bytes(), _check_result_bytes),
                             (_valid_chunk_bytes(), _check_chunk_bytes)):
            for end in range(len(valid) + 1):
                check(valid[:end])

    @given(field=st.sampled_from(_EXPERIMENT_FIELDS), value=_json_values)
    @example(field="series", value=[[1.0, 2.0]])
    @_FUZZ
    def test_experiment_field_replaced_with_checksum_recomputed(self, field, value):
        record = json.loads(_valid_result_bytes().decode("utf-8"))
        record["experiment"][field] = value
        record["checksum"] = payload_checksum(record["experiment"])
        _check_result_bytes(json.dumps(record).encode("utf-8"))
