"""Tests for the shared-memory column cache and its orphan sweep.

Nothing in the engine publishes segments any more; the cache stays so
``engine gc`` and the service drain can sweep segments that earlier
versions left behind.
"""

import glob
import json
import multiprocessing
import os
import subprocess

import pytest

from repro.engine.executor import JobFailure, execute_jobs
from repro.engine.store import COLUMN_SCHEMA, ColumnCache, _pid_alive
from repro.perfmon.collector import profile
from repro.suite.experiments import EXPERIMENTS

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not _HAS_FORK, reason="pool tests inject builders via fork inheritance"
)


def _payload() -> bytes:
    return bytes(range(256)) * 256


@pytest.fixture(autouse=True)
def _reap_segments():
    """Leave no shared-memory residue behind, whatever a test did."""
    yield
    for path in glob.glob(f"/dev/shm/repro_{os.getpid()}_*"):
        try:
            os.unlink(path)
        except OSError:
            pass


def _dead_pid() -> int:
    """A PID guaranteed dead: a reaped child of ours."""
    proc = subprocess.Popen(["sleep", "0"])
    proc.wait()
    return proc.pid


def _set_owner(cache: ColumnCache, key: str, pid: int) -> None:
    manifest = cache.manifest_path(key)
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    payload["owner_pid"] = pid
    manifest.write_text(json.dumps(payload), encoding="utf-8")


class TestPublishAttach:
    def test_roundtrip_bit_exact(self, tmp_path):
        cache = ColumnCache(tmp_path)
        payload = _payload()
        key = cache.publish(payload)
        assert cache.attach(key) == payload

    def test_publish_is_idempotent(self, tmp_path):
        cache = ColumnCache(tmp_path)
        payload = _payload()
        key = cache.publish(payload)
        with profile() as prof:
            assert cache.publish(payload) == key
        counters = prof.counters.to_dict().get("colcache", {})
        assert counters.get("publishes", 0.0) == 0.0  # already attachable
        assert len(cache.segments()) == 1

    def test_attach_counts_in_perfmon(self, tmp_path):
        cache = ColumnCache(tmp_path)
        with profile() as prof:
            key = cache.publish(_payload())
            cache.attach(key)
        counters = prof.counters.to_dict()["colcache"]
        assert counters["publishes"] == 1.0
        assert counters["attaches"] == 1.0

    def test_missing_key_is_none(self, tmp_path):
        assert ColumnCache(tmp_path).attach("0" * 64) is None

    def test_bad_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ColumnCache(tmp_path).attach("not-a-key")

    def test_file_fallback_roundtrip(self, tmp_path, monkeypatch):
        def no_shm(self, key, payload):
            self.columns_dir.mkdir(parents=True, exist_ok=True)
            self.tmp_dir.mkdir(parents=True, exist_ok=True)
            staging = self.tmp_dir / f"columns.{key}.bin.tmp"
            staging.write_bytes(payload)
            os.replace(staging, self._bin_path(key))
            return "file", self._bin_path(key).name

        monkeypatch.setattr(ColumnCache, "_store_payload", no_shm)
        payload = _payload()
        key = ColumnCache(tmp_path).publish(payload)
        monkeypatch.undo()
        cache = ColumnCache(tmp_path)
        segment = cache.segments()[0]
        assert segment.kind == "file"
        # An unpatched instance (another process, conceptually) attaches.
        assert cache.attach(key) == payload

    def test_corrupt_payload_reads_as_miss(self, tmp_path):
        cache = ColumnCache(tmp_path)
        payload = _payload()
        key = cache.publish(payload)
        segment = cache.segments()[0]
        if segment.kind == "file":
            cache._bin_path(key).write_bytes(b"garbage" * 100)
        else:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(name=segment.name)
            try:
                seg.buf[:7] = b"garbage"
                ColumnCache._disown_shm(seg)
            finally:
                seg.close()
        assert cache.attach(key) is None

    def test_corrupt_manifest_reads_as_miss(self, tmp_path):
        cache = ColumnCache(tmp_path)
        key = cache.publish(_payload())
        cache.manifest_path(key).write_text("{not json", encoding="utf-8")
        assert cache.attach(key) is None

    def test_manifest_schema(self, tmp_path):
        cache = ColumnCache(tmp_path)
        key = cache.publish(_payload())
        manifest = json.loads(cache.manifest_path(key).read_text(encoding="utf-8"))
        assert manifest["schema"] == COLUMN_SCHEMA
        assert manifest["key"] == key
        assert manifest["owner_pid"] == os.getpid()
        assert manifest["kind"] in ("shm", "file")
        assert manifest["size_bytes"] == len(_payload())


class TestRelease:
    def test_release_removes_everything(self, tmp_path):
        cache = ColumnCache(tmp_path)
        key = cache.publish(_payload())
        assert cache.release(key) is True
        assert cache.attach(key) is None
        assert cache.segments() == []
        assert cache.release(key) is False  # second release: nothing left

    def test_clear_releases_all(self, tmp_path):
        cache = ColumnCache(tmp_path)
        cache.publish(_payload())
        assert cache.clear() == 1
        assert cache.segments() == []


class TestOrphanSweep:
    def test_pid_alive(self):
        assert _pid_alive(os.getpid()) is True
        assert _pid_alive(_dead_pid()) is False
        assert _pid_alive(0) is False
        assert _pid_alive(-1) is False

    def test_live_publisher_is_not_swept(self, tmp_path):
        cache = ColumnCache(tmp_path)
        key = cache.publish(_payload())
        assert cache.sweep_orphans() == []
        assert cache.attach(key) is not None

    def test_dead_publisher_is_swept(self, tmp_path):
        cache = ColumnCache(tmp_path)
        key = cache.publish(_payload())
        _set_owner(cache, key, _dead_pid())
        with profile() as prof:
            swept = cache.sweep_orphans()
        assert [s.key for s in swept] == [key]
        assert cache.attach(key) is None
        assert cache.segments() == []
        assert prof.counters.to_dict()["colcache"]["orphans_swept"] == 1.0

    def test_dry_run_sweeps_nothing(self, tmp_path):
        cache = ColumnCache(tmp_path)
        key = cache.publish(_payload())
        _set_owner(cache, key, _dead_pid())
        swept = cache.sweep_orphans(dry_run=True)
        assert [s.key for s in swept] == [key]
        assert cache.attach(key) is not None

    def test_engine_gc_reports_the_sweep(self, tmp_path, capsys):
        from repro.engine.cli import main

        cache = ColumnCache(tmp_path)
        key = cache.publish(_payload())
        _set_owner(cache, key, _dead_pid())
        assert main(["gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 orphaned column segment" in out
        assert key[:16] in out
        assert cache.segments() == []


@needs_fork
class TestExecutorWiring:
    def test_killed_worker_leaves_no_leaked_segments(self, monkeypatch):
        """A pool run, even one whose worker dies mid-job, creates no
        shared-memory segment for anything to leak or sweep."""
        monkeypatch.setitem(EXPERIMENTS, "dies", lambda: os._exit(13))
        results = execute_jobs(["dies"], jobs=2)
        assert isinstance(results[0], JobFailure)
        assert results[0].kind == "crash"
        assert glob.glob(f"/dev/shm/repro_{os.getpid()}_*") == []
