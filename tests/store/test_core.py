"""Correctness tests for the content-addressed artifact store."""

import json
import multiprocessing
import os
import time

import pytest

from repro.store import ArtifactStore, schema_version
from repro.store.core import default_store, set_default_store, store_enabled


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(root=str(tmp_path / "store"))


class TestKeying:
    def test_key_is_stable_and_order_sensitive(self):
        assert ArtifactStore.key("a", 1) == ArtifactStore.key("a", 1)
        assert ArtifactStore.key("a", 1) != ArtifactStore.key(1, "a")
        assert len(ArtifactStore.key("x")) == 64

    def test_paths_live_under_versioned_tree(self, store):
        path = store.path_for("netlist", "ab" + "0" * 62)
        assert f"v{schema_version()}" in path
        assert f"{os.sep}netlist{os.sep}ab{os.sep}" in path


class TestRoundTrip:
    def test_put_then_get(self, store):
        key = store.key("demo")
        payload = {"numbers": [1, 2, 3], "name": "demo"}
        store.put("testset", key, payload)
        assert store.get("testset", key) == payload
        assert store.stats.writes == 1
        assert store.stats.hits == 1

    def test_absent_key_is_a_miss(self, store):
        assert store.get("testset", store.key("nothing")) is None
        assert store.stats.misses == 1

    def test_kind_mismatch_is_a_miss(self, store):
        key = store.key("demo")
        store.put("testset", key, {"v": 1})
        assert store.get("faults", key) is None

    def test_last_writer_wins(self, store):
        key = store.key("demo")
        store.put("testset", key, {"v": 1})
        store.put("testset", key, {"v": 2})
        assert store.get("testset", key) == {"v": 2}

    def test_record_bytes_are_compact_json(self, store):
        """A record on disk is exactly ``json.dumps`` of itself (compact
        separators, no trailing newline) and reads back unchanged."""
        key = store.key("bytes")
        payload = {"name": "d\u00e9mo", "nested": {"b": [1, 2.5, None, True]}, "a": "x"}
        store.put("testset", key, payload)
        with open(store.path_for("testset", key), "rb") as handle:
            raw = handle.read()
        record = json.loads(raw.decode("utf-8"))
        assert raw == json.dumps(record, separators=(",", ":")).encode("utf-8")
        assert record["payload"] == payload
        assert store.get("testset", key) == payload

    def test_counters_file_is_sorted_json(self, store):
        store.get("testset", store.key("nothing"))
        store.flush_counters()
        with open(os.path.join(store.root, "counters.json"), "rb") as handle:
            raw = handle.read()
        totals = json.loads(raw.decode("utf-8"))
        assert raw == json.dumps(totals, sort_keys=True).encode("utf-8")
        assert totals["misses"] == 1


class TestCorruptionRecovery:
    def _put_one(self, store):
        key = store.key("victim")
        store.put("testset", key, {"v": 1})
        return key, store.path_for("testset", key)

    def test_truncated_record_is_discarded(self, store):
        key, path = self._put_one(store)
        with open(path, "r+", encoding="utf-8") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        assert store.get("testset", key) is None
        assert store.stats.errors == 1
        assert not os.path.exists(path)
        # Recompute-and-put makes the slot healthy again.
        store.put("testset", key, {"v": 1})
        assert store.get("testset", key) == {"v": 1}

    def test_bitflip_in_payload_is_discarded(self, store):
        key, path = self._put_one(store)
        record = json.load(open(path))
        record["payload"]["v"] = 999  # sha256 no longer matches
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        assert store.get("testset", key) is None
        assert not os.path.exists(path)

    def test_garbage_bytes_are_discarded(self, store):
        key, path = self._put_one(store)
        with open(path, "wb") as handle:
            handle.write(b"\x00\xff not json")
        assert store.get("testset", key) is None

    def test_schema_mismatch_is_discarded(self, store):
        key, path = self._put_one(store)
        record = json.load(open(path))
        record["schema"] = "0.0.0.0"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        assert store.get("testset", key) is None


class TestGc:
    def test_gc_evicts_lru_first(self, store):
        old_key = store.key("old")
        new_key = store.key("new")
        store.put("testset", old_key, {"v": "old"})
        store.put("testset", new_key, {"v": "new"})
        past = 1_000_000_000.0
        os.utime(store.path_for("testset", old_key), (past, past))
        size = os.path.getsize(store.path_for("testset", new_key))
        report = store.gc(max_bytes=size)
        assert report["evicted"] == 1
        assert store.get("testset", old_key) is None
        assert store.get("testset", new_key) == {"v": "new"}

    def test_gc_never_evicts_pinned(self, store):
        key = store.key("pinned")
        rel_path = store.put("testset", key, {"v": 1})
        report = store.gc(max_bytes=0, pinned=[rel_path])
        assert report["evicted"] == 0
        assert report["skipped_pinned"] == 1
        assert store.get("testset", key) == {"v": 1}

    def test_gc_removes_stale_tmp_files(self, store):
        from repro.store.core import TMP_STALE_SECONDS

        key = store.key("demo")
        store.put("testset", key, {"v": 1})
        droppings = os.path.join(os.path.dirname(store.path_for("testset", key)))
        dead = os.path.join(droppings, "dead-writer.tmp")
        with open(dead, "w") as handle:
            handle.write("partial")
        # A fresh tempfile belongs to a live writer mid-replace: kept.
        report = store.gc(max_bytes=10**9)
        assert report["removed_tmp"] == 0
        # Old droppings from a crashed writer: swept.
        stale = time.time() - TMP_STALE_SECONDS - 60
        os.utime(dead, (stale, stale))
        report = store.gc(max_bytes=10**9)
        assert report["removed_tmp"] == 1

    def test_clear_removes_artifacts_not_journals(self, store, tmp_path):
        store.put("testset", store.key("a"), {"v": 1})
        journal = os.path.join(store.journal_dir, "run.jsonl")
        os.makedirs(store.journal_dir, exist_ok=True)
        with open(journal, "w") as handle:
            handle.write("{}\n")
        assert store.clear() == 1
        assert store.artifact_files() == []
        assert os.path.exists(journal)


class TestSummary:
    def test_summary_counts_by_kind(self, store):
        store.put("testset", store.key("a"), {"v": 1})
        store.put("faults", store.key("b"), {"v": 2})
        store.put("faults", store.key("c"), {"v": 3})
        summary = store.summary()
        assert summary["artifacts"] == 3
        assert summary["by_kind"] == {"faults": 2, "testset": 1}
        assert summary["schema"] == schema_version()


def _hammer(root, key, value, iterations):
    store = ArtifactStore(root=root)
    for _ in range(iterations):
        store.put("testset", key, {"v": value})


class TestConcurrency:
    def test_concurrent_writers_same_key(self, tmp_path):
        """Two processes racing on one key: readers never see a torn file."""
        root = str(tmp_path / "store")
        key = ArtifactStore.key("contended")
        ctx = multiprocessing.get_context("spawn")
        workers = [
            ctx.Process(target=_hammer, args=(root, key, value, 25))
            for value in ("alpha", "beta")
        ]
        for worker in workers:
            worker.start()
        reader = ArtifactStore(root=root)
        observed = set()
        while any(worker.is_alive() for worker in workers):
            payload = reader.get("testset", key)
            if payload is not None:
                observed.add(payload["v"])
        for worker in workers:
            worker.join()
            assert worker.exitcode == 0
        # Whatever was observed must be a complete record from one writer.
        assert observed <= {"alpha", "beta"}
        final = reader.get("testset", key)
        assert final is not None and final["v"] in ("alpha", "beta")
        assert reader.stats.errors == 0


class TestDefaultStore:
    def test_env_disable_turns_store_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DISABLE", "1")
        set_default_store(None)
        assert not store_enabled()
        assert default_store() is None

    def test_default_store_honours_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "custom"))
        set_default_store(None)
        store = default_store()
        assert store is not None
        assert store.root == str(tmp_path / "custom")
