"""DiskStore maintenance (stats / prune) and the ``repro cache`` CLI."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cli import main
from repro.core.processor import SimResult
from repro.core.stats import ThreadStats
from repro.sim.store import (CODE_VERSION_SALT, EXHIBIT_DIR,
                             EXHIBIT_RENDER_SALT, DiskStore,
                             ExhibitRenderCache)


def tiny_result(policy: str = "icount") -> SimResult:
    return SimResult(benchmarks=["gzip"], policy=policy, cycles=123,
                     thread_stats=[ThreadStats(committed=45)],
                     l2_misses=[6])


def populate(store: DiskStore, keys, salt=None) -> None:
    """Write entries, optionally rewriting their payload salt."""
    for key in keys:
        store.put(key, tiny_result())
        if salt is not None:
            path = store._path(key)
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            payload["salt"] = salt
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)


KEYS_NOW = ["aa" + "0" * 62, "ab" + "0" * 62]
KEYS_OLD_SALT = ["ba" + "0" * 62, "bb" + "0" * 62, "bc" + "0" * 62]


class TestDiskStoreStats:
    def test_stats_group_by_salt(self, tmp_path):
        store = DiskStore(str(tmp_path))
        populate(store, KEYS_NOW)
        populate(store, KEYS_OLD_SALT, salt="sim-engine-v0")
        stats = store.stats()
        assert stats["entries"] == 5
        assert stats["current_salt"] == CODE_VERSION_SALT
        assert stats["by_salt"][CODE_VERSION_SALT]["entries"] == 2
        assert stats["by_salt"]["sim-engine-v0"]["entries"] == 3
        assert stats["bytes"] > 0
        assert stats["oldest_mtime"] <= stats["newest_mtime"]

    def test_corrupt_entry_counted_separately(self, tmp_path):
        store = DiskStore(str(tmp_path))
        populate(store, KEYS_NOW[:1])
        bad_dir = tmp_path / "zz"
        bad_dir.mkdir()
        (bad_dir / ("zz" + "0" * 62 + ".json")).write_text("not json")
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["by_salt"]["<corrupt>"]["entries"] == 1


class TestDiskStorePrune:
    def test_requires_a_criterion(self, tmp_path):
        with pytest.raises(ValueError):
            DiskStore(str(tmp_path)).prune()

    def test_prune_stale_salts(self, tmp_path):
        store = DiskStore(str(tmp_path))
        populate(store, KEYS_NOW)
        populate(store, KEYS_OLD_SALT, salt="sim-engine-v0")
        outcome = store.prune(stale_salts=True)
        assert (outcome.examined, outcome.removed, outcome.kept) == (5, 3, 2)
        assert outcome.bytes_freed > 0
        assert store.stats()["entries"] == 2
        # Survivors still load.
        fresh = DiskStore(str(tmp_path))
        assert fresh.get(KEYS_NOW[0]) is not None
        assert fresh.get(KEYS_OLD_SALT[0]) is None

    def test_prune_by_age(self, tmp_path):
        store = DiskStore(str(tmp_path))
        populate(store, KEYS_NOW)
        old_path = store._path(KEYS_NOW[0])
        two_weeks = time.time() - 14 * 86400
        os.utime(old_path, (two_weeks, two_weeks))
        outcome = store.prune(older_than_days=7)
        assert (outcome.removed, outcome.kept) == (1, 1)
        assert not os.path.exists(old_path)

    def test_dry_run_removes_nothing(self, tmp_path):
        store = DiskStore(str(tmp_path))
        populate(store, KEYS_OLD_SALT, salt="sim-engine-v0")
        outcome = store.prune(stale_salts=True, dry_run=True)
        assert outcome.removed == 3
        assert store.stats()["entries"] == 3

    def test_pruned_entry_leaves_memory_layer(self, tmp_path):
        store = DiskStore(str(tmp_path))
        populate(store, KEYS_OLD_SALT[:1], salt="sim-engine-v0")
        assert store.get(KEYS_OLD_SALT[0]) is not None  # warm memory layer
        store.prune(stale_salts=True)
        assert store.get(KEYS_OLD_SALT[0]) is None


class TestCacheCli:
    def test_stats_output(self, tmp_path, capsys):
        store = DiskStore(str(tmp_path))
        populate(store, KEYS_NOW)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert CODE_VERSION_SALT in out

    def test_prune_stale(self, tmp_path, capsys):
        store = DiskStore(str(tmp_path))
        populate(store, KEYS_NOW)
        populate(store, KEYS_OLD_SALT, salt="sim-engine-v0")
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--stale-salts"]) == 0
        assert "removed 3 of 5" in capsys.readouterr().out
        assert DiskStore(str(tmp_path)).stats()["entries"] == 2

    def test_prune_dry_run(self, tmp_path, capsys):
        store = DiskStore(str(tmp_path))
        populate(store, KEYS_OLD_SALT, salt="sim-engine-v0")
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--stale-salts", "--dry-run"]) == 0
        assert "would remove 3" in capsys.readouterr().out
        assert DiskStore(str(tmp_path)).stats()["entries"] == 3

    def test_prune_without_criterion_errors(self, tmp_path):
        DiskStore(str(tmp_path))
        assert main(["cache", "prune",
                     "--cache-dir", str(tmp_path)]) == 2

    def test_missing_dir_errors(self, tmp_path):
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path / "absent")]) == 2


def populate_render_cache(cache: ExhibitRenderCache, keys,
                          salt=None) -> None:
    """Write renderings, optionally rewriting their payload salt."""
    for key in keys:
        cache.put(key, {"exhibit": "Figure 1", "title": "t",
                        "data": {}, "sections": []})
        if salt is not None:
            path = cache._path(key)
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            payload["salt"] = salt
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)


RENDER_KEYS_NOW = ["ca" + "0" * 62]
RENDER_KEYS_OLD = ["cb" + "0" * 62, "cc" + "0" * 62]


class TestRenderCachePool:
    def test_stats_group_by_render_salt(self, tmp_path):
        cache = ExhibitRenderCache(str(tmp_path / EXHIBIT_DIR))
        populate_render_cache(cache, RENDER_KEYS_NOW)
        populate_render_cache(cache, RENDER_KEYS_OLD,
                              salt="exhibit-render-v0")
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["current_salt"] == EXHIBIT_RENDER_SALT
        assert stats["by_salt"][EXHIBIT_RENDER_SALT]["entries"] == 1
        assert stats["by_salt"]["exhibit-render-v0"]["entries"] == 2

    def test_prune_stale_render_salts(self, tmp_path):
        cache = ExhibitRenderCache(str(tmp_path / EXHIBIT_DIR))
        populate_render_cache(cache, RENDER_KEYS_NOW)
        populate_render_cache(cache, RENDER_KEYS_OLD,
                              salt="exhibit-render-v0")
        outcome = cache.prune(stale_salts=True)
        assert (outcome.examined, outcome.removed,
                outcome.kept) == (3, 2, 1)
        assert cache.get(RENDER_KEYS_NOW[0]) is not None
        assert cache.get(RENDER_KEYS_OLD[0]) is None

    def test_prune_by_age_and_dry_run(self, tmp_path):
        cache = ExhibitRenderCache(str(tmp_path / EXHIBIT_DIR))
        populate_render_cache(cache, RENDER_KEYS_NOW + RENDER_KEYS_OLD)
        old_path = cache._path(RENDER_KEYS_OLD[0])
        two_weeks = time.time() - 14 * 86400
        os.utime(old_path, (two_weeks, two_weeks))
        preview = cache.prune(older_than_days=7, dry_run=True)
        assert preview.removed == 1
        assert os.path.exists(old_path)
        outcome = cache.prune(older_than_days=7)
        assert (outcome.removed, outcome.kept) == (1, 2)
        assert not os.path.exists(old_path)

    def test_requires_a_criterion(self, tmp_path):
        with pytest.raises(ValueError):
            ExhibitRenderCache(str(tmp_path / EXHIBIT_DIR)).prune()

    def test_result_store_scan_skips_render_pool(self, tmp_path):
        store = DiskStore(str(tmp_path))
        populate(store, KEYS_NOW)
        cache = ExhibitRenderCache(str(tmp_path / EXHIBIT_DIR))
        populate_render_cache(cache, RENDER_KEYS_NOW)
        assert store.stats()["entries"] == 2
        assert cache.stats()["entries"] == 1


class TestCacheCliBothPools:
    def test_stats_report_both_pools(self, tmp_path, capsys):
        populate(DiskStore(str(tmp_path)), KEYS_NOW)
        cache = ExhibitRenderCache(str(tmp_path / EXHIBIT_DIR))
        populate_render_cache(cache, RENDER_KEYS_NOW)
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "render cache" in out
        assert EXHIBIT_RENDER_SALT in out

    def test_stats_without_render_pool(self, tmp_path, capsys):
        populate(DiskStore(str(tmp_path)), KEYS_NOW)
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "render cache: none" in out
        # stats must not create the pool as a side effect
        assert not os.path.isdir(tmp_path / EXHIBIT_DIR)

    def test_prune_covers_both_pools(self, tmp_path, capsys):
        populate(DiskStore(str(tmp_path)), KEYS_OLD_SALT,
                 salt="sim-engine-v0")
        cache = ExhibitRenderCache(str(tmp_path / EXHIBIT_DIR))
        populate_render_cache(cache, RENDER_KEYS_OLD,
                              salt="exhibit-render-v0")
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--stale-salts"]) == 0
        out = capsys.readouterr().out
        assert "removed 3 of 3" in out
        assert "prune (render cache): removed 2 of 2" in out
        assert DiskStore(str(tmp_path)).stats()["entries"] == 0
        assert cache.stats()["entries"] == 0


#: Ages a prune must refuse: a negative one puts the cutoff in the
#: future (every entry "too old"), NaN and infinity compare to nothing
#: sensible.
BAD_AGES = ("-1", "nan", "inf")


class TestPruneAgeValidation:
    @pytest.mark.parametrize("age", BAD_AGES)
    def test_disk_store_rejects_bad_age(self, tmp_path, age):
        store = DiskStore(str(tmp_path))
        populate(store, KEYS_NOW)
        with pytest.raises(ValueError, match="finite number of days"):
            store.prune(older_than_days=float(age), dry_run=True)
        assert store.stats()["entries"] == 2

    @pytest.mark.parametrize("age", BAD_AGES)
    def test_render_cache_rejects_bad_age(self, tmp_path, age):
        cache = ExhibitRenderCache(str(tmp_path / EXHIBIT_DIR))
        with pytest.raises(ValueError, match="finite number of days"):
            cache.prune(older_than_days=float(age), dry_run=True)

    def test_zero_age_prunes_entries_older_than_now(self, tmp_path):
        store = DiskStore(str(tmp_path))
        populate(store, KEYS_NOW)
        outcome = store.prune(older_than_days=0, now=time.time() + 60)
        assert (outcome.examined, outcome.removed) == (2, 2)
        cache = ExhibitRenderCache(str(tmp_path / EXHIBIT_DIR))
        populate_render_cache(cache, RENDER_KEYS_NOW)
        assert cache.prune(older_than_days=0,
                           now=time.time() + 60).removed == 1

    @pytest.mark.parametrize("age", BAD_AGES)
    def test_cli_rejects_bad_age(self, tmp_path, capsys, age):
        store = DiskStore(str(tmp_path))
        populate(store, KEYS_NOW)
        with pytest.raises(SystemExit) as info:
            main(["cache", "prune", "--cache-dir", str(tmp_path),
                  "--older-than-days", age, "--dry-run"])
        assert info.value.code == 2
        assert "finite number of days >= 0" in capsys.readouterr().err
        assert DiskStore(str(tmp_path)).stats()["entries"] == 2

    def test_cli_zero_age_works(self, tmp_path, capsys):
        store = DiskStore(str(tmp_path))
        populate(store, KEYS_NOW)
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--older-than-days", "0", "--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out
