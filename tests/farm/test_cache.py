"""Cache correctness: hits, misses, corruption, invalidation stats."""

import json

from repro.farm.cache import ResultCache, code_fingerprint
from tests.farm.test_executor import echo


def make_cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestGetPut:
    def test_miss_then_hit(self, tmp_path):
        cache = make_cache(tmp_path)
        spec = echo("hello", seed=1)
        assert cache.get(spec) is None
        cache.put(spec, {"value": "hello", "digest": "d1"})
        assert cache.get(spec) == {"value": "hello", "digest": "d1"}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_distinct_specs_distinct_records(self, tmp_path):
        cache = make_cache(tmp_path)
        a, b = echo("a", seed=1), echo("b", seed=2)
        cache.put(a, {"value": "a", "digest": "da"})
        cache.put(b, {"value": "b", "digest": "db"})
        assert cache.get(a)["value"] == "a"
        assert cache.get(b)["value"] == "b"

    def test_sharded_layout(self, tmp_path):
        cache = make_cache(tmp_path)
        spec = echo("x", seed=3)
        cache.put(spec, {"digest": "d"})
        key = spec.content_key()
        path = cache.path_for(key)
        assert path.exists()
        assert path.parent.name == key[:2]
        record = json.loads(path.read_text())
        assert record["key"] == key
        assert record["spec"]["seed"] == 3  # self-describing record


class TestCorruption:
    """A bad record is a miss plus an invalidation — never a crash."""

    def put_one(self, tmp_path):
        cache = make_cache(tmp_path)
        spec = echo("v", seed=9)
        cache.put(spec, {"value": "v", "digest": "d"})
        return cache, spec, cache.path_for(spec.content_key())

    def test_truncated_json_is_a_miss(self, tmp_path):
        cache, spec, path = self.put_one(tmp_path)
        path.write_text(path.read_text()[:20])
        assert cache.get(spec) is None
        assert cache.stats.invalidated == 1
        assert not path.exists()  # bad record removed

    def test_wrong_embedded_key_is_a_miss(self, tmp_path):
        cache, spec, path = self.put_one(tmp_path)
        record = json.loads(path.read_text())
        record["key"] = "0" * 64
        path.write_text(json.dumps(record))
        assert cache.get(spec) is None
        assert cache.stats.invalidated == 1

    def test_result_without_digest_is_a_miss(self, tmp_path):
        cache, spec, path = self.put_one(tmp_path)
        record = json.loads(path.read_text())
        del record["result"]["digest"]
        path.write_text(json.dumps(record))
        assert cache.get(spec) is None

    def test_record_from_other_code_is_a_counted_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        specs = [echo(v, seed=i) for i, v in enumerate("abc")]
        for spec in specs:
            cache.put(spec, {"value": spec.seed, "digest": "d"})
        stale = cache.path_for(specs[1].content_key())
        record = json.loads(stale.read_text())
        assert record["code"] == code_fingerprint()
        record["code"] = "0" * 64
        stale.write_text(json.dumps(record))

        first = [cache.get(spec) for spec in specs]
        assert first[1] is None and None not in (first[0], first[2])
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)
        assert cache.stats.invalidated == 1
        assert not stale.exists()

        cache.put(specs[1], {"value": 1, "digest": "d"})
        assert [cache.get(spec) for spec in specs] == [
            {"value": i, "digest": "d"} for i in range(3)
        ]
        assert (cache.stats.hits, cache.stats.misses) == (5, 1)

    def test_non_object_record_is_a_miss(self, tmp_path):
        cache, spec, path = self.put_one(tmp_path)
        path.write_text('["not", "a", "record"]')
        assert cache.get(spec) is None

    def test_overwrite_heals_corruption(self, tmp_path):
        cache, spec, path = self.put_one(tmp_path)
        path.write_text("garbage{{{")
        assert cache.get(spec) is None
        cache.put(spec, {"value": "v", "digest": "d"})
        assert cache.get(spec) == {"value": "v", "digest": "d"}


class TestStats:
    def test_hit_ratio(self, tmp_path):
        cache = make_cache(tmp_path)
        spec = echo("r", seed=4)
        cache.get(spec)
        cache.put(spec, {"digest": "d"})
        cache.get(spec)
        cache.get(spec)
        assert cache.stats.lookups == 3
        assert cache.stats.hit_ratio == 2 / 3
        assert "2 hits / 3 lookups" in cache.stats.describe()
