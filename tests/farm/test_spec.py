"""RunSpec content keys: stability, sensitivity, round-trips."""

import pytest

from repro.farm.spec import RunSpec, canonical_json


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_compact_and_sorted(self):
        assert canonical_json({"b": [1.5, None], "a": "x"}) == (
            '{"a":"x","b":[1.5,null]}'
        )

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestContentKey:
    def test_stable_across_param_order(self):
        a = RunSpec.make("failure", "fifteen_node", 1,
                         {"deflection": "nip", "protection": "partial"})
        b = RunSpec.make("failure", "fifteen_node", 1,
                         {"protection": "partial", "deflection": "nip"})
        assert a == b
        assert a.content_key() == b.content_key()

    def test_key_is_sha256_hex(self):
        key = RunSpec.make("echo", "none", 0).content_key()
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    def test_seed_changes_key(self):
        base = RunSpec.make("failure", "fifteen_node", 1, {"d": "nip"})
        other = RunSpec.make("failure", "fifteen_node", 2, {"d": "nip"})
        assert base.content_key() != other.content_key()

    def test_param_changes_key(self):
        base = RunSpec.make("failure", "fifteen_node", 1, {"d": "nip"})
        other = RunSpec.make("failure", "fifteen_node", 1, {"d": "avp"})
        assert base.content_key() != other.content_key()

    def test_kind_and_scenario_change_key(self):
        base = RunSpec.make("failure", "fifteen_node", 1)
        assert base.content_key() != RunSpec.make(
            "chaos", "fifteen_node", 1
        ).content_key()
        assert base.content_key() != RunSpec.make(
            "failure", "rnp28", 1
        ).content_key()


class TestRecordRoundTrip:
    def test_round_trip_preserves_key(self):
        spec = RunSpec.make(
            "failure", "rnp28", 7,
            {"failure": ["SW7", "SW13"], "timeline": {"end": 12.0}},
        )
        clone = RunSpec.from_record(spec.to_record())
        assert clone == spec
        assert clone.content_key() == spec.content_key()

    def test_label_mentions_identity(self):
        spec = RunSpec.make("chaos", "fifteen_node", 42)
        label = spec.label()
        assert "chaos" in label and "fifteen_node" in label
        assert "seed=42" in label
        assert spec.content_key()[:12] in label

    def test_params_property_is_a_copy(self):
        spec = RunSpec.make("echo", "none", 0, {"value": [1, 2]})
        params = spec.params
        params["value"].append(3)
        assert spec.params == {"value": [1, 2]}
