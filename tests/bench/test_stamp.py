"""Tests for the bench artifacts' dual float/ISO-8601 timestamps."""

from datetime import datetime, timezone

import pytest

from repro.bench.stamp import timestamp_fields, utc_stamp


class TestStamp:
    def test_epoch_zero(self):
        assert utc_stamp(0.0) == "1970-01-01T00:00:00+00:00"

    def test_fields_describe_one_instant(self):
        fields = timestamp_fields(1704067200.25)
        assert fields["timestamp"] == 1704067200.25
        parsed = datetime.fromisoformat(fields["timestamp_iso"])
        assert parsed.timestamp() == 1704067200.25
        assert parsed.tzinfo == timezone.utc

    def test_now_is_consistent(self):
        fields = timestamp_fields()
        parsed = datetime.fromisoformat(fields["timestamp_iso"])
        assert parsed.timestamp() == pytest.approx(fields["timestamp"])
