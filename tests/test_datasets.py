"""Unit tests for event serialization, validation and quarantine."""

import json
import os

import pytest

from repro.core.events import (
    AttackEvent,
    SOURCE_HONEYPOT,
    SOURCE_TELESCOPE,
    validate_event_dict,
)
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.pipeline.datasets import (
    MalformedRecordError,
    QUARANTINE_SUFFIX,
    REASON_DUPLICATE,
    REASON_UNPARSEABLE,
    event_from_dict,
    event_to_dict,
    load_events_jsonl,
    quarantine_path_for,
    read_events_jsonl,
    save_events_jsonl,
)


def events():
    return [
        AttackEvent(
            SOURCE_TELESCOPE, 123, 0.0, 60.0, 2.5, ip_proto=6,
            ports=(80, 443), packets=99, country="US", asn=64512,
        ),
        AttackEvent(
            SOURCE_HONEYPOT, 456, 100.0, 400.0, 77.0,
            reflector_protocol="NTP", packets=5000,
        ),
    ]


class TestRoundtrip:
    def test_dict_roundtrip(self):
        for event in events():
            assert event_from_dict(event_to_dict(event)) == event

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        written = save_events_jsonl(events(), path)
        assert written == 2
        loaded = load_events_jsonl(path)
        assert loaded == events()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        save_events_jsonl(events(), path)
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert len(load_events_jsonl(path)) == 2

    def test_defaults_filled(self):
        minimal = {
            "source": SOURCE_TELESCOPE, "target": 1, "start_ts": 0.0,
            "end_ts": 1.0, "intensity": 1.0,
        }
        event = event_from_dict(minimal)
        assert event.ports == ()
        assert event.country == "??"
        assert event.asn is None


class TestAtomicWrite:
    def _failing_events(self):
        yield events()[0]
        raise RuntimeError("interrupted mid-write")

    def test_interrupted_write_preserves_previous_file(self, tmp_path):
        """A crash mid-write never truncates an existing data set."""
        path = tmp_path / "events.jsonl"
        save_events_jsonl(events(), path)
        before = path.read_text()
        with pytest.raises(RuntimeError):
            save_events_jsonl(self._failing_events(), path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]  # no temp leftovers

    def test_interrupted_write_leaves_nothing_behind(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with pytest.raises(RuntimeError):
            save_events_jsonl(self._failing_events(), path)
        assert list(tmp_path.iterdir()) == []

    def test_counts_both_fsyncs(self, tmp_path):
        """The file fsync and the directory fsync are both counted."""
        registry = set_registry(MetricsRegistry())
        try:
            save_events_jsonl(events(), tmp_path / "events.jsonl")
        finally:
            set_registry(None)
        assert registry.value("store_fsyncs_total") == 2

    def test_overwrite_replaces_longer_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        save_events_jsonl(events() * 10, path)
        save_events_jsonl(events()[:1], path)
        assert len(load_events_jsonl(path)) == 1

    def test_successful_replace_never_unlinks_foreign_temp(
        self, tmp_path, monkeypatch
    ):
        """Cleanup after a successful rename must not race a concurrent
        writer that reused the same temp path."""
        real_replace = os.replace
        path = tmp_path / "events.jsonl"
        tmp = tmp_path / "events.jsonl.tmp"

        def replace_then_race(src, dst):
            real_replace(src, dst)
            tmp.write_text("concurrent writer's temp")

        monkeypatch.setattr(os, "replace", replace_then_race)
        save_events_jsonl(events(), path)
        assert load_events_jsonl(path) == events()
        assert tmp.read_text() == "concurrent writer's temp"


class TestSchemaValidation:
    def _valid(self):
        return event_to_dict(events()[0])

    def test_valid_record_passes(self):
        assert validate_event_dict(self._valid()) is None

    def test_non_object(self):
        assert validate_event_dict([1, 2]) == "not-an-object"
        assert validate_event_dict("x") == "not-an-object"

    @pytest.mark.parametrize(
        "field", ["source", "target", "start_ts", "end_ts", "intensity"]
    )
    def test_missing_required_field(self, field):
        data = self._valid()
        del data[field]
        assert validate_event_dict(data) == f"missing-field:{field}"

    def test_bad_types(self):
        data = self._valid()
        data["target"] = "10.0.0.1"
        assert validate_event_dict(data) == "bad-type:target"
        data = self._valid()
        data["start_ts"] = True  # JSON true is not a timestamp
        assert validate_event_dict(data) == "bad-type:start_ts"
        data = self._valid()
        data["ports"] = [80, "https"]
        assert validate_event_dict(data) == "bad-type:ports"

    def test_out_of_range(self):
        data = self._valid()
        data["target"] = 2**32
        assert validate_event_dict(data) == "out-of-range:target"
        data = self._valid()
        data["end_ts"] = data["start_ts"] - 1.0
        assert validate_event_dict(data) == "out-of-range:end_ts"
        data = self._valid()
        data["intensity"] = -0.5
        assert validate_event_dict(data) == "out-of-range:intensity"
        data = self._valid()
        data["ports"] = [70000]
        assert validate_event_dict(data) == "out-of-range:ports"

    def test_unknown_source(self):
        data = self._valid()
        data["source"] = "darkweb"
        assert validate_event_dict(data) == "unknown-source"


class TestTolerantLoading:
    def _write_feed(self, path, extra_lines=()):
        save_events_jsonl(events(), path)
        with open(path, "a", encoding="utf-8") as handle:
            for line in extra_lines:
                handle.write(line + "\n")

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_feed(path, ['{"truncated": '])
        loaded, report = read_events_jsonl(path)
        assert loaded == events()
        assert report.loaded == 2
        assert report.reason_counts() == {REASON_UNPARSEABLE: 1}

    def test_strict_mode_preserved(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_feed(path, ['{"truncated": '])
        with pytest.raises(MalformedRecordError) as excinfo:
            load_events_jsonl(path, strict=True)
        assert excinfo.value.record.reason == REASON_UNPARSEABLE
        assert excinfo.value.record.line_no == 3

    def test_duplicates_quarantined(self, tmp_path):
        path = tmp_path / "events.jsonl"
        line = json.dumps(event_to_dict(events()[0]))
        self._write_feed(path, [line, line])
        loaded, report = read_events_jsonl(path)
        assert loaded == events()
        assert report.reason_counts() == {REASON_DUPLICATE: 2}

    def test_out_of_range_quarantined(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bad = event_to_dict(events()[0])
        bad["target"] = -4
        self._write_feed(path, [json.dumps(bad)])
        loaded, report = read_events_jsonl(path)
        assert loaded == events()
        assert report.reason_counts() == {"out-of-range:target": 1}

    def test_quarantine_file_written_with_reasons(self, tmp_path):
        path = tmp_path / "events.jsonl"
        quarantine = tmp_path / "dead.jsonl"
        self._write_feed(path, ["not json at all", '{"a": 1}'])
        _loaded, report = read_events_jsonl(path, quarantine_path=quarantine)
        assert report.quarantine_path == str(quarantine)
        records = [
            json.loads(line)
            for line in quarantine.read_text().splitlines()
        ]
        assert [r["reason"] for r in records] == [
            REASON_UNPARSEABLE,
            "missing-field:source",
        ]
        assert records[0]["line_no"] == 3
        assert records[1]["raw"] == '{"a": 1}'

    def test_no_quarantine_file_when_clean(self, tmp_path):
        path = tmp_path / "events.jsonl"
        quarantine = tmp_path / "dead.jsonl"
        save_events_jsonl(events(), path)
        _loaded, report = read_events_jsonl(path, quarantine_path=quarantine)
        assert report.rejected == 0
        assert report.quarantine_path is None
        assert not quarantine.exists()

    def test_truncated_tail_costs_one_record(self, tmp_path):
        """A crash mid-append costs the half-written record, not the run."""
        path = tmp_path / "events.jsonl"
        save_events_jsonl(events() * 5, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - len(data) // 12])
        loaded, report = read_events_jsonl(path)
        assert report.rejected >= 1
        assert len(loaded) + report.rejected <= 10
        # Duplicates: events()*5 repeats the same two events; the loader
        # keeps one of each and quarantines the redeliveries.
        assert REASON_DUPLICATE in report.reason_counts()

    def test_describe_is_deterministic(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_feed(path, ["garbage"])
        _loaded, report = read_events_jsonl(path)
        assert report.describe() == (
            "2 loaded; 1 quarantined; unparseable-json×1"
        )


class TestPerFeedQuarantine:
    """Dead-letter files are namespaced per feed: no more collisions."""

    def _bad_feed(self, path):
        path.write_text('{"garbage": true}\n', encoding="utf-8")

    def test_quarantine_path_for_namespaces_by_feed(self, tmp_path):
        events_file = tmp_path / "events.jsonl"
        assert quarantine_path_for(events_file) == (
            tmp_path / ("events.jsonl" + QUARANTINE_SUFFIX)
        )
        assert quarantine_path_for(events_file, feed="telescope") == (
            tmp_path / "events.jsonl.telescope.quarantine.jsonl"
        )
        assert quarantine_path_for(
            events_file, feed="telescope", directory=tmp_path / "q"
        ) == tmp_path / "q" / "events.jsonl.telescope.quarantine.jsonl"

    def test_two_feeds_keep_separate_dead_letter_files(self, tmp_path):
        """The collision this fixes: same file name, two feeds, one dir."""
        path = tmp_path / "events.jsonl"
        self._bad_feed(path)
        _e1, first = read_events_jsonl(path, feed="telescope")
        _e2, second = read_events_jsonl(path, feed="honeypot")
        assert first.quarantine_path != second.quarantine_path
        assert "telescope" in first.quarantine_path
        assert "honeypot" in second.quarantine_path
        # Both survived on disk; neither load clobbered the other.
        assert (tmp_path / "events.jsonl.telescope.quarantine.jsonl").exists()
        assert (tmp_path / "events.jsonl.honeypot.quarantine.jsonl").exists()

    def test_feed_tag_lands_in_report(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._bad_feed(path)
        _events, report = read_events_jsonl(path, feed="telescope")
        assert report.feed == "telescope"

    def test_explicit_quarantine_path_still_wins(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._bad_feed(path)
        explicit = tmp_path / "custom.jsonl"
        _events, report = read_events_jsonl(
            path, feed="telescope", quarantine_path=explicit
        )
        assert report.quarantine_path == str(explicit)
        assert explicit.exists()

    def test_feed_without_rejects_writes_nothing(self, tmp_path):
        path = tmp_path / "events.jsonl"
        save_events_jsonl(events(), path)
        _events, report = read_events_jsonl(path, feed="telescope")
        assert report.quarantine_path is None
        assert list(tmp_path.glob("*quarantine*")) == []
