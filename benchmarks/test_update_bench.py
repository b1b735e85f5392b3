"""``update_bench``: merging sections into ``BENCH_hotpath.json``."""

from __future__ import annotations

import json

import pytest

from conftest import update_bench


@pytest.fixture
def bench_path(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_hotpath.json"
    monkeypatch.setitem(update_bench.__globals__, "BENCH_PATH", str(path))
    return path


def test_merges_over_existing_sections(bench_path):
    bench_path.write_text(json.dumps({"other": {"x": 1}, "mine": {"y": 0}}))
    update_bench({"mine": {"y": 2}})
    assert json.loads(bench_path.read_text()) == {"other": {"x": 1},
                                                  "mine": {"y": 2}}


def test_creates_a_missing_file(bench_path):
    update_bench({"mine": {"y": 2}})
    assert json.loads(bench_path.read_text()) == {"mine": {"y": 2}}


def test_unparsable_file_raises_and_is_left_intact(bench_path):
    text = '{"other": {"x": 1},'  # truncated mid-write
    bench_path.write_text(text)
    with pytest.raises(ValueError, match="BENCH_hotpath.json"):
        update_bench({"mine": {"y": 2}})
    assert bench_path.read_text() == text
