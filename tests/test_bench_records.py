"""Every committed benchmark record parses and carries the keys every record since BENCH_6 has."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
CORE_KEYS = {"change", "parent_commit", "machine", "command", "method", "workloads"}


def test_the_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_benchmark_record_parses_with_the_core_keys(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict), f"{path.name} holds a {type(record).__name__}, not an object"
    missing = sorted(CORE_KEYS - record.keys())
    assert not missing, f"{path.name} lacks {missing}"
