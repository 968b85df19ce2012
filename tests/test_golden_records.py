from __future__ import annotations

import json

import pytest

import golden_records

GOLDEN = json.loads(golden_records.PATH.read_text(encoding="utf-8"))


def test_the_manifest_names_every_instance_and_seed() -> None:
    assert sorted(GOLDEN) == sorted(golden_records.INSTANCES)
    for name, records in GOLDEN.items():
        assert sorted(records) == [str(seed) for seed in golden_records.RUN_SEEDS], name


@pytest.mark.parametrize("name", sorted(golden_records.INSTANCES))
def test_run_records_match_the_manifest(name: str) -> None:
    # solution, value, frozen set, optimum estimate and every counter, with
    # floats compared exactly; a change that moves a record on purpose
    # regenerates the manifest with ``tests/golden_records.py``
    assert golden_records.records_of(name) == GOLDEN[name]
