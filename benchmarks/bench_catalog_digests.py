"""Byte-identity gate over the quick scenario catalog.

``catalog_digests.json`` records the sha256 of every quick-catalog
(scenario, system) report at seed 0: ``dataclasses.asdict(report)`` as
JSON with sorted keys and ``default=repr``, the canonical form of
perfbench's ``report_digest``.  A refactor must leave every digest in
place; a deliberate model change rewrites the file, so the cells it
moved show up as a reviewed diff.

    PYTHONPATH=src python -m pytest -q benchmarks/bench_catalog_digests.py  # gate
    PYTHONPATH=src python benchmarks/bench_catalog_digests.py               # rewrite

``REPRO_JOBS`` sets the worker count (results do not depend on it); the
result cache is never read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib

from repro.experiments.runner import ExperimentRunner
from repro.experiments.systems import SYSTEMS
from repro.scenarios import SCENARIOS
from repro.scenarios.driver import ScenarioCase, run_cases

DIGESTS = pathlib.Path(__file__).with_name("catalog_digests.json")


def report_digest(report) -> str:
    blob = json.dumps(dataclasses.asdict(report), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def catalog_digests() -> dict[str, dict[str, str]]:
    """``{scenario: {system: digest}}`` for every quick-catalog cell."""
    cells = [(name, system) for name in SCENARIOS for system in SYSTEMS]
    cases = [
        ScenarioCase(SCENARIOS[name].quick(), system, 0) for name, system in cells
    ]
    runner = ExperimentRunner(
        jobs=int(os.environ.get("REPRO_JOBS") or 1), use_cache=False
    )
    digests: dict[str, dict[str, str]] = {}
    for (name, system), report in zip(cells, run_cases(cases, runner=runner)):
        digests.setdefault(name, {})[system] = report_digest(report)
    return digests


def test_catalog_digests_unchanged():
    expected = json.loads(DIGESTS.read_text())
    actual = catalog_digests()
    moved = sorted(
        f"{scenario} x {system}"
        for scenario in expected.keys() | actual.keys()
        for system in expected.get(scenario, {}).keys()
        | actual.get(scenario, {}).keys()
        if expected.get(scenario, {}).get(system)
        != actual.get(scenario, {}).get(system)
    )
    assert not moved, (
        f"{len(moved)} quick-catalog report(s) moved: {moved}; if the change "
        f"is deliberate, rewrite {DIGESTS.name} by running this file"
    )


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(catalog_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
