"""Byte-identity gate over the quick scenario catalog.

``catalog_digests.json`` records the sha256 of every quick-catalog
(scenario, system) report at seeds 0 and 1: ``dataclasses.asdict(report)``
as JSON with sorted keys and ``default=repr``, the canonical form of
perfbench's ``report_digest``.  Two seeds, because how sleeping tenants
wake and park differs by seed.  A refactor must leave every digest in
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
SEEDS = (0, 1)


def report_digest(report) -> str:
    blob = json.dumps(dataclasses.asdict(report), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def catalog_digests() -> dict[str, dict[str, dict[str, str]]]:
    """``{seed: {scenario: {system: digest}}}`` for every quick-catalog
    cell at every seed in ``SEEDS``."""
    cells = [
        (seed, name, system)
        for seed in SEEDS
        for name in SCENARIOS
        for system in SYSTEMS
    ]
    cases = [
        ScenarioCase(SCENARIOS[name].quick(), system, seed)
        for seed, name, system in cells
    ]
    runner = ExperimentRunner(
        jobs=int(os.environ.get("REPRO_JOBS") or 1), use_cache=False
    )
    digests: dict[str, dict[str, dict[str, str]]] = {}
    for (seed, name, system), report in zip(
        cells, run_cases(cases, runner=runner)
    ):
        digests.setdefault(str(seed), {}).setdefault(name, {})[system] = (
            report_digest(report)
        )
    return digests


def test_catalog_digests_unchanged():
    expected = json.loads(DIGESTS.read_text())
    actual = catalog_digests()
    moved = sorted(
        f"seed {seed}: {scenario} x {system}"
        for seed in expected.keys() | actual.keys()
        for scenario in expected.get(seed, {}).keys()
        | actual.get(seed, {}).keys()
        for system in expected.get(seed, {}).get(scenario, {}).keys()
        | actual.get(seed, {}).get(scenario, {}).keys()
        if expected.get(seed, {}).get(scenario, {}).get(system)
        != actual.get(seed, {}).get(scenario, {}).get(system)
    )
    assert not moved, (
        f"{len(moved)} quick-catalog report(s) moved: {moved}; if the change "
        f"is deliberate, rewrite {DIGESTS.name} by running this file"
    )


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(catalog_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
