"""Experiment drivers: one per table/figure of the paper.

``common`` holds the shared run environment (the world builder and the
request sampler); ``systems`` is
the registry that builds every system with the paper's provisioning
policy (static systems hold 75% of peak capacity always-on, serverless
systems 30% + elastic); ``figures`` runs each figure's cells as audited
scenario cases.
"""

from repro.experiments.systems import PAPER_SYSTEMS, SYSTEMS, build_system

__all__ = [
    "PAPER_SYSTEMS",
    "SYSTEMS",
    "build_system",
]
