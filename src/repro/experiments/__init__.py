"""Experiment drivers: one per table/figure of the paper.

``common`` holds the shared run environment (the config the factories
read, the world builder, the request sampler); ``systems`` builds the
five comparison systems with the paper's provisioning policy (static
systems hold 75% of peak capacity always-on, serverless systems 30% +
elastic); ``figures`` runs each figure's cells as audited scenario cases.
"""

from repro.experiments.common import ExperimentConfig
from repro.experiments.systems import SYSTEM_FACTORIES, make_system

__all__ = [
    "ExperimentConfig",
    "SYSTEM_FACTORIES",
    "make_system",
]
