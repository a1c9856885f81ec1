"""Operator-level LLM models and the calibrated analytic cost model.

The paper partitions models at operator granularity (§5); this package
builds operator-level computation graphs for the four evaluation models
(OPT-66B, LLAMA2-7B, BERT-21B, WHISPER-9B) and provides the cost model that
replaces real A100 execution.  All cost constants are calibrated against
the paper's own Table 2 profile of OPT-66B — see ``costs.py``.
"""

from repro.models.operators import Operator, OpKind
from repro.models.graph import ComputationGraph
from repro.models.transformer import build_transformer
from repro.models.zoo import (
    BERT_21B,
    LLAMA2_7B,
    MODEL_ZOO,
    OPT_66B,
    WHISPER_9B,
    ModelSpec,
    get_model,
)
from repro.models.costs import CostModel, floor_pow2
from repro.models.profiler import ModelProfile, StageProfile

__all__ = [
    "Operator",
    "OpKind",
    "ComputationGraph",
    "build_transformer",
    "ModelSpec",
    "MODEL_ZOO",
    "OPT_66B",
    "LLAMA2_7B",
    "BERT_21B",
    "WHISPER_9B",
    "get_model",
    "CostModel",
    "floor_pow2",
    "ModelProfile",
    "StageProfile",
]
