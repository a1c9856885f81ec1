"""FlexPipe reproduction: adaptive LLM serving via inflight pipeline
refactoring in fragmented serverless clusters (EUROSYS '26).

The public API re-exports the pieces a downstream user composes:

>>> from repro import Simulator, RandomStreams, make_paper_cluster
>>> from repro import ServingContext, FlexPipeSystem, LLAMA2_7B
>>> sim = Simulator()
>>> streams = RandomStreams(seed=0)
>>> cluster = make_paper_cluster(sim)
>>> ctx = ServingContext.create(sim, cluster, streams)
>>> system = FlexPipeSystem(ctx, [LLAMA2_7B])
>>> system.start()

See ``examples/quickstart.py`` for the full serving loop.
"""

from repro.simulation import Simulator, RandomStreams
from repro.cluster import (
    Cluster,
    FragmentationModel,
    GPUAllocator,
    make_paper_cluster,
    make_small_cluster,
)
from repro.models import (
    BERT_21B,
    LLAMA2_7B,
    MODEL_ZOO,
    OPT_66B,
    WHISPER_9B,
    CostModel,
    get_model,
)
from repro.core import FlexPipeSystem, ServingContext
from repro.baselines import (
    AlpaServeSystem,
    MuxServeSystem,
    ServerlessLLMSystem,
    TetrisSystem,
)
from repro.workloads import (
    GammaArrivals,
    MMPPArrivals,
    PoissonArrivals,
    RequestSampler,
    WorkloadGenerator,
)

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "RandomStreams",
    "Cluster",
    "FragmentationModel",
    "GPUAllocator",
    "make_paper_cluster",
    "make_small_cluster",
    "MODEL_ZOO",
    "OPT_66B",
    "LLAMA2_7B",
    "BERT_21B",
    "WHISPER_9B",
    "CostModel",
    "get_model",
    "FlexPipeSystem",
    "ServingContext",
    "AlpaServeSystem",
    "MuxServeSystem",
    "ServerlessLLMSystem",
    "TetrisSystem",
    "GammaArrivals",
    "MMPPArrivals",
    "PoissonArrivals",
    "RequestSampler",
    "WorkloadGenerator",
    "__version__",
]
