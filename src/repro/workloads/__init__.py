"""Workload generation: arrivals with controlled CV, traces and prompts.

Every evaluation figure in the paper is parameterised by the coefficient of
variation (CV) of request inter-arrival times.  ``GammaArrivals`` provides
exact CV control; ``DiurnalTrace`` reproduces the Fig. 1 phenomenon (CV
measured over different window sizes differs by ~7x on production traces).
"""

from repro.workloads.arrivals import (
    ArrivalProcess,
    GammaArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.workloads.requests import Request, RequestSampler
from repro.workloads.cv import (
    count_cv,
    interarrival_cv,
    SlidingWindowCV,
)
from repro.workloads.traces import DiurnalTrace
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.azure2019 import (
    Azure2019Source,
    Azure2019Window,
    FunctionWindow,
    dataset_fingerprint,
    iter_minted_stamps,
    load_window,
    load_window_cached,
    map_functions_to_zoo,
    synthesize_2019_dataset,
    write_2019_dataset,
)
from repro.workloads.splitwise import (
    CODING,
    CONVERSATION,
    MixedCorpusSampler,
    SplitwiseScenario,
    get_scenario,
)

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "GammaArrivals",
    "MMPPArrivals",
    "Request",
    "RequestSampler",
    "interarrival_cv",
    "count_cv",
    "SlidingWindowCV",
    "DiurnalTrace",
    "WorkloadGenerator",
    "Azure2019Source",
    "Azure2019Window",
    "FunctionWindow",
    "dataset_fingerprint",
    "iter_minted_stamps",
    "load_window",
    "load_window_cached",
    "map_functions_to_zoo",
    "synthesize_2019_dataset",
    "write_2019_dataset",
    "SplitwiseScenario",
    "CONVERSATION",
    "CODING",
    "MixedCorpusSampler",
    "get_scenario",
]
