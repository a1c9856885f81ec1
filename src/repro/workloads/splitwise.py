"""Splitwise-like prompt/output corpus (the paper's prompt source).

The evaluation supplements Azure traces "with the Splitwise corpus for
prompt generation" (§9).  Splitwise [31] published production token-count
distributions for two LLM services: *conversation* (chat) and *coding*
(code completion).  Only the token counts — not the text — affect serving
behaviour, so this module reproduces the corpus as parametric length
distributions fit to the published summary statistics:

* conversation: prompts with median ≈ 1020 tokens and a heavy tail to the
  context limit; generations with median ≈ 205 tokens;
* coding: much longer prompts (median ≈ 1930 tokens, near-limit tail) and
  very short generations (median ≈ 13 tokens).

The fits are log-normal (clipped), which matches the published CDFs'
heavy-tailed shape.  Scenario objects plug directly into
:class:`~repro.workloads.requests.RequestSampler`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.requests import (
    SLO_LATENCY,
    LengthDistribution,
    Request,
    RequestSampler,
)


@dataclass(frozen=True)
class SplitwiseScenario:
    """One production service's token-shape profile."""

    name: str
    prompt: LengthDistribution
    output: LengthDistribution

    def sampler(
        self,
        model: str,
        rng: np.random.Generator,
        *,
        slo_latency: float = SLO_LATENCY,
    ) -> RequestSampler:
        """A request sampler drawing this scenario's token shapes."""
        return RequestSampler(
            model,
            rng,
            prompt=self.prompt,
            output=self.output,
            slo_latency=slo_latency,
        )

    def mean_prompt_tokens(self, rng: np.random.Generator, n: int = 4096) -> float:
        """Monte-Carlo mean prompt length (clipping makes it non-analytic)."""
        return float(
            np.mean([self.prompt.sample(rng) for _ in range(n)])
        )


#: Chat-style traffic: medium prompts, long generations.
CONVERSATION = SplitwiseScenario(
    name="conversation",
    prompt=LengthDistribution(median=1020, sigma=0.9, lo=16, hi=8192),
    output=LengthDistribution(median=205, sigma=0.8, lo=1, hi=1024),
)

#: Code-completion traffic: long prompts, very short generations.
CODING = SplitwiseScenario(
    name="coding",
    prompt=LengthDistribution(median=1930, sigma=0.7, lo=64, hi=8192),
    output=LengthDistribution(median=13, sigma=0.9, lo=1, hi=256),
)

SCENARIOS: dict[str, SplitwiseScenario] = {
    CONVERSATION.name: CONVERSATION,
    CODING.name: CODING,
}


def get_scenario(name: str) -> SplitwiseScenario:
    """Look up a scenario by name (``"conversation"`` or ``"coding"``)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown Splitwise scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None


class MixedCorpusSampler:
    """Samples requests from a weighted mix of Splitwise scenarios.

    Production clusters serve chat and coding traffic side by side; the mix
    ratio shifts the prompt/generation balance and therefore the prefill/
    decode split every pipeline stage sees.
    """

    def __init__(
        self,
        model: str,
        rng: np.random.Generator,
        *,
        weights: dict[str, float] | None = None,
        slo_latency: float = SLO_LATENCY,
    ):
        if weights is None:
            weights = {"conversation": 0.7, "coding": 0.3}
        if not weights:
            raise ValueError("need at least one scenario weight")
        total = sum(weights.values())
        if total <= 0:
            raise ValueError("scenario weights must sum to a positive value")
        self.rng = rng
        self._names = list(weights)
        self._probs = np.array([weights[n] / total for n in self._names])
        self._samplers = {
            n: get_scenario(n).sampler(model, rng, slo_latency=slo_latency)
            for n in self._names
        }
        self.model = model

    def sample(self, arrival_time: float) -> Request:
        name = self._names[int(self.rng.choice(len(self._names), p=self._probs))]
        return self._samplers[name].sample(arrival_time)
