"""Build operator-level computation graphs for transformer models.

Per decoder layer the graph contains the canonical seven operators
(ln1, qkv, attention, attn_out, ln2, fc1, fc2); encoder-decoder models
(Whisper) prepend a conv frontend + encoder layers with cross-attention in
the decoder.  Operator parameter sizes are derived from the architecture and
then scaled so the total matches the declared checkpoint size exactly.
"""

from __future__ import annotations

from repro.models.graph import ComputationGraph
from repro.models.operators import Operator, OpKind
from repro.models.zoo import ModelSpec

_FP16 = 2  # bytes per parameter


def build_transformer(spec: ModelSpec) -> ComputationGraph:
    """Construct the operator graph for ``spec``."""
    raw: list[dict] = []
    h = spec.hidden

    def add(name, kind, layer, block, params, act_factor=1.0, kv=0.0):
        raw.append(
            dict(
                name=name,
                kind=kind,
                layer=layer,
                block=block,
                params=float(params) * _FP16,
                act=act_factor * h * _FP16,
                kv=kv,
            )
        )

    add("embed", OpKind.EMBED, -1, "embed", spec.vocab * h)
    if spec.encoder_layers:
        add("conv_frontend", OpKind.CONV_FRONTEND, -1, "encoder.stem", 4 * h * h)
        for layer in range(spec.encoder_layers):
            _add_layer(add, layer, h, prefix="enc", cross_attention=False, spec=spec)
    for layer in range(spec.n_layers):
        _add_layer(
            add,
            layer + spec.encoder_layers,
            h,
            prefix="dec" if spec.encoder_layers else "layer",
            cross_attention=bool(spec.encoder_layers),
            spec=spec,
        )
    add("final_norm", OpKind.FINAL_NORM, spec.total_layers, "head", 2 * h)
    add("lm_head", OpKind.LM_HEAD, spec.total_layers, "head", spec.vocab * h)

    # Scale parameter bytes so the graph total equals the declared checkpoint.
    raw_total = sum(r["params"] for r in raw)
    scale = spec.checkpoint_bytes / raw_total
    operators = []
    for i, r in enumerate(raw):
        params = r["params"] * scale
        operators.append(
            Operator(
                index=i,
                name=r["name"],
                kind=r["kind"],
                layer=r["layer"],
                block=r["block"],
                param_bytes=params,
                flops_per_token=params,  # 2 FLOPs/param, fp16 = 2 B/param
                activation_bytes_per_token=r["act"],
                kv_bytes_per_token=r["kv"],
            )
        )
    graph = ComputationGraph(operators)
    graph.validate()
    return graph


def _add_layer(add, layer: int, h: int, *, prefix: str, cross_attention: bool, spec: ModelSpec):
    block_attn = f"{prefix}{layer}.attn"
    block_mlp = f"{prefix}{layer}.mlp"
    # KV cache lives where attention executes; per-layer KV = 4*h bytes/token.
    kv_per_layer = 4.0 * h if prefix != "enc" else 0.0
    add(f"{prefix}{layer}.ln1", OpKind.LAYERNORM, layer, block_attn, 2 * h)
    add(f"{prefix}{layer}.qkv", OpKind.QKV_PROJ, layer, block_attn, 3 * h * h)
    add(
        f"{prefix}{layer}.attn",
        OpKind.ATTENTION,
        layer,
        block_attn,
        0,
        kv=kv_per_layer,
    )
    add(f"{prefix}{layer}.attn_out", OpKind.ATTN_OUT, layer, block_attn, h * h)
    if cross_attention:
        add(f"{prefix}{layer}.xattn", OpKind.CROSS_ATTENTION, layer, block_attn, 2 * h * h)
    add(f"{prefix}{layer}.ln2", OpKind.LAYERNORM, layer, block_mlp, 2 * h)
    add(f"{prefix}{layer}.fc1", OpKind.MLP_FC1, layer, block_mlp, 4 * h * h)
    add(f"{prefix}{layer}.fc2", OpKind.MLP_FC2, layer, block_mlp, 4 * h * h)
