"""Guided decoding engine: fuse a text-only reasoner into an omni-modal
backbone at inference time via adaptive contrastive logit mixing."""

from .decoder import BenchReport, DecodeJob, DecodeResult, bench, caption_then_answer, decode
from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    EngineError,
    NonFiniteError,
    ProtocolError,
    SessionStateError,
    TokenRangeError,
    ToySpecError,
    TransportError,
    VocabularyMismatchError,
)
from .guidance import (
    STRATEGIES,
    GuidanceConfig,
    StepWeights,
    mix,
    reasoning_weights,
    stepwise_alpha,
    stepwise_mix,
)
from .numerics import DIVERGENCE_LOG_BASE, LN2, js_divergence, softmax
from .report import (
    StepTrace,
    TraceHeader,
    alpha_histogram,
    emit_traces,
    extract_choice,
    read_traces,
    render_attribution,
)
from .sampler import SamplerConfig, apply_repetition_penalty, sample_token, top_p_filter
from .client import RemoteSource
from .config import build_runtime, load_config, tokenize
from .server import LatencyModel, ModelServer, serve
from .sources import (
    LogitSource,
    OmniPayload,
    PromptInput,
    Session,
    ToyModel,
    Vocabulary,
    build_toy_model,
    parse_toy_spec,
    require_compatible,
)

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "CapacityError",
    "ConfigError",
    "DIVERGENCE_LOG_BASE",
    "DecodeJob",
    "DecodeResult",
    "DimensionError",
    "EngineError",
    "GuidanceConfig",
    "LN2",
    "LatencyModel",
    "LogitSource",
    "ModelServer",
    "NonFiniteError",
    "OmniPayload",
    "PromptInput",
    "ProtocolError",
    "RemoteSource",
    "STRATEGIES",
    "SamplerConfig",
    "Session",
    "SessionStateError",
    "StepTrace",
    "StepWeights",
    "TokenRangeError",
    "ToyModel",
    "ToySpecError",
    "TraceHeader",
    "TransportError",
    "Vocabulary",
    "VocabularyMismatchError",
    "alpha_histogram",
    "apply_repetition_penalty",
    "bench",
    "build_runtime",
    "build_toy_model",
    "caption_then_answer",
    "decode",
    "emit_traces",
    "extract_choice",
    "js_divergence",
    "load_config",
    "mix",
    "parse_toy_spec",
    "read_traces",
    "reasoning_weights",
    "render_attribution",
    "require_compatible",
    "sample_token",
    "serve",
    "softmax",
    "stepwise_alpha",
    "stepwise_mix",
    "tokenize",
    "top_p_filter",
]
