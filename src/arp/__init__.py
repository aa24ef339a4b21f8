"""arp: two-party private inference over additive shares, with a trainer that
replaces ReLUs by distribution-fitted low-order polynomials."""

from .dapa import (
    ChannelStats,
    GaussianStats,
    channelwise_coeffs,
    fit_closed_form,
    fit_monte_carlo,
    min_approx_loss,
)
from .dealer import Dealer, Record, Request
from .fixed import FixedConfig, RingTensor, decode, encode, truncate
from .model_io import deserialize_model, load_model, save_model, serialize_model
from .nn import Sequential, build_model
from .protocol import Session, ShareTensor
from .replace import (
    HybridActivation,
    IndicatorState,
    ReplacementConfig,
    train_replace,
    train_supervised,
)
from .runtime import (
    InferenceReport,
    SecureEvaluator,
    private_inference_memory,
    private_inference_tcp,
)

__version__ = "0.1.0"
