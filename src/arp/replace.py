"""Replacement training: binarized per-element indicators with hysteresis.

Each activation element carries a binary indicator m (1 = keep ReLU,
0 = polynomial) derived from a real auxiliary parameter m_w.  The auxiliary
parameters descend on a surrogate gradient (softplus STE) of the task loss
plus a count penalty that is active only while the global ReLU count exceeds
the budget.  After every update the indicators are re-derived through a
two-threshold hysteresis rule so that small fluctuations of m_w around zero
cannot flip them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .dapa import ChannelStats, PolyCoeffs, channelwise_coeffs, horner
from .nn import Adam, AdamArray, Sequential, batch_sum, cosine_lr, loss_cross_entropy

__all__ = [
    "IndicatorState",
    "ReplacementConfig",
    "HybridActivation",
    "ReplacementPlan",
    "TrainHistory",
    "ste_softplus_grad",
    "apply_hysteresis",
    "hysteresis_step",
    "acc_grad_aux",
    "penalty_grad_aux",
    "count_relu",
    "refresh_coeffs",
    "train_supervised",
    "train_replace",
    "evaluate",
]


def ste_softplus_grad(m_w: np.ndarray) -> np.ndarray:
    """Surrogate derivative of the binarization: softplus' = sigmoid."""
    return expit(np.asarray(m_w, dtype=np.float64))


M_W_INIT = 0.1  # |m_w| of a fresh or reloaded indicator; its sign is m's


@dataclass
class IndicatorState:
    """Per-element indicator m and auxiliary parameter m_w."""

    m: np.ndarray
    m_w: np.ndarray

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.float64)
        self.m_w = np.asarray(self.m_w, dtype=np.float64)
        if self.m.shape != self.m_w.shape:
            raise ValueError("m and m_w must share one shape")

    @classmethod
    def all_relu(cls, shape) -> "IndicatorState":
        return cls(np.ones(shape), np.full(shape, M_W_INIT))


def count_relu(state: IndicatorState) -> int:
    return int(np.sum(state.m == 1))


def apply_hysteresis(m: np.ndarray, m_w: np.ndarray, t_h: float) -> np.ndarray:
    """Re-derive indicators: a 1 survives until m_w <= -t_h, a 0 until m_w > +t_h.

    At t_h = 0 both rows collapse to the plain sign rule m = [m_w > 0].
    """
    return np.where(m == 1, m_w > -t_h, m_w > t_h).astype(np.float64)


def hysteresis_step(state: IndicatorState, m_w: np.ndarray, t_h: float) -> IndicatorState:
    """Take the descended m_w and re-derive m from the indicators before the step."""
    if m_w.shape != state.m_w.shape:
        raise ValueError(f"m_w shape {m_w.shape} does not match {state.m_w.shape}")
    return IndicatorState(apply_hysteresis(state.m, m_w, t_h), m_w)


def acc_grad_aux(dl_dx: np.ndarray, z: np.ndarray, act: "HybridActivation",
                 sig: np.ndarray) -> np.ndarray:
    """Task-loss gradient piece for m_w: dL/dX * (relu(Z) - poly(Z)) * sig.

    `sig` is ste_softplus_grad(m_w), shared with penalty_grad_aux.  Elementwise
    over the batch; either sign is reachable, which is what makes replaced
    elements recoverable.  The caller reduces over the batch axis.
    """
    if dl_dx.shape != z.shape:
        raise ValueError("dL/dX and Z shapes differ")
    return dl_dx * act.relu_poly_gap(z) * sig


def penalty_grad_aux(sig: np.ndarray, mu_effective: float, over_budget: bool) -> np.ndarray:
    """Count-penalty gradient: mu * sig while over budget, else exactly zero."""
    if not over_budget:
        return np.zeros_like(sig)
    return mu_effective * sig


class HybridActivation:
    """Activation layer mixing ReLU and a fitted polynomial per element.

    Computes m * relu(z) + (1 - m) * poly(z) and its derivative.  When the
    mask sends every element down one branch, the other branch is not
    evaluated; the result has the same bits as the full expression.  The
    mask is read on every call, since callers rebind and rewrite it between
    passes.

    Tracks channel-wise running statistics of its pre-activations and caches
    what the backward pass and the indicator gradients need, including the
    forward pass's poly(z) when it computed one.
    """

    def __init__(self, feat_shape, channel_axis: int = 0, degree: int = 2):
        self.feat_shape = tuple(feat_shape)
        self.channel_axis = channel_axis
        self.degree = degree
        channels = self.feat_shape[channel_axis]
        self.indicator = IndicatorState.all_relu(self.feat_shape)
        self.stats = ChannelStats(channels)
        # identity polynomial until the first refresh
        eye = np.zeros((channels, degree + 1))
        eye[:, 1] = 1.0
        self.coeffs = PolyCoeffs(eye)
        self._z = None
        self._poly = None
        self.last_dldx = None

    def params(self):
        return []

    def term(self, i: int) -> np.ndarray:
        """Per-channel coefficient of z^i, shaped to broadcast over feat_shape."""
        shape = [1] * len(self.feat_shape)
        shape[self.channel_axis] = -1
        return self.coeffs.term(i).reshape(shape)

    def poly(self, z: np.ndarray) -> np.ndarray:
        return horner([self.term(i) for i in range(self.degree + 1)], z)

    def poly_deriv(self, z: np.ndarray) -> np.ndarray:
        return horner([i * self.term(i) for i in range(1, self.degree + 1)], z)

    def _single_branch(self) -> str | None:
        """"relu" or "poly" when every element takes that branch, else None."""
        m = self.indicator.m
        if np.count_nonzero(m == 1) == m.size:
            return "relu"
        if not np.count_nonzero(m):
            return "poly"
        return None

    def relu_poly_gap(self, z: np.ndarray) -> np.ndarray:
        """relu(z) - poly(z), reusing the last forward pass's poly(z) when z is its input."""
        poly = self._poly if z is self._z and self._poly is not None else self.poly(z)
        return np.maximum(z, 0.0) - poly

    def forward(self, z: np.ndarray, training: bool = False) -> np.ndarray:
        if z.shape[1:] != self.feat_shape:
            raise ValueError(f"activation expects {self.feat_shape}, got {z.shape[1:]}")
        if training:
            self.stats.update(z, channel_axis=1 + self.channel_axis)
        branch = self._single_branch()
        poly = None if branch == "relu" else self.poly(z)
        # the cache is written, never read, here: both parties' threads run
        # the plaintext forward pass of one shared model at once
        self._z, self._poly = z, poly
        if branch == "relu":
            return np.maximum(z, 0.0)
        if branch == "poly":
            return poly
        m = self.indicator.m
        return m * np.maximum(z, 0.0) + (1.0 - m) * poly

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.last_dldx = dy
        z = self._z
        branch = self._single_branch()
        if branch == "relu":
            return dy * (z > 0)
        if branch == "poly":
            return dy * self.poly_deriv(z)
        m = self.indicator.m
        return dy * (m * (z > 0) + (1.0 - m) * self.poly_deriv(z))

    def indicator_grad(self, sig: np.ndarray) -> np.ndarray:
        """Batch-reduced task gradient for m_w from the cached forward and backward passes."""
        return batch_sum(acc_grad_aux(self.last_dldx, self._z, self, sig), 0)


def refresh_coeffs(act: HybridActivation) -> HybridActivation:
    """Re-fit the polynomial to current running stats; idempotent for fixed stats."""
    act.coeffs = channelwise_coeffs(act.stats, act.degree)
    return act


# ---- training loops -------------------------------------------------------------

TAIL_EPOCHS = 60  # the most epochs train_replace adds to meet the budget
TAIL_ESCALATION = 2.0  # the penalty's growth per added epoch


@dataclass
class ReplacementConfig:
    relu_budget: int
    mu: float = 1.0  # normalized: effective penalty is mu / total activation elements
    lr_indicator: float = 1e-3
    lr_weights: float = 1e-4
    epochs: int = 40
    t_h: float = 0.003
    batch_size: int = 64
    seed: int = 0
    log_transitions: bool = False

    def validate(self, total_elements: int) -> None:
        if self.relu_budget < 0:
            raise ValueError("budget must be non-negative")
        if self.relu_budget > total_elements:
            raise ValueError(
                f"budget {self.relu_budget} exceeds {total_elements} activation elements"
            )
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be at least 1")
        if self.lr_indicator <= 0 or self.lr_weights <= 0:
            raise ValueError("learning rates must be positive")
        if self.mu <= 0:
            raise ValueError("penalty must be positive")
        if self.t_h < 0:
            raise ValueError("hysteresis threshold must be >= 0")


@dataclass
class ReplacementPlan:
    masks: list
    coeffs: list
    relu_count: int
    budget: int


@dataclass
class TrainHistory:
    """Per-epoch rows of a replacement run, plus the optional transition log.

    Each row holds: epoch; accuracy on the evaluation set; relu_count and
    relu_per_layer after the epoch; flips, the indicators that changed during
    it; loss, the mean training loss of its steps; penalty_active, whether any
    step was over budget; tail, whether it ran after the schedule to meet the
    budget.
    """

    epochs: list = field(default_factory=list)  # one dict per epoch, as above
    transitions: list = field(default_factory=list)  # (m_before, m_w_after, m_after, t_h) per step

    def to_json(self) -> dict:
        """The epoch rows as plain JSON types."""
        return {"epochs": [dict(row) for row in self.epochs]}


def evaluate(model: Sequential, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
    hits = 0
    for i in range(0, len(x), batch_size):
        logits = model.forward(x[i : i + batch_size], training=False)
        hits += int(np.sum(np.argmax(logits, axis=1) == y[i : i + batch_size]))
    return hits / len(x)


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for i in range(0, n, batch_size):
        yield order[i : i + batch_size]


def train_supervised(model: Sequential, x: np.ndarray, y: np.ndarray, *, epochs: int = 100,
                     lr: float = 1e-3, batch_size: int = 64, seed: int = 0) -> Sequential:
    """Plain baseline training; indicators stay all-ReLU, stats warm up."""
    rng = np.random.default_rng(seed)
    opt = Adam(model.params(), lr=lr)
    total = epochs * max(1, (len(x) + batch_size - 1) // batch_size)
    step = 0
    for _ in range(epochs):
        for idx in _batches(len(x), batch_size, rng):
            logits = model.forward(x[idx], training=True)
            _, dlog = loss_cross_entropy(logits, y[idx])
            model.backward(dlog)
            opt.lr = cosine_lr(lr, step, total)
            opt.step()
            step += 1
    return model


def train_replace(model: Sequential, train_data, cfg: ReplacementConfig,
                  eval_data=None) -> tuple[Sequential, ReplacementPlan, TrainHistory]:
    """Jointly train weights and indicators until the budget is met.

    Weights descend on the task loss with the indicators frozen within the
    step; indicators descend on the task plus count-penalty surrogate
    gradients with a hysteresis re-derivation per iteration.  Polynomial
    coefficients are re-fitted from running stats once per epoch and treated
    as constants in between.  Both learning rates follow cosine decay.

    If the scheduled epochs end with the count still over budget (a constant
    penalty can stall against persistently useful ReLUs), a bounded tail
    keeps training with the penalty doubled each extra epoch until the count
    drops to the budget; the tail stops at the first feasible iteration.
    """
    x, y = train_data
    if len(x) == 0:
        raise ValueError("empty dataset")
    ex, ey = eval_data if eval_data is not None else (x, y)
    acts = model.hybrid_layers()
    total_elements = model.activation_elements()
    cfg.validate(total_elements)
    mu_eff = cfg.mu / total_elements

    rng = np.random.default_rng(cfg.seed)
    w_opt = Adam(model.params(), lr=cfg.lr_weights)
    i_opt = AdamArray(lr=cfg.lr_indicator)
    history = TrainHistory()
    steps_per_epoch = max(1, (len(x) + cfg.batch_size - 1) // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    step = 0

    def count() -> int:
        return sum(count_relu(a.indicator) for a in acts)

    def one_epoch(epoch: int, boost: float, tail: bool) -> None:
        nonlocal step
        flips, losses, penalty_active = 0, [], False
        for idx in _batches(len(x), cfg.batch_size, rng):
            logits = model.forward(x[idx], training=True)
            loss, dlog = loss_cross_entropy(logits, y[idx])
            losses.append(loss)
            model.backward(dlog)
            w_opt.lr = 0.1 * cfg.lr_weights if tail else cosine_lr(cfg.lr_weights, step, total_steps)
            w_opt.step()

            over = count() > cfg.relu_budget
            penalty_active |= over
            grads = []
            for a in acts:
                sig = ste_softplus_grad(a.indicator.m_w)
                grads.append(a.indicator_grad(sig) + penalty_grad_aux(sig, mu_eff * boost, over))
            i_opt.lr = cfg.lr_indicator if tail else cosine_lr(cfg.lr_indicator, step, total_steps)
            m_ws = i_opt.update_joined([a.indicator.m_w for a in acts], grads)
            for a, m_w in zip(acts, m_ws):
                before = a.indicator.m
                a.indicator = hysteresis_step(a.indicator, m_w, cfg.t_h)
                flips += int(np.sum(a.indicator.m != before))
                if cfg.log_transitions:
                    history.transitions.append(
                        (before.copy(), a.indicator.m_w.copy(), a.indicator.m.copy(), cfg.t_h)
                    )
            step += 1
            if tail and count() <= cfg.relu_budget:
                break
        for a in acts:
            refresh_coeffs(a)
        per_layer = [count_relu(a.indicator) for a in acts]
        history.epochs.append({
            "epoch": epoch,
            "accuracy": evaluate(model, ex, ey),
            "relu_count": sum(per_layer),
            "flips": flips,
            "loss": sum(losses) / len(losses),
            "relu_per_layer": per_layer,
            "penalty_active": penalty_active,
            "tail": tail,
        })

    for epoch in range(cfg.epochs):
        one_epoch(epoch, boost=1.0, tail=False)

    boost = TAIL_ESCALATION
    for extra in range(TAIL_EPOCHS):
        if count() <= cfg.relu_budget:
            break
        one_epoch(cfg.epochs + extra, boost=boost, tail=True)
        boost = min(boost * TAIL_ESCALATION, 1e9)
    if count() > cfg.relu_budget:
        raise RuntimeError(
            f"replacement did not reach the budget: {count()} > {cfg.relu_budget} "
            f"after {TAIL_EPOCHS} tail epochs"
        )

    plan = ReplacementPlan(
        masks=[a.indicator.m.copy() for a in acts],
        coeffs=[a.coeffs.coeffs.copy() for a in acts],
        relu_count=count(),
        budget=cfg.relu_budget,
    )
    return model, plan, history
