"""Trainable heads: a small MLP and multinomial logistic regression.

Training uses decoupled-weight-decay Adam with a linear learning-rate
ramp to zero, per-class binary cross-entropy on one-hot targets, and
epoch-boundary early stopping on dev QWK. All randomness flows through
explicit seeds so runs are bit-reproducible. The MLP trains in float32,
while every score, the dev QWK included, is computed in float64 on the
float32 weights converted exactly; the losses, gradients and optimiser
compute in the dtype of their inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimMismatch,
    HeaderMismatch,
    NonFiniteGradient,
    NonFiniteLoss,
    SingleClass,
    TooFewRows,
)
from .mathutil import as_float, log_softmax, logsumexp, sigmoid_from_exp
from .metrics import as_labels, qwk
from .serialize import require_finite, row_vector

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01
MLP_ARRAYS = ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2")  # a saved model's matrices, params() order


@dataclass
class MlpModel:
    """One-hidden-layer rectifier network: D -> H -> k."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def init(cls, n_inputs: int, n_hidden: int, n_classes: int, seed: int) -> "MlpModel":
        if n_hidden < 1:
            raise ValueError(f"n_hidden must be at least 1, got {n_hidden}")
        rng = np.random.default_rng(seed)
        return cls(
            w1=rng.standard_normal((n_inputs, n_hidden)) / np.sqrt(n_inputs),
            b1=np.zeros(n_hidden),
            w2=rng.standard_normal((n_hidden, n_classes)) / np.sqrt(n_hidden),
            b2=np.zeros(n_classes),
        )

    @property
    def n_classes(self) -> int:
        return self.w2.shape[1]

    def params(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]

    def to_arrays(self) -> dict[str, np.ndarray]:
        return dict(zip(MLP_ARRAYS, self.params()))

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "MlpModel":
        """The model in matrices ``MLP_ARRAYS`` (one-row biases); HeaderMismatch
        if their shapes disagree, MalformedRow if one holds a NaN or an infinity."""
        w1, w2 = arrays["mlp_w1"], arrays["mlp_w2"]
        b1, b2 = row_vector(arrays, "mlp_b1"), row_vector(arrays, "mlp_b2")
        for name, size, unit, before, width in (
            ("mlp_b1", b1.size, "values", "mlp_w1", w1.shape[1]),
            ("mlp_w2", w2.shape[0], "rows", "mlp_w1", w1.shape[1]),
            ("mlp_b2", b2.size, "values", "mlp_w2", w2.shape[1]),
        ):
            if size != width:
                raise HeaderMismatch(
                    f"matrix {name} has {size} {unit}, but {before} has {width} columns"
                )
        for name, values in zip(MLP_ARRAYS, (w1, b1, w2, b2)):
            require_finite(name, values)
        return cls(w1=w1, b1=b1, w2=w2, b2=b2)


def mlp_forward(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Logits for a batch: affine, rectifier, affine."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[1] != model.w1.shape[0]:
        raise DimMismatch(
            f"features have dim {features.shape[1]}, model expects {model.w1.shape[0]}"
        )
    hidden = np.maximum(features @ model.w1 + model.b1, 0.0)
    return hidden @ model.w2 + model.b2


def _one_hot(labels, k: int, dtype) -> np.ndarray:
    return np.eye(k, dtype=dtype)[as_labels(labels, k)]


def _bce(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """``bce_loss_grad`` against ``targets``, one-hot rows in the logits' dtype."""
    e = np.exp(-np.abs(logits))  # shared by the loss and the sigmoid
    per_logit = np.maximum(logits, 0.0) - logits * targets + np.log1p(e)
    grad = (sigmoid_from_exp(logits, e) - targets) / logits.size
    # the bits of per_logit.mean(), without its overhead: mean divides the
    # same sum in float64 and rounds back, which for float32 gives the
    # correctly rounded quotient too
    return float(per_logit.sum() / per_logit.size), grad


def bce_loss_grad(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean per-class sigmoid binary cross-entropy against one-hot targets,
    and its gradient with respect to the logits, in the logits' dtype.

    The loss uses the overflow-free form max(z,0) - z*t + log(1 + exp(-|z|)),
    averaged over all N*k logits.
    """
    logits = np.atleast_2d(as_float(logits))
    return _bce(logits, _one_hot(labels, logits.shape[1], logits.dtype))


@dataclass
class AdamState:
    """First/second-moment accumulators and the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adamw_step(
    p: np.ndarray, g: np.ndarray, state: AdamState, lr_t: float, weight_decay: float
) -> None:
    """One decoupled-weight-decay Adam update of ``p`` and ``state``, in place.

    theta <- theta - lr_t * (m_hat / (sqrt(v_hat) + eps) + wd * theta),
    with bias-corrected moment estimates (beta1=0.9, beta2=0.999), in the
    dtype of ``p``. The update is formed in two temporaries, in the order of
    the expression above; ``g`` is not written. Once ``1 - beta1**t`` rounds
    to exactly 1 in that dtype (t >= 165 in float32, t >= 356 in float64),
    dividing ``m`` by it is exact, so that division is skipped and the bits
    stay those of the full expression. The update is elementwise, so
    stepping arrays concatenated gives the bits of stepping each one.
    NonFiniteGradient, before anything is written, if ``g`` holds a NaN or an
    infinity. Overflow, such as a learning rate too large for float32, is
    not an error here: it reaches the next loss or gradient, which the train
    loop checks.
    """
    if not np.isfinite(g).all():
        raise NonFiniteGradient("gradient contains NaN or inf")
    state.step += 1
    m, v, t = state.m, state.v, state.step
    m_corr = 1 - ADAM_BETA1 ** t
    v_corr = 1 - ADAM_BETA2 ** t
    with np.errstate(over="ignore", invalid="ignore"):
        update = (1 - ADAM_BETA1) * g
        denom = (1 - ADAM_BETA2) * g
        m *= ADAM_BETA1
        m += update
        denom *= g
        v *= ADAM_BETA2
        v += denom
        # update = m / m_corr / (sqrt(v / v_corr) + eps) + wd * p, times lr_t
        np.divide(v, v_corr, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        if p.dtype.type(m_corr) == 1:
            np.divide(m, denom, out=update)
        else:
            np.divide(m, m_corr, out=update)
            update /= denom
        np.multiply(weight_decay, p, out=denom)
        update += denom
        update *= lr_t
        p -= update


def linear_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Linear decay from base_lr at step 0 to zero at total_steps."""
    if total_steps < 1 or not 0 <= step <= total_steps:
        raise ValueError(f"bad schedule position {step}/{total_steps}")
    return base_lr * (1.0 - step / total_steps)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf or self.batch_size < 1 or self.epochs < 1:
            raise ValueError(f"invalid training config: {self}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    dev_qwk: float


@dataclass(frozen=True)
class TrainResult:
    model: MlpModel
    history: list[EpochStats]
    best_epoch: int
    best_dev_qwk: float
    dev_pred: np.ndarray  # the kept model's argmax class of each dev row

    def history_tsv(self) -> str:
        lines = ["epoch\tloss\tdev_qwk"]
        lines += [f"{h.epoch}\t{h.train_loss:.6f}\t{h.dev_qwk:.6f}" for h in self.history]
        return "\n".join(lines) + "\n"


def _mlp_grads(
    params: list[np.ndarray], X: np.ndarray, targets: np.ndarray, grads: list[np.ndarray]
) -> float:
    """The loss for parameters ``[w1, b1, w2, b2]`` against one-hot
    ``targets`` of their dtype; writes the gradients into ``grads``, arrays
    of the parameters' shapes, in that order. Each gradient matrix product
    and bias sum goes straight into its array, with no temporary to copy."""
    w1, b1, w2, b2 = params
    d_w1, d_b1, d_w2, d_b2 = grads
    # Divergence shows up as a non-finite loss, which the train loop turns
    # into NonFiniteLoss; the intermediate overflow itself is not an error.
    with np.errstate(over="ignore", invalid="ignore"):
        z1 = X @ w1 + b1
        hidden = np.maximum(z1, 0.0)
        logits = hidden @ w2 + b2
        loss, d_logits = _bce(logits, targets)
        np.matmul(hidden.T, d_logits, out=d_w2)
        d_logits.sum(axis=0, out=d_b2)
        d_z1 = d_logits @ w2.T
        d_z1 *= z1 > 0.0
        np.matmul(X.T, d_z1, out=d_w1)
        d_z1.sum(axis=0, out=d_b1)
    return loss


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive slices of ``flat`` reshaped to ``shapes``, without copying."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


def train_early_stop(
    model_init: MlpModel,
    train_x: np.ndarray,
    train_y,
    dev_x: np.ndarray,
    dev_y,
    config: TrainConfig,
    qwk_fn=qwk,
) -> TrainResult:
    """Train with seeded minibatches, keep the best-dev-QWK snapshot.

    The train labels are checked, LabelOutOfRange before any step if one
    is not a class of the model, and made float32 one-hot targets once;
    each batch takes its rows of both. The steps run in float32:
    ``train_x`` and the initial parameters are cast once, and the
    gradients and AdamW state follow them. The parameters live in one flat
    vector, of which ``w1, b1, w2, b2`` are reshaped views, and the
    gradients in a second flat vector viewed the same way, which the
    backward pass writes in place; so each step makes one AdamW update of
    the parameter vector in place, over the gradient vector as it stands.
    Dev QWK is computed after every epoch from argmax predictions of the
    float64 ``mlp_forward``, on the float32 weights converted exactly, so
    the returned model (float64 arrays holding float32 values) scores the
    same bits as the epoch that chose it, and the result keeps that
    epoch's dev predictions; on ties the earliest epoch wins. The linear
    schedule runs over the full step budget epochs * ceil(N / batch).
    """
    train_y = np.asarray(train_y)
    dev_y = np.asarray(dev_y)
    k = model_init.n_classes
    n = train_x.shape[0]
    rng = np.random.default_rng(config.seed)
    steps_per_epoch = -(-n // config.batch_size)
    total_steps = config.epochs * steps_per_epoch

    train_x = np.asarray(train_x, dtype=np.float32)
    targets = _one_hot(train_y, k, np.float32)
    flat = np.concatenate(model_init.params(), axis=None, dtype=np.float32)
    gflat = np.empty_like(flat)
    shapes = [p.shape for p in model_init.params()]
    params, grads = _views(flat, shapes), _views(gflat, shapes)
    state = AdamState(m=np.zeros_like(flat), v=np.zeros_like(flat))
    best: TrainResult | None = None
    history: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            loss = _mlp_grads(params, train_x[batch], targets[batch], grads)
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"non-finite loss at epoch {epoch}")
            loss_sum += loss * batch.size
            lr_t = linear_lr(state.step, total_steps, config.learning_rate)
            adamw_step(flat, gflat, state, lr_t, WEIGHT_DECAY)
        model = MlpModel(*(p.astype(float) for p in params))
        dev_pred = np.argmax(mlp_forward(model, dev_x), axis=1)
        dev_qwk = qwk_fn(dev_y, dev_pred, k)
        history.append(EpochStats(epoch=epoch, train_loss=loss_sum / n, dev_qwk=dev_qwk))
        if best is None or dev_qwk > best.best_dev_qwk:
            best = TrainResult(model, [], epoch, dev_qwk, dev_pred)  # history added below
    assert best is not None
    return replace(best, history=history)


LOGREG_MAX_ITER = 100  # a safety cap: fits converge in 5-15 Newton steps
LOGREG_TOL = 1e-6
LOGREG_MAX_HALVINGS = 40  # a Newton step shrunk 2**40-fold that still gains nothing has stalled


@dataclass
class LogRegModel:
    """Multinomial softmax regression head.

    ``iterations`` and ``grad_norm`` describe the fit that produced the
    model (accepted Newton steps, final gradient infinity-norm); they
    are not serialised, so a loaded model has None for both.
    """

    weights: np.ndarray  # F x k
    bias: np.ndarray  # k
    l2: float
    iterations: int | None = None
    grad_norm: float | None = None

    @property
    def n_classes(self) -> int:
        return self.weights.shape[1]

    @property
    def converged(self) -> bool:
        return self.grad_norm is not None and self.grad_norm <= LOGREG_TOL


def _logreg_hessian(X: np.ndarray, weights: np.ndarray, bias: np.ndarray, l2: float):
    """Hessian of ``logreg_objective`` at ``(weights, bias)`` over the
    class-major stack of ``[W; b]`` columns, gauge fixed.

    Block (a, c) is ``Xb.T @ ((p_a [a == c] - p_a p_c) / N * Xb)``, where
    ``Xb`` is ``X`` with a ones column appended and ``p`` the softmax at the
    point, plus ``l2`` on the weight diagonal. Shifting every bias by the
    same amount leaves the softmax unchanged, so the true Hessian is
    singular along that direction; adding ``1 1^T`` to the bias block makes
    it positive definite without moving the Newton step, which is
    orthogonal to it.
    """
    n, f1 = X.shape[0], X.shape[1] + 1
    k = weights.shape[1]
    Xb = np.hstack([X, np.ones((n, 1))])
    probs = np.exp(log_softmax(X @ weights + bias, axis=1))
    hess = np.empty((k, f1, k, f1))
    for a in range(k):
        for c in range(a, k):
            weight = probs[:, a] * (float(a == c) - probs[:, c]) / n
            block = (Xb.T * weight) @ Xb
            hess[a, :, c, :] = block
            hess[c, :, a, :] = block.T
    hess = hess.reshape(k * f1, k * f1)
    weight_diag = np.arange(k * f1) % f1 != f1 - 1
    hess[weight_diag, weight_diag] += l2
    bias_at = np.arange(k) * f1 + f1 - 1
    hess[np.ix_(bias_at, bias_at)] += 1.0
    return hess


def logreg_objective(
    weights: np.ndarray, bias: np.ndarray, X: np.ndarray, labels: np.ndarray, l2: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy plus (l2/2)*||W||^2, with analytic gradients; the
    labels must lie in [0, k) for the k columns of ``weights``. ``logreg_fit``
    evaluates every point it visits with it."""
    labels = as_labels(labels, weights.shape[1])
    n = X.shape[0]
    rows = np.arange(n)
    logits = X @ weights + bias
    log_z = logsumexp(logits, axis=1)
    value = float(np.mean(log_z - logits[rows, labels]))
    value += 0.5 * l2 * float(np.sum(weights * weights))
    delta = np.exp(logits - log_z[:, None])
    delta[rows, labels] -= 1.0
    delta /= n
    return value, X.T @ delta + l2 * weights, delta.sum(axis=0)


def logreg_fit(design: np.ndarray, labels, l2: float, k: int | None = None) -> LogRegModel:
    """Fit by damped Newton steps on ``[W; b]`` from zero.

    The objective is strictly convex for ``l2 > 0`` once the biases' common
    shift is pinned (``_logreg_hessian``), so each step solves the Newton
    system and halves it until the objective decreases. Every point the
    fit visits, the start, each halving and each accepted step, is
    evaluated by ``logreg_objective``, which also checks the labels. Biases
    start at zero and every step keeps their sum at zero, to rounding.
    Stops when the gradient infinity-norm reaches ``LOGREG_TOL``, after
    ``LOGREG_MAX_ITER`` accepted steps, or when ``LOGREG_MAX_HALVINGS``
    halvings find no decrease; the model records which via ``iterations``
    and ``grad_norm``. ``k`` may widen the output beyond the classes observed
    in ``labels``: an absent class's bias has no minimiser, but its
    gradient shrinks by about e per step, so the fit still reaches the
    tolerance with every number finite. Deterministic.
    """
    if not (math.isfinite(l2) and l2 > 0):
        raise ValueError(f"l2 must be finite and > 0, got {l2!r}")
    X = np.asarray(design, dtype=float)
    y = np.asarray(labels)
    if np.unique(y).size < 2:
        raise SingleClass("logistic regression needs >= 2 observed classes")
    k = int(y.max()) + 1 if k is None else k
    if X.shape[0] < k:
        raise TooFewRows(f"need at least {k} rows, got {X.shape[0]}")
    weights = np.zeros((X.shape[1], k))
    bias = np.zeros(k)
    value, grad_w, grad_b = logreg_objective(weights, bias, X, y, l2)
    iterations = 0
    while True:
        grad = np.vstack([grad_w, grad_b])
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= LOGREG_TOL or iterations == LOGREG_MAX_ITER:
            break
        newton = np.linalg.solve(_logreg_hessian(X, weights, bias, l2), -grad.T.ravel())
        newton = newton.reshape(k, -1).T
        step = 1.0
        for _ in range(LOGREG_MAX_HALVINGS):
            trial_w = weights + step * newton[:-1]
            trial_b = bias + step * newton[-1]
            trial = logreg_objective(trial_w, trial_b, X, y, l2)
            if trial[0] < value:
                break
            step *= 0.5
        else:  # no step along the Newton direction lowers the objective
            break
        weights, bias = trial_w, trial_b
        value, grad_w, grad_b = trial
        iterations += 1
    return LogRegModel(
        weights=weights, bias=bias, l2=l2, iterations=iterations, grad_norm=grad_norm
    )


def logreg_logprobs(model: LogRegModel, design: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax scores; each row logsumexps to 0."""
    X = np.atleast_2d(np.asarray(design, dtype=float))
    if X.shape[1] != model.weights.shape[0]:
        raise DimMismatch(
            f"design has dim {X.shape[1]}, model expects {model.weights.shape[0]}"
        )
    return log_softmax(X @ model.weights + model.bias, axis=1)
