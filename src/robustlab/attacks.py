"""First-order adversarial attacks with optional logit scaling.

The PGD loop records, for every example, a full prediction-correctness
trace plus the number of iterations survived before the first label flip
(`kappa`). Downstream consumers: instance-reweighted training reads kappa,
the all-iterates verdict reads the trace, and plain robust accuracy reads
the returned max-loss points.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .datasets import DomainBox
from .errors import CapabilityError, ContractError, ParameterError, ShapeError, check_seed, check_size
from .model import MlpParams, forward_logits, predict
from .tensor import Tensor, _check_labels, _Workspace, mlp_loss_and_grad
from .textfile import fmt


@dataclass(frozen=True)
class AttackConfig:
    """Everything that defines one PGD-family attack.

    epsilon and step_size are in input units; alpha is the positive scale
    multiplied into the logits by the crafting loss (1 = vanilla PGD).
    """

    epsilon: float
    steps: int
    step_size: float
    restarts: int = 1
    alpha: float = 1.0
    random_start: bool = False
    clip_to_domain: bool = True

    def __post_init__(self):
        cast = {"float": float, "int": int, "bool": bool}
        for f in fields(self):  # each field to its annotated type
            object.__setattr__(self, f.name, cast[f.type](getattr(self, f.name)))
        # The random start draws from [-epsilon, epsilon], a range numpy refuses past 2 * epsilon = inf.
        if not (np.isfinite(2 * self.epsilon) and self.epsilon > 0):
            raise ParameterError(f"epsilon must be > 0 with 2 * epsilon finite, got {self.epsilon}")
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ParameterError(f"step_size must be > 0, got {self.step_size}")
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")
        if self.restarts < 1:
            raise ParameterError(f"restarts must be >= 1, got {self.restarts}")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ParameterError(f"alpha must be > 0, got {self.alpha}")

    def to_kv(self, sep: str = "\n") -> str:
        """Flat `key = value` block, embeddable in experiment config files."""
        parts = []
        for f in fields(self):
            v = getattr(self, f.name)
            text = str(v).lower() if isinstance(v, bool) else fmt(v) if isinstance(v, float) else str(v)
            parts.append(f"{f.name} = {text}")
        return sep.join(parts)


def pgd20_config(epsilon: float = 0.031) -> AttackConfig:
    """20 iterations, step epsilon/4, one random start."""
    return AttackConfig(epsilon=epsilon, steps=20, step_size=epsilon / 4, restarts=1, random_start=True)


def pgd_plus_config(epsilon: float = 0.031) -> AttackConfig:
    """40 iterations, step 0.01, 5 random restarts; pair with the all-iterates verdict."""
    return AttackConfig(epsilon=epsilon, steps=40, step_size=0.01, restarts=5, random_start=True)


def pgd200_config(epsilon: float = 0.031) -> AttackConfig:
    """200 iterations with a fine step.

    The fine step size is not pinned anywhere authoritative; epsilon/100 is
    this lab's choice.
    """
    return AttackConfig(epsilon=epsilon, steps=200, step_size=epsilon / 100, restarts=1, random_start=True)


ATTACK_PRESETS = {
    "pgd20": pgd20_config,
    "pgdplus": pgd_plus_config,
    "pgd200": pgd200_config,
}


@dataclass(frozen=True)
class AttackResult:
    """What one batched attack produced.

    correct_trace[i, r, t] is prediction correctness for example i at
    restart r's iterate t (t = 0 is the, possibly noised, start point).
    kappa counts from the natural point: kappa[i] = 0 means naturally
    misclassified, kappa[i] = steps means never flipped on the first
    restart. final_correct is correctness at the returned max-loss point.
    friendly holds the friendly-search points of the same run (see
    `friendly_adversarial_search`) when they were asked for, else None.
    """

    adversarial: Tensor
    kappa: np.ndarray
    correct_trace: np.ndarray
    natural_correct: np.ndarray
    final_correct: np.ndarray
    friendly: Tensor | None = None


def _ball_bounds(x0: np.ndarray, epsilon: float, domain: DomainBox | None) -> tuple[np.ndarray, np.ndarray]:
    """The epsilon-ball's bounds around x0, each clamped into the domain box.

    Clamping is monotone, so one clip to these bounds gives the bits of a
    clip to the ball followed by a clip to the box, even where x0 lies
    outside the box. PGD's steps, `project_linf` and the grid oracle all
    take their ball from here.
    """
    eps = float(epsilon)
    if not (np.isfinite(eps) and eps > 0):
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")
    lo, hi = x0 - eps, x0 + eps
    if domain is not None:
        lower, upper = domain.lower_array(), domain.upper_array()
        np.clip(lo, lower, upper, out=lo)
        np.clip(hi, lower, upper, out=hi)
    return lo, hi


def project_linf(x: Tensor, x0: Tensor, epsilon: float, domain: DomainBox | None = None) -> Tensor:
    """Clamp x into the epsilon-ball around x0, then into the domain box."""
    if x.shape != x0.shape:
        raise ShapeError(f"project_linf shapes differ: {x.shape} vs {x0.shape}")
    return Tensor._wrap(np.clip(x.data, *_ball_bounds(x0.data, epsilon, domain)))


def pgd_attack(
    model: MlpParams,
    x0: Tensor,
    y,
    config: AttackConfig,
    *,
    domain: DomainBox | None = None,
    seed: int = 0,
    friendly_slack: int | None = None,
) -> AttackResult:
    """Sign-gradient PGD in the l-inf ball, batched over examples.

    Per restart: start at x0 (plus projected uniform noise when
    random_start), take `steps` fixed-size sign steps on the alpha-scaled
    cross-entropy, projecting after each. The returned point per example is
    the max-loss iterate over every restart and iteration. This is the one
    seeded PGD run of the package: given friendly_slack, it also keeps the
    first restart's iterates and picks the points
    `friendly_adversarial_search` with that slack returns for the same seed.
    """
    if friendly_slack is not None and int(friendly_slack) < 0:
        raise ParameterError(f"slack_steps must be >= 0, got {friendly_slack}")
    x0d = x0.data
    if x0d.ndim != 2:
        raise ShapeError(f"attack input must be (n, d), got {x0d.shape}")
    n, d = x0d.shape
    T, R = config.steps, config.restarts
    check_size(n * R * (T + 1), f"{n} points x {R} restarts x {T + 1} iterates give a PGD trace")
    eps = config.epsilon
    rng = np.random.default_rng(check_seed(seed))

    natural_logits = forward_logits(model, x0).data
    # Every step reuses the checked labels and the projection bounds;
    # AttackConfig has checked alpha.
    lab = _check_labels(y, n, model.config.num_classes)
    lo, hi = _ball_bounds(x0d, eps, domain if config.clip_to_domain else None)
    natural_correct = np.argmax(natural_logits, axis=1) == lab
    trace = np.zeros((n, R, T + 1), dtype=bool)
    best_loss = np.full(n, -np.inf)
    best_x = x0d.copy()
    # The forward pass is batch-invariant, so correctness recorded at the
    # best iterate is what predict on the returned points gives.
    best_correct = natural_correct.copy()
    better = np.empty(n, dtype=bool)
    traj = np.empty((T + 1, n, d)) if friendly_slack is not None else None
    ws = _Workspace.for_batch(model.config.layer_sizes, n)

    # A large alpha drives the scaled losses to +inf, a limit the max-loss search compares
    # correctly; a NaN, which it cannot compare, is refused at the pass that made it.
    try:
        with np.errstate(over="ignore", invalid="raise"):
            for r in range(R):
                if config.random_start:
                    x = rng.uniform(-eps, eps, size=(n, d))
                    x += x0d
                    np.clip(x, lo, hi, out=x)
                else:
                    x = x0d.copy()
                for t in range(T + 1):
                    if traj is not None and r == 0:
                        traj[t] = x
                    step = mlp_loss_and_grad(model, x, lab, config.alpha, None, t < T, False, ws)
                    correct = np.equal(step.logits.argmax(axis=1), lab, out=trace[:, r, t])
                    # Strict > keeps the earliest (restart-major, then iteration)
                    # max-loss iterate on ties.
                    if np.greater(step.losses, best_loss, out=better).any():
                        np.copyto(best_loss, step.losses, where=better)
                        np.copyto(best_x, x, where=better[:, None])
                        np.copyto(best_correct, correct, where=better)
                    if t == T:
                        break
                    # The sign step overwrites the gradient, which no one reads again.
                    g = np.sign(step.input_grad, out=step.input_grad)
                    g *= config.step_size
                    x += g
                    np.clip(x, lo, hi, out=x)
    except FloatingPointError:
        raise ParameterError(f"PGD made a NaN at restart {r}, step {t} (alpha {config.alpha}): the "
                             "model's logits or their scaled gradients left float64 range") from None

    # kappa counts from the natural point regardless of random starts, then
    # follows the first restart's iterates.
    kappa_trace = np.concatenate([natural_correct[:, None], trace[:, 0, 1:]], axis=1)
    friendly = None
    if traj is not None:
        # Per example, the first restart's iterate friendly_slack steps after
        # its first misclassified one; never-flipped examples keep best_x.
        wrong = ~trace[:, 0, :]
        chosen = np.minimum(wrong.argmax(axis=1) + int(friendly_slack), T)
        friendly = best_x.copy()
        idx = np.nonzero(wrong.any(axis=1))[0]
        friendly[idx] = traj[chosen[idx], idx]
        friendly = Tensor._wrap(friendly)
    return AttackResult(
        adversarial=Tensor._wrap(best_x),
        kappa=count_kappa(kappa_trace, T),
        correct_trace=trace,
        natural_correct=natural_correct,
        final_correct=best_correct,
        friendly=friendly,
    )


def count_kappa(correct_trace, steps: int) -> np.ndarray:
    """Iterations survived before the first flip.

    correct_trace is (n, steps+1) booleans where column 0 is the natural
    point. Returns the index of the first False per row (0 = naturally
    misclassified), or `steps` for rows that never flip.
    """
    tr = np.asarray(correct_trace, dtype=bool)
    if tr.ndim != 2 or tr.shape[1] != steps + 1:
        raise ContractError(
            f"trace must cover iterations 0..{steps} per example, got shape {tr.shape}"
        )
    wrong = ~tr
    first = wrong.argmax(axis=1)
    return np.where(wrong.any(axis=1), first, steps).astype(np.int64)


def friendly_adversarial_search(
    model: MlpParams,
    x0: Tensor,
    y,
    config: AttackConfig,
    slack_steps: int = 0,
    *,
    domain: DomainBox | None = None,
    seed: int = 0,
) -> Tensor:
    """Early-stopped PGD: per example, return the iterate `slack_steps`
    after the first misclassified one on the first restart.

    At slack 0 that is the first iterate whose loss margin over the
    best competing label turned positive. Examples that never flip fall
    back to the plain max-loss attack output.
    """
    return pgd_attack(model, x0, y, config, domain=domain, seed=seed, friendly_slack=slack_steps).friendly


def pgd_plus_verdict(
    model: MlpParams,
    x0: Tensor,
    y,
    config: AttackConfig,
    *,
    domain: DomainBox | None = None,
    seed: int = 0,
) -> np.ndarray:
    """All-iterates verdict: robust-correct iff correct at the natural point
    and at every post-step iterate of every restart (restarts x steps
    checks; 200 under the 40x5 configuration). One flip anywhere loses.
    """
    res = pgd_attack(model, x0, y, config, domain=domain, seed=seed)
    return res.natural_correct & res.correct_trace[:, :, 1:].all(axis=(1, 2))


def brute_force_attack(
    model: MlpParams,
    x0,
    y: int,
    epsilon: float,
    grid_resolution: int,
    *,
    domain: DomainBox | None = None,
) -> bool:
    """Exhaustive grid check of one low-dimensional point.

    Evaluates predict on the full G^d grid over the epsilon-ball clamped
    into the domain box (the ball `pgd_attack` walks), corners included;
    robust-correct iff correct at every grid point. Independent of any gradient machinery, so it serves as an
    oracle that PGD verdicts can be checked against.
    """
    point = np.asarray(x0.data if isinstance(x0, Tensor) else x0, dtype=np.float64).reshape(-1)
    d = point.size
    if d > 3:
        raise CapabilityError(f"brute force supports at most 3 dimensions, got {d}")
    G = int(grid_resolution)
    if G > 101:
        raise CapabilityError(f"grid resolution capped at 101 per axis, got {G}")
    if G < 2:
        raise ParameterError(f"need at least 2 grid points per axis, got {G}")
    lo, hi = _ball_bounds(point, epsilon, domain)
    axes = [np.linspace(lo[j], hi[j], G) for j in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.reshape(-1) for m in mesh], axis=1)
    preds = predict(model, Tensor._wrap(grid))
    return bool(np.all(preds == int(y)))
