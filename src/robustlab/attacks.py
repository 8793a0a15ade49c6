"""First-order adversarial attacks with optional logit scaling.

`pgd_attack` is the one attack entry. Its run records, for every example,
a full prediction-correctness trace plus the number of iterations survived
before the first label flip (`kappa`), and every consumer reads its view
off the `AttackResult`: instance-reweighted training reads kappa, friendly
training the friendly points, the all-iterates verdict the trace, and the
best-iterate verdict the correctness at the returned max-loss points.

Sign steps clipped to the ball soon park most rows at a fixed point or a
2-cycle, so PGD stops computing a row once its new iterate repeats, bit for
bit, its iterate two steps back. Every later pass on that row would repeat
one already made: its losses never beat the best one again, and its trace
and trajectory are filled in at once with period 2. This is exact because
the fused pass gives a row the same logits and input gradient in a batch
of any size, one row included. The rows still stepped move to a smaller
batch, on the first rows of the run's own workspace, once they are at most
half of the current one.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .datasets import DomainBox
from .errors import (
    CapabilityError, ContractError, NumericalError, ParameterError, ShapeError,
    check_at_least, check_positive, check_seed, check_size,
)
from .model import MlpParams, predict
from .model import forward_logits  # noqa: F401 -- unused; perfbench's tracer shims this name here
from .tensor import Tensor, _check_input, _check_labels, _forward, _Workspace, mlp_loss_and_grad
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
        check_positive(self.step_size, "step_size")
        check_at_least(self.steps, 1, "steps")
        check_at_least(self.restarts, 1, "restarts")
        check_positive(self.alpha, "alpha")

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
    friendly holds, when a friendly_slack was given, the friendly (FAT)
    points of the same run: per example, the first restart's iterate
    friendly_slack steps after its first misclassified one (at slack 0, the
    first iterate whose margin over the best competing label turned
    positive); never-flipped rows keep the max-loss point. Else None.
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
    eps = check_positive(epsilon, "epsilon")
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


class _Rows(NamedTuple):
    """Per row of a PGD restart's pass: the max-loss search's state, the
    restart's correctness trace (rows, steps + 1) and, on the first restart
    of a run with friendly points, its trajectory (rows, steps + 1, d)."""

    loss: np.ndarray
    x: np.ndarray
    correct: np.ndarray
    trace: np.ndarray
    traj: np.ndarray | None


def _rows_to_keep(new: np.ndarray, prev: np.ndarray | None) -> np.ndarray | None:
    """The rows of a PGD pass still to step, as a mask, once at most half of
    them are live and dropping the settled ones shrinks the pass; else None.

    A row has settled when its new iterate repeats the one two steps back
    bit for bit (a 2-cycle, or a fixed point reached a step ago): every later
    pass on it repeats one already made. Bits, not float ==, so that -0.0
    and 0.0 differ.
    """
    if prev is None:
        return None
    m, d = new.shape
    differ = np.not_equal(new.view(np.int64), prev.view(np.int64))
    if 2 * np.count_nonzero(differ) > m * d:  # at least count / d rows are live, over half
        return None
    keep = differ @ np.ones(d) != 0  # numpy's `any` along rows of a few entries is many times slower
    return None if 2 * np.count_nonzero(keep) > m else keep


def _repeat_tails(own: _Rows, done: np.ndarray, t: int) -> None:
    """Fill in the trace and trajectory of the rows `done` of `own` from
    iterate t + 1 on: iterate t + 1 repeats iterate t - 1, and so on."""
    for a in (own.trace, own.traj):
        if a is not None:
            tails = a[done]
            tails[:, t + 1::2] = tails[:, t - 1:t]
            tails[:, t + 2::2] = tails[:, t:t + 1]
            a[done] = tails


def _put_back(whole: _Rows, own: _Rows, rows: np.ndarray, which) -> None:
    """Write the rows `which` of `own`, a gathered copy, to their places `rows[which]` in `whole`."""
    for out, got in zip(whole, own):
        if got is not None:
            out[rows[which]] = got[which]


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
    first restart's iterates and returns, as `friendly`, each row's iterate
    friendly_slack steps after its first misclassified one on the first
    restart (capped at the last step); never-flipped rows keep the max-loss
    point.
    natural_correct comes from a forward pass on x0 in the run's workspace.
    A pass that makes a NaN raises NumericalError naming its restart and step.
    Rows that have settled are not computed again (see the module
    docstring); every output has the bits of the run that computes them.
    """
    if friendly_slack is not None:
        check_at_least(int(friendly_slack), 0, "friendly_slack")
    x0d = x0.data
    _check_input(model, x0d)
    n, d = x0d.shape
    T, R = config.steps, config.restarts
    check_size(n * R * (T + 1), f"{n} points x {R} restarts x {T + 1} iterates give a PGD trace")
    eps = config.epsilon
    rng = np.random.default_rng(check_seed(seed))

    # Every step reuses the checked labels and the projection bounds;
    # AttackConfig has checked alpha.
    lab = _check_labels(y, n, model.config.num_classes)
    lo, hi = _ball_bounds(x0d, eps, domain if config.clip_to_domain else None)
    ws = _Workspace.for_batch(model.config.layer_sizes, lab)
    natural_correct = _forward(model, x0d, ws.acts, ws.act_blocks).argmax(axis=1) == lab  # the natural pass
    trace = np.zeros((n, R, T + 1), dtype=bool)
    best_loss = np.full(n, -np.inf)
    best_x = x0d.copy()
    # The forward pass is batch-invariant, so correctness recorded at the
    # best iterate is what predict on the returned points gives.
    best_correct = natural_correct.copy()
    better = np.empty(n, dtype=bool)
    traj = np.empty((n, T + 1, d)) if friendly_slack is not None else None

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
                # The rows this restart still steps, as indices into the batch, with their
                # labels, bounds, workspace and results: the run's own arrays until the
                # first shrink, gathered copies after it.
                whole = _Rows(best_loss, best_x, best_correct, trace[:, r], traj if r == 0 else None)
                rows, own, rlab, rlo, rhi, rws, beats = np.arange(n), whole, lab, lo, hi, ws, better
                prev, new = None, np.empty_like(x)
                for t in range(T + 1):
                    if own.traj is not None:
                        own.traj[:, t] = x
                    step = mlp_loss_and_grad(model, x, rlab, config.alpha, None, t < T, False, rws)
                    correct = np.equal(step.logits.argmax(axis=1), rlab, out=own.trace[:, t])
                    # Strict > keeps the earliest (restart-major, then iteration)
                    # max-loss iterate on ties.
                    if np.greater(step.losses, own.loss, out=beats).any():
                        np.copyto(own.loss, step.losses, where=beats)
                        np.copyto(own.x, x, where=beats[:, None])
                        np.copyto(own.correct, correct, where=beats)
                    if t == T:
                        break
                    # The sign step overwrites the gradient, which no one reads again.
                    g = np.sign(step.input_grad, out=step.input_grad)
                    g *= config.step_size
                    np.add(x, g, out=new)
                    np.clip(new, rlo, rhi, out=new)
                    keep = _rows_to_keep(new, prev)
                    prev, x, new = x, new, np.empty_like(x) if prev is None else prev
                    if keep is None:
                        continue
                    done = np.flatnonzero(~keep)
                    _repeat_tails(own, done, t)
                    if not keep.any():
                        break
                    if own is not whole:
                        _put_back(whole, own, rows, done)
                    rows, own = rows[keep], _Rows(*(None if a is None else a[keep] for a in own))
                    rlab, rlo, rhi, beats = rlab[keep], rlo[keep], rhi[keep], better[:rows.size]
                    rws = ws.narrowed(rlab)
                    prev, x, new = prev[keep], x[keep], np.empty((rows.size, d))
                if own is not whole:
                    _put_back(whole, own, rows, slice(None))
    except FloatingPointError:
        raise NumericalError(f"PGD made a NaN at restart {r}, step {t} (alpha {config.alpha}): the "
                             "model's logits or their scaled gradients left float64 range") from None

    # kappa counts from the natural point regardless of random starts, then
    # follows the first restart's iterates.
    kappa_trace = np.concatenate([natural_correct[:, None], trace[:, 0, 1:]], axis=1)
    friendly = None
    if traj is not None:
        wrong = ~trace[:, 0, :]
        chosen = np.minimum(wrong.argmax(axis=1) + int(friendly_slack), T)
        friendly = best_x.copy()
        idx = np.nonzero(wrong.any(axis=1))[0]
        friendly[idx] = traj[idx, chosen[idx]]
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
    d, G = point.size, _check_grid(point.size, grid_resolution)
    lo, hi = _ball_bounds(point, epsilon, domain)
    axes = [np.linspace(lo[j], hi[j], G) for j in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.reshape(-1) for m in mesh], axis=1)
    preds = predict(model, Tensor._wrap(grid))
    return bool(np.all(preds == int(y)))


def _check_grid(d: int, grid_resolution: int) -> int:
    """The grid oracle's points per axis, refused unless 2..101 on points of at most 3 dimensions."""
    if d > 3:
        raise CapabilityError(f"brute force supports at most 3 dimensions, got {d}")
    G = int(grid_resolution)
    if G > 101:
        raise CapabilityError(f"grid resolution capped at 101 per axis, got {G}")
    if G < 2:
        raise ParameterError(f"need at least 2 grid points per axis, got {G}")
    return G
