"""First-order adversarial attacks with optional logit scaling.

`pgd_attack` is the one attack entry. Its run records, for every example,
a full prediction-correctness trace plus the number of iterations survived
before the first label flip (`kappa`), and every consumer reads its view
off the `AttackResult`: instance-reweighted training reads kappa, friendly
training the friendly points, the all-iterates verdict the trace, and the
best-iterate verdict the correctness at the returned max-loss points.

Sign steps clipped to the ball soon park most rows at a fixed point or a
2-cycle, so PGD stops computing a row once its new iterate repeats, bit for
bit, its current iterate or the one a step back. Every later pass on that
row would repeat one already made: its losses never beat the best one
again, and its trace and trajectory are filled in at once, with period 1
or 2. This is exact because the fused pass gives a row the same logits and
input gradient in a batch of any size, one row included. The rows still
stepped are gathered by index into a smaller batch, on the first rows of
the run's own workspace, once their blocks are at most 3/4 of the current
pass's; a pass of one block is never gathered, and stops once every row
has settled.

A pass computes a whole number of 64-row blocks, so a batch of at most 32
rows leaves half of its pass or more to padding. Such a batch stacks
G = min(restarts, padded rows // n) restarts, restart-major, into one pass
of the same workspace; a larger batch runs them one by one, G = 1, through
the same code. Each (restart, row) keeps its own max-loss search; after
each group, the later restarts' searches fold into the first restart's in
restart order, which keeps the earliest max-loss iterate as a single search
over every restart does. Best iterates and trajectories are kept as
records, one per iterate of a row (`_records`).
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .datasets import DomainBox
from .errors import (
    CapabilityError, NumericalError, ParameterError,
    check_at_least, check_positive, check_seed, check_size,
)
from .model import MlpParams, predict
# Unused here, but perfbench's tracer shims this name, and
# perfbench/test_perfbench.py::test_shims_are_removed_on_exit_even_after_an_error reads it.
from .model import forward_logits  # noqa: F401
from .tensor import _BLOCK, Tensor, _check_input, _check_labels, _forward, _padded, _Workspace, mlp_loss_and_grad
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
    outside the box. PGD's steps and the grid oracle both take their ball
    from here.
    """
    eps = check_positive(epsilon, "epsilon")
    lo, hi = x0 - eps, x0 + eps
    if domain is not None:
        lower, upper = domain.lower_array(), domain.upper_array()
        lo.clip(lower, upper, out=lo)
        hi.clip(lower, upper, out=hi)
    return lo, hi


class _Rows(NamedTuple):
    """Per row of a PGD pass, one (restart, example) pair: the max-loss
    search's state, its best iterate as a record (`_records`), the
    restart's correctness trace (rows, steps + 1) and, on the first restart
    of a run with friendly points, its trajectory as records (rows,
    steps + 1)."""

    loss: np.ndarray
    x: np.ndarray
    correct: np.ndarray
    trace: np.ndarray
    traj: np.ndarray | None

    @classmethod
    def fresh(cls, trace: np.ndarray, traj: np.ndarray | None, rec: np.dtype) -> "_Rows":
        """The rows of `trace` before their first pass, whose results `_climb` copies in as the first best."""
        m = trace.shape[0]
        return cls(np.empty(m), np.empty(m, rec), np.empty(m, dtype=bool), trace, traj)


def _records(a: np.ndarray, rec: np.dtype) -> np.ndarray:
    """A C-ordered float64 array of last axis d as a view of records of
    dtype `rec`, (void, 8 d bytes), one per d-vector: (m, d) gives (m,),
    (m, T, d) gives (m, T). A masked copy, a gather or a fill then moves
    each vector as one item; on the float array numpy walks it element by
    element, several times slower."""
    return a.view(rec)[..., 0]


def _views(x: np.ndarray, rec: np.dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A C-ordered (m, d) float64 iterate, its records and its int64 bits."""
    return x, _records(x, rec), x.view(np.int64)


def _keep_better(best: _Rows, loss: np.ndarray, x: np.ndarray, correct: np.ndarray, beats: np.ndarray) -> None:
    """Copy loss, x (records) and correct into `best` on the rows where loss
    beats best.loss. Strict > keeps the earliest (restart-major, then
    iteration) max-loss iterate on ties."""
    if np.greater(loss, best.loss, out=beats).any():
        np.copyto(best.loss, loss, where=beats)
        np.copyto(best.x, x, where=beats)
        np.copyto(best.correct, correct, where=beats)


def _starts(x0: np.ndarray, lo: np.ndarray, hi: np.ndarray, u: np.ndarray | None) -> np.ndarray:
    """A batch's starts: x0 moved by the uniform draw u and clipped to lo..hi, or a copy of x0 given no draw."""
    if u is None:
        return x0.copy()
    x = u + x0
    return x.clip(lo, hi, out=x)


def _rows_to_keep(moved: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows of a PGD pass still to step, and the rows whose new iterate
    differs from their current one, as masks, once at most `cap` rows are
    live; else None.

    moved[0] marks the entries where a row's new iterate differs, in its
    int64 bits, from its iterate a step back (all of them before step 1)
    and moved[1] those where it differs from its current one; moved[2] is
    scratch. A row has settled when its new iterate repeats its current one
    (a fixed point) or the one a step back (a 2-cycle): every later pass on
    it repeats one already made. Bits, not float ==, so that -0.0 and 0.0
    differ.
    """
    d = moved.shape[2]
    # An entry that differs from both makes its row live: at least count / d rows are.
    if np.count_nonzero(np.logical_and(moved[0], moved[1], out=moved[2])) > cap * d:
        return None
    moving = _any_by_row(moved[1])
    live = moving & _any_by_row(moved[0])
    return None if np.count_nonzero(live) > cap else (live, moving)


def _any_by_row(a: np.ndarray) -> np.ndarray:
    """The rows of a C-ordered (m, d) bool array that hold a True. numpy's
    `any` along rows of a few entries is many times slower than reading a
    row of 1, 2, 4 or 8 bools as one unsigned integer, or than a product by
    ones for other d."""
    d = a.shape[1]
    return a.view(f"u{d}")[:, 0] != 0 if d in (1, 2, 4, 8) else a @ np.ones(d) != 0


def _cap(m: int) -> int:
    """The most live rows at which a pass of m rows shrinks, those whose
    blocks are at most 3/4 of its own: 0 for a one-block pass (m <= 64),
    which only stops once every row has settled."""
    return 3 * _padded(m) // 4 // _BLOCK * _BLOCK


def _repeat_tails(own: _Rows, done: np.ndarray, cycling: np.ndarray, t: int) -> None:
    """Fill in the trace and trajectory (records) of the rows `done` of
    `own` from iterate t + 1 on, writing only those columns: a fixed point
    repeats iterate t, and the rows `cycling` (a subset of `done`, both
    indices) alternate iterates t - 1 and t."""
    for a in (own.trace, own.traj):
        if a is not None:
            a[done, t + 1:] = a[done, t, None]
            if cycling.size:
                a[cycling, t + 1::2] = a[cycling, t - 1, None]


def _put_back(whole: _Rows, own: _Rows, rows: np.ndarray, which: np.ndarray | None = None) -> None:
    """Write the rows `which` (indices; every row, given None) of `own`, a
    gathered copy, to their places `rows[which]` in `whole`."""
    at = rows if which is None else rows.take(which)
    for out, got in zip(whole, own):
        if got is not None:
            out[at] = got if which is None else got.take(which, axis=0)


def _climb(model: MlpParams, config: AttackConfig, x: np.ndarray, lab: np.ndarray, lo: np.ndarray,
           hi: np.ndarray, ws: _Workspace, whole: _Rows, r: int) -> None:
    """Step each row of `x`, a C-ordered batch of starts, through the
    config's sign steps within its bounds `lo` and `hi`, every pass in `ws`,
    and write each row's max-loss search, trace and trajectory into `whole`.
    Overwrites `x`. A pass that makes a NaN raises NumericalError naming
    restart r and its step.

    A settled row is not computed again once the live rows fit in at most
    3/4 of the pass's blocks (`_rows_to_keep`): they are then gathered by
    index into a smaller pass, on the first rows of `ws`. The climb stops
    when every row has settled.
    """
    T, (m, d) = config.steps, x.shape
    # The rows this pass still steps, as indices into `whole` (None: all of them), and
    # their state: `whole` until the first shrink, gathered copies after it.
    rows, own, beats, cap, rec = None, whole, np.empty(m, dtype=bool), _cap(m), whole.x.dtype
    # The iterate, the next one and the one before it; each step rotates them.
    its = [_views(a, rec) for a in (x, np.empty_like(x), np.empty_like(x))]
    moved = np.ones((3, m, d), dtype=bool)  # see `_rows_to_keep`
    try:
        for t in range(T + 1):
            (x, xr, xb), (new, _, nb), (_, _, pb) = its
            if own.traj is not None:
                own.traj[:, t] = xr
            step = mlp_loss_and_grad(model, x, lab, config.alpha, None, t < T, False, ws)
            own.trace[:, t] = step.correct
            if t:
                _keep_better(own, step.losses, xr, step.correct, beats)
            else:  # every loss is >= 0 or +inf, so each row's first is its best so far
                np.copyto(own.loss, step.losses)
                np.copyto(own.x, xr)
                np.copyto(own.correct, step.correct)
            if t == T:
                break
            # The sign step overwrites the gradient, which no one reads again.
            g = np.sign(step.input_grad, out=step.input_grad)
            g *= config.step_size
            np.add(x, g, out=new)
            new.clip(lo, hi, out=new)
            settled = None
            # A one-block pass (cap 0) stops only once every row has settled, so not before its first has.
            if cap or (first := nb[:1].tobytes()) == xb[:1].tobytes() or t and first == pb[:1].tobytes():
                if t:
                    np.not_equal(nb, pb, out=moved[0])
                np.not_equal(nb, xb, out=moved[1])
                settled = _rows_to_keep(moved, cap)
            its = its[1:] + its[:1]
            if settled is None:
                continue
            live, moving = settled
            done = np.flatnonzero(~live)
            _repeat_tails(own, done, done[moving.take(done)], t)
            if done.size == live.size:
                break
            if rows is not None:
                _put_back(whole, own, rows, done)
            idx = np.flatnonzero(live)
            rows = idx if rows is None else rows.take(idx)
            own = _Rows(*(None if a is None else a.take(idx, axis=0) for a in own))
            lab, lo, hi, beats = lab.take(idx), lo.take(idx, axis=0), hi.take(idx, axis=0), beats[:idx.size]
            ws, moved, cap = ws.narrowed(lab), moved[:, :idx.size], _cap(idx.size)
            # The new iterate and the current one, now a step back, gathered; new scratch between.
            its = [_views(a.view(np.float64).reshape(idx.size, d), rec)
                   for a in (its[0][1].take(idx), np.empty(idx.size, rec), its[2][1].take(idx))]
        if rows is not None:
            _put_back(whole, own, rows)
    except FloatingPointError:
        raise NumericalError(f"PGD made a NaN at restart {r}, step {t} (alpha {config.alpha}): the "
                             "model's logits or their scaled gradients left float64 range") from None


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
    Rows that have settled are not computed again, and a small batch's
    restarts share its passes (see the module docstring); every output has
    the bits of the run that computes each restart alone on the whole batch.
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
    # A pass computes _padded(n) rows. A batch of at most half of them stacks G
    # restarts, restart-major, into one pass; a larger one runs them one by one.
    G = min(R, _padded(n) // n) if n else 1
    # The stacked rows' points, labels and bounds, restart-major: G copies of the run's.
    gx0, glab, glo, ghi = [a if G == 1 else np.concatenate([a] * G) for a in (x0d, lab, lo, hi)]
    ws = _Workspace.for_batch(model.config.layer_sizes, glab)
    ws.acts[0][n:] = 0.0  # the natural pass's padding, the stacked restarts' rows included
    natural_correct = _forward(model, x0d, ws.acts, ws.act_blocks, ws.tiles_of(model)).argmax(axis=1) == lab
    # Restart-major, so that a group's trace is one (g n, T + 1) block; returned (n, R, T + 1).
    trace = np.zeros((R, n, T + 1), dtype=bool)
    rec = np.dtype(f"V{8 * d}")  # (void, 8 d bytes): one row of x
    beats = np.empty(n, dtype=bool)
    # The first group's trajectories, as records; the first restart's are its first n rows.
    traj = _records(np.empty((G * n, T + 1, d)), rec) if friendly_slack is not None else None

    # A large alpha drives the scaled losses to +inf, a limit the max-loss search compares
    # correctly; a NaN, which it cannot compare, is refused at the pass that made it.
    with np.errstate(over="ignore", invalid="raise"):
        for r in range(0, R, G):
            g = min(G, R - r)
            m = g * n
            u = rng.uniform(-eps, eps, size=(m, d)) if config.random_start else None  # g draws of (n, d)
            group = _Rows.fresh(trace[r:r + g].reshape(m, T + 1), traj if r == 0 else None, rec)
            try:
                _climb(model, config, _starts(gx0[:m], glo[:m], ghi[:m], u), glab[:m], glo[:m], ghi[:m],
                       ws if g == G else ws.narrowed(glab[:m]), group, r)
            except NumericalError:
                if g == 1:  # the error names this restart's own pass
                    raise
                # Rerun the group's restarts one at a time, so that the error names
                # the restart and step at which one restart per pass stops.
                for k in range(g):
                    part = slice(k * n, (k + 1) * n)
                    _climb(model, config, _starts(x0d, lo, hi, None if u is None else u[part]), lab, lo, hi,
                           ws.narrowed(lab), _Rows.fresh(np.empty((n, T + 1), dtype=bool), None, rec), r + k)
                raise
            if r == 0:
                # The run's max-loss search is the first restart's, into which the later
                # ones fold. The forward pass is batch-invariant, so correctness recorded
                # at the best iterate is what predict on the returned points gives.
                best = _Rows(group.loss[:n], group.x[:n], group.correct[:n], None, None)
            for k in range(r == 0, g):  # in restart order, as `_keep_better` asks
                part = slice(k * n, (k + 1) * n)
                _keep_better(best, group.loss[part], group.x[part], group.correct[part], beats)
    ws.give_back()
    best_x = best.x.view(np.float64).reshape(n, d)

    wrong = ~trace[0]
    friendly = None
    if traj is not None:
        chosen = np.minimum(wrong.argmax(axis=1) + int(friendly_slack), T)
        friendly = best.x.copy()
        idx = np.nonzero(wrong.any(axis=1))[0]
        friendly[idx] = traj[idx, chosen[idx]]
        friendly = Tensor._wrap(friendly.view(np.float64).reshape(n, d))
    # kappa counts from the natural point regardless of random starts, then follows the first
    # restart's iterates: the first wrong column, with column T read as wrong, so that a row that
    # never flips gets T.
    np.logical_not(natural_correct, out=wrong[:, 0])
    wrong[:, T] = True
    return AttackResult(
        adversarial=Tensor._wrap(best_x),
        kappa=wrong.argmax(axis=1).astype(np.int64, copy=False),
        correct_trace=trace.transpose(1, 0, 2),
        natural_correct=natural_correct,
        final_correct=best.correct,
        friendly=friendly,
    )


def brute_force_attack(
    model: MlpParams,
    x0: np.ndarray,
    y: int,
    epsilon: float,
    grid_resolution: int,
    *,
    domain: DomainBox | None = None,
) -> bool:
    """Exhaustive grid check of one low-dimensional point, `x0`, an array of its d coordinates.

    Evaluates predict on the full G^d grid over the epsilon-ball clamped
    into the domain box (the ball `pgd_attack` walks), corners included;
    robust-correct iff correct at every grid point. Independent of any gradient machinery, so it serves as an
    oracle that PGD verdicts can be checked against.
    """
    point = np.asarray(x0, dtype=np.float64).reshape(-1)
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
