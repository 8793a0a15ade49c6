"""Command-line entry point wiring the lab end to end.

Subcommands: gen-data, train, attack, eval, sweep, oracle-check, report.
Exit codes: 0 success, 1 usage error, 2 data/config error. Every run prints
its fully resolved configuration as `# key = value` lines so results can be
reproduced from the log alone. Values may come from an INI-style experiment
config file (sections [data], [train], [attack.<name>], [sweep]); explicit
command-line flags always win. If ROBUSTLAB_OUT is set, relative output
paths land inside it.
"""
from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .attacks import ATTACK_PRESETS, AttackConfig, brute_force_attack, pgd_attack
from .datasets import Dataset, gen_gaussian_blobs, gen_rings, gen_two_moons, load_csv, save_csv
from .errors import ConfigError, ParameterError, RobustlabError
from .evaluate import (
    EvalReport,
    ReportRow,
    SweepConfig,
    alpha_sweep,
    dataset_sha256,
    eval_natural,
    eval_robust,
    file_sha256,
    read_report,
    write_report,
)
from .model import MlpConfig, load_checkpoint, save_checkpoint
from .tensor import Tensor
from .training import TrainConfig, train, write_history

_USAGE_ERROR, _DATA_ERROR = 1, 2


def _out_path(p: str) -> Path:
    base = os.environ.get("ROBUSTLAB_OUT")
    path = Path(p)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _load_ini(path: str | None) -> configparser.ConfigParser:
    ini = configparser.ConfigParser()
    if path:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            ini.read(path)
        except configparser.Error as e:
            raise ConfigError(f"bad config file {path}: {e}") from None
    return ini


def _resolve(args_value, ini: configparser.ConfigParser, section: str, key: str, default=None, cast=str):
    """CLI flag > config file entry > built-in default."""
    if args_value is not None:
        return args_value
    if ini.has_option(section, key):
        try:
            return cast(ini.get(section, key))
        except (ValueError, configparser.Error) as e:
            raise ConfigError(f"bad value for [{section}] {key}: {e}") from None
    return default


def _print_resolved(pairs: dict[str, object]) -> None:
    for key, value in pairs.items():
        print(f"# {key} = {value}")


def _numbers(text: str, sep: str, what: str) -> list[float]:
    """Floats separated by `sep`; a malformed one is a ParameterError."""
    try:
        return [float(v) for v in text.split(sep)]
    except ValueError:
        raise ParameterError(f"{what} must be numbers separated by {sep!r}, got {text!r}") from None


def _parse_alpha_grid(text: str) -> tuple[float, ...]:
    """Either 'lo:hi:count' (log-spaced) or a comma list of scales."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParameterError(f"alpha grid must be lo:hi:count, got {text!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ParameterError(f"alpha grid must be lo:hi:count with an integer count, got {text!r}") from None
        if lo <= 0 or hi <= lo or count < 1:
            raise ParameterError(f"bad alpha grid bounds {text!r}")
        return tuple(float(a) for a in np.logspace(np.log10(lo), np.log10(hi), count))
    return tuple(_numbers(text, ",", "alpha grid"))


def _attack_from_args(args, ini) -> tuple[str, AttackConfig]:
    name = _resolve(args.attack, ini, "sweep", "attack", "pgd20")
    if name not in ATTACK_PRESETS:
        raise ConfigError(f"unknown attack preset {name!r}; expected one of {sorted(ATTACK_PRESETS)}")
    section = f"attack.{name}"
    eps = _resolve(args.eps, ini, section, "epsilon", 0.031, float)
    cfg = ATTACK_PRESETS[name](epsilon=eps)
    # Per-field overrides: config file first, then explicit flags.
    updates = {}
    for field_name, cast in (("steps", int), ("step_size", float), ("restarts", int), ("alpha", float)):
        file_val = _resolve(None, ini, section, field_name, None, cast)
        if file_val is not None:
            updates[field_name] = file_val
    for field_name in ("steps", "step_size", "restarts", "alpha"):
        flag_val = getattr(args, field_name, None)
        if flag_val is not None:
            updates[field_name] = flag_val
    if updates:
        cfg = replace(cfg, **updates)
    return name, cfg


def _default_verdict(attack_name: str) -> str:
    return "all_iterates" if attack_name == "pgdplus" else "best_iterate"


def cmd_gen_data(args) -> int:
    ini = _load_ini(args.config)
    kind = _resolve(args.kind, ini, "data", "kind", "two-moons")
    n = _resolve(args.n, ini, "data", "n", 1000, int)
    seed = _resolve(args.seed, ini, "data", "seed", 0, int)
    noise = _resolve(args.noise, ini, "data", "noise", 0.1, float)
    out = _resolve(args.out, ini, "data", "out")
    if out is None:
        raise ConfigError("gen-data needs --out")
    if kind == "two-moons":
        ds = gen_two_moons(n, noise, seed)
    elif kind == "blobs":
        centers_text = _resolve(args.centers, ini, "data", "centers", "0.25:0.25;0.75:0.75")
        centers = [_numbers(c, ":", "blob center coordinates") for c in centers_text.split(";")]
        ds = gen_gaussian_blobs(n, centers, noise, seed)
    elif kind == "rings":
        radii_text = _resolve(args.radii, ini, "data", "radii", "0.5:1.0")
        r = tuple(_numbers(radii_text, ":", "radii"))
        if len(r) != 2:
            raise ConfigError(f"radii must be inner:outer, got {radii_text!r}")
        ds = gen_rings(n, r, noise, seed)
    else:
        raise ConfigError(f"unknown data kind {kind!r}")
    path = _out_path(out)
    save_csv(ds, path)
    _print_resolved({"kind": kind, "n": n, "seed": seed, "noise": noise, "out": path})
    print(f"wrote {len(ds)} points to {path}")
    return 0


def cmd_train(args) -> int:
    ini = _load_ini(args.config)
    data_path = _resolve(args.data, ini, "train", "data")
    out = _resolve(args.out, ini, "train", "out")
    if data_path is None or out is None:
        raise ConfigError("train needs --data and --out")
    dataset = load_csv(data_path)

    method = _resolve(args.method, ini, "train", "method", "at")
    epochs = _resolve(args.epochs, ini, "train", "epochs", 20, int)
    batch_size = _resolve(args.batch_size, ini, "train", "batch_size", 64, int)
    lr = _resolve(args.lr, ini, "train", "learning_rate", 0.1, float)
    seed = _resolve(args.seed, ini, "train", "seed", 0, int)
    hidden = _resolve(args.hidden, ini, "train", "hidden", "32,32")
    act = _resolve(args.activation, ini, "train", "activation", "relu")
    eps = _resolve(args.eps, ini, "train", "epsilon", 0.031, float)
    inner_steps = _resolve(args.inner_steps, ini, "train", "inner_steps", 10, int)
    inner_step_size = _resolve(args.inner_step_size, ini, "train", "inner_step_size", eps / 4, float)
    burn_in = _resolve(args.burn_in, ini, "train", "burn_in", None, int)
    if burn_in is None:
        burn_in = int(round(0.3 * epochs))  # default bootstrap: 30% of epochs
    omega_lambda = _resolve(args.omega_lambda, ini, "train", "omega_lambda", 0.0, float)
    fat_slack = _resolve(args.fat_slack, ini, "train", "fat_slack", 0, int)

    try:
        widths = tuple(int(h) for h in hidden.split(",") if h)
    except ValueError:
        raise ParameterError(f"hidden must be comma-separated layer widths, got {hidden!r}") from None
    layer_sizes = (dataset.dim, *widths, dataset.num_classes)
    model_config = MlpConfig(layer_sizes=layer_sizes, activation=act, init_seed=seed)
    inner = None
    if method != "erm":
        inner = AttackConfig(
            epsilon=eps, steps=inner_steps, step_size=inner_step_size,
            restarts=1, alpha=1.0, random_start=True, clip_to_domain=True,
        )
    train_config = TrainConfig(
        method=method, epochs=epochs, batch_size=batch_size, learning_rate=lr,
        seed=seed, inner_attack=inner, burn_in_epochs=burn_in if method == "gairat" else 0,
        omega_lambda=omega_lambda if method == "gairat" else None, fat_slack=fat_slack,
    )
    resolved = {
        "method": method, "data": data_path, "epochs": epochs, "batch_size": batch_size,
        "learning_rate": lr, "seed": seed, "layer_sizes": ",".join(map(str, layer_sizes)),
        "activation": act, "epsilon": eps, "inner_steps": inner_steps,
        "inner_step_size": inner_step_size, "burn_in": train_config.burn_in_epochs,
        "omega_lambda": omega_lambda, "fat_slack": fat_slack,
    }
    _print_resolved(resolved)

    params, history = train(model_config, dataset, train_config)
    ckpt_path = _out_path(out)
    metadata = {
        "method": method, "seed": str(seed), "epochs": str(epochs),
        "dataset_sha256": dataset_sha256(dataset),
    }
    save_checkpoint(params, metadata, ckpt_path)
    print(f"wrote checkpoint {ckpt_path}")
    hist_path = _out_path(args.history) if args.history else ckpt_path.with_suffix(".history.csv")
    write_history(history, hist_path, comments={k: str(v) for k, v in resolved.items()})
    print(f"wrote history {hist_path}")
    if len(history):
        last = history.records[-1]
        print(f"final epoch {last.epoch}: loss {last.mean_loss:.6f}, nat_acc {last.natural_accuracy:.4f}")
    return 0


def cmd_attack(args) -> int:
    ini = _load_ini(args.config)
    ckpt = load_checkpoint(args.model)
    dataset = load_csv(args.data)
    name, cfg = _attack_from_args(args, ini)
    seed = args.seed if args.seed is not None else 0
    result = pgd_attack(ckpt.params, dataset.points, dataset.labels, cfg,
                        domain=dataset.domain, seed=seed)
    nat = eval_natural(ckpt.params, dataset)
    rob = float(np.mean(result.final_correct))
    _print_resolved({"model": args.model, "data": args.data, "attack": name,
                     "seed": seed, **dict(kv.split(" = ") for kv in cfg.to_kv().splitlines())})
    print(f"natural_accuracy = {nat:.6f}")
    print(f"robust_accuracy(best_iterate) = {rob:.6f}")
    if args.out_adv:
        adv = Dataset(
            points=result.adversarial, labels=dataset.labels, domain=dataset.domain,
            num_classes=dataset.num_classes,
            meta={**dataset.meta, "adversarial_of": str(args.data), "attack": cfg.to_kv(sep="; ")},
        )
        adv_path = _out_path(args.out_adv)
        save_csv(adv, adv_path)
        print(f"wrote adversarial points {adv_path}")
    return 0


def cmd_eval(args) -> int:
    ini = _load_ini(args.config)
    ckpt = load_checkpoint(args.model)
    dataset = load_csv(args.data)
    name, cfg = _attack_from_args(args, ini)
    verdict = args.verdict or _default_verdict(name)
    seed = args.seed if args.seed is not None else 0
    nat = eval_natural(ckpt.params, dataset)
    rob = eval_robust(ckpt.params, dataset, cfg, verdict, seed=seed)
    _print_resolved({"model": args.model, "data": args.data, "attack": name,
                     "verdict": verdict, "seed": seed})
    print(f"natural_accuracy = {nat:.6f}")
    print(f"robust_accuracy({name},{verdict}) = {rob:.6f}")
    if args.out:
        report = EvalReport(
            model_id=str(args.model), checkpoint_hash=file_sha256(args.model),
            dataset_id=str(args.data), dataset_seed=dataset.meta.get("seed", ""),
            natural_accuracy=nat,
            rows=(ReportRow(attack=name, alpha=cfg.alpha, robust_accuracy=rob, n=len(dataset)),),
            extra=(("verdict." + name, verdict), ("seed", str(seed)),
                   ("dataset_sha256", dataset_sha256(dataset)),
                   ("attack." + name, cfg.to_kv(sep=" "))),
        )
        out = _out_path(args.out)
        write_report(report, out)
        print(f"wrote report {out}")
    return 0


def cmd_sweep(args) -> int:
    ini = _load_ini(args.config)
    ckpt = load_checkpoint(args.model)
    dataset = load_csv(args.data)
    name, cfg = _attack_from_args(args, ini)
    verdict = args.verdict or _default_verdict(name)
    seed = args.seed if args.seed is not None else 0
    grid_text = _resolve(args.alpha_grid, ini, "sweep", "alpha_grid", None)
    sweep_cfg = SweepConfig(base_attack=cfg) if grid_text is None else SweepConfig(
        base_attack=cfg, alpha_grid=_parse_alpha_grid(grid_text)
    )
    _print_resolved({"model": args.model, "data": args.data, "attack": name,
                     "verdict": verdict, "seed": seed,
                     "alpha_grid": ",".join(format(a, ".6g") for a in sweep_cfg.alpha_grid)})
    report = alpha_sweep(
        ckpt.params, dataset, sweep_cfg, verdict,
        attack_name=name, seed=seed, model_id=str(args.model),
        checkpoint_hash=file_sha256(args.model), dataset_id=str(args.data),
    )
    for row in report.rows:
        print(f"alpha={row.alpha:<10.6g} robust_accuracy={row.robust_accuracy:.6f}")
    worst = report.worst_alpha_for(name)
    print(f"worst_alpha({name}) = {worst:.6g}")
    at_one = report.accuracy_at(name, 1.0)
    if at_one is not None:
        worst_acc = min(r.robust_accuracy for r in report.rows)
        print(f"accuracy_gap(alpha=1 minus worst) = {at_one - worst_acc:.6f}")
    if args.out:
        out = _out_path(args.out)
        write_report(report, out)
        print(f"wrote report {out}")
    return 0


def cmd_oracle_check(args) -> int:
    ckpt = load_checkpoint(args.model)
    dataset = load_csv(args.data)
    eps = args.eps if args.eps is not None else 0.1
    grid = args.grid if args.grid is not None else 51
    limit = min(args.limit if args.limit is not None else 20, len(dataset))
    seed = args.seed if args.seed is not None else 0
    attack = AttackConfig(epsilon=eps, steps=50, step_size=eps / 10, restarts=5,
                          random_start=True, clip_to_domain=True)
    _print_resolved({"model": args.model, "data": args.data, "epsilon": eps,
                     "grid": grid, "limit": limit, "seed": seed})
    violations = 0
    for i in range(limit):
        x = Tensor._wrap(dataset.points.data[i:i + 1].copy())
        y = int(dataset.labels[i])
        res = pgd_attack(ckpt.params, x, np.array([y]), attack, domain=dataset.domain, seed=seed + i)
        pgd_found_flip = bool((~res.correct_trace).any() or not res.natural_correct[0])
        bf_ok = brute_force_attack(ckpt.params, dataset.points.data[i], y, eps, grid,
                                   domain=dataset.domain)
        status = "ok"
        if pgd_found_flip and bf_ok:
            status = "VIOLATION"
            violations += 1
        print(f"point {i}: pgd_flip={pgd_found_flip} brute_force_robust={bf_ok} {status}")
    print(f"violations = {violations} / {limit}")
    return 0 if violations == 0 else _DATA_ERROR


def cmd_report(args) -> int:
    report = read_report(args.infile)
    print(f"model = {report.model_id} (sha256 {report.checkpoint_hash[:12]})")
    print(f"dataset = {report.dataset_id} (seed {report.dataset_seed})")
    print(f"natural_accuracy = {report.natural_accuracy:.6f}")
    for row in report.rows:
        print(f"{row.attack:<8} alpha={row.alpha:<10.6g} robust_accuracy={row.robust_accuracy:.6f} n={row.n}")
    for name, alpha in report.worst_alpha:
        print(f"worst_alpha({name}) = {alpha:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robustlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    p.add_argument("--kind", choices=["two-moons", "blobs", "rings"])
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--noise", type=float, help="noise sigma (blobs: cluster sigma)")
    p.add_argument("--centers", help="blobs centers, e.g. 0.25:0.25;0.75:0.75")
    p.add_argument("--radii", help="rings radii, e.g. 0.5:1.0")
    p.add_argument("--out")
    p.add_argument("--config", help="experiment config file (INI)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--data")
    p.add_argument("--method", choices=["erm", "at", "fat", "gairat"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden", help="hidden widths, e.g. 32,32")
    p.add_argument("--activation", choices=["relu", "tanh"])
    p.add_argument("--eps", type=float)
    p.add_argument("--inner-steps", dest="inner_steps", type=int)
    p.add_argument("--inner-step-size", dest="inner_step_size", type=float)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--omega-lambda", dest="omega_lambda", type=float)
    p.add_argument("--fat-slack", dest="fat_slack", type=int)
    p.add_argument("--out")
    p.add_argument("--history", help="history CSV path (default: <out>.history.csv)")
    p.add_argument("--config")
    p.set_defaults(func=cmd_train)

    def add_attack_flags(p):
        p.add_argument("--attack", choices=sorted(ATTACK_PRESETS))
        p.add_argument("--eps", type=float)
        p.add_argument("--steps", type=int)
        p.add_argument("--step-size", dest="step_size", type=float)
        p.add_argument("--restarts", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--config")

    p = sub.add_parser("attack", help="run one attack, report accuracy, optionally dump points")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    add_attack_flags(p)
    p.add_argument("--out-adv", dest="out_adv")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("eval", help="natural + robust accuracy under one attack")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    add_attack_flags(p)
    p.add_argument("--verdict", choices=["best_iterate", "all_iterates"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="robust accuracy across a logit-scale grid")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    add_attack_flags(p)
    p.add_argument("--verdict", choices=["best_iterate", "all_iterates"])
    p.add_argument("--alpha-grid", dest="alpha_grid", help="lo:hi:count (log-spaced) or comma list")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-check", help="cross-check PGD against the exhaustive grid oracle")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--grid", type=int)
    p.add_argument("--limit", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("report", help="pretty-print a report CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse already printed usage/help
        return 0 if e.code in (0, None) else _USAGE_ERROR
    try:
        return args.func(args)
    except RobustlabError as e:
        print(f"error: {e}", file=sys.stderr)
        return _DATA_ERROR
    except (OSError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
