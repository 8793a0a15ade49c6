"""Command-line entry point wiring the lab end to end.

Subcommands: gen-data, train, attack, eval, sweep, oracle-check, report.
Exit codes: 0 success, 1 usage error, 2 data/config error. Every run prints
its fully resolved configuration as `# key = value` lines so results can be
reproduced from the log alone. Values may come from an INI-style experiment
config file (sections [data], [train], [attack.<name>], [sweep]); explicit
command-line flags always win, and a section no command reads, or a key
its section does not define, is refused. If ROBUSTLAB_OUT is set, relative
output paths land inside it.
"""
from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .attacks import ATTACK_PRESETS, AttackConfig, _check_grid, brute_force_attack, pgd_attack
from .datasets import Dataset, gen_gaussian_blobs, gen_rings, gen_two_moons, load_csv, save_csv
from .errors import ConfigError, ParameterError, RobustlabError, check_at_least, check_seed, check_size
from .evaluate import VERDICTS, SweepConfig, alpha_sweep, dataset_sha256, file_sha256, read_report, write_report
from .model import MlpConfig, load_checkpoint, save_checkpoint
from .tensor import ACTIVATION_KINDS, Tensor
from .textfile import comment_line
from .training import TRAIN_METHODS, TrainConfig, _check_fit, train, write_history

_USAGE_ERROR, _DATA_ERROR = 1, 2


def _redirect(p: str) -> Path:
    base = os.environ.get("ROBUSTLAB_OUT")
    path = Path(p)
    return Path(base) / path if base and not path.is_absolute() else path


def _out_path(p: str) -> Path:
    path = _redirect(p)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _check_distinct(reads: dict[str, str | None], writes: dict[str, Path | None]) -> None:
    """Refuse a written path (as `_redirect` gives it) that is a directory, lies under a
    file, or resolves to a file the command reads or writes in another role. Empty and
    None paths are not given. Every writing command calls this before any work."""
    written = {role: path for role, path in writes.items() if path is not None}
    for role, path in written.items():
        if path.is_dir():
            raise ConfigError(f"{role} path {path} is a directory")
        for parent in path.parents:
            if parent.exists() and not parent.is_dir():
                raise ConfigError(f"{role} path {path}: {parent} is not a directory")
    files = {role: Path(p) for role, p in reads.items() if p} | written
    for (role, path), (other, other_path) in combinations(files.items(), 2):
        if other in writes and path.resolve() == other_path.resolve():
            raise ConfigError(f"{role} and {other} paths name the same file {path}")


class _Setting(NamedTuple):
    flag: str
    type: Callable[[str], object] = str
    default: object = None
    help: str = ""
    choices: tuple[str, ...] | None = None


# Every INI-backed setting, once, by INI section. The key is both the INI key
# and the argparse dest; INI text is cast with the same `type` as the flag.
# `[attack.<preset>]` is read with the "attack" entries. A None default is
# one the command works out (from other settings, or the preset's own) or,
# for the data and output paths, one it requires.
_SETTINGS: dict[str, dict[str, _Setting]] = {
    "data": {
        "kind": _Setting("--kind", default="two-moons", choices=("two-moons", "blobs", "rings")),
        "n": _Setting("--n", int, 1000),
        "seed": _Setting("--seed", int, 0),
        "noise": _Setting("--noise", float, 0.1, "noise sigma (blobs: cluster sigma)"),
        "centers": _Setting("--centers", str, "0.25:0.25;0.75:0.75", "blobs centers"),
        "radii": _Setting("--radii", str, "0.5:1.0", "rings radii, inner:outer"),
        "out": _Setting("--out", help="dataset CSV path"),
    },
    "train": {
        "data": _Setting("--data", help="dataset CSV path"),
        "method": _Setting("--method", default="at", choices=TRAIN_METHODS),
        "epochs": _Setting("--epochs", int, 20),
        "batch_size": _Setting("--batch-size", int, 64),
        "learning_rate": _Setting("--lr", float, 0.1),
        "seed": _Setting("--seed", int, 0),
        "hidden": _Setting("--hidden", str, "32,32", "hidden widths"),
        "activation": _Setting("--activation", default="relu", choices=ACTIVATION_KINDS),
        "epsilon": _Setting("--eps", float, 0.031),
        "inner_steps": _Setting("--inner-steps", int, 10),
        "inner_step_size": _Setting("--inner-step-size", float, help="default epsilon / 4"),
        "burn_in": _Setting("--burn-in", int, help="gairat bootstrap epochs; default round(0.3 * epochs)"),
        "omega_lambda": _Setting("--omega-lambda", float, 0.0),
        "fat_slack": _Setting("--fat-slack", int, 0),
        "out": _Setting("--out", help="checkpoint path"),
    },
    "sweep": {
        "attack": _Setting("--attack", default="pgd20", choices=tuple(sorted(ATTACK_PRESETS))),
        "alpha_grid": _Setting("--alpha-grid", help="lo:hi:count (log-spaced) or comma list"),
    },
    "attack": {
        "epsilon": _Setting("--eps", float, 0.031),
        "steps": _Setting("--steps", int, help="default the preset's"),
        "step_size": _Setting("--step-size", float, help="default the preset's"),
        "restarts": _Setting("--restarts", int, help="default the preset's"),
        "alpha": _Setting("--alpha", float, help="logit scale; default the preset's"),
    },
}


def _add_flags(p: argparse.ArgumentParser, table: str, keys=None) -> None:
    """Register the flags of `_SETTINGS[table]` (or of `keys` only); help names the INI key."""
    section = "attack.<preset>" if table == "attack" else table
    for key, s in _SETTINGS[table].items():
        if keys is None or key in keys:
            default = None if s.default is None else f"default {s.default}"
            p.add_argument(s.flag, dest=key, type=s.type, choices=s.choices,
                           help="; ".join(filter(None, (s.help, default, f"INI [{section}] {key}"))))


def _load_ini(path: str | None) -> configparser.ConfigParser:
    ini = configparser.ConfigParser()
    if path:
        try:
            with open(path, encoding="utf-8") as f:
                ini.read_file(f)
        except (OSError, UnicodeDecodeError, configparser.Error) as e:
            raise ConfigError(f"bad config file {path}: {' '.join(str(e).split())}") from None
    # A section or [DEFAULT] key that no command reads is a misspelling, not a no-op.
    known = ("data", "train", "sweep", *(f"attack.{name}" for name in ATTACK_PRESETS), "DEFAULT")
    for section in ini.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}] in {path}; known sections: {', '.join(known)}")
    keys = {key for table in _SETTINGS.values() for key in table}
    unknown = sorted(set(ini.defaults()) - keys)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in [DEFAULT]; known keys: {', '.join(sorted(keys))}")
    return ini


def _settings(args, ini: configparser.ConfigParser, section: str, table: str | None = None):
    """Each setting of `_SETTINGS[table or section]`: flag > `[section]` entry > default.

    Every entry written in `[section]` is cast and checked, even under a
    flag; a key the table lacks is refused. Keys that `[section]` only
    inherits from `[DEFAULT]` are not checked here; `_load_ini` refuses
    those that no table defines.
    """
    settings = _SETTINGS[table or section]
    if ini.has_section(section):
        unknown = sorted(set(ini.options(section)) - set(ini.defaults()) - set(settings))
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in [{section}]; known keys: {', '.join(settings)}")
    resolved = argparse.Namespace()
    for key, s in settings.items():
        value = s.default
        if ini.has_option(section, key):
            try:
                value = s.type(ini.get(section, key))
            except (ValueError, configparser.Error) as e:
                raise ConfigError(f"bad value for [{section}] {key}: {e}") from None
            if s.choices and value not in s.choices:
                raise ConfigError(f"bad value for [{section}] {key}: {value!r} is not one of {', '.join(s.choices)}")
        flag = getattr(args, key, None)
        setattr(resolved, key, value if flag is None else flag)
    return resolved


def _print_resolved(pairs: dict[str, object]) -> None:
    for key, value in pairs.items():
        print(comment_line(key, value))


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
        if not 0 < lo < hi < np.inf or count < 1:  # NaN fails every comparison
            raise ParameterError(f"bad alpha grid bounds {text!r}")
        check_size(count, f"alpha grid count {count} gives a grid")
        return tuple(float(a) for a in np.logspace(np.log10(lo), np.log10(hi), count))
    return tuple(_numbers(text, ",", "alpha grid"))


def _attack_setup(args, role: str, out: str | None):
    """What attack, eval and sweep share: the checkpoint, the dataset, the preset's
    name, the attack (the preset, then `[attack.<preset>]` and flags over its
    fields), the seed and the alpha grid text of `[sweep]`. First it refuses
    an output path `out`, written as `role`, that is a directory or names a file
    the command reads, then a dataset the model does not fit.
    """
    _check_distinct({"data": args.data, "model": args.model, "config": args.config},
                    {role: _redirect(out) if out else None})
    ini = _load_ini(args.config)
    ckpt = load_checkpoint(args.model)
    dataset = load_csv(args.data)
    _check_fit(ckpt.params.config, dataset)
    sweep = _settings(args, ini, "sweep")
    fields = vars(_settings(args, ini, f"attack.{sweep.attack}", "attack"))
    cfg = ATTACK_PRESETS[sweep.attack](epsilon=fields.pop("epsilon"))
    cfg = replace(cfg, **{k: v for k, v in fields.items() if v is not None})
    return ckpt, dataset, sweep.attack, cfg, check_seed(args.seed), sweep.alpha_grid


def _default_verdict(attack_name: str) -> str:
    return "all_iterates" if attack_name == "pgdplus" else "best_iterate"


def cmd_gen_data(args) -> int:
    d = _settings(args, _load_ini(args.config), "data")
    seed = check_seed(d.seed)
    if d.out is None:
        raise ConfigError("gen-data needs --out")
    _check_distinct({"config": args.config}, {"dataset": _redirect(d.out)})
    if d.kind == "two-moons":
        ds = gen_two_moons(d.n, d.noise, seed)
    elif d.kind == "blobs":
        centers = [_numbers(c, ":", "blob center coordinates") for c in d.centers.split(";")]
        ds = gen_gaussian_blobs(d.n, centers, d.noise, seed)
    else:
        r = tuple(_numbers(d.radii, ":", "radii"))
        if len(r) != 2:
            raise ConfigError(f"radii must be inner:outer, got {d.radii!r}")
        ds = gen_rings(d.n, r, d.noise, seed)
    path = _out_path(d.out)
    save_csv(ds, path)
    _print_resolved({"kind": d.kind, "n": d.n, "seed": seed, "noise": d.noise, "out": path})
    print(f"wrote {len(ds)} points to {path}")
    return 0


def cmd_train(args) -> int:
    t = _settings(args, _load_ini(args.config), "train")
    if t.data is None or t.out is None:
        raise ConfigError("train needs --data and --out")
    ckpt_path = _redirect(t.out)
    # The stem, unlike with_suffix, also gives "." a history name, so _check_distinct can refuse "." as a directory.
    hist_path = _redirect(args.history) if args.history else ckpt_path.parent / f"{ckpt_path.stem}.history.csv"
    _check_distinct({"data": t.data, "config": args.config}, {"checkpoint": ckpt_path, "history": hist_path})
    dataset = load_csv(t.data)
    seed = check_seed(t.seed)
    inner_step_size = t.epsilon / 4 if t.inner_step_size is None else t.inner_step_size
    burn_in = int(round(0.3 * t.epochs)) if t.burn_in is None else t.burn_in  # default bootstrap: 30% of epochs
    try:
        widths = tuple(int(h) for h in t.hidden.split(",") if h)
    except ValueError:
        raise ParameterError(f"hidden must be comma-separated layer widths, got {t.hidden!r}") from None
    layer_sizes = (dataset.dim, *widths, dataset.num_classes)
    model_config = MlpConfig(layer_sizes=layer_sizes, activation=t.activation, init_seed=seed)
    inner = None
    if t.method != "erm":
        inner = AttackConfig(
            epsilon=t.epsilon, steps=t.inner_steps, step_size=inner_step_size,
            restarts=1, alpha=1.0, random_start=True, clip_to_domain=True,
        )
    train_config = TrainConfig(
        method=t.method, epochs=t.epochs, batch_size=t.batch_size, learning_rate=t.learning_rate,
        seed=seed, inner_attack=inner, burn_in_epochs=burn_in if t.method == "gairat" else 0,
        omega_lambda=t.omega_lambda if t.method == "gairat" else None, fat_slack=t.fat_slack,
    )
    resolved = {
        "method": t.method, "data": t.data, "epochs": t.epochs, "batch_size": t.batch_size,
        "learning_rate": t.learning_rate, "seed": seed, "layer_sizes": ",".join(map(str, layer_sizes)),
        "activation": t.activation, "epsilon": t.epsilon, "inner_steps": t.inner_steps,
        "inner_step_size": inner_step_size, "burn_in": train_config.burn_in_epochs,
        "omega_lambda": t.omega_lambda, "fat_slack": t.fat_slack,
    }
    _print_resolved(resolved)

    params, history = train(model_config, dataset, train_config)
    metadata = {
        "method": t.method, "seed": str(seed), "epochs": str(t.epochs),
        "dataset_sha256": dataset_sha256(dataset),
    }
    for path in (ckpt_path, hist_path):
        path.parent.mkdir(parents=True, exist_ok=True)
    # The history, whose comments its writer may refuse, goes first.
    write_history(history, hist_path, comments={k: str(v) for k, v in resolved.items()})
    save_checkpoint(params, metadata, ckpt_path)
    print(f"wrote checkpoint {ckpt_path}")
    print(f"wrote history {hist_path}")
    if len(history):
        last = history.records[-1]
        print(f"final epoch {last.epoch}: loss {last.mean_loss:.6f}, nat_acc {last.natural_accuracy:.4f}")
    return 0


def cmd_attack(args) -> int:
    ckpt, dataset, name, cfg, seed, _ = _attack_setup(args, "adversarial", args.out_adv)
    result = pgd_attack(ckpt.params, dataset.points, dataset.labels, cfg,
                        domain=dataset.domain, seed=seed)
    nat = float(np.mean(result.natural_correct))
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
    ckpt, dataset, name, cfg, seed, _ = _attack_setup(args, "report", args.out)
    verdict = args.verdict or _default_verdict(name)
    # The report is the one-cell sweep at the attack's own alpha, less the sweep's worst-alpha line.
    report = replace(alpha_sweep(
        ckpt.params, dataset, SweepConfig(cfg, (cfg.alpha,)), verdict, attack_name=name, seed=seed,
        model_id=str(args.model), checkpoint_hash=file_sha256(args.model), dataset_id=str(args.data),
    ), worst_alpha=())
    _print_resolved({"model": args.model, "data": args.data, "attack": name,
                     "verdict": verdict, "seed": seed})
    print(f"natural_accuracy = {report.natural_accuracy:.6f}")
    print(f"robust_accuracy({name},{verdict}) = {report.rows[0].robust_accuracy:.6f}")
    if args.out:
        out = _out_path(args.out)
        write_report(report, out)
        print(f"wrote report {out}")
    return 0


def cmd_sweep(args) -> int:
    ckpt, dataset, name, cfg, seed, grid_text = _attack_setup(args, "report", args.out)
    verdict = args.verdict or _default_verdict(name)
    grid = {} if grid_text is None else {"alpha_grid": _parse_alpha_grid(grid_text)}
    sweep_cfg = SweepConfig(base_attack=cfg, **grid)
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
    check_at_least(args.limit, 0, "--limit")
    _check_grid(dataset.dim, args.grid)  # before the first PGD run, whatever the limit
    _check_fit(ckpt.params.config, dataset)
    limit = min(args.limit, len(dataset))
    seed = check_seed(args.seed)
    attack = AttackConfig(epsilon=args.eps, steps=50, step_size=args.eps / 10, restarts=5,
                          random_start=True, clip_to_domain=True)
    _print_resolved({"model": args.model, "data": args.data, "epsilon": args.eps,
                     "grid": args.grid, "limit": limit, "seed": seed})
    violations = 0
    for i in range(limit):
        x = Tensor._wrap(dataset.points.data[i:i + 1].copy())
        y = int(dataset.labels[i])
        res = pgd_attack(ckpt.params, x, np.array([y]), attack, domain=dataset.domain, seed=seed + i)
        pgd_found_flip = bool((~res.correct_trace).any() or not res.natural_correct[0])
        bf_ok = brute_force_attack(ckpt.params, dataset.points.data[i], y, args.eps, args.grid,
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
    config_help = "experiment config file (INI); flags win over its entries"

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    _add_flags(p, "data")
    p.add_argument("--config", help=config_help)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_flags(p, "train")
    p.add_argument("--history", help="history CSV path (default: <out>.history.csv)")
    p.add_argument("--config", help=config_help)
    p.set_defaults(func=cmd_train)

    def attack_parser(name, func, summary, sweep_keys=("attack",)):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--model", required=True)
        p.add_argument("--data", required=True)
        _add_flags(p, "sweep", sweep_keys)
        _add_flags(p, "attack")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help=config_help)
        p.set_defaults(func=func)
        return p

    p = attack_parser("attack", cmd_attack, "run one attack, report accuracy, optionally dump points")
    p.add_argument("--out-adv", dest="out_adv")
    for p in (attack_parser("eval", cmd_eval, "natural + robust accuracy under one attack"),
              attack_parser("sweep", cmd_sweep, "robust accuracy across a logit-scale grid",
                            ("attack", "alpha_grid"))):
        p.add_argument("--verdict", choices=VERDICTS)
        p.add_argument("--out")

    p = sub.add_parser("oracle-check", help="cross-check PGD against the exhaustive grid oracle")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--grid", type=int, default=51)
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
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
    except (RobustlabError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
