"""Command-line entry points: synth, train, eval, export-weights,
import-weights, check.

Configs are JSON documents with strict schemas: unknown keys and values of
the wrong JSON type are rejected by key (``model.build_dataclass``).  Each
config flag's dest is its config path (``--epochs`` sets ``train.epochs``),
so flags fold over config-file values generically, and the fully resolved
config is echoed into the output directory for provenance.  Every split's
manifest is checked against the run's task, and training's three splits
against each other, before any volume loads.  Training writes nothing
outside its output directory and guards it with a lock file.

Set ``SLICESET_THREADS`` to cap the numeric libraries' worker threads; it is
applied before numpy loads.
"""

from __future__ import annotations

import os


def _cap_threads():
    cap = os.environ.get("SLICESET_THREADS")
    if cap:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_cap_threads()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import fcntl  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, dataclass, field, fields, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from .checks import SUITES, run_suite  # noqa: E402
from .data import (  # noqa: E402
    AXES,
    TASKS,
    SyntheticSpec,
    _synthetic_volumes,
    axis_index,
    load_manifest_volumes,
    manifest_task,
    read_manifest,
    write_atomic,
    write_manifest,
)
from .encoders import ENCODER_KINDS, EncoderConfig  # noqa: E402
from .model import (  # noqa: E402
    AGGREGATOR_KINDS,
    AggregatorConfig,
    ModelConfig,
    SliceSetModel,
    build_dataclass,
    slice_count_for,
)
from .nifti import save_nifti  # noqa: E402
from .nn import BatchNorm2d  # noqa: E402
from .train import (  # noqa: E402
    LOSS_KINDS,
    OPTIMIZER_KINDS,
    OptimizerConfig,
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    he_init,
    train,
)
from .weights import (  # noqa: E402
    WeightArchive,
    export_weights,
    import_encoder,
    import_strict,
)

LOCK_NAME = ".sliceset.lock"
CHECKPOINT_METADATA_KIND = "slice-set-checkpoint"


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Everything a training run needs, JSON-serializable.

    ``task`` may be "auto", in which case it is inferred from the training
    manifest's target types (integer 0/1 targets → classification, floats →
    regression); every split's manifest must hold the task's targets.
    """

    task: str = "auto"
    axis: str = "sagittal"
    positional_enabled: bool = False
    normalize: bool = True
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    train_manifest: str | None = None
    val_manifest: str | None = None
    test_manifest: str | None = None
    output_dir: str = "runs/latest"

    def __post_init__(self):
        if self.task not in ("auto", *TASKS):
            raise ValueError(f"unknown task {self.task!r}; choose from {('auto', *TASKS)}")
        axis_index(self.axis)

    def model_config(self) -> ModelConfig:
        return ModelConfig(task=self.task, axis=self.axis, encoder=self.encoder,
                           aggregator=self.aggregator,
                           positional_enabled=self.positional_enabled)


def load_run_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    return build_dataclass(RunConfig, data, "run config")


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    """Fold non-None command-line flags over the config file values.

    A config flag's dest is its config path, ``key`` or ``section.key``;
    dests that name no ``RunConfig`` field are not config flags.
    """
    names = {f.name for f in fields(RunConfig)}
    top = {}
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if value is None or (section or key) not in names:
            continue
        if section:
            value = replace(top.get(section, getattr(config, section)), **{key: value})
        top[section or key] = value
    return replace(config, **top)


def _lock_owner(lock: Path) -> int | None:
    """The pid a lock file records, None without a lock file; ValueError when
    the file records no pid."""
    try:
        pid = int(lock.read_text())
    except FileNotFoundError:
        return None
    except (OSError, ValueError):            # a UnicodeDecodeError is a ValueError
        pid = 0
    if pid < 1:
        raise ValueError(f"output directory {lock.parent} has an unreadable lock file {lock} "
                         f"(delete it if no run is using the directory)")
    return pid


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):   # no such process, or no such pid
        return False
    except PermissionError:   # alive, but another user's
        return True
    return True


@contextlib.contextmanager
def output_lock(directory: Path):
    """Exclusive claim on an output directory via an O_EXCL lock file that
    records the owner's pid.

    A lock whose pid is no longer running was left by a killed run; it is
    stale and is taken over.  A claim holds an exclusive ``flock`` on the
    directory while it checks, removes and creates the lock file, so of two
    runs that race for a stale lock only one wins.
    """
    lock = directory / LOCK_NAME
    guard = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(guard, fcntl.LOCK_EX)
        owner = _lock_owner(lock)
        if owner is not None and _pid_alive(owner):
            raise ValueError(f"output directory {directory} is locked by another run (pid {owner})")
        lock.unlink(missing_ok=True)         # a stale lock, if any
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
    finally:
        os.close(guard)                      # releases the flock
    try:
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            lock.unlink()


def _parse_extents(text: str) -> tuple[int, int, int]:
    with contextlib.suppress(ValueError):
        extents = tuple(int(x) for x in text.split(","))
        if len(extents) == 3 and min(extents) >= 1:
            return extents
    raise ValueError(f"--extents wants three comma-separated positive integers, got {text!r}")


def _common_extents(volumes, context: str) -> tuple[int, int, int]:
    extents = {v.extents for v in volumes}
    if len(extents) != 1:
        raise ValueError(f"{context}: volumes disagree on extents: {sorted(extents)}")
    return next(iter(extents))


def _aggregate(reports) -> dict:
    """Mean and population standard deviation of every metric across seeds."""
    keys = [k for k in reports[0].to_dict() if k not in ("task", "n")]
    per_seed = [r.to_dict() for r in reports]
    mean = {k: float(np.mean([r[k] for r in per_seed])) for k in keys}
    std = {k: float(np.std([r[k] for r in per_seed])) for k in keys}
    return {"per_seed": per_seed, "mean": mean, "std": std}


def _print_aggregate(agg: dict):
    for key, m in agg["mean"].items():
        print(f"{key}: {m:.4f} ± {agg['std'][key]:.4f} ({len(agg['per_seed'])} seeds)")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    spec = SyntheticSpec(extents=_parse_extents(args.extents), task=args.task,
                         noise_std=args.noise_std, count=args.count, seed=args.seed,
                         blob_radius=args.blob_radius, blob_amplitude=args.blob_amplitude,
                         signal_axis=args.signal_axis)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    suffix = ".nii.gz" if args.gzip else ".nii"
    for volume in _synthetic_volumes(spec):   # one volume held at a time
        name = volume.subject_id + suffix
        save_nifti(out / name, volume)
        entries.append({"path": name, "subject_id": volume.subject_id,
                        "target": volume.target})
    write_manifest(out / "manifest.json", entries)
    low, high = spec.position_range
    detail = (f"targets in [{low}, {high}] along {spec.signal_axis}"
              if spec.task == "regression" else "labels blob=1 / noise=0")
    print(f"wrote {len(entries)} volumes + manifest.json to {out} ({detail})")
    return 0


def _check_split(path, context, task) -> list[dict]:
    """The entries of a split's manifest; rejects a manifest that is missing
    or empty or holds other than ``task``'s targets."""
    if path is None:
        raise ValueError(f"no {context} manifest configured (flag --{context}-manifest "
                         f"or config key {context}_manifest)")
    entries = read_manifest(path)
    if not entries:
        raise ValueError(f"{context} manifest {path} is empty")
    if manifest_task(entries) != task:
        raise ValueError(f"{context} manifest {path} holds {manifest_task(entries)} targets, "
                         f"but the model is a {task} model")
    return entries


def _check_disjoint_splits(manifests: dict, entries: dict):
    """Reject a volume file or a subject id that the manifests of two splits
    both name: either would leak a subject's scans across splits.  Both
    dicts are keyed by split: manifest paths and their entries."""
    files, subjects = {}, {}
    for split, manifest in manifests.items():
        for entry in entries[split]:
            file = (Path(manifest).parent / entry["path"]).resolve()
            subject = entry["subject_id"]
            for owners, key, what in ((files, file, f"volume file {file}"),
                                      (subjects, subject, f"subject id {subject!r}")):
                owner, owner_manifest = owners.setdefault(key, (split, manifest))
                if owner != split:
                    raise ValueError(f"{what} is in both the {owner} manifest "
                                     f"{owner_manifest} and the {split} manifest {manifest}")


def cmd_train(args) -> int:
    if args.seeds is not None and args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    if args.freeze_bn_stats and not args.pretrained:
        raise ValueError("--freeze-bn-stats needs --pretrained")
    archive = WeightArchive.load(args.pretrained) if args.pretrained else None
    config = load_run_config(args.config) if args.config else RunConfig()
    config = _apply_overrides(config, args)
    if config.task == "auto" and config.train_manifest is not None:
        config = replace(config, task=manifest_task(read_manifest(config.train_manifest)))

    manifests = {split: getattr(config, f"{split}_manifest") for split in ("train", "val", "test")}
    entries = {split: _check_split(path, split, config.task) for split, path in manifests.items()}
    _check_disjoint_splits(manifests, entries)
    train_vols, val_vols, test_vols = (load_manifest_volumes(path, config.normalize, entries[split])
                                       for split, path in manifests.items())
    extents = _common_extents(train_vols + val_vols + test_vols, "dataset")
    slice_count = slice_count_for(extents, config.axis)
    model_config = config.model_config()
    model = _new_model(model_config, slice_count)   # fails before anything is written
    if archive is not None:
        import_encoder(model, archive)   # so does an archive that does not fit the encoder
    _check_batch_fits(config, extents, len(train_vols))

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with output_lock(out):
        resolved = asdict(config)
        write_atomic(out / "config.json", json.dumps(resolved, indent=2) + "\n")
        print("resolved config:")
        print(json.dumps(resolved, indent=2))
        print(f"volumes: {len(train_vols)} train / {len(val_vols)} val / {len(test_vols)} test; "
              f"extents {extents}; K={slice_count} along {config.axis}")

        base_seed = config.train.seed
        seeds = [base_seed + i for i in range(args.seeds or 1)]
        reports = []
        for seed in seeds:
            if model is None:
                model = _new_model(model_config, slice_count)
            he_init(model, seed=seed)
            if archive is not None:
                model, report = import_encoder(model, archive)
                for mod in model.encoder.modules():
                    if isinstance(mod, BatchNorm2d):
                        mod.freeze_stats = args.freeze_bn_stats
                print(f"pretrained import from {args.pretrained}:")
                print(report.summary())
            train_cfg = replace(config.train, seed=seed)
            log_path = out / f"epochs_seed{seed}.jsonl"

            def show(rec, total=train_cfg.epochs):
                print(f"epoch {rec['epoch']}/{total}  train_loss={rec['train_loss']:.5f}  "
                      f"val_metric={rec['val_metric']:.5f}", flush=True)

            result = train(model, train_vols, val_vols, train_cfg, config.optimizer,
                           log_path=log_path, progress=show)
            result.best.restore(model)
            ckpt_path = out / f"checkpoint_seed{seed}.ssnw"
            _save_checkpoint(ckpt_path, model, extents, config.normalize,
                             result.best.epoch, result.best.val_metric, seed)
            report = evaluate(model, test_vols)
            write_atomic(out / f"eval_seed{seed}.json", report.to_json() + "\n")
            print(f"seed {seed}: best epoch {result.best.epoch} "
                  f"(val {result.best.val_metric:.5f}) -> {ckpt_path.name}")
            print(f"seed {seed} test: {report.summary()}")
            reports.append(report)
            model = None   # the next seed trains a fresh model

        if len(reports) > 1:
            agg = _aggregate(reports)
            write_atomic(out / "summary.json", json.dumps(agg, indent=2) + "\n")
            _print_aggregate(agg)
    return 0


def _save_checkpoint(path, model: SliceSetModel, extents, normalize: bool, epoch: int,
                     val_metric: float, seed: int):
    """Export every tensor with the metadata ``_model_from_checkpoint`` rebuilds from."""
    metadata = {
        "kind": CHECKPOINT_METADATA_KIND,
        "model_config": json.dumps(asdict(model.config), sort_keys=True),
        "slice_count": str(model.slice_count),
        "extents": ",".join(str(e) for e in extents),
        "normalize": "true" if normalize else "false",
        "task": model.config.task,
        "epoch": str(epoch),
        "val_metric": repr(val_metric),
        "seed": str(seed),
    }
    export_weights(model, metadata).save(path)


def _new_model(config: ModelConfig, slice_count: int) -> SliceSetModel:
    """Build a model; a size numpy cannot allocate is a config error."""
    try:
        return SliceSetModel(config, slice_count)
    except (MemoryError, ValueError) as exc:
        agg = config.aggregator
        raise ValueError(
            f"cannot allocate the model sized by encoder.width_multiplier "
            f"{config.encoder.width_multiplier}, aggregator.model_dim {agg.model_dim} and "
            f"aggregator.ff_hidden_dim {agg.ff_hidden_dim}: {exc}") from None


def _check_batch_fits(config: RunConfig, extents, volumes: int):
    """Allocate one training batch of slices padded to the encoder's minimum,
    so a size numpy cannot allocate is a config error before anything is written."""
    enc = config.encoder
    axis = axis_index(config.axis)
    h, w = (max(e, enc.min_input) if enc.pad_to_min else e
            for i, e in enumerate(extents) if i != axis)
    shape = (min(config.train.batch_size, volumes) * extents[axis], enc.input_channels, h, w)
    try:
        np.empty(shape, dtype=np.float32)
    except (MemoryError, ValueError) as exc:
        raise ValueError(
            f"cannot allocate one batch of slices padded by encoder.min_input {enc.min_input} "
            f"with train.batch_size {config.train.batch_size}: {exc}") from None


def _model_from_checkpoint(archive: WeightArchive) -> tuple[SliceSetModel, dict]:
    meta = archive.metadata
    if meta.get("kind") != CHECKPOINT_METADATA_KIND:
        raise ValueError("archive is not a training checkpoint "
                         f"(metadata kind {meta.get('kind')!r})")
    model_config = build_dataclass(ModelConfig, json.loads(meta["model_config"]), "model config")
    slice_count = int(meta["slice_count"])
    if slice_count < 1:
        raise ValueError(f"checkpoint metadata slice_count must be at least 1, got {slice_count}")
    if meta["normalize"] not in ("true", "false"):
        raise ValueError('checkpoint metadata normalize must be "true" or "false", '
                         f'got {meta["normalize"]!r}')
    model = _new_model(model_config, slice_count)
    import_strict(model, archive)
    return model, meta


def cmd_eval(args) -> int:
    reports = []
    volumes = {}   # by normalize setting: the manifest decodes once per setting
    for ckpt in args.checkpoint:
        model, meta = _model_from_checkpoint(WeightArchive.load(ckpt))
        normalize = meta["normalize"] == "true"
        entries = _check_split(args.manifest, f"checkpoint {ckpt}: eval", model.config.task)
        if normalize not in volumes:
            volumes[normalize] = load_manifest_volumes(args.manifest, normalize, entries)
        report = evaluate(model, volumes[normalize])
        print(f"{ckpt}: {report.summary()}")
        print(report.to_json())
        reports.append(report)
    payload = reports[0].to_dict() if len(reports) == 1 else _aggregate(reports)
    if len(reports) > 1:
        _print_aggregate(payload)
    if args.output:
        write_atomic(args.output, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_export_weights(args) -> int:
    archive = WeightArchive.load(args.checkpoint)
    if args.encoder_only:
        entries = {k: v for k, v in archive.entries.items() if k.startswith("encoder.")}
        if not entries:
            raise ValueError(f"{args.checkpoint} holds no encoder.* entries")
        metadata = dict(archive.metadata)
        metadata["kind"] = "encoder-export"
        archive = WeightArchive(entries=entries, metadata=metadata)
    archive.save(args.out)
    print(f"wrote {len(archive.entries)} tensors to {args.out}")
    return 0


def cmd_import_weights(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    config = load_run_config(args.config) if args.config else RunConfig()
    config = _apply_overrides(config, args)
    if config.task == "auto":
        raise ValueError("import-weights needs an explicit task (flag --task)")
    extents = _parse_extents(args.extents)
    model = _new_model(config.model_config(), slice_count_for(extents, config.axis))
    seed = args.seed if args.seed is not None else 0
    he_init(model, seed=seed)

    archive = WeightArchive.load(args.archive)
    if args.strict:
        import_strict(model, archive)
        print(f"strict import: loaded all {len(archive.entries)} tensors")
    else:
        model, report = import_encoder(model, archive)
        print(report.summary())

    _save_checkpoint(args.out, model, extents, config.normalize, 0, float("nan"), seed)
    print(f"wrote initialized model to {args.out}")
    return 0


def cmd_check(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        report = run_suite(name, seed=args.seed)
        print(report.summary())
        ok = ok and report.passed
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--axis", choices=AXES)
    p.add_argument("--encoder", choices=ENCODER_KINDS, dest="encoder.kind")
    p.add_argument("--aggregator", choices=AGGREGATOR_KINDS, dest="aggregator.kind")
    p.add_argument("--width-multiplier", type=float, dest="encoder.width_multiplier")
    p.add_argument("--min-input", type=int, dest="encoder.min_input")
    p.add_argument("--input-channels", type=int, dest="encoder.input_channels")
    pos = p.add_mutually_exclusive_group()
    pos.add_argument("--positional", dest="positional_enabled", action="store_const",
                     const=True, help="enable the trainable positional table")
    pos.add_argument("--no-positional", dest="positional_enabled", action="store_const",
                     const=False)
    norm = p.add_mutually_exclusive_group()
    norm.add_argument("--normalize", dest="normalize", action="store_const", const=True)
    norm.add_argument("--no-normalize", dest="normalize", action="store_const", const=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliceset",
        description="Slice-set networks over 3D volumes: synth, train, eval, "
                    "weight transfer, verification checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic blob dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--task", choices=TASKS, default="regression")
    p.add_argument("--extents", default="16,20,16")
    p.add_argument("--noise-std", type=float, default=0.1, dest="noise_std")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blob-radius", type=int, default=3, dest="blob_radius")
    p.add_argument("--blob-amplitude", type=float, default=2.0, dest="blob_amplitude")
    p.add_argument("--signal-axis", choices=AXES, default="sagittal", dest="signal_axis")
    p.add_argument("--gzip", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a slice-set model from a config + manifests")
    p.add_argument("--config", help="JSON run config (flags override its values)")
    _add_model_flags(p)
    p.add_argument("--train-manifest", dest="train_manifest")
    p.add_argument("--val-manifest", dest="val_manifest")
    p.add_argument("--test-manifest", dest="test_manifest")
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--epochs", type=int, dest="train.epochs")
    p.add_argument("--batch-size", type=int, dest="train.batch_size")
    p.add_argument("--loss", choices=LOSS_KINDS, dest="train.loss")
    p.add_argument("--optimizer", choices=OPTIMIZER_KINDS, dest="optimizer.kind")
    p.add_argument("--learning-rate", type=float, dest="optimizer.learning_rate")
    p.add_argument("--momentum", type=float, dest="optimizer.momentum")
    p.add_argument("--seed", type=int, dest="train.seed")
    p.add_argument("--seeds", type=int,
                   help="run N seeds (base seed, base+1, ...) and report mean ± std")
    p.add_argument("--pretrained", help="weight archive to import into the encoder")
    p.add_argument("--freeze-bn-stats", action="store_true", dest="freeze_bn_stats",
                   help="keep imported batch-norm statistics fixed (needs --pretrained)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate checkpoint(s) on a manifest")
    p.add_argument("--checkpoint", nargs="+", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--output", help="write the (aggregated) report JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-weights", help="re-export a checkpoint, optionally encoder-only")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--encoder-only", action="store_true", dest="encoder_only")
    p.set_defaults(func=cmd_export_weights)

    p = sub.add_parser("import-weights",
                       help="build a model, import an archive into it, save a checkpoint")
    p.add_argument("--config", help="JSON run config for the target model")
    _add_model_flags(p)
    p.add_argument("--extents", required=True, help="volume extents a,b,c for the slice count")
    p.add_argument("--archive", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--strict", action="store_true",
                   help="require the archive to cover the model exactly")
    p.set_defaults(func=cmd_import_weights)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A diverging run overflows in the conv GEMMs and the batch-norm
        # moments before its loss is checked; the typed loss, gradient and
        # parameter checks report it, so numpy's warnings would only repeat
        # it as source lines on stderr.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, OSError, KeyError, MemoryError, TrainingDivergedError) as exc:
        prefix = ("missing key " if isinstance(exc, KeyError) else
                  "cannot allocate memory: " if isinstance(exc, MemoryError) else "")
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
