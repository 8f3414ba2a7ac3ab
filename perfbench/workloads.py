"""The three benchmark workloads and their correctness gates.

Each workload builds its inputs from the seed in ``setup`` (untimed), then
``run_round`` performs one fixed unit of user-visible work with the package's
public functions and returns its phase timings and outputs.  Every round
starts from the same state, so every round must reproduce the first one bit
for bit.  ``check_round`` runs the gates on a round's outputs; it is kept out
of the timed phases.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

perf_counter = time.perf_counter

SINGLE_PREDICT_TOLERANCE = 1e-6   # cohort vs single-volume predict, relative to max(1, |p|)


class Ledger:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, count: int):
        self.attempted += count

    def check(self, name: str, passed: bool, detail: str = ""):
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)


@dataclass
class Round:
    """One round: phase wall times (s), counts and the outputs the gates compare."""

    phases: dict[str, float]
    counts: dict[str, int]
    outputs: dict = field(default_factory=dict)
    steps: dict[str, list[float]] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.phases.values())


def identical(a, b) -> bool:
    """Bit-for-bit equality of nested dicts, lists, arrays and numbers."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(identical(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(identical(x, y) for x, y in zip(a, b)))
    if isinstance(a, bytes):
        return a == b
    x, y = np.asarray(a), np.asarray(b)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _initial_state(model) -> dict[str, np.ndarray]:
    return {name: arr.copy() for name, arr, _ in model.named_state()}


def _train_log(result) -> dict:
    """The deterministic part of a train() result (wall_ms is the one field that may differ)."""
    return {"train_loss": [r["train_loss"] for r in result.log],
            "val_metric": [r["val_metric"] for r in result.log],
            "best_epoch": result.best.epoch,
            "best_state": result.best.state}


class Workload:
    """Base of the training workloads; the eval workload overrides the measures."""

    name = ""
    per = "step"   # what the per-layer numbers are normalised by
    phase_names = {"volumes_per_s": "train_volumes_per_s", "step_ms_p50": "train_step_ms_p50"}

    def __init__(self, pkg, probe, seed: int, smoke: bool, workdir):
        self.pkg = pkg
        self.probe = probe
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def _timed_train(self, model, train_vols, val_vols, train_config, optimizer_config):
        train = self.pkg["train"]
        self.probe.phase = "train"
        start = perf_counter()
        result = train.train(model, train_vols, val_vols, train_config, optimizer_config)
        elapsed = perf_counter() - start
        self.probe.phase = "idle"
        return result, elapsed

    def _take_steps(self, phase) -> list[float]:
        steps = list(self.probe.steps[phase])
        self.probe.steps[phase].clear()
        return steps

    def volumes_per_s(self, r: Round) -> float:
        """Training volumes x epochs over the wall time of train.train."""
        return r.counts["volumes"] / r.phases["train"]

    def step_samples(self, rounds: list[Round]) -> list[float]:
        """Forward + backward + optimizer step time of every 3D training batch."""
        return [s for r in rounds for s in r.steps["train"]]

    def norm(self, r: Round) -> int:
        """Optimizer steps in a round: the per-layer numbers are per step."""
        return sum(len(s) for s in r.steps.values())

    def phase_metrics(self, rounds: list[Round]) -> dict:
        return {"train_loss_final": (rounds[0].outputs["train"]["train_loss"][-1], "loss")}


class TransferCNN5(Workload):
    """2D pretraining of cnn5, archive round trip, encoder import, 3D training."""

    name = "transfer-cnn5"

    def setup(self):
        data, model, encoders, train = (self.pkg[m] for m in ("data", "model", "encoders", "train"))
        n_images, self.n_train, n_val = (16, 4, 2) if self.smoke else (64, 16, 4)
        width = 0.25 if self.smoke else 1.0
        self.images, self.labels = data.generate_synthetic_images(n_images, (32, 32), seed=self.seed)
        self.volumes = data.generate_synthetic(data.SyntheticSpec(
            extents=(16, 20, 16), task="regression", count=self.n_train + n_val,
            seed=self.seed, signal_axis="sagittal"))
        self.encoder_config = encoders.EncoderConfig(kind="cnn5", width_multiplier=width)
        config = model.ModelConfig(
            task="regression", axis="sagittal", encoder=self.encoder_config,
            aggregator=model.AggregatorConfig(kind="attention"), positional_enabled=True)
        self.model = model.build_model(config, model.slice_count_for((16, 20, 16), "sagittal"))
        train.he_init(self.model, seed=self.seed)
        self.init_state = _initial_state(self.model)
        self.train_config = train.TrainConfig(epochs=1, batch_size=8, seed=self.seed)
        self.optimizer_config = train.OptimizerConfig(kind="adam", learning_rate=1e-3)

    def run_round(self) -> Round:
        nn, train, weights = self.pkg["nn"], self.pkg["train"], self.pkg["weights"]
        nn.load_state(self.model, self.init_state)

        self.probe.phase = "pretrain"
        start = perf_counter()
        pretrained = weights.pretrain_2d(self.encoder_config, self.images, self.labels,
                                         epochs=1, batch_size=32, learning_rate=1e-3,
                                         seed=self.seed)
        pretrain_s = perf_counter() - start
        self.probe.phase = "idle"

        start = perf_counter()
        raw = pretrained.archive.to_bytes()
        archive = weights.WeightArchive.from_bytes(raw)
        _, report = weights.import_encoder(self.model, archive)
        import_s = perf_counter() - start
        imported = {name: arr.copy() for name, arr, _ in self.model.named_state()
                    if name.startswith("encoder.")}

        result, train_s = self._timed_train(self.model, self.volumes[:self.n_train],
                                            self.volumes[self.n_train:], self.train_config,
                                            self.optimizer_config)
        return Round(
            phases={"pretrain": pretrain_s, "import": import_s, "train": train_s},
            counts={"images": len(self.images), "volumes": self.n_train * self.train_config.epochs,
                    "archives": 1},
            outputs={"pretrain_loss": pretrained.losses, "archive": raw,
                     "train": _train_log(result),
                     "_archive": archive, "_report": report, "_imported": imported},
            steps={"pretrain": self._take_steps("pretrain"), "train": self._take_steps("train")})

    def check_round(self, r: Round, ledger: Ledger):
        out = r.outputs
        losses = list(out["pretrain_loss"]) + out["train"]["train_loss"] + out["train"]["val_metric"]
        ledger.check("losses finite", _finite(losses), f"losses {losses}")
        ledger.check("archive to_bytes(from_bytes(b)) == b", out["_archive"].to_bytes() == out["archive"])
        report, imported, archive = out["_report"], out["_imported"], out["_archive"]
        unmatched = sorted(set(imported) - set(report.matched))
        differing = sorted(n for n in imported if n in archive.entries
                           and not np.array_equal(imported[n], archive.entries[n]))
        ledger.check("import_encoder matches every encoder tensor",
                     not unmatched and not differing and not report.adapted,
                     f"unmatched {unmatched}, differing {differing}, adapted {report.adapted}")

    def phase_metrics(self, rounds: list[Round]) -> dict:
        images_per_s = [r.counts["images"] / r.phases["pretrain"] for r in rounds]
        return {**super().phase_metrics(rounds),
                "pretrain_images_per_s": (float(np.median(images_per_s)), "1/s"),
                "pretrain_loss_final": (rounds[0].outputs["pretrain_loss"][-1], "loss")}


class TrainResNet18(Workload):
    """resnet18 classification with SGD momentum, coronal slices, mean aggregator."""

    name = "train-resnet18"

    def setup(self):
        data, model, encoders, train = (self.pkg[m] for m in ("data", "model", "encoders", "train"))
        self.n_train, n_val = (4, 2) if self.smoke else (32, 8)
        width = 0.125 if self.smoke else 0.25
        self.volumes = data.generate_synthetic(data.SyntheticSpec(
            extents=(16, 20, 16), task="classification", count=self.n_train + n_val,
            seed=self.seed, signal_axis="coronal"))
        config = model.ModelConfig(
            task="classification", axis="coronal",
            encoder=encoders.EncoderConfig(kind="resnet18", width_multiplier=width),
            aggregator=model.AggregatorConfig(kind="mean"), positional_enabled=False)
        self.model = model.build_model(config, model.slice_count_for((16, 20, 16), "coronal"))
        train.he_init(self.model, seed=self.seed)
        self.init_state = _initial_state(self.model)
        self.train_config = train.TrainConfig(epochs=1, batch_size=8, seed=self.seed)
        self.optimizer_config = train.OptimizerConfig(kind="sgd", learning_rate=1e-2, momentum=0.9)

    def run_round(self) -> Round:
        self.pkg["nn"].load_state(self.model, self.init_state)
        result, train_s = self._timed_train(self.model, self.volumes[:self.n_train],
                                            self.volumes[self.n_train:], self.train_config,
                                            self.optimizer_config)
        return Round(phases={"train": train_s},
                     counts={"volumes": self.n_train * self.train_config.epochs, "archives": 0},
                     outputs={"train": _train_log(result)},
                     steps={"train": self._take_steps("train")})

    def check_round(self, r: Round, ledger: Ledger):
        losses = r.outputs["train"]["train_loss"] + r.outputs["train"]["val_metric"]
        ledger.check("losses finite", _finite(losses), f"losses {losses}")


class EvalResNet50(Workload):
    """The eval path: gzip NIfTI manifest, checkpoint load, evaluate, single-volume predict."""

    name = "eval-resnet50"
    per = "volume"
    phase_names = {"volumes_per_s": "eval_volumes_per_s", "step_ms_p50": "predict_volume_ms_p50"}

    def setup(self):
        data, model, encoders, train, nifti, weights = (
            self.pkg[m] for m in ("data", "model", "encoders", "train", "nifti", "weights"))
        count = 4 if self.smoke else 32
        width = 0.0625 if self.smoke else 0.125
        extents = (32, 40, 32)
        volumes = data.generate_synthetic(data.SyntheticSpec(
            extents=extents, task="regression", count=count, seed=self.seed, signal_axis="axial"))
        entries = []
        for v in volumes:
            name = f"{v.subject_id}.nii.gz"
            nifti.save_nifti(self.workdir / name, v)
            entries.append({"path": name, "subject_id": v.subject_id, "target": v.target})
        self.manifest = self.workdir / "manifest.json"
        data.write_manifest(self.manifest, entries)

        config = model.ModelConfig(
            task="regression", axis="axial",
            encoder=encoders.EncoderConfig(kind="resnet50", width_multiplier=width),
            aggregator=model.AggregatorConfig(kind="attention"), positional_enabled=True)
        slices = model.slice_count_for(extents, "axial")
        source = model.build_model(config, slices)
        train.he_init(source, seed=self.seed)
        self.checkpoint = self.workdir / "checkpoint.ssnw"
        weights.export_weights(source, {"kind": "benchmark-checkpoint"}).save(self.checkpoint)
        self.checkpoint_bytes = self.checkpoint.read_bytes()
        self.model = model.build_model(config, slices)

    def run_round(self) -> Round:
        data, train, weights = self.pkg["data"], self.pkg["train"], self.pkg["weights"]
        start = perf_counter()
        volumes = data.load_manifest_volumes(self.manifest, normalize_volumes=True)
        load_s = perf_counter() - start

        start = perf_counter()
        archive = weights.WeightArchive.load(self.checkpoint)
        weights.import_strict(self.model, archive)
        checkpoint_s = perf_counter() - start

        start = perf_counter()
        report = train.evaluate(self.model, volumes)
        evaluate_s = perf_counter() - start
        cohort = self.probe.last_predict

        latencies, single = [], []
        for v in volumes:
            start = perf_counter()
            preds, _ = train.predict(self.model, [v])
            latencies.append(perf_counter() - start)
            single.append(preds[0])
        return Round(
            phases={"load": load_s, "checkpoint": checkpoint_s, "evaluate": evaluate_s,
                    "predict": sum(latencies)},
            counts={"volumes": len(volumes), "archives": 1},
            outputs={"report": report.to_dict(), "cohort": cohort, "single": np.array(single),
                     "_archive": archive},
            latencies=latencies)

    def check_round(self, r: Round, ledger: Ledger):
        checks = self.pkg["checks"]
        out = r.outputs
        ledger.check("archive to_bytes(from_bytes(b)) == b",
                     out["_archive"].to_bytes() == self.checkpoint_bytes)
        preds, targets = out["cohort"]
        report = out["report"]
        want = (checks.oracle_mae(preds, targets), checks.oracle_rmse(preds, targets))
        ledger.check("evaluate report equals the oracles on its predictions",
                     report["n"] == len(preds)
                     and abs(report["mae"] - want[0]) <= checks.METRIC_TOLERANCE
                     and abs(report["rmse"] - want[1]) <= checks.METRIC_TOLERANCE,
                     f"report {report} vs oracle mae/rmse {want}")
        single = out["single"]
        gap = np.abs(single - preds) / np.maximum(1.0, np.abs(preds))
        ledger.check("cohort predict equals single-volume predict",
                     _finite(preds) and bool(np.all(gap <= SINGLE_PREDICT_TOLERANCE)),
                     f"largest relative gap {gap.max():.3e}")

    def volumes_per_s(self, r: Round) -> float:
        """Volumes over manifest load + checkpoint load + evaluate."""
        return r.counts["volumes"] / (r.phases["load"] + r.phases["checkpoint"] + r.phases["evaluate"])

    def step_samples(self, rounds: list[Round]) -> list[float]:
        """Latency of every single-volume predict call."""
        return [s for r in rounds for s in r.latencies]

    def norm(self, r: Round) -> int:
        """Volumes forwarded (cohort evaluate plus single predicts): per-volume numbers."""
        return 2 * r.counts["volumes"]

    def phase_metrics(self, rounds: list[Round]) -> dict:
        samples = self.step_samples(rounds)
        return {"predict_volume_ms_p95": (1000.0 * float(np.percentile(samples, 95)), "ms")}


WORKLOADS = {cls.name: cls for cls in (TransferCNN5, TrainResNet18, EvalResNet50)}
