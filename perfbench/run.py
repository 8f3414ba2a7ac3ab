#!/usr/bin/env python3
"""The sliceset benchmark: seeded workloads, end-to-end metrics and a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload transfer-cnn5 --seed 1 --seconds 25 --trace 0

``--workload all`` (the default) runs every workload, each in a fresh process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The exit status is 0
only when every correctness gate passed.  See README.md in this directory.
"""

from __future__ import annotations

import os

# Numeric-library threads are capped before numpy loads, the way the package's
# SLICESET_THREADS does it: two BLAS threads gave no speed-up here and doubled
# the run-to-run spread.
THREAD_CAP = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREAD_CAP
os.environ["SLICESET_THREADS"] = THREAD_CAP

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS, Ledger, identical  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("transfer-cnn5", "train-resnet18", "eval-resnet50")
# Set-up is repeated at least this often and for at least this long; its median is setup_s.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
CHECK_SUITES = ("gradients", "permutation")

END_TO_END_UNITS = {"setup_s": "s", "volumes_per_s": "1/s", "step_ms_p50": "ms",
                    "pipeline_s": "s", "peak_rss_mb": "MB"}
NN_OP_NAMES = ("conv2d", "batch_norm2d", "max_pool2d", "relu", "pad2d", "global_avg_pool2d",
               "linear", "layer_norm", "softmax", "loss")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the rounds are measured (at least one round runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's test")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_cap": int(THREAD_CAP),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(), "cpu": cpu_model(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _public(outputs: dict) -> dict:
    return {k: v for k, v in outputs.items() if not k.startswith("_")}


def one_round(workload, ledger, probe, first=None, tracer=None,
              same="round reproduces the first bit for bit"):
    """Run and gate one round; a round that raises is a failed operation (returns None)."""
    calls = probe.predict_calls
    try:
        r = workload.run_round()
    except Exception as exc:
        ledger.check(f"{workload.name} round", False, repr(exc))
        return None
    ledger.ops(sum(len(s) for s in r.steps.values()) + r.counts["archives"]
               + probe.predict_calls - calls)
    with tracer.paused() if tracer else contextlib.nullcontext():
        workload.check_round(r, ledger)
        if first is not None:
            ledger.check(same, identical(_public(r.outputs), _public(first.outputs)))
            r.outputs = {}
    return r


def measure(workload, seconds, ledger, probe):
    """Untraced rounds until ``seconds`` have passed (at least one)."""
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        r = one_round(workload, ledger, probe, rounds[0] if rounds else None)
        if r is None:
            break
        rounds.append(r)
    return rounds


def repeat_setup(workload) -> list[float]:
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    return setups


def end_to_end(workload, setups, rounds) -> tuple[dict, dict]:
    """The BENCHMARK.json end-to-end metrics, and the same numbers under their phase names."""
    steps = workload.step_samples(rounds)
    values = {
        "setup_s": statistics.median(setups),
        "volumes_per_s": statistics.median(workload.volumes_per_s(r) for r in rounds),
        "step_ms_p50": 1000.0 * statistics.median(steps),
        "pipeline_s": statistics.median(r.wall for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    named = {workload.phase_names.get(k, k): (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    named.update(workload.phase_metrics(rounds))
    counts = {"rounds": len(rounds), "setups": len(setups), "step_samples": len(steps)}
    return metrics, {"metrics": named, "samples": counts}


def per_layer(workload, setup_stats, stats, rounds, plain_rounds) -> dict:
    """The BENCHMARK.json per-layer metrics from a traced run."""
    norm = sum(workload.norm(r) for r in rounds) or 1
    wall = sum(r.wall for r in rounds)

    def per(seconds):
        return 1000.0 * seconds / norm

    def per_call(label, counter=None, scale=1000.0):
        """Per call of ``label``, set-up included: its ms, or ``counter`` x ``scale``."""
        calls = setup_stats.calls(label) + stats.calls(label)
        if counter is None:
            total = setup_stats.total(label) + stats.total(label)
        else:
            total = setup_stats.counters[counter] + stats.counters[counter]
        return scale * total / calls if calls else 0.0

    def rate(flop, seconds):
        return flop / 1e9 / seconds if seconds else 0.0

    c = stats.counters
    op_calls = sum(s[0] for label, s in stats.spans.items() if label.endswith(".fwd"))
    m = {
        "tensor.backward_ms": (per(stats.total("tensor.backward")), "ms"),
        "tensor.backward_self_ms": (per(stats.self_time("tensor.backward")), "ms"),
        "tensor.ops_per_step": (op_calls / norm, "count"),
        "tensor.elementwise_fwd_ms": (per(stats.total("tensor.elementwise.fwd")), "ms"),
        "tensor.elementwise_bwd_ms": (per(stats.total("tensor.elementwise.bwd")), "ms"),
    }
    for op in NN_OP_NAMES:
        m[f"nn.{op}.fwd_ms"] = (per(stats.total(f"nn.{op}.fwd")), "ms")
        m[f"nn.{op}.bwd_ms"] = (per(stats.total(f"nn.{op}.bwd")), "ms")
        m[f"nn.{op}.calls"] = (stats.calls(f"nn.{op}.fwd") / norm, "count")
    m.update({
        "nn.conv2d.gflop": ((c["conv.fwd_flop"] + c["conv.bwd_flop"]) / 1e9 / norm, "GFLOP-computed"),
        "nn.conv2d.im2col_mb": (c["conv.im2col_bytes"] / 1e6 / norm, "MB-computed"),
        "nn.conv2d.fwd_gflops": (rate(c["conv.fwd_flop"], stats.total("nn.conv2d.fwd")), "GFLOP/s"),
        "nn.conv2d.bwd_gflops": (rate(c["conv.bwd_flop"], stats.total("nn.conv2d.bwd")), "GFLOP/s"),
        "encoders.fwd_ms": (per(stats.total("encoders.fwd")), "ms"),
        "encoders.slices_per_call": (c["encoders.slices"] / max(stats.calls("encoders.fwd"), 1), "count"),
        "model.slice_volume_ms": (per(stats.total("model.slice_volume")), "ms"),
        "model.aggregator_fwd_ms": (per(stats.total("model.aggregator")), "ms"),
        "model.forward_volume_ms": (per(stats.total("model.forward_volume")), "ms"),
        "train.forward_ms": (per(c["train.forward"]), "ms"),
        "train.backward_ms": (per(stats.total("tensor.backward")), "ms"),
        "train.optimizer_step_ms": (per(stats.total("train.optimizer_step")), "ms"),
        "train.zero_grad_ms": (per(stats.total("train.zero_grad")), "ms"),
        "train.validate_ms": (per(stats.total("train.validate")), "ms"),
        "train.snapshot_ms": (per(stats.total("train.snapshot")), "ms"),
        "weights.to_bytes_ms": (per_call("weights.to_bytes"), "ms"),
        "weights.from_bytes_ms": (per_call("weights.from_bytes"), "ms"),
        "weights.archive_mb": (per_call("weights.to_bytes", "weights.archive_bytes", 1e-6), "MB"),
        "weights.import_encoder_ms": (per_call("weights.import_encoder"), "ms"),
        "weights.import_strict_ms": (per_call("weights.import_strict"), "ms"),
        "nifti.load_ms": (per_call("nifti.load"), "ms"),
        "nifti.file_kb": (per_call("nifti.load", "nifti.file_bytes", 1 / 1024), "KB"),
        "nifti.save_ms": (per_call("nifti.save"), "ms"),
        "data.normalize_ms": (per_call("data.normalize"), "ms"),
        "data.generate_ms": (per_call("data.generate"), "ms"),
        "metrics.report_ms": (per_call("metrics.report"), "ms"),
        "trace.coverage": (stats.attributed() / wall if wall else 0.0, "ratio"),
        "trace.overhead": (statistics.median(r.wall for r in rounds)
                           / statistics.median(r.wall for r in plain_rounds), "ratio"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_workload(args) -> int:
    if not (SRC / "sliceset" / "__init__.py").is_file():
        print(f"perfbench: no sliceset package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pkg = layers.load_package()
    if not Path(pkg["tensor"].__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported sliceset from {pkg['tensor'].__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    info = provenance(args)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          + (" smoke" if args.smoke else ""))
    print("provenance " + json.dumps(info, sort_keys=True))

    ledger = Ledger()
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probe = layers.Probe(pkg)
    try:
        for suite in CHECK_SUITES:
            report = pkg["checks"].run_suite(suite)
            ledger.check(f"checks.run_suite({suite!r})", report.passed, report.summary())
        workload = WORKLOADS[args.workload](pkg, probe, args.seed, args.smoke, workdir)
        if args.trace:
            metrics, summary = traced_run(workload, args, ledger, probe)
        else:
            setups = repeat_setup(workload)
            rounds = measure(workload, args.seconds, ledger, probe)
            metrics, summary = ({}, {}) if not rounds or ledger.failed else end_to_end(
                workload, setups, rounds)
    except layers.TraceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)

    summary["ops_attempted"] = ledger.attempted
    summary["ops_failed"] = ledger.failed
    print("record " + json.dumps({"provenance": info, **summary}, sort_keys=True))
    for name, (value, unit) in summary.get("metrics", {}).items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    for failure in ledger.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


def traced_run(workload, args, ledger, probe):
    """Untraced and traced rounds, alternating so host drift hits both alike.

    Every traced round must reproduce the first untraced one bit for bit.
    """
    workload.setup()
    tracer = layers.Tracer(workload.pkg)
    try:
        workload.setup()
    finally:
        tracer.close()
    setup_stats, stats = tracer.stats, layers.Stats()

    plain, rounds = [], []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < args.seconds:
        r = one_round(workload, ledger, probe, plain[0] if plain else None)
        if r is None:
            break
        plain.append(r)
        tracer = layers.Tracer(workload.pkg, stats)
        try:
            r = one_round(workload, ledger, probe, plain[0], tracer,
                          same="traced round reproduces the untraced round bit for bit")
        finally:
            tracer.close()
        if r is None:
            break
        rounds.append(r)
    if not rounds or ledger.failed:
        return {}, {}
    metrics = per_layer(workload, setup_stats, stats, rounds, plain)
    return metrics, {"samples": {"rounds": len(rounds), "untraced_rounds": len(plain),
                                 "per": workload.per}}


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    status, results = 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        status = status or proc.returncode
    ok = [r for r in results.values() if r]
    print(json.dumps({"correct": status == 0 and len(ok) == len(results),
                      "attempted": sum(r["attempted"] for r in ok),
                      "failed": sum(r["failed"] for r in ok),
                      "metrics": {k: (r["metrics"] if r else None) for k, r in results.items()}}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
