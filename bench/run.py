"""Benchmark of the aeaqecc package: cold runs of three workloads.

    python3 bench/run.py --workload {tables,bch_sweep,label_sweep,all}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The inputs are made from the seed before
any timing.  Each sample is one run of the workload in a fresh
single-threaded interpreter, so every lazy cache (fields, cosets,
splitting fields, Hartmann-Tzeng bounds) starts empty, as it does for a
user calling ``aeaqecc tables`` or sweeping from a new Python process.
Samples run one at a time until ``--seconds`` have passed; each metric is
the median over the samples.

With ``--trace 0`` the samples are untraced and the result holds the
end-to-end metrics.  With ``--trace 1`` untraced and traced samples
alternate and the result holds the per-layer metrics of the traced ones.
The last line of stdout is the JSON result; the lines before it give the
inputs digest, the environment, any failure by input and every metric by
name with its unit.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER_TIMEOUT = 170  # a run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "codes_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if ".words_per_s." in name:
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
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
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "aeaqecc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("AEAQECC_BUDGET", None)  # the workloads use the default budget
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class HarnessError(Exception):
    pass


def run_sample(workload: str, inputs, traced: bool, deadline: float) -> dict:
    """One cold run in a fresh interpreter; adds ``setup_s`` to its result."""
    request = json.dumps({"workload": workload, "inputs": inputs, "trace": traced})
    timeout = max(1.0, deadline - time.monotonic())
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=request, capture_output=True, text=True, cwd=ROOT,
            env=_worker_env(), timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker for {workload} exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(
            f"worker for {workload} exited with {proc.returncode}:\n{proc.stderr}"
        )
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def collect(workload: str, inputs, seconds: float, trace: bool) -> list[dict]:
    """Samples until ``seconds`` have passed; with tracing, alternate
    untraced and traced samples, at least one of each."""
    start = time.monotonic()
    deadline = start + WORKER_TIMEOUT
    samples = []
    while True:
        traced = trace and len(samples) % 2 == 1
        samples.append(run_sample(workload, inputs, traced, deadline))
        enough = len(samples) >= (2 if trace else 1)
        if enough and time.monotonic() - start >= seconds:
            return samples


def end_to_end(samples: list[dict]) -> dict:
    med = statistics.median
    return {
        "wall_s": med(s["wall_s"] for s in samples),
        "codes_per_s": med((s["ops"] - s["failed"]) / s["wall_s"] for s in samples),
        "setup_s": med(s["setup_s"] for s in samples),
        "peak_rss_mb": med(s["rss_mb"] for s in samples),
    }


def per_layer(samples: list[dict]) -> dict:
    traced = [s for s in samples if "layers" in s]
    plain = [s for s in samples if "layers" not in s]
    med = statistics.median
    out = {}
    for name in traced[0]["layers"]:
        # a count is the same in every sample; keep it a whole number
        pick = statistics.median_low if layer_unit(name) == "count" else med
        out[name] = pick(s["layers"][name] for s in traced)
    out["trace.wall_s"] = med(s["wall_s"] for s in traced)
    out["trace.untraced_wall_s"] = med(s["wall_s"] for s in plain)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["eaqecc.exact_cells"] = traced[0]["exact_cells"]
    out["eaqecc.bound_cells"] = traced[0]["bound_cells"]
    out["eaqecc.degenerate_pairs"] = traced[0]["degenerate"]
    return out


def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = workloads.make_inputs(workload, seed)
    print(f"inputs: workload={workload} seed={seed} count={len(inputs)} "
          f"digest={workloads.digest(inputs)}")
    samples = collect(workload, inputs, seconds, trace)
    first = samples[0]
    env = {
        "commit": _commit(),
        "source_digest": _source_digest(),
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": os.cpu_count(),
        "samples": len(samples),
    }
    print("env: " + json.dumps(env, sort_keys=True))
    print("samples wall_s: " + " ".join(
        f"{s['wall_s']:.3f}{'t' if 'layers' in s else ''}" for s in samples))
    outputs = {s["outputs"] for s in samples}
    print(f"outputs digest: {' '.join(sorted(outputs))}")
    attempted = sum(s["ops"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    failures = sorted({f for s in samples for f in s["failures"]})
    for line in failures:
        print(f"failure: {line}")
    print(f"exact_cells = {first['exact_cells']}, bound_cells = {first['bound_cells']}, "
          f"degenerate_pairs = {first['degenerate']}, "
          f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    correct = (
        failed == 0
        and len(outputs) == 1  # traced and untraced samples agree
        and all(s.get("restored", True) for s in samples)
    )
    if trace:
        values = per_layer(samples)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
    else:
        values = end_to_end(samples)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aeaqecc" / "__init__.py").is_file():
        print(f"no package source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = report(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except HarnessError as e:
        print(e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
