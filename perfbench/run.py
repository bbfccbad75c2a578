"""oncokit benchmark: one workload per invocation.

    python3 perfbench/run.py --workload seg-unet --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
The benchmark makes the workload's inputs from ``--seed`` (cached, untimed)
and launches the workload process, which runs whole rounds for
``--seconds`` and checks every output. Fresh processes that only set up
(import oncokit and read the dataset) run before and after it to time
set-up. The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the workload alternates
untraced and traced rounds and the metrics are the per-layer ones plus the
tracing overhead, and the spans are written under
``perfbench/.work/traces``.

Every workload process runs with its BLAS pools capped at one thread
(``ONCOKIT_THREADS`` and the OpenBLAS/OpenMP/MKL variables), so runs on a
2-core machine do not contend with themselves.

The workload names and the metrics' names and units are read from
``BENCHMARK.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

THREADS = "1"
THREAD_VARS = ("ONCOKIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up-only launches, half before and half after the workload launch,
# which is one more: set-up time follows the host's speed, which drifts
# over tens of seconds, so the probes span the whole run.
SETUP_PROBES = 8
SETUP_TIMEOUT_S = 60.0    # per set-up launch
# The workload launch ends after the first round that finishes past
# --seconds; this allows for inputs, checks and rounds up to twice as long
# as the run before it treats the process as hung.
WORKLOAD_SLACK_S = 60.0
WORKLOAD_SECONDS_FACTOR = 3.0


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = THREADS
    env["PYTHONPATH"] = str(SRC)
    return env


def _launch(args: list[str], timeout: float) -> dict:
    """Run workload.py in a fresh process; return its last stdout line."""
    env = _child_env()
    env["PERFBENCH_LAUNCH"] = repr(time.monotonic())
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _with_units(values: dict, listed: list[dict]) -> dict:
    """The metrics ``BENCHMARK.json`` lists, in its order and units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oncokit" / "__init__.py").is_file():
        print(f"perfbench: no oncokit sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))

    data = inputs.make_inputs(args.workload, args.seed, WORK)
    WORK.joinpath("runs").mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK / "runs"))
    try:
        common = ["--workload", args.workload, "--inputs", str(data)]

        def probe():
            return _launch(common + ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]

        setups = [probe() for _ in range(SETUP_PROBES // 2)]
        spans = WORK / "traces" / f"{args.workload}-s{args.seed}.jsonl"
        run = _launch(common + ["--out", str(out), "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace),
                                "--spans", str(spans)],
                      WORKLOAD_SLACK_S + WORKLOAD_SECONDS_FACTOR * args.seconds)
        setups += [run["setup_s"]] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(out, ignore_errors=True)

    rounds = run["rounds"]
    if args.trace:
        metrics = _with_units(run["per_layer"], spec["per_layer"])
    else:
        values = {
            "setup_s": statistics.median(setups),
            "train_samples_per_s": sum(r["train_samples"] for r in rounds)
            / sum(r["train_s"] for r in rounds),
            "predict_subjects_per_s": sum(r["predict_subjects"] for r in rounds)
            / sum(r["predict_s"] for r in rounds),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = _with_units(values, spec["end_to_end"])
    result = {
        "correct": not run["problems"],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "context": run["context"], "setups_s": setups, "rounds": rounds,
              "problems": run["problems"]}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(dict(detail, result=result), indent=2))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
