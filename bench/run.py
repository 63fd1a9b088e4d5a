"""Benchmark command: end-to-end and per-layer figures of levyheat studies.

    python3 bench/run.py --workload temporal_a --seed 20260815 --seconds 30 --trace 0

Generates the workload's study config from the seed, checks once that the
temporal_a plan gives the same CSV bytes with one worker and with two, then
runs repeats, each in a fresh process (bench/repeat.py), until the given
seconds are spent.  Every repeat's CSV is checked against closed forms
(bench/checks.py) and must match the first repeat byte for byte.

With `--trace 0` the last stdout line reports the end-to-end metrics,
medians over the repeats, with times at the reference host speed (see
`calibrate`).  With `--trace 1` untraced and traced repeats alternate; the
line reports the per-layer metrics of the traced repeats, `trace.overhead_s`
included (see tracing.py).  A study that fails, or writes no CSV, fails the
checks.  Configs, spans and `repeats.json` go to a directory of the
invocation's own, `.bench_out/<workload>/seed<seed>-<random>/` in the
checkout, so that invocations never share files, even when they run at the
same time.  Exit code 0 when every check passes, 1 when one fails, 2 when a
repeat cannot run.

Host speed.  On a shared host one CPU's speed swings by up to 2x within a
minute.  So while a repeat process runs, this process, which never imports
levyheat, times a short fixed loop (`calibrate`) every SAMPLE_GAP_S seconds,
on the same CPU: the repeats and this process are pinned to one CPU.  Each
time the repeat measured is scaled by CAL_REF_S over the mean of the loop
times taken during that repeat, and the reported times are the medians of
the scaled ones.  The loop runs only while the repeat process does, so it
cannot time state that levyheat leaves behind after `execute`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from checks import check_study, read_csvs
from workloads import DEFAULT_SEED, INVARIANCE_SAMPLES, WORKLOADS, config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPEAT = os.path.join(HERE, "repeat.py")
REPEAT_TIMEOUT_S = 170
MIN_SETUPS = 5  # setup_s is a median over at least this many processes
END_TO_END = (("study_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
CAL_ITERS = 4000
CAL_REF_S = 0.056  # the loop's median time, while a repeat shares its CPU,
#                    on the reference machine
SAMPLE_GAP_S = 0.5  # between two timings of the loop during a repeat


def calibrate() -> float:
    """Seconds for a fixed loop like the schemes' inner work: a 64-mode
    synthesis product and a pointwise sine."""
    rng = np.random.default_rng(0)
    table, x = rng.random((64, 129)), rng.random(64)
    t0 = time.perf_counter()
    for _ in range(CAL_ITERS):
        v = x @ table
        np.sin(v, out=v)
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Keep this process and the repeats it starts on one CPU, so that the
    loop times the CPU a repeat runs on.  Where the host refuses, the run
    goes on unpinned."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as exc:
        print(f"not pinned to one CPU: {exc}", file=sys.stderr)


class RepeatError(RuntimeError):
    """A repeat process failed or printed no result."""


def _child(args: list, base: str):
    """Run repeat.py with `args`, timing the fixed loop while it runs.

    Returns the repeat's JSON result and the loop times.
    """
    cmd = [sys.executable, REPEAT] + args
    paths = [os.path.join(base, f"child.{ext}") for ext in ("out", "err")]
    cals = []
    with open(paths[0], "wb") as out, open(paths[1], "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err)
        deadline = time.monotonic() + REPEAT_TIMEOUT_S
        try:
            while True:
                cals.append(calibrate())
                try:
                    proc.wait(timeout=SAMPLE_GAP_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() > deadline:
                        raise
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    with open(paths[0], encoding="utf-8") as fh:
        stdout = fh.read().strip()
    if proc.returncode != 0 or not stdout:
        with open(paths[1], encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        raise RepeatError(f"repeat.py {args[0]} exited {proc.returncode}:\n"
                          f"{stderr[-2000:]}")
    return json.loads(stdout.splitlines()[-1]), cals


def _write_config(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return path


class Invocation:
    """The repeats of one invocation and what they found."""

    def __init__(self, workload: str, seed: int, base: str):
        self.base = base
        self.doc = config(workload, seed)
        self.config = _write_config(os.path.join(base, "config.json"),
                                    self.doc)
        self.out = os.path.join(base, "run")
        self.spans = os.path.join(base, "spans.jsonl")
        self.first_csvs = None
        self.plain, self.traced, self.setups = [], [], []
        self.attempted = self.failed = 0
        self.problems = []

    def _timed_child(self, args: list, options=()) -> dict:
        """Run a repeat process; add its times at the reference speed."""
        result, cals = _child(args + [str(time.monotonic_ns())]
                              + list(options), self.base)
        scale = CAL_REF_S / statistics.mean(cals)
        result["cal_s"] = cals
        for name in ("setup", "study", "cpu"):
            if f"{name}_wall_s" in result:
                result[f"{name}_s"] = result[f"{name}_wall_s"] * scale
        return result

    def repeat(self, traced: bool) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        trace = ["--trace", self.spans] if traced else []
        result = self._timed_child(["run", self.config, self.out], trace)
        (self.traced if traced else self.plain).append(result)
        if not traced:
            self.setups.append(result["setup_s"])
        self._account(result)

    def setup_only(self) -> None:
        result = self._timed_child(["setup", self.config, self.out])
        self.setups.append(result["setup_s"])

    def _account(self, result: dict) -> None:
        csvs = read_csvs(self.out)
        if self.first_csvs is None:
            self.first_csvs = csvs
        elif csvs != self.first_csvs:
            self.problems.append("CSV bytes differ from the first repeat")
        studies = {s["name"]: s for s in self.doc["studies"]}
        if sorted(e["name"] for e in result["studies"]) != sorted(studies):
            self.problems.append("the manifest does not list every study")
        for entry in result["studies"]:
            name = entry["name"]
            self.attempted += entry["samples"]
            if entry["status"] != "ok":
                # no check can run on a failed study, so it fails them all
                self.failed += entry["samples"]
                self.problems.append(f"{name}: study failed: "
                                     f"{entry.get('error')}")
                continue
            self.failed += entry["aborts"]
            if entry["csv"] not in csvs:
                self.problems.append(f"{name}: no CSV {entry['csv']!r}")
                continue
            text = csvs[entry["csv"]].decode("utf-8")
            for msg in check_study(studies[name], text, entry):
                self.problems.append(f"{name}: {msg}")


def _check_invariance(seed: int, base: str) -> bool:
    path = _write_config(os.path.join(base, "invariance.json"),
                         config("temporal_a", seed, INVARIANCE_SAMPLES))
    return _child(["invariance", path, os.path.join(base, "invariance")],
                  base)[0]["identical"]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(inv: Invocation) -> dict:
    samples = {name: [r[name] for r in inv.plain] for name, _ in END_TO_END}
    samples["setup_s"] = inv.setups
    return {name: _metric(statistics.median(samples[name]), unit)
            for name, unit in END_TO_END}


def _per_layer(inv: Invocation) -> dict:
    return {name: _metric(statistics.median(r["layers"][name][0]
                                            for r in inv.traced), unit)
            for name, (_, unit) in inv.traced[0]["layers"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if not os.path.isfile(os.path.join(ROOT, "src", "levyheat", "cli.py")):
        print("no levyheat sources under src/ in this checkout",
              file=sys.stderr)
        return 2

    parent = os.path.join(ROOT, ".bench_out", args.workload)
    os.makedirs(parent, exist_ok=True)
    base = tempfile.mkdtemp(prefix=f"seed{args.seed}-", dir=parent)
    inv = Invocation(args.workload, args.seed, base)
    try:
        if not _check_invariance(args.seed, base):
            inv.problems.append(
                "temporal_a CSV bytes differ between 1 and 2 workers")
        pin_to_one_cpu()
        # a round is one repeat, or an untraced and a traced one; a round
        # starts only if it is expected to end within --seconds
        start = time.monotonic()
        last = 0.0
        while not inv.plain or (
                time.monotonic() - start + last <= args.seconds):
            t_round = time.monotonic()
            inv.repeat(traced=False)
            if args.trace:
                inv.repeat(traced=True)
            last = time.monotonic() - t_round
        while not args.trace and len(inv.setups) < MIN_SETUPS:
            inv.setup_only()
    except (RepeatError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        # the CSVs are checked by now; keep configs, spans and repeats.json
        for sub in ("run", "invariance"):
            shutil.rmtree(os.path.join(base, sub), ignore_errors=True)

    with open(os.path.join(base, "repeats.json"), "w", encoding="utf-8") as fh:
        json.dump({"plain": inv.plain, "traced": inv.traced,
                   "setup_s": inv.setups}, fh, indent=1)
    for msg in inv.problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    metrics = _per_layer(inv) if args.trace else _end_to_end(inv)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']}")
    print(f"repeats {len(inv.plain) + len(inv.traced)}, samples "
          f"attempted {inv.attempted}, failed {inv.failed}")
    print(json.dumps({"correct": not inv.problems,
                      "attempted": inv.attempted,
                      "failed": inv.failed,
                      "metrics": metrics}))
    return 1 if inv.problems else 0


if __name__ == "__main__":
    sys.exit(main())
