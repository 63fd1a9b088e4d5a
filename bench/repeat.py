"""One repeat of a workload, in a fresh process, the way a user runs it.

    python3 bench/repeat.py run CONFIG OUT SPAWN_NS [--trace SPANS]
    python3 bench/repeat.py setup CONFIG OUT SPAWN_NS
    python3 bench/repeat.py invariance CONFIG OUT

`run` imports levyheat from the checkout's `src/`, calls `cli.parse_config`
and then `cli.execute(plans, OUT, threads=1)`, and prints one JSON line with
its timings and the manifest's studies.  SPAWN_NS is the parent's
`time.monotonic_ns()` just before it started this process, so `setup_s`
covers interpreter start, imports and parsing.  With `--trace` the public
functions are wrapped first (see tracing.py), the spans are written to SPANS
when the run ends and the per-layer figures are added to the JSON line.
`setup` stops where `run` would call `execute` and reports `setup_wall_s` only.

`invariance` executes CONFIG with one worker and with two and prints whether
the CSV bytes agree.

Timings are reported as measured (`setup_wall_s`, `study_wall_s`,
`cpu_wall_s`); run.py scales them to the reference host speed.
"""

import argparse
import json
import os
import resource
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run(config: str, out: str, spawn_ns: int, spans_path,
        setup_only: bool = False) -> dict:
    tracer = None
    from levyheat import cli
    if spans_path:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    plans = cli.parse_config(config)
    result = {"setup_wall_s": (time.monotonic_ns() - spawn_ns) / 1e9}
    if setup_only:
        return result
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    manifest = cli.execute(plans, out, threads=1)
    study_wall_s = time.perf_counter() - t0
    cpu_wall_s = _cpu_seconds() - cpu0
    peak_kib = max(resource.getrusage(who).ru_maxrss for who in
                   (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result.update({
        "study_wall_s": study_wall_s,
        "cpu_wall_s": cpu_wall_s,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "studies": list(manifest.studies),
    })
    if tracer is not None:
        tracer.restore()
        from checks import read_csvs, read_study_csv
        from tracing import layer_metrics
        written = sum(os.path.getsize(os.path.join(out, n))
                      for n in os.listdir(out))
        intervals = sum(len(rows) for text in read_csvs(out).values()
                        for rows in read_study_csv(text.decode())[0].values())
        result["layers"] = layer_metrics(tracer, written, intervals)
        tracer.write(spans_path)
    return result


def invariance(config: str, out: str) -> dict:
    from checks import read_csvs
    from levyheat import cli
    plans = cli.parse_config(config)
    csvs = []
    for threads in (1, 2):
        sub = os.path.join(out, f"threads{threads}")
        cli.execute(plans, sub, threads=threads)
        csvs.append(read_csvs(sub))
    return {"identical": bool(csvs[0]) and csvs[0] == csvs[1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "setup", "invariance"))
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("spawn_ns", type=int, nargs="?", default=0)
    parser.add_argument("--trace", default=None,
                        help="write spans here and report per-layer figures")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # the benchmark runs reduced sample counts on purpose
    warnings.filterwarnings("ignore", message="fewer than 100 samples")
    if args.mode == "invariance":
        result = invariance(args.config, args.out)
    else:
        result = run(args.config, args.out, args.spawn_ns, args.trace,
                     setup_only=args.mode == "setup")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
