"""Benchmark for emi: four workloads, end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload float-wide --seed 1 --seconds 25 --trace 0

runs one workload and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics (``pass_s``, ``setup_s``, ``peak_rss_mb``);
``--trace 1`` reports the per-layer metrics from spans recorded around
emi's layer functions, and writes the spans to ``perfbench/results/``.
Times are reference-scaled seconds (see ``reference.py``).
``--workload all`` (the default) runs every workload, each in a fresh
process, one after another.  The exit code is non-zero if any case failed
a check.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads
from reference import reference_seconds, scaled
from workloads import Case

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

DEFAULT_SEED = 1
SETUP_SAMPLES = 15
IMPORT_TIME_SAMPLES = 5
MIN_PASSES = 3
IMPORT_EMI = "import emi, emi.cli"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="picks the arctan-kernel parameter x; nothing else")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--emi-threads", type=int, default=None,
                        help="set EMI_THREADS for a reference run (default: unset)")
    return parser.parse_args(argv)


def prepare_environment(emi_threads) -> dict:
    """Set EMI_THREADS as asked (unset by default); return the environment for children."""
    os.environ.pop("EMI_THREADS", None)
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    if emi_threads is not None:
        os.environ["EMI_THREADS"] = str(emi_threads)
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_emi():
    sys.path.insert(0, str(SRC))
    import emi
    import emi.cli

    if Path(emi.__file__).resolve().parent != SRC / "emi":
        raise ImportError(f"imported emi from {emi.__file__}, not from {SRC}")
    return emi


# -- measurements -------------------------------------------------------------

def setup_seconds(env) -> float:
    """Median scaled time of a fresh interpreter importing emi and emi.cli."""
    command = [sys.executable, "-c", IMPORT_EMI]
    subprocess.run(command, env=env, cwd=ROOT, check=True)  # writes the bytecode caches
    samples = []
    for _ in range(SETUP_SAMPLES):
        ref = reference_seconds()
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        samples.append(scaled(time.perf_counter() - start, ref))
    return statistics.median(samples)


def import_self_seconds(env) -> float:
    """Median over fresh interpreters of the summed self import time of emi's modules."""
    samples = []
    for _ in range(IMPORT_TIME_SAMPLES):
        ref = reference_seconds()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_EMI],
                              env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        total_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                module = parts[2].strip()
                if module == "emi" or module.startswith("emi."):
                    total_us += int(parts[0].split(":")[1])
        samples.append(scaled(total_us / 1e6, ref))
    return statistics.median(samples)


@dataclass(frozen=True)
class PassTime:
    wall: float  # seconds
    reference: float  # seconds of the reference computation run just before

    @property
    def scaled(self) -> float:
        return scaled(self.wall, self.reference)


class Passes:
    """Runs whole passes over a case list and keeps every output for checking."""

    def __init__(self, cases: list[Case]):
        self.cases = cases
        self.outputs: list[list] = [[] for _ in cases]
        self.case_seconds: list[list[float]] = [[] for _ in cases]  # scaled

    def run(self) -> PassTime:
        """One pass.  An exception fails only its case.

        Every pass starts from the same collector state: young generations
        empty and the benchmark's own objects frozen out of later collections.
        """
        gc.collect()
        gc.freeze()
        ref = reference_seconds()
        start = time.perf_counter()
        for i, case in enumerate(self.cases):
            t0 = time.perf_counter()
            try:
                out = case.run()
            except Exception as exc:  # recorded as that case's failure
                out = _Raised(f"raised {exc!r}")
            self.case_seconds[i].append(scaled(time.perf_counter() - t0, ref))
            self.outputs[i].append(out)
        return PassTime(time.perf_counter() - start, ref)

    def check(self) -> tuple[int, int, list[str]]:
        """Check every output; returns (attempted, failed, messages)."""
        attempted = failed = 0
        messages = []
        for case, outputs in zip(self.cases, self.outputs):
            verdicts = {}
            for out in outputs:
                attempted += 1
                if out not in verdicts:
                    verdicts[out] = [out.message] if isinstance(out, _Raised) else case.check(out)
                    messages += [f"{case.label}: {m}" for m in verdicts[out]]
                failed += bool(verdicts[out])
        return attempted, failed, messages


@dataclass(frozen=True)
class _Raised:
    message: str


def timed_passes(passes: Passes, seconds: float) -> list[PassTime]:
    passes.run()  # warm-up
    times = []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        times.append(passes.run())
    return times


def traced_passes(passes: Passes, recorder, seconds: float):
    """Alternate untraced and traced passes; returns both lists of times and the totals."""
    passes.run()  # warm-up
    plain, traced, totals = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        plain.append(passes.run())
        recorder.begin_pass()
        try:
            traced.append(passes.run())
        finally:
            totals.append(recorder.end_pass())
    return plain, traced, totals


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def describe(times: list[float]) -> str:
    quartiles = ", ".join(f"{t:.4f}" for t in statistics.quantiles(times, n=4))
    return f"min {min(times):.4f}, quartiles {quartiles}, max {max(times):.4f}"


# -- per-layer metrics ----------------------------------------------------------

#: (metric name, layer, what): "s" is median scaled self time, "calls" the median call count.
LAYER_METRICS = [
    ("precision.seed_s", "precision.seed", "s"),
    ("precision.seed_calls", "precision.seed", "calls"),
    ("precision.render_s", "precision.render", "s"),
    ("jets.coeff_s", "jets.coeff", "s"),
    ("jets.coeff_calls", "jets.coeff", "calls"),
    ("quadrature.weights_s", "quadrature.weights", "s"),
    ("quadrature.weights_calls", "quadrature.weights", "calls"),
    ("quadrature.fold_s", "quadrature.fold", "s"),
    ("quadrature.reduce_s", "quadrature.reduce", "s"),
    ("quadrature.reduce_calls", "quadrature.reduce", "calls"),
    ("quadrature.engine_s", "quadrature.engine", "s"),
    ("quadrature.closed_form_s", "quadrature.closed_form", "s"),
    ("pi_suite.scan_s", "pi_suite.scan", "s"),
    ("pi_suite.match_s", "pi_suite.match", "s"),
    ("cli.main_s", "cli.main", "s"),
    ("selftest.verify_s", "selftest.verify", "s"),
]


def layer_metrics(totals, plain, traced, import_s) -> dict:
    metrics = {}
    for name, layer, kind in LAYER_METRICS:
        if kind == "s":
            values = [scaled(t.layers.get(layer, (0, 0))[0] / 1e9, p.reference)
                      for t, p in zip(totals, traced)]
            metrics[name] = metric(statistics.median(values), "s")
        else:
            values = [t.layers.get(layer, (0, 0))[1] for t in totals]
            metrics[name] = metric(int(statistics.median(values)), "count")
    metrics["precision.real_new"] = metric(int(statistics.median(t.real_new for t in totals)),
                                           "count")
    metrics["cli.import_s"] = metric(import_s, "s")
    overhead = (statistics.median(p.scaled for p in traced)
                - statistics.median(p.scaled for p in plain))
    metrics["trace.overhead_s"] = metric(overhead, "s")
    uncovered = [100 * (1 - t.covered_ns / (p.wall * 1e9)) for t, p in zip(totals, traced)]
    metrics["trace.uncovered_pct"] = metric(statistics.median(uncovered), "%")
    return metrics


# -- one workload ---------------------------------------------------------------

def build_cases(name: str, emi, x, env, in_process: bool) -> list[Case]:
    if name in workloads.IN_PROCESS:
        return workloads.IN_PROCESS[name](emi, x)
    runner = workloads.in_process_runner(emi) if in_process else workloads.process_runner(env, ROOT)
    return workloads.cli_cold(runner, x)


def run_workload(args) -> int:
    if not (SRC / "emi" / "__init__.py").is_file():
        print(f"error: no emi sources under {SRC}", file=sys.stderr)
        return 2
    env = prepare_environment(args.emi_threads)
    x = workloads.seeded_x(random.Random(args.seed))
    print(f"workload {args.workload}, seed {args.seed} (x = {x}), "
          f"trace {args.trace}, EMI_THREADS={env.get('EMI_THREADS', 'unset')}")

    if args.trace:
        import_s = import_self_seconds(env)
        emi = import_emi()
        recorder = spans.Recorder()
        cases = build_cases(args.workload, emi, x, env, in_process=True)
        passes = Passes(cases)
        plain, traced, totals = traced_passes(passes, recorder, args.seconds)
        metrics = layer_metrics(totals, plain, traced, import_s)
        out = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        recorder.dump(out, {"workload": args.workload, "seed": args.seed,
                            "pass_wall_seconds": [p.wall for p in traced]})
        print(f"{len(recorder.spans)} spans of the first {spans.KEPT_PASSES} of {len(traced)} "
              f"traced passes written to {out.relative_to(ROOT)}")
        print(f"scaled pass: untraced {describe([p.scaled for p in plain])}; "
              f"traced {describe([p.scaled for p in traced])}")
    else:
        setup_s = setup_seconds(env)
        emi = import_emi()
        passes = Passes(build_cases(args.workload, emi, x, env, in_process=False))
        times = timed_passes(passes, args.seconds)
        # cli-cold reports its largest child, always a workload process: the
        # import-only children of setup_seconds do less
        in_process = args.workload in workloads.IN_PROCESS
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        peak_kb = resource.getrusage(who).ru_maxrss
        metrics = {
            "pass_s": metric(statistics.median(p.scaled for p in times), "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        }
        print(f"{len(times)} timed passes after one warm-up")
        print(f"  scaled pass s:    {describe([p.scaled for p in times])}")
        print(f"  wall pass s:      {describe([p.wall for p in times])}")
        print(f"  reference s:      {describe([p.reference for p in times])}")

    for case, seconds in zip(passes.cases, passes.case_seconds):
        print(f"  case {case.label:<50} median {1000 * statistics.median(seconds):10.3f} ms "
              f"over {len(seconds)}")
    attempted, failed, messages = passes.check()
    for message in messages:
        print(f"  FAILED {message}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


# -- all workloads ------------------------------------------------------------

def run_all(args) -> int:
    status = 0
    rows = []
    for name in workloads.NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.emi_threads is not None:
            command += ["--emi-threads", str(args.emi_threads)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        try:
            rows.append((name, json.loads(lines[-1])))
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})")
    print("\nsummary")
    for name, result in rows:
        shown = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
        print(f"  {name:<13} attempted {result['attempted']}, failed {result['failed']}: {shown}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
