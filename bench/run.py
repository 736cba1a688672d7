#!/usr/bin/env python3
"""Benchmark of rigidlin, standard library only.

    python3 bench/run.py [--workload stabilizer-z|poly-fp5|lattice-z|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; rigidlin is imported from its ``src``.
One process runs one workload with a single caller and no threads: rounds
of the same operations are repeated until ``--seconds`` of timed work is
done, and each operation's output is checked against this directory's
own arithmetic (``check.py``) outside the timing.  Reported times are
scaled to a reference speed (see ``REFERENCE_S``).  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a
traced run.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, the interpreter, the CPU count and every round.
``--workload all`` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import check  # noqa: E402  (this directory is on sys.path when run as a script)
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("stabilizer-z", "poly-fp5", "lattice-z")
DEFAULT_SEED = 1
# Claims are confirmed on this seed; no change may be tuned on it.
CONFIRM_SEED = 9176

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "calls": "count", "mul_calls": "count", "divmod_calls": "count",
    "mul_operand_len": "coeffs", "max_operand_len": "coeffs",
    "det_calls": "count", "det_distinct_ratio": "ratio", "inverse_calls": "count",
    "matmul_calls": "count", "checked_builds": "count", "hnf_calls": "count",
    "snf_calls": "count", "kernel_calls": "count", "stream_vectors": "count",
    "word_evals": "count", "generator_calls": "count", "preserves_form_calls": "count",
    "contexts": "count", "emitted": "count", "conjugate_calls": "count",
    "witnesses_per_s": "1/s", "normal_forms_per_s": "1/s", "solutions_per_s": "1/s",
    "hnf_transform_digits": "digits", "snf_transform_digits": "digits",
    "snf_transform_degree": "degree",
}
RING_NOTE = ("note: rings.self_s includes the cost of the tracing wrapper around every ring "
             "call (about 1 us, often more than the call itself); the calling layer's self "
             "time includes part of it too")


# The speed of a shared host drifts by tens of percent within minutes, so
# times are scaled to a reference speed.  After each call the benchmark
# runs a fixed computation of its own, with this directory's arithmetic
# and never rigidlin's, for at least a tenth of the call's time; a round's
# times are divided by that computation's mean time in the round and
# multiplied by REFERENCE_S.  A time so scaled is the time on a machine
# that does the reference computation in REFERENCE_S.
REFERENCE_S = 0.001
_reference_rng = random.Random("rigidlin-bench:reference")
REFERENCE_Z = tuple(tuple(_reference_rng.randint(-9, 9) for _ in range(10)) for _ in range(10))
REFERENCE_F5 = tuple(tuple(workloads.F5._strip([_reference_rng.randrange(5) for _ in range(3)])
                           for _ in range(5)) for _ in range(5))


def run_reference(share: float, samples: list) -> None:
    """Runs the reference computation, at least once, until ``share``
    seconds of it are done, appending the time of each run to samples."""
    done = 0.0
    while done == 0.0 or done < share:
        start = time.perf_counter()
        check.det(workloads.Z, REFERENCE_Z)
        check.det(workloads.F5, REFERENCE_F5)
        samples.append(time.perf_counter() - start)
        done += samples[-1]


class Round(NamedTuple):
    times: dict  # op index -> time of the call, for the calls that returned
    reference_s: float  # mean time of the reference computation in the round
    layers: dict | None  # per-layer metrics of a traced round


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    short = name.rsplit(".", 1)[-1]
    return PER_LAYER_UNITS.get(short, "s" if short.endswith("_s") else "count")


def import_rigidlin():
    """Import rigidlin afresh from the checkout's src (drops any earlier import)."""
    for name in [n for n in sys.modules if n == "rigidlin" or n.startswith("rigidlin.")]:
        del sys.modules[name]
    rl = importlib.import_module("rigidlin")
    if Path(rl.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"rigidlin was imported from {rl.__file__}, not from {SRC}")
    return rl


class Runner:
    """Runs whole rounds of a workload's operations and checks their outputs.

    Before each round the workload is set up again (rigidlin imported
    afresh and the inputs rebuilt), so every round, traced or not, starts
    cold, and set-up is sampled across the whole run, like the
    operations.  The first output of each operation is checked; later
    rounds must give the same output.  An operation that raises, or whose
    output fails its check or differs from its first output, counts as
    failed."""

    def __init__(self, name: str, inputs: dict):
        self.name = name
        self.inputs = inputs
        self.setups: list[float] = []
        self.rl = self.ops = None
        self.first = {}  # op index -> (plain output, passed its check)
        self.attempted = 0
        self.failed = 0
        self.wrong_outputs = 0
        self.problems: list[str] = []

    def setup(self):
        gc.collect()
        start = time.perf_counter()
        rl = import_rigidlin()
        ops = workloads.build(self.name, rl, self.inputs)
        self.setups.append(time.perf_counter() - start)
        return rl, ops

    def _fail(self, op, what, wrong):
        self.failed += 1
        self.wrong_outputs += wrong
        if len(self.problems) < 50:
            self.problems.append(f"{op.label}: {what}")

    def round(self) -> tuple[dict, list, float]:
        """The time of each call that returned, the times of the reference
        computation, and the time of all calls, those that raised included."""
        times = {}
        samples: list[float] = []
        spent = 0.0
        for index, op in enumerate(self.ops):
            gc.collect()
            self.attempted += 1
            start = time.perf_counter()
            try:
                output = op.call()
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                took = time.perf_counter() - start
                spent += took
                run_reference(took / 10, samples)
                self._fail(op, f"raised {exc!r}", wrong=0)
                continue
            times[index] = time.perf_counter() - start
            spent += times[index]
            run_reference(times[index] / 10, samples)
            data = op.plain(output)
            if index not in self.first:
                try:
                    problems = op.check(data)
                except Exception as exc:  # noqa: BLE001 - an unreadable output is wrong
                    problems = [f"check raised {exc!r}"]
                self.first[index] = (data, not problems)
                if problems:
                    self._fail(op, "; ".join(problems), wrong=1)
                continue
            reference, passed = self.first[index]
            if data != reference:
                self._fail(op, "output differs from its first round", wrong=1)
            elif not passed:
                self._fail(op, "output failed its check in the first round", wrong=1)
        return times, samples, spent

    def run(self, budget: float, traced: bool = False) -> list[Round]:
        """Whole rounds, at least one, until ``budget`` seconds of timed
        calls are done or twice ``budget`` has passed on the clock.

        A traced round installs a new tracer on its freshly imported
        package, so its counts are those of a cold round."""
        rounds = []
        spent = 0.0
        deadline = time.perf_counter() + 2 * budget
        while not rounds or (spent < budget and time.perf_counter() < deadline):
            self.rl, self.ops = self.setup()
            tracer = tracing.Tracer() if traced else None
            if tracer is not None:
                tracer.install(self.rl)
            try:
                times, samples, took = self.round()
            finally:
                if tracer is not None:
                    tracer.uninstall()
            rounds.append(Round(times, statistics.fmean(samples),
                                tracer.metrics() if tracer is not None else None))
            spent += took
        return rounds

    def per_round(self, rounds: list[Round]) -> dict:
        """Each round's total time, each phase's share of it, the mean time
        of the reference computation, and the total at the reference speed."""
        phases = {"a": [], "b": []}
        for r in rounds:
            for phase, totals in phases.items():
                totals.append(sum(t for i, t in r.times.items() if self.ops[i].phase == phase))
        wall = [a + b for a, b in zip(phases["a"], phases["b"])]
        reference_s = [r.reference_s for r in rounds]
        return {"wall_s": wall, "phase_a_s": phases["a"], "phase_b_s": phases["b"],
                "reference_s": reference_s,
                "wall_ref_s": [w * REFERENCE_S / ref for w, ref in zip(wall, reference_s)]}


def _spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _medians(per_round) -> dict:
    return {key: statistics.median(values) for key, values in per_round.items()}


def _output_metrics(name, runner):
    """Rates' counts and transform sizes, read from the checked outputs."""
    ops = workloads.CHECK_OPS[name]
    sizes = {"hnf": 0, "snf": 0}
    vectors = 0
    for index, (data, _) in runner.first.items():
        kind = runner.ops[index].kind
        if kind == "hnf":
            sizes["hnf"] = max(sizes["hnf"], check.transform_size(ops, data[1]))
        elif kind == "snf":
            sizes["snf"] = max(sizes["snf"], check.transform_size(ops, data[1], data[2]))
        elif kind == "stream":
            vectors += len(data)
    over_z = ops is workloads.Z
    return {
        "normal_forms": sum(op.kind in ("hnf", "snf", "kernel", "inverse") for op in runner.ops),
        "solutions": vectors,
        "hnf_transform_digits": sizes["hnf"] if over_z else 0,
        "snf_transform_digits": sizes["snf"] if over_z else 0,
        "snf_transform_degree": 0 if over_z else sizes["snf"],
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, size: str = "full"):
    runner = Runner(name, workloads.generate(name, size, seed))
    record = {"workload": name, "seed": seed, "confirm_seed": CONFIRM_SEED, "size": size,
              "trace": int(traced), "python": platform.python_version(),
              "cpu_count": os.cpu_count(), "seconds": seconds}
    if not traced:
        rounds = runner.run(seconds)
        per_round = runner.per_round(rounds)
        # the set-up before each round is scaled with that round's reference
        per_round["setup_ref_s"] = [t * REFERENCE_S / r.reference_s
                                    for t, r in zip(runner.setups, rounds)]
        metrics = {
            "wall_ref_s": statistics.median(per_round["wall_ref_s"]),
            "setup_s": statistics.median(per_round["setup_ref_s"]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        untraced = runner.run(seconds / 2)
        traced_rounds = runner.run(seconds / 2, traced=True)
        untraced_times = runner.per_round(untraced)
        traced_times = runner.per_round(traced_rounds)
        plain = _medians(untraced_times)
        layer = [r.layers for r in traced_rounds]
        metrics = {key: statistics.median(m[key] for m in layer) for key in layer[0]}
        metrics["trace.overhead_s"] = _medians(traced_times)["wall_s"] - plain["wall_s"]
        counts = _output_metrics(name, runner)
        counts["witnesses"] = metrics["witnesses.emitted"]
        for rate in ("witnesses", "normal_forms", "solutions"):
            spent = sum(plain[f"phase_{p}_s"] for p, kind in workloads.PHASES[name].items()
                        if kind == rate)
            metrics[f"{rate}_per_s"] = counts[rate] / spent if spent else 0.0
        for key in ("hnf_transform_digits", "snf_transform_digits", "snf_transform_degree"):
            metrics[key] = counts[key]
        rounds = untraced + traced_rounds
        per_round = {"untraced_wall_s": untraced_times["wall_s"],
                     "traced_wall_s": traced_times["wall_s"]}
    record.update({
        "rounds": len(rounds),
        "setup_s": runner.setups,
        "per_round": per_round,
        "summary": {key: _spread(values) for key, values in per_round.items()},
        "problems": runner.problems,
    })
    result = {
        "correct": runner.wrong_outputs == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": unit_of(key)} for key, value in metrics.items()},
    }
    return record, result


def _print_result(record, result):
    if result["metrics"].get("rings.self_s") is not None:
        print(RING_NOTE)
    for key, metric in result["metrics"].items():
        print(f"{record['workload']:>13}  {key:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{record['workload']:>13}  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            return child.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        import_rigidlin()
    except ImportError as exc:
        print(f"error: cannot import rigidlin from {SRC}: {exc}", file=sys.stderr)
        return 2
    record, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(record, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
