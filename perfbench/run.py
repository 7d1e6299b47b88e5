#!/usr/bin/env python3
"""The ormaps benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each repetition of a workload runs in
a fresh interpreter, one closed-loop client that issues its next operation
only when the previous one has returned, with no threads or further
processes.  The seed drives the relabelling of the ``cli`` inputs and the
order of the ``corpus`` oracle sweep; ``certify`` and ``glue`` run fixed
specs and do not depend on it.

Times are given at the reference speed of ``perfbench/pace.py``: each raw
time is scaled by how fast the machine ran a fixed reference kernel in the
same span, because a shared host drifts in speed by up to 1.8 times from
minute to minute.  The raw times are printed as well.

``--trace 0`` repeats the workload while another repetition fits in
``--seconds`` (at least once) and reports the end-to-end metrics:

* ``wall_s``: time to run the workload's fixed operations, median over the
  repetitions.  Speed probes interrupt the operations on a timer; their
  own time is taken out, and their chunk times give the scale.
* ``peak_rss_mb``: peak resident memory of the workload's interpreter,
  median over the repetitions.
* ``setup_s``: interpreter start, import and input generation, up to the
  first timed operation, measured from just before the interpreter is
  started and scaled by reference chunks timed right after; median over
  ``SETUP_SAMPLES`` interpreters, the extra ones stopping after set-up.

Workloads with at least ``LATENCY_MIN_OPS`` operations (``corpus`` and
``cli``) also print their per-operation latency, ``op_p50_ms`` and
``op_p90_ms`` (median over the repetitions), with the sample count.

``--trace 1`` runs the workload twice untraced and twice traced, alternating,
and reports the per-layer metrics of ``perfbench/tracing.py`` (the lower
median of the two traced repetitions) plus ``trace.overhead_ratio``, the
best raw traced time over the best raw untraced one.  Traced repetitions
run without speed probes, so their per-layer times are raw.  The
counts that must repeat exactly (see ``EXACT_COUNTS``) are compared between
the two traced repetitions and with earlier runs of the same code and seed,
which are kept in ``.perfbench/exact-counts.json``; any difference marks
the run incorrect.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

WORKLOADS = ("certify", "glue", "corpus", "cli")
SETUP_SAMPLES = 7
SETUP_CHUNKS = 8  # kernel chunks timed right after set-up, to scale it
LATENCY_MIN_OPS = 100  # op percentiles are printed only above this many samples
DEADLINE_S = 170  # every child is killed before the whole run passes this
EXACT_COUNTS = (
    "walk.nodes",
    "glue.nodes",
    "canonical.calls",
    "core.validate_calls",
    "cutsets.subsets_computed",
)


# -- one repetition, in its own interpreter ---------------------------------------


def worker(args) -> int:
    sys.path.insert(0, str(SRC))
    import ormaps

    if Path(ormaps.__file__).resolve().parent != SRC / "ormaps":
        raise RuntimeError(f"imported ormaps from {ormaps.__file__}, not from {SRC}")
    import pace
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(args.seed, workdir)
        setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
        # the machine's speed right after set-up scales the set-up time
        nearby = pace.speed_sample(SETUP_CHUNKS)
        setup_scale = pace.scale(nearby)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s * setup_scale, "raw_setup_s": setup_s}))
            return 0

        # a traced repetition is not paced: its probes would land in the spans
        pacer = pace.Pacer(seed=args.seed)
        if tracer is None:
            pacer.start()
        results = []
        clock = time.perf_counter
        begin = clock()
        for label, thunk in workload.ops():
            start, probed = clock(), pacer.spent
            try:
                value, error = thunk(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                value, error = None, f"{type(exc).__name__}: {exc}"
            results.append((label, value, error, clock() - start - (pacer.spent - probed)))
        raw_wall_s = clock() - begin - pacer.spent
        pacer.stop()
        # a span too short for a single probe is scaled by the set-up sample
        scale = pace.scale(pacer.chunks or nearby)

        if tracer is not None:
            tracer.active = False
        problems = []
        failed = 0
        for label, value, error, _ in results:
            if error is None:
                try:
                    found = workload.check(label, value)
                except Exception as exc:  # a malformed output fails its check
                    found = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                found = [error]
            failed += bool(found)
            problems.extend(f"{label}: {p}" for p in found)
        out = {
            "setup_s": setup_s * setup_scale,
            "raw_setup_s": setup_s,
            "wall_s": raw_wall_s * scale,
            "raw_wall_s": raw_wall_s,
            "probes": len(pacer.chunks),
            "op_s": [r[3] * scale for r in results],
            "attempted": len(results),
            "failed": failed,
            "problems": problems[:20],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            tracer.dump(STATE / f"trace-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


# -- the orchestrating side --------------------------------------------------------


def spawn(args, deadline: float, *, trace: bool = False, setup_only: bool = False) -> dict:
    """One repetition in a fresh interpreter, killed at ``deadline``; its result."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    # bytecode is cached under .perfbench whatever the caller's settings, so
    # set-up time and memory do not depend on whether the caller keeps .pyc files
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(STATE / "pycache")
    command = [
        sys.executable, str(HERE / "run.py"), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if trace else "0",
    ]
    if setup_only:
        command.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"error": "no time left for another repetition"}
    command += ["--spawned-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"repetition killed after {timeout:.0f}s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"repetition exited {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.glob("ormaps/*.py"), *HERE.glob("*.py")]):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def exact_count_problems(args, reps: list[dict]) -> list[str]:
    """Counts that must repeat exactly, across reps and across runs."""
    counts = [{k: rep["layers"][k] for k in EXACT_COUNTS} for rep in reps]
    problems = [f"exact counts differ between repetitions: {c}" for c in counts[1:] if c != counts[0]]
    path = STATE / "exact-counts.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    key = f"{args.workload} seed={args.seed} code={code_digest()}"
    if key in record and record[key] != counts[0]:
        problems.append(f"exact counts {counts[0]} differ from an earlier run's {record[key]}")
    record.setdefault(key, counts[0])
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return problems


def latency(reps: list[dict]) -> tuple[float, float]:
    """Median over reps of each rep's p50 and p90 op latency, in ms."""
    deciles = [statistics.quantiles(rep["op_s"], n=10, method="inclusive") for rep in reps]
    return (statistics.median(d[4] for d in deciles) * 1000,
            statistics.median(d[8] for d in deciles) * 1000)


def orchestrate(args) -> int:
    if not (SRC / "ormaps" / "__init__.py").is_file():
        print(f"error: no ormaps sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    STATE.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    reps: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []

    def take(rep: dict, into: list[dict]) -> bool:
        if "error" in rep:
            errors.append(rep["error"])
            return False
        into.append(rep)
        return True

    # an unmeasured interpreter first, so that every measured one finds the
    # bytecode cache and the file cache warm
    take(spawn(args, deadline, setup_only=True), [])
    if args.trace:
        for _ in range(2):  # interleaved, so a slow spell hits both kinds alike
            take(spawn(args, deadline), reps)
            take(spawn(args, deadline, trace=True), traced)
    else:
        # repeat while another repetition fits in --seconds; at least once
        began = time.monotonic()
        while take(spawn(args, deadline), reps):
            elapsed = time.monotonic() - began
            per_rep = elapsed / len(reps)
            if elapsed + per_rep > args.seconds or deadline - time.monotonic() < 2 * per_rep:
                break
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    if not reps or (args.trace and not traced):
        return 1  # nothing was measured, so there is no result to report

    every = reps + traced
    # a crashed or killed repetition counts as one failed operation
    attempted = sum(rep["attempted"] for rep in every) + len(errors)
    failed = sum(rep["failed"] for rep in every) + len(errors)
    problems = [p for rep in every for p in rep["problems"]] + errors
    walls = [rep["wall_s"] for rep in reps]
    raw_walls = [rep["raw_wall_s"] for rep in reps]
    if args.trace:
        problems += exact_count_problems(args, traced)

    samples = len(reps[0]["op_s"])
    print(f"workload {args.workload}: seed {args.seed}, {len(reps)} untraced and "
          f"{len(traced)} traced repetitions, one closed-loop client per fresh interpreter")
    print(f"machine: {os.cpu_count()} cpus, Python {platform.python_version()}, "
          f"{platform.machine()}")
    print(f"wall_s per repetition: {' '.join(f'{w:.4f}' for w in walls)} "
          f"(raw {' '.join(f'{w:.4f}' for w in raw_walls)}; "
          f"{' '.join(str(rep['probes']) for rep in reps)} speed probes)")
    print(f"operations per repetition: {samples}; "
          f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted})")
    if samples >= LATENCY_MIN_OPS:
        p50, p90 = latency(reps)
        print(f"op_p50_ms: {p50:.4f} ms; op_p90_ms: {p90:.4f} ms ({samples} samples)")
    for problem in problems[:20]:
        print(f"check failed: {problem}")

    if args.trace:
        values = {
            name: statistics.median_low(rep["layers"][name] for rep in traced)
            for name in traced[0]["layers"]
        }
        values["trace.overhead_ratio"] = (
            min(rep["raw_wall_s"] for rep in traced) / min(raw_walls)
        )
        wanted = spec["per_layer"]
    else:
        setups = [rep["setup_s"] for rep in reps]
        raw_setups = [rep["raw_setup_s"] for rep in reps]
        while len(setups) < SETUP_SAMPLES:
            rep = spawn(args, deadline, setup_only=True)
            if "error" in rep:
                break  # out of time: the samples taken so far will do
            setups.append(rep["setup_s"])
            raw_setups.append(rep["raw_setup_s"])
        print(f"raw setup_s: median {statistics.median(raw_setups):.4f} s "
              f"over {len(raw_setups)} interpreters")
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-ns", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return worker(args) if args.worker else orchestrate(args)


if __name__ == "__main__":
    raise SystemExit(main())
