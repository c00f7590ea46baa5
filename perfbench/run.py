"""End-to-end and per-layer benchmark of posr's verify, search and aut.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; posr is imported from ``src``.
One process, one thread, closed loop: each ``posr.cli.run`` call starts when
the previous one has returned, and a pass (the workload's calls in order) is
repeated until ``--seconds`` have elapsed.  Every output is checked against
the hand-written reference after the timed loop.

``--trace 0`` prints the end-to-end metrics: medians over passes of the wall
and CPU time per pass, the median of set-up times measured in fresh
interpreters started between passes all through the run, and the process's
peak RSS.  ``--trace 1`` runs pairs of one untraced and one traced pass over
pass 0's inputs and prints the per-layer metrics of the traced passes, plus
the tracing overhead.  The metric names and units are read from
BENCHMARK.json.  The last line of standard output is the result as one JSON
object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 15
MIN_TRACED_PASSES = 2
# numpy's BLAS starts a pool of threads when it is imported, which makes
# set-up depend on how busy the other cores are.  posr makes no BLAS calls,
# and the benchmark runs on one thread, so the pool is held to one thread in
# this process and in every set-up interpreter.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_time() -> float:
    """Set-up seconds of posr in a fresh interpreter (setup_probe.py)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)  # looked up per call, so a tracer's wrapper is used
    return argv, rc, out.getvalue()


def run_pass(cli, argvs):
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    results = [call(cli, argv) for argv in argvs]
    return time.perf_counter() - w0, time.process_time() - c0, results


def _without_elapsed(value):
    if isinstance(value, dict):
        return {k: _without_elapsed(v) for k, v in value.items() if k != "elapsed_s"}
    if isinstance(value, list):
        return [_without_elapsed(v) for v in value]
    return value


def comparable(results):
    """Outputs with the self-reported timings removed."""
    out = []
    for argv, rc, stdout in results:
        try:
            stdout = _without_elapsed(json.loads(stdout))
        except ValueError:
            pass
        out.append((argv, rc, stdout))
    return out


def git_commit() -> str | None:
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
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "posr").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, kernels, numpy) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernels.BACKEND": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def measure(cli, workload, seconds, outputs_path):
    """Untraced closed loop.  Each pass's outputs go to disk, so the peak RSS
    does not grow with the number of passes.

    The SETUP_SAMPLES set-up times are taken between passes, spread evenly
    over the run, so that they see the same spells of machine speed as the
    passes do.  Their time does not count against ``seconds``.  One more is
    taken first and dropped: it writes the bytecode caches of a fresh
    checkout."""
    walls, cpus, setups = [], [], []
    setup_time()
    start = time.perf_counter()
    in_setup = 0.0
    with open(outputs_path, "w") as f:
        while not walls or time.perf_counter() - in_setup < start + seconds:
            argvs = workload.calls(len(walls))
            wall, cpu, results = run_pass(cli, argvs)
            walls.append(wall)
            cpus.append(cpu)
            f.write(json.dumps({"pass": len(walls) - 1, "results": results}) + "\n")
            share = min(1.0, (time.perf_counter() - in_setup - start) / seconds)
            t0 = time.perf_counter()
            while len(setups) < int(SETUP_SAMPLES * share):
                setups.append(setup_time())
            in_setup += time.perf_counter() - t0
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_time())
    return walls, cpus, setups


def check_outputs(workload, outputs_path, oracle):
    attempted, problems = 0, []
    with open(outputs_path) as f:
        for line in f:
            record = json.loads(line)
            n, found = workload.check(record["pass"], record["results"], oracle)
            attempted += n
            problems += found
    return attempted, problems


def measure_traced(cli, workload, seconds, spans_path):
    """Pairs of one untraced and one traced pass over pass 0's inputs; the
    pairs alternate which of the two runs first.  The tracing overhead is the
    median over pairs of the traced pass's wall time minus its partner's."""
    from spans import Tracer, layer_metrics

    argvs = workload.calls(0)
    untraced, traced, problems = [], [], []
    first_outputs = first_counts = None
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        traced_first = len(traced) % 2 == 1
        if not traced_first:
            wall, _, results = run_pass(cli, argvs)
        with Tracer() as tracer:
            traced_wall, _, traced_results = run_pass(cli, argvs)
        if traced_first:
            wall, _, results = run_pass(cli, argvs)
        untraced.append(wall)
        metrics = layer_metrics(tracer)
        metrics["trace.wall_s"] = traced_wall
        traced.append(metrics)
        if comparable(traced_results) != comparable(results):
            problems.append(f"traced pass {len(traced)}: outputs differ from the untraced pass")
        if first_counts is None:
            first_outputs, first_counts = results, dict(tracer.counts)
            tracer.write(spans_path)
        elif dict(tracer.counts) != first_counts:
            problems.append(f"traced pass {len(traced)}: counts differ from the first traced pass")
    layer = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    del layer["trace.wall_s"]
    layer["trace.overhead_s"] = statistics.median(
        m["trace.wall_s"] - wall for m, wall in zip(traced, untraced))
    return layer, first_outputs, problems, {"untraced_walls": untraced,
                                            "traced_walls": [m["trace.wall_s"] for m in traced]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "posr" / "cli.py").is_file():
        print(f"error: no posr sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    os.environ.update(ONE_THREAD)
    sys.path.insert(0, str(SRC))
    import numpy

    from posr import cli, kernels
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = WORKLOADS[args.workload](args.seed, OUT)
    record = {"env": environment(args, kernels, numpy)}

    if args.trace:
        metrics, outputs, problems, record["passes"] = measure_traced(
            cli, workload, args.seconds, OUT / f"spans-{stem}.json.gz")
        from oracle import Oracle

        attempted, found = workload.check(0, outputs, Oracle())
        failed = len(found)
        problems += found
    else:
        outputs_path = OUT / f"outputs-{stem}.jsonl"
        walls, cpus, setup = measure(cli, workload, args.seconds, outputs_path)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        from oracle import Oracle

        attempted, problems = check_outputs(workload, outputs_path, Oracle())
        failed = len(problems)
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        record["passes"] = {"walls": walls, "cpus": cpus, "setups": setup}

    if set(metrics) != {m["name"] for m in declared}:
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json declares "
              f"{sorted(m['name'] for m in declared)}", file=sys.stderr)
        return 2
    record["problems"] = problems
    record["metrics"] = metrics
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems[:20]:
        print("problem:", problem, file=sys.stderr)
    print(json.dumps({"env": record["env"], "passes": record["passes"]}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
