"""Run one benchmark workload and report its metrics (entry point: run.py).

A run saves the workload's generated inputs and loads them back through
the package, as `cluster --input` does, times fresh-process set-up, then
repeats passes over the workload's calls until `--seconds` would be
exceeded. Every output is checked against the oracles in `oracles.py`.
With `--trace 1`, untraced and traced passes alternate and the metrics are
the per-layer split from the traced ones.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import scipy

import oracles
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
PROBE_ROWS = 3  # rows of the random Z that probes each operator's quadratic form

# Timed in a fresh interpreter: package import plus loading every input file.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import subspace_lrr
for path in sys.argv[2:]:
    subspace_lrr.load_dataset(path)
print(time.perf_counter() - t0)
"""

# The seven end-to-end metrics every run prints. converged_frac and
# error_rate are not in BENCHMARK.json: both read 0 on this code, and a bound
# on a share of 0 means nothing. The result line carries error_rate as
# `failed` over `attempted`; converged_frac is also a per-layer metric.
SUMMARY_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "call_s_p50": "s",
    "accuracy_mean": "ratio",
    "converged_frac": "ratio",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


class SetupError(Exception):
    """The checkout lacks something the benchmark needs."""


@dataclass
class Pass:
    traced: bool
    durations: dict = field(default_factory=dict)  # call index -> seconds
    outputs: dict = field(default_factory=dict)    # call index -> output
    tracer: spans.Tracer | None = None
    ranks: list = field(default_factory=list)   # rank of each final Z, first traced pass


def import_package():
    """Import subspace_lrr from this checkout's `src`, never from elsewhere."""
    init = SRC / "subspace_lrr" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no package source at {init.parent}")
    sys.path.insert(0, str(SRC))
    import subspace_lrr
    from subspace_lrr import cli, clustering, datasets, hypergraph, metrics, solver

    if Path(subspace_lrr.__file__).resolve() != init.resolve():
        raise SetupError(f"subspace_lrr was imported from {subspace_lrr.__file__}")
    return SimpleNamespace(cli=cli, clustering=clustering, datasets=datasets,
                           hypergraph=hypergraph, metrics=metrics, solver=solver)


def load_inputs(pkg, work, tracer):
    """Save each generated input and load it back; the loaded copy must be exact."""
    paths, loaded = {}, {}
    for name, inp in work.inputs.items():
        path = OUT / f"{work.name}-{name}.csv"
        pkg.datasets.save_dataset(
            pkg.datasets.LabeledDataset(
                pkg.hypergraph.ObservationMatrix(inp.data), inp.labels, name
            ),
            path,
        )
        paths[name] = path
    with spans.installed(tracer, pkg) if tracer else contextlib.nullcontext():
        for name, path in paths.items():
            loaded[name] = pkg.datasets.load_dataset(path, name=name)
    for name, inp in work.inputs.items():
        ds = loaded[name]
        if not (np.array_equal(ds.observations.data, inp.data)
                and np.array_equal(ds.labels, inp.labels)):
            raise SetupError(f"input {name} did not survive the save/load round trip")
    return loaded, list(paths.values())


def measure_setup(paths, repeats):
    """Median seconds of fresh-process import plus input loading."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *map(str, paths)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def run_call(pkg, call, ds):
    if isinstance(call, workloads.Cell):
        cfg = pkg.solver.SolverConfig(**call.solver)
        return pkg.cli.run_method(ds, call.method, call.k, cfg, dict(call.method_params),
                                  seed=call.seed)
    obs = ds.observations
    if call.builder == "epsilon-ball":
        graph = pkg.hypergraph.epsilon_ball_hyperedges(obs, call.param, mode="quantile")
        return graph, pkg.hypergraph.locality_operator_from_hypergraph(graph)
    if call.builder == "knn-graph":
        return None, pkg.hypergraph.knn_graph_laplacian(obs, call.param)
    return None, pkg.hypergraph.knn_hypergraph_laplacian(obs, call.param)


def is_solver_cell(call):
    return isinstance(call, workloads.Cell) and call.method not in ("kmeans", "ncut")


def check_call(call, output, inp, probe):
    """Problems with one call's output, by the oracles."""
    if isinstance(call, workloads.Cell):
        report, z = output
        problems = oracles.check_labels(report["labels"], inp.labels, call.k,
                                        report["accuracy"])
        if is_solver_cell(call):
            problems += oracles.check_solve(z, report["iterations"],
                                            report["residual_history"],
                                            inp.data.shape[1], call.solver["max_iter"])
        return problems
    graph, operator = output
    if call.builder == "epsilon-ball":
        return oracles.check_clique_operator(operator, graph, inp.data, probe)
    return oracles.check_knn_operator(operator, call.builder, inp.data, call.param, probe)


def fingerprint(output):
    """What a repeated call must reproduce exactly."""
    first, second = output
    if isinstance(first, dict):
        return (tuple(first["labels"]), first["accuracy"], first["iterations"],
                tuple(first["residual_history"][-1:]))
    return hashlib.sha256(second.matrix.tobytes()).hexdigest()


def run_passes(pkg, work, loaded, seconds, trace, seed):
    """Passes over the workload's calls until the next would overrun `seconds`.

    Returns the passes, plus the counts of calls attempted and failed. A call
    fails when it raises or an oracle rejects its output; later passes must
    reproduce the first pass's outputs exactly.
    """
    probes = {
        name: np.random.default_rng(seed).normal(size=(PROBE_ROWS, inp.data.shape[1]))
        for name, inp in work.inputs.items()
    }
    reference, passes, walls = {}, [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        began = perf_counter()
        p = Pass(traced=trace and len(passes) % 2 == 1)
        p.tracer = spans.Tracer() if p.traced else None
        with spans.installed(p.tracer, pkg) if p.traced else contextlib.nullcontext():
            for i, call in enumerate(work.calls):
                attempted += 1
                if p.tracer:
                    p.tracer.call = i
                try:
                    t0 = perf_counter()
                    output = run_call(pkg, call, loaded[call.input])
                    p.durations[i] = perf_counter() - t0
                except Exception:  # a failing call is counted, and the run goes on
                    failed += 1
                    traceback.print_exc()
                    continue
                p.outputs[i] = output
        for i, output in p.outputs.items():
            call = work.calls[i]
            if i in reference:
                problems = [] if fingerprint(output) == reference[i] else [
                    "output differs from the first pass"]
            else:
                problems = check_call(call, output, work.inputs[call.input],
                                      probes[call.input])
                reference[i] = fingerprint(output)
            if problems:
                failed += 1
                print(f"check failed: call {i} {call}: {'; '.join(problems)}",
                      file=sys.stderr)
        if p.traced and not any(q.traced for q in passes):
            # Numerical rank of each final Z, computed here, outside every timer.
            p.ranks = [int(np.linalg.matrix_rank(p.outputs[i][1]))
                       for i in p.outputs if is_solver_cell(work.calls[i])]
        if passes:
            p.outputs = {}  # only the first pass's outputs are reported
        passes.append(p)
        walls.append(perf_counter() - began)
        enough = len(passes) >= (2 if trace else 1)
        if enough and perf_counter() - start + statistics.median(walls) > seconds:
            return passes, attempted, failed


def _ratio(a, b):
    return a / b if b else 0.0


def best_times(passes):
    """Min-of-k: call index -> the call's fastest time over `passes`.

    Contention from other work on the machine only ever adds time, and on a
    shared machine it comes and goes over tens of seconds; a call's fastest
    time is the steadiest estimate of its own cost.
    """
    calls = sorted({i for p in passes for i in p.durations})
    return {i: min(p.durations[i] for p in passes if i in p.durations) for i in calls}


def end_to_end(work, passes, setup_s, attempted, failed):
    untraced = [p for p in passes if not p.traced]
    first = passes[0].outputs
    cells = [i for i, c in enumerate(work.calls) if isinstance(c, workloads.Cell) and i in first]
    solves = [i for i in cells if is_solver_cell(work.calls[i])]
    best = best_times(untraced)
    return {
        "setup_s": setup_s,
        "run_s": sum(best.values()),
        "call_s_p50": statistics.median(best.values()),
        "accuracy_mean": statistics.fmean(first[i][0]["accuracy"] for i in cells),
        "converged_frac": (
            sum(first[i][0]["converged"] for i in solves) / len(solves) if solves else None
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": failed / attempted,
    }, f"{len(best)} calls, min of {len(untraced)} passes"


def layer_metrics(tracer, ranks):
    """Per-layer metrics of one traced pass."""
    total, own, calls = tracer.totals()
    counts, values = tracer.counts, tracer.values
    solve_s = total["solver.solve"]
    m = {
        "solver.svt.share": _ratio(total["solver.svt"], solve_s),
        "solver.iterations": counts["iterations"],
        "solver.mu_growths": int(counts["mu_growths"]),
        "solver.final_change_max": max(values["final_change"], default=0.0),
        "solver.final_residual_max": max(values["final_residual"], default=0.0),
        "solver.solve.self_s": float(own["solver.solve"]),
        "solver.solve.calls": calls["solver.solve"],
        "solver.iter_ms": 1000.0 * _ratio(solve_s, counts["iterations"]),
        "solver.rank_Z_mean": statistics.fmean(ranks) if ranks else 0.0,
        "converged_frac": _ratio(counts["converged"], calls["solver.solve"]),
        "hypergraph.edges": counts["edges"],
        "hypergraph.edge_size_max": max(values["edge_size"], default=0),
        "hypergraph.operator_nnz_frac": (
            statistics.fmean(values["operator_nnz_frac"]) if values["operator_nnz_frac"] else 0.0
        ),
        "clustering.ncut_spectral.self_s": float(own["clustering.ncut_spectral"]),
        "cli.run_method.self_s": float(own["cli.run_method"]),
    }
    for name in ("solver.svt", "solver.solve", "solver.grad_q", "solver.update_E",
                 "solver.update_J", "solver.update_multipliers", "solver.check_convergence",
                 "clustering.ncut_spectral", "clustering.kmeans",
                 "clustering.affinity_from_coefficients", "metrics.accuracy"):
        m[name + ".s"] = float(total[name])
    for name in ("hypergraph.epsilon_ball_hyperedges",
                 "hypergraph.locality_operator_from_hypergraph",
                 "hypergraph.knn_graph_laplacian", "hypergraph.knn_hypergraph_laplacian",
                 "hypergraph.pairwise_distances"):
        m[name + ".s"] = float(total[name])
        m[name + ".calls"] = calls[name]
    return m


def per_layer(passes, setup_tracer):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = [layer_metrics(p.tracer, traced[0].ranks) for p in traced]
    # Counts repeat exactly from pass to pass; times are medians over the passes.
    m = {
        name: value if isinstance(value, int) else statistics.median(p[name] for p in per_pass)
        for name, value in per_pass[0].items()
    }
    m["datasets.load_dataset.s"] = setup_tracer.totals()[0]["datasets.load_dataset"]
    m["trace_overhead_frac"] = (
        sum(best_times(traced).values()) / sum(best_times(untraced).values()) - 1.0
    )
    return m


def environment(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "subspace_lrr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and budgets, to test the benchmark itself")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        pkg = import_package()
        work = workloads.build(args.workload, args.seed, smoke=args.smoke)
        OUT.mkdir(exist_ok=True)
        setup_tracer = spans.Tracer() if args.trace else None
        loaded, paths = load_inputs(pkg, work, setup_tracer)
        setup_s = None if args.trace else measure_setup(paths, 1 if args.smoke else SETUP_REPEATS)
    except (OSError, ImportError, SetupError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    passes, attempted, failed = run_passes(pkg, work, loaded, args.seconds, args.trace,
                                           args.seed)
    env = environment(args)
    summary, samples = end_to_end(work, passes, setup_s, attempted, failed)
    if args.trace:
        declared = spec["per_layer"]
        measured = per_layer(passes, setup_tracer)
    else:
        declared = spec["end_to_end"]
        measured = summary
    units = {m["name"]: m["unit"] for m in declared}

    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"calls={attempted} failed={failed}")
    for name, value in summary.items():
        if name == "setup_s" and value is None:
            continue
        unit = SUMMARY_UNITS[name]
        note = f" ({samples})" if name in ("run_s", "call_s_p50") else ""
        print(f"  {name:<16} {value!r} {unit}{note}")
    print("env " + json.dumps(env))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in units.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env,
        "summary": summary,
        "samples": samples,
        "pass_s": [sum(p.durations.values()) for p in passes],
        "pass_call_s": [[p.durations.get(i) for i in range(len(work.calls))] for p in passes],
        "pass_traced": [p.traced for p in passes],
        # Each call's fastest time over the untraced passes, in pass order.
        "call_s": [[str(work.calls[i]), best] for i, best in
                   best_times([p for p in passes if not p.traced]).items()],
        **result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for n, p in enumerate(passes):
                for span in p.tracer.spans if p.traced else ():
                    fh.write(json.dumps([n, *span]) + "\n")
    print(json.dumps(result))
    return 0
