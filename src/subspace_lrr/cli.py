"""Command-line front end: generate datasets, run one method, or benchmark.

Exit codes: 0 success, 2 usage/input error or a failed linear-algebra
kernel, 3 completed with a non-converged solver (the report is still
written).
"""

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import clustering, datasets, hypergraph, metrics
from .errors import InvalidInputError, InvalidParameterError, NumericalError, ParseError
from .solver import SolverConfig, solve

METHODS = ("kmeans", "ncut", "lrr", "graph-lrr", "lrlrr", "tlr-lrr")
GENERATORS = {"two-moons": datasets.two_moons, "three-circles": datasets.three_circles}

# Method-side defaults; config file then CLI flags override these.
DEFAULT_METHOD_PARAMS = {
    "eps": 0.05,          # absolute epsilon-ball radius
    "eps_mode": "absolute",
    "knn_k": 5,           # neighborhood size for the kNN baselines
}

# Frozen settings for the synthetic benchmark suite, tuned once and fixed.
# The quantile epsilon mode keeps the ball radius meaningful on both
# datasets despite their very different scales. Two-moons, with its large
# beta, has the larger iteration budget. No solve of the grid meets the
# stop test within its budget, so each cell runs it in full.
BENCHMARK_CONFIG = {
    "two-moons": {
        "generator": {"n_per_moon": 100, "noise_sigma": 0.04},
        "k": 2,
        "method_params": {"eps": 0.10, "eps_mode": "quantile", "knn_k": 5},
        "solver": {"beta": 800.0, "mu0": 1.0, "max_iter": 4000},
    },
    "three-circles": {
        "generator": {"n_per_circle": 66, "radii": (1.0, 2.0, 3.0), "noise_sigma": 0.05},
        "k": 3,
        "method_params": {"eps": 0.05, "eps_mode": "quantile", "knn_k": 5},
        "solver": {"beta": 10.0, "mu0": 1.0, "max_iter": 2000},
    },
}


def _gaussian_affinity(obs):
    """Kernel affinity for the raw-data NCut baseline; bandwidth is the
    median pairwise distance.

    Distances and bandwidth are first scaled by the power of two that brings
    the bandwidth into [0.5, 1), so neither square overflows or underflows
    at any data scale. The scaling is exact, so data whose squares already
    fit get the same affinity, bit for bit.
    """
    dist = obs.pairwise_distances()
    iu = np.triu_indices(obs.n, k=1)
    sigma = np.median(dist[iu])
    sigma = sigma if sigma > 0 else 1.0
    exponent = np.frexp(sigma)[1]
    w = np.ldexp(dist, -exponent, out=dist)
    np.square(w, out=w)
    w /= -2.0 * np.ldexp(sigma, -exponent) ** 2
    np.exp(w, out=w)
    np.fill_diagonal(w, 0.0)
    return w


def build_locality(method, obs, params):
    """Locality operator for a solver method (None for plain lrr)."""
    if method == "lrr":
        return None
    if method == "graph-lrr":
        return hypergraph.knn_graph_laplacian(obs, params["knn_k"])
    if method == "lrlrr":
        return hypergraph.knn_hypergraph_laplacian(obs, params["knn_k"])
    if method == "tlr-lrr":
        graph = hypergraph.epsilon_ball_hyperedges(
            obs, params["eps"], mode=params["eps_mode"]
        )
        return hypergraph.locality_operator_from_hypergraph(graph)
    raise InvalidParameterError(f"unknown solver method: {method!r}")


def run_method(dataset, method, k, solver_cfg=None, method_params=None, seed=0):
    """End-to-end run of one method on one dataset; returns a report dict."""
    if method not in METHODS:
        raise InvalidParameterError(f"unknown method: {method!r}")
    params = dict(DEFAULT_METHOD_PARAMS, **(method_params or {}))
    cfg = solver_cfg or SolverConfig()
    obs = dataset.observations
    t0 = time.perf_counter()

    report = {
        "method": method,
        "dataset": dataset.name,
        "generator_params": dict(dataset.generator_params),
        "seed": seed,
        "k": k,
        "solver_config": asdict(cfg),
        "method_params": params,
        "converged": True,  # the baselines run no solver; a solve overwrites these
        "iterations": 0,
        "svt_fallbacks": 0,
        "residual_history": [],
    }
    coefficients = None
    if method == "kmeans":
        labels = clustering.kmeans(obs.data.T, k, seed=seed)
    elif method == "ncut":
        labels = clustering.ncut_spectral(_gaussian_affinity(obs), k, seed=seed)
    else:
        locality = build_locality(method, obs, params)
        result = solve(obs, locality, cfg)
        affinity = clustering.affinity_from_coefficients(result.Z)
        labels = clustering.ncut_spectral(affinity, k, seed=seed)
        coefficients = result.Z
        report["converged"] = bool(result.converged)
        report["iterations"] = result.iterations
        report["svt_fallbacks"] = result.svt_fallbacks
        report["residual_history"] = result.residual_history

    report["labels"] = [int(v) for v in labels]
    report["accuracy"] = None if dataset.labels is None else metrics.accuracy(labels, dataset.labels)
    report["wall_time_ms"] = 1000.0 * (time.perf_counter() - t0)
    return report, coefficients


def _write_report(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def _load_solver_config(config_path, overrides):
    """SolverConfig and method parameters from a JSON file, then from the
    non-None flags in `overrides`. Each value must have its default's type;
    an int counts as a number, a bool never does."""
    file_cfg = {}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{config_path} is not valid UTF-8: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise InvalidParameterError("config file must hold a JSON object")
    defaults = dict(asdict(SolverConfig()), **DEFAULT_METHOD_PARAMS)
    flags = {key: val for key, val in overrides.items() if val is not None}
    values = {}
    method_params = {}
    for key, val in [*file_cfg.items(), *flags.items()]:
        if key not in defaults:
            raise InvalidParameterError(f"unknown config key: {key!r}")
        kind = type(defaults[key])
        allowed = (int, float) if kind is float else kind
        if isinstance(val, bool) or not isinstance(val, allowed):
            raise InvalidParameterError(f"config key {key!r} must be of type {kind.__name__}")
        (method_params if key in DEFAULT_METHOD_PARAMS else values)[key] = val
    return SolverConfig(**values), method_params


def cmd_generate(args):
    extra = {} if args.radii is None else {"radii": args.radii}
    if extra and args.dataset != "three-circles":
        raise InvalidParameterError("--radii applies to three-circles only")
    ds = GENERATORS[args.dataset](args.n, noise_sigma=args.noise, seed=args.seed, **extra)
    datasets.save_dataset(ds, args.out)
    return 0


def cmd_cluster(args):
    ds = datasets.load_dataset(args.input)
    overrides = {"eps": args.eps, "eps_mode": args.eps_mode, "knn_k": args.knn_k,
                 "max_iter": args.max_iter}
    cfg, method_params = _load_solver_config(args.config, overrides)
    report, _ = run_method(
        ds, args.method, args.k, cfg, method_params, seed=args.seed
    )
    if args.report:
        _write_report(report, args.report)
    if report["accuracy"] is not None:
        print(f"{args.method} accuracy: {report['accuracy']!r}")
    return 0 if report["converged"] else 3


def cmd_benchmark(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = {}
    cell = 0
    for ds_name, spec in BENCHMARK_CONFIG.items():
        ds = GENERATORS[ds_name](seed=args.seed, **spec["generator"])
        k = spec["k"]
        cfg = SolverConfig(**spec["solver"])
        method_params = spec["method_params"]
        for method in METHODS:
            cell_seed = args.seed * 100 + cell
            report, coefficients = run_method(
                ds, method, k, cfg, method_params, seed=cell_seed
            )
            _write_report(report, out_dir / f"{method}_{ds_name}.json")
            if coefficients is not None:
                np.savetxt(
                    out_dir / f"{method}_{ds_name}_Z.txt", coefficients, fmt="%.17g"
                )
            summary.setdefault(method, {})[ds_name] = report["accuracy"]
            cell += 1

    lines = [",".join(["method", *BENCHMARK_CONFIG])]
    for method in METHODS:
        lines.append(",".join([method, *map(repr, summary[method].values())]))
    misses = []
    if summary["tlr-lrr"]["two-moons"] < 0.95:
        misses.append("tlr-lrr two-moons below 0.95")
    if summary["tlr-lrr"]["three-circles"] < 0.90:
        misses.append("tlr-lrr three-circles below 0.90")
    lines.append("misses," + (";".join(misses) if misses else "none"))
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subspace-lrr",
        description="Locality-regularized low-rank subspace clustering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset file")
    gen.add_argument("dataset", choices=GENERATORS)
    gen.add_argument("--n", type=int, default=100, help="points per cluster")
    gen.add_argument("--noise", type=float, default=0.06)
    gen.add_argument("--radii", type=float, nargs=3, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    clu = sub.add_parser("cluster", help="cluster a dataset file with one method")
    clu.add_argument("--input", required=True)
    clu.add_argument("--method", required=True, choices=METHODS)
    clu.add_argument("--k", type=int, required=True)
    clu.add_argument("--config", default=None, help="JSON config file")
    clu.add_argument("--seed", type=int, default=0)
    clu.add_argument("--report", default=None, help="JSON report output path")
    clu.add_argument("--eps", type=float, default=None)
    clu.add_argument("--eps-mode", dest="eps_mode", choices=["absolute", "quantile"], default=None)
    clu.add_argument("--knn-k", dest="knn_k", type=int, default=None)
    clu.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    clu.set_defaults(func=cmd_cluster)

    ben = sub.add_parser("benchmark", help="run the synthetic benchmark suite")
    ben.add_argument("--out-dir", required=True)
    ben.add_argument("--seed", type=int, default=0)
    ben.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, InvalidParameterError, NumericalError, ParseError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
