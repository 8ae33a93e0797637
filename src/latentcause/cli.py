"""Command line front end: simulate, fit, estimate, rank, benchmark.

Exit codes are 0 on success, 1 for usage and file-system problems, and 2
for numerical or degeneracy failures raised by the estimation layers.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .benchmark import _fit, run_benchmark, summarize
from .causal import _ate_by_component, estimate_cate
from .dataio import (
    _jsonable,
    _load_json,
    load_model,
    read_dataset,
    save_model,
    scenario_from_dict,
    truth_path,
    write_dataset,
    write_report,
    write_truth,
)
from .errors import DegenerateSpectrum, InvalidConfig, LatentCauseError
from .kernels import KernelSpec
from .mixture import _seed_sequence, scree, scree_discrete, select_rank
from .multitreatment import MultiTreatmentModel, mt_ate, mt_cate
from .scenarios import _DESIGNS

USAGE_EXIT = 1
NUMERIC_EXIT = 2

SCENARIO_NAMES = {name: mode for mode, (name, *_) in _DESIGNS.items()}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit 1 instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from None
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError("sample sizes must be positive integers")
    return values


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated number list, got {text!r}"
        ) from None


def cmd_simulate(args) -> int:
    _, builtin, simulate, _ = _DESIGNS[args.mode]
    if args.scenario_config is not None:
        doc = _load_json(args.scenario_config)
        scenario = scenario_from_dict(doc)
        if doc["mode"] != args.mode:
            raise InvalidConfig(
                f"scenario config describes the other mode; expected {args.mode}"
            )
    else:
        scenario = builtin()
    data, labels = simulate(scenario, args.n, seed=args.seed)
    write_dataset(args.out, data)
    sidecar = truth_path(args.out)
    write_truth(sidecar, scenario, labels, seed=args.seed, n=args.n)
    print(f"wrote {args.n} rows to {args.out} (truth sidecar: {sidecar})")
    return 0


def cmd_fit(args) -> int:
    data, mode = read_dataset(args.input)
    kernel = KernelSpec(bandwidth=args.bandwidth, landmark_count=args.landmarks)
    try:
        model = _fit(mode, data, args.k, kernel, args.seed)
    except DegenerateSpectrum as exc:
        raise DegenerateSpectrum(
            f"mixture stage: degenerate spectrum at k={args.k}: {exc}"
        ) from None
    save_model(args.out, model)
    diagnostics = {
        "mode": mode,
        "k": args.k,
        "priors": [float(p) for p in model.priors],
        "mixture": model.mixture.diagnostics,
        "stages": model.diagnostics,
    }
    print(json.dumps(_jsonable(diagnostics), sort_keys=True), file=sys.stderr)
    print(f"wrote model to {args.out}")
    return 0


def _estimate_ate_doc(model, points: list[float]) -> dict:
    if isinstance(model, MultiTreatmentModel):
        return {
            "estimand": "ate",
            "inputs": {"a": points},
            "value": mt_ate(model, points),
            "per_component": [mt_cate(model, u, points)
                              for u in range(model.n_components)],
        }
    per_component = [_ate_by_component(model, a) for a in points]
    return {
        "estimand": "ate",
        "inputs": {"a": points},
        "value": [float(model.priors @ pc) for pc in per_component],
        "per_component": [pc.tolist() for pc in per_component],
    }


def _estimate_cate_doc(model, args) -> dict:
    if isinstance(model, MultiTreatmentModel):
        if args.z is not None:
            raise InvalidConfig("multitreatment models take no proxy values")
        value = mt_cate(model, args.u, args.a)
        inputs = {"u": args.u, "a": args.a}
    else:
        if len(args.a) != 1:
            raise InvalidConfig(
                f"cate takes a single treatment value, got {len(args.a)}"
            )
        if args.z is None:
            raise InvalidConfig("a multiproxy cate needs the proxy values (--z)")
        value = estimate_cate(model.outcome, args.u, args.a[0], np.asarray(args.z))
        inputs = {"u": args.u, "a": args.a[0], "z": list(args.z)}
    return {"estimand": "cate", "inputs": inputs, "value": value}


def cmd_estimate(args) -> int:
    model = load_model(args.model)
    if args.estimand == "ate":
        doc = _estimate_ate_doc(model, args.a)
    else:
        doc = _estimate_cate_doc(model, args)
    print(json.dumps(doc, indent=2))
    return 0


def cmd_rank(args) -> int:
    if args.max_k < 2:
        raise InvalidConfig(f"max-k must be at least 2 to pick a rank, got {args.max_k}")
    data, mode = read_dataset(args.input)
    _seed_sequence(args.seed)   # refused for both modes, though only the kernel scree draws
    n = data["a" if mode == "multiproxy" else "a1"].shape[0]
    max_k = args.max_k
    if max_k > n:
        print(f"max-k {max_k} exceeds the {n} samples; clipping to {n}",
              file=sys.stderr)
        max_k = n
    if mode == "multiproxy":
        kernel = KernelSpec(bandwidth=args.bandwidth,
                            landmark_count=args.landmarks)
        values = scree(data["z1"], data["z2"], kernel=kernel, max_k=max_k,
                       seed=args.seed)
    else:
        values = scree_discrete(data["a1"], data["a2"], max_k=max_k)
    rank = select_rank(values)
    print("singular values: " + " ".join(f"{v:.6g}" for v in values))
    print(f"selected rank: {rank}")
    if args.out:
        np.savetxt(args.out, np.column_stack([np.arange(1, values.shape[0] + 1), values]),
                   fmt=["%d", "%.17g"], delimiter=",", header="index,singular_value",
                   comments="")
    return 0


def cmd_benchmark(args) -> int:
    mode = SCENARIO_NAMES[args.scenario]
    rows = run_benchmark(mode, args.ns, args.trials, seed=args.seed,
                         workers=args.workers, bandwidth=args.bandwidth,
                         landmarks=args.landmarks)
    write_report(args.out, rows)
    for entry in summarize(rows):
        print("n={n} {parameter}: median abs error {median_abs_error:.4f} "
              "(p90 {p90_abs_error:.4f}, {rows} rows, {failed_trials} failed "
              "trials)".format(**entry))
    print(f"wrote report to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="latentcause",
                     description="Causal effect estimation under a latent "
                                 "categorical confounder.")
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    kernel = argparse.ArgumentParser(add_help=False)
    kernel.add_argument("--bandwidth", type=float, default=KernelSpec.bandwidth)
    kernel.add_argument("--landmarks", type=int, default=KernelSpec.landmark_count)

    p = sub.add_parser("simulate", parents=[seeded], help="draw a synthetic dataset")
    p.add_argument("mode", choices=tuple(_DESIGNS))
    p.add_argument("--scenario-config", default=None,
                   help="JSON file with scenario parameters (default: built-in)")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("fit", parents=[seeded, kernel],
                       help="fit the mixture and effect models")
    p.add_argument("--input", required=True, help="dataset CSV path")
    p.add_argument("--k", type=int, required=True, help="component count")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("estimate", help="evaluate effects from a saved model")
    p.add_argument("--model", required=True, help="model JSON path")
    est = p.add_subparsers(dest="estimand", required=True)
    pa = est.add_parser("ate", help="average treatment effect")
    pa.add_argument("--a", nargs="+", type=float, required=True,
                    help="intervention values (three values form one "
                         "multitreatment point)")
    pc = est.add_parser("cate", help="component-conditional effect")
    pc.add_argument("--u", type=int, required=True, help="component index")
    pc.add_argument("--a", nargs="+", type=float, required=True)
    pc.add_argument("--z", type=_float_list, default=None,
                    help="comma-separated proxy values")
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("rank", parents=[seeded, kernel], help="spectral rank diagnostic")
    p.add_argument("--input", required=True, help="dataset CSV path")
    p.add_argument("--max-k", type=int, default=10, dest="max_k")
    p.add_argument("--out", default=None, help="optional CSV of the spectrum")
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("benchmark", parents=[seeded, kernel],
                       help="seeded recovery sweep over sample sizes")
    p.add_argument("--scenario", choices=tuple(SCENARIO_NAMES), required=True)
    p.add_argument("--ns", type=_int_list, default=[500, 1000, 2000, 4000],
                   help="comma-separated sample sizes")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(handler=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except LatentCauseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
