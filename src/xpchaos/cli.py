"""Command-line front door: experiment runs, cocycle checks, norms, operators.

Subcommands
-----------
verify      run one inequality experiment and write a JSON report
check       certify a cocycle (PSD kernels, Gram identity, completeness)
norm        compute an Lp norm of a serialized element
apply       apply a named operator to a serialized element
scan-suite  run the full acceptance battery

Exit codes: 0 success, 2 validation error, 3 numerical-sanity failure.
Reports embed the artifact version and a hash of the canonical config, and
rerunning with the same seed reproduces them byte for byte except for
``runtime_ms``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, operators
from .acceptance import run_all
from .cocycles import (COCYCLE_FAMILIES, FAMILIES, BasisVector, build_cocycle,
                       cocycle_family, completeness_defect, conditional_negativity_check,
                       gram_matrix)
from .groups import (TORUS, GroupAlgebraElement, GroupDescriptor, adjoint,
                     project_mean_zero, random_group_elements)
from .harness import DERIVATIVE_CHOICES, ENSEMBLE_KINDS, EnsembleSpec, scan
from .norms import NumericalSanityError, lp_norm, lp_norm_torus_refined


def _config_hash(params: dict) -> str:
    canonical = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_report(report: dict, out: str) -> None:
    Path(out).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _write_csv(report: dict, path: str) -> None:
    fields = ["experiment", "lhs", "rhs", "ratio", "max_ratio", "trials",
              "seed", "monte_carlo", "config_hash"]
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        writer.writerow({key: report.get(key) for key in fields})


def _parse_k(text: str, n: int) -> list[int]:
    if text == "all":
        return list(range(1, n + 1))
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _resolve(args: argparse.Namespace, config: dict, keys: list[str]) -> dict:
    """Config-file values overridden by explicitly passed flags."""
    resolved = {}
    for key in keys:
        flag_value = getattr(args, key.replace("-", "_"), None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif config.get(key) is not None:
            resolved[key] = config[key]
    return resolved


# -- verify -------------------------------------------------------------------


#: what the naor verbs read from the options; "ps" repeats --p as a list
_NAOR = {"n": 4, "p": 4.0, "ks": "1", "ps": 4.0}

#: verify verb -> (scan experiment, params the verb fixes, params read from the
#: options, with their defaults)
VERIFY_VERBS = {
    "naor": ("naor", {"family": "hypercube"}, {**_NAOR, "derivative": "walsh"}),
    "torus": ("naor", {"family": "torus"}, {**_NAOR, "bound": 2, "derivative": "euclidean"}),
    "ztorus": ("naor", {"family": "cyclic"}, {**_NAOR, "modulus": 4, "derivative": "absorbent"}),
    "xp-linear": ("xp_linear", {}, {"n": 4, "p": 4.0, "ks": "1", "d": 4}),
    "rosenthal": ("rosenthal", {}, {"n": 4, "p": 4.0, "ks": "1"}),
    "riesz": ("riesz_equivalence", {},
              {"n": 4, "p": 4.0, "family": "cyclic", "modulus": 4, "bound": 2,
               "weights": None}),
    "free-identities": ("free_identities", {}, {"rank": 4, "modulus": None}),
}

#: params read from an option of another name
_PARAM_OPTIONS = {"rank": "n", "ks": "k", "ps": "p"}


def _experiment_params(verb: str, opts: dict) -> tuple[str, dict]:
    """Translate a verify verb and its options into a harness scan call.

    An option that contradicts a param the verb fixes is refused; weights left
    out are not passed, so a family that takes weights gets unit weights.
    """
    experiment, fixed, defaults = VERIFY_VERBS[verb]
    for key, value in fixed.items():
        if opts.get(key, value) != value:
            raise ValueError(f"verify {verb} runs the {key} {value!r}; "
                             f"--{key} {opts[key]!r} does not apply to it")
    params = dict(fixed)
    for key, default in defaults.items():
        value = opts.get(_PARAM_OPTIONS.get(key, key), default)
        if key == "ks":
            value = _parse_k(str(value), params["n"])
        elif key == "ps":
            value = [float(value)]
        elif key == "weights" and value is None:
            continue
        elif default is not None:
            value = type(default)(value)
        params[key] = value
    return experiment, params


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    opts = _resolve(args, config, ["n", "k", "p", "d", "modulus", "bound",
                                   "family", "weights", "derivative", "trials", "seed",
                                   "ensemble", "sparsity", "degree"])
    if isinstance(opts.get("weights"), str):
        opts["weights"] = _parse_floats(opts["weights"])
    experiment, params = _experiment_params(args.experiment, opts)
    trials = int(opts.get("trials", 100))
    seed = int(opts.get("seed", 0))
    ensemble = EnsembleSpec(kind=opts.get("ensemble", "gaussian"),
                            sparsity=int(opts.get("sparsity", 8)),
                            degree=int(opts.get("degree", 2)))
    report = scan(experiment, ensemble, trials=trials, seed=seed, **params)
    payload = report.to_json()
    payload["artifact_version"] = __version__
    payload["config_hash"] = _config_hash({"experiment": args.experiment, **params,
                                           "trials": trials, "seed": seed,
                                           "ensemble": ensemble.to_json()})
    _write_report(payload, args.out)
    if args.csv:
        _write_csv(payload, args.csv)
    print(f"{args.experiment}: ratio {report.ratio:.6g} "
          f"(lhs {report.lhs:.6g}, rhs {report.rhs:.6g}) -> {args.out}")
    return 0


# -- check --------------------------------------------------------------------


def _build_cli_cocycle(opts: dict):
    family = opts.get("family", "cyclic_word")
    record = cocycle_family(family)
    n = int(opts.get("n", 2))
    group = record.cli_group(n, int(opts.get("modulus", 4)), int(opts.get("bound", 3)))
    weights = opts.get("weights")
    if record.takes_weights:
        weights = weights or [1.0] * n
    return build_cocycle(family, group, weights)


def _cmd_check(args: argparse.Namespace) -> int:
    if args.target != "cocycle":
        raise ValueError("only 'check cocycle' is supported")
    config = _load_config(args.config)
    opts = _resolve(args, config, ["family", "n", "modulus", "bound", "weights",
                                   "sample_size", "t", "seed"])
    if isinstance(opts.get("weights"), str):
        opts["weights"] = _parse_floats(opts["weights"])
    cocycle = _build_cli_cocycle(opts)
    rng = np.random.default_rng(int(opts.get("seed", 0)))
    sample = random_group_elements(cocycle.group, int(opts.get("sample_size", 12)), rng)
    t_grid = _parse_floats(str(opts.get("t", "0.1,1,10")))
    psd = conditional_negativity_check(cocycle, sample, t_grid, seed=int(opts.get("seed", 0)))
    gram_error = None
    completeness_error = None
    if cocycle.has_basis:
        support = [g for g in sample if cocycle.psi(g) != 0]
        basis = cocycle.basis_for_support(support)
        gram = gram_matrix(cocycle, basis)
        gram_error = max((abs(gram[a][b] - (1 if a == b else 0))
                          for a in range(len(basis)) for b in range(len(basis))),
                         default=0.0)
        completeness_error = max((abs(completeness_defect(cocycle, g)) for g in support),
                                 default=0.0)
    report = {
        "family": cocycle.family,
        "group": cocycle.group.to_json(),
        "gap": float(cocycle.gap),
        "psd_min_eigenvalues": {str(t): v for t, v in psd["kernel_min_eigenvalues"].items()},
        "direct_form_max": psd["direct_form_max"],
        "gram_max_abs_error": float(gram_error) if gram_error is not None else None,
        "completeness_max_abs_error": (float(completeness_error)
                                       if completeness_error is not None else None),
        "passed": bool(psd["passed"]
                       and (gram_error is None or gram_error <= 1e-10)
                       and (completeness_error is None or completeness_error <= 1e-10)),
        "artifact_version": __version__,
    }
    report["config_hash"] = _config_hash({k: str(v) for k, v in opts.items()})
    _write_report(report, args.out)
    print(f"cocycle {cocycle.family}: "
          f"{'PASS' if report['passed'] else 'FAIL'} -> {args.out}")
    return 0 if report["passed"] else 3


# -- norm and apply -------------------------------------------------------------


def _load_element(path: str) -> GroupAlgebraElement:
    return GroupAlgebraElement.from_json(json.loads(Path(path).read_text()))


def _cmd_norm(args: argparse.Namespace) -> int:
    f = _load_element(args.infile)
    p = float(args.p)
    payload = {"p": p, "method": args.method}
    if args.method == "grid" or (f.group.kind == TORUS and not (p >= 2 and p % 2 == 0)):
        payload["method"] = "grid"  # torus norms are exact only at even p; say what ran
        payload["norm"], payload["quadrature_gap"] = lp_norm_torus_refined(f, p, args.oversample)
    else:
        payload["norm"] = lp_norm(f, p, oversample=args.oversample)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _default_family(group: GroupDescriptor) -> str:
    """The family ``apply`` uses on ``group`` when ``--family`` is not given."""
    for name, record in COCYCLE_FAMILIES.items():
        if record.cli_default and record.fits(group):
            return name
    raise ValueError(f"no cocycle family fits the group {group.to_json()}; pass --family")


def _cmd_apply(args: argparse.Namespace) -> int:
    f = _load_element(args.infile)
    needs_cocycle = args.op in ("derivative", "riesz", "laplacian", "heat", "mean-zero")
    cocycle = (build_cocycle(args.family or _default_family(f.group), f.group)
               if needs_cocycle else None)
    if args.op in ("derivative", "riesz"):
        if not args.u:
            raise ValueError(f"--u is required for op {args.op!r}")
        u = BasisVector.from_id(args.u)
        result = (operators.directional_derivative(f, u, cocycle) if args.op == "derivative"
                  else operators.riesz_transform(f, u, cocycle))
    elif args.op == "absorbent":
        result = operators.absorbent_derivative(f, args.j)
    elif args.op == "walsh":
        result = operators.walsh_derivative(f, args.j)
    elif args.op == "laplacian":
        result = operators.laplacian_power(f, args.gamma, cocycle)
    elif args.op == "heat":
        result = operators.heat_semigroup(f, args.t, cocycle)
    elif args.op == "truncate":
        result = operators.truncate(f, _parse_ints(args.S))
    elif args.op == "adjoint-truncate":
        result = operators.adjoint_truncation(f, _parse_ints(args.S))
    elif args.op == "project-as":
        result = operators.project_AS(f, _parse_ints(args.S))
    elif args.op == "hilbert":
        result = operators.free_hilbert_transform(f, _parse_ints(args.eps))
    elif args.op == "adjoint":
        result = adjoint(f)
    elif args.op == "mean-zero":
        result = project_mean_zero(f, cocycle)
    else:
        raise ValueError(f"unknown operator {args.op!r}")
    payload = result.to_json()
    if args.out:
        _write_report(payload, args.out)
        print(f"applied {args.op} -> {args.out}")
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0


# -- scan-suite --------------------------------------------------------------


def _cmd_scan_suite(args: argparse.Namespace) -> int:
    results = run_all(fast=args.fast, log=print)
    if args.out:
        payload = {"artifact_version": __version__, "criteria": results}
        _write_report(payload, args.out)
    return 0 if all(r["passed"] for r in results) else 3


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xpchaos",
        description="Balanced Fourier-truncation inequality experiments on discrete groups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run an inequality experiment")
    verify.add_argument("experiment", choices=VERIFY_VERBS)
    verify.add_argument("--n", type=int)
    verify.add_argument("--k", type=str, help="a value, a..b, or 'all'")
    verify.add_argument("--p", type=float)
    verify.add_argument("--d", type=int, help="matrix dimension (xp-linear)")
    verify.add_argument("--modulus", type=int, help="cyclic order 2m")
    verify.add_argument("--bound", type=int, help="torus frequency bound")
    verify.add_argument("--family", type=str)
    verify.add_argument("--weights", type=str,
                        help="comma-separated positive weights (weighted_cube; default all 1)")
    verify.add_argument("--derivative", choices=DERIVATIVE_CHOICES)
    verify.add_argument("--trials", type=int)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--ensemble", choices=ENSEMBLE_KINDS)
    verify.add_argument("--sparsity", type=int)
    verify.add_argument("--degree", type=int)
    verify.add_argument("--config", type=str, help="JSON config file; flags override")
    verify.add_argument("--out", type=str, default="report.json")
    verify.add_argument("--csv", type=str)
    verify.set_defaults(handler=_cmd_verify)

    check = sub.add_parser("check", help="certify a cocycle")
    check.add_argument("target", choices=["cocycle"])
    check.add_argument("--family", type=str)
    check.add_argument("--n", type=int)
    check.add_argument("--modulus", type=int)
    check.add_argument("--bound", type=int)
    check.add_argument("--weights", type=str, help="comma-separated positive weights")
    check.add_argument("--sample-size", dest="sample_size", type=int)
    check.add_argument("--t", type=str, help="comma-separated positive times")
    check.add_argument("--seed", type=int)
    check.add_argument("--config", type=str)
    check.add_argument("--out", type=str, default="cocycle.json")
    check.set_defaults(handler=_cmd_check)

    norm = sub.add_parser("norm", help="compute an Lp norm")
    norm.add_argument("--in", dest="infile", required=True)
    norm.add_argument("--p", type=float, required=True)
    norm.add_argument("--method", choices=["auto", "exact", "grid"], default="auto")
    norm.add_argument("--oversample", type=int, default=4)
    norm.set_defaults(handler=_cmd_norm)

    apply_cmd = sub.add_parser("apply", help="apply an operator to an element")
    apply_cmd.add_argument("--op", required=True,
                           choices=["derivative", "riesz", "absorbent", "walsh",
                                    "laplacian", "heat", "truncate", "adjoint-truncate",
                                    "project-as", "hilbert", "adjoint", "mean-zero"])
    apply_cmd.add_argument("--in", dest="infile", required=True)
    apply_cmd.add_argument("--u", type=str, help="basis vector id, e.g. ZWord:1:2")
    apply_cmd.add_argument("--j", type=int, default=1)
    apply_cmd.add_argument("--S", type=str, default="1", help="comma-separated subset")
    apply_cmd.add_argument("--eps", type=str, default="1", help="comma-separated signs")
    apply_cmd.add_argument("--gamma", type=float, default=1.0)
    apply_cmd.add_argument("--t", type=float, default=1.0)
    apply_cmd.add_argument("--family", choices=FAMILIES)
    apply_cmd.add_argument("--out", type=str)
    apply_cmd.set_defaults(handler=_cmd_apply)

    suite = sub.add_parser("scan-suite", help="run the acceptance battery")
    suite.add_argument("--fast", action="store_true", help="reduced trial counts")
    suite.add_argument("--out", type=str)
    suite.set_defaults(handler=_cmd_scan_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except NumericalSanityError as exc:
        print(f"numerical sanity failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
