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
import functools
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
from .harness import (DERIVATIVE_CHOICES, ENSEMBLE_KINDS, LATTICE_MAX_BYTES, EnsembleSpec,
                      _count, _integer, scan)
from .norms import NumericalSanityError, lp_norm, lp_norm_torus_refined


def _config_hash(params: dict) -> str:
    canonical = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_report(report: dict, out: str) -> None:
    """One line of JSON: any indent would send ``json`` to its pure-Python encoder."""
    Path(out).write_text(json.dumps(report, sort_keys=True) + "\n")


def _write_csv(report: dict, path: str) -> None:
    fields = ["experiment", "lhs", "rhs", "ratio", "trials", "seed", "monte_carlo", "config_hash"]
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        writer.writerow({key: report.get(key) for key in fields})


def _parse_k(text: str, n: int) -> list[int]:
    """The ks of ``--k``: a value, ``a..b`` or ``all``, refused by name otherwise."""
    if text == "all":
        return list(range(1, n + 1))
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(text)]
    except ValueError:
        raise ValueError(f"--k must be a value, a..b, or 'all'; got {text!r}") from None


def _parse_list(text: str, option: str, kind: type = float) -> list:
    """The comma-separated values of ``--option``, refused by name unless each is a ``kind``."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"--{option} must be comma-separated "
                         f"{'numbers' if kind is float else 'integers'}, got {text!r}") from None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_config(path: str | None, command: str, keys: list[str]) -> dict:
    """The JSON object of a config file, refused when it sets a key that ``command``
    does not read (one of ``keys``), or a value that is not null, a number or a
    string (or, for weights, a list of numbers)."""
    if not path:
        return {}
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise ValueError(f"{command} does not read the config keys {unknown}; it reads {keys}")
    for key, value in data.items():
        if not (value is None or isinstance(value, str) or _is_number(value)
                or (key == "weights" and isinstance(value, list) and all(map(_is_number, value)))):
            raise ValueError(f"the config key {key!r} must be a number or a string"
                             f"{' (or a list of numbers)' if key == 'weights' else ''}, "
                             f"got {value!r}")
    return data


def _resolve(args: argparse.Namespace, config: dict, keys: list[str]) -> dict:
    """Config-file values overridden by explicitly passed flags, weights given as a
    string parsed to numbers."""
    resolved = {}
    for key in keys:
        flag_value = getattr(args, key.replace("-", "_"), None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif config.get(key) is not None:
            resolved[key] = config[key]
    if isinstance(resolved.get("weights"), str):
        resolved["weights"] = _parse_list(resolved["weights"], "weights")
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

#: options that set a param of the experiment, as against the scan's own options
_PARAM_FLAGS = ("n", "k", "p", "d", "modulus", "bound", "family", "weights", "derivative")


def _experiment_params(verb: str, opts: dict) -> tuple[str, dict]:
    """Translate a verify verb and its options into a harness scan call.

    An option that contradicts a param the verb fixes, or that sets a param the
    verb does not read, is refused; weights left out are not passed, so a family
    that takes weights gets unit weights.
    """
    experiment, fixed, defaults = VERIFY_VERBS[verb]
    read = {*fixed, *(_PARAM_OPTIONS.get(key, key) for key in defaults)}
    for key in _PARAM_FLAGS:
        if key in opts and key not in read:
            raise ValueError(f"verify {verb} does not read --{key}")
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
            value = (_integer(value, _PARAM_OPTIONS.get(key, key)) if isinstance(default, int)
                     else type(default)(value))
        params[key] = value
    return experiment, params


def _cmd_verify(args: argparse.Namespace) -> int:
    keys = [*_PARAM_FLAGS, "trials", "seed", "ensemble", "sparsity", "degree"]
    opts = _resolve(args, _load_config(args.config, f"verify {args.experiment}", keys), keys)
    experiment, params = _experiment_params(args.experiment, opts)
    trials = _integer(opts.get("trials", 100), "trials")
    seed = _integer(opts.get("seed", 0), "seed")
    ensemble = EnsembleSpec(kind=opts.get("ensemble", "gaussian"),
                            sparsity=_integer(opts.get("sparsity", 8), "sparsity"),
                            degree=_integer(opts.get("degree", 2), "degree"))
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
    n = _count(opts, "n", 2)
    group = record.cli_group(n, _integer(opts.get("modulus", 4), "modulus"),
                             _integer(opts.get("bound", 3), "bound"))
    if group.kind == TORUS:             # a torus of bound 0 holds the identity alone
        _count(opts, "bound", 3)
    weights = opts.get("weights")
    if record.takes_weights:
        weights = weights or [1.0] * n
    return build_cocycle(family, group, weights)


def _cmd_check(args: argparse.Namespace) -> int:
    if args.target != "cocycle":
        raise ValueError("only 'check cocycle' is supported")
    keys = ["family", "n", "modulus", "bound", "weights", "sample_size", "t", "seed"]
    opts = _resolve(args, _load_config(args.config, "check cocycle", keys), keys)
    if (seed := _integer(opts.get("seed", 0), "seed")) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    sample_size = _count(opts, "sample_size", 12)
    t_grid = _parse_list(str(opts.get("t", "0.1,1,10")), "t")
    cocycle = _build_cli_cocycle(opts)
    # the Schoenberg check's float psi matrix spans the sample and the identity
    matrix_bytes = 8 * (sample_size + 1) ** 2
    if matrix_bytes > LATTICE_MAX_BYTES:
        raise ValueError(f"a sample of {sample_size} needs a {matrix_bytes}-byte psi matrix, "
                         f"above {LATTICE_MAX_BYTES = }")
    rng = np.random.default_rng(seed)
    sample = random_group_elements(cocycle.group, sample_size, rng)
    psd = conditional_negativity_check(cocycle, sample, t_grid, seed=seed)
    gram_error = completeness_error = None
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
    if args.oversample < 4:             # refused on every route, not only the grid's
        raise ValueError(f"oversample must be >= 4, got {args.oversample}")
    f = _load_element(args.infile)
    p = float(args.p)
    payload = {"p": p, "method": args.method}
    if args.method == "grid" or (f.group.kind == TORUS and not (p >= 2 and p % 2 == 0)):
        payload["method"] = "grid"  # torus norms are exact only at even p; say what ran
        payload["norm"], payload["quadrature_gap"] = lp_norm_torus_refined(f, p, args.oversample)
    else:
        payload["norm"] = lp_norm(f, p)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _default_family(group: GroupDescriptor) -> str:
    """The family ``apply`` uses on ``group`` when ``--family`` is not given."""
    for name, record in COCYCLE_FAMILIES.items():
        if record.cli_default and record.fits(group):
            return name
    raise ValueError(f"no cocycle family fits the group {group.to_json()}; pass --family")


def _basis(args: argparse.Namespace) -> BasisVector:
    if not args.u:
        raise ValueError(f"--u is required for op {args.op!r}")
    return BasisVector.from_id(args.u)


#: apply op -> (whether it needs a cocycle, the op on (f, options, cocycle))
APPLY_OPS = {
    "derivative": (True, lambda f, a, c: operators.directional_derivative(f, _basis(a), c)),
    "riesz": (True, lambda f, a, c: operators.riesz_transform(f, _basis(a), c)),
    "absorbent": (False, lambda f, a, c: operators.absorbent_derivative(f, a.j)),
    "walsh": (False, lambda f, a, c: operators.walsh_derivative(f, a.j)),
    "laplacian": (True, lambda f, a, c: operators.laplacian_power(f, a.gamma, c)),
    "heat": (True, lambda f, a, c: operators.heat_semigroup(f, a.t, c)),
    "truncate": (False, lambda f, a, c: operators.truncate(f, _parse_list(a.S, "S", int))),
    "adjoint-truncate": (False, lambda f, a, c:
                         operators.adjoint_truncation(f, _parse_list(a.S, "S", int))),
    "project-as": (False, lambda f, a, c: operators.project_AS(f, _parse_list(a.S, "S", int))),
    "hilbert": (False, lambda f, a, c:
                operators.free_hilbert_transform(f, _parse_list(a.eps, "eps", int))),
    "adjoint": (False, lambda f, a, c: adjoint(f)),
    "mean-zero": (True, lambda f, a, c: project_mean_zero(f, c)),
}


def _cmd_apply(args: argparse.Namespace) -> int:
    f = _load_element(args.infile)
    needs_cocycle, op = APPLY_OPS[args.op]
    cocycle = (build_cocycle(args.family or _default_family(f.group), f.group)
               if needs_cocycle else None)
    result = op(f, args, cocycle)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing does not change it, and each call of
    ``main`` gets a fresh namespace."""
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
    apply_cmd.add_argument("--op", required=True, choices=APPLY_OPS)
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


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse an empty output path (``Path("")`` is ".") or a missing directory, before any work."""
    for option in ("out", "csv"):
        if (path := getattr(args, option, None)) == "":
            raise ValueError(f"--{option} '': an empty path names no file")
        if path and not (parent := Path(path).parent).is_dir():
            raise ValueError(f"--{option} {path!r}: the directory {str(parent)!r} does not exist")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_outputs(args)
        return args.handler(args)
    except NumericalSanityError as exc:
        print(f"numerical sanity failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:     # OSError: a file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
