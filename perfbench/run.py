"""Run one workload of the xpchaos benchmark and print its result.

    python3 perfbench/run.py --workload cube-sparse --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout: xpchaos is imported from ``src/``
there, never from an installed copy, and the run stops with exit code 2 if
the sources are missing.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the metrics are
the ``end_to_end`` entries of ``BENCHMARK.json`` with ``--trace 0`` and the
``per_layer`` entries with ``--trace 1``.  Diagnostics go to standard error.

A run sets up (``setup_s`` is the median over separate set-up processes),
repeats whole passes over the workload's operations until ``--seconds`` have
elapsed, reads the peak memory, and only then checks the outputs of the
first pass against the independent references; later passes must repeat
them.  With ``--trace 1`` the first half of the time runs untraced and the
second half traced, and the spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-up processes per run; setup_s is their median
SETUP_PROBES = 3
SETUP_PROBE_TIMEOUT_S = 150

#: per-layer self times: metric -> traced function
SELF_TIMES = {
    "groups.evaluate_on_dual_s": "groups.evaluate_on_dual",
    "groups.convolve_s": "groups.convolve",
    "groups.adjoint_s": "groups.adjoint",
    "cocycles.psi_s": "cocycles.psi",
    "cocycles.gromov_form_s": "cocycles.gromov_form",
    "cocycles.conditional_negativity_check_s": "cocycles.conditional_negativity_check",
    "cocycles.basis_for_support_s": "cocycles.basis_for_support",
    "words.reduce_s": "words.reduce",
    "operators.truncate_s": "operators.truncate",
    "operators.directional_derivative_s": "operators.directional_derivative",
    "operators.riesz_transform_s": "operators.riesz_transform",
    "operators.free_hilbert_transform_s": "operators.free_hilbert_transform",
    "norms.lp_norm_s": "norms.lp_norm",
    "norms.lp_norm_torus_even_s": "norms.lp_norm_torus_even",
    "norms.square_function_norm_s": "norms.square_function_norm",
    "norms.schatten_norm_s": "norms.schatten_norm",
    "norms.sign_patterns_s": "norms.sign_patterns",
    "harness.sample_element_s": "harness.sample_element",
    "harness.naor_profile_s": "harness.naor_profile",
    "harness.xp_linear_ratio_s": "harness.xp_linear_ratio",
    "harness.rosenthal_linear_ratio_s": "harness.rosenthal_linear_ratio",
    "harness.riesz_equivalence_ratio_s": "harness.riesz_equivalence_ratio",
    "harness.reevaluate_witness_s": "harness.reevaluate_witness",
    "harness.scan_s": "harness.scan",
    "cli.main_s": "cli.main",
}
#: per-layer call counts per pass: metric -> traced function
CALLS = {
    "groups.convolve_calls": "groups.convolve",
    "words.concat_calls": "words.concat",
    "norms.sign_patterns_calls": "norms.sign_patterns",
}
#: calls per ensemble trial: metric -> (traced function, trial tag)
PER_TRIAL = {
    "groups.ifftn_per_trial": ("numpy.fft.ifftn", "naor"),
    "groups.ifftn_per_walsh_trial": ("numpy.fft.ifftn", "walsh"),
    "groups.ifftn_per_absorbent_trial": ("numpy.fft.ifftn", "absorbent"),
    "cocycles.psi_per_trial": ("cocycles.psi", "n10"),
}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _limit_threads() -> None:
    """One evaluation thread (the program default) and one BLAS thread."""
    os.environ.pop("XPCHAOS_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _require_sources() -> Path:
    src = ROOT / "src"
    if not (src / "xpchaos" / "__init__.py").is_file():
        _fail(f"no xpchaos sources at {src}; run from a source checkout")
    return src


def _import_program():
    src = _require_sources()
    sys.path.insert(0, str(src))
    import xpchaos
    from xpchaos import cli
    if Path(xpchaos.__file__).resolve().parent != src / "xpchaos":
        _fail(f"imported xpchaos from {xpchaos.__file__}, not from {src}")
    return xpchaos, cli


def _set_up(workload: str, seed: int, tracer, workdir: Path):
    """Import xpchaos, build the operations and run each configuration once untimed."""
    import workloads

    xp, cli = _import_program()
    workdir.mkdir(parents=True, exist_ok=True)
    env = workloads.Env(xp, cli, tracer, workdir, seed)
    ops = workloads.WORKLOADS[workload](env)
    for op in ops:
        if op.warm:
            op.call(1 if op.trials else 0)
    return env, ops


def _probe_setup(args) -> float:
    """Seconds from spawning a separate process until it has set up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe", repr(time.time())]
    done = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True,
                          timeout=SETUP_PROBE_TIMEOUT_S)
    return float(done.stdout.split()[-1])


class Tally:
    """Outputs of the first pass and per-pass failures, by operation."""

    def __init__(self, ops):
        self.ops = ops
        self.first: dict[str, object] = {}
        self.pass_errors: list[dict[str, str]] = []

    def record(self, outputs: dict) -> None:
        import check

        errors = {}
        for op in self.ops:
            out = outputs[op.name]
            if isinstance(out, Exception):
                errors[op.name] = f"raised {out!r}"
            elif op.name not in self.first:
                self.first[op.name] = out
            elif not check.same(self.first[op.name], out):
                errors[op.name] = "output differs from the first pass"
        self.pass_errors.append(errors)

    def verdict(self) -> tuple[bool, int, int, list[str]]:
        """(correct, attempted, failed, messages) after checking the first pass."""
        checked = {}
        for op in self.ops:
            if op.name not in self.first:
                checked[op.name] = []
                continue
            try:
                checked[op.name] = op.check(self.first[op.name])
            except Exception as exc:  # a check that cannot run fails its operation
                checked[op.name] = [f"check raised {exc!r}"]
        failed = 0
        messages: list[str] = []
        unexpected = False
        for errors in self.pass_errors:
            for op in self.ops:
                problems = ([errors[op.name]] if op.name in errors else []) + checked[op.name]
                if problems:
                    failed += 1
                    unexpected |= not op.known_fault
                    tag = "known fault" if op.known_fault else "FAILED"
                    message = f"{op.name} ({tag}): {problems[0]}"
                    if message not in messages:
                        messages.append(message)
        attempted = len(self.pass_errors) * len(self.ops)
        return not unexpected, attempted, failed, messages


class Timings:
    """Wall times of each operation over the passes of one phase of a run.

    The machine's speed drifts by tens of percent over tens of seconds
    (other tenants), and contention only slows work down.  So an operation's
    time is the fastest of its program calls (``scan`` or ``verify``) plus
    the fastest of its certifications in the phase, and a pass's time is the
    sum over its operations.
    """

    def __init__(self, ops):
        self.trials = {op.name: op.trials for op in ops}
        self.scan_s: dict[str, list[float]] = {op.name: [] for op in ops}
        self.rest_s: dict[str, list[float]] = {op.name: [] for op in ops}
        self.witness_bytes: list[int] = []
        self.report_bytes: list[int] = []

    @property
    def passes(self) -> int:
        return len(self.witness_bytes)

    def pass_s(self) -> float:
        return sum(min(times) for times in (*self.scan_s.values(), *self.rest_s.values())
                   if times)

    def trials_per_s(self) -> float:
        timed = [name for name, times in self.scan_s.items() if times and self.trials[name]]
        seconds = sum(min(self.scan_s[name]) for name in timed)
        return sum(self.trials[name] for name in timed) / seconds if seconds else 0.0


def _run_pass(ops, env, timings: Timings) -> dict:
    """One pass over the operations; returns their outputs (or exceptions)."""
    outputs: dict[str, object] = {}
    env.report_bytes = 0
    for op in ops:
        start = time.perf_counter()
        with env.tracer.span(f"op:{op.name}"):
            try:
                outputs[op.name], elapsed = op.call(op.trials)
                timings.scan_s[op.name].append(elapsed)
            except Exception as exc:  # counted as a failed operation, the run goes on
                outputs[op.name] = exc
                elapsed = 0.0
        timings.rest_s[op.name].append(time.perf_counter() - start - elapsed)
    timings.witness_bytes.append(sum(
        len(json.dumps(out["report"]["witness"])) for out in outputs.values()
        if isinstance(out, dict) and "report" in out))
    timings.report_bytes.append(env.report_bytes)
    return outputs


def _passes(env, ops, tally, until: float, timings: Timings) -> None:
    """Whole passes until the clock reaches ``until`` (at least one)."""
    while True:
        tally.record(_run_pass(ops, env, timings))
        if time.perf_counter() >= until:
            return


def _percentile_ms(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return 1e3 * values[0]
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _layer_values(tracer, traced: Timings, untraced: Timings) -> dict[str, float]:
    passes = traced.passes
    values = {name: tracer.self_time[fn] / passes for name, fn in SELF_TIMES.items()}
    values.update({name: tracer.calls[fn] / passes for name, fn in CALLS.items()})
    for name, (fn, tag) in PER_TRIAL.items():
        trials = tracer.trials[tag]
        values[name] = tracer.trial_calls[fn, tag] / trials if trials else 0.0
    durations = tracer.trial_durations["harness.naor_profile"]
    values["harness.naor_profile_p50_ms"] = _percentile_ms(durations, 50)
    values["harness.naor_profile_p90_ms"] = _percentile_ms(durations, 90)
    values["harness.witness_bytes"] = statistics.mean(traced.witness_bytes)
    values["cli.report_bytes"] = statistics.mean(traced.report_bytes)
    values["trace.overhead_s"] = traced.pass_s() - untraced.pass_s()
    return values


def _metrics(declared: list[dict], values: dict[str, float]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        _fail(f"BENCHMARK.json declares metrics this benchmark does not compute: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, metavar="SPAWN_TIME",
                        help="only set up, then print the seconds since SPAWN_TIME "
                             "(time.time() of the parent when it spawned this process)")
    args = parser.parse_args(argv)

    _limit_threads()
    import check
    import workloads
    from tracing import Tracer, install

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; valid: {sorted(workloads.WORKLOADS)}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"no {spec_path}")
    spec = json.loads(spec_path.read_text())
    workdir = OUT / f"work-{os.getpid()}"
    tracer = Tracer()
    try:
        _require_sources()
        if args.setup_probe is not None:
            _set_up(args.workload, args.seed, tracer, workdir)
            print(time.time() - args.setup_probe)
            return 0
        setup_times = [] if args.trace else [_probe_setup(args) for _ in range(SETUP_PROBES)]
        env, ops = _set_up(args.workload, args.seed, tracer, workdir)
        problems = check.self_test()

        tally = Tally(ops)
        untraced, traced = Timings(ops), Timings(ops)
        start = time.perf_counter()
        if args.trace:
            _passes(env, ops, tally, start + args.seconds / 2, untraced)
            uninstall = install(tracer)
            try:
                _passes(env, ops, tally, start + args.seconds, traced)
            finally:
                uninstall()
        else:
            _passes(env, ops, tally, start + args.seconds, untraced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        correct, attempted, failed, messages = tally.verdict()
        for message in problems + messages:
            print(message, file=sys.stderr)
        if args.trace:
            OUT.mkdir(exist_ok=True)
            span_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(span_path)
            print(f"{len(tracer.spans)} spans -> {span_path}", file=sys.stderr)
            metrics = _metrics(spec["per_layer"], _layer_values(tracer, traced, untraced))
        else:
            metrics = _metrics(spec["end_to_end"], {
                "setup_s": statistics.median(setup_times),
                "pass_s": untraced.pass_s(),
                "trials_per_s": untraced.trials_per_s(),
                "peak_rss_mb": peak_rss_mb,
            })
        print(json.dumps({"correct": correct and not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
