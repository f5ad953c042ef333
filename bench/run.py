"""finvar benchmark: the CLI driven in-process on seeded config files.

Usage:
    python3 bench/run.py --workload points_lowdim --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout; finvar is imported from its ``src``.
Each op is one ``finvar.cli.main([...])`` call on a generated config; it
writes its report to a file, which is read back and checked against the
op's expected exit code and verdict. A run repeats the workload's fixed
cycle of ops a fixed number of times, about ``--seconds`` worth at the
defining commit. Each op's time is scaled to a reference machine speed
(``jet_kernel.py``) and the median over the repeats is taken.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced cycle and reports per-layer metrics per traced cycle.
The last line of standard output is the result JSON; a human summary goes
to standard error, and the full record (environment, per-op exit codes and
report sha256, spans) to ``bench/results/``. See ``bench/README.md``.
"""

import os

# One BLAS thread, set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import jet_kernel  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# Nominal wall seconds of one untraced cycle at the defining commit;
# --seconds divided by it gives the fixed number of cycles a run repeats.
CYCLE_S = {"points_lowdim": 4.3, "geodesic_ball": 10.0, "points_highdim": 4.3}
# Ops that must lie beyond the tail percentile within one cycle.
TAIL_BEYOND = 10
# Per-item call counts are broken down by command and dimension.
PER_ITEM_SPANS = ("autodiff.xy_jet2", "linalg.inverse")
ITEM_CLASSES = ("evaluate.n2", "evaluate.n3", "evaluate.n5", "evaluate.n8",
                "verify.n2", "verify.n3", "verify.n5", "verify.n8",
                "oracle.n2", "oracle.n3", "geodesic.n2", "geodesic.n3")


def item_class(op) -> str:
    return f"{op.command}.n{op.config['pair']['base']['dim']}"


def fatal(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def import_finvar():
    if not (SRC / "finvar" / "__init__.py").is_file():
        fatal(f"no finvar package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import finvar.cli
    if not Path(finvar.__file__).resolve().is_relative_to(SRC):
        fatal(f"finvar imported from {finvar.__file__}, not from {SRC}")
    return finvar


# -- environment --------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' when the
    checkout is not a repository."""
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
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


# -- set-up -------------------------------------------------------------------


def probe_setup(workload: str) -> tuple[float, float]:
    """One fresh-process import + pair construction: (scaled s, wall s)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=False)
    if proc.returncode != 0:
        fatal(f"set-up probe failed: {proc.stderr.strip()}")
    scaled, wall = proc.stdout.split()[:2]
    return float(scaled), float(wall)


# -- ops ----------------------------------------------------------------------


class OpRunner:
    """Writes the cycle's configs once, then runs and checks ops."""

    def __init__(self, cli, ops, workdir: Path):
        self.cli = cli
        self.ops = ops
        self.out = workdir / "report.out"
        self.configs = []
        for i, op in enumerate(ops):
            path = workdir / f"op{i:04d}.json"
            path.write_text(json.dumps(op.config, indent=1))
            self.configs.append(path)

    def run(self, index: int) -> dict:
        """Run op ``index``; time only the CLI call, then check the report."""
        op = self.ops[index]
        argv = [op.command, "--config", str(self.configs[index]),
                "--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        error = None
        start = time.perf_counter()
        try:
            # Looked up on every call, so the traced wrapper is used when
            # it is installed.
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that raises is a failed op
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        data = self.out.read_bytes() if self.out.exists() else b""
        if error is None:
            error = check(op, code, data)
        return {"wall_s": wall, "exit": code, "error": error,
                "items": op.items if error is None else 0,
                "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def count_items(command: str, report: dict) -> int:
    if command == "evaluate":
        return len(report["records"])
    if command == "verify":
        return report["n_samples"]
    if command == "oracle":
        return report["checks"][0]["cases"]
    return len(report["trajectories"])


def check(op, code, data: bytes):
    """None when the op produced its expected outcome, else the reason."""
    if code != op.expect_exit:
        return f"exit {code}, expected {op.expect_exit}"
    try:
        report = json.loads(data)
        verdict = report["verdict"]
        items = count_items(op.command, report)
        command = report["command"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
    if command != op.command:
        return f"report is for {command!r}, expected {op.command!r}"
    if verdict != op.expect_verdict:
        return f"verdict {verdict!r}, expected {op.expect_verdict!r}"
    if items != op.items:
        return f"{items} items in the report, expected {op.items}"
    if op.command == "geodesic":
        return check_horizon(report["trajectories"],
                             op.config["integrator"]["t_end"])
    return None


def check_horizon(trajectories: list, t_end: float):
    """None when every trajectory reached ``t_end`` inside the domain: a
    trajectory cut short passes its drift check over fewer samples and
    would read as a speed-up."""
    for traj in trajectories:
        try:
            exited = traj["domain_exit"]
            t_final = traj["t_final"]
        except (KeyError, TypeError) as exc:
            return f"unreadable trajectory: {type(exc).__name__}: {exc}"
        if exited is not False:
            return f"trajectory {traj.get('index')} left the domain"
        if not math.isclose(t_final, t_end, rel_tol=1e-9):
            return (f"trajectory {traj.get('index')} ended at t = "
                    f"{t_final!r}, expected {t_end!r}")
    return None


def run_cycle(runner: OpRunner, tracer=None, first_op_id: int = 0) -> list:
    """Run every op once, timing the jet kernel before each op and after
    the last; ``ref_s`` of an op is the mean of its two neighbours."""
    gc.collect()
    results = []
    before = jet_kernel.kernel_s()
    for index in range(len(runner.ops)):
        if tracer is not None:
            tracer.op_id = first_op_id + index
        result = runner.run(index)
        after = jet_kernel.kernel_s()
        result["ref_s"] = 0.5 * (before + after)
        results.append(result)
        before = after
    return results


def warm_up(runner: OpRunner) -> None:
    """One untimed op per command, so first-call costs stay out of timing."""
    seen = set()
    for index, op in enumerate(runner.ops):
        if op.command not in seen:
            seen.add(op.command)
            runner.run(index)


# -- metrics ------------------------------------------------------------------


def tail_percentile(ops_per_cycle: int) -> int:
    """Highest whole percentile leaving TAIL_BEYOND ops of one cycle beyond
    it; fixed per workload so that it does not move with the cycle count."""
    return max(1, math.floor(100.0 * (1.0 - TAIL_BEYOND / ops_per_cycle)))


def percentile(values: list, p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def op_costs(cycles: list) -> list[float]:
    """Each op's time scaled to the reference machine speed (see
    ``jet_kernel.py``), as the median over the run's cycles."""
    return [statistics.median(cycle[i]["wall_s"] * jet_kernel.REFERENCE_S
                              / cycle[i]["ref_s"] for cycle in cycles)
            for i in range(len(cycles[0]))]


def completed_items(cycles: list) -> int:
    """Items of the ops that passed their check in every cycle."""
    return sum(min(cycle[i]["items"] for cycle in cycles)
               for i in range(len(cycles[0])))


def end_to_end(cycles: list, setup_times: list, tail_p: int) -> dict:
    costs = op_costs(cycles)
    flat = [r for cycle in cycles for r in cycle]
    ok = sum(r["error"] is None for r in flat)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (completed_items(cycles) / sum(costs), "1/s"),
        "op_s_p50": (statistics.median(costs), "s"),
        "op_s_tail": (percentile(costs, tail_p), "s"),
        "ok_ratio": (ok / len(flat), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(tracer, ops, traced_cycles: list, untraced_cycles: list) -> dict:
    n = len(traced_cycles)
    out = {}
    for span, entry in tracer.layer_totals().items():
        out[f"{span}.calls"] = (entry["calls"] / n, "count")
        out[f"{span}.self_s"] = (entry["self_s"] / n, "s")
        out[f"{span}.errors"] = (entry["errors"] / n, "count")
    items = Counter()
    for cycle in traced_cycles:
        for op, result in zip(ops, cycle):
            items[item_class(op)] += result["items"]
    for span in PER_ITEM_SPANS:
        calls = Counter()
        for op_id, count in tracer.calls_by_op(span).items():
            calls[item_class(ops[op_id % len(ops)])] += count
        for key in ITEM_CLASSES:
            out[f"{span}.per_item.{key}"] = (
                calls[key] / items[key] if items[key] else 0.0, "count")
    rhs = tracer.rhs_calls()
    accepted = sum(v for (_, kind), v in tracer.steps.items()
                   if kind == "accepted")
    rejected = sum(v for (_, kind), v in tracer.steps.items()
                   if kind == "rejected")
    out["dynamics.rhs_calls"] = (sum(rhs.values()) / n, "count")
    out["dynamics.steps_accepted"] = (accepted / n, "count")
    out["dynamics.steps_rejected"] = (rejected / n, "count")
    attempted = accepted + rejected
    out["dynamics.step_accept_ratio"] = (
        accepted / attempted if attempted else 0.0, "ratio")
    for method in ("rkf45", "rk4"):
        steps = (tracer.steps[method, "accepted"]
                 + tracer.steps[method, "rejected"])
        out[f"dynamics.rhs_per_step.{method}"] = (
            rhs[method] / steps if steps else 0.0, "count")
    out["config.sample_accept_ratio"] = (
        tracer.sampled_points / tracer.in_domain_calls
        if tracer.in_domain_calls else 0.0, "ratio")
    out["cli.report_bytes"] = (
        sum(r["bytes"] for c in traced_cycles for r in c) / n, "bytes")
    out["trace.overhead_ratio"] = (
        sum(op_costs(traced_cycles)) / sum(op_costs(untraced_cycles)), "ratio")
    return out


# -- main ---------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def repeats(workload: str, seconds: float, traced: bool) -> int:
    """Cycles to run: a fixed count for a given --seconds, the same on every
    commit, so that each op's median is taken over as many samples."""
    per_cycle = CYCLE_S[workload] * (2 if traced else 1)
    return max(1, round(seconds / per_cycle))


def measure(args, runner, tracer, setup: list):
    """Run the fixed number of cycles; with a tracer, each untraced cycle is
    followed by a traced one.

    Without a tracer, a set-up probe runs before each cycle and after the
    last until there are SETUP_PROBES samples in ``setup``: spread over the
    run, they do not all land in one slow or fast spell of the machine.

    Returns (untraced cycles, traced cycles).
    """
    untraced, traced = [], []
    for _ in range(repeats(args.workload, args.seconds, tracer is not None)):
        if tracer is None:
            setup.append(probe_setup(args.workload))
        untraced.append(run_cycle(runner))
        if tracer is not None:
            with tracer.installed():
                first = (len(untraced) + len(traced)) * len(runner.ops)
                traced.append(run_cycle(runner, tracer, first))
    while tracer is None and len(setup) < SETUP_PROBES:
        setup.append(probe_setup(args.workload))
    return untraced, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    finvar = import_finvar()
    import numpy

    env = environment(numpy)
    ops = workloads.cycle(args.workload, args.seed)
    tail_p = tail_percentile(len(ops))
    tracer = spans.Tracer() if args.trace else None

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = OpRunner(finvar.cli, ops, workdir)
        warm_up(runner)
        setup = []
        untraced, traced = measure(args, runner, tracer, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cycles = untraced + traced
    setup_times = [scaled for scaled, _ in setup]
    if tracer is None:
        metrics = end_to_end(untraced, setup_times, tail_p)
    else:
        metrics = per_layer(tracer, ops, traced, untraced)
    failures = [{"cycle": c, "op": ops[i].name, "reason": r["error"]}
                for c, cycle in enumerate(cycles)
                for i, r in enumerate(cycle) if r["error"] is not None]
    attempted = sum(len(c) for c in cycles)

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "cycles": len(cycles), "ops_per_cycle": len(ops),
        "tail_percentile": tail_p,
        "repeats": len(untraced),
        "setup_s_samples": setup_times,
        "setup_wall_s_samples": [wall for _, wall in setup],
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:50],
        "ops": [{"name": op.name, "command": op.command,
                 "exit": cycles[0][i]["exit"],
                 "expect_exit": op.expect_exit,
                 "items": op.items, "report_sha256": cycles[0][i]["sha256"],
                 "wall_s": [c[i]["wall_s"] for c in untraced],
                 "ref_s": [c[i]["ref_s"] for c in untraced]}
                for i, op in enumerate(ops)],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.csv.gz")

    timing = (f"{len(untraced)} untraced and {len(traced)} traced cycles"
              if tracer else
              f"op times are scaled medians of {len(untraced)} repeats; "
              f"op_s_tail = p{tail_p} of {len(ops)} ops")
    sys.stderr.write(
        f"{args.workload} seed {args.seed}: cycles of {len(ops)} ops; "
        f"{timing}; fail_ratio = {len(failures)}/{attempted}; "
        f"commit {env['git_commit']}\n")
    for name, (value, unit) in metrics.items():
        sys.stderr.write(f"  {name:48s} {value:14.6g} {unit}\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
