#!/usr/bin/env python3
"""adkit benchmark: time to a trusted verdict, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one thread submits each op through adkit's public functions
and waits for its verdict before submitting the next (a closed loop, one
op in flight).  A pass runs the workload's fixed op set once; passes repeat
until ``--seconds`` have passed (and, for cli-registry, until the run holds
at least 100 ops).  Every op's output is checked against a known answer.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` runs
one untraced pass, then traced passes, and reports the per-layer metrics.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with provenance, also goes to
``perfbench/.results/``.  See ``perfbench/NOTES.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = Path("perfbench") / ".results"

#: Fresh-interpreter set-ups per untraced run, taken before and after the
#: timed phase so that they see two states of a shared machine; setup_s is
#: the median of all of them.
SETUP_SAMPLES = (4, 3)

#: Reported times are scaled to a machine on which ``reference_s`` takes
#: this long.  On a shared 2-vCPU Xeon VM the speed of one thread swings by
#: up to 2x over periods of 10 to 30 s; rescaling each op by reference
#: timings taken on the same thread around and during it cut the spread of
#: wall_s across seeds from 15-26% to under 5%.  Raw times go to the result
#: file.  See perfbench/NOTES.md.
NOMINAL_REFERENCE_S = 0.35e-3
#: Seconds between reference timings inside an op (about 2% of the time;
#: a 0.1 s interval left ops of about 80 ms uncorrected).
PROBE_INTERVAL_S = 0.03

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms",
                    "op_ms_p90": "ms", "peak_rss_mb": "MB",
                    "decided_share": "share"}

#: Inputs whose time to verdict is reported per layer.
VERDICT_INPUTS = ("mu0_3", "mu0_4", "mu0_5") + tuple(
    f"As2_{i}" for i in range(1, 8)) + tuple(
    f"As3_{i}" for i in range(1, 7)) + ("As3_5_l2",)

COUNTERS = ("solver.equations_generated", "solver.substitutions",
            "solver.splits", "solver.combines", "solver.branches_solved",
            "solver.branches_infeasible", "solver.branches_stuck",
            "solver.max_depth", "iso.search.examined", "iso.search.found",
            "iso.search.separated", "iso.search.not_found",
            "cli.report_bytes")


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100), interpolating between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def reference_s() -> float:
    """Time a fixed kernel shaped like adkit's inner loops (Fraction
    arithmetic into a dict keyed by monomial tuples), with the cyclic GC
    off so that it never pays for garbage the ops left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        terms = {}
        x = Fraction(1, 3)
        for i in range(100):
            key = (("u1", i % 7), ("u2", i % 5))
            terms[key] = terms.get(key, Fraction(0)) + x * i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_scale(refs) -> float:
    """Factor taking a time measured among these reference timings to the
    nominal machine."""
    return NOMINAL_REFERENCE_S / statistics.fmean(refs)


class SpeedProbe:
    """Reference timings on the measuring thread, around and inside ops.

    While sampling, a SIGALRM handler (Python runs it in the main thread,
    between bytecodes) times ``reference_s`` every ``PROBE_INTERVAL_S``, so
    an op that runs for seconds is scaled by the speed it actually ran at.
    ``spent`` accumulates the handler's own time, which ops subtract.
    """

    def __init__(self, sampling: bool):
        self.sampling = sampling
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def __enter__(self):
        if self.sampling:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                             PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        if self._busy:
            return
        start = time.perf_counter()
        self.samples.append(reference_s())
        self.spent += time.perf_counter() - start

    def reference(self) -> float:
        """A reference timing between ops, never interrupted by a sample."""
        self._busy = True
        try:
            return reference_s()
        finally:
            self._busy = False


def source_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, workload, passes) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha,
            "source_sha256": source_digest(ROOT / "src" / "adkit"),
            "benchmark_sha256": source_digest(HERE),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "ops_per_pass": len(workload.ops), "passes": len(passes),
            "inputs": workload.inputs}


# -- set-up ---------------------------------------------------------------------


def setup_only(args) -> int:
    """Child mode: set up from a fresh interpreter, print the elapsed time
    and a reference timing taken right after."""
    import workloads
    workloads.build(args.workload, args.seed)
    elapsed = time.time() - args.setup_only
    print(json.dumps({"setup_s": elapsed, "reference_s": reference_s()}))
    return 0


def setup_samples(args, count: int) -> list:
    """Wall times from launching a fresh interpreter to the first op, as
    (scaled to the nominal machine, raw) pairs."""
    samples = []
    for _ in range(count):
        before = reference_s()
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", repr(start)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        scale = speed_scale([before, child["reference_s"]])
        samples.append((child["setup_s"] * scale, child["setup_s"]))
    return samples


# -- timed phase ------------------------------------------------------------------


def run_pass(workload, probe, tracer=None) -> dict:
    """Run every op once; returns times, failures and deterministic facts.

    ``raw`` holds each op's wall time and ``times`` the same scaled to the
    nominal machine by the probe's reference timings around and inside it.
    """
    import workloads
    times, raw, digests, names = [], [], [], []
    counters = dict.fromkeys(COUNTERS, 0)
    decided = failed = 0
    before = probe.reference()
    for number, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = number
        first_sample, spent = len(probe.samples), probe.spent
        t0 = time.perf_counter()
        try:
            record = op.run()
        except workloads.WrongAnswer as exc:
            record = None
            sys.stderr.write(f"wrong answer: {exc}\n")
        except Exception:
            record = None
            sys.stderr.write(f"op {op.name} raised:\n{traceback.format_exc()}")
        elapsed = time.perf_counter() - t0 - (probe.spent - spent)
        after = probe.reference()
        raw.append(elapsed)
        times.append(elapsed * speed_scale(
            [before, *probe.samples[first_sample:], after]))
        before = after
        names.append(op.name)
        if record is None:
            failed += 1
            digests.append(None)
            continue
        decided += bool(record["decided"])
        digests.append(record["digest"])
        for key, value in record.get("counters", {}).items():
            counters[key] += value
    return {"wall_s": sum(times), "raw_wall_s": sum(raw), "times": times,
            "raw": raw, "names": names, "digests": digests, "failed": failed,
            "decided": decided, "counters": counters}


def mismatches(passes) -> int:
    """Ops whose output, counters or traced call counts differ from the
    first pass that recorded them."""
    first = passes[0]
    bad = 0
    for later in passes[1:]:
        bad += sum(a != b for a, b in zip(first["digests"], later["digests"]))
        bad += later["counters"] != first["counters"]
    traced = [p["calls"] for p in passes if "calls" in p]
    bad += sum(calls != traced[0] for calls in traced[1:])
    return bad


def timed_phase(workload, seconds: float, tracer=None) -> list:
    """Whole passes while the next one fits in ``seconds``; at least one,
    and at least ``min_ops`` ops.

    With a tracer, the first pass runs untraced as the overhead baseline.
    """
    passes = []
    start = time.perf_counter()
    if tracer is not None:
        with SpeedProbe(sampling=True) as probe:
            passes.append(run_pass(workload, probe))
        tracer.install()
    try:
        while True:
            calls0 = dict(tracer.calls) if tracer else None
            self0 = dict(tracer.self_s) if tracer else None
            nested0 = dict(tracer.nested) if tracer else None
            # traced passes report raw self times, so they skip the samples
            with SpeedProbe(sampling=tracer is None) as probe:
                p = run_pass(workload, probe, tracer)
            if tracer is not None:
                p["calls"] = {k: tracer.calls[k] - calls0[k] for k in calls0}
                p["self_s"] = {k: tracer.self_s[k] - self0[k] for k in self0}
                p["nested"] = {k: tracer.nested[k] - nested0[k] for k in nested0}
            passes.append(p)
            measured = [q for q in passes if "calls" in q] if tracer else passes
            ops = sum(len(q["times"]) for q in measured)
            typical = statistics.median(q["raw_wall_s"] for q in measured)
            # stop before a pass that would end past the time budget
            if (time.perf_counter() - start + typical > seconds
                    and ops >= workload.min_ops):
                return passes
    finally:
        if tracer is not None:
            tracer.uninstall()


# -- metrics ------------------------------------------------------------------------


def end_to_end(passes, setup_s: float) -> dict:
    times = [t for p in passes for t in p["times"]]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_ms_p50": percentile(times, 50) * 1e3,
        "op_ms_p90": percentile(times, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decided_share": passes[0]["decided"] / len(passes[0]["times"]),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(passes) -> dict:
    from tracing import SPAN_NAMES
    baseline, traced = passes[0], passes[1:]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (traced[0]["calls"][name], "count")
        out[f"{name}.self_s"] = (
            statistics.median(p["self_s"][name] for p in traced), "s")
    counters = traced[0]["counters"]
    for key in COUNTERS:
        out[key] = (counters[key], "count")
    subs = counters["solver.substitutions"]
    inner = traced[0]["nested"][("solver.eliminate", "scalars.Poly.subs")]
    out["solver.subs_per_substitution"] = (inner / subs if subs else 0.0, "ratio")
    by_input = dict(zip(baseline["names"], baseline["times"]))
    for label in VERDICT_INPUTS:
        out[f"solver.verdict_s.{label}"] = (by_input.get(f"enumerate:{label}", 0.0), "s")
    out["trace.overhead_s"] = (statistics.median(
        p["raw_wall_s"] for p in traced) - baseline["raw_wall_s"], "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def determinism_digest(passes, traced: bool) -> dict:
    first = passes[-1] if traced else passes[0]
    out = {"outputs": hashlib.sha256(json.dumps(
        [first["digests"], first["counters"]], sort_keys=True).encode()).hexdigest()}
    if traced:
        out["calls"] = hashlib.sha256(json.dumps(
            first["calls"], sort_keys=True).encode()).hexdigest()
    return out


def cross_run_mismatches(args, digest: dict) -> int:
    """Compare with an earlier run of the same code, workload and seed."""
    path = RESULTS / f"determinism-{args.workload}-s{args.seed}.json"
    source = source_digest(ROOT / "src" / "adkit") + source_digest(HERE)
    bad = 0
    if path.exists():
        old = json.loads(path.read_text())
        if old.get("source") == source:
            for key, value in digest.items():
                if key in old and old[key] != value:
                    sys.stderr.write(f"{key} differ from an earlier run "
                                     f"with seed {args.seed}\n")
                    bad += 1
            old.update(digest)
            digest = old
    path.write_text(json.dumps({**digest, "source": source}, sort_keys=True))
    return bad


def run(args, tiny: bool = False) -> dict:
    """Set up, measure and check one workload; returns the full result."""
    import workloads
    from tracing import Tracer
    counts = (1, 0) if tiny else SETUP_SAMPLES
    setups = [] if args.trace else setup_samples(args, counts[0])
    workload = workloads.build(args.workload, args.seed, tiny=tiny)
    tracer = Tracer() if args.trace else None
    passes = timed_phase(workload, args.seconds, tracer)
    if not args.trace:
        setups += setup_samples(args, counts[1])
    setup_s = statistics.median(s for s, _ in setups) if setups else None
    raw_setup_s = statistics.median(r for _, r in setups) if setups else None
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["failed"] for p in passes) + mismatches(passes)
    digest = determinism_digest(passes, bool(args.trace))
    if not tiny:
        RESULTS.mkdir(parents=True, exist_ok=True)
        failed += cross_run_mismatches(args, digest)
    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, setup_s)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    op_s, raw_op_s = {}, {}
    for p in passes:
        for name, t, r in zip(p["names"], p["times"], p["raw"]):
            op_s.setdefault(name, []).append(t)
            raw_op_s.setdefault(name, []).append(r)
    raw_times = [t for p in passes for t in p["raw"]]
    extra = {"fail_share": failed / attempted, "determinism": digest,
             "provenance": provenance(args, workload, passes), "op_s": op_s,
             "raw": {"setup_s": raw_setup_s,
                     "wall_s": [p["raw_wall_s"] for p in passes],
                     "op_ms_p50": percentile(raw_times, 50) * 1e3,
                     "op_ms_p90": percentile(raw_times, 90) * 1e3,
                     "op_s": raw_op_s}}
    if not tiny:
        stem = f"{args.workload}-s{args.seed}-trace{args.trace}"
        (RESULTS / f"{stem}.json").write_text(
            json.dumps({**result, **extra}, indent=2, sort_keys=True))
        if tracer is not None:
            tracer.write(RESULTS / f"spans-{stem}.json")
    return {**result, **extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "adkit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no adkit sources under {ROOT / 'src'}\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_only is not None:
        return setup_only(args)
    out = run(args)
    summary = {k: out[k] for k in ("fail_share", "provenance")}
    summary["raw"] = {k: v for k, v in out["raw"].items() if k != "op_s"}
    for name, m in out["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
