"""Seeded single-process benchmark for normplane.

Run from the repository root:

    python3 perfbench/run.py --workload uniform_tree --seed 1 --seconds 20 --trace 0

The load is a closed loop with one client: calls run one at a time in this
process, each on a pre-generated instance of the chosen workload (see
``workloads.py``; ``BENCHMARK.json`` records why each workload exists).
One run does, in order:

1. set-up, repeated ``SETUPS`` times: import normplane from ``src/``,
   generate the instances from ``--seed`` and make one warm-up call on an
   instance of ``FIXED_SEED``;
2. the timed pass: passes over the instance list for ``--seconds`` seconds,
   tracing off.  Every call time is rescaled by a machine-speed probe
   (see ``PROBE_REF_S``), an instance's time is the median of its visits,
   and ``pts_per_s``, ``solve_s.p50`` and ``solve_s.tail`` are taken over
   instances;
3. with ``--trace 0``, the memory pass: for each kind of call and norm, the
   largest instance of one schedule period drawn from ``FIXED_SEED``, each
   call between its own ``tracemalloc.start()`` and ``stop()``; with
   ``--trace 1``, the traced pass: the first ``TRACE_CALLS`` instances
   once each, with the import-site wrappers of ``spans.py`` installed;
4. the correctness gate on every call of every pass (and, on
   ``cluster_certify``, a small-n control list against the exhaustive
   oracle), outside all timing.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace 1``,
names and units as in ``BENCHMARK.json``).  A fuller record, with the
spans of a traced run, is written under ``perfbench/out/``.  The exit code
is 0 only when every call passed the gate; it is 2, with no result line,
when the program or ``BENCHMARK.json`` cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
import types
from dataclasses import dataclass
from pathlib import Path

# numpy evaluates the polygonal gauge as ``flat @ f`` through BLAS; one
# thread keeps the single-client load single-threaded
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("norms", "geometry", "fng", "mxst", "perturb", "clustering", "checks", "cli")
SETUPS = 5
# the tail is the highest of these percentiles with at least 10 instances
# beyond it; the instance count is the workload's list length whenever one
# pass completes, so a faster program is judged at the same percentile
TAIL_LADDER = (99, 95, 90, 75, 50)
TRACE_CALLS = 36  # a whole number of schedule periods on every workload
# Shared machines drift in speed for seconds at a time.  After every timed
# call the benchmark times a fixed probe, and every call time is rescaled
# by PROBE_REF_S / (median probe time of the calls around it), so times read
# as seconds on a machine running at the probe's reference speed.
PROBE_REF_S = 1.4e-3
PROBE_LOOP = 12000
PROBE_SIZE = 20000
PROBE_WINDOW = 8
# the warm-up call and the memory pass run on instances of this seed, not of
# --seed: set-up time and peak memory then compare programs, not draws (one
# grid's tie structure moves its peak by a third)
FIXED_SEED = 0
# tune and compare on other seeds; quote claims on this one as well
HELD_OUT_SEED = 7919


@dataclass
class Record:
    inst: object
    seconds: float
    out: object
    error: str | None
    probe: float = 0.0  # the speed probe's time right after this call


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.update(THREAD_PINS)
    t0 = time.perf_counter()
    import numpy as np

    numpy_import_s = time.perf_counter() - t0
    import spans
    import workloads

    if not (SRC / "normplane" / "__init__.py").is_file():
        print(f"error: normplane sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: {args.workload!r} is not a workload of BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = workloads.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        buf = np.random.default_rng(0).random(PROBE_SIZE)
        setup_times, setup_probes = [], []
        for _ in range(SETUPS):
            dt, api, instances = _set_up(workloads, w, args.seed, str(workdir))
            setup_times.append(dt)
            setup_probes.append(_probe(buf))
        if not Path(api.fng.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported normplane from {api.fng.__file__}, not {SRC}", file=sys.stderr)
            return 2

        phases = {"setup": sum(setup_times)}
        t_phase = time.perf_counter()
        timed = _timed_pass(workloads, api, instances, args.seconds, buf)
        phases["timed"] = time.perf_counter() - t_phase
        t_phase = time.perf_counter()
        extra: list[Record] = []
        peaks: list[int] = []
        tracer = None
        if args.trace:
            subset = instances[:TRACE_CALLS]
            tracer = spans.Tracer(api)
            tracer.install()
            try:
                for k, inst in enumerate(subset):
                    tracer.call = k
                    extra.append(_one(workloads, api, inst))
                    extra[-1].probe = _probe(buf)
            finally:
                tracer.restore()
        else:
            fixed = workloads.build(api, w, FIXED_SEED, str(workdir), length=w.period)
            for inst in _largest(fixed):
                tracemalloc.start()
                extra.append(_one(workloads, api, inst))
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        phases["traced" if args.trace else "memory"] = time.perf_counter() - t_phase
        t_phase = time.perf_counter()
        gate = workloads.Gate(api)
        failures = [
            f"call {r.inst.index} ({r.inst.kind} n={r.inst.n} {r.inst.norm}): {reason}"
            for r in timed + extra
            if (reason := _verdict(gate, r))
        ]
        control = workloads.build_control(api, w, args.seed)
        for inst in control:
            reason = _guard(gate.check_control, inst)
            if reason:
                failures.append(reason)
        attempted = len(timed) + len(extra) + len(control)
        phases["gate"] = time.perf_counter() - t_phase
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {
        "workload": w.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "load": "closed loop, 1 client, 1 process",
        "thread_pins": THREAD_PINS,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_import_s": numpy_import_s,
    }
    print("env " + json.dumps(env))
    for f in failures[:20]:
        print("FAIL " + f, file=sys.stderr)

    if tracer is None:
        values, context = _end_to_end(timed, peaks, setup_times, setup_probes, gate)
    else:
        values, absent, self_s = spans.layer_metrics(tracer.spans, tracer.absent)
        # both passes at probe speed: the traced one runs later, when the
        # machine may be faster or slower
        visits = {}
        for r, t in zip(timed, _scaled([r.seconds for r in timed], [r.probe for r in timed], PROBE_WINDOW)):
            visits.setdefault(r.inst.index, []).append(t)
        traced = _scaled([r.seconds for r in extra], [r.probe for r in extra], PROBE_WINDOW)
        both = [(r, t) for r, t in zip(extra, traced) if r.inst.index in visits]
        untraced_wall = sum(statistics.median(visits[r.inst.index]) for r, _ in both)
        values["trace.overhead"] = sum(t for _, t in both) / untraced_wall - 1.0
        traced_wall = sum(r.seconds for r in extra)
        top = max(self_s, key=self_s.get) if self_s else None
        context = {
            "traced_calls": len(extra),
            "largest_self_time": {"name": top, "s": self_s.get(top, 0.0), "of_s": traced_wall},
            "absent": absent,
            "absent_sites": tracer.absent,
            "self_s": self_s,
        }
    context["fail_share"] = {"value": len(failures) / attempted, "base": attempted}
    context["phase_s"] = phases
    section = "per_layer" if tracer else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: BENCHMARK.json names metrics the benchmark does not compute: {missing}",
              file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for name, info in context.items():
        print(f"{name:32s} {json.dumps(info)}")

    record = {
        "environment": env,
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "context": context,
        "timed_calls": [[r.inst.index, r.inst.n, r.inst.norm, r.seconds, r.probe] for r in timed],
        "spans": tracer.spans if tracer else None,
    }
    with open(OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


def _parse(argv):
    p = argparse.ArgumentParser(description="normplane benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _import_normplane():
    """A fresh import of the package, so each set-up pays for it again."""
    for name in [m for m in sys.modules if m == "normplane" or m.startswith("normplane.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module("normplane." + m) for m in MODULES})


def _set_up(workloads, w, seed, workdir):
    t0 = time.perf_counter()
    api = _import_normplane()
    instances = workloads.build(api, w, seed, workdir)
    (warm,) = workloads.build(api, w, FIXED_SEED, workdir, length=1)
    workloads.collect(warm, workloads.call(api, warm))
    return time.perf_counter() - t0, api, instances


def _one(workloads, api, inst) -> Record:
    t0 = time.perf_counter()
    try:
        raw = workloads.call(api, inst)
    except Exception as exc:  # a raising call is counted as failed, not fatal
        return Record(inst, time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t0
    return Record(inst, dt, workloads.collect(inst, raw), None)


def _timed_pass(workloads, api, instances, seconds, buf) -> list[Record]:
    """Passes over the whole instance list until the time is up."""
    records = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        rec = _one(workloads, api, instances[len(records) % len(instances)])
        rec.probe = _probe(buf)
        records.append(rec)
    return records


def _probe(buf) -> float:
    """Time a fixed mix of interpreter and numpy work that normplane never runs."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i
    (buf * buf[::-1]).argsort()
    return time.perf_counter() - t0


def _scaled(times, probes, window):
    """Each time rescaled to the machine speed at which the probe takes PROBE_REF_S."""
    out = []
    for k, t in enumerate(times):
        local = statistics.median(probes[max(0, k - window): k + window + 1])
        out.append(t * PROBE_REF_S / local)
    return out


def _largest(instances):
    """One instance of the largest size for each kind and norm: where peaks occur."""
    top = {}
    for inst in instances:
        key = (inst.kind, inst.norm)
        if key not in top or inst.n > top[key].n:
            top[key] = inst
    return list(top.values())


def _guard(check, *args) -> str | None:
    try:
        return check(*args)
    except Exception as exc:  # an oracle that raises is a failed check
        return f"gate raised {type(exc).__name__}: {exc}"


def _verdict(gate, r: Record) -> str | None:
    return r.error or _guard(gate.check, r.inst, r.out)


def _end_to_end(timed, peaks, setup_times, setup_probes, gate):
    scaled = _scaled([r.seconds for r in timed], [r.probe for r in timed], PROBE_WINDOW)
    setup = _scaled(setup_times, setup_probes, SETUPS)
    values = _call_stats(timed, scaled)
    raw = _call_stats(timed, [r.seconds for r in timed])
    del raw["pct"], raw["count"]
    values["setup_s"] = statistics.median(setup)
    values["peak_mb"] = max(peaks) / 1e6
    cli = [r for r in timed if r.inst.kind == "cli" and r.error is None]
    context = {
        "unscaled": {**raw, "setup_s": statistics.median(setup_times)},
        "probe_s.median": statistics.median(r.probe for r in timed),
        "setup_s.runs": setup,
        "solve_s.tail.percentile": values.pop("pct"),
        "solve_s.instances": values.pop("count"),
        "solve_s.calls": len(timed),
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "perturbed_share": (
            {"value": sum(gate.perturbed(r.inst, r.out) for r in cli) / len(cli), "base": len(cli)}
            if cli else "undefined: no CLI calls on this workload"
        ),
    }
    return values, context


def _call_stats(timed, seconds):
    """Throughput and percentiles over instances, each at its median visit."""
    visits, sizes = {}, {}
    for r, t in zip(timed, seconds):
        visits.setdefault(r.inst.index, []).append(t)
        sizes[r.inst.index] = r.inst.n
    times = sorted(statistics.median(v) for v in visits.values())
    count = len(times)
    pct, tail = 100, times[-1]
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100 * count)
        if count - rank >= 10:
            pct, tail = q, times[rank - 1]
            break
    return {
        "pts_per_s": sum(sizes.values()) / sum(times),
        "solve_s.p50": statistics.median(times),
        "solve_s.tail": tail,
        "pct": pct,
        "count": count,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
