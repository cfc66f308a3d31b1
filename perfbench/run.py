"""The elgar benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {train,generate,score} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root; it imports the package from `src/`.
Each run builds its inputs from the seed (set-up, timed on its own),
runs ops back to back for about S seconds on one thread, checks every
op's outputs, prints a table of the workload's metrics and ends with one
JSON line `{"correct", "attempted", "failed", "metrics"}`.

--trace 0 reports the end-to-end metrics, measured with tracing off and
normalised for host speed: a fixed reference kernel, timed between ops
and set-ups, scales the run's times to a host of nominal speed (see
REF_NOMINAL_S). The table also prints them as measured (wall.*).
--trace 1 runs half the time untraced, then repeats the same ops with a
timing wrapper on every public `elgar.*` function (see tracing.py), and
reports the per-layer metrics plus the tracing overhead. Spans and a
per-function summary go to perfbench/work/.

Workload-specific names in the table (train.step_s.p50, generate.rtf,
score.frames_per_s, ...) map onto the generic keys of the JSON line:
op_s.* is the normalised wall time of one unit of work (a training
step, a generated clip, a scored take) and work_per_s its throughput
(steps, seconds of audio, frames per normalised second).
"""

import os

# The package promises one core: pin every BLAS/OpenMP pool before numpy loads.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "ELGAR_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import PER_LAYER, Tracer, Work, layer_metrics, summarize  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
SETUP_REPEATS = 9
# Host-speed normalisation of the end-to-end times: a shared host's speed
# drifts by up to ~30% over seconds to minutes, so each run times a fixed
# reference kernel between its ops and scales its wall times by
# REF_NOMINAL_S / (the run's median kernel time).
REF_REPS = 100  # block products per kernel run
REF_NOMINAL_S = 0.020  # median reference_kernel() on the baseline host
REF_SHARE = 0.05  # kernel time as a share of the time it is spread over
LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL = 75  # the tail the train and score runs support (>= 40 samples)
E2E = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    (f"op_s.p{TAIL}", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
SETUP_OP, CHECK_OP = -2, -3


def percentile(xs, p: float) -> float:
    """Linear-interpolated percentile, as numpy's default computes it."""
    s = sorted(xs)
    k = (len(s) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(n: int) -> float | None:
    """Highest percentile on the ladder with at least ten of n samples
    beyond it; None below 20 samples, where not even the median has."""
    best = None
    for p in LADDER:
        if n * (100 - p) / 100 >= 10 - 1e-9:
            best = p
    return best


def stamp() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


@dataclass
class Op:
    index: int
    seconds: float
    out: dict | None
    error: str | None


def run_op(wl, ctx, i: int, tracer=None) -> Op:
    """Time one op, then check it untimed; an exception fails the op."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.op(ctx, i)
        else:
            with tracer.span("bench.op", i):
                out = wl.op(ctx, i)
        dt = time.perf_counter() - t0
        if tracer is None:
            err = wl.check(ctx, i, out)
        else:
            with tracer.span("bench.check", CHECK_OP):
                err = wl.check(ctx, i, out)
    except Exception:  # the loop must go on and count the failure
        dt, out, err = time.perf_counter() - t0, None, traceback.format_exc()
    if err:
        print(f"op {i} failed: {err}", file=sys.stderr)
    return Op(i, dt, out, err)


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of work that uses no elgar code:
    products of a 150x64 block with a 64x192 matrix, each with a tanh and
    a reduction, the shapes of one denoiser layer on one slice; about
    20 ms on the baseline host. It measures how fast the host computes
    right now. Its buffers are allocated before timing, so the allocator's
    state (which differs between set-up and ops) does not change it."""
    import numpy as np

    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((150, 64)), 0.1 * rng.standard_normal((64, 192))
    h, y = np.empty((150, 192)), np.empty((150, 64))
    t0 = time.perf_counter()
    for _ in range(REF_REPS):
        np.tanh(np.matmul(x, w, out=h), out=h)
        np.add(h.reshape(150, 3, 64).sum(axis=1, out=y), x, out=y)
    return time.perf_counter() - t0


def sample_host(busy: float, out: list[float]) -> None:
    """Run the reference kernel, at least once, until it has taken
    REF_SHARE of `busy` seconds, appending each time to `out`; so the
    samples spread over a run in proportion to the time measured."""
    spent = 0.0
    while True:
        out.append(reference_kernel())
        spent += out[-1]
        if spent >= REF_SHARE * busy:
            return


def measure(wl, ctx, seconds: float = 0.0, count: int | None = None, tracer=None,
            host: list[float] | None = None) -> list[Op]:
    """Closed loop, whole cycles of the input mix, until `seconds` have
    passed or `count` ops have run. With `host`, the reference kernel
    runs after each op, untimed by it, and its times go to `host`."""
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(wl.cycle):
            ops.append(run_op(wl, ctx, len(ops), tracer))
            if host is not None:
                sample_host(ops[-1].seconds, host)
        if count is not None and len(ops) >= count:
            return ops
        if count is None and time.perf_counter() >= deadline:
            return ops


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, ops: list[Op], setup_s: list[float], host: list[float]) -> tuple[dict, list[tuple]]:
    """Generic JSON metrics, host-speed normalised, and the table rows
    under the workload's names, normalised and as measured."""
    good = [op for op in ops if op.error is None]
    per = wl.units_per_op
    samples = [op.seconds / per for op in good]
    work = sum(op.out["work"] for op in good)
    wall = sum(op.seconds for op in good)
    n = len(samples)
    tail = tail_percentile(n)
    scale = REF_NOMINAL_S / statistics.median(host)  # < 1: host ran slower than nominal
    raw = {
        "setup_s": statistics.median(setup_s),
        "op_s.p50": percentile(samples, 50) if n else math.nan,
        f"op_s.p{TAIL}": percentile(samples, TAIL) if n else math.nan,
        "work_per_s": work / wall if wall else math.nan,
    }
    m = {k: v / scale if k == "work_per_s" else v * scale for k, v in raw.items()}
    m["peak_rss_mb"] = peak_rss_mb()
    note = f"n={n} " + (f"ops of {per} {wl.unit}s" if per > 1 else f"{wl.unit}s")
    note += f"; highest percentile with >=10 beyond: {'p%g' % tail if tail else 'none (n<20)'}"
    op_p50, op_tail = f"{wl.op_metric}.p50", f"{wl.op_metric}.p{TAIL}"
    rows = [
        ("host.ref_kernel_s", statistics.median(host), "s",
         f"median of {len(host)} reference-kernel runs; nominal {REF_NOMINAL_S:g} s"),
        ("host.scale", scale, "x", "nominal / measured kernel time; times below are x this"),
        ("setup_s", m["setup_s"], "s", f"median of {len(setup_s)} set-ups"),
        (op_p50, m["op_s.p50"], "s", note),
        (op_tail, m[f"op_s.p{TAIL}"], "s", note),
    ]
    if wl.name == "train":
        losses = [op.out["log"][-1]["simple"] for op in good]
        rows.append(("train.loss_simple", statistics.median(losses) if losses else math.nan, "mse",
                     f"plain reconstruction MSE at step {per}, median over ops"))
        rows.append(("train.steps_per_s", m["work_per_s"], "1/s", "= work_per_s"))
    elif wl.name == "generate":
        rows.append(("generate.rtf", 1.0 / m["work_per_s"], "s/s", "wall s per s of audio = 1/work_per_s"))
    else:
        rows.append(("score.frames_per_s", m["work_per_s"], "frames/s", "= work_per_s"))
    rows += [
        ("peak_rss_mb", m["peak_rss_mb"], "MB", "whole process"),
        ("ops", len(ops), "count", "attempted"),
        ("ops_failed", len(ops) - len(good), "count", "failed or did not pass a check"),
        ("wall.setup_s", raw["setup_s"], "s", "as measured, not normalised"),
        (f"wall.{op_p50}", raw["op_s.p50"], "s", "as measured"),
        (f"wall.{op_tail}", raw[f"op_s.p{TAIL}"], "s", "as measured"),
        ("wall.work_per_s", raw["work_per_s"], "1/s", "as measured"),
    ]
    return m, rows


BASELINE = (  # ROADMAP open item 1, one 150-frame slice, one BLAS thread
    ("denoiser forward", 20.0, lambda m, d: m["denoiser.forward.ms"]),
    ("denoiser forward + backward", 44.0, lambda m, d: m["denoiser.forward_backward.ms"]),
    ("loss_total_grad", 24.0, lambda m, d: m["losses.loss_total_grad.ms"]),
    ("train step, B=4 (untraced)", 192.0, lambda m, d: d.get("step_ms", 0.0)),
    ("one 5 s slice, 50 DDIM steps, CFG", 1450.0, lambda m, d: m["diffusion.ddim_sample.ms_per_slice"]),
    ("evaluate per 150 frames", 72.0, lambda m, d: m["metrics.evaluate.ms"] * 150 / max(d["frames"], 1)),
    ("extract_f0 per audio second", 6.9, lambda m, d: m["audio.extract_f0.ms_per_audio_s"]),
    ("synth_performance per 4.6 s take", 82.0, lambda m, d: d["synth_ms_per_s"] * 4.6),
)


def traced(wl, ctx, seconds: float, tracer, t0: float) -> tuple[dict, list[Op], list[tuple], bool]:
    """One warm-up cycle, untraced ops for half the time, then the same
    ops traced; program state is reset before each phase."""
    warm = measure(wl, ctx, count=wl.cycle)
    wl.reset(ctx)
    plain = measure(wl, ctx, seconds=seconds / 2)
    m = max(wl.cycle, min(len(plain), wl.trace_ops) // wl.cycle * wl.cycle)
    wl.reset(ctx)
    tracer.install()
    try:
        ops = measure(wl, ctx, count=m, tracer=tracer)
    finally:
        tracer.uninstall()
    # against the untraced ops nearest in time: the host's speed drifts
    overhead = (sum(op.seconds for op in ops) / sum(op.seconds for op in plain[-m:]) - 1.0) * 100
    summary = summarize(tracer.spans, ops=set(range(m)))
    work = Work(**wl.work(ctx, ops))
    setup = summarize(tracer.spans, ops={SETUP_OP})
    metrics = layer_metrics(summary, setup, work, overhead)

    layer_self = sum(st.self for st in summary.layers.values())
    gap = abs(layer_self + summary.roots.self - summary.wall)
    balanced = gap <= 1e-9 * max(summary.wall, 1.0)
    rows = [(name, metrics[name], unit, "") for name, unit, _ in PER_LAYER]
    rows.append(("trace.wait_ms", 0.0, "ms", "every layer: one thread, no queues, nothing waits"))
    rows.append(("trace.self_sum_check", layer_self + summary.roots.self, "s",
                 f"layers' self + unattributed vs traced wall {summary.wall:.6f} s: "
                 + ("equal" if balanced else f"off by {gap:.3e} s")))
    synth = setup.fns.get("synth.synth_performance")
    extra = {
        "frames": ctx.data.get("frames", 0),
        "synth_ms_per_s": synth.busy / synth.size * 1e3 if synth else 0.0,
    }
    if wl.name == "train":
        extra["step_ms"] = sum(op.seconds for op in plain) / (len(plain) * wl.units_per_op) * 1e3
    for label, ref, value in BASELINE:
        v = value(metrics, extra)
        if v:
            rows.append((f"baseline: {label}", v, "ms", f"ROADMAP {ref:g} ms, ratio {v / ref:.2f}"))

    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / f"spans-{wl.name}.jsonl", t0)
    fns = {
        name: dict(calls=st.calls, busy_ms=st.busy * 1e3, self_ms=st.self * 1e3, wait_ms=0.0)
        for name, st in sorted(summary.fns.items())
    }
    (WORK / f"trace-{wl.name}.json").write_text(
        json.dumps({"stamp": stamp(), "work": work.__dict__, "traced_ops": m, "per_layer": metrics,
                    "functions": fns}, indent=1),
        encoding="utf-8",
    )
    return metrics, warm + plain + ops, rows, balanced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "generate", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "elgar" / "__init__.py").is_file():
        print(f"error: no elgar package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    t0 = time.perf_counter()
    try:
        if args.trace:
            tracer = Tracer()
            (workdir / "setup").mkdir(parents=True)
            tracer.install()
            try:
                with tracer.span("bench.setup", SETUP_OP):
                    ctx = wl.setup(args.seed, workdir / "setup")
            finally:
                tracer.uninstall()
            metrics, ops, rows, ok = traced(wl, ctx, args.seconds, tracer, t0)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            setup_s, host = [], []
            for k in range(SETUP_REPEATS):
                d = workdir / f"setup{k}"
                d.mkdir(parents=True)
                s0 = time.perf_counter()
                ctx = wl.setup(args.seed, d)
                setup_s.append(time.perf_counter() - s0)
                sample_host(setup_s[-1], host)
            ops = measure(wl, ctx, seconds=args.seconds, host=host)
            metrics, rows = end_to_end(wl, ops, setup_s, host)
            ok = True
            units = dict(E2E)
        try:
            final = wl.final_check(ctx)
        except Exception:  # reported as a failed run check, like a failed op
            final = traceback.format_exc()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if final:
        print(f"run check failed: {final}", file=sys.stderr)
    failed = len(ops) if final else sum(op.error is not None for op in ops)

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"closed loop, 1 client, ops back to back")
    print("stamp " + json.dumps(stamp()))
    print(f"{'metric':<48} {'value':>14} {'unit':<9} note")
    for name, value, unit, note in rows:
        print(f"{name:<48} {value:>14.6g} {unit:<9} {note}")
    result = {
        "correct": ok and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        # a run whose every op failed has no timing: 0 keeps the line valid JSON
        "metrics": {
            k: {"value": metrics[k] if math.isfinite(metrics[k]) else 0.0, "unit": u}
            for k, u in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
