"""Span tracing for the benchmark's traced run.

`Tracer.install()` replaces every public function of every `elgar.*`
module with a timing wrapper, in each module namespace that holds a
reference to it (so `elgar.losses.fk_world` and `elgar.metrics.fk_world`
are both wrapped), plus the two public methods that carry most of the
training work: `Tensor.backward` and `Adam.step`. Nothing under `src/`
changes; `uninstall()` puts the originals back.

Each call records one span `[name, start, end, parent, op, size]` in
memory. `name` is `<layer>.<function>` with the layer named after its
module; `parent` is the index of the enclosing span (-1 for a root);
`op` ties the span to one benchmark operation; `size` is an optional
work measure taken from the arguments (audio seconds for `extract_f0`
and `synth_performance`, frames for `ddim_sample`).

The autodiff op constructors (`add`, `matmul`, `gelu`, ...) stay
unwrapped: the denoiser calls a few hundred of them per forward pass, so
their time is part of `denoiser.forward_with_tape`'s self time.

Every layer runs on the benchmark's one thread and nothing queues
between layers, so the waiting time of every layer is zero; the summary
says so rather than omitting it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from dataclasses import dataclass

AUTODIFF_KERNELS = frozenset(
    {
        "add", "mul", "scale", "add_const", "matmul", "linear", "gelu", "softmax",
        "layer_norm", "gather", "reshape", "transpose", "split", "concat_rows",
    }
)
METHODS = (("autodiff", "Tensor", "backward"), ("training", "Adam", "step"))


def _ddim_frames(args, kwargs):
    shape = kwargs["shape"] if "shape" in kwargs else args[1]
    frames = 1
    for d in shape[:-1]:
        frames *= int(d)
    return frames


SIZES = {
    "audio.extract_f0": lambda args, kwargs: args[0].duration,
    "synth.synth_performance": lambda args, kwargs: sum(note.duration_s for note in args[0]),
    "diffusion.ddim_sample": _ddim_frames,
}


def _elgar_modules():
    import elgar

    mods = [elgar]
    for info in pkgutil.iter_modules(elgar.__path__):
        mods.append(importlib.import_module(f"elgar.{info.name}"))
    return mods


def _targets():
    """(span name, owner, attribute, original) for every traced callable."""
    out = []
    for mod in _elgar_modules():
        layer = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and not (layer == "autodiff" and attr in AUTODIFF_KERNELS)
            ):
                out.append((f"{layer}.{attr}", mod, attr, obj))
    for layer, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(f"elgar.{layer}"), cls_name)
        out.append((f"{layer}.{cls_name}.{attr}", cls, attr, vars(cls)[attr]))
    return out


class Tracer:
    """In-memory span recorder; single-threaded by construction."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append(
                [name, clock(), 0.0, stack[-1] if stack else -1, self.op,
                 size(args, kwargs) if size else None]
            )
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = clock()

        return wrapper

    def install(self) -> None:
        targets = _targets()
        wrappers = {id(orig): self._wrap(name, orig) for name, _, _, orig in targets}
        for name, owner, attr, orig in targets:
            if isinstance(owner, type):
                setattr(owner, attr, wrappers[id(orig)])
                self._restore.append((owner, attr, orig))
        for mod in _elgar_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, attr, wrappers[id(obj)])
                    self._restore.append((mod, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def span(self, name: str, op: int):
        """Context manager for a root span that owns one benchmark op."""
        return _RootSpan(self, name, op)

    def write(self, path, t0: float) -> None:
        """Spans as JSON lines, times in seconds from t0."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, size in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, op, size]) + "\n")


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str, op: int):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        t = self.tracer
        t.op = self.op
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), 0.0, -1, self.op, None])
        t._stack.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t._stack.pop()
        t.spans[self.index][2] = time.perf_counter()
        t.op = -1
        return False


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span (children may nest or overlap one another)."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[1], s[2]
        covered = union_length(
            (max(spans[c][1], lo), min(spans[c][2], hi)) for c in children[i]
        )
        out.append(hi - lo - covered)
    return out


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0  # seconds, summed over calls (nested calls of one name overlap)
    self: float = 0.0  # seconds
    size: float = 0.0


@dataclass
class Summary:
    fns: dict[str, Stat]
    layers: dict[str, Stat]  # busy = union of the layer's spans
    roots: Stat  # the benchmark's own root spans

    @property
    def wall(self) -> float:
        """Seconds covered by the root spans."""
        return self.roots.busy


def summarize(spans, ops: set[int] | None = None) -> Summary:
    """Per-function and per-layer calls, busy and self time over the spans
    that belong to `ops` (all spans when None)."""
    selfs = self_times(spans)
    fns: dict[str, Stat] = {}
    layers: dict[str, Stat] = {}
    layer_iv: dict[str, list] = {}
    roots = Stat()
    for s, own in zip(spans, selfs):
        name, start, end, parent, op, size = s
        if ops is not None and op not in ops:
            continue
        if parent < 0:
            roots.calls += 1
            roots.busy += end - start
            roots.self += own
            continue
        st = fns.setdefault(name, Stat())
        st.calls += 1
        st.busy += end - start
        st.self += own
        st.size += size or 0.0
        layer = name.partition(".")[0]
        ls = layers.setdefault(layer, Stat())
        ls.calls += 1
        ls.self += own
        layer_iv.setdefault(layer, []).append((start, end))
    for layer, iv in layer_iv.items():
        layers[layer].busy = union_length(iv)
    return Summary(fns=fns, layers=layers, roots=roots)


LAYERS = (
    "audio", "autodiff", "cello", "cli", "conditions", "config", "denoiser", "diffusion",
    "geometry", "losses", "metrics", "motion", "motionfile", "pipeline", "rotations",
    "skeleton", "synth", "training",
)

# (name, unit, better); ".ms" / ".us" are mean busy time per call,
# ".self_ms" mean self time per call, "layer.*" figures are per unit of work
PER_LAYER = [
    ("denoiser.forward.ms", "ms", "lower"),
    ("denoiser.forward.self_ms", "ms", "lower"),
    ("denoiser.forward_backward.ms", "ms", "lower"),
    ("denoiser.forward.calls_per_step", "count", "lower"),
    ("denoiser.forward.calls_per_slice", "count", "lower"),
    ("denoiser.read_checkpoint.ms", "ms", "lower"),
    ("denoiser.write_checkpoint.ms", "ms", "lower"),
    ("autodiff.backward.self_ms", "ms", "lower"),
    ("autodiff.backward.calls", "count", "lower"),
    ("losses.loss_total_grad.ms", "ms", "lower"),
    ("losses.loss_total_grad.self_ms", "ms", "lower"),
    ("losses.make_bundle.calls", "count", "lower"),
    ("losses.gt_cache_hit_ratio", "ratio", "higher"),
    ("training.batch_items_per_step", "count", "lower"),
    ("skeleton.fk_world.ms", "ms", "lower"),
    ("skeleton.fk_world.calls_per_take", "count", "lower"),
    ("skeleton.end_site_positions.ms", "ms", "lower"),
    ("rotations.rot6d_to_matrix.ms", "ms", "lower"),
    ("motion.bow_endpoints.ms", "ms", "lower"),
    ("motion.renormalize_bow_dir.ms", "ms", "lower"),
    ("training.backward.self_ms", "ms", "lower"),
    ("training.adam_step.ms", "ms", "lower"),
    ("diffusion.ddim_sample.ms_per_slice", "ms", "lower"),
    ("diffusion.ddim_sample.self_ms_per_slice", "ms", "lower"),
    ("diffusion.cfg_combine.ms", "ms", "lower"),
    ("diffusion.stitch_long_form.ms", "ms", "lower"),
    ("pipeline.generate_motion.self_ms", "ms", "lower"),
    ("pipeline.frames_denoised_per_frame_out", "ratio", "lower"),
    ("audio.read_wav.ms", "ms", "lower"),
    ("audio.extract_f0.ms_per_audio_s", "ms/s", "lower"),
    ("audio.build_features.ms", "ms", "lower"),
    ("cello.select_intent.us", "us", "lower"),
    ("cello.select_intent.calls_per_voiced_frame", "ratio", "lower"),
    ("geometry.load_raw_take.ms", "ms", "lower"),
    ("geometry.normalize_take.ms", "ms", "lower"),
    ("geometry.segment_segment_distance.calls", "count", "lower"),
    ("metrics.evaluate.ms", "ms", "lower"),
    ("metrics.evaluate.self_ms", "ms", "lower"),
    ("metrics.detect_bowing_attacks.ms", "ms", "lower"),
    ("motionfile.read_motion.ms", "ms", "lower"),
    ("motionfile.write_motion.ms", "ms", "lower"),
    ("conditions.save_condition_track.ms", "ms", "lower"),
    ("synth.synth_performance.ms", "ms", "lower"),
    *[
        (f"layer.{layer}.{what}", unit, "lower")
        for layer in LAYERS
        for what, unit in (("calls", "count"), ("busy_ms", "ms"), ("self_ms", "ms"))
    ],
    ("trace.wall_ms", "ms", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("trace.spans_per_unit", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


@dataclass
class Work:
    """What the traced ops did, as the denominators of the layer metrics."""

    units: int  # training steps, generated clips or scored takes
    steps: int = 0
    takes: int = 0
    voiced_frames: int = 0
    frames_out: int = 0


def _per(x: float, d: float) -> float:
    return x / d if d else 0.0


def layer_metrics(ops: Summary, setup: Summary, work: Work, overhead_pct: float) -> dict:
    """Every PER_LAYER metric; a figure whose layer or denominator the
    workload does not exercise reads 0."""
    f = lambda name: ops.fns.get(name, Stat())
    ms = lambda name: _per(f(name).busy, f(name).calls) * 1e3
    self_ms = lambda name: _per(f(name).self, f(name).calls) * 1e3
    fwd, bwd = f("denoiser.forward_with_tape"), f("autodiff.Tensor.backward")
    ddim, ltg = f("diffusion.ddim_sample"), f("losses.loss_total_grad")
    sel, f0 = f("cello.select_intent"), f("audio.extract_f0")
    m = {
        "denoiser.forward.ms": ms("denoiser.forward_with_tape"),
        "denoiser.forward.self_ms": self_ms("denoiser.forward_with_tape"),
        "denoiser.forward_backward.ms": _per(fwd.busy + bwd.busy, bwd.calls) * 1e3,
        "denoiser.forward.calls_per_step": _per(fwd.calls, work.steps),
        "denoiser.forward.calls_per_slice": _per(fwd.calls, ddim.calls),
        "denoiser.read_checkpoint.ms": ms("denoiser.read_checkpoint"),
        "denoiser.write_checkpoint.ms": ms("denoiser.write_checkpoint"),
        "autodiff.backward.self_ms": self_ms("autodiff.Tensor.backward"),
        "autodiff.backward.calls": _per(bwd.calls, work.steps),
        "losses.loss_total_grad.ms": ms("losses.loss_total_grad"),
        "losses.loss_total_grad.self_ms": self_ms("losses.loss_total_grad"),
        "losses.make_bundle.calls": _per(f("losses.make_bundle").calls, work.steps),
        "losses.gt_cache_hit_ratio": 1 - _per(f("losses.make_bundle").calls, ltg.calls) if ltg.calls else 0,
        "training.batch_items_per_step": _per(ltg.calls, work.steps),
        "skeleton.fk_world.ms": ms("skeleton.fk_world"),
        "skeleton.fk_world.calls_per_take": _per(f("skeleton.fk_world").calls, work.takes),
        "skeleton.end_site_positions.ms": ms("skeleton.end_site_positions"),
        "rotations.rot6d_to_matrix.ms": ms("rotations.rot6d_to_matrix"),
        "motion.bow_endpoints.ms": ms("motion.bow_endpoints"),
        "motion.renormalize_bow_dir.ms": ms("motion.renormalize_bow_dir"),
        "training.backward.self_ms": self_ms("training.backward"),
        "training.adam_step.ms": ms("training.Adam.step"),
        "diffusion.ddim_sample.ms_per_slice": ms("diffusion.ddim_sample"),
        "diffusion.ddim_sample.self_ms_per_slice": self_ms("diffusion.ddim_sample"),
        "diffusion.cfg_combine.ms": ms("diffusion.cfg_combine"),
        "diffusion.stitch_long_form.ms": ms("diffusion.stitch_long_form"),
        "pipeline.generate_motion.self_ms": self_ms("pipeline.generate_motion"),
        "pipeline.frames_denoised_per_frame_out": _per(ddim.size, work.frames_out),
        "audio.read_wav.ms": ms("audio.read_wav"),
        "audio.extract_f0.ms_per_audio_s": _per(f0.busy, f0.size) * 1e3,
        "audio.build_features.ms": ms("audio.build_features"),
        "cello.select_intent.us": _per(sel.busy, sel.calls) * 1e6,
        "cello.select_intent.calls_per_voiced_frame": _per(sel.calls, work.voiced_frames),
        "geometry.load_raw_take.ms": ms("geometry.load_raw_take"),
        "geometry.normalize_take.ms": ms("geometry.normalize_take"),
        "geometry.segment_segment_distance.calls": _per(
            f("geometry.segment_segment_distance").calls, work.takes
        ),
        "metrics.evaluate.ms": ms("metrics.evaluate"),
        "metrics.evaluate.self_ms": self_ms("metrics.evaluate"),
        "metrics.detect_bowing_attacks.ms": ms("metrics.detect_bowing_attacks"),
        "motionfile.read_motion.ms": ms("motionfile.read_motion"),
        "motionfile.write_motion.ms": ms("motionfile.write_motion"),
        "conditions.save_condition_track.ms": ms("conditions.save_condition_track"),
        "synth.synth_performance.ms": _per(
            setup.fns.get("synth.synth_performance", Stat()).busy,
            setup.fns.get("synth.synth_performance", Stat()).calls,
        ) * 1e3,
    }
    for layer in LAYERS:
        st = ops.layers.get(layer, Stat())
        m[f"layer.{layer}.calls"] = _per(st.calls, work.units)
        m[f"layer.{layer}.busy_ms"] = _per(st.busy, work.units) * 1e3
        m[f"layer.{layer}.self_ms"] = _per(st.self, work.units) * 1e3
    m["trace.wall_ms"] = _per(ops.wall, work.units) * 1e3
    m["trace.unattributed_ms"] = _per(ops.roots.self, work.units) * 1e3
    m["trace.spans_per_unit"] = _per(sum(s.calls for s in ops.fns.values()), work.units)
    m["trace.overhead_pct"] = overhead_pct
    return {name: m[name] for name, _, _ in PER_LAYER}
