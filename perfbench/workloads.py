"""The three benchmark workloads, each a closed loop with one client.

A workload builds its inputs in `setup` from the workload seed with
`elgar.synth`, then the runner calls `op` back to back: the next op
starts when the previous one returns. `check` validates one op's outputs
after it is timed; a check that returns a message counts the op as
failed. `cycle` is how many ops make one whole round of the workload's
input mix; the runner only stops between rounds.

Every call into the program goes through a module attribute
(`training.train`, `cli.main`, ...) so that the traced run's wrappers see
it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from elgar import audio, cello, cli, conditions, denoiser, diffusion, losses, metrics
from elgar import motionfile, pipeline, rotations, skeleton, synth, training

FPS = 30.0
NOTE_S = 0.55  # seconds per note of the synthetic scores


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """Run the command line in-process with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@dataclass
class Context:
    seed: int
    workdir: Path
    skeleton: object
    cello: object
    data: dict = field(default_factory=dict)
    first: dict = field(default_factory=dict)  # reference digests for repeat checks


class Workload:
    name = unit = op_metric = ""  # op_metric: the table's name for op_s
    cycle = 1
    units_per_op = 1
    trace_ops = 30  # ops repeated under tracing, at most

    def reset(self, ctx: Context) -> None:
        """Return mutable program state to how set-up left it."""

    def final_check(self, ctx: Context) -> str | None:
        """A check on the run's outputs as a whole; a message fails every op."""
        return None


class Train(Workload):
    """`elgar.training.train` at the default DenoiserConfig, B=4, every
    LossWeights term on. One op is a `train()` call of `steps_per_op`
    steps that writes its checkpoint; ops 2j and 2j+1 share a seed so the
    second checks that the checkpoint bytes repeat."""

    name = "train"
    unit = "step"
    op_metric = "train.step_s"
    cycle = 2

    def __init__(self, n_scores=4, notes_per_score=16, steps_per_op=2, config=None):
        self.n_scores = n_scores
        self.notes_per_score = notes_per_score
        self.units_per_op = steps_per_op
        self.config = config or denoiser.DenoiserConfig()

    def setup(self, seed: int, workdir: Path) -> Context:
        sk, ce = skeleton.default_skeleton(), cello.default_cello()
        data = pipeline.make_synthetic_dataset(
            sk, ce, n_train_scores=self.n_scores, n_test_scores=0,
            notes_per_score=self.notes_per_score, note_durations=(NOTE_S,), fps=FPS, seed=seed,
        )
        return Context(seed, workdir, sk, ce, {"slices": data.train})

    def reset(self, ctx: Context) -> None:
        """Empty the ground-truth FK cache, as a fresh training run has it."""
        for sl in ctx.data["slices"]:
            sl.fk_cache = None

    def op(self, ctx: Context, i: int) -> dict:
        seed = ctx.seed * 1000 + i // 2
        path = ctx.workdir / f"train-{i % 2}.ckpt"
        result = training.train(
            ctx.data["slices"],
            self.config,
            diffusion.cosine_schedule(1000),
            diffusion.GuidanceConfig(),
            ctx.skeleton,
            ctx.cello,
            weights=losses.LossWeights(),
            optimizer=training.OptimizerSettings(lr=2e-3),
            steps=self.units_per_op,
            batch_size=4,
            seed=seed,
            log_every=1,
            checkpoint_path=path,
            checkpoint_every=self.units_per_op,
        )
        return {"seed": seed, "log": result.log, "path": path, "work": self.units_per_op}

    def check(self, ctx: Context, i: int, out: dict) -> str | None:
        if not all(math.isfinite(v) for row in out["log"] for v in row.values()):
            return "non-finite loss"
        digest = _digest(out["path"])
        ref = ctx.first.setdefault(out["seed"], digest)
        if digest != ref:
            return f"checkpoint bytes differ between repeats of seed {out['seed']}"
        return None

    def work(self, ctx: Context, ops) -> dict:
        return {"units": self.units_per_op * len(ops), "steps": self.units_per_op * len(ops)}


class Generate(Workload):
    """`elgar generate --audio` in-process: read the checkpoint and the WAV,
    track f0, sample with DDIM and classifier-free guidance, stitch, write
    the .elgr. The clips alternate between one that fits one 5 s slice
    (no stitching) and one that needs three slices, the last padded."""

    name = "generate"
    unit = "clip"
    op_metric = "generate.clip_s"
    trace_ops = 2

    def __init__(self, clips_s: tuple[float, ...] = (5.0, 6.5), ddim_steps: int = 50, config=None):
        self.clips_s = clips_s
        self.cycle = len(clips_s)
        self.ddim_steps = ddim_steps
        self.config = config or denoiser.DenoiserConfig()

    def setup(self, seed: int, workdir: Path) -> Context:
        sk, ce = skeleton.default_skeleton(), cello.default_cello()
        rng = np.random.default_rng(seed)
        params = denoiser.DenoiserParams.initialize(self.config, seed=seed)
        # a fresh init zeroes every adaLN gate and bias, which would make
        # each sublayer a no-op; perturb them so every path does real work
        for name, arr in params.arrays.items():
            if not arr.any():
                params.arrays[name] = 0.02 * rng.standard_normal(arr.shape)
        ckpt = workdir / "model.ckpt"
        denoiser.write_checkpoint(ckpt, params)
        n_notes = int(math.ceil(max(self.clips_s) / NOTE_S))
        take = synth.synth_performance(
            synth.random_score(rng, ce, n_notes, durations=(NOTE_S,)), sk, ce, fps=FPS
        )
        clips = []
        for k, secs in enumerate(self.clips_s):
            n = int(round(secs * take.audio.sample_rate))
            wav = workdir / f"clip{k}.wav"
            audio.write_wav(wav, audio.AudioClip(take.audio.sample_rate, take.audio.samples[:n]))
            frames = int(round(secs * FPS))
            clips.append({"wav": wav, "seconds": secs, "frames": frames, "seed": seed * 10 + k})
        return Context(seed, workdir, sk, ce, {"ckpt": ckpt, "clips": clips})

    def op(self, ctx: Context, i: int) -> dict:
        clip = ctx.data["clips"][i % len(self.clips_s)]
        out = ctx.workdir / f"gen{i % len(self.clips_s)}.elgr"
        code, _ = _quiet_main(
            ["generate", "--checkpoint", str(ctx.data["ckpt"]), "--audio", str(clip["wav"]),
             "--out", str(out), "--seed", str(clip["seed"]), "--steps", str(self.ddim_steps)]
        )
        return {"code": code, "path": out, "clip": clip, "work": clip["seconds"]}

    def check(self, ctx: Context, i: int, out: dict) -> str | None:
        if out["code"] != 0:
            return f"generate exited {out['code']}"
        seq = motionfile.read_motion(out["path"])
        want = (out["clip"]["frames"], 309)
        if seq.features.shape != want:
            return f"output shape {seq.features.shape}, expected {want}"
        if not np.all(np.isfinite(seq.features)):
            return "non-finite output"
        if np.abs(np.linalg.norm(seq.bow_dir(), axis=1) - 1.0).max() > 1e-6:
            return "bow direction is not unit length"
        digest = _digest(out["path"])
        if digest != ctx.first.setdefault(str(out["clip"]["wav"]), digest):
            return ".elgr bytes differ between repeats"
        return None

    def work(self, ctx: Context, ops) -> dict:
        frames = sum(op.out["clip"]["frames"] for op in ops if op.out)
        return {"units": len(ops), "frames_out": frames}


_RMSD = re.compile(r"cello RMSD mean (\S+) m max (\S+) m")


class Score(Workload):
    """`elgar preprocess` on a raw capture, then `elgar evaluate --audio
    --gt`, both in-process. The capture is the synthetic take moved by a
    seeded rigid transform; the reference motion is the untouched take."""

    name = "score"
    unit = "take"
    op_metric = "score.take_s"
    trace_ops = 6  # a take makes ~10k spans

    def __init__(self, take_s: float = 8.8):
        self.take_s = take_s

    def setup(self, seed: int, workdir: Path) -> Context:
        sk, ce = skeleton.default_skeleton(), cello.default_cello()
        rng = np.random.default_rng(seed)
        # equal note lengths: every seed scores a take of the same length
        n_notes = int(round(self.take_s / NOTE_S))
        take = synth.synth_performance(
            synth.random_score(rng, ce, n_notes, durations=(NOTE_S,)), sk, ce, fps=FPS
        )
        motion, f0, n = take.motion, take.track.f0, len(take.motion)
        rot = rotations.random_rotations(1, rng)[0]
        shift = rng.uniform(-0.5, 0.5, 3)
        pos, _ = skeleton.fk_world(motion.rotations(), sk)
        feats = motion.features.copy()
        feats[:, -3:] = feats[:, -3:] @ rot.T
        frames = []
        for k in range(n):
            pts = {name: np.asarray(p) for name, p in ce.landmarks.items()}
            pts.update(zip(sk.names, pos[k]))
            frames.append({name: [float(x) for x in rot @ p + shift] for name, p in pts.items()})
        doc = {
            "fps": FPS,
            "frames": frames,
            "motion": [[float(x) for x in row] for row in feats],
            "f0": [float(x) for x in f0],
        }
        raw = workdir / "take.json"
        raw.write_text(json.dumps(doc), encoding="utf-8")
        wav = workdir / "take.wav"
        audio.write_wav(wav, take.audio)
        gt = workdir / "gt.elgr"
        motionfile.write_motion(gt, motion)
        data = {
            "raw": raw, "wav": wav, "gt": gt, "prefix": workdir / "pre" / "take",
            "report": workdir / "report.json", "frames": n, "voiced": int(np.count_nonzero(f0 > 0)),
        }
        return Context(seed, workdir, sk, ce, data)

    def op(self, ctx: Context, i: int) -> dict:
        d = ctx.data
        code_pre, text = _quiet_main(["preprocess", str(d["raw"]), "--out", str(d["prefix"])])
        code_eval, _ = _quiet_main(
            ["evaluate", "--motion", str(d["prefix"].with_suffix(".elgr")),
             "--audio", str(d["wav"]), "--gt", str(d["gt"]), "--out", str(d["report"])]
        )
        return {"codes": (code_pre, code_eval), "stdout": text, "work": d["frames"]}

    def check(self, ctx: Context, i: int, out: dict) -> str | None:
        d = ctx.data
        if out["codes"] != (0, 0):
            return f"preprocess/evaluate exited {out['codes']}"
        found = _RMSD.search(out["stdout"])
        if found is None or float(found.group(2)) > 1e-9:
            return f"alignment RMSD not near zero: {found and found.group(0)}"
        report = d["report"].read_text(encoding="utf-8")
        r = json.loads(report)
        if r["bowing_f1"] != 1.0 or abs(r["bcs"] - 1.0) >= 1e-12:
            return f"bowing scores of the untouched take: F1 {r['bowing_f1']}, BCS {r['bcs']}"
        if not all(isinstance(r[k], float) and math.isfinite(r[k]) for k in ("fcd_mm", "bsd_mm")):
            return "FCD/BSD missing or non-finite"
        outputs = {
            "report": report,
            "elgr": _digest(d["prefix"].with_suffix(".elgr")),
            "cond": _digest(d["prefix"].with_suffix(".cond.jsonl")),
        }
        if outputs != ctx.first.setdefault("outputs", outputs):
            return "preprocess or evaluate output differs between repeats"
        return None

    def final_check(self, ctx: Context) -> str | None:
        """Criterion-8 fixed point on the preprocessed take: scored against
        the exact f0 it carries (the audio path adds f0-tracker error of a
        few cents), FCD and BSD of the untouched take are below 1e-3 mm."""
        d = ctx.data
        seq = motionfile.read_motion(d["prefix"].with_suffix(".elgr"))
        track = conditions.load_condition_track(d["prefix"].with_suffix(".cond.jsonl"))
        gt = motionfile.read_motion(d["gt"])
        r = metrics.evaluate(seq, track.f0, ctx.skeleton, ctx.cello, gt=gt)
        if not (r.fcd_mm < 1e-3 and r.bsd_mm < 1e-3):
            return f"fixed point missed: FCD {r.fcd_mm:.3e} mm, BSD {r.bsd_mm:.3e} mm"
        return None

    def work(self, ctx: Context, ops) -> dict:
        n = len(ops)
        return {"units": n, "takes": n, "voiced_frames": n * ctx.data["voiced"]}


WORKLOADS = {"train": Train, "generate": Generate, "score": Score}
