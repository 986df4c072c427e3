"""Golden fixture for the real-payload 3-D FFT pipeline.

Each case runs a distributed transform (the slab pipeline
:class:`repro.core.plan.ParallelFFT3D`, its r2c front end, the
multi-array executor or the pencil pipeline) on seeded input and records
what must not drift when the data path or the simulator is reworked:

* ``clocks`` — every rank's final virtual clock,
* ``by_label`` — per-step virtual seconds summed over ranks in rank
  order, and ``by_label_sha`` — a digest of every rank's own per-step
  seconds (``float.hex``), which pins them bit for bit,
* ``sched`` — the engine's scheduler counters,
* ``spectrum_sha`` — SHA-256 of the gathered spectrum's bytes (every
  array's, in order, for a multi-array case),
* ``err`` — its max abs error against ``numpy.fft.fftn`` (information
  only; the test holds spectra to the digest, not to a tolerance), and
* ``events_sha`` — a digest of every rank's event timeline, ``(t0, t1,
  label)`` bit for bit plus each event's attributes, from a second run
  with ``record_events=True`` under a rank-span tracer.  This pins the
  traced path, which builds per-tile attributes.

The cases are the ``apps`` benchmark cell (16^3 on 4 ranks with its
tuned parameters, run forward and, through the conjugation identity,
backward), a composite-size matrix over NEW, TH and FFTW, both tile
layouts (``xzy`` when Nx == Ny, ``zxy`` otherwise) and p from 1 to 8,
real-to-complex cases (direction ``"r2c"``): the ``apps`` cell and
composite even-Nz cells run through
:class:`repro.core.realfft3d.ParallelRFFT3D` the way
:func:`~repro.core.api.parallel_rfft3d` drives it, checked against
``numpy.fft.rfftn``, and the same cells' complex-to-real inverse
(direction ``"c2r"``) on a seeded half spectrum through
:class:`~repro.core.realfft3d.ParallelIRFFT3D`, checked against
``numpy.fft.irfftn``; for those the digest is of the real output.

Multi-array cases (``"pipeline": "multi"``) run
:class:`repro.core.multiarray.MultiArrayFFT3D` in all four modes on one
to three arrays, and pencil cases (``"pipeline": "pencil"``) run
:class:`repro.core.pencil.PencilFFT3D` on its default grid or, when the
case has a ``"grid"`` field, on that ``[pr, pc]`` grid, both over p
from 2 to 16.  Each of them runs once fault-free and once under the
seeded spec :data:`FAULTS` (straggler, jitter and poll delay).  They
were captured while the simulator still had its thread backend and its
other compute-with-progression spellings, before those were removed.

The committed ``payload_golden.json`` was captured with the retired
mixed-radix kernels, before the FFT kernels became bitwise
batch-independent.  Three kernel changes since moved spectra at
round-off: a one-row dense product used to go through BLAS gemv rather
than gemm, the planner now picks the dense gemm kernel for every
size up to 64 where it used to pick the mixed-radix one, and the r2c
transform on z is one real gemm up to 64 where it used to pack around
a half-length complex transform.  The cases
whose spectra moved carry a second digest, ``spectrum_sha_after``
(with ``err_after``), taken with the current kernels.  All their other
fields are unchanged.

Regenerate with ``PYTHONPATH=src python -m tests.core.payload_golden``;
``--annotate`` instead keeps the committed capture, sets the
``*_after`` fields of the cases whose spectra differ from it and drops
them from the cases whose spectra match it again, and
``--extend`` keeps every captured field and adds only the fields and
cases the committed file lacks (``events_sha``, the r2c cases and the
multi-array and pencil cases were added this way, each before the code
they pin was reworked; the c2r cases were added with the code that
introduced the c2r inverse; the explicit-grid pencil cases were added
before pencil stopped splitting its communicators at run time).
Virtual cases (``"pipeline": "virtual"``) carry no payload: they run
:func:`repro.core.api.run_case` on uniform slabs (``N % p == 0``) at p
32, 64 and 256 on both platforms, the way every tuning evaluation
does, with the variant's default parameters and with the EXPERIMENTS.md
Table 3 "ours" rows of :data:`VIRTUAL_CELLS`.  They record ``elapsed``
(the virtual makespan) in place of per-rank clocks, and no spectrum.
They were added before virtual runs learned to step a single rank
when all ranks are the same.

``tests/core/test_payload_golden.py`` compares the live pipeline with
the committed file.
"""

from __future__ import annotations

import hashlib
import json
import sys
import zlib
from pathlib import Path

import numpy as np

from repro.core import pencil
from repro.core.api import run_case
from repro.core.decompose import gather_spectrum, scatter_slabs
from repro.core.multiarray import MODES, MultiArrayFFT3D
from repro.core.params import ProblemShape, TuningParams
from repro.core.plan import ParallelFFT3D
from repro.core.realfft3d import ParallelIRFFT3D, ParallelRFFT3D
from repro.core.variants import NEW, baseline_params, get_variant
from repro.faults import injected_faults
from repro.machine.platforms import get_platform
from repro.obs import Tracer, tracing
from repro.simmpi.spmd import run_spmd

FIXTURE = Path(__file__).with_name("payload_golden.json")
PLATFORM = "UMD-Cluster"

#: the tuned parameters the ``apps`` benchmark resolves for its 16^3 cell
APPS_PARAMS = (4, 2, 4, 1, 4, 1, 2, 2, 2, 2)

#: (nx, ny, nz, p) composite cells; prime and <= 8 y-extents included
CELLS = (
    (12, 12, 10, 2), (12, 12, 10, 4),
    (12, 10, 9, 3), (12, 10, 9, 8),
    (15, 15, 6, 3), (15, 15, 6, 8),
    (10, 7, 12, 2), (10, 7, 12, 6),
    (8, 8, 8, 4), (8, 8, 8, 8),
    (18, 12, 15, 2), (18, 12, 15, 6),
    (9, 6, 14, 3), (9, 6, 14, 5),
)
VARIANTS = ("NEW", "TH", "FFTW")
#: explicit tilings besides the variant's baseline; single-row FFTy
#: blocks (Px = Pz = 1) are the case the kernels must batch safely
TILINGS = (
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (2, 2, 2, 2, 2, 2, 1, 1, 1, 1),
    (3, 3, 2, 3, 1, 2, 4, 0, 2, 1),
)
#: (nx, ny, nz, p) even-Nz cells for the r2c cases; their half z
#: extents are 6, 8, 7 and 5, so some tilings end in a short tile
R2C_CELLS = ((12, 12, 10, 4), (12, 10, 14, 3), (10, 7, 12, 6), (9, 6, 8, 5))
#: the seeded fault spec every multi-array and pencil case also runs under
FAULTS = "straggler:rank=1,slow=1.7;jitter:amp=0.2;poll:rank=0,factor=3;seed:5"
#: (nx, ny, nz, p) cells for :mod:`repro.core.multiarray`, p from 2 to 16
MULTI_CELLS = (
    (8, 8, 8, 2), (12, 10, 9, 3), (16, 16, 16, 4),
    (15, 15, 10, 5), (12, 12, 10, 8), (16, 16, 12, 16),
)
#: the default parameters plus two explicit tilings (NEW-feasible only)
MULTI_TILINGS = (
    None,
    (2, 2, 2, 2, 2, 2, 1, 1, 1, 1),
    (3, 3, 1, 3, 1, 2, 4, 0, 2, 1),
)
#: (nx, ny, nz, p) cells for :mod:`repro.core.pencil` on its default grid
PENCIL_CELLS = (
    (8, 8, 8, 2), (9, 7, 6, 3), (8, 8, 8, 4), (12, 10, 9, 6),
    (12, 12, 12, 8), (9, 9, 9, 9), (12, 12, 10, 12), (16, 16, 16, 16),
)
#: (nx, ny, nz, pr, pc) pencil cells on an explicit grid: ``choose_grid``
#: never yields ``pc = 1`` or ``pr > pc``
PENCIL_GRIDS = (
    (8, 8, 8, 4, 1), (12, 10, 9, 6, 1), (9, 7, 6, 3, 2), (16, 16, 12, 2, 8),
)

#: (platform, n, p, Table 3 "ours" row) virtual cells.  p = 32 uses the
#: platform's own 256^3 row; p = 64 the same row with Px and Uy clamped
#: to the 4-wide slabs; p = 256 the Hopper-large 1280^3 row on both
#: platforms (UMD-Cluster has no p = 256 row of its own)
VIRTUAL_CELLS = (
    ("UMD-Cluster", 256, 32, (4, 2, 8, 4, 8, 4, 16, 16, 16, 16)),
    ("Hopper", 256, 32, (64, 2, 8, 8, 8, 4, 8, 8, 16, 8)),
    ("UMD-Cluster", 256, 64, (4, 2, 4, 4, 4, 4, 16, 16, 16, 16)),
    ("Hopper", 256, 64, (64, 2, 4, 8, 4, 4, 8, 8, 16, 8)),
    ("UMD-Cluster", 1280, 256, (16, 2, 4, 1, 4, 1, 512, 128, 128, 512)),
    ("Hopper", 1280, 256, (16, 2, 4, 1, 4, 1, 512, 128, 128, 512)),
)


def cases() -> list[dict]:
    """The fixture's case list, in a fixed order."""
    out = [
        {"id": "apps-16x16x16-p4-NEW", "variant": "NEW",
         "shape": [16, 16, 16], "p": 4, "params": list(APPS_PARAMS),
         "direction": "forward"},
        {"id": "apps-16x16x16-p4-NEW-inverse", "variant": "NEW",
         "shape": [16, 16, 16], "p": 4, "params": list(APPS_PARAMS),
         "direction": "inverse"},
    ]
    for nx, ny, nz, p in CELLS:
        shape = ProblemShape(nx, ny, nz, p)
        for variant in VARIANTS:
            spec = get_variant(variant)
            for k, values in enumerate((None,) + TILINGS):
                if values is not None:
                    eff = spec.effective_params(TuningParams(*values), shape)
                    if spec.overlap and not eff.is_feasible(shape):
                        continue
                out.append({
                    "id": f"{nx}x{ny}x{nz}-p{p}-{variant}-t{k}",
                    "variant": variant, "shape": [nx, ny, nz], "p": p,
                    "params": None if values is None else list(values),
                    "direction": "forward",
                })
    # p = 1 with a prime y-extent: every sub-tile is one row when Px = Pz = 1
    for values in ((2, 1, 1, 1, 1, 1, 1, 1, 1, 1), (2, 1, 2, 2, 2, 2, 1, 1, 1, 1)):
        out.append({
            "id": f"13x13x13-p1-NEW-{values[2]}{values[3]}",
            "variant": "NEW", "shape": [13, 13, 13], "p": 1,
            "params": list(values), "direction": "forward",
        })
    out.append({"id": "apps-16x16x16-p4-NEW-r2c", "variant": "NEW",
                "shape": [16, 16, 16], "p": 4, "params": list(APPS_PARAMS),
                "direction": "r2c"})
    for nx, ny, nz, p in R2C_CELLS:
        half = _half(ProblemShape(nx, ny, nz, p))
        for variant in VARIANTS:
            spec = get_variant(variant)
            for k, values in enumerate((None,) + TILINGS):
                if values is not None:
                    # ParallelRFFT3D clamps T, Pz and Uz to the half extent
                    tz = min(values[0], half.nz)
                    eff = spec.effective_params(TuningParams(*values).replace(
                        T=tz, Pz=min(values[3], tz), Uz=min(values[5], tz)), half)
                    if spec.overlap and not eff.is_feasible(half):
                        continue
                out.append({
                    "id": f"{nx}x{ny}x{nz}-p{p}-{variant}-r2c-t{k}",
                    "variant": variant, "shape": [nx, ny, nz], "p": p,
                    "params": None if values is None else list(values),
                    "direction": "r2c",
                })
    # the c2r inverse of every r2c case
    out += [dict(case, id=case["id"].replace("-r2c", "-c2r"), direction="c2r")
            for case in out if case["direction"] == "r2c"]
    for faults in (None, FAULTS):
        tag = "-faults" if faults else ""
        for mode in MODES:
            for i, (nx, ny, nz, p) in enumerate(MULTI_CELLS):
                shape = ProblemShape(nx, ny, nz, p)
                for k, values in enumerate(MULTI_TILINGS):
                    if values is not None and not NEW.effective_params(
                            TuningParams(*values), shape).is_feasible(shape):
                        continue
                    n_arrays = 1 + (i + k) % 3
                    out.append({
                        "id": f"multi-{mode}-{nx}x{ny}x{nz}-p{p}-a{n_arrays}-t{k}{tag}",
                        "pipeline": "multi", "mode": mode, "n_arrays": n_arrays,
                        "shape": [nx, ny, nz], "p": p,
                        "params": None if values is None else list(values),
                        "direction": "forward", "faults": faults,
                    })
        for nx, ny, nz, p in PENCIL_CELLS:
            out.append({
                "id": f"pencil-{nx}x{ny}x{nz}-p{p}{tag}", "pipeline": "pencil",
                "shape": [nx, ny, nz], "p": p, "params": None,
                "direction": "forward", "faults": faults,
            })
        for nx, ny, nz, pr, pc in PENCIL_GRIDS:
            out.append({
                "id": f"pencil-{nx}x{ny}x{nz}-g{pr}x{pc}{tag}",
                "pipeline": "pencil", "shape": [nx, ny, nz], "p": pr * pc,
                "grid": [pr, pc], "params": None, "direction": "forward",
                "faults": faults,
            })
    for platform, n, p, row in VIRTUAL_CELLS:
        for variant, values in (("NEW", None), ("NEW", row),
                                ("TH", None), ("FFTW", None)):
            tag = "-t3" if values is not None else ""
            out.append({
                "id": f"virtual-{platform}-{n}-p{p}-{variant}{tag}",
                "pipeline": "virtual", "platform": platform,
                "variant": variant, "shape": [n, n, n], "p": p,
                "params": None if values is None else list(values),
                "direction": "forward",
            })
    return out


def _half(shape: ProblemShape) -> ProblemShape:
    """The reduced shape the r2c pipeline exchanges."""
    return ProblemShape(shape.nx, shape.ny, shape.nz // 2 + 1, shape.p)


def _input(case: dict) -> np.ndarray:
    rng = np.random.default_rng(zlib.crc32(case["id"].encode()))
    shape = tuple(case["shape"])
    if case["direction"] == "r2c":
        return rng.standard_normal(shape)
    if case["direction"] == "c2r":
        shape = (*shape[:2], shape[2] // 2 + 1)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _program(ctx, plan_cls, shape, params, spec, blocks):
    plan = plan_cls(ctx, shape, params, spec)
    out = yield from plan.steps(blocks[ctx.rank])
    return out, plan.output_layout, ctx.now


def events_digest(traces) -> str:
    """SHA-256 over every rank's ``(t0, t1, label)`` events (as
    ``float.hex``) and their attributes, in rank and event order."""
    h = hashlib.sha256()
    for tr in traces:
        for (t0, t1, label), attrs in zip(tr.events, tr.attrs, strict=True):
            h.update(json.dumps([t0.hex(), t1.hex(), label, attrs],
                                sort_keys=True).encode())
        h.update(b"|")
    return h.hexdigest()


def _multi_program(ctx, shape, n_arrays, mode, params, blocks):
    exe = MultiArrayFFT3D(ctx, shape, n_arrays, mode, params)
    outs = yield from exe.steps([b[ctx.rank] for b in blocks])
    return outs, exe.output_layout, ctx.now


def _pencil_program(ctx, shape, grid, blocks):
    plan = pencil.PencilFFT3D(ctx, shape, grid)
    out = yield from plan.steps(blocks[ctx.rank])
    return out, None, ctx.now


def _simulate(case: dict, program, args) -> tuple:
    """The plain run and the traced run (events under a rank-span
    tracer), both under the case's fault spec."""
    platform = get_platform(PLATFORM)
    with injected_faults(case.get("faults")):
        sim = run_spmd(case["p"], program, platform, *args)
        with tracing(Tracer(rank_spans=True)):
            traced = run_spmd(case["p"], program, platform, *args,
                              record_events=True)
    return sim, traced


def _spectra(case: dict) -> tuple:
    """Run a case; returns ``(sim, traced, spectra, oracles)``."""
    nx, ny, nz = case["shape"]
    shape = ProblemShape(nx, ny, nz, case["p"])
    pipeline = case.get("pipeline", "slab")
    if pipeline == "multi":
        arrays = [_input(dict(case, id=f"{case['id']}/{a}"))
                  for a in range(case["n_arrays"])]
        params = None if case["params"] is None else TuningParams(*case["params"])
        args = (shape, case["n_arrays"], case["mode"], params,
                [scatter_slabs(a, shape.p) for a in arrays])
        sim, traced = _simulate(case, _multi_program, args)
        layout = sim.results[0][1]
        spectra = [gather_spectrum([r[0][a] for r in sim.results],
                                   (nx, ny, nz), layout)
                   for a in range(case["n_arrays"])]
        return sim, traced, spectra, [np.fft.fftn(a) for a in arrays]
    if pipeline == "pencil":
        arr = _input(case)
        grid = tuple(case.get("grid") or pencil.choose_grid(shape.p))
        args = (tuple(case["shape"]), grid, scatter_slabs(arr, *grid))
        sim, traced = _simulate(case, _pencil_program, args)
        spectrum = gather_spectrum([r[0] for r in sim.results],
                                   (nx, ny, nz), "xyz", grid[1])
        return sim, traced, [spectrum], [np.fft.fftn(arr)]
    spec = get_variant(case["variant"])
    direction = case["direction"]
    r2c = direction == "r2c"
    plan_cls = {"r2c": ParallelRFFT3D, "c2r": ParallelIRFFT3D}.get(
        direction, ParallelFFT3D)
    real = plan_cls is not ParallelFFT3D
    params = (baseline_params(spec, _half(shape) if real else shape)
              if case["params"] is None else TuningParams(*case["params"]))
    arr = _input(case)
    src = np.conj(arr) if case["direction"] == "inverse" else arr
    args = (plan_cls, shape, params, spec, scatter_slabs(src, shape.p))
    sim, traced = _simulate(case, _program, args)
    out_shape = (nx, ny, nz // 2 + 1) if r2c else (nx, ny, nz)
    spectrum = gather_spectrum([r[0] for r in sim.results], out_shape,
                               sim.results[0][1])
    if direction == "forward":
        oracle = np.fft.fftn(arr)
    elif r2c:
        oracle = np.fft.rfftn(arr)
    elif direction == "c2r":
        oracle = np.fft.irfftn(arr, s=(nx, ny, nz), axes=(0, 1, 2))
    else:
        spectrum = np.conj(spectrum) / arr.size
        oracle = np.fft.ifftn(arr)
    return sim, traced, [spectrum], [oracle]


def _virtual(case: dict) -> tuple:
    """The plain and traced :func:`run_case` runs of a virtual case."""
    nx, ny, nz = case["shape"]
    shape = ProblemShape(nx, ny, nz, case["p"])
    params = None if case["params"] is None else TuningParams(*case["params"])
    args = (case["variant"], get_platform(case["platform"]), shape, params)
    sim = run_case(*args)[0].sim
    with tracing(Tracer(rank_spans=True)):
        traced = run_case(*args, record_events=True)[0].sim
    return sim, traced


def _timing(sim, traced) -> dict:
    """The virtual-time fields every case records."""
    totals: dict[str, float] = {}
    for tr in sim.traces:
        for label, secs in tr.by_label.items():
            totals[label] = totals.get(label, 0.0) + secs
    per_rank = json.dumps([sorted((k, v.hex()) for k, v in tr.by_label.items())
                           for tr in sim.traces])
    return {
        "by_label": dict(sorted(totals.items())),
        "by_label_sha": hashlib.sha256(per_rank.encode()).hexdigest(),
        "sched": {"handoffs": sim.stats.handoffs,
                  "probe_polls": sim.stats.probe_polls,
                  "wakeups": sim.stats.wakeups},
        "events_sha": events_digest(traced.traces),
    }


def run(case: dict) -> dict:
    """Run one case and return its recorded quantities."""
    if case.get("pipeline") == "virtual":
        sim, traced = _virtual(case)
        return {"elapsed": sim.elapsed, **_timing(sim, traced)}
    sim, traced, spectra, oracles = _spectra(case)
    spectra = [np.ascontiguousarray(s) for s in spectra]
    digest = hashlib.sha256()
    for spectrum in spectra:
        digest.update(spectrum.tobytes())
    timing = _timing(sim, traced)
    return {
        "clocks": [r[2] for r in sim.results],
        **{k: timing[k] for k in ("by_label", "by_label_sha", "sched")},
        "spectrum_sha": digest.hexdigest(),
        "err": max(float(np.max(np.abs(s - o)))
                   for s, o in zip(spectra, oracles, strict=True)),
        "events_sha": timing["events_sha"],
    }


def generate() -> dict:
    return {"platform": PLATFORM,
            "cases": [dict(case, **run(case)) for case in cases()]}


def annotate(data: dict) -> dict:
    """Set ``*_after`` fields where today's spectrum differs from
    ``data``'s capture, and drop them where it matches it again."""
    for case in data["cases"]:
        if "spectrum_sha" not in case:
            continue  # a virtual case has no spectrum
        now = run(case)
        if now["spectrum_sha"] != case["spectrum_sha"]:
            case["spectrum_sha_after"] = now["spectrum_sha"]
            case["err_after"] = now["err"]
        else:
            case.pop("spectrum_sha_after", None)
            case.pop("err_after", None)
    return data


def extend(data: dict) -> dict:
    """Add the fields and cases ``data`` lacks; captured fields stay."""
    have = {case["id"]: case for case in data["cases"]}
    out = []
    for case in cases():
        now = dict(case, **run(case))
        old = have.get(case["id"])
        out.append(now if old is None else dict(now, **old))
    data["cases"] = out
    return data


def main(argv: list[str]) -> None:
    if argv == ["--annotate"]:
        data = annotate(json.loads(FIXTURE.read_text()))
    elif argv == ["--extend"]:
        data = extend(json.loads(FIXTURE.read_text()))
    else:
        data = generate()
    rows = ",\n".join(json.dumps(case) for case in data["cases"])
    FIXTURE.write_text(
        f'{{"platform": {json.dumps(data["platform"])}, "cases": [\n{rows}\n]}}\n'
    )
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main(sys.argv[1:])
