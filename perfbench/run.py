"""End-to-end benchmark of the quditreduce CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload wide-qubit --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each pass drives ``quditreduce.cli.main`` in this process: ``reduce``,
then ``verify`` on every input, then ``schmidt`` on every bipartite
input, one command after the other. Passes repeat until ``--seconds``
have elapsed; timings are medians over passes of command times rescaled
to a fixed machine speed by speed.py. Inputs are written before
timing starts, so the program under test only ever sees files. After the
passes an outside check replays every trace through the library and
compares against the input, so a result does not rest on ``verify``'s
exit code alone.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded by tracer.py. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
NOTES.md explains the workloads, seeds and metrics.
"""

from __future__ import annotations

import os

# One process, no worker threads: pin BLAS before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, patch_table  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

#: Round-trip tolerance of the outside check (the CLI's own verify tolerance).
REPLAY_TOL = 1e-9
#: Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 9
#: First state seed of each input set (see NOTES.md, "Seeds").
INPUT_SETS = {"default": 1, "heldout": 1001}


@dataclass(frozen=True)
class Workload:
    name: str
    #: (n, l, number of states)
    shapes: tuple
    #: One ``reduce --batch DIR`` command instead of one ``reduce --input``
    #: per state.
    batch: bool
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("small-multi", ((2, 10, 8), (4, 3, 8), (3, 4, 8)), True,
                 "24 states of <=1,024 amplitudes: per-step stage-loop and "
                 "per-call kernel overhead plus trace JSON dominate"),
        Workload("bipartite", ((8, 2, 4), (16, 2, 2)), True,
                 "tiny l=2 states with long rotation sequences; the only "
                 "workload that runs schmidt and the Jacobi oracle"),
        Workload("wide-qubit", ((2, 16, 1),), False,
                 "one 65,536-amplitude qubit state: kernel per-amplitude "
                 "cost and the inversion replay dominate"),
        Workload("wide-qudit", ((4, 8, 1), (5, 6, 1)), False,
                 "wide states with n>=4: the kernel at other strides and "
                 "slice sizes than wide-qubit"),
        # Harness self-test only; not listed in BENCHMARK.json.
        Workload("tiny", ((2, 3, 2), (3, 2, 2)), True,
                 "harness self-test"),
    )
}
MAIN_WORKLOADS = ("small-multi", "bipartite", "wide-qubit", "wide-qudit")
MAIN_SHAPES = tuple(dict.fromkeys(
    (n, l) for w in MAIN_WORKLOADS for n, l, _ in WORKLOADS[w].shapes))

END_TO_END_UNITS = {
    "setup_s": "s",
    "reduce_s": "s",
    "verify_s": "s",
    "total_s": "s",
    "rotations": "count",
    "trace_bytes": "B",
    "peak_rss_mib": "MiB",
}


def shape_key(n, l):
    return f"n{n}l{l}"


def import_package():
    """Import quditreduce from this checkout's src/, never from elsewhere."""
    if not (SRC / "quditreduce" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'quditreduce'}")
    sys.path.insert(0, str(SRC))
    import quditreduce
    import quditreduce.cli
    if Path(quditreduce.__file__).resolve().parent != (SRC / "quditreduce").resolve():
        raise SystemExit(f"perfbench: imported {quditreduce.__file__}, "
                         f"not the checkout's source")
    return quditreduce


# --------------------------------------------------------------- inputs

def make_inputs(qr, workload, seed, input_set, directory):
    """Write the workload's state files; returns [(path, n, l)].

    Each state is a seeded random_state from the input set, presented
    under a site permutation and a product of per-site level phases drawn
    from ``seed``. Greedy elimination is covariant under both, so the seed
    changes every amplitude and the memory layout the kernel sees, but not
    the amount of work (NOTES.md, "Seeds").
    """
    first = INPUT_SETS[input_set]
    inputs = []
    for n, l, count in workload.shapes:
        for state_seed in range(first, first + count):
            base = qr.random_state(n, l, state_seed)
            rng = np.random.default_rng([seed, n, l, state_seed])
            amps = base.amplitudes.reshape((n,) * l)
            amps = np.transpose(amps, rng.permutation(l))
            for axis in range(l):
                shape = [1] * l
                shape[axis] = n
                phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
                amps = amps * phase.reshape(shape)
            state = qr.PureState(n, l, np.ascontiguousarray(amps).reshape(-1))
            path = directory / f"{shape_key(n, l)}_s{state_seed}.json"
            qr.fileio.save_state(path, state)
            inputs.append((path, n, l))
    return inputs


def derived(path, kind):
    return path.with_name(f"{path.name[:-5]}.{kind}.json")


# --------------------------------------------------------------- passes

class Pass:
    """Timings, counts and failures of one pass over a workload.

    ``seconds`` holds command times rescaled to the probe's nominal speed,
    ``busy`` the same times unscaled (wall time less the probe's own).
    """

    def __init__(self):
        self.seconds = {"reduce": 0.0, "verify": 0.0, "schmidt": 0.0}
        self.busy = {"reduce": 0.0, "verify": 0.0, "schmidt": 0.0}
        self.wall_s = 0.0
        self.commands = 0
        self.failures = []
        self.rotations = 0
        self.trace_bytes = 0
        self.per_shape = {}
        self.digests = {}


    @property
    def total_s(self):
        return sum(self.seconds.values())

    @property
    def busy_s(self):
        return sum(self.busy.values())


def run_command(qr, argv, kind, record, probe):
    """Run one CLI command in-process; time it and keep its exit code."""
    out, err = io.StringIO(), io.StringIO()

    def command():
        try:
            return qr.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:  # a crash is one failed command, not a dead run
            traceback.print_exc(file=err)
            return "-1 (uncaught exception)"

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, _, busy, scaled = probe.timed(command)
    record.busy[kind] += busy
    record.seconds[kind] += scaled
    record.commands += 1
    if code != 0:
        record.failures.append(
            f"{' '.join(argv)} exited {code}: {err.getvalue().strip()[-400:]}")


def run_pass(qr, workload, inputs, directory, probe):
    record = Pass()
    for path, _, _ in inputs:
        for kind in ("reduced", "trace", "report"):
            derived(path, kind).unlink(missing_ok=True)
    gc.collect()
    started = time.perf_counter()
    if workload.batch:
        run_command(qr, ["reduce", "--batch", str(directory)], "reduce", record,
                    probe)
    else:
        for path, _, _ in inputs:
            run_command(qr, ["reduce", "--input", str(path)], "reduce", record,
                        probe)
    for path, _, _ in inputs:
        run_command(qr, ["verify", "--original", str(path),
                         "--trace", str(derived(path, "trace")),
                         "--reduced", str(derived(path, "reduced"))],
                    "verify", record, probe)
    for path, _, l in inputs:
        if l == 2:
            run_command(qr, ["schmidt", "--input", str(path)], "schmidt", record,
                        probe)
    record.wall_s = time.perf_counter() - started
    return record


def file_sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_outputs(qr, inputs, record, replay):
    """Outside correctness check of every reduce output of a pass.

    Reads the reduced state and report through the library, never
    through ``verify``. With ``replay`` the loaded trace is also inverted
    with ``reduction.invert_rotations`` and compared with the input; later
    passes instead must reproduce the replayed pass byte for byte.
    Returns the number of checks attempted.
    """
    fio, red = qr.fileio, qr.reduction
    for path, n, l in inputs:
        problems = []
        reduced_path, trace_path = derived(path, "reduced"), derived(path, "trace")
        try:
            with open(derived(path, "report")) as fh:
                report = json.load(fh)
            rn, rl, amps, _ = fio.read_state_file(reduced_path)
            rotations = sum(s["iterations"] for s in report["stages"])
            bound = red.term_bound(n, l)
            norm_dev = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
            support = int(np.count_nonzero(np.abs(amps) > report["threshold"]))
            if (rn, rl) != (n, l):
                problems.append(f"reduced shape ({rn},{rl}) != ({n},{l})")
            if report["converged"] is not True:
                problems.append("report says not converged")
            if not report["support_after"] <= bound:
                problems.append(f"support_after {report['support_after']} > bound {bound}")
            if not support <= bound:
                problems.append(f"reduced file support {support} > bound {bound}")
            if not norm_dev <= qr.state.NORM_ATOL:
                problems.append(f"reduced state norm^2 off by {norm_dev:.3e}")
            if replay:
                _, _, original, _ = fio.read_state_file(path)
                tn, tl, _, rots = fio.load_trace(trace_path)
                back = red.invert_rotations(amps, tn, tl, rots)
                deviation = float(np.max(np.abs(back - original)))
                if len(rots) != rotations:
                    problems.append(f"trace holds {len(rots)} rotations, "
                                    f"report {rotations}")
                if not deviation < REPLAY_TOL:
                    problems.append(f"replayed trace deviates by {deviation:.3e}")
            record.digests[path.name] = (file_sha(reduced_path), file_sha(trace_path))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
            rotations = 0
        if problems:
            record.failures.append(f"{path.name}: " + "; ".join(problems))
        record.rotations += rotations
        record.trace_bytes += trace_path.stat().st_size if trace_path.exists() else 0
        key = shape_key(n, l)
        record.per_shape[key] = record.per_shape.get(key, 0) + rotations
    return len(inputs)


# ------------------------------------------------------------- metrics

def median(values):
    return float(statistics.median(values))


def measure_setup(probe):
    """Median time of a fresh interpreter importing quditreduce.cli, rescaled
    like the commands; returns (median, rescaled times, wall times)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, walls = [], []
    # Samples just before and after each child only: the child may run on
    # another CPU, where the parent's timer samples would not slow it.
    for _ in range(SETUP_REPEATS):
        _, wall, _, seconds = probe.timed(lambda: subprocess.run(
            [sys.executable, "-c", "import quditreduce.cli"],
            env=env, cwd=ROOT, check=True))
        scaled.append(seconds)
        walls.append(wall)
    return median(scaled), scaled, walls


def end_to_end_metrics(passes, setup_s, peak_rss_mib):
    values = {
        "setup_s": setup_s,
        "reduce_s": median([p.seconds["reduce"] for p in passes]),
        "verify_s": median([p.seconds["verify"] for p in passes]),
        "total_s": median([p.total_s for p in passes]),
        "rotations": passes[0].rotations,
        "trace_bytes": passes[0].trace_bytes,
        "peak_rss_mib": peak_rss_mib,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_metrics(spans, record):
    """Per-layer metrics of one traced pass: (name -> (value, unit))."""
    kernel = "state.rotate_pair_inplace"
    rot_s = spans.total(kernel)
    rot_calls = spans.count(kernel)
    amps = spans.size_total(kernel)  # touched amplitudes
    bytes_computed = 32.0 * amps  # one 16-byte read and write per amplitude
    steps = int((spans.mask("reduction.zeroing_rotation")
                 & spans.parent_is("reduction.eliminate_stage")).sum())
    reduce_s = spans.total("reduction.reduce")
    stage_self = spans.self_total("reduction.eliminate_stage")

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {
        "state.rotate.calls": (rot_calls, "count"),
        "state.rotate.s": (rot_s, "s"),
        "state.rotate.reduce_s": (float(spans.duration[
            spans.mask(kernel) & spans.parent_is("reduction.eliminate_stage")].sum()), "s"),
        "state.rotate.invert_s": (float(spans.duration[
            spans.mask(kernel) & spans.parent_is("reduction.invert_rotations")].sum()), "s"),
        "state.rotate.ns_per_amp": (rate(rot_s * 1e9, amps), "ns"),
        "state.rotate.us_per_call": (rate(rot_s * 1e6, rot_calls), "us"),
        "state.rotate.bytes_computed": (bytes_computed, "B"),
        "state.rotate.gbps_computed": (rate(bytes_computed / 1e9, rot_s), "GB/s"),
        "reduction.reduce.s": (reduce_s, "s"),
        "reduction.stage_loop.self_s": (stage_self, "s"),
        "reduction.step_overhead_us": (rate(stage_self * 1e6, steps), "us"),
        "reduction.zeroing_rotation.s": (spans.total("reduction.zeroing_rotation"), "s"),
        "reduction.invert.s": (spans.total("reduction.invert_rotations"), "s"),
        "reduction.invert.self_s": (spans.self_total("reduction.invert_rotations"), "s"),
        "reduction.rotations_per_s": (rate(steps, reduce_s), "1/s"),
    }
    for name in ("save_trace", "load_trace"):
        s, b = spans.total(f"fileio.{name}"), spans.size_total(f"fileio.{name}")
        m[f"fileio.{name}.s"] = (s, "s")
        m[f"fileio.{name}.bytes"] = (b, "B")
        m[f"fileio.{name}.mb_per_s"] = (rate(b / 1e6, s), "MB/s")
    for name in ("save_state", "save_report"):
        m[f"fileio.{name}.s"] = (spans.total(f"fileio.{name}"), "s")
        m[f"fileio.{name}.bytes"] = (spans.size_total(f"fileio.{name}"), "B")
    for name in ("load_state", "read_state_file", "file_digest", "report_to_dict"):
        m[f"fileio.{name}.s"] = (spans.total(f"fileio.{name}"), "s")
    m["spectral.schmidt.s"] = (spans.total("spectral.schmidt_coefficients"), "s")
    m["spectral.jacobi.s"] = (spans.total("spectral.hermitian_eigenvalues"), "s")
    m["spectral.jacobi.calls"] = (spans.count("spectral.hermitian_eigenvalues"), "count")
    for cmd in ("reduce", "verify", "schmidt"):
        m[f"cli.{cmd}.self_s"] = (spans.self_total(f"cli.cmd_{cmd}"), "s")
    m["cli.schmidt.s"] = (spans.total("cli.cmd_schmidt"), "s")
    layer_self = spans.layer_self()
    traced = spans.root_total()
    for layer in ("cli", "fileio", "reduction", "state", "spectral"):
        s = layer_self.get(layer, 0.0)
        m[f"layer.{layer}.self_s"] = (s, "s")
        m[f"layer.{layer}.share"] = (rate(s, traced), "frac")
    for n, l in MAIN_SHAPES:
        m[f"reduction.rotations.{shape_key(n, l)}"] = (0, "count")
    for key, count in record.per_shape.items():
        m[f"reduction.rotations.{key}"] = (count, "count")
    return m


# --------------------------------------------------------- environment

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(inputs):
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "input_file_bytes": sum(p.stat().st_size for p, _, _ in inputs),
        "state_array_bytes": sum(16 * n**l for _, n, l in inputs),
        "largest_state_bytes": max(16 * n**l for _, n, l in inputs),
    }


# ------------------------------------------------------ exact counts

def code_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "quditreduce").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts_repeat(key, counts):
    """Counts of one (code, workload, inputs, seed) must repeat exactly
    across runs; returns a failure message or None."""
    OUT_DIR.mkdir(exist_ok=True)
    store = OUT_DIR / "counts.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        if known[key] != counts:
            return f"counts changed between runs of {key}: {known[key]} -> {counts}"
        return None
    known[key] = counts
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return None


# ---------------------------------------------------------------- main

def run_workload(qr, workload, seed, seconds, trace, input_set):
    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_in(qr, workload, seed, seconds, trace, input_set, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def _run_in(qr, workload, seed, seconds, trace, input_set, work):
    batch_dir = work / "inputs"
    batch_dir.mkdir()
    inputs = make_inputs(qr, workload, seed, input_set, batch_dir)
    warm = work / "warm"
    warm.mkdir()
    probe = SpeedProbe()
    run_pass(qr, WORKLOADS["tiny"], make_inputs(qr, WORKLOADS["tiny"], seed,
                                                "default", warm), warm, probe)
    setup_s, setup_runs, setup_walls = measure_setup(probe)

    tracer = Tracer(patch_table(qr)) if trace else None
    plain, traced, span_sets, layer_runs = [], [], [], []
    attempted = failed = 0
    messages = []

    def tally(record, reference, replay=False):
        nonlocal attempted, failed
        attempted += record.commands + check_outputs(qr, inputs, record, replay)
        for attr in ("rotations", "trace_bytes", "per_shape", "digests"):
            if getattr(record, attr) != getattr(reference, attr):
                record.failures.append(f"{attr} differs between passes of one run")
        failed += len(record.failures)
        messages.extend(record.failures)

    # Start another pass only if it should end within the run time.
    started = time.perf_counter()
    last_s = None
    while (not plain or (trace and not traced)
           or time.perf_counter() - started + last_s <= seconds):
        use_trace = trace and len(plain) > len(traced)
        if use_trace:
            # No timer here: probe samples would land inside the spans.
            with tracer.installed():
                record = run_pass(qr, workload, inputs, batch_dir, probe)
            spans = tracer.take()
        else:
            with probe.running():
                record = run_pass(qr, workload, inputs, batch_dir, probe)
        last_s = record.wall_s
        tally(record, (plain + traced + [record])[0])
        if use_trace:
            traced.append(record)
            span_sets.append(spans)
            layer_runs.append(layer_metrics(spans, record))
        else:
            plain.append(record)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The last pass's outputs are still on disk: replay them once.
    tally(Pass(), plain[0], replay=True)

    counts = {"rotations": plain[0].rotations, "trace_bytes": plain[0].trace_bytes,
              "per_shape": plain[0].per_shape}
    problem = check_counts_repeat(
        f"{code_digest()}/{workload.name}/{input_set}/seed{seed}", counts)
    attempted += 1
    if problem:
        failed += 1
        messages.append(problem)

    if trace:
        metrics = {name: {"value": median([run[name][0] for run in layer_runs]),
                          "unit": unit}
                   for name, (_, unit) in layer_runs[0].items()}
        overhead = (median([p.busy_s for p in traced])
                    / median([p.busy_s for p in plain]) - 1.0)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    else:
        metrics = end_to_end_metrics(plain, setup_s, peak_rss_mib)

    env = environment(inputs)
    extra = {
        "schmidt_s": median([p.seconds["schmidt"] for p in plain]),
        "failed_frac": failed / attempted,
        # The same medians unscaled: wall time less the probe's own.
        "busy_s": {kind: median([p.busy[kind] for p in plain])
                   for kind in ("reduce", "verify", "schmidt")},
        "setup_wall_s": median(setup_walls),
        "probe_ref_ms": 1e3 * float(np.median([ref for _, _, ref in probe.samples])),
        "probe_samples": len(probe.samples),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-{input_set}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "workload": workload.name, "why": workload.why, "seed": seed,
        "inputs": input_set, "seconds": seconds, "environment": env,
        "setup_runs_s": setup_runs, "setup_walls_s": setup_walls,
        "extra": extra, "messages": messages,
        "passes": [{"traced": p in traced, "total_s": p.total_s,
                    "wall_s": p.wall_s, **p.seconds,
                    "busy": p.busy} for p in plain + traced],
        "counts": counts, "result": result,
    }, indent=1))
    if span_sets:
        arrays = {"names": np.array(span_sets[0].names)}
        for i, spans in enumerate(span_sets):
            arrays.update(spans.as_arrays(f"pass{i}_"))
        np.savez_compressed(OUT_DIR / f"{stem}.spans.npz", **arrays)

    print(f"workload {workload.name} ({input_set} inputs, seed {seed}): "
          f"{len(plain)} untraced + {len(traced)} traced passes")
    print(f"environment: {json.dumps(env)}")
    for msg in messages:
        print(f"FAILED: {msg}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    if not trace:
        if any(l == 2 for _, _, l in inputs):
            print(f"  {'schmidt_s':34s} {extra['schmidt_s']:>16.6g} s")
        print(f"  {'failed_frac':34s} {extra['failed_frac']:>16.6g} frac")
        for kind, value in extra["busy_s"].items():
            if value > 0:
                print(f"  {kind + '_s unscaled':34s} {value:>16.6g} s")
        print(f"  {'setup_s unscaled':34s} {extra['setup_wall_s']:>16.6g} s")
        print(f"  {'probe reference, median':34s} {extra['probe_ref_ms']:>16.6g} ms")
    return result


def run_all(args):
    """Run each main workload in its own interpreter and print a summary."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in MAIN_WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--inputs", args.inputs],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", choices=tuple(INPUT_SETS), default="default",
                        help="state set: 'heldout' re-checks a claim on states "
                             "not used while writing it")
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        qr = import_package()
        result = run_workload(qr, WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace), args.inputs)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
