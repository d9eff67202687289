"""Benchmark of the tourflow batch pipeline: ``build`` then ``analyze``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run generates the
workload's inputs from the seed, then starts one fresh child process
after another (child.py), each running ``tourflow build`` and
``tourflow analyze`` in a fresh directory, until S seconds have passed.
Every child's bundle is checked: exit code 0, every file listed in a
manifest with a matching SHA-256 and no other file present, and one
bundle digest for all children of the run, equal to the committed
reference for the workload's default seed.

With ``--trace 0`` the end-to-end metrics are reported, as medians over
the children.  Their times are divided by the host's slowdown, which a
probe measures inside each timed process (probe.py).  With ``--trace 1``
the first half of the time runs untraced children and the second half
traced ones, and the per-layer metrics are reported, as medians over
the traced children.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import inputs
import spans
from probe import Probe, slowdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
# Imports tourflow in a fresh interpreter under the host-speed probe and
# prints the probe's samples.  argv: the source tree and this directory.
IMPORT_CODE = ("import json, sys; sys.path[:0] = sys.argv[1:]; from probe import Probe; "
               "probe = Probe().start(); import tourflow.cli; print(json.dumps(probe.stop()))")
# A child still running this long after the benchmark started is killed and
# counted as failed, so that a run always ends within 180 seconds.
DEADLINE_S = 170.0
STARTED = time.perf_counter()
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def derive(seed: int, *parts: object) -> int:
    """A 32-bit seed for one consumer of the workload seed."""
    text = ":".join(str(part) for part in (seed, *parts))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=4).digest(), "big")


@dataclass(frozen=True)
class Workload:
    """Inputs (file name -> generator) and config of one workload at one size."""

    inputs: dict
    settings: dict
    datasets: tuple[str, ...]


def workload(name: str, seed: int, tiny: bool) -> Workload:
    """The workload ``name`` for ``seed``; ``tiny`` shrinks it for the smoke test.

    README.md ("Workloads") gives the layer each workload was chosen to stress.
    """
    codes = inputs.country_codes(SRC)
    pipeline_seed = derive(seed, name, "pipeline")
    null = {"ensemble_size": 2, "swaps_per_edge": 1, "seed": pipeline_seed}
    if name == "paper-flows":
        return Workload(
            {"a.csv": lambda p: inputs.circulant_flows(codes, p),
             "b.csv": lambda p: inputs.gravity_flows(codes, derive(seed, name, "b"), p)},
            {"dataset_a_flows": "../inputs/a.csv", "dataset_b_flows": "../inputs/b.csv",
             "k_values": "1,2,3", "seed": pipeline_seed,
             "ensemble_size": 2 if tiny else 100, "swaps_per_edge": 2 if tiny else 100},
            ("a", "b"))
    if name == "topk-sweep":
        return Workload(
            {f"{d}.csv": lambda p, d=d: inputs.gravity_flows(codes, derive(seed, name, d), p)
             for d in ("a", "b")},
            {"dataset_a_flows": "../inputs/a.csv", "dataset_b_flows": "../inputs/b.csv",
             "k_values": "1,2,3,4" if tiny else ",".join(map(str, range(1, 11))), **null},
            ("a", "b"))
    if name == "checkin-ingest":
        rows = 20_000 if tiny else 1_000_000
        return Workload(
            {"a.csv": lambda p: inputs.checkin_log(codes, derive(seed, name, "a"), rows, p)},
            {"dataset_a_checkins": "../inputs/a.csv", "strict": "false",
             "checkin_threshold": 20 if tiny else 1000, "k_values": "1,2,3", **null},
            ("a",))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("paper-flows", "topk-sweep", "checkin-ingest")


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_bundle(out: Path, datasets: tuple[str, ...]) -> str:
    """Verify a bundle against its manifests and return its digest.

    Raises ValueError when a manifest hash does not match its file, a
    file is in neither manifest, or the analysis covered other datasets
    than the workload configured.  The digest is the SHA-256 of the
    sorted ``name sha256`` lines of every file in ``out``.
    """
    on_disk = {path.name: file_sha256(path) for path in out.iterdir()}
    listed = {"build_manifest.json", "analyze_manifest.json"}
    for manifest_name in sorted(listed):
        manifest = json.loads((out / manifest_name).read_text(encoding="utf-8"))
        for name, digest in manifest["files"].items():
            if on_disk.get(name) != digest:
                raise ValueError(f"{manifest_name}: {name} does not match its hash")
            listed.add(name)
    if set(on_disk) != listed:
        raise ValueError(f"files in no manifest: {sorted(set(on_disk) - listed)}")
    summary = json.loads((out / "analysis_summary.json").read_text(encoding="utf-8"))
    if tuple(summary["datasets"]) != datasets:
        raise ValueError(f"analyzed datasets {summary['datasets']}, expected {list(datasets)}")
    lines = "".join(f"{name} {on_disk[name]}\n" for name in sorted(on_disk))
    return hashlib.sha256(lines.encode()).hexdigest()


def child_env() -> dict[str, str]:
    """The environment of a child, with BLAS thread counts capped at nproc."""
    env = dict(os.environ)
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = env.get(var, "")
        env[var] = value if value.isdigit() and 0 < int(value) <= cores else str(cores)
    return env


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    slowdown: float = 1.0
    error: str | None = None
    digest: str | None = None
    files: int = 0
    bytes: int = 0
    layers: dict = field(default_factory=dict)


def run_child(workdir: Path, index: int, load: Workload, traced: bool) -> Child:
    """Run build + analyze once in a fresh directory and check the bundle."""
    rundir = workdir / f"run-{index:03d}"
    rundir.mkdir()
    spans_file = rundir / "spans.json"
    probe_file = rundir / "probe.json"
    command = [sys.executable, str(HERE / "child.py"), str(SRC), "--probe", str(probe_file)]
    if traced:
        command += ["--trace", str(spans_file)]
    command += [f"{key}={value}" for key, value in load.settings.items()] + ["output_dir=out"]
    with open(rundir / "child.log", "wb") as log:
        started = time.perf_counter()
        process = subprocess.Popen(command, cwd=rundir, env=child_env(),
                                   stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        killer = threading.Timer(DEADLINE_S - (started - STARTED), process.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
    child = Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if process.returncode != 0:
        tail = (rundir / "child.log").read_text(errors="replace")[-2000:]
        child.error = f"exit code {process.returncode}: {tail}"
        return child
    out = rundir / "out"
    try:
        files = list(out.iterdir())
        child.files = len(files)
        child.bytes = sum(path.stat().st_size for path in files)
        child.digest = check_bundle(out, load.datasets)
        child.slowdown = slowdown(json.loads(probe_file.read_text(encoding="utf-8")))
        if traced:
            manifest = json.loads((out / "build_manifest.json").read_text(encoding="utf-8"))
            child.layers = spans.layer_metrics(json.loads(spans_file.read_text()), manifest)
            child.layers["ingest.wall_share"] = sum(
                child.layers[f"{name}.busy_s"] for name in spans.FUNCTIONS
                if name.startswith("ingest.")) / wall
    except (ValueError, KeyError, OSError) as exc:
        child.error = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(rundir)
    return child


def setup(workdir: Path, load: Workload) -> float:
    """Generate the inputs and import tourflow, SETUP_REPEATS times.

    Returns the median time of one set-up.  Generating the inputs is
    divided by the slowdown a probe in this process measured meanwhile,
    and importing by the slowdown a probe in the importing process
    measured.  Raises ValueError when two set-ups generate different
    inputs.
    """
    times = []
    hashes = set()
    for rep in range(SETUP_REPEATS):
        target = workdir / f"setup-{rep}"
        target.mkdir()
        started = time.perf_counter()
        probe = Probe().start()
        try:
            for name, generate in load.inputs.items():
                generate(target / name)
        finally:
            samples = probe.stop()
        generated = time.perf_counter()
        imported = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC), str(HERE)],
                                  check=True, env=child_env(), capture_output=True, text=True)
        import_s = time.perf_counter() - generated
        times.append((generated - started) / slowdown(samples)
                     + import_s / slowdown(json.loads(imported.stdout)))
        hashes.add(tuple(file_sha256(target / name) for name in sorted(load.inputs)))
    if len(hashes) != 1:
        raise ValueError("the same seed generated different inputs")
    (workdir / f"setup-{SETUP_REPEATS - 1}").rename(workdir / "inputs")
    for rep in range(SETUP_REPEATS - 1):
        shutil.rmtree(workdir / f"setup-{rep}")
    return statistics.median(times)


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_1m": os.getloadavg()[0]}


def reference_digest(name: str, tiny: bool) -> str:
    references = json.loads((HERE / "reference_digests.json").read_text(encoding="utf-8"))
    return references[name + ("/tiny" if tiny else "")]


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
            workdir: Path) -> tuple[dict, list[Child]]:
    load = workload(name, seed, tiny)
    setup_s = setup(workdir, load)
    started = time.perf_counter()
    children: list[Child] = []

    def run_until(deadline: float, traced: bool) -> list[Child]:
        """At least one child; another only while it is expected to end by the deadline."""
        batch: list[Child] = []
        while not batch or (
                time.perf_counter() - started + statistics.mean(c.wall_s for c in batch)
                <= deadline and time.perf_counter() - STARTED < DEADLINE_S):
            batch.append(run_child(workdir, len(children) + len(batch), load, traced))
        children.extend(batch)
        return batch

    plain = run_until(seconds / 2 if trace else seconds, traced=False)
    traced = run_until(seconds, traced=True) if trace else []

    expected = reference_digest(name, tiny) if seed == DEFAULT_SEED else children[0].digest
    for child in children:
        if child.error is None and child.digest != expected:
            child.error = f"bundle digest {child.digest} != expected {expected}"

    if not trace:
        return {
            "setup_s": setup_s,
            "wall_s": statistics.median(c.wall_s / c.slowdown for c in plain),
            "cpu_s": statistics.median(c.cpu_s / c.slowdown for c in plain),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in plain),
        }, children
    good = [c for c in traced if c.error is None] or traced
    metrics = {key: statistics.median(c.layers[key] for c in good) for key in good[0].layers}
    metrics["cli.bundle_files"] = good[0].files
    metrics["cli.bundle_bytes"] = good[0].bytes
    metrics["trace.overhead_s"] = (statistics.median(c.wall_s / c.slowdown for c in traced)
                                   - statistics.median(c.wall_s / c.slowdown for c in plain))
    metrics["host.wall_s"] = statistics.median(c.wall_s for c in plain)
    metrics["host.cpu_s"] = statistics.median(c.cpu_s for c in plain)
    metrics["host.slowdown"] = statistics.median(c.slowdown for c in plain)
    return metrics, children


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for a smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "tourflow" / "cli.py").is_file():
        print(f"error: no tourflow source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # A terminated run stops its child before it exits (see run_child).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    units = dict(spans.PER_LAYER if args.trace else END_TO_END)
    print("machine " + json.dumps(machine_info()))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        metrics, children = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.size == "tiny", workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    failed = sum(child.error is not None for child in children)
    for child in [c for c in children if c.error is not None][:3]:
        print(f"failed child: {child.error}", file=sys.stderr)
    print(f"bundle_digest {children[0].digest}")
    print(f"children {len(children)} failed {failed} failed_share {failed / len(children)}")
    for name, unit in units.items():
        print(f"{name} {metrics.get(name, 0.0):.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
