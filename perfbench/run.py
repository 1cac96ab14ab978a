"""Benchmark of the ces run modes bell, tomo_bootstrap and sweep.

Run from the root of a ces checkout:

    python3 perfbench/run.py --workload bell --seed 1 --seconds 20 --trace 0

One run, in one process with no threads of its own:

1. writes the workload's config for ``--seed`` (and for ``--seed + 1``);
2. times COLD_STARTS sequential cold starts of ``perfbench/coldstart.py``
   (interpreter, imports, config and state load) for ``setup_s``;
3. runs the run mode once at ``--seed + 1`` (warm-up) and checks its outputs;
4. for ``--seconds`` seconds, repeats the run mode at ``--seed``, checks the
   outputs of every call and requires every repeat to write the same bytes.  With
   ``--trace 1`` every second call runs under ``tracing.Tracer``.

The last line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ones.  A failed check is
printed to standard error and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
COLD_STARTS = 5
MIN_CALLS = 3  # plain timed calls per run; with --trace 1 also MIN_CALLS - 1 traced
COLD_START_TIMEOUT_S = 120

from workloads import WORKLOADS  # noqa: E402


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 - 1:
        parser.error("--seed must be an unsigned 64-bit integer below 2**64 - 1")
    return args


def cold_start(config_path: Path) -> dict:
    """Spawn one cold start; its ``setup_s`` runs from spawn to its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "coldstart.py"), str(config_path)],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.communicate(timeout=COLD_START_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"cold start exited with code {proc.returncode}")
    info = json.loads(line)
    _require_checkout_ces(info.pop("ces_file"))
    return dict(info, setup_s=setup_s)


def _require_checkout_ces(path: str) -> None:
    if Path(path).resolve().parent != SRC / "ces":
        raise RuntimeError(f"imported ces from {path}, not from {SRC / 'ces'}")


def fingerprint(out: Path) -> dict[str, str]:
    """SHA-256 of each output; the manifest without its timestamp."""
    prints = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("created_utc")
            data = json.dumps(manifest, sort_keys=True).encode()
        prints[path.name] = hashlib.sha256(data).hexdigest()
    return prints


def _manifest_failures(out: Path, prints: dict[str, str]) -> list[str]:
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    failures = [f"manifest hash of {e['path']} does not match the file"
                for e in listed if prints.get(e["path"]) != e["sha256"]]
    if {e["path"] for e in listed} != set(prints) - {"manifest.json"}:
        failures.append(f"manifest lists {sorted(e['path'] for e in listed)}, found {sorted(prints)}")
    return failures


def _timed_calls(workload, pipeline, cfg, out, seconds, tracer, on_output):
    """Repeat the run mode for ``seconds`` (whole calls, at least MIN_CALLS).

    Returns (plain, traced) lists of (wall_s, cpu_s); with a tracer every
    second call runs traced.  ``on_output`` sees the outputs of each call.
    """
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    start = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        if use_tracer:
            tracer.call += 1
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            workload.run(pipeline, cfg, out)
        finally:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if use_tracer:
                tracer.uninstall()
        (traced if use_tracer else plain).append((wall, cpu))
        on_output()
        enough = len(plain) >= MIN_CALLS and (tracer is None or len(traced) >= MIN_CALLS - 1)
        if enough and time.perf_counter() - start + wall > seconds:
            return plain, traced


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "ces" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no ces checkout (src/ces, configs) at {ROOT}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    seeds = {"main": args.seed, "alt": args.seed + 1}
    cfg_dicts = {label: workload.config(ROOT, seed) for label, seed in seeds.items()}
    for label, cfg in cfg_dicts.items():
        (work / f"config-{label}.json").write_text(json.dumps(cfg, indent=2) + "\n")

    cold = [cold_start(work / "config-main.json") for _ in range(COLD_STARTS)]

    sys.path.insert(0, str(SRC))
    import ces
    from ces import pipeline
    from ces.config import load_config

    from tracing import Tracer, layer_metrics

    _require_checkout_ces(ces.__file__)
    cfgs = {label: load_config(work / f"config-{label}.json") for label in seeds}
    failures: list[str] = []
    calls = failed = 0

    def take(label):
        """Count a call's failures and check its outputs; return their fingerprint."""
        nonlocal calls, failed
        out = work / label
        calls += 1
        failed += workload.failed(out)
        prints = fingerprint(out)
        failures.extend(_manifest_failures(out, prints))
        failures.extend(f"seed {seeds[label]}: {f}" for f in workload.check(out, cfg_dicts[label]))
        return prints

    # Warm-up at the second seed: a different seed must pass every check too.
    workload.run(pipeline, cfgs["alt"], work / "alt")
    alt_prints = take("alt")
    reference = {}

    def on_output():
        prints = take("main")
        if not reference:
            reference.update(prints)
            if any(v == alt_prints.get(k) for k, v in prints.items() if k != "manifest.json"):
                failures.append("seeds {main} and {alt} wrote an identical output".format(**seeds))
        elif prints != reference:
            changed = sorted(k for k in prints.keys() | reference.keys()
                             if prints.get(k) != reference.get(k))
            failures.append(f"call {calls} at seed {seeds['main']} changed {changed}")

    tracer = Tracer() if args.trace else None
    plain, traced = _timed_calls(workload, pipeline, cfgs["main"], work / "main",
                                 args.seconds, tracer, on_output)

    median = statistics.median
    if tracer is None:
        metrics = {
            "wall_s": (median([w for w, _ in plain]), "s"),
            "cpu_s": (median([c for _, c in plain]), "s"),
            "setup_s": (median([c["setup_s"] for c in cold]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tracer.write(work / "trace.json")
        metrics = layer_metrics(tracer.spans, len(traced))
        for part in ("numpy", "scipy", "ces"):
            metrics[f"setup.import_{part}_s"] = (median([c[f"import_{part}_s"] for c in cold]), "s")
        metrics["trace.overhead_s"] = (
            median([w for w, _ in traced]) - median([w for w, _ in plain]), "s")

    (work / "samples.json").write_text(json.dumps(
        {"plain": plain, "traced": traced, "cold_starts": cold}, indent=1) + "\n")
    for failure in dict.fromkeys(failures):
        print(f"perfbench: {args.workload}: check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": calls * workload.ops_per_call,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
