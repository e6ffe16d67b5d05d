"""End-to-end benchmark of the coloring package, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout.  Per run it:

1. builds the one-time host artifacts outside every timed region, in a
   cache directory the benchmark owns (``.perfbench_work/``): byte-code
   for ``src/`` and the C edge-list tokenizer (``$REPRO_CC_CACHE``);
2. starts ``workload.py --role main``, which sets up, sends closed-loop
   requests for about ``--seconds`` and checks every result;
3. with ``--trace 0``, splits those requests into segments and, in each
   pause between two, runs ``workload.py --role setup``; ``setup_s`` is
   the median over these and the measured process;
4. prints each metric as ``name value unit``, then one JSON line with
   ``correct``, ``attempted``, ``failed`` and ``metrics``: the
   end-to-end metrics untraced, the per-layer metrics with ``--trace 1``.

It exits 1 when any check fails and 2 when the directory holds no
package source to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("kron-jp-warm", "svc-delta-mix")
#: Set-up samples per untraced run, the measured process included.
SETUP_SAMPLES = 5
#: Whole-run budget; every child is killed past it.
BUDGET_S = 170.0


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def host_probe() -> float:
    """Median wall of a fixed NumPy sort: shows host speed drift."""
    import numpy as np

    data = np.random.default_rng(0).random(1 << 20)
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.sort(data)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def child_env(work: str) -> dict[str, str]:
    """The workload processes' environment: no ambient REPRO_* knobs,
    the package from this checkout, every file inside ``WORK``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        # One malloc arena: otherwise which of the service's two engine
        # threads ran an op decides how much freed memory glibc keeps,
        # and peak RSS swings by a fifth between identical runs.
        "MALLOC_ARENA_MAX": "1",
        "REPRO_CC_CACHE": os.path.join(WORK, "cc"),
        "REPRO_INGEST_CACHE": "off",
        "TMPDIR": os.path.join(work, "tmp"),
    })
    return env


def run_child(cmd: list[str], env: dict, deadline: float) -> str:
    """Run one child to completion (killed at the deadline); stdout."""
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout


def prepare(env: dict, work: str, deadline: float) -> dict:
    """One-time host artifacts, outside any timed region."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src")], check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    probe = os.path.join(work, "probe.txt")
    with open(probe, "w", encoding="utf-8") as fh:
        fh.write("0 1\n1 2\n")
    code = ("import json, sys, numpy, repro.cli, repro.service.server\n"
            "from repro.graphs.ingest import ingest_report\n"
            "_, r = ingest_report(sys.argv[1], cache=False)\n"
            "print(json.dumps({'parser_used': r['parser_used'],"
            " 'numpy': numpy.__version__}))\n")
    return json.loads(run_child([sys.executable, "-c", code, probe], env,
                                deadline).strip().splitlines()[-1])


def workload_cmd(args, work: str, role: str, extra: list[str]) -> list[str]:
    return [sys.executable, os.path.join(HERE, "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--role", role, "--work", work, "--spawn-t",
            repr(time.monotonic()), *extra]


def measure(args, extra: list[str]) -> tuple[dict, list[float], dict]:
    """Prepare, then run the measured process.  Its timed requests come
    in SETUP_SAMPLES segments, and each pause between two runs one
    set-up-only process, so the timed samples spread over more of the
    host's speed swings without lengthening the run."""
    deadline = time.monotonic() + BUDGET_S
    work = os.path.join(WORK, f"run-{os.getpid()}")
    env = child_env(work)
    os.makedirs(env["TMPDIR"], exist_ok=True)
    segments = SETUP_SAMPLES if args.trace == 0 else 1
    setups: list[float] = []
    try:
        host = prepare(env, work, deadline)
        cmd = workload_cmd(args, os.path.join(work, "main"), "main",
                           extra + ["--segments", str(segments)])
        with subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True) as proc:
            watchdog = threading.Timer(deadline - time.monotonic(), proc.kill)
            watchdog.start()
            try:
                last = ""
                for line in proc.stdout:
                    if line.strip() != "pause":
                        last = line
                        continue
                    out = run_child(workload_cmd(
                        args, os.path.join(work, f"s{len(setups)}"), "setup",
                        extra), env, deadline)
                    setups.append(json.loads(out.strip().splitlines()[-1])
                                  ["setup_s"])
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
            except BaseException:
                proc.kill()  # then the with-block waits for it
                raise
            finally:
                watchdog.cancel()
        if proc.returncode != 0:
            raise RuntimeError(f"measured process exited {proc.returncode}")
        main = json.loads(last)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(main["setup_s"])
    return main, setups, host


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end benchmark of the coloring package.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long smoke size")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"no package source under {ROOT}/src/repro", file=sys.stderr)
        return 2

    probe_before = host_probe()
    main_out, setups, host = measure(args, ["--size", args.size])
    probe_after = host_probe()

    env = dict(main_out["env"], cpu_count=os.cpu_count(),
               numpy=host["numpy"], python=sys.version.split()[0],
               host_parser=host["parser_used"],
               setup_samples=[round(s, 4) for s in setups],
               timed_wall_s=round(main_out["timed_wall_s"], 3),
               host_probe_s=[probe_before, probe_after])
    print("env " + json.dumps(env, sort_keys=True))
    print("counts " + json.dumps(main_out["counts"], sort_keys=True))
    print("latency " + json.dumps(main_out["latency"], sort_keys=True))
    problems = list(main_out["problems"])
    if host["parser_used"] != "c":
        problems.append(f"C tokenizer unavailable: {host['parser_used']}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        units = metric_units("per_layer")
        values = dict(main_out["layers"], **{
            "host.probe_s.before": probe_before,
            "host.probe_s.after": probe_after})
    else:
        units = metric_units("end_to_end")
        values = dict(main_out["metrics"], setup_s=statistics.median(setups))
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: "
                       f"{sorted(unknown)}")
    metrics = {}
    for name, unit in units.items():
        # A layer off this workload's path did no work: it reads 0.
        value = values.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value} {unit}")
    attempted = max(1, int(main_out["attempted"]))
    failed = main_out["failed"] + len(problems) - len(main_out["problems"])
    failed = min(attempted, failed)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
