#!/usr/bin/env python3
"""Cold-CLI benchmark of burstgic, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload detect --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24 --trace 0

Each run of one workload repeats a cycle, one child process at a time,
until the next cycle would end past --seconds (at least MIN_CYCLES):

  * an import probe, a fresh interpreter that runs `import burstgic.cli`;
  * the workload's cold `burstgic <command> --config CFG --seed SEED` child;
  * with --trace 1, also the same command under bench/layers.py, which
    wraps the library's public functions from outside `src/`.

Every child's outputs are checked (bench/checks.py) and must be
byte-identical to the first child's of the run. A child fails on a
non-zero exit, a timeout or a failed check; `failed` over `attempted`
counts the probes and CLI children. Timings are medians over the run.

Children import the package from `src/` of the checkout holding this file,
with bytecode caching on (as an installed CLI has it); one untimed probe
fills the cache first. With --trace 0 the last stdout line carries the
end-to-end metrics, with --trace 1 the per-layer ones. Each run also
writes a noise record (machine, versions, load, quartiles per metric) to
.bench_out/records/.
"""

import argparse
import importlib.metadata
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
from pathlib import Path

import checks
import layers
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

MIN_CYCLES = 3
CHILD_TIMEOUT_S = 30.0
#: past this many seconds no further cycle starts, whatever MIN_CYCLES says
HARD_STOP_S = 80.0

PROBE = """\
import sys, time
t = time.perf_counter()
import burstgic.cli
t = time.perf_counter() - t
mods = list(sys.modules)
print(t, len(mods), sum(m.split('.')[0] == 'scipy' for m in mods),
      burstgic.cli.__file__)
"""
# what the installed `burstgic` console script runs
CLI = "import sys\nfrom burstgic.cli import main\nsys.exit(main())\n"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
)

#: per-layer metrics measured here rather than read from a trace
OWN_PER_LAYER = (
    ("import.cli_s", "s"),
    ("import.modules", "count"),
    ("import.scipy_modules", "count"),
    ("cli.bytes_out", "bytes"),
    ("trace.overhead_s", "s"),
)


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv, log_dir: Path, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one child to completion; wall time, rusage and exit code.

    The child is reaped only after the kill timer is disarmed, so the
    timer can never signal a recycled pid; os.kill is used because
    Popen.kill would poll, and so reap, the child first.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout", "wb") as out, \
            open(log_dir / "stderr", "wb") as err:
        lock = threading.Lock()
        exited = []

        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                                stdout=out, stderr=err)

        def kill():
            with lock:
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        wall = None
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
        finally:
            with lock:
                exited.append(True)
            timer.cancel()
            timer.join()
            if wall is None:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0, "code": proc.returncode,
            "stdout": (log_dir / "stdout").read_text(),
            "stderr": (log_dir / "stderr").read_text()}


def quartiles(values) -> dict:
    if len(values) < 2:
        v = values[0]
        return {"q1": v, "median": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3,
            "n": len(values)}


class Run:
    """One benchmark run of one workload: its children and their samples."""

    def __init__(self, name: str, seed: int, trace: bool, reference: dict):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.reference = reference
        self.dir = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(self.workload["config"]))
        self.samples = {}
        self.attempted = 0
        self.errors = []
        self.digests = None
        self.traces = []
        self.fixed = {}  # values every child of the run must repeat

    def _sample(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def _fail(self, what: str, detail: str):
        self.errors.append(f"{what}: {detail.strip()[-400:]}")

    def _same(self, key: str, value) -> bool:
        """Record a value that must repeat exactly within the run."""
        first = self.fixed.setdefault(key, value)
        if first != value:
            self._fail(key, f"{value} differs from the run's first {first}")
        return first == value

    def warm_up(self):
        """Untimed probe: fills the bytecode cache and confirms that the
        package comes from this checkout's src/."""
        r = spawn([sys.executable, "-c", PROBE], self.dir / "warmup")
        if r["code"] != 0:
            raise SystemExit(f"cannot import burstgic.cli from {SRC}:\n"
                             f"{r['stderr']}")
        path = Path(r["stdout"].split()[-1]).resolve()
        if SRC.resolve() not in path.parents:
            raise SystemExit(f"burstgic.cli came from {path}, not {SRC}")

    def probe(self):
        r = spawn([sys.executable, "-c", PROBE], self.dir / "probe")
        self.attempted += 1
        if r["code"] != 0:
            self._fail("import probe", r["stderr"])
            return
        t, modules, scipy_modules, _ = r["stdout"].split()[-4:]
        if (self._same("import.modules", int(modules))
                and self._same("import.scipy_modules", int(scipy_modules))):
            self._sample("setup_s", r["wall_s"])
            self._sample("import.cli_s", float(t))

    def cli(self, traced: bool):
        base = self.dir / ("traced" if traced else "plain")
        shutil.rmtree(base, ignore_errors=True)
        out = base / "data"
        trace_path = base / "trace.json"
        argv = ([sys.executable, str(BENCH / "layers.py"), str(trace_path)]
                if traced else [sys.executable, "-c", CLI])
        argv += [self.workload["command"], "--config", str(self.config),
                 "--out", str(out), "--seed", str(self.seed)]
        r = spawn(argv, base)
        self.attempted += 1
        label = f"{'traced ' if traced else ''}{self.name} child"
        if r["code"] != 0:
            self._fail(label, f"exit {r['code']}\n{r['stderr']}")
            return
        try:
            items = checks.check(self.name, out, self.workload["config"],
                                 self.reference)
            digests = checks.output_digests(out)
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                raise checks.CheckError(
                    "outputs differ from the run's first child")
            if traced:
                trace = json.loads(trace_path.read_text())
                if self.traces and (layers.work_counts(trace)
                                    != layers.work_counts(self.traces[0])):
                    raise checks.CheckError(
                        "work counts differ between two traced children")
        except checks.CheckError as e:
            self._fail(label, str(e))
            return
        self.fixed["cli.bytes_out"] = sum(p.stat().st_size
                                          for p in out.iterdir())
        if traced:
            self.traces.append(trace)
            self._sample("traced_wall_s", r["wall_s"])
        else:
            self._sample("wall_s", r["wall_s"])
            self._sample("cpu_s", r["cpu_s"])
            self._sample("peak_rss_mb", r["rss_mb"])
            self._sample("items_per_s", items / r["wall_s"])
        shutil.rmtree(base)

    def measure(self, seconds: float) -> int:
        self.warm_up()
        start = time.perf_counter()
        cycle_s = []
        while True:
            t0 = time.perf_counter()
            self.probe()
            self.cli(traced=False)
            if self.trace:
                self.cli(traced=True)
            cycle_s.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(cycle_s) > seconds and (
                    len(cycle_s) >= MIN_CYCLES or elapsed > HARD_STOP_S):
                return len(cycle_s)

    @property
    def failed(self) -> int:
        return len(self.errors)

    def metrics(self) -> tuple:
        """(metrics for the result line, quartiles per metric, missing)."""
        table = {}
        missing = []
        if not self.trace:
            for name, unit in END_TO_END:
                if self.samples.get(name):
                    table[name] = (unit, self.samples[name])
        else:
            if self.samples.get("import.cli_s"):
                table["import.cli_s"] = ("s", self.samples["import.cli_s"])
            for name, unit in OWN_PER_LAYER:
                if name in self.fixed:
                    table[name] = (unit, [self.fixed[name]])
            if self.samples.get("traced_wall_s") and self.samples.get("wall_s"):
                overhead = (statistics.median(self.samples["traced_wall_s"])
                            - statistics.median(self.samples["wall_s"]))
                table["trace.overhead_s"] = ("s", [overhead])
            if self.traces:
                reported, missing = layers.report(self.traces)
                for name, (unit, values) in reported.items():
                    table[name] = (unit, values)
        stats = {name: dict(quartiles(vals), unit=unit)
                 for name, (unit, vals) in table.items()}
        result = {name: {"value": s["median"], "unit": s["unit"]}
                  for name, s in stats.items()}
        return result, stats, missing

    def noise_record(self, seconds, cycles, stats, missing, load0) -> dict:
        def version(dist):
            try:
                return importlib.metadata.version(dist)
            except importlib.metadata.PackageNotFoundError:
                return None

        return {
            "workload": self.name, "seed": self.seed,
            "trace": int(self.trace), "seconds": seconds, "cycles": cycles,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "loadavg_start": load0, "loadavg_end": os.getloadavg(),
            "attempted": self.attempted, "failed": self.failed,
            "fail_frac": self.failed / max(1, self.attempted),
            "errors": self.errors, "missing": missing, "metrics": stats,
        }


def run_workload(name, seed, seconds, trace, reference) -> dict:
    load0 = os.getloadavg()
    run = Run(name, seed, trace, reference)
    cycles = run.measure(seconds)
    result, stats, missing = run.metrics()
    record = run.noise_record(seconds, cycles, stats, missing, load0)
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (records / f"{stamp}-{name}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    shutil.rmtree(run.dir, ignore_errors=True)

    print(f"# {name}: {cycles} cycles, {run.failed} of {run.attempted} "
          f"runs failed (fail_frac {record['fail_frac']:.3g}), "
          f"load {load0[0]:.2f}")
    for err in run.errors:
        print(f"#   FAILED {err}", file=sys.stderr)
    for layer in missing:
        print(f"#   missing layer {layer}", file=sys.stderr)
    zero = 0
    for metric, s in stats.items():
        if s["q1"] == s["q3"] == 0:
            zero += 1
            continue
        print(f"{name:8s} {metric:40s} {s['median']:14.6g} {s['unit']:6s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']}")
    if zero:
        print(f"# {name}: {zero} more metrics are 0 (layers this workload "
              f"does not run)")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "burstgic" / "cli.py").is_file():
        print(f"no burstgic sources under {SRC}", file=sys.stderr)
        return 1
    reference = json.loads(REFERENCE.read_text())
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), reference)
               for name in names}
    print(json.dumps(results[args.workload] if args.workload != "all"
                     else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
