#!/usr/bin/env python3
"""Benchmark of the csicalib CLI on seeded, generated inputs.

    python3 perfbench/run.py --workload capture_analysis --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One run sets up the workload's inputs from ``--seed`` five times, then
repeats the workload's command sequence for ``--seconds`` and checks every
iteration's outputs.  With ``--trace 0`` it prints the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced iterations and prints the per-layer metrics.  The last
line of standard output is one JSON object; the line before it records the
environment, the input sizes and the sample counts.  The exit code is 0
only when every command exited 0 and every output check passed.

``--workload all`` runs each workload in its own process and prints one
table row per metric, with ``failed_frac`` for each workload.  See
perfbench/README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_ITERATIONS = 3
WORKLOAD_NAMES = ("codec_mixed", "capture_analysis", "sim_control", "cli_cold")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("CSI_CALIB_SEED", None)
    return env


def _import_csicalib() -> None:
    """Import csicalib from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import csicalib.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import csicalib from {SRC}: {exc}")
    if not Path(csicalib.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: csicalib was imported from {csicalib.__file__}, not {SRC}")


def _environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def _run_child(cmd: list[str]) -> int:
    # No timeout: Popen.wait with a timeout polls, which would add up to
    # 50 ms to every child's measured time.
    return subprocess.run(cmd, env=_child_env(), cwd=ROOT).returncode


class Runner:
    """Runs iterations of one workload and tallies commands and failures.

    ``tracer`` is set only while a traced iteration runs.
    """

    def __init__(self, workload):
        self.workload = workload
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.spans_dir = workload.work / "spans"

    def _in_process(self, argv: list[str]) -> int:
        from csicalib import cli
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            return 1

    def _child(self, argv: list[str]) -> int:
        if self.tracer is None:
            return _run_child([sys.executable, "-m", "csicalib.cli", *argv])
        self.spans_dir.mkdir(exist_ok=True)
        out = self.spans_dir / "child.json"
        out.unlink(missing_ok=True)
        with self.tracer.span("proc." + argv[0]) as sp:
            rc = _run_child([sys.executable, str(HERE / "child.py"), str(out), *argv])
        if out.exists():
            self.tracer.adopt(json.loads(out.read_text()), sp)
        return rc

    def _command(self, argv: list[str]) -> int:
        if not self.workload.in_process:
            return self._child(argv)
        if self.tracer is None:
            return self._in_process(argv)
        with self.tracer.span("cli." + argv[0]):
            return self._in_process(argv)

    def iteration(self) -> float:
        """One pass of the command sequence; returns its wall time."""
        commands = self.workload.commands()
        t0 = perf_counter()
        if self.tracer is None:
            codes = [self._command(argv) for argv in commands]
        else:
            with self.tracer.span("bench.iteration"):
                codes = [self._command(argv) for argv in commands]
        elapsed = perf_counter() - t0
        problems = [f"{argv[0]} exited {rc}" for argv, rc in zip(commands, codes) if rc]
        if not problems:
            try:
                problems = self.workload.check()
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"output check failed: {exc!r}"]
        for problem in problems:
            print(f"perfbench: {self.workload.name}: {problem}", file=sys.stderr)
        self.attempted += len(commands)
        self.failed += len(commands) if problems else 0
        return elapsed

    def _traced_iteration(self, tracer) -> float:
        tracer.install()
        self.tracer = tracer
        try:
            return self.iteration()
        finally:
            self.tracer = None
            tracer.uninstall()

    def measure(self, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
        """Untraced and traced iteration wall times over ``seconds``.

        With a tracer, traced and untraced iterations alternate, so that a
        slow spell of the machine hits both alike.
        """
        untraced, traced = [], []
        deadline = perf_counter() + seconds
        want = MIN_ITERATIONS if tracer is not None else 0
        while (len(untraced) < MIN_ITERATIONS or len(traced) < want
               or perf_counter() < deadline):
            if tracer is not None and len(traced) < len(untraced):
                tracer.iteration = len(traced)
                traced.append(self._traced_iteration(tracer))
            else:
                untraced.append(self.iteration())
        return untraced, traced


def _fresh_import() -> float:
    """Wall time of a fresh interpreter running ``import csicalib.cli``."""
    t0 = perf_counter()
    if _run_child([sys.executable, "-c", "import csicalib.cli"]):
        sys.exit("perfbench: a fresh interpreter cannot import csicalib.cli")
    return perf_counter() - t0


def _peak_rss_mib(with_children: bool) -> float:
    """Peak RSS of this process, plus the largest peak of its children when
    the workload runs its commands in children, which live alongside it.

    The set-up's import children never overlap an in-process workload, so
    they are left out there.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def run_workload(args) -> int:
    spec = _spec()
    _import_csicalib()
    sys.path.insert(0, str(HERE))
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed, tiny=args.tiny)
        # Each set-up: a fresh interpreter imports csicalib, then this process
        # generates and writes the inputs.
        imports, setups = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(_fresh_import())
            t0 = perf_counter()
            workload.setup()
            setups.append(imports[-1] + perf_counter() - t0)
        info = {"environment": _environment(), "workload": args.workload,
                "seed": args.seed, "trace": args.trace, "sizes": workload.sizes,
                "nominal_packets": workload.nominal_packets,
                "setup_s_all": setups}

        runner = Runner(workload)
        if args.trace:
            tracer = Tracer()
            untraced, traced = runner.measure(args.seconds, tracer)
            missing = set(workload.spans) - {s.name for s in tracer.spans}
            if missing:
                sys.exit(f"perfbench: {args.workload}: no span {', '.join(sorted(missing))} "
                         "was recorded; update TRACED in perfbench/tracer.py or the "
                         "workload's spans in perfbench/workloads.py")
            metrics = spec["per_layer"]
            values = layer_metrics(tracer.spans, [m["name"] for m in metrics])
            values["trace.untraced_iter_s"] = statistics.median(untraced)
            values["trace.overhead_frac"] = \
                statistics.median(traced) / statistics.median(untraced) - 1.0
            values["cli.failed_cmds"] = runner.failed / (len(untraced) + len(traced))
            values["cli.import_s"] = statistics.median(imports)
            spans_out = ROOT / ".perfbench_work" / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.dump(spans_out)
            info.update(untraced_iter_s_all=untraced, traced_iter_s_all=traced,
                        spans=str(spans_out))
        else:
            times, _ = runner.measure(args.seconds)
            iter_s = statistics.median(times)
            metrics = spec["end_to_end"]
            values = {
                "setup_s": statistics.median(setups),
                "iter_s": iter_s,
                "packets_per_s": workload.nominal_packets / iter_s,
                "peak_rss_mb": _peak_rss_mib(not workload.in_process),
            }
            info.update(iter_samples=len(times),
                        iter_s_quartiles=statistics.quantiles(times, n=4),
                        iter_s_all=times)
        attempted, failed = runner.attempted, runner.failed
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one table row per metric."""
    status = 0
    print(f"{'workload':<18}{'metric':<30}{'value':>16}  unit")
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode:
            status = 1
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            print(f"{name:<18}{'(no result)':<30}{'':>16}  exit {proc.returncode}")
            continue
        rows = dict(result["metrics"])
        rows["failed_frac"] = {"value": result["failed"] / result["attempted"],
                               "unit": "ratio"}
        for metric, v in rows.items():
            print(f"{name:<18}{metric:<30}{v['value']:>16.6g}  {v['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; at least %d iterations always run"
                             % MIN_ITERATIONS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
