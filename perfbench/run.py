"""Benchmark of the dpaudit CLI: one workload per invocation.

Run from the root of a dpaudit checkout:

    python3 perfbench/run.py --workload audit-1m --seed 1 --seconds 20 --trace 0

With ``--trace 0`` each operation is a fresh ``python -m dpaudit.cli``
process, so the interpreter and import cost stay inside every timing.
Operations run in a closed loop with one client: the next starts when the
previous one has ended. A warm-up import of the CLI precedes the timings.
With ``--trace 1`` the operation is replayed in-process through
``dpaudit.cli.main``: one warm-up replay, then replays alternately without
and with spans around each layer. The per-layer metrics come from the spans;
the traced minus the untraced replay time is the tracing overhead.

Every operation's output is checked against an analytic oracle, outside the
timed span. The last line of stdout is the result object; the line before it
holds the run's details (machine, input digests, every timing). Both, and
the spans of a traced run, are also written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from machine import machine_record
from workloads import WORKLOADS

SETUP_REPEATS = 3      # set-ups per run, at least
SETUP_MIN_TOTAL_S = 0.25  # ... and until this much set-up time is spent
SETUP_MAX_REPEATS = 50
MIN_OPS = 2        # timed operations per run, at least
MIN_REPLAYS = 3    # warm-up, untraced, traced
IMPORT_REPEATS = 3
RUN_BUDGET_S = 170.0  # hard stop for all operations of one run
OUT_DIR = ".perfbench-out"

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import dpaudit.cli; "
                 "print(time.perf_counter() - t)")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement window of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def set_up(workload, seed: int, work: Path) -> tuple[dict, list[float], dict]:
    """Generate and write the seeded inputs several times; keep the last set."""
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_TOTAL_S
                                         and len(times) < SETUP_MAX_REPEATS):
        indir = work / "inputs"
        shutil.rmtree(indir, ignore_errors=True)
        indir.mkdir(parents=True)
        t0 = time.perf_counter()
        inputs = workload.prepare(seed, indir)
        times.append(time.perf_counter() - t0)
    os.sync()  # so that writing back the inputs does not overlap the measurement
    digests = {path.name: sha256(path) for path in inputs["files"]}
    if "seed" in inputs:
        digests["program_seed"] = inputs["seed"]
    return inputs, times, digests


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """Client of launcher.py, which spawns, times and reaps every child process."""

    def __init__(self, root: Path):
        self.root = root
        # its own session, so that an aborted run can kill it with its child
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launcher.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=cli_env(root), cwd=root, text=True,
                                     start_new_session=True)

    def run(self, cmd: list[str], out: Path, deadline: float) -> dict:
        """One child process, timed from spawn to reap; killed at the run's deadline."""
        job = {"cmd": cmd, "stdout": str(out / "stdout"), "stderr": str(out / "stderr"),
               "timeout": max(1.0, deadline - time.monotonic())}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        done = json.loads(reply)
        done["stdout"] = (out / "stdout").read_text(encoding="utf-8", errors="replace")
        done["stderr"] = (out / "stderr").read_text(encoding="utf-8", errors="replace")
        return done

    def close(self, abort: bool = False) -> None:
        """Let the launcher finish; on abort, kill it and whatever it runs first."""
        if abort:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=RUN_BUDGET_S)
        finally:
            if self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
            self.proc.stdout.close()


def checked(workload, inputs: dict, out: Path, rc: int, stdout: str, stderr: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[-500:]}"]
    try:
        return workload.check(inputs, out, stdout)
    except (OSError, ValueError, LookupError, TypeError) as exc:
        return [f"output unreadable: {exc!r}"]


def wall_tail(walls: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With ten samples or fewer no percentile has that many, and the maximum
    (percentile 100, none beyond) stands in for it.
    """
    ordered = sorted(walls)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / n,
            "samples": n, "beyond": n - rank}


def import_seconds(launcher: Launcher, work: Path, deadline: float) -> float:
    out = work / "import-probe"
    out.mkdir(exist_ok=True)
    probe = launcher.run([sys.executable, "-c", _IMPORT_PROBE], out, deadline)
    if probe["rc"] != 0:
        raise RuntimeError(f"import dpaudit.cli failed: {probe['stderr'][-500:]}")
    return float(probe["stdout"].strip())


def timed_run(workload, inputs: dict, launcher: Launcher, work: Path, seconds: float,
              deadline: float) -> tuple[dict, dict]:
    # Every operation is a fresh process, so the page cache is the only state
    # one can leave to the next. Importing the CLI once warms all of it that
    # set-up has not just written (interpreter, numpy, scipy, dpaudit).
    warmup_s = import_seconds(launcher, work, deadline)
    ops = []
    started = time.perf_counter()
    for i in itertools.count():
        out = work / f"op{i}"
        out.mkdir()
        cmd = [sys.executable, "-m", "dpaudit.cli", *workload.argv(inputs, out)]
        op = launcher.run(cmd, out, deadline)
        op["problems"] = checked(workload, inputs, out, op["rc"], op["stdout"], op["stderr"])
        shutil.rmtree(out)
        ops.append(op)
        elapsed = time.perf_counter() - started
        typical = statistics.median(o["wall_s"] for o in ops)
        if time.monotonic() + typical > deadline:
            break
        if len(ops) >= MIN_OPS and elapsed + typical > seconds:
            break
    walls = [o["wall_s"] for o in ops]
    tail = wall_tail(walls)
    metrics = {"wall_p50_s": statistics.median(walls), "wall_tail_s": tail["value"],
               "peak_rss_mb": max(o["rss_mb"] for o in ops)}
    details = {"ops": [{k: o[k] for k in ("wall_s", "cpu_s", "rss_mb", "rc", "problems")}
                       for o in ops],
               "warmup_import_s": warmup_s, "wall_tail": tail}
    return metrics, details


def traced_run(workload, inputs: dict, launcher: Launcher, work: Path, seconds: float,
               deadline: float) -> tuple[dict, dict, list]:
    from tracing import PER_LAYER_METRICS, Tracer, instrumented

    root = launcher.root
    imports = [import_seconds(launcher, work, deadline) for _ in range(IMPORT_REPEATS)]
    sys.path.insert(0, str(root / "src"))
    from dpaudit import cli
    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"dpaudit imported from {cli.__file__}, not from this checkout")

    tracer = Tracer()
    replays = []
    started = time.perf_counter()
    for i in itertools.count():
        traced = i > 0 and i % 2 == 0  # replay 0 is a warm-up, then untraced/traced
        out = work / f"replay{i}"
        out.mkdir()
        argv = workload.argv(inputs, out)
        stdout, stderr = io.StringIO(), io.StringIO()
        tracer.op = i
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(instrumented(tracer))
            stack.enter_context(contextlib.redirect_stdout(stdout))
            stack.enter_context(contextlib.redirect_stderr(stderr))
            t0 = time.perf_counter()
            try:
                with tracer.span("cli.main") if traced else contextlib.nullcontext():
                    rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an escaped error is a failed operation, not a crash
                traceback.print_exc(file=stderr)
                rc = 1
            wall = time.perf_counter() - t0
        problems = checked(workload, inputs, out, rc, stdout.getvalue(), stderr.getvalue())
        shutil.rmtree(out)
        replays.append({"op": i, "warmup": i == 0, "traced": traced, "wall_s": wall,
                        "problems": problems})
        elapsed = time.perf_counter() - started
        typical = max(r["wall_s"] for r in replays)
        if time.monotonic() + typical > deadline:
            break
        if len(replays) >= MIN_REPLAYS and elapsed + typical > seconds:
            break

    traced_walls = [r["wall_s"] for r in replays if r["traced"]]
    untraced_walls = [r["wall_s"] for r in replays if not (r["traced"] or r["warmup"])]
    layers = [tracer.layer_metrics(r["op"]) for r in replays if r["traced"]]
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.replay_s"] = statistics.median(traced_walls)
    metrics["trace.untraced_s"] = statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = metrics["trace.replay_s"] - metrics["trace.untraced_s"]
    details = {"ops": replays, "import_s": imports}
    return {name: metrics[name] for name in PER_LAYER_METRICS}, details, tracer.to_records()


def unit_of(metric: str) -> str:
    suffixes = {"_s": "s", "_mb": "MB", "_bytes": "B", ".coverage": "fraction"}
    return next((unit for suffix, unit in suffixes.items() if metric.endswith(suffix)), "count")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dpaudit" / "cli.py").is_file():
        print("error: no dpaudit sources at src/dpaudit; run from the root of a "
              "dpaudit checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]
    out_root = root / OUT_DIR
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    spans = None
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    launcher = Launcher(root)
    try:
        inputs, setup_times, digests = set_up(workload, args.seed, work)
        if args.trace:
            metrics, details, spans = traced_run(workload, inputs, launcher, work,
                                                 args.seconds, deadline)
        else:
            metrics, details = timed_run(workload, inputs, launcher, work, args.seconds, deadline)
            metrics["setup_s"] = statistics.median(setup_times)
    finally:
        launcher.close(abort=sys.exc_info()[0] is not None)
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(details["ops"])
    failed = sum(1 for op in details["ops"] if op["problems"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   seconds=args.seconds, failed_frac=failed / attempted,
                   setup_s=setup_times, inputs=digests, machine=machine_record(root))
    stem = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({"result": result, "details": details},
                                                    indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for record in spans:
                fh.write(json.dumps(record) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
