"""
Benchmark driver for swordgen.

    python3 perfbench/run.py --workload loopless-212 --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) from the checkout's `src/`, in this
process, with one thread, as a closed loop with one client: each job
starts when the previous one returns.  Passes over the job list repeat
until `--seconds` are used.  The first pass also captures every job's
output for the checks, which run after the clock stops; later outputs
must match the first pass's byte for byte.  Timings are medians over the
passes, each job's time scaled by the calibration loop around it.

With `--trace 0` the last line of stdout carries the end-to-end metrics.
With `--trace 1` half the time runs untraced and half with the hooks of
tracing.py installed, and the last line carries the per-layer metrics.
Details and spans go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import importlib.util
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# the program's own switches are unset, and numeric libraries get one thread
UNSET = ("SWORDGEN_BACKEND", "SWORDGEN_CAP")
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

MIN_PASSES = 3
SETUP_PROBES = 7

# On the reference machine (2 shared cores) speed swings by up to 2x within
# seconds, as other tenants share the cores.  Each job is bracketed by a
# fixed pure-Python loop, and its time is scaled by the loop's time at full
# speed on the reference machine over the loop's mean time around the job.
REFERENCE_CALIBRATION_S = 0.004


def calibrate() -> float:
    """Time of a fixed loop of tuple, dict and int work."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(20000):
        key = (i, i + 1, i & 7)
        table[key[2]] = key
        acc += len(table) + key[0]
    return time.perf_counter() - start


# import swordgen and run a one-word job in a fresh interpreter
SETUP_PROBE = (
    f"import time\nREFERENCE_CALIBRATION_S = {REFERENCE_CALIBRATION_S!r}\n"
    + inspect.getsource(calibrate)
    + """
import contextlib, io, sys
before = calibrate()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from swordgen import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = cli.parse_and_dispatch(["generate", "--shape", "1"])
elapsed = time.perf_counter() - start
scale = REFERENCE_CALIBRATION_S / ((before + calibrate()) / 2)
sys.exit(1) if rc != 0 or out.getvalue() != "1\\n" else print(repr(elapsed * scale))
"""
)


class Sink(io.TextIOBase):
    """Stands in for stdout: keeps what is written and when the first
    write came.  Bytes written to `.buffer` land in the same record."""

    encoding = "utf-8"

    def __init__(self, clock=time.perf_counter):
        super().__init__()
        self.clock = clock
        self.first: float | None = None
        self.chunks: list = []
        self.buffer = _BinarySink(self)

    def write(self, text: str) -> int:
        if self.first is None:
            self.first = self.clock()
        self.chunks.append(text)
        return len(text)

    def text(self) -> str:
        return "".join(c if isinstance(c, str) else c.decode() for c in self.chunks)


class _BinarySink:
    def __init__(self, owner: Sink):
        self.owner = owner

    def write(self, data: bytes) -> int:
        return self.owner.write(bytes(data))

    def flush(self) -> None:
        pass


def pinned_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(PINNED)
    return env


def measure_setup(env: dict[str, str]) -> tuple[float | None, list[float]]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return None, times
        times.append(float(proc.stdout))
    return statistics.median(times), times


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, jobs) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "unset": list(UNSET),
        "pinned": PINNED,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": [[job.name, *job.argv] for job in jobs],
    }


# --- running ----------------------------------------------------------------


class Runner:
    """Runs passes over a job list and checks their outputs."""

    def __init__(self, jobs, swordgen, cli, capture_dir: Path):
        self.jobs = jobs
        self.sg = swordgen
        self.cli = cli
        self.capture_dir = capture_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] = {}  # job -> digest of the first pass
        self.words: dict[str, int] = {}  # job -> words delivered
        self._verified: dict = {}

    def run_job(self, job):
        out, err = Sink(), Sink()
        extra = None
        gc.collect()
        before = calibrate()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if job.kind == "stream":
                    shape = self.sg.make_shape(checks.parse_shape(job.argv[0]))
                    last = collections.deque(maxlen=1)
                    start = time.perf_counter()  # the shape is input, not work
                    visits = self.sg.generate_loopless(shape, last.append)
                    rc, extra = 0, (visits, tuple(last[0]) if last else ())
                else:
                    rc = self.cli.parse_and_dispatch(list(job.argv))
            except Exception as exc:  # a crash is a failed job, not a failed run
                rc = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        after = calibrate()
        scale = REFERENCE_CALIBRATION_S / ((before + after) / 2)
        first = None if out.first is None else out.first - start
        timing = {
            "seconds": (end - start) * scale,
            "first": None if first is None else first * scale,
            "raw_seconds": end - start,
            "raw_first": first,
            "scale": scale,
            "calibration": [before, after],
        }
        return rc, timing, out, err, extra

    def run_pass(self, capture: bool = False, after_job=None) -> dict:
        """One pass over the job list.  A capturing pass writes each output
        to `capture_dir` (so that holding it does not inflate the peak
        memory of later jobs) and returns what the checks need under
        "captured"."""
        record: dict = {"jobs": {}, "bytes": 0, "captured": {}} if capture else {"jobs": {}, "bytes": 0}
        for job in self.jobs:
            self.attempted += 1
            rc, timing, out, err, extra = self.run_job(job)
            if after_job is not None:
                after_job(timing)
            text = out.text()
            record["bytes"] += len(text.encode())
            record["jobs"][job.name] = timing
            digest = hashlib.sha1(f"{rc}\n{extra}\n{text}".encode()).hexdigest()
            if capture:
                self.reference[job.name] = digest
                path = self.capture_dir / f"{job.name}.out"
                path.write_text(text, encoding="utf-8")
                record["captured"][job.name] = (rc, path, err.text(), extra)
            elif digest != self.reference.get(job.name):
                self.failures.append(f"{job.name}: output differs from the first pass")
        return record

    def run_passes(self, seconds: float, minimum: int, captured: dict | None = None) -> list[dict]:
        """Passes until the next one would overrun `seconds`.  With
        `captured`, the first pass also fills it with every job's output."""
        deadline = time.perf_counter() + seconds
        passes, last = [], 0.0
        while len(passes) < minimum or time.perf_counter() + last <= deadline:
            begin = time.perf_counter()
            capture = captured is not None and not passes
            passes.append(self.run_pass(capture))
            if capture:
                captured.update(passes[0].pop("captured"))
            last = time.perf_counter() - begin
        return passes

    # --- checks -------------------------------------------------------------

    def check(self, captured: dict) -> None:
        for job in self.jobs:
            rc, path, err, extra = captured[job.name]
            try:
                if rc != 0:
                    raise checks.CheckError(f"exit {rc}: {err.strip()[-300:]}")
                text = path.read_text(encoding="utf-8")
                self.words[job.name] = self.check_output(job, text, extra)
            except checks.CheckError as exc:
                self.failures.append(f"{job.name} ({' '.join(job.argv)}): {exc}")
        self.attempted += 1
        try:
            self.check_engines_agree()
        except checks.CheckError as exc:
            self.failures.append(f"engines: {exc}")

    def verified(self, words, shape, patterns) -> list:
        """Check a sequence once per language; later captures of the same
        language must repeat it exactly."""
        key = (shape, patterns)
        if key in self._verified:
            seen, moves = self._verified[key]
            if words != seen:
                raise checks.CheckError("sequence differs from another capture of the same language")
            return moves
        moves = checks.check_sequence(words, shape, patterns, self.sg.classify_move)
        self._verified[key] = (words, moves)
        return moves

    def check_output(self, job, text: str, extra) -> int:
        """Words delivered by the job (0 for jobs that deliver none)."""
        if job.kind == "stream":
            shape = checks.parse_shape(job.argv[0])
            visits, last = extra
            if visits != checks.product_212(shape):
                raise checks.CheckError(f"{visits} visits, expected {checks.product_212(shape)}")
            if sorted(last) != checks.letters(shape) or not checks.avoids_212(last):
                raise checks.CheckError(f"last visit {last} is not a 212-avoiding word of the shape")
            return visits
        opts = dict(zip(job.argv[1::2], job.argv[2::2]))
        command = job.argv[0]
        shape = checks.parse_shape(opts["--shape"])
        patterns = checks.parse_patterns(opts.get("--avoid"))
        fmt = opts.get("--format", "text")
        if command == "generate":
            if fmt == "json":
                payload = json.loads(text)
                words = [tuple(w) for w in payload["words"]]
                moves = self.verified(words, shape, patterns)
                if payload["complete"] is not True or payload["moves"] != [m.to_json() for m in moves]:
                    raise checks.CheckError("JSON moves or completeness disagree with the words")
            else:
                words = checks.words_from_dot(text) if fmt == "dot" else checks.words_from_text(text)
                self.verified(words, shape, patterns)
            return len(words)
        if command == "path":
            return checks.check_path(text, shape)
        if command == "trees":
            if opts.get("--kind") == "kary":
                count = checks.k_catalan(shape[0] + 1, len(shape))
                return checks.check_trees(text, count, "*" * len(shape))
            labels = "".join(str(v) for v in range(1, len(shape) + 1))
            return checks.check_trees(text, checks.product_212(shape), labels)
        if command == "verify":
            report = dict(line.split(": ", 1) for line in text.splitlines())
            want = {
                "words": str(checks.expected_count(shape, patterns)),
                "complete": "True",
                "all_member": "True",
                "all_distinct": "True",
                "exhaustive": "None" if "--cap" in opts else "True",
                "moves_valid": "True",
                "ok": "True",
            }
            wrong = {k: report.get(k) for k, v in want.items() if report.get(k) != v}
            if wrong:
                raise checks.CheckError(f"verify reported {wrong}")
            return 0
        if command == "count":
            want = checks.expected_count(shape, patterns)
            if text.strip() != str(want):
                raise checks.CheckError(f"count {text.strip()}, expected {want}")
            return 0
        if command == "zigzag":
            if text != "semantic: True\n":
                raise checks.CheckError(f"zigzag said {text!r}")
            return 0
        raise checks.CheckError(f"no check for {command}")

    def check_engines_agree(self) -> None:
        """The loopless and greedy engines give the same order."""
        texts = []
        for engine in ("loopless", "greedy"):
            out = Sink()
            with contextlib.redirect_stdout(out):
                rc = self.cli.parse_and_dispatch(
                    ["generate", "--shape", "2,1,2,1", "--avoid", "212", "--engine", engine]
                )
            if rc != 0:
                raise checks.CheckError(f"{engine} engine exited {rc}")
            texts.append(out.text())
        if texts[0] != texts[1]:
            raise checks.CheckError("loopless and greedy orders differ on 2,1,2,1")


def median_of(passes: list[dict], key) -> float:
    return statistics.median(key(p) for p in passes)


def end_to_end(runner: Runner, passes: list[dict], setup_s: float, peak_rss_mb: float) -> dict:
    gen = [j for j in runner.jobs if j.role == "generate"]
    ver = [j for j in runner.jobs if j.role == "verify"]
    head = next(j for j in runner.jobs if j.headline)
    words = sum(runner.words.get(j.name, 0) for j in gen)

    def total(p):
        return sum(r["seconds"] for r in p["jobs"].values())

    def rate(p):
        return words / sum(p["jobs"][j.name]["seconds"] for j in gen)

    firsts = [p["jobs"][head.name]["first"] for p in passes]
    if None in firsts:
        runner.failures.append(f"{head.name}: headline job wrote nothing")
        firsts = [f for f in firsts if f is not None] or [0.0]
    return {
        "wall_s": (median_of(passes, total), "s"),
        "words_per_s": (median_of(passes, rate), "words/s"),
        "first_word_s": (statistics.median(firsts), "s"),
        "verify_s": (median_of(passes, lambda p: sum(p["jobs"][j.name]["seconds"] for j in ver)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def roles(workload: str, m: dict) -> dict:
    """The traced run's evidence that each workload stresses its layer."""
    if workload == "loopless-212":
        return {"oracle_words_enumerated_is_0": m.get("oracle.words_enumerated") == 0}
    if workload == "greedy-dense":
        selfs = {k: v for k, v in m.items() if k.endswith("_s") and not k.startswith("trace.")}
        return {"largest_self_time": max(selfs, key=selfs.get) if selfs else None}
    oracle = m.get("oracle.enumerate_s", 0) + m.get("oracle.language_s", 0)
    share = (m.get("patterns.test_s", 0) + oracle) / m["trace.wall_s"]
    return {"patterns_plus_oracle_share_of_wall": share}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "swordgen" / "__init__.py").is_file():
        print(f"error: no swordgen package under {SRC}", file=sys.stderr)
        return 2
    for name in UNSET:
        os.environ.pop(name, None)
    os.environ.update(PINNED)
    sys.path.insert(0, str(SRC))
    import swordgen
    from swordgen import cli

    jobs = workloads.draw(args.workload, args.seed)
    env = environment(args, jobs)
    setup_s, setup_runs = measure_setup(pinned_env())
    if setup_s is None:
        print("error: the set-up probe failed", file=sys.stderr)
        return 1
    capture_dir = OUT / f"capture-{args.workload}-seed{args.seed}"
    capture_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(jobs, swordgen, cli, capture_dir)

    captured: dict = {}
    detail: dict = {"env": env, "setup_runs": setup_runs}
    if args.trace == 0:
        passes = runner.run_passes(args.seconds, MIN_PASSES, captured)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checks_start = time.perf_counter()
        runner.check(captured)
        detail["checks_s"] = time.perf_counter() - checks_start
        metrics = end_to_end(runner, passes, setup_s, peak_rss_mb)
    else:
        untraced = runner.run_passes(args.seconds / 2, 2, captured)
        tracer = tracing.Tracer()
        tracer.install()
        traced, dumps, per_pass = [], [], []

        def collect(timing) -> None:
            # spans are kept per job, so their times take the job's scale
            tracing.add_totals(totals, tracing.layer_totals(tracer, timing["scale"]))
            dumps.append(tracer.dump())
            tracer.reset()

        try:
            deadline = time.perf_counter() + args.seconds / 2
            while len(traced) < 2 or time.perf_counter() < deadline:
                totals: dict = {}
                tracer.reset()
                record = runner.run_pass(after_job=collect)
                traced.append(record)
                values, missing = tracing.layer_metrics(tracer, totals, record["bytes"])
                per_pass.append(values)
        finally:
            tracer.uninstall()
        runner.check(captured)
        wall = [sum(r["seconds"] for r in p["jobs"].values()) for p in traced]
        base = [sum(r["seconds"] for r in p["jobs"].values()) for p in untraced]
        summary = tracing.summarize(per_pass)
        summary["trace.wall_s"] = statistics.median(wall)
        summary["trace.overhead_s"] = statistics.median(wall) - statistics.median(base)
        metrics = {
            name: (value, tracing.PER_LAYER[name][0] if name in tracing.PER_LAYER else "s")
            for name, value in summary.items()
        }
        for name in tracing.COUNTS:
            if name in summary and any(p[name] != summary[name] for p in per_pass):
                runner.failures.append(f"{name} differs between traced passes")
        detail["roles"] = roles(args.workload, summary)
        detail["unmeasured"] = missing
        detail["unmeasured_hooks"] = tracer.unmeasured
        detail["aliases"] = tracer.aliases
        detail["hook_names"] = tracer.names
        detail["spans"] = dumps  # one entry per traced job
        passes = traced
        print(json.dumps({"roles": detail["roles"], "unmeasured": missing, "unmeasured_hooks": tracer.unmeasured}))

    detail["passes"] = passes
    detail["failures"] = runner.failures
    detail["words"] = runner.words
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    detail["result"] = result
    shutil.rmtree(capture_dir)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail))
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
