"""ppk benchmark: cold CLI invocations, timed end to end, traced per layer.

    python3 bench/run.py --workload algebra --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload oracle --seed 1 --seconds 55 --repeat 5

Each workload is a fixed list of ``ppk`` commands.  A pass runs every command
once, in an order drawn from ``--seed``, each as a fresh process: a closed
loop with one client, so at most one ppk process (plus its ``--jobs``
workers) runs at a time.  Passes repeat while the next one fits in
``--seconds``.  Every invocation's exit status and stdout sha256 are checked
against ``pins.json`` (taken at the seed commit), and against a test golden
where one exists; a mismatch is counted in ``failed`` and the run still
reports.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes run through ``boot.py``, which wraps the layers
from outside (``tracer.py``), and prints the per-layer metrics.  ``--repeat
N`` runs two sets of N untraced runs and reports each end-to-end metric's
spread against its bound in BENCHMARK.json.

The last stdout line is the result object; the line before it holds the
provenance and sample counts.  Outputs, spans and stderr go to
``.bench_run/`` in the checkout, bytecode to ``src/**/__pycache__``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402

SETUP_PROBES = 9
SETUP_CODE = "import ppk.cli, ppk.oracle"
VERIFY_OK = "valuation triple: ok\nrow counts: ok\npolynomial identity: ok\nok\n"


def json_terms(path: Path) -> int:
    """Terms in ``poly --format json`` output, one ``"monomial"`` line each."""
    with open(path, "rb") as fh:
        return sum(line.lstrip().startswith(b'"monomial": [') for line in fh)


def first_line_sum(path: Path) -> int:
    return sum(int(v) for v in path.read_text().splitlines()[0].split(","))


def words_checked(path: Path) -> int:
    head, _, value = path.read_text().splitlines()[0].partition(": ")
    if head != "checked":
        raise ValueError(f"no 'checked' line: {head!r}")
    return int(value)


def verify_ok(path: Path) -> bool:
    return path.read_text() == VERIFY_OK


def columns_ok(path: Path) -> bool:
    return path.read_text().splitlines()[-1] == "ok (worst deviation 0.000e+00)"


def has_line(line: str) -> Callable[[Path], bool]:
    return lambda path: line in path.read_text().splitlines()


@dataclass(frozen=True)
class Command:
    """One ppk invocation, the work it does, and an optional golden check."""

    key: str
    items: Callable[[Path], int]
    golden: Callable[[Path], bool] = lambda path: True

    @property
    def args(self) -> list[str]:
        return self.key.split()


# work per invocation: the terms printed (poly) or reported (terms), the words
# checked (classify), the rows checked (verify), the (t_max+1)*m_max column
# samples (columns)
WORKLOADS: dict[str, tuple[Command, ...]] = {
    "algebra": (
        Command("poly --p 2 --j 10 --format json", json_terms,
                lambda path: json_terms(path) == 5581),
        Command("terms --p 5 --jmax 4", first_line_sum),
        Command("classify --p 2 --maxlen 9", words_checked,
                has_line("boundary (2): 100 10011110")),
        Command("classify --p 3 --maxlen 5", words_checked),
    ),
    "oracle": (
        Command("verify --p 2 --nmax 512 --jobs 2", lambda path: 512, verify_ok),
        Command("verify --p 3 --nmax 243 --jobs 2", lambda path: 243, verify_ok),
        Command("columns --p 2 --tmax 64 --jmax 4 --mmax 262144 --jobs 1",
                lambda path: 65 * 262144, columns_ok),
    ),
}


@dataclass
class Invocation:
    key: str
    wall_s: float
    exit: int
    cpu_s: float
    maxrss_mb: float
    stdout: Path
    sha256: str = ""
    nbytes: int = 0
    spans: Path | None = None


class Launcher:
    """Runs processes through launcher.py, a helper small enough that its
    own memory never shows in a child's ru_maxrss."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env.pop("PPK_JOBS", None)
        self.stderr = RUN_DIR / "stderr.txt"
        self.stderr.write_text("")
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "launcher.py")],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, key: str, argv: list[str], stdout: Path, spans: Path | None = None) -> Invocation:
        self.proc.stdin.write(json.dumps([argv, str(stdout), str(self.stderr)]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        wall, exit_code, cpu, maxrss_kb = json.loads(reply)
        inv = Invocation(key, wall, exit_code, cpu, maxrss_kb / 1024, stdout, spans=spans)
        digest = hashlib.sha256()
        with open(stdout, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                digest.update(chunk)
                inv.nbytes += len(chunk)
        inv.sha256 = digest.hexdigest()
        return inv

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=180)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class Pass:
    invocations: list[Invocation]
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(i.wall_s for i in self.invocations)


def run_pass(launcher: Launcher, cmds: list[Command], traced: bool) -> Pass:
    done = []
    for cmd in cmds:
        tag = f"{cmd.key.replace(' ', '_')}{'.traced' if traced else ''}"
        out = RUN_DIR / f"{tag}.out"
        if traced:
            spans = RUN_DIR / f"{tag}.spans.json"
            argv = [sys.executable, str(BENCH / "boot.py"), str(spans), *cmd.args]
        else:
            spans = None
            argv = [sys.executable, "-m", "ppk", *cmd.args]
        done.append(launcher.run(cmd.key, argv, out, spans))
    return Pass(done)


class Checker:
    """Counts invocations and the ones whose output is not the pinned one."""

    def __init__(self, cmds: tuple[Command, ...], pins: dict):
        self.by_key = {c.key: c for c in cmds}
        self.pins = pins
        self.untraced: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, inv: Invocation, traced: bool = False) -> None:
        self.attempted += 1
        pin = self.pins.get(inv.key)
        problem = None
        if pin is None:
            problem = "no pinned output"
        elif inv.exit != pin["exit"]:
            problem = f"exit {inv.exit}, pinned {pin['exit']}"
        elif inv.sha256 != pin["sha256"]:
            problem = "stdout differs from the pinned sha256"
        elif not _safe(self.by_key[inv.key].golden, inv.stdout, False):
            problem = "stdout fails the golden check"
        elif traced and inv.sha256 != self.untraced.get(inv.key):
            problem = "traced stdout differs from untraced stdout"
        if not traced:
            self.untraced.setdefault(inv.key, inv.sha256)
        if problem:
            self.failures.append(f"{inv.key}: {problem}")

    def check_setup(self, inv: Invocation) -> None:
        self.attempted += 1
        if inv.exit != 0:
            self.failures.append(f"setup probe: exit {inv.exit}")


def _safe(fn, path: Path, default):
    try:
        return fn(path)
    except (OSError, ValueError, IndexError):
        return default


def high_percentile(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (only from 11 samples on)."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples)}
    if n >= 11:
        q = int(100 * (1 - 10 / n))
        out[f"p{q}"] = statistics.quantiles(samples, n=100)[q - 1]
    return out


def provenance() -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def per_command(passes: list[Pass], attr: str) -> dict[str, float]:
    """Median of one invocation attribute per command across passes."""
    keys = [i.key for i in passes[0].invocations]
    return {
        k: statistics.median(getattr(i, attr) for p in passes for i in p.invocations if i.key == k)
        for k in keys
    }


def measure(workload: str, cmds: tuple[Command, ...], seed: int, seconds: float,
            trace: bool, pins: dict) -> tuple[dict, dict]:
    """One run: set-up probes, then passes while the next fits in ``seconds``.
    Returns the result object and its detail record."""
    rng = random.Random(seed)
    RUN_DIR.mkdir(exist_ok=True)
    checker = Checker(cmds, pins)
    load_before = os.getloadavg()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    with Launcher() as launcher:
        def probe() -> float:
            inv = launcher.run("setup", [sys.executable, "-c", SETUP_CODE], RUN_DIR / "setup.out")
            checker.check_setup(inv)
            return inv.wall_s

        # the first import of a fresh checkout writes the bytecode; untimed
        probe()
        probes: list[float] = []
        elapsed = 0.0
        while True:
            # one set-up probe per pass spreads them over the whole run
            probes.append(probe())
            # a traced run alternates untraced and traced passes
            want_traced = trace and len(traced) < len(untraced)
            p = run_pass(launcher, rng.sample(cmds, len(cmds)), want_traced)
            (traced if want_traced else untraced).append(p)
            for inv in p.invocations:
                checker.check(inv, traced=want_traced)
            if want_traced:
                p.layers = layer_totals(p)
            elapsed += p.wall_s
            typical = statistics.median(q.wall_s for q in untraced + traced)
            if (not trace or traced) and elapsed + typical > seconds:
                break
        while len(probes) < SETUP_PROBES:
            probes.append(probe())
    # each command's median, so a slow spell is rejected per command
    walls = per_command(untraced, "wall_s")
    wall_s = sum(walls.values())
    outputs = {i.key: i.stdout for i in untraced[-1].invocations}
    items = sum(_safe(c.items, outputs[c.key], 0) for c in cmds)
    failed = len(checker.failures)
    if trace:
        metrics = per_layer_metrics(untraced, traced)
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "items_per_s": (items / wall_s, "1/s"),
            "peak_rss_mb": (max(per_command(untraced, "maxrss_mb").values()), "MB"),
            "setup_s": (statistics.median(probes), "s"),
        }
    result = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fail_ratio": failed / checker.attempted,
        "failures": checker.failures,
        "items_per_pass": items,
        "pass_wall_s": high_percentile([p.wall_s for p in untraced]),
        "traced_pass_wall_s": high_percentile([p.wall_s for p in traced]) if traced else None,
        "command_wall_s": {
            k: [i.wall_s for p in untraced for i in p.invocations if i.key == k] for k in walls
        },
        "setup_s": high_percentile(probes),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        **provenance(),
    }
    return result, detail


def layer_totals(p: Pass) -> dict[str, float]:
    """The per-layer metrics of a traced pass, summed over its invocations."""
    totals: dict[str, float] = {}
    for inv in p.invocations:
        if inv.spans is not None and inv.spans.is_file():
            for name, value in tracer.layer_metrics(inv.spans).items():
                totals[name] = totals.get(name, 0) + value
    return totals


def per_layer_metrics(untraced: list[Pass], traced: list[Pass]) -> dict:
    """Medians over the traced passes, plus figures of the untraced ones."""
    names = [f"{name}.{kind}" for name, _, _ in tracer.TARGETS for kind in ("calls", "self_s")]
    names += [f"{name}.items" for name in tracer.ITEM_COUNTED]
    out = {}
    for name in names:
        values = [p.layers.get(name, 0) for p in traced]
        if name.endswith("_s"):
            out[name] = (statistics.median(values), "s")
        else:
            out[name] = (statistics.median_low(values), "count")
    out["cli.stdout_bytes"] = (
        statistics.median_low(sum(i.nbytes for i in p.invocations) for p in untraced), "bytes"
    )
    out["cli.cpu_s"] = (
        statistics.median(sum(i.cpu_s for i in p.invocations) for p in untraced), "s"
    )
    out["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced),
        "ratio",
    )
    return out


def load_pins() -> dict:
    with open(BENCH / "pins.json") as fh:
        return json.load(fh)


def repeat(workload: str, seed: int, seconds: float, n: int) -> dict:
    """Two sets of n untraced runs; each metric's spread against its bound."""
    with open(SPEC) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    sets = []
    for k in range(2):
        runs = []
        for i in range(n):
            result, _ = measure(workload, WORKLOADS[workload], seed + k * n + i,
                                seconds, False, load_pins())
            runs.append(result)
            print(json.dumps({"set": k, "run": i, **result}), flush=True)
        sets.append(runs)
    report = {}
    for name, bound in bounds.items():
        values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
        medians = [statistics.median(v) for v in values]
        spreads = []
        for v in values:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spreads.append((q3 - q1) / statistics.median(v))
        pooled = values[0] + values[1]
        q1, _, q3 = statistics.quantiles(pooled, n=4)
        shift = abs(medians[1] - medians[0]) / medians[0]
        report[name] = {
            "bound": bound,
            "medians": medians,
            "spreads": spreads,
            "pooled_spread": (q3 - q1) / statistics.median(pooled),
            "shift": shift,
            "within_bound": shift <= bound and all(s <= bound for s in spreads),
        }
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run two sets of this many runs and report spreads")
    args = ap.parse_args(argv)
    if not (SRC / "ppk" / "cli.py").is_file():
        print(f"error: no ppk sources under {SRC}", file=sys.stderr)
        return 2
    if args.repeat:
        if args.repeat < 2:
            ap.error("--repeat needs at least 2 runs per set")
        print(json.dumps(repeat(args.workload, args.seed, args.seconds, args.repeat)))
        return 0
    result, detail = measure(args.workload, WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace), load_pins())
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
