"""ordsemi benchmark: one workload in one process on one BLAS thread.

Run from the repository root:

    python3 perfbench/run.py --workload c08-semi2-linear --seed 0 --seconds 30 --trace 0

Each workload runs a fixed set of trials back to back (a closed loop with
one client).  Every trial's output is checked.  Untraced, trial times are
scaled by the speed of a fixed reference computation timed throughout the
trials, because the machine the bounds were set on is shared and its speed
drifts.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run runs each trial twice in a row, untraced and then traced, so the
tracing overhead is measured on identical work, and writes its spans to
``perfbench/out/trace-<workload>.json``.
"""

import os

# Pinned before numpy is imported anywhere in this process or its children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import ExitStack, contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("c08-semi2-linear", "c08-sv-linear", "c07-variance")
# Set-up is timed in this many processes, spread over the run, and counts
# at the fastest.  See perfbench/README.md, "Timing".
SETUP_REPEATS = 12
# The reference runs every REFERENCE_PERIOD_S during an untraced trial;
# run_s is the trial time at REFERENCE_NOMINAL_US per reference call, a
# typical figure on the machine the bounds were set on.
REFERENCE_PERIOD_S = 0.05
REFERENCE_NOMINAL_US = 180.0
DEFAULT_SEED = 0
# A run that is still going after this many times --seconds stops, and its
# unfinished trials count as failed, so that it ends well within 180 s.
DEADLINE_FACTOR = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, build the workload's inputs and exit (times set-up)")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path and import ordsemi from it."""
    package = SRC / "ordsemi"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no ordsemi sources at {package}")
    sys.path.insert(0, str(SRC))
    import ordsemi

    if Path(ordsemi.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported ordsemi from {ordsemi.__file__}, not {package}")


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=False)
    return out.stdout.strip() or "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def time_setup(args) -> float:
    """Wall time of one fresh process that imports ordsemi and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return time.perf_counter() - start


class Reference:
    """A fixed numpy computation owned by the benchmark, timed on SIGALRM
    every ``REFERENCE_PERIOD_S`` while a trial runs.

    On the shared 2-vCPU VM the bounds were set on, other jobs made it run
    at anywhere from 100 to 200 us per call, in swings of a fraction of a
    second to tens of seconds, and slowed the program alike.  Timed during
    the trials, the reference sees the same swings: over twelve repeats of
    one trial set its mean time correlated 0.94 with the set's time, and
    scaling by it cut the spread between repeats by more than half.  It
    mirrors the program's hot path (margins, the logistic surrogate, a
    weight gradient) on a 1000-row block and, three times, on a 20-row
    block.  It calls no ordsemi code, so a change to the program does not
    move it.
    """

    REPEATS = 2  # calls per sample

    def __init__(self):
        rng = np.random.default_rng(0)
        self.phi = rng.normal(size=(1000, 6))
        self.weights = rng.normal(size=6)
        self.thresholds = np.array([-0.5, 0.5])
        self.samples_us: list[float] = []  # time per call
        self.spent_s = 0.0  # time spent in the samples
        self.active = False

    def _surrogate(self, phi):
        m = self.thresholds[None, :] - (phi @ self.weights)[:, None]
        v = np.maximum(0.0, -m) + np.log1p(np.exp(-np.abs(m)))
        return float(np.mean(v)), -phi.T @ v.sum(axis=1)

    def _sample(self, signum, frame):
        if not self.active:  # an alarm delivered as sampling stopped
            return
        start = time.perf_counter()
        for _ in range(self.REPEATS):
            self._surrogate(self.phi)
            for _ in range(3):
                self._surrogate(self.phi[:20])
        seconds = time.perf_counter() - start
        self.samples_us.append(seconds / self.REPEATS * 1e6)
        self.spent_s += seconds

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self.active = False
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """The factor that takes trial times to the nominal machine speed."""
        return REFERENCE_NOMINAL_US / statistics.fmean(self.samples_us)


class Loop:
    """Runs a workload's fixed trial set back to back and keeps what it measured.

    Untraced, the reference samples the machine's speed during each trial
    and ``SETUP_REPEATS`` set-up processes are spread evenly between the
    trials.  Traced, each trial runs twice in a row, untraced and then
    traced, without the reference.
    """

    def __init__(self, workload, state, args):
        from workloads import Capture

        self.workload, self.state, self.args = workload, state, args
        self.capture = Capture()
        self.reference = None if args.trace else Reference()
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.wall: list[float] = []  # seconds per untraced trial that passed
        self.quality: list[float] = []
        self.traced_wall = 0.0
        self.paired_wall = 0.0  # untraced seconds of the trials also run traced

    def _once(self, t: int, tracer=None):
        """One checked trial, traced if a tracer is given: (seconds, Outcome), or None.

        The seconds leave out the time the reference took."""
        gc.collect()
        with ExitStack() as stack:
            stack.enter_context(self.capture.installed())
            if tracer is not None:
                tracer.trial = t
                stack.enter_context(tracer.installed())
                stack.enter_context(tracer.span("perfbench.trial"))
            if self.reference is not None:
                spent_s = self.reference.spent_s
                stack.enter_context(self.reference.sampling())
            try:
                start = time.perf_counter()
                result = self.workload.run(self.state, t)
                seconds = time.perf_counter() - start
            except Exception:  # a failed trial is counted, the run goes on
                print(f"trial {t} raised:\n{traceback.format_exc()}", file=sys.stderr)
                return None
        if self.reference is not None:
            seconds -= self.reference.spent_s - spent_s
        outcome = self.workload.check(self.state, t, result, self.capture)
        if outcome.error is not None:
            print(f"trial {t} failed its check: {outcome.error}", file=sys.stderr)
            return None
        return seconds, outcome

    def trial(self, t: int, tracer=None) -> None:
        self.attempted += 1
        untraced = self._once(t)
        traced = None
        if untraced is not None and tracer is not None:
            traced = self._once(t, tracer)
            if traced is not None and traced[1] != untraced[1]:
                print(f"trial {t}: traced output differs from untraced", file=sys.stderr)
                traced = None
        if untraced is None or (tracer is not None and traced is None):
            self.failed += 1
            return
        seconds, outcome = untraced
        self.wall.append(seconds)
        self.quality.append(outcome.quality)
        if traced is not None:
            self.traced_wall += traced[0]
            self.paired_wall += seconds

    def run(self, deadline_s: float, tracer=None) -> float:
        start = time.perf_counter()
        trials = self.workload.trials
        for t in range(trials):
            if time.perf_counter() - start > deadline_s:
                print(f"stopped after {deadline_s:.0f} s; trials {t}..{trials - 1} "
                      "count as failed", file=sys.stderr)
                self.attempted += trials - t
                self.failed += trials - t
                break
            if tracer is None:
                # The set-up processes due before trial t, SETUP_REPEATS in all.
                due = (t + 1) * SETUP_REPEATS // trials - t * SETUP_REPEATS // trials
                self.setup_s.extend(time_setup(self.args) for _ in range(due))
            self.trial(t, tracer)
        return time.perf_counter() - start


def end_to_end(loop: Loop) -> dict:
    """The gated metrics."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (min(loop.setup_s), "s"),
        "run_s": (sum(loop.wall) * loop.reference.scale(), "s"),
        "quality_loss": (loop.workload.average(loop.quality), "MAE-or-ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(args.seed)
        return 0

    info = provenance(args)
    print(json.dumps({"provenance": info}))
    loop = Loop(workload, workload.setup(args.seed), args)

    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
    loop_s = loop.run(DEADLINE_FACTOR * args.seconds, tracer)
    correct = loop.failed == 0

    print(f"trials: {loop.attempted} attempted, {loop.failed} failed "
          f"(failed_frac {loop.failed / loop.attempted:.4f})")
    if loop.wall:
        print(f"loop: {loop_s:.3f} s; trials: {sum(loop.wall):.3f} s; "
              f"trial_s.p50: {statistics.median(loop.wall):.4f} s (n={len(loop.wall)})")
    if not loop.wall:
        metrics = {}  # every trial failed: nothing to report
    elif tracer is None:
        samples = loop.reference.samples_us
        print(f"reference: {statistics.fmean(samples):.1f} us per call over {len(samples)} "
              f"samples; set-up runs: {' '.join(f'{s:.3f}' for s in loop.setup_s)} s")
        metrics = end_to_end(loop)
    else:
        n_spans = tracer.write(HERE / "out" / f"trace-{args.workload}.json", info)
        metrics = layer_metrics(tracer.spans)
        metrics["trace.spans"] = (n_spans, "count")
        metrics["trace.overhead_s"] = (loop.traced_wall - loop.paired_wall, "s")
        metrics["trace.overhead_frac"] = (
            (loop.traced_wall - loop.paired_wall) / loop.paired_wall, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
