"""streamsub benchmark: seeded CLI workloads, timed end to end or traced per layer.

One workload per process, the way every CLI call runs:

    python3 perfbench/run.py --workload driver-card --seed 1 --seconds 20 --trace 0

Load model: closed loop, one client. Trials run one after another in this
process on one thread; each trial is one ``streamsub run`` (or ``audit``)
call through ``streamsub.cli.main`` on an instance file that ``streamsub
gen`` wrote at set-up. With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it first runs one untraced cycle of trials,
then traced ones, and reports the per-layer metrics, the self-time share
of each layer and the tracing overhead. The last line of standard output
is the result as one JSON object; the line before it, starting ``meta``,
holds the run metadata: versions, counts, the output digest and, for an
untraced run, the unscaled timings.

End-to-end metrics:

* ``setup_s``: median over fresh processes of interpreter start, imports,
  ``gen`` of every instance file of the run and loading them back;
* ``elements_per_s``: median over trials of stream elements per second;
* ``trial_s_p50``: median wall time of one CLI call;
* ``step_ms_p50``/``p90``: the algorithm's ``step`` time, first as the
  median over the repeats of each input at each stream position, then
  as quantiles over all inputs and positions;
* ``peak_rss_mb``: the process's peak resident memory once every input
  of the run has been through the package.

The machine this was built on (2 vCPUs on a shared host) drifts in speed
by up to 2x within seconds. Every timing is therefore scaled by the speed
of a fixed reference task timed right before and after it (and every
0.1 s inside a long trial). Between trials the garbage of the last trial
is collected, as the exit of a CLI process would discard it.

Every workload, untraced and traced, with a table of all metrics:

    python3 perfbench/run.py --all --seed 1 --seconds 20

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns as clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

from spans import SPANS, STEP_SPANS, Patcher, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Reference, check_audit, check_run, digest  # noqa: E402

# fresh processes timed for setup_s; the median is reported
SETUP_REPS = 7
# A fixed pure-Python reference task timed next to every trial and set-up.
# On a shared host the machine's speed drifts by up to 2x over seconds, for
# this task and the package alike; every timing is scaled to the speed at
# which the task takes REF_S, which cancels most of that drift.
REF_S = 0.001
STEP_HOOKS = [hook for name in STEP_SPANS for hook in SPANS[name]]
SETUP_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from streamsub import cli
from streamsub.harness import instance_from_json
for argv in json.loads(sys.argv[2]):
    if cli.main(argv) != 0:
        sys.exit(1)
    with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
        instance_from_json(fh.read())
"""


def import_package():
    package = SRC / "streamsub"
    if not (package / "cli.py").is_file():
        sys.exit(f"error: no streamsub sources at {package}")
    sys.path.insert(0, str(SRC))
    from streamsub import cli
    from streamsub.harness import instance_from_json
    if Path(cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported streamsub from {cli.__file__}, not {package}")
    return cli, instance_from_json


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cli_call(cli, argv) -> tuple[int | None, str, str]:
    """Exit code, stdout and stderr of one CLI call; a raised exception
    counts as a failed call and its traceback goes to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code
        except Exception:  # a trial that raises is a failed trial
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def reference_task():
    """Integer arithmetic, frozenset unions and dict updates, the mix of
    work the package's hot paths do."""
    acc = 0
    for j in range(9000):
        acc += j * j
    seen: dict = {}
    s = frozenset()
    for j in range(1800):
        s = s | {j % 37} if len(s) < 6 else frozenset()
        seen[s] = seen.get(s, 0) + len(s)
    return acc, len(seen)


class SpeedTrack:
    """Marks where the reference task was timed: between trials and set-ups,
    and inside a trial once MARK_EVERY_NS has passed since the last mark.
    Time between two marks is scaled by REF_S over the mean of their
    reference timings; the marks' own time is left out of every interval."""

    MARK_EVERY_NS = 100_000_000

    def __init__(self):
        self.marks: list[tuple[int, int, float]] = []  # start ns, end ns, reference s

    def mark(self) -> int:
        start = clock()
        times = []
        # a collection of the package's garbage must not land in the timing
        gc.disable()
        try:
            for _ in range(3):
                t0 = clock()
                reference_task()
                times.append(clock() - t0)
        finally:
            gc.enable()
        self.marks.append((start, clock(), statistics.median(times) * 1e-9))
        return len(self.marks) - 1

    def due(self) -> bool:
        return clock() - self.marks[-1][1] > self.MARK_EVERY_NS

    def speed(self, k: int) -> float:
        """Scale factor of the interval after mark ``k``."""
        return 2 * REF_S / (self.marks[k][2] + self.marks[k + 1][2])

    def interval_s(self, first: int, last: int) -> tuple[float, float]:
        """Seconds from mark ``first`` to mark ``last``: raw, and scaled."""
        raw = scaled = 0.0
        for k in range(first, last):
            ns = self.marks[k + 1][0] - self.marks[k][1]
            raw += ns
            scaled += ns * self.speed(k)
        return raw * 1e-9, scaled * 1e-9


class StepClock:
    """Wall time of every call to the algorithms' public ``step``, and the
    speed-track interval it fell in."""

    def __init__(self, track: SpeedTrack):
        self.track = track
        self.samples = array("q")
        self.interval = array("q")
        self.patcher = Patcher()

    def install(self):
        for module, path in STEP_HOOKS:
            self.patcher.wrap(module, path, self._wrap)
        if len(self.patcher.missing) == len(STEP_HOOKS):
            sys.exit("error: no step method to time: " + ", ".join(self.patcher.missing))

    def _wrap(self, step):
        track, samples, interval = self.track, self.samples, self.interval

        def timed(*args, **kw):
            if track.due():
                track.mark()
            t0 = clock()
            result = step(*args, **kw)
            samples.append(clock() - t0)
            interval.append(len(track.marks) - 1)
            return result
        return timed

    def scaled_ms(self) -> list[float]:
        speed = self.track.speed
        return [ns * 1e-6 * speed(k) for ns, k in zip(self.samples, self.interval)]


def quantile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def measure_setup(gens, track: SpeedTrack) -> tuple[list[float], list[float]]:
    """Wall times of fresh set-up processes, raw and scaled."""
    raw, scaled = [], []
    first = track.mark()
    for _ in range(SETUP_REPS):
        # no timeout: Popen.wait polls every 50 ms when given one
        subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(SRC), json.dumps(gens)],
                       cwd=ROOT, check=True)
        last = track.mark()
        r, s = track.interval_s(first, last)
        raw.append(r)
        scaled.append(s)
        first = last
    return raw, scaled


@dataclass
class Trial:
    index: int
    first_mark: int
    last_mark: int
    first_step: int
    steps: int
    rc: int | None
    out: str
    err: str


def run_trials(cli, wl, files, seed, start_index, min_trials, seconds, track, steps,
               tracer=None) -> list[Trial]:
    """Trials until ``seconds`` have passed and at least ``min_trials`` ran;
    ``steps()`` counts the stream steps taken so far."""
    trials = []
    t_end = time.perf_counter() + seconds
    i = start_index
    first = track.mark()
    while len(trials) < min_trials or time.perf_counter() < t_end:
        argv = wl.trial_argv(files, seed, i)
        before = steps()
        if tracer is None:
            rc, out, err = cli_call(cli, argv)
        else:
            rc, out, err = tracer.call("trial", cli_call, cli, argv, trial=i)
        # collect the trial's garbage now, as the exit of a CLI process would,
        # not inside the reference task or the next trial
        gc.collect()
        last = track.mark()
        trials.append(Trial(i, first, last, before, steps() - before, rc, out, err))
        first = last
        i += 1
    return trials


def trial_seconds(track, trials) -> tuple[list[float], list[float]]:
    """Wall seconds of each trial: raw, and scaled."""
    raw, scaled = zip(*(track.interval_s(t.first_mark, t.last_mark) for t in trials))
    return list(raw), list(scaled)


def elements_per_s(track, trials) -> float:
    """Median over trials of stream elements per scaled second."""
    return statistics.median(t.steps / s for t, s in zip(trials, trial_seconds(track, trials)[1]))


def step_ms_by_position(step_clock, trials, instances) -> list[float]:
    """Per input and stream position, the median over the input's repeats
    of the scaled step time. A step's tail cost (a collection landing in it,
    a burst of load on the machine) then counts only if it repeats."""
    scaled = step_clock.scaled_ms()
    runs: dict = {}
    for t in trials:
        runs.setdefault(t.index % instances, []).append(
            scaled[t.first_step:t.first_step + t.steps])
    return [statistics.median(column) for vectors in runs.values()
            for column in zip(*vectors)]


def check_trials(wl, refs, trials, seed, recorded) -> tuple[int, dict]:
    """Failed-trial count and the correctness record of a run."""
    failures = []
    keys = {}
    failed = 0
    for t in trials:
        j = t.index % wl.instances
        problems = []
        if t.rc != 0:
            problems.append(f"exit code {t.rc}: {t.err.strip()[-300:]}")
        else:
            report = json.loads(t.out)
            if wl.audit:
                problems, key = check_audit(refs[j], report, wl.budget)
            else:
                problems, key = check_run(refs[j], report)
            if keys.setdefault(j, key) != key:
                problems.append(f"result differs from the same input earlier: {key}")
        if problems:
            failed += 1
            failures.append(f"trial {t.index}: " + "; ".join(problems))
    run_digest = digest([keys.get(j) for j in range(wl.instances)])
    expected = recorded.get(wl.name, {}).get(str(seed))
    if expected is not None and expected != run_digest:
        failures.append(f"digest {run_digest} != recorded {expected}")
        failed = len(trials)
    return failed, {"digest": run_digest, "digest_recorded": expected,
                    "failures": failures[:5]}


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    cli, instance_from_json = import_package()
    recorded = json.loads((BENCH / "digests.json").read_text()) if args.scale == "full" else {}
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        gens = wl.gen_argvs(args.seed, workdir, args.scale)
        files = [argv[-1] for argv in gens]
        track = SpeedTrack()
        setup_raw, setup = ([], []) if args.trace else measure_setup(gens, track)
        tracer = Tracer() if args.trace else None
        gen_ns = []
        if tracer is not None:
            tracer.install()
        for argv in gens:
            t0 = clock()
            rc, _, err = (cli_call(cli, argv) if tracer is None
                          else tracer.call("cli.gen", cli_call, cli, argv, trial="setup"))
            gen_ns.append(clock() - t0)
            if rc != 0:
                sys.exit(f"error: gen failed: {err}")
        if tracer is not None:
            tracer.uninstall()
        refs = [Reference.load(Path(f).read_text(), instance_from_json) for f in files]

        step_clock = StepClock(track)
        step_clock.install()
        t_start = time.perf_counter()
        count = lambda: len(step_clock.samples)  # noqa: E731
        try:
            trials = run_trials(cli, wl, files, args.seed, 0, wl.instances, 0, track, count)
            # every input has been through the package once: its peak is
            # reached, and what the benchmark keeps afterwards is left out
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is None:
                trials += run_trials(cli, wl, files, args.seed, len(trials), 0,
                                     args.seconds - (time.perf_counter() - t_start),
                                     track, count)
        finally:
            step_clock.patcher.restore()
        traced = []
        if tracer is not None:
            tracer.install()
            try:
                traced = run_trials(cli, wl, files, args.seed, len(trials), wl.instances,
                                    args.seconds - (time.perf_counter() - t_start), track,
                                    lambda: tracer.steps, tracer)
            finally:
                tracer.uninstall()
        failed, record = check_trials(wl, refs, trials + traced, args.seed, recorded)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(trials) + len(traced)
    meta = {
        "workload": wl.name, "seed": args.seed, "scale": args.scale, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": commit(),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        **record,
    }
    if tracer is None:
        raw_walls, walls = trial_seconds(track, trials)
        samples = sorted(step_ms_by_position(step_clock, trials, wl.instances))
        metrics = {
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "elements_per_s": (elements_per_s(track, trials), "1/s", len(trials)),
            "trial_s_p50": (statistics.median(walls), "s", len(trials)),
            "step_ms_p50": (quantile(samples, 0.5), "ms", len(samples)),
            "step_ms_p90": (quantile(samples, 0.9), "ms", len(samples)),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
        }
        meta.update(trials=len(trials), step_samples=len(samples),
                    step_calls=len(step_clock.samples), setup_reps=len(setup),
                    speed_marks=len(track.marks),
                    speed_p50=statistics.median(map(track.speed, range(len(track.marks) - 1))),
                    unscaled={"setup_s": statistics.median(setup_raw),
                              "trial_s_p50": statistics.median(raw_walls),
                              "elements_per_s": statistics.median(
                                  t.steps / s for t, s in zip(trials, raw_walls))})
    else:
        whole = len(traced) - len(traced) % wl.instances
        counted = [t.index for t in traced[:whole]]
        per_layer, shares = layer_metrics(tracer, counted, gen_ns)
        untraced_eps = elements_per_s(track, trials)
        traced_eps = elements_per_s(track, traced[:whole])
        per_layer["trace.elements_per_s"] = (traced_eps, "1/s")
        per_layer["trace.overhead_elements_per_s"] = (untraced_eps - traced_eps, "1/s")
        metrics = {k: (v, u, len(gen_ns) if k == "cli.gen_s" else whole)
                   for k, (v, u) in per_layer.items()}
        # one file per workload, with the first traced cycle only, so that
        # repeated runs keep a bounded amount on disk
        trace_file = OUT / f"trace-{wl.name}-{args.scale}.jsonl.gz"
        tracer.write(trace_file, counted[:wl.instances])
        missing = sorted(set(tracer.patcher.missing))
        for hook in missing:
            print(f"warning: hook {hook} not found; metrics that need it are absent",
                  file=sys.stderr)
        meta.update(trials=whole, untraced_trials=len(trials), shares=shares,
                    tracing_overhead={"untraced_elements_per_s": untraced_eps,
                                      "traced_elements_per_s": traced_eps,
                                      "slowdown": untraced_eps / traced_eps},
                    hooks_missing=missing, trace_file=str(trace_file.relative_to(ROOT)))
    for name, (value, unit, n) in metrics.items():
        print(f"{wl.name:15} {name:32} {value:14.6g} {unit:12} n={n}")
    print(f"{wl.name:15} {'failed_frac':32} {failed / attempted:14.6g} {'1':12} "
          f"n={attempted}  correct={failed == 0}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, untraced then traced."""
    verdicts = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--scale", args.scale]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"{name:15} trace={trace} exited {proc.returncode}")
                verdicts.append(False)
                continue
            for line in lines[:-1]:
                if not line.startswith("meta "):
                    print(line)
            meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
            result = json.loads(lines[-1])
            if trace:
                print(f"{name:15} {'shares':32} {json.dumps(meta['shares'])}")
            print(f"{name:15} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"digest={meta['digest']} recorded={meta['digest_recorded']}")
            verdicts.append(result["correct"])
    print(f"all correct: {all(verdicts)}")
    return 0 if all(verdicts) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny instances for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
