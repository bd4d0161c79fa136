"""Benchmark of the unml CLI: seeded workloads, one in-process client, closed loop.

Usage, from the repository root:

    python3 bench/run.py --workload select-large-n --seed 1 --seconds 25 --trace 0

Each operation is one full ``unml select`` or ``unml verify`` invocation
through ``unml.cli.main(argv)``: CSV in, JSON report written to a file.  The
next operation starts when the previous one has returned and its report has
been checked.  Inputs are generated and reports checked outside the timed
region.  Interpreter start-up and ``import unml.cli`` are paid once per shell
invocation, so they are measured separately, in fresh interpreters, as
``setup_s``.  The reported times are converted to seconds of a machine at
nominal speed (``calib.py``); the summary also prints the raw wall times.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it spends half the time untraced and half with spans on every layer boundary,
and reports per-layer metrics.  The last line of stdout is one JSON object;
the lines before it are a readable summary.  Exit status is 0 whenever a
result is printed, and non-zero when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

# one process, at most one BLAS thread per CPU it may run on; set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calib  # noqa: E402
import gen  # noqa: E402
import refcheck  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
WALL_FACTOR = 3.0   # stop starting operations after this multiple of --seconds


def fresh_import(extra_flags=(), code="import unml.cli") -> tuple[float, str]:
    """Wall time of running ``code`` in a new interpreter, and its stderr."""
    cmd = [sys.executable, *extra_flags, "-c", code]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{code!r} failed:\n{proc.stderr[-2000:]}")
    return elapsed, proc.stderr


def measure_setup() -> tuple[float, float]:
    """Median set-up time of a fresh interpreter: in wall seconds, and in
    seconds at nominal speed (each import bracketed by reference imports)."""
    fresh_import()   # untimed: writes the bytecode cache of a fresh checkout
    walls, refs = [], [fresh_import(code=calib.IMPORT_REFERENCE)[0]]
    for _ in range(SETUP_REPEATS):
        walls.append(fresh_import()[0])
        refs.append(fresh_import(code=calib.IMPORT_REFERENCE)[0])
    nominal = calib.at_nominal_speed(walls, refs, calib.IMPORT_NOMINAL_S)
    return statistics.median(walls), statistics.median(nominal)


_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def measure_import_layers() -> dict:
    """Cumulative import time of ``unml`` and ``unml.verify`` from -X importtime."""
    samples = {"import.unml_s": [], "import.unml.verify_s": []}
    for _ in range(IMPORTTIME_REPEATS):
        cumulative = {}
        for line in fresh_import(("-X", "importtime"))[1].splitlines():
            match = _IMPORTTIME.match(line)
            if match:
                cumulative[match.group(2)] = int(match.group(1)) * 1e-6
        samples["import.unml_s"].append(cumulative["unml"])
        # 0 once verify is no longer imported by ``import unml.cli``
        samples["import.unml.verify_s"].append(cumulative.get("unml.verify", 0.0))
    return {key: statistics.median(vals) for key, vals in samples.items()}


class Timed(NamedTuple):
    """Per-operation times of one loop: wall seconds, and seconds at nominal speed."""

    wall: list
    ref: list


class Client:
    """One closed-loop client driving ``unml.cli.main`` in this process."""

    def __init__(self, wl: gen.Workload, seed: int, workdir: Path):
        import unml.cli

        self.wl = wl
        self.seed = seed
        self.csv = str(workdir / "input.csv")
        self.report = str(workdir / "report.json")
        self.main = unml.cli.main
        self.validator = refcheck.load_validator(ROOT)
        self.calibration = calib.Calibration()
        self.calibration.kernel()   # untimed: first-call costs
        self.next_index = -1   # -1 is the untimed warm-up
        self.attempted = 0
        self.failed = 0
        self.selects = 0
        self.k_matches = 0

    def one(self, main) -> float:
        """Prepare, run and check the next operation; returns its wall time."""
        index = self.next_index
        self.next_index += 1
        op = gen.prepare(self.wl, self.seed, index, self.csv, self.report)
        self.attempted += 1
        if os.path.exists(self.report):
            os.remove(self.report)
        report = None
        t0 = perf_counter()
        try:
            code = main(op.argv)
        except SystemExit as exc:   # argparse rejected the argv
            code = exc.code
        except Exception as exc:  # a failing operation is counted, not fatal
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        if code != 0:
            fails = [f"exit {code}"]
        else:
            try:
                with open(self.report, encoding="utf-8") as fh:
                    report = json.load(fh)
                fails = refcheck.check_report(self.validator, report, op.data)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                fails = [f"unreadable report: {type(exc).__name__}: {exc}"]
        if fails:
            self.failed += 1
            print(f"op {index} failed: {'; '.join(fails)}", file=sys.stderr)
        if op.planted_k and report is not None:
            self.selects += 1
            self.k_matches += int(report["selected_k"] == op.planted_k)
        return elapsed

    def loop(self, seconds: float, main=None) -> Timed:
        """Run operations until their summed wall time reaches ``seconds``.

        A calibration kernel runs before the first operation and after each.
        """
        main = main or self.main
        wall = []
        cal = [self.calibration.kernel()]
        wall0 = perf_counter()
        while sum(wall) < seconds and perf_counter() - wall0 < WALL_FACTOR * seconds:
            wall.append(self.one(main))
            cal.append(self.calibration.kernel())
        return Timed(wall, calib.at_nominal_speed(wall, cal))


def tail_percentile(times: list) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it, above p50."""
    pct = int(100 * (1 - 10 / len(times)))
    if pct <= 50:
        return None
    return pct, float(np.percentile(times, pct))


def summarize(name: str, timed: Timed) -> list:
    wall, ref = timed
    lines = []
    for kind, times in (("wall", wall), ("nominal-speed", ref)):
        line = f"{name}, {kind}: p50 {statistics.median(times):.4f} s over {len(times)} ops"
        tail = tail_percentile(times)
        line += f", p{tail[0]} {tail[1]:.4f} s" if tail else \
            " (no tail percentile: fewer than ten samples beyond any above p50)"
        lines.append(line)
    lines.append(f"{name}: ops_per_s {len(wall) / sum(wall):.4f} 1/s wall, "
                 f"ref_ops_per_s {len(ref) / sum(ref):.4f} 1/s at nominal speed; "
                 f"machine ran at {sum(ref) / sum(wall):.3f} of nominal speed")
    return lines


def run(args) -> dict:
    wl = gen.WORKLOADS[args.workload]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    OUT.mkdir(exist_ok=True)
    lines = [f"workload {wl.name}, seed {args.seed}: closed loop, 1 client, "
             f"in-process unml.cli.main, {args.seconds} s timed",
             f"python {sys.version.split()[0]}, numpy {np.__version__}, "
             f"scipy {scipy.__version__}, BLAS {blas['name']} {blas['version']}, "
             f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, "
             f"cpus {len(os.sched_getaffinity(0))}"]
    setup_wall, setup_s = measure_setup()
    lines.append(f"setup: median of {SETUP_REPEATS} fresh 'import unml.cli': "
                 f"{setup_wall:.4f} s wall, setup_s {setup_s:.4f} s at nominal speed")
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        client = Client(wl, args.seed, Path(workdir))
        client.one(client.main)
        if args.trace:
            untraced = client.loop(args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced_main = tracer.wrap(spans.ROOT, client.main)

                def main(argv):
                    tracer.op = client.next_index - 1
                    return traced_main(argv)

                traced = client.loop(args.seconds / 2, main)
            finally:
                tracer.uninstall()
        else:
            untraced = client.loop(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lines += summarize("op (untraced)", untraced)
    ref_ops_per_s = len(untraced.ref) / sum(untraced.ref)
    lines.append(f"peak_rss_mb: {peak_rss_mb:.1f} MB")
    lines.append(f"error_rate: {client.failed / client.attempted:.4f} "
                 f"({client.failed}/{client.attempted} ops failed)")
    if client.selects:
        lines.append(f"k_match_frac: {client.k_matches / client.selects:.4f} "
                     f"({client.k_matches}/{client.selects} selects chose the planted K)")

    if args.trace:
        lines += summarize("op (traced)", traced)
        layers = spans.layer_metrics(tracer, len(traced.wall))
        layers.update(measure_import_layers())
        layers["trace.overhead_frac"] = \
            statistics.median(traced.ref) / statistics.median(untraced.ref) - 1
        span_file = OUT / f"spans-{wl.name}.csv"
        tracer.write(span_file)
        lines.append(f"{len(tracer.spans)} spans written to {span_file}")
        _, total, self_s = tracer.layer_totals()
        shares = sorted(((v / total[spans.ROOT], k) for k, v in self_s.items()), reverse=True)
        lines.append("largest self-time shares of traced ops: "
                     + ", ".join(f"{k} {share:.0%}" for share, k in shares[:4]))
        values = layers
    else:
        values = {"setup_s": setup_s, "ref_ops_per_s": ref_ops_per_s,
                  "peak_rss_mb": peak_rss_mb}
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    if args.trace:
        width = max(map(len, metrics))
        lines += [f"  {k:<{width}} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    print("\n".join(lines))
    return {"correct": client.failed == 0, "attempted": client.attempted,
            "failed": client.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "unml" / "cli.py").is_file():
        print(f"error: no unml sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
