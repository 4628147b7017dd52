"""modgeod benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload enumerate --seed 1 --seconds 25 --trace 0

Workloads: enumerate, audit, counts, verify (see ``workloads.WHY``).  Every
pass runs the workload's op list through ``modgeod.cli.main`` in a fresh
interpreter, one op after another (a closed loop with one client), and checks
every op's output.  With ``--trace 0`` the run repeats passes for about
``--seconds`` seconds and reports the end-to-end metrics; with ``--trace 1``
it makes one untraced and one traced pass (plus, for verify, one serial run
of every check) and reports the per-layer metrics.

Times in the contract line are reference seconds: measured seconds scaled by
a calibration loop timed next to short ops and by a sampler process during
long ones (see ``calibrate``), so that the host's speed drift between runs
cancels.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it are a
readable summary and a JSON report with everything measured, which is also
written to ``.bench_out/`` in the repository root.  The run exits 2, printing
no result, when the repository's ``src/modgeod`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 9
SETUP_ARGV = ["-m", "modgeod", "count", "--family", "classes", "--t", "1"]
RUN_LIMIT_S = 170  # every child is killed before the run can reach 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "enumeration.self_s": "s",
    "enumeration.words_scanned": "count",
    "enumeration.classes_kept": "count",
    **{f"binwords.{k}.{m}": u for k in ("min_rotation", "smallest_period", "max_cyclic_run",
                                        "mirror", "word_api")
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "counting.self_s": "s",
    "counting.bounded_compositions.calls": "count",
    "counting.bounded_compositions.self_s": "s",
    "counting.alpha.calls": "count",
    "counting.alpha.misses": "count",
    "counting.alpha.self_s": "s",
    "counting.necklace.calls": "count",
    "counting.primitive.calls": "count",
    "geometry.self_s": "s",
    "geometry.encode.calls": "count",
    "geometry.encode.self_s": "s",
    "geometry.matmul.calls": "count",
    "geometry.bfs.calls": "count",
    "geometry.bfs.self_s": "s",
    "geometry.max_depth.calls": "count",
    "verify.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}
UNITS = {**END_TO_END, **PER_LAYER}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child(argv: list[str], deadline: float) -> tuple[str, float]:
    """Run a child interpreter to completion; return its stdout and wall time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv[:3]} exceeded the run's time limit") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"child {argv[:3]} exited {proc.returncode}")
    return proc.stdout, wall


def _worker(workload: str, seed: int, mode: str, deadline: float, out_dir: Path) -> dict:
    """Run one pass with the calibration sampler beside it; scale each op's time."""
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = [str(BENCH / "worker.py"), "--src", str(SRC), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--out", str(out_dir)]
    sampler = subprocess.Popen([sys.executable, str(BENCH / "calibrate.py")], cwd=ROOT,
                               stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        out, wall = _child(argv, deadline)
    finally:
        sampler.kill()
        lines = sampler.communicate()[0].splitlines()
    samples = []
    for ln in lines:  # the last line may be cut short by the kill
        try:
            t, d = map(float, ln.split())
        except ValueError:
            continue
        samples.append((t, d))
    result = json.loads(out)
    result["process_s"] = wall
    for op in result.get("ops", []):
        end = op["start"] + op["latency_s"]
        during = [d for t, d in samples if op["start"] <= t <= end]
        edges = op.pop("loops")
        op["scale"] = calibrate.scale(during if len(during) >= calibrate.MIN_DURING else edges)
    return result


def _check_passes(ops: list[dict], passes: list[dict]) -> None:
    """Check every op of every pass, adding status, detail, rows and bytes to it.

    The first pass is checked in full.  A later pass whose op printed the
    same bytes and ended the same way takes the first pass's verdict, since
    the CLI's output is deterministic for a fixed argv; anything else is
    checked in full again.
    """
    first: list[tuple] = []
    for k, p in enumerate(passes):
        for i, (op, res) in enumerate(zip(ops, p["ops"])):
            data = Path(res.pop("stdout")).read_bytes()
            key = (hashlib.sha256(data).hexdigest(), res["rc"], res["exc"] and res["exc"][0])
            if k and first[i][0] == key:
                verdict = first[i][1]
            else:
                verdict = checks.check(op, res["rc"], data.decode("utf-8", "replace"), res["exc"],
                                       p["registered_checks"])
            if not k:
                first.append((key, verdict))
            res["status"], res["detail"], res["rows"] = verdict
            res["kind"], res["argv"], res["stdout_bytes"] = op["kind"], op["argv"], len(data)


def _setup_times(deadline: float) -> list[tuple[float, float]]:
    """(seconds, scale) of each set-up probe; see ``calibrate``."""
    probes, loop = [], calibrate.loop_time()
    for _ in range(SETUP_PROBES):
        out, wall = _child(SETUP_ARGV, deadline)
        if out != "2\n":
            raise BenchError(f"set-up probe printed {out!r}, expected '2'")
        before, loop = loop, calibrate.loop_time()
        probes.append((wall, calibrate.scale([before, loop])))
    return probes


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    """Identifies the measured code where no git metadata is available."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "modgeod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _environment(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),  # the default --threads of verify and audit-lemma71
        "seed": seed,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": workload,
        "why": workloads.WHY[workload],
    }


# ---------------------------------------------------------------------------
# end-to-end figures


def _tail(samples: list[float]) -> dict | None:
    """The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples above it."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            value = ordered[min(n - 1, int(pct / 100 * n))]
            return {"percentile": pct, "value_ms": value * 1e3, "samples": n}
    return None


def _pass_summary(passes: list[dict], untraced: list[dict]) -> dict:
    """Outcome counts over ``passes``; latency figures, in reference seconds,
    from ``untraced`` only."""
    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    not_ok = sum(op["status"] != "ok" for op in ops)
    queries = [op["latency_s"] * op["scale"] for p in untraced for op in p["ops"]
               if op["kind"] == "query"]
    rates = [sum(op["rows"] for op in p["ops"])
             / sum(op["latency_s"] * op["scale"] for op in p["ops"]) for p in untraced]
    return {
        "attempted": attempted,
        "failed": sum(op["status"] == "bad" for op in ops),
        "known_failures": sum(op["status"] == "known-failure" for op in ops),
        "ops_failed_frac": not_ok / attempted,
        "query_ops_per_pass": sum(op["kind"] == "query" for op in passes[0]["ops"]),
        "batch_ops_per_pass": sum(op["kind"] == "batch" for op in passes[0]["ops"]),
        "query_p50_ms": statistics.median(queries) * 1e3 if queries else None,
        "query_tail": _tail(queries),
        "classes_per_s": statistics.median(rates) if any(rates) else None,
        "bad_ops": [{"argv": op["argv"], "detail": op["detail"]}
                    for op in ops if op["status"] == "bad"][:10],
    }


def timed_run(workload: str, seed: int, seconds: int, deadline: float,
              scratch: Path) -> tuple[dict, dict]:
    setup = _setup_times(deadline)
    passes, start = [], time.perf_counter()
    while True:
        passes.append(_worker(workload, seed, "pass", deadline, scratch / f"pass{len(passes)}"))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["process_s"] for p in passes)
        # stop unless the next pass should end within half a pass of the window
        if elapsed + typical > seconds + typical / 2:
            break
    _check_passes(workloads.ops_for(workload, seed), passes)
    # a pass made of each op's median latency over the run's passes: steadier
    # than the median pass when the host's speed drifts within a pass
    def median_pass(scaled: bool) -> float:
        return sum(statistics.median(p["ops"][i]["latency_s"] * (p["ops"][i]["scale"] if scaled else 1)
                                     for p in passes)
                   for i in range(len(passes[0]["ops"])))

    metrics = {
        "setup_s": statistics.median(wall * k for wall, k in setup),
        "wall_s": median_pass(scaled=True),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    report = {
        "passes": len(passes),
        "raw_wall_s": median_pass(scaled=False),
        "raw_setup_s": statistics.median(wall for wall, _ in setup),
        "raw_pass_wall_s": [p["wall_s"] for p in passes],
        "median_scale": statistics.median(op["scale"] for p in passes for op in p["ops"]),
        **_pass_summary(passes, passes),
    }
    return metrics, report


# ---------------------------------------------------------------------------
# per-layer figures


def _layer_metrics(trace: dict, alpha_misses, stdout_bytes: int) -> dict:
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    for c in trace["counters"]:
        calls[c["name"]] = calls.get(c["name"], 0) + c["calls"]
        own[c["name"]] = own.get(c["name"], 0.0) + c["self_s"]
    kept = 0
    for s in trace["spans"]:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        own[s["name"]] = own.get(s["name"], 0.0) + s["self_s"]
        if s["name"] in ("enumeration.classes", "enumeration.reciprocal_classes"):
            kept += s["items"]

    absent = set(trace["absent"])
    present_groups = {g for t, g, _ in tracer.TARGETS if t not in absent}

    def layer_self(layer: str) -> float:
        return sum((v for g, v in own.items() if g.split(".")[0] == layer), 0.0)

    out: dict[str, float] = {"cli.stdout_bytes": stdout_bytes}
    for layer in ("cli", "enumeration", "counting", "geometry", "verify", "binwords"):
        out[f"{layer}.self_s"] = layer_self(layer)
    groups = {
        "binwords.min_rotation": ("calls", "self_s"),
        "binwords.smallest_period": ("calls", "self_s"),
        "binwords.max_cyclic_run": ("calls", "self_s"),
        "binwords.mirror": ("calls", "self_s"),
        "binwords.word_api": ("calls", "self_s"),
        "counting.bounded_compositions": ("calls", "self_s"),
        "counting.alpha": ("calls", "self_s"),
        "counting.necklace": ("calls",),
        "counting.primitive": ("calls",),
        "geometry.encode": ("calls", "self_s"),
        "geometry.matmul": ("calls",),
        "geometry.bfs": ("calls", "self_s"),
        "geometry.max_depth": ("calls",),
    }
    for group, fields in groups.items():
        if group not in present_groups:
            continue  # the wrapped attribute no longer exists: report nothing
        if "calls" in fields:
            out[f"{group}.calls"] = calls.get(group, 0)
        if "self_s" in fields:
            out[f"{group}.self_s"] = own.get(group, 0.0)
    if alpha_misses is not None and "counting.alpha" in present_groups:
        out["counting.alpha.misses"] = alpha_misses

    scan_targets = [t for t in tracer.SCAN_TARGETS if t not in absent]
    if scan_targets:
        scanned = sum(trace["target_calls"].get(t, 0) for t in scan_targets)
        out["enumeration.words_scanned"] = scanned
        if scanned:
            out["enumeration.keep_ratio"] = kept / scanned
    if {"enumeration.classes", "enumeration.reciprocal_classes"} & present_groups:
        out["enumeration.classes_kept"] = kept
    return out


def traced_run(workload: str, seed: int, deadline: float, scratch: Path) -> tuple[dict, dict]:
    plain = _worker(workload, seed, "pass", deadline, scratch / "plain")
    traced = _worker(workload, seed, "traced", deadline, scratch / "traced")
    passes = [plain, traced]
    _check_passes(workloads.ops_for(workload, seed), passes)
    trace = traced["trace"]
    stdout_bytes = sum(op["stdout_bytes"] for op in traced["ops"])
    layers = _layer_metrics(trace, traced["alpha_misses"], stdout_bytes)
    layers["trace.untraced_wall_s"] = plain["wall_s"]
    layers["trace.traced_wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    serial_failures: list[str] = []
    # the serial checks take about as long as the plain pass; leave them out
    # (reported absent) rather than run past the time limit
    if workload == "verify" and deadline - time.monotonic() > 1.5 * plain["process_s"]:
        serial = _worker(workload, seed, "serial-checks", deadline, scratch / "serial")["checks"]
        serial_failures = [c["name"] for c in serial if not c["ok"]]
        for c in serial:
            layers[f"verify.{c['name']}.s"] = c["s"]
        layers["verify.checks_serial_s"] = sum(c["s"] for c in serial)
        layers["verify.schedule_overhead_s"] = plain["wall_s"] - layers["verify.checks_serial_s"]
    metrics = {k: layers[k] for k in PER_LAYER if k in layers}
    summary = _pass_summary(passes, [plain])
    summary["failed"] += len(serial_failures)
    summary["bad_ops"] += [{"argv": ["serial check"], "detail": f"{name} failed"}
                           for name in serial_failures]
    report = {
        "layers": layers,
        "absent_targets": trace["absent"],
        "counters": trace["counters"],
        "span_count": len(trace["spans"]),
        "spans_by_name": _span_totals(trace["spans"]),
        **summary,
    }
    return metrics, report


def _span_totals(spans: list[dict]) -> dict:
    totals: dict[str, dict] = {}
    for s in spans:
        t = totals.setdefault(s["name"], {"count": 0, "busy_s": 0.0, "self_s": 0.0})
        t["count"] += 1
        t["busy_s"] += s["busy_s"]
        t["self_s"] += s["self_s"]
    return totals


# ---------------------------------------------------------------------------


def _print_summary(workload: str, trace: int, metrics: dict, report: dict) -> None:
    print(f"# modgeod benchmark: workload={workload} trace={trace}")
    print(f"# why: {workloads.WHY[workload]}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    if trace == 0:
        tail = report["query_tail"]
        extra = {
            "classes_per_s": (report["classes_per_s"], "1/s"),
            "query_p50_ms": (report["query_p50_ms"], "ms"),
            "query_tail_ms": (tail and tail["value_ms"], "ms"),
            "ops_failed_frac": (report["ops_failed_frac"], "ratio"),
        }
        for name, (value, unit) in extra.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name} = {shown} {unit}")
        if tail:
            print(f"# query tail is p{tail['percentile']:g} of {tail['samples']} query samples")
        print(f"# times are reference seconds; measured: wall {report['raw_wall_s']:.6g} s, "
              f"set-up {report['raw_setup_s']:.6g} s, median scale {report['median_scale']:.4g}")
        print(f"# {report['passes']} passes; {report['query_ops_per_pass']} query and "
              f"{report['batch_ops_per_pass']} batch ops per pass; "
              f"{report['known_failures']} known-failing ops")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="modgeod benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "modgeod" / "cli.py").is_file():
        print(f"bench: no modgeod sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = OUT / f"ops-{os.getpid()}"
    try:
        if args.trace:
            metrics, report = traced_run(args.workload, args.seed, deadline, scratch)
        else:
            metrics, report = timed_run(args.workload, args.seed, args.seconds, deadline, scratch)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = {"environment": _environment(args.workload, args.seed), "metrics": metrics,
              **report}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(report, indent=1))
    _print_summary(args.workload, args.trace, metrics, report)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
