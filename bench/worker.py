"""One benchmark pass in a fresh interpreter; prints a JSON result on stdout.

Usage: python3 bench/worker.py --src SRC --workload W --seed N --mode MODE --out DIR

MODE is "pass" (ops untraced), "traced" (ops with the layer tracer on) or
"serial-checks" (each registered verify check called once, one at a time).
Each op's argv goes to ``modgeod.cli.main`` in this process, so the
``lru_cache``s start cold and warm up over the pass as they would in one
library session.  An op's stdout goes to its own file in DIR, as a CLI
user's would go to a file or pipe; the parent process checks those files
after the pass, so neither the checks nor the outputs sit in this process's
time or memory.  The calibration loop runs before the first op and after
every op, outside the timed regions; each op reports the loop times next to
it (see ``calibrate``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import calibrate


def _import_cli(src: Path):
    sys.path.insert(0, str(src))
    import modgeod.cli

    where = Path(modgeod.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"modgeod was imported from {where}, not from {src}")
    return modgeod.cli


def _registered_checks():
    from modgeod import verify

    return [check for suite in verify.SUITES.values() for check in suite]


def _run_ops(cli, ops: list[dict], out_dir: Path, tracer=None) -> dict:
    if tracer is not None:
        tracer.install()
    main = cli.main  # looked up after install, so the traced wrapper when tracing
    results = []
    loop = calibrate.loop_time()
    try:
        for i, op in enumerate(ops):
            path = out_dir / f"op-{i:03d}.out"
            rc, exc = None, None
            with open(path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    rc = main(list(op["argv"]))
                except Exception as raised:  # an op that raises is a result, not a crash
                    exc = [type(raised).__name__, str(raised)]
                latency = time.perf_counter() - t0
            before, loop = loop, calibrate.loop_time()
            results.append({"rc": rc, "exc": exc, "latency_s": latency, "stdout": str(path),
                            "start": t0, "loops": [before, loop]})
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "wall_s": sum(r["latency_s"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": results,
        "registered_checks": len(_registered_checks()),
    }


def _alpha_misses():
    cached = getattr(sys.modules["modgeod.counting"], "_alpha_cached", None)
    return cached.cache_info().misses if hasattr(cached, "cache_info") else None


def _serial_checks() -> dict:
    rows = []
    for check in _registered_checks():
        t0 = time.perf_counter()
        result = check()
        rows.append({"name": result.name, "ok": result.ok, "s": time.perf_counter() - t0})
    return {"checks": rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "traced", "serial-checks"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    cli = _import_cli(args.src)
    if args.mode == "serial-checks":
        result = _serial_checks()
    else:
        import workloads

        ops = workloads.ops_for(args.workload, args.seed)
        if args.mode == "traced":
            import tracer

            t = tracer.Tracer()
            result = _run_ops(cli, ops, args.out, t)
            result["trace"] = t.report()
            result["alpha_misses"] = _alpha_misses()
        else:
            result = _run_ops(cli, ops, args.out)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
