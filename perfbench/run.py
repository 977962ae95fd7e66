"""sgfl benchmark: cross-validated decisions, end to end and by layer.

Run from the repository root:

    python3 perfbench/run.py --workload kunz_scan --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  Each run first checks the
bundled paper examples in-process (27 rows must pass), measures set-up
time as the median of several fresh interpreters importing ``sgfl`` and
``sgfl.cli``, then runs the workload in a fresh worker process (see
worker.py).  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass, whose spans go to ``perfbench/out/``.  A disagreement between
two routes, or a failing paper example, ends the run with exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOADS = ("numerical_corpus", "kunz_scan", "affine_analyze")
PAPER_EXAMPLES = 27
SETUP_LAUNCHES = 9
# The worker may run past --seconds to finish its last block of items.
WORKER_MARGIN_S = 140

# Each per-layer metric and the end-to-end metric it should move, with the
# workload where it should show and where it should not.
PAIRINGS = (
    ("lengths.shortest_length.self_s, budget.nodes.lengths",
     "items_per_s on kunz_scan; item_p90_ms on numerical_corpus; "
     "none on affine_analyze"),
    ("lengths.longest_length.self_s",
     "items_per_s on numerical_corpus; little on kunz_scan"),
    ("verdicts.oracle_scan.self_s",
     "items_per_s on numerical_corpus; none on kunz_scan, affine_analyze"),
    ("minrepl.min_repl.affine.self_s, budget.nodes.minrepl, "
     "minrepl.min_repl.repeat_share",
     "items_per_s and item_p90_ms on affine_analyze"),
    ("minrepl.min_repl.numerical.self_s",
     "items_per_s on numerical_corpus and kunz_scan"),
    ("kunz.*.self_s",
     "items_per_s on kunz_scan; none elsewhere"),
    ("semigroups.divides.self_s, semigroups.new_semigroup.self_s, "
     "semigroups.minimal_generating_subset.self_s",
     "items_per_s on kunz_scan"),
    ("semigroups.contains.self_s",
     "no end-to-end metric beyond noise on any workload"),
    ("cli.main.self_s",
     "item_p50_ms on numerical_corpus; none on kunz_scan"),
    ("*.repeat_share, minrepl.min_repl.vectors, "
     "verdicts.check_formula.targets, verdicts.oracle_scan.checked",
     "work counts: less work told apart from faster work"),
)


def fail(message, code=2):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(code)


def check_source_tree():
    """Import sgfl from this checkout's src/, refusing any other copy."""
    if not (SRC / "sgfl" / "__init__.py").is_file():
        fail(f"no sgfl source tree at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import sgfl

    if Path(sgfl.__file__).resolve().parent != SRC / "sgfl":
        fail(f"imported sgfl from {sgfl.__file__}, not from {SRC}")


def paper_examples_gate():
    """Run `sgfl paper-examples` in-process; the (passed, failed, errored)."""
    from sgfl import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["paper-examples", "--output", "json"])
    rows = json.loads(out.getvalue())["result"] if out.getvalue() else []
    counts = tuple(
        sum(r["status"] == status for r in rows)
        for status in ("pass", "fail", "error")
    )
    return code, counts


def measure_setup():
    """Median seconds for a fresh interpreter to import sgfl and sgfl.cli."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import sgfl, sgfl.cli"
    )
    samples = []
    for _ in range(SETUP_LAUNCHES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def run_worker(workload, seed, seconds, trace):
    timeout = seconds + WORKER_MARGIN_S
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload}: worker did not finish within {timeout:g} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: worker exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result.get("correct"):
        fail(f"{workload}: {result.get('error', 'worker failed')}", code=1)
    return result


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(workload, seed, seconds, trace, result):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "items": result["items"],
        "digest": result["digest"],
        "digest_items": result["digest_items"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


def baseline(workload):
    """The recorded numbers of the first measured commit, if present."""
    path = HERE / "baseline.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    return {"commit": data["commit"], "metrics": data["workloads"].get(workload)}


def run_workload(workload, seed, seconds, trace):
    code, (passed, failed, errored) = paper_examples_gate()
    print(f"paper-examples: {passed} passed, {failed} failed, {errored} errored")
    if code != 0 or (passed, failed, errored) != (PAPER_EXAMPLES, 0, 0):
        fail("the paper-examples gate failed", code=1)

    if trace:
        result = run_worker(workload, seed, seconds, trace=1)
        metrics = result.pop("per_layer")
    else:
        setup_s = measure_setup()
        result = run_worker(workload, seed, seconds, trace=0)
        metrics = {
            "items_per_s": {"value": result["items_per_s"], "unit": "items/s"},
            "item_p50_ms": {"value": result["item_p50_ms"], "unit": "ms"},
            "item_p90_ms": {"value": result["item_p90_ms"], "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    meta = metadata(workload, seed, seconds, trace, result)
    failed_share = result["failed"] / result["items"]
    print(f"workload {workload}  seed {seed}  items {result['items']}  "
          f"failed_share {failed_share:.4f} ratio")
    print(f"digest {result['digest']} over the first {result['digest_items']} items")
    if trace:
        print_layers(metrics, result)
    else:
        for name, m in metrics.items():
            print(f"  {name:<14} {m['value']:>12.4f} {m['unit']}")
    record = {
        "meta": meta,
        "failed_share": failed_share,
        "metrics": metrics,
        "detail": {
            k: result[k]
            for k in ("blocks", "items_per_s_overall", "item_max_ms", "spans")
            if k in result
        },
        "counts": result.get("counts"),
        "baseline": baseline(workload),
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"meta": meta}))
    return {
        "correct": True,
        "attempted": result["items"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_layers(metrics, result):
    """The per-layer self-time table, the counters and the pairings."""
    busy = metrics["trace.busy_s"]["value"]
    print(f"traced spans {result['spans']} written to {result['spans_file']}")
    print(f"traced pass: {busy:.4f} s over {result['items']} items")
    print(f"  {'span':<36} {'calls':>9} {'self_s':>9} {'total_s':>9} {'self %':>7}")
    spans = [name[:-len(".self_s")] for name in metrics if name.endswith(".self_s")]
    for name in sorted(spans, key=lambda n: -metrics[n + ".self_s"]["value"]):
        self_s = metrics[name + ".self_s"]["value"]
        print(f"  {name:<36} {metrics[name + '.calls']['value']:>9} "
              f"{self_s:>9.4f} {metrics[name + '.total_s']['value']:>9.4f} "
              f"{100 * self_s / busy:>6.1f}%")
    for name, m in metrics.items():
        if not name.endswith((".calls", ".self_s", ".total_s")):
            value = m["value"]
            shown = f"{value:>14}" if m["unit"] == "count" else f"{value:>14.4f}"
            print(f"  {name:<44} {shown} {m['unit']}")
    print("pairings (per-layer metric -> end-to-end metric it should move):")
    for layer, target in PAIRINGS:
        print(f"  {layer}\n      -> {target}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_source_tree()
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        w: run_workload(w, args.seed, args.seconds, args.trace) for w in chosen
    }
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
