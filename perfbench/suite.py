#!/usr/bin/env python3
"""Runs the whole benchmark into results files, and compares two of them.

    python3 perfbench/suite.py run --out RESULTS.json [--seeds 1-10] [--trace]
                                   [--workloads a,b]
    python3 perfbench/suite.py pair BASE_ROOT CHANGE_ROOT --out PREFIX
                                    [--seeds 1-10] [--workloads a,b]
    python3 perfbench/suite.py compare BASE.json CHANGE.json

`run` invokes BENCHMARK.json's command once per workload and seed (and,
with --trace, once more traced), prints every end-to-end metric of every
workload by name and unit with failed/attempted runs, and writes the
samples, their order statistics and the host's provenance to RESULTS.json.

`pair` measures two checkouts of the repository (each holding the same
benchmark files) seed by seed, switching which side runs first on every
seed, and writes PREFIX.base.json and PREFIX.change.json, then compares
them. Only results paired this way can show a gain: this host's speed
drifts over minutes, so two `run`s taken one after the other cannot.

`compare` classifies each workload x end-to-end metric of CHANGE against
BASE as improved, regressed, unchanged or unresolved, by the metric's
bound in BENCHMARK.json and the paired-runs rule (runs pair by seed). It
exits 1 when a metric regressed or CHANGE failed a larger share of runs,
and 2 when the two files cannot be compared (different run lengths).
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A gain needs at least this many seed-paired runs, won this often.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_benchmark(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def benchmark_digest(root):
    """A hash of BENCHMARK.json and every file under its paths: two
    checkouts measured against each other must agree on it."""
    h = hashlib.sha256()
    bench = load_benchmark(root)
    files = ["BENCHMARK.json"]
    for top in bench["paths"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "results", "__pycache__"))
            files += sorted(os.path.relpath(os.path.join(dirpath, f), root) for f in filenames)
    for rel in files:
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def parse_seeds(text):
    """'1-10' or '1,5,9' -> a list of seeds."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def order_stats(values):
    """Median, quartiles, range and count; spread is the quartile
    distance as a share of the median."""
    vals = sorted(values)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    med = statistics.median(vals)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "min": vals[0],
        "max": vals[-1],
        "n": len(vals),
        "spread": (q3 - q1) / med if med else 0.0,
    }


def git_commit(root=ROOT):
    """The checked-out commit, read from .git without running git (the
    benchmark may run from an export that is not a repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(bench, workload, seed, trace, root=ROOT, env=None):
    """One benchmark invocation: (result line, detail line) or a failure."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(int(trace)),
    ]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and len(lines) >= 2:
            return json.loads(lines[-1]), json.loads(lines[-2])
        sys.stderr.write(proc.stderr[-2000:])
    except (subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        sys.stderr.write(f"{workload} seed {seed}: {e}\n")
    return None, None


def new_results(bench, seeds, root=ROOT):
    return {
        "provenance": {
            "available_parallelism": None,
            "cpu_model": cpu_model(),
            "rustc": rustc_version(),
            "git_commit": git_commit(root),
            "seeds": seeds,
            "runs_per_workload": len(seeds),
            "run_seconds": bench["run_seconds"],
            "legs_per_run": {},
            "pairing": None,
        },
        "workloads": {},
    }


def record(results, name, seed, trace, line, detail, started):
    """Adds one invocation's result, started at wall-clock time
    `started`, to the workload's entry."""
    entry = results["workloads"].setdefault(
        name, {"attempted": 0, "failed": 0, "runs": [], "metrics": {}, "per_layer": {}})
    if line is None:
        entry["attempted"] += 1
        entry["failed"] += 1
        return
    entry["attempted"] += line["attempted"]
    entry["failed"] += line["failed"]
    prov = results["provenance"]
    prov["available_parallelism"] = detail.get("available_parallelism")
    prov["legs_per_run"].setdefault(f"{name}/trace{int(trace)}", []).append(detail.get("legs"))
    values = {k: v["value"] for k, v in line["metrics"].items()}
    run = {"seed": seed, "correct": line["correct"], "started": started, "metrics": values}
    entry.setdefault("trace_runs" if trace else "runs", []).append(run)
    print(f"  {name} seed {seed} trace {int(trace)}: correct={line['correct']} "
          f"failed {line['failed']}/{line['attempted']}", file=sys.stderr)


def summarise(results, bench):
    """Order statistics of every workload's samples."""
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    for entry in results["workloads"].values():
        for metric in e2e:
            samples = [r["metrics"][metric] for r in entry["runs"] if metric in r["metrics"]]
            if samples:
                entry["metrics"][metric] = dict(order_stats(samples), unit=e2e[metric]["unit"],
                                                better=e2e[metric]["better"], samples=samples)
        layer = {}
        for run in entry.get("trace_runs", []):
            for k, v in run["metrics"].items():
                layer.setdefault(k, []).append(v)
        entry["per_layer"] = {k: order_stats(v) for k, v in layer.items()}


def write(results, path):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")


def workload_names(bench, text):
    return text.split(",") if text else [w["name"] for w in bench["workloads"]]


def cmd_run(args):
    bench = load_benchmark()
    seeds = parse_seeds(args.seeds)
    results = new_results(bench, seeds)
    for name in workload_names(bench, args.workloads):
        for trace in ([False, True] if args.trace else [False]):
            for seed in seeds:
                started = time.time()
                line, detail = run_once(bench, name, seed, trace)
                record(results, name, seed, trace, line, detail, started)
    summarise(results, bench)
    write(results, args.out)
    print_results(results, bench)
    return 0 if all(w["failed"] == 0 for w in results["workloads"].values()) else 1


def pair_order(seeds):
    """(seed, sides in run order) for each seed: the side that runs
    first alternates from seed to seed."""
    return [(seed, ("base", "change") if i % 2 == 0 else ("change", "base"))
            for i, seed in enumerate(seeds)]


def cmd_pair(args):
    roots = {"base": os.path.abspath(args.base_root), "change": os.path.abspath(args.change_root)}
    digests = {side: benchmark_digest(root) for side, root in roots.items()}
    if digests["base"] != digests["change"]:
        print("error: the two checkouts hold different benchmark files; measure both "
              "with identical benchmark code", file=sys.stderr)
        return 2
    bench = load_benchmark(roots["base"])
    seeds = parse_seeds(args.seeds)
    pairing = {"id": f"{time.time():.6f}-{digests['base'][:12]}", "order": {}}
    results = {side: new_results(bench, seeds, root) for side, root in roots.items()}
    for side in results:
        results[side]["provenance"]["pairing"] = pairing
    # Each checkout builds into its own target directory, so alternating
    # sides never rebuilds.
    envs = {side: dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
            for side, root in roots.items()}
    for name in workload_names(bench, args.workloads):
        for seed, order in pair_order(seeds):
            pairing["order"][f"{name}/{seed}"] = order[0]
            for side in order:
                started = time.time()
                line, detail = run_once(bench, name, seed, False, roots[side], envs[side])
                record(results[side], name, seed, False, line, detail, started)
    for side, res in results.items():
        summarise(res, bench)
        write(res, f"{args.out}.{side}.json")
        print(f"== {side}: {roots[side]}")
        print_results(res, bench)
    print(f"== compare ({args.out}.base.json -> {args.out}.change.json)")
    return report_compare(results["base"], results["change"], bench)


def print_results(results, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':16} {'metric':12} {'unit':5} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'n':>3}  failed/attempted")
    for name, w in results["workloads"].items():
        for metric, s in w["metrics"].items():
            print(f"{name:16} {metric:12} {s['unit']:5} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.3f} {bounds[metric]:6.2f} {s['n']:3}  "
                  f"{w['failed']}/{w['attempted']}")


def classify(base, change, better, bound, paired):
    """One workload x metric: base and change map seed -> value. Only
    interleaved pairs (`paired`) can show a gain."""
    sign = 1.0 if better == "higher" else -1.0
    a, b = list(base.values()), list(change.values())
    sa, sb = order_stats(a), order_stats(b)
    gain = sign * (sb["median"] - sa["median"])
    if -gain > bound * abs(sa["median"]):
        return "regressed"
    pairs = [(base[s], change[s]) for s in base if s in change]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (paired and len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > sa["q3"] - sa["q1"]):
        return "improved"
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if max(sa["spread"], sb["spread"]) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def failed_share(w):
    return w["failed"] / w["attempted"] if w["attempted"] else 1.0


def is_paired(base, change):
    """Whether the two files come from one `pair` invocation, which
    alternated the sides seed by seed."""
    pa = base.get("provenance", {}).get("pairing")
    pb = change.get("provenance", {}).get("pairing")
    return bool(pa) and pa == pb


def compare(base, change, bench):
    """Rows of (workload, metric, verdict, base median, change median)
    and whether the change is acceptable."""
    rows, ok = [], True
    paired = is_paired(base, change)
    for name, bw in base["workloads"].items():
        cw = change["workloads"].get(name)
        if cw is None:
            rows.append((name, "-", "missing", None, None))
            ok = False
            continue
        if failed_share(cw) > failed_share(bw):
            rows.append((name, "failed_share", "regressed", failed_share(bw), failed_share(cw)))
            ok = False
        for m in bench["end_to_end"]:
            a = {r["seed"]: r["metrics"][m["name"]] for r in bw["runs"] if m["name"] in r["metrics"]}
            b = {r["seed"]: r["metrics"][m["name"]] for r in cw["runs"] if m["name"] in r["metrics"]}
            if not a or not b:
                rows.append((name, m["name"], "unresolved", None, None))
                continue
            verdict = classify(a, b, m["better"], m["bound"], paired)
            ok &= verdict != "regressed"
            rows.append((name, m["name"], verdict,
                         statistics.median(a.values()), statistics.median(b.values())))
    return rows, ok


def report_compare(base, change, bench):
    seconds = {f.get("provenance", {}).get("run_seconds") for f in (base, change)}
    if len(seconds) != 1:
        print(f"error: the files were run for different lengths ({sorted(seconds, key=str)} s); "
              "run length must be the same on both sides", file=sys.stderr)
        return 2
    rows, ok = compare(base, change, bench)
    print(f"{'workload':16} {'metric':12} {'verdict':10} {'base':>12} {'change':>12}")
    for name, metric, verdict, a, b in rows:
        fa = f"{a:12.6g}" if a is not None else f"{'-':>12}"
        fb = f"{b:12.6g}" if b is not None else f"{'-':>12}"
        print(f"{name:16} {metric:12} {verdict:10} {fa} {fb}")
    if not is_paired(base, change):
        print("note: the sides were not run interleaved (use `pair`), so no gain can be shown")
    return 0 if ok else 1


def cmd_compare(args):
    bench = load_benchmark()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    return report_compare(base, change, bench)


def main(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads")
    r.add_argument("--trace", action="store_true", help="also run each seed traced")
    q = sub.add_parser("pair")
    q.add_argument("base_root")
    q.add_argument("change_root")
    q.add_argument("--out", required=True, help="prefix of the two results files")
    q.add_argument("--seeds", default="1-10")
    q.add_argument("--workloads")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("change")
    args = p.parse_args(argv)
    return {"run": cmd_run, "pair": cmd_pair, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
