"""Compare mode: two sets of runs, one row per workload.

    python3 perfbench/run.py compare BASE_DIR NEW_DIR

Each directory holds the captured stdout of runs, one run per file (for
example `run.py ... > base/star_light-3.txt`). Runs are grouped by the
workload named in their record line and paired by seed. For every
end-to-end metric in BENCHMARK.json, a row shows both sides' median and
quartiles and a verdict, by the rules of the choosing-metrics guide:

  better      NEW wins at least 9 of 10 pairs (ties count for neither) and
              the medians differ by more than BASE's own quartile distance;
  worse       NEW's median is worse than BASE's by more than the bound;
  unresolved  either side's quartile spread exceeds the bound, so a
              difference within it cannot be told from noise (unless every
              NEW run beats every BASE run);
  same        otherwise: no worse than the bound.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, better, bound, pairs=None):
    """Verdict for one metric. `base` and `new` are the runs' values;
    `pairs` the (base, new) values of runs with the same seed (default:
    both lists in order). `better` is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    q1, base_med, q3 = quartiles(base)
    _, new_med, _ = quartiles(new)
    pairs = pairs if pairs is not None else list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    gain = sign * (new_med - base_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > (q3 - q1):
        return "better"
    if max(spread(base), spread(new)) > bound:
        if min(sign * v for v in new) > max(sign * v for v in base):
            return "same"
        return "unresolved"
    worse_by = -gain / abs(base_med) if base_med else 0.0
    return "worse" if worse_by > bound else "same"


def load_runs(directory):
    """{workload: {seed: metrics}} from the run files in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        record, result = None, None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                doc = json.loads(line)
                if "perfbench_record" in doc:
                    record = doc["perfbench_record"]
                elif "metrics" in doc:
                    result = doc
        if record is None or result is None or record.get("trace") != 0:
            continue
        if not result["correct"]:
            print("note: %s is marked incorrect; left out" % name, file=sys.stderr)
            continue
        if not record.get("on_schedule", True):
            print("note: %s ran off schedule; left out" % name, file=sys.stderr)
            continue
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(record["workload"], {})[record["seed"]] = metrics
    return runs


def compare(base_runs, new_runs, spec):
    """Rows of (workload, base run count, new run count,
    [(metric, base quartiles, new quartiles, verdict)])."""
    rows = []
    for workload in sorted(set(base_runs) & set(new_runs)):
        b, n = base_runs[workload], new_runs[workload]
        cells = []
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r[name] for r in b.values() if name in r]
            nv = [r[name] for r in n.values() if name in r]
            if not bv or not nv:
                continue
            pairs = [(b[s][name], n[s][name]) for s in sorted(set(b) & set(n))
                     if name in b[s] and name in n[s]]
            cells.append((name, quartiles(bv), quartiles(nv),
                          verdict(bv, nv, m["better"], m["bound"], pairs or None)))
        rows.append((workload, len(b), len(n), cells))
    return rows


def fmt(q):
    return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])


def main(argv):
    if len(argv) != 2:
        print("usage: run.py compare BASE_DIR NEW_DIR", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 1
    for workload, nb, nn, cells in rows:
        parts = ["%s: %s -> %s %s" % (name, fmt(bq), fmt(nq), v)
                 for name, bq, nq, v in cells]
        print("%s (%d vs %d runs) | %s" % (workload, nb, nn, " | ".join(parts)))
    return 0
