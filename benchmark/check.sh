#!/usr/bin/env bash
# Smoke check of the benchmark itself (about 20 s): runs the whole thing
# twice at --quick sizes and asserts that
#   * both runs pass their own correctness checks,
#   * digests and the exactly-repeating counts are identical across the two,
#   * the metric and workload names printed are exactly BENCHMARK.json's,
#   * no value is NaN or negative, and trace.coverage_ratio >= 0.90,
# then proves the checker can fail by handing it a wrong expected digest.
# Quick results are stamped "quick": true and are never compared with
# anything but each other. Exit status is non-zero when any check fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

mkdir -p "$here/out"
for run in 1 2; do
    "$here/run.sh" --quick --seconds 0.2 --out "$here/out/check$run" >"$here/out/check$run.log" 2>&1 \
        || { tail -n 20 "$here/out/check$run.log"; echo "check: run $run failed"; exit 1; }
done

verify() {
    python3 - "$here" "$@" <<'PY'
import json, sys
here, expect = sys.argv[1], dict(a.split("=") for a in sys.argv[2:])
spec = json.load(open(f"{here}/../BENCHMARK.json"))
runs = [json.load(open(f"{here}/out/check{i}/results.json")) for i in (1, 2)]
problems = []
names = {False: {m["name"] for m in spec["end_to_end"]}, True: {m["name"] for m in spec["per_layer"]}}
units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
for run in runs:
    if not run["quick"]:
        problems.append("results are not stamped quick")
    seen = {(p["workload"], p["traced"]) for p in run["passes"]}
    want = {(w["name"], t) for w in spec["workloads"] for t in (False, True)}
    if seen != want:
        problems.append(f"passes {sorted(seen ^ want)} differ from BENCHMARK.json's workloads")
    for p in run["passes"]:
        tag = f'{p["workload"]}/{"traced" if p["traced"] else "untraced"}'
        if not p["correct"]:
            problems.append(f"{tag}: {p['errors'] or 'operations failed'}")
        if set(p["metrics"]) != names[p["traced"]]:
            problems.append(f"{tag}: metric names differ: {sorted(set(p['metrics']) ^ names[p['traced']])}")
        for name, m in p["metrics"].items():
            if m["value"] is None or m["value"] < 0:
                problems.append(f"{tag}: {name} = {m['value']}")
            if units.get(name) != m["unit"]:
                problems.append(f"{tag}: {name} unit {m['unit']} != {units.get(name)}")
        if p["traced"] and p["metrics"]["trace.coverage_ratio"]["value"] < 0.90:
            problems.append(f"{tag}: coverage {p['metrics']['trace.coverage_ratio']['value']}")
        if p["workload"] in expect and p["digest"] != expect[p["workload"]]:
            problems.append(f"{tag}: digest {p['digest']} != expected {expect[p['workload']]}")
# Across the two runs: digests always; counts wherever one thread allocates.
exact = ["ok_share", "accuracy"]
single_threaded = exact + ["allocs_per_op", "alloc_kb_per_op", "peak_heap_mb"]
for a, b in zip(runs[0]["passes"], runs[1]["passes"]):
    tag = f'{a["workload"]}/{"traced" if a["traced"] else "untraced"}'
    if a["digest"] != b["digest"]:
        problems.append(f"{tag}: digest {a['digest']} then {b['digest']}")
    if not a["traced"]:
        for name in exact if a["workload"] == "replay_scale" else single_threaded:
            if a["metrics"][name]["value"] != b["metrics"][name]["value"]:
                problems.append(f"{tag}: {name} {a['metrics'][name]['value']} then {b['metrics'][name]['value']}")
for line in problems:
    print("check:", line)
sys.exit(1 if problems else 0)
PY
}

verify || { echo "check: FAILED"; exit 1; }
if verify fermat_codec=0000000000000bad >/dev/null; then
    echo "check: FAILED - a wrong expected digest was accepted"; exit 1
fi
echo "check: ok (two quick runs agree; names match BENCHMARK.json; a wrong digest is rejected)"
