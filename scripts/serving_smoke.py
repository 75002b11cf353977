#!/usr/bin/env python3
"""CI smoke test for the `skild` serving daemon.

Generates a mixed JSONL batch — clean programs on a sweep of mesh
shapes (2x2, 1x3, 4x4), all three engines (ast, vm, native), Skil
runtime errors, crash fault plans, malformed requests, raw non-JSON
garbage, two hostile programs nested 1,000 and 100,000 parentheses
deep mid-stream, and a stats query — streams it through one `skild`
process, and asserts the daemon:

  - stays alive to stdin EOF and exits 0 (no restart, no crash);
  - answers every request with exactly one structured JSON line;
  - classifies each outcome correctly (`ok` / `runtime` / `bad_request`),
    matched by echoed request id;
  - rejects each over-deep program with one `compile` error (the
    parser's nesting limit) and answers every request sent after them;
  - serves >90% of compiles from the program cache at this volume
    (native requests included: machine code is compiled once per
    program and reused);
  - reports per-shape pool counters for every mesh in the sweep.

Usage: python3 scripts/serving_smoke.py --bin target/release/skild \
           [--requests 1000] [--threads 4]

Exit code: 0 pass, 1 assertion failure, 2 usage error.
"""

import argparse
import json
import subprocess
import sys

HELLO = "void main() { if (procId == 0) { print(42); } }"
FOLD = (
    "int initf(Index ix) { return ix[0] + ix[1]; } "
    "int conv(int v, Index ix) { return v; } "
    "void main() { "
    "array<int> a = array_create(1, {16,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT); "
    "int total = array_fold(conv, (+), a); "
    "if (procId == 0) { print(total); } }"
)
DIV_ZERO = "void main() { int z = procId - procId; print(100 / z); }"

# Nesting depths of the hostile programs, far past the parser's limit.
DEEP = (1_000, 100_000)


def deep_program(depth):
    return "void main() { int x = " + "(" * depth + "1" + ")" * depth + "; print(x); }"


def build_batch(total):
    """Returns (lines, expectations): expectations maps request id ->
    expected outcome ('ok' or an error kind)."""
    lines, expect = [], {}
    garbage = 0

    def add(req_id, outcome, obj):
        obj["id"] = req_id
        lines.append(json.dumps(obj))
        expect[req_id] = outcome

    # Round-robin a fixed mix until `total` request lines exist; the
    # hostile deep-nesting requests go in mid-stream.
    i = 0
    while len(lines) < total:
        if len(lines) == total // 2:
            for depth in DEEP:
                add(f"deep{depth}", "compile", {"program": deep_program(depth)})
        slot = i % 20
        rid = f"r{i}"
        if slot < 8:
            add(rid, "ok", {"program": HELLO})
        elif slot < 10:
            add(rid, "ok", {"program": FOLD, "engine": "vm"})
        elif slot < 12:
            add(rid, "ok", {"program": FOLD, "engine": "native"})
        elif slot < 13:
            add(rid, "ok", {"program": FOLD, "engine": "vm", "mesh": "1x3"})
        elif slot < 14:
            add(rid, "ok", {"program": FOLD, "engine": "native", "mesh": "4x4"})
        elif slot < 15:
            add(rid, "runtime", {"program": DIV_ZERO, "engine": "vm"})
        elif slot < 16:
            add(rid, "runtime", {"program": DIV_ZERO, "engine": "native"})
        elif slot < 17:
            add(rid, "runtime", {"program": DIV_ZERO, "engine": "ast"})
        elif slot < 18:
            add(rid, "runtime", {"program": FOLD, "faults": "seed=7,crash=3@50"})
        elif slot < 19:
            add(rid, "bad_request", {"program": HELLO, "mesh": "0x9"})
        else:
            lines.append("this is not json")
            garbage += 1
        i += 1
    lines.append(json.dumps({"cmd": "stats"}))
    return lines, expect, garbage


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True, help="path to the skild binary")
    ap.add_argument("--requests", type=int, default=1000)
    ap.add_argument("--threads", type=int, default=4)
    args = ap.parse_args()

    lines, expect, garbage = build_batch(args.requests)
    payload = "\n".join(lines) + "\n"
    proc = subprocess.run(
        [args.bin, "--threads", str(args.threads)],
        input=payload,
        capture_output=True,
        text=True,
        timeout=600,
    )
    print(proc.stderr, file=sys.stderr, end="")

    failures = []
    if proc.returncode != 0:
        failures.append(f"skild exited {proc.returncode}, expected 0 (daemon must survive)")

    responses = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    if len(responses) != len(lines):
        failures.append(f"{len(lines)} request lines but {len(responses)} response lines")

    stats = None
    unmatched_garbage = 0
    seen = set()
    for resp in responses:
        if "stats" in resp:
            stats = resp["stats"]
            continue
        rid = resp.get("id")
        if rid is None:
            # Non-JSON garbage can't echo an id; it must still get a
            # structured bad_request response.
            if resp.get("ok") is False and resp["error"]["kind"] == "bad_request":
                unmatched_garbage += 1
            else:
                failures.append(f"id-less response isn't a bad_request: {resp}")
            continue
        if rid in seen:
            failures.append(f"duplicate response for {rid}")
        seen.add(rid)
        want = expect.get(rid)
        if want is None:
            failures.append(f"response for unknown id {rid}")
        elif want == "ok":
            if resp.get("ok") is not True or "sim_cycles" not in resp:
                failures.append(f"{rid}: expected ok run, got {resp}")
        else:
            if resp.get("ok") is not False or resp.get("error", {}).get("kind") != want:
                failures.append(f"{rid}: expected {want} error, got {resp}")
            elif want == "compile" and "nesting too deep" not in resp["error"]["message"]:
                failures.append(f"{rid}: expected the nesting-limit error, got {resp}")

    if unmatched_garbage != garbage:
        failures.append(
            f"{garbage} garbage lines sent, {unmatched_garbage} structured "
            "bad_request responses received"
        )
    missing = expect.keys() - seen
    if missing:
        failures.append(f"{len(missing)} request(s) never answered, e.g. {sorted(missing)[:5]}")
    order = list(expect)
    after_deep = order[order.index(f"deep{DEEP[-1]}") + 1 :]
    if not after_deep or any(rid not in seen for rid in after_deep):
        failures.append("requests sent after the deep-nesting programs went unanswered")

    if stats is None:
        failures.append("no response to the stats command")
    else:
        if stats["machines_discarded"] != 0:
            failures.append(f"machines were discarded: {stats}")
        if stats["cache_hit_rate"] < 0.90:
            failures.append(f"cache hit rate {stats['cache_hit_rate']:.3f} below 0.90")
        pool = {p["mesh"]: p for p in stats.get("pool", [])}
        for mesh in ("2x2", "1x3", "4x4"):
            if mesh not in pool:
                failures.append(f"no per-shape pool counters for {mesh}: {stats}")
            elif pool[mesh]["warm"] + pool[mesh]["cold"] == 0:
                failures.append(f"pool counters for {mesh} recorded no checkouts")

    if failures:
        print("serving_smoke: FAILURES:", file=sys.stderr)
        for f in failures[:20]:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(
        f"serving_smoke: {len(expect)} correlated requests + {garbage} garbage lines "
        f"all answered structurally; cache hit rate "
        f"{stats['cache_hit_rate']:.3f}; daemon exited 0"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
