#!/bin/sh
# Tier-1 gate for every PR: build, run the full test suite, smoke-check
# the parallel determinism contract (-j 1 output must be bit-identical to
# -j N), smoke-check that a poisoned oracle cache is rejected and
# regenerated without changing a single output bit, smoke-check the
# staged pipeline (cold run vs warm run vs interrupted-then-resumed run:
# bit-identical output, zero stage rebuilds when warm), and smoke-check
# the servable snapshot layer (batched eval bit-identical to scalar at
# -j 1 and -j N; a warm snapshot loads from exactly one store entry),
# and smoke-check the batch kernels (scalar-vs-kernel timings reported,
# every batched result bit-identical to the scalar path), and
# smoke-check sharded oracle warming (single-shard warms resume into a
# full run that loads — never recomputes — the published shards; a
# re-run hits every shard and the whole table), and smoke-check the
# bench front end (a misspelt flag is a usage error with nothing on
# stdout; the --gen-json and --lp-json artifacts match their schemas,
# every LP row certified),
# and smoke-check the fault-injection substrate (an injected-ENOSPC warm
# exits through the typed store-io code; a process aborted at a mutating
# store operation leaves a store that fsck repairs with nothing
# quarantined and a resumed run completes bit-identically), and
# smoke-check the LP engine (every solve of a traced cold generation
# carries a passed exact certificate, and its exact counters match the
# pinned values), and smoke-check an example run
# cold and warm through the pipeline (identical output), and smoke-check
# a real 16-bit format (cold binary16 log2 and exp2 with --verify: 0
# wrong results).
# Usage: tools/check.sh [N]   (N = fan-out width, default 4)
set -eu

cd "$(dirname "$0")/.."
N="${1:-4}"

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== -j 1 vs -j $N smoke diff =="
tmp1=$(mktemp) && tmpN=$(mktemp)
cachedir=$(mktemp -d) && cold=$(mktemp) && poisoned=$(mktemp) && stats=$(mktemp)
trap 'rm -f "$tmp1" "$tmpN" "$cold" "$poisoned" "$stats"; rm -rf "$cachedir"' EXIT
# Disable the oracle disk cache so both runs actually exercise the
# (parallel) oracle construction rather than a file load.
RLIBM_NO_DISK_CACHE=1 dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func log2 --scheme estrin --ebits 4 --prec 7 --verify -j 1 > "$tmp1"
RLIBM_NO_DISK_CACHE=1 dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func log2 --scheme estrin --ebits 4 --prec 7 --verify -j "$N" > "$tmpN"
diff "$tmp1" "$tmpN"
echo "identical at -j 1 and -j $N"

echo "== cache poisoning smoke =="
# Cold-cache fingerprint: coefficients, special inputs, verify verdict.
RLIBM_CACHE_DIR="$cachedir" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify > "$cold"
[ -n "$(ls "$cachedir")" ] || { echo "no cache entry written"; exit 1; }
# Corrupt every cache entry (clobber the magic) and re-run: the store must
# quarantine, regenerate, and reproduce the cold-cache output bit for bit.
for f in "$cachedir"/*; do
  printf 'XXXX' | dd of="$f" bs=1 conv=notrunc 2>/dev/null
done
RLIBM_CACHE_DIR="$cachedir" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify --cache-stats \
  > "$poisoned" 2> "$stats"
diff "$cold" "$poisoned"
grep -Eq '[1-9][0-9]* corrupt-rejected' "$stats" \
  || { echo "corruption was not detected:"; cat "$stats"; exit 1; }
ls "$cachedir"/*.corrupt-* > /dev/null \
  || { echo "corrupt entry was not quarantined"; exit 1; }
echo "poisoned cache rejected, quarantined, and regenerated bit-identically"

echo "== staged pipeline smoke (cold / warm / resume) =="
stagedir=$(mktemp -d) && resumedir=$(mktemp -d)
coldg=$(mktemp) && warmg=$(mktemp) && resumedg=$(mktemp)
stageout=$(mktemp) && warmstats=$(mktemp)
trap 'rm -f "$tmp1" "$tmpN" "$cold" "$poisoned" "$stats" \
       "$coldg" "$warmg" "$resumedg" "$stageout" "$warmstats"
     rm -rf "$cachedir" "$stagedir" "$resumedir"' EXIT
# Cold run: every stage rebuilt and persisted.
RLIBM_CACHE_DIR="$stagedir" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify > "$coldg"
# Warm run: all five stages must hit (zero rebuilds, zero store misses),
# and the generated output must not move a bit.
RLIBM_CACHE_DIR="$stagedir" dune exec --no-build bin/rlibm_gen.exe -- stages \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --cache-stats \
  > "$stageout" 2> "$warmstats"
if grep -q 'rebuilt' "$stageout"; then
  echo "warm run rebuilt a stage:"; cat "$stageout"; exit 1
fi
[ "$(grep -c '  hit  ' "$stageout")" -eq 5 ] \
  || { echo "expected 5 stage hits:"; cat "$stageout"; exit 1; }
grep -q ' 0 misses' "$warmstats" \
  || { echo "warm run missed the store:"; cat "$warmstats"; exit 1; }
grep -q 'poly' "$warmstats" \
  || { echo "per-kind counters missing:"; cat "$warmstats"; exit 1; }
RLIBM_CACHE_DIR="$stagedir" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify > "$warmg"
diff "$coldg" "$warmg"
echo "warm run: 5/5 stage hits, output bit-identical"
# Interrupted run: only the oracle and rounding-interval stages complete.
# (warm narrates on stderr; stdout is reserved for product output.)
RLIBM_CACHE_DIR="$resumedir" dune exec --no-build bin/rlibm_gen.exe -- warm \
  --func exp2 --through intervals --ebits 4 --prec 7 2> /dev/null
# Resume: stages 1-2 load, stages 3-5 rebuild, output bit-identical to cold.
RLIBM_CACHE_DIR="$resumedir" dune exec --no-build bin/rlibm_gen.exe -- stages \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 > "$stageout"
for want in 'oracle  *hit' 'intervals  *hit' 'constraints  *rebuilt' \
            'poly  *rebuilt' 'verdict  *rebuilt'; do
  grep -Eq "$want" "$stageout" \
    || { echo "resume expected '$want':"; cat "$stageout"; exit 1; }
done
RLIBM_CACHE_DIR="$resumedir" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify > "$resumedg"
diff "$coldg" "$resumedg"
echo "interrupted run resumed from stage 3, output bit-identical"

echo "== servable snapshot smoke =="
servedir=$(mktemp -d)
serve1=$(mktemp) && serveN=$(mktemp) && servestats=$(mktemp)
servebench=$(mktemp)
trap 'rm -f "$tmp1" "$tmpN" "$cold" "$poisoned" "$stats" \
       "$coldg" "$warmg" "$resumedg" "$stageout" "$warmstats" \
       "$serve1" "$serveN" "$servestats" "$servebench"
     rm -rf "$cachedir" "$stagedir" "$resumedir" "$servedir"' EXIT
# Cold build at -j 1: resolves through the pipeline, persists the
# snapshot, and cross-checks every batched result against the scalar
# eval path bit for bit.
RLIBM_CACHE_DIR="$servedir" dune exec --no-build bin/rlibm_gen.exe -- serve \
  --func exp2 --func log2 --ebits 4 --prec 7 --check-scalar -j 1 > "$serve1"
# Warm load at -j N: stdout (per-function result digests + scalar
# checks) must be bit-identical, and the store must be touched for
# exactly one entry of exactly one kind — the snapshot.  Zero oracle
# evaluations, zero LP solves, not even a per-stage artifact load.
RLIBM_CACHE_DIR="$servedir" dune exec --no-build bin/rlibm_gen.exe -- serve \
  --func exp2 --func log2 --ebits 4 --prec 7 --check-scalar --cache-stats \
  -j "$N" > "$serveN" 2> "$servestats"
diff "$serve1" "$serveN"
grep -Eq '^ *snapshot +1 hits, 0 misses' "$servestats" \
  || { echo "warm serve did not load the snapshot:"; cat "$servestats"; exit 1; }
if grep -Eq '^ *(oracle|intervals|constraints|poly|verdict|table) ' "$servestats"; then
  echo "warm serve touched per-stage artifacts:"; cat "$servestats"; exit 1
fi
echo "snapshot: batched eval bit-identical at -j 1 and -j $N, warm load = 1 store entry"

echo "== batch kernel smoke =="
# serve --bench reports scalar-vs-kernel timings on stderr (stdout must
# stay job-count-invariant for the diff above); the run also re-checks
# the batched results against the scalar path (--check-scalar).
RLIBM_CACHE_DIR="$servedir" dune exec --no-build bin/rlibm_gen.exe -- serve \
  --func exp2 --func log2 --ebits 4 --prec 7 --check-scalar --bench \
  -j "$N" > /dev/null 2> "$servebench"
grep -Eq 'bench: scalar [0-9.]+ ns/eval, kernel [0-9.]+ ns/eval' "$servebench" \
  || { echo "no kernel timings reported:"; cat "$servebench"; exit 1; }
echo "kernel timings reported, batched results bit-identical to scalar"

echo "== sharded oracle warm smoke =="
sharddir=$(mktemp -d)
shardout=$(mktemp)
trap 'rm -f "$tmp1" "$tmpN" "$cold" "$poisoned" "$stats" \
       "$coldg" "$warmg" "$resumedg" "$stageout" "$warmstats" \
       "$serve1" "$serveN" "$servestats" "$servebench" \
       "$shardout"
     rm -rf "$cachedir" "$stagedir" "$resumedir" "$servedir" "$sharddir"' EXIT
# Half-run: warm two of the four oracle shards, one invocation each (the
# distributed / killed-warmer shape).  All warm narration lives on
# stderr, so the shard-status greps below read the stderr capture.
RLIBM_CACHE_DIR="$sharddir" dune exec --no-build bin/rlibm_gen.exe -- warm \
  --func exp2 --through oracle --shard 0/4 --ebits 4 --prec 7 2> /dev/null
RLIBM_CACHE_DIR="$sharddir" dune exec --no-build bin/rlibm_gen.exe -- warm \
  --func exp2 --through oracle --shard 1/4 --ebits 4 --prec 7 2> /dev/null
# Resume: the full sharded warm must load shards 0-1 from the store and
# compute only shards 2-3.
RLIBM_CACHE_DIR="$sharddir" dune exec --no-build bin/rlibm_gen.exe -- warm \
  --func exp2 --through oracle --shards 4 --ebits 4 --prec 7 \
  --cache-stats 2> "$shardout"
for want in 'oracle shard 0/4 hit' 'oracle shard 1/4 hit' \
            'oracle shard 2/4 rebuilt' 'oracle shard 3/4 rebuilt'; do
  grep -q "$want" "$shardout" \
    || { echo "resume expected '$want':"; cat "$shardout"; exit 1; }
done
grep -Eq '^ *oracle-shard +2 hits, 2 misses' "$shardout" \
  || { echo "expected 2 shard loads + 2 computes:"; cat "$shardout"; exit 1; }
# Fully warm re-run: the republished whole table covers every shard.
RLIBM_CACHE_DIR="$sharddir" dune exec --no-build bin/rlibm_gen.exe -- warm \
  --func exp2 --through oracle --shards 4 --ebits 4 --prec 7 2> "$shardout"
[ "$(grep -c 'oracle shard [0-3]/4 hit' "$shardout")" -eq 4 ] \
  || { echo "warm re-run expected 4 shard hits:"; cat "$shardout"; exit 1; }
if grep -q 'rebuilt' "$shardout"; then
  echo "warm re-run recomputed a shard:"; cat "$shardout"; exit 1
fi
# And the merged whole-table artifact satisfies the unsharded pipeline.
RLIBM_CACHE_DIR="$sharddir" dune exec --no-build bin/rlibm_gen.exe -- stages \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 > "$shardout"
grep -Eq 'oracle  *hit' "$shardout" \
  || { echo "oracle stage missed after sharded warm:"; cat "$shardout"; exit 1; }
echo "sharded warm: resume loads published shards, re-run all-hit, oracle stage warm"

echo "== bench front end smoke (usage error, --gen-json, --lp-json) =="
# A misspelt flag is a usage error: non-zero exit and nothing on stdout
# (the bench must not quietly run some other section instead).
genjson=$(mktemp) && lpjson=$(mktemp)
trap 'rm -f "$tmp1" "$tmpN" "$cold" "$poisoned" "$stats" \
       "$coldg" "$warmg" "$resumedg" "$stageout" "$warmstats" \
       "$serve1" "$serveN" "$servestats" "$servebench" \
       "$shardout" "$genjson" "$lpjson"
     rm -rf "$cachedir" "$stagedir" "$resumedir" "$servedir" "$sharddir"' EXIT
rc=0
dune exec --no-build bench/main.exe -- --tabel1 > "$genjson" 2> /dev/null \
  || rc=$?
[ "$rc" -ne 0 ] || { echo "bench accepted the unknown flag --tabel1"; exit 1; }
[ ! -s "$genjson" ] \
  || { echo "bench printed on stdout for --tabel1:"; cat "$genjson"; exit 1; }
# With every narration line on stderr, a JSON artifact pointed at
# /dev/stdout must leave stdout as one parseable document — nothing else
# may leak into the stream.  The same run writes the LP statistics of
# its cold polynomial stage.
dune exec --no-build bench/main.exe -- --gen-json /dev/stdout \
  --lp-json "$lpjson" --quick -j "$N" > "$genjson" 2> /dev/null
python3 - "$genjson" "$lpjson" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)  # fails if any narration leaked onto stdout
for key in ("schema_version", "kind", "timestamp", "commit", "host",
            "jobs", "input_bits", "scheme", "generation"):
    assert key in doc, f"missing envelope key {key!r}"
assert doc["kind"] == "staged-generation", doc["kind"]
assert doc["generation"], "no generation rows"
for row in doc["generation"]:
    assert row["ok"] is True, row
    assert row["warm_rebuilt_stages"] == 0, row
with open(sys.argv[2]) as f:
    doc = json.load(f)
for key in ("schema_version", "kind", "timestamp", "commit", "host",
            "jobs", "input_bits", "results"):
    assert key in doc, f"missing envelope key {key!r}"
assert doc["kind"] == "lp", doc["kind"]
assert doc["results"], "no LP rows"
for row in doc["results"]:
    assert row["ok"] is True, row
    assert row["solves"] > 0, row
EOF
echo "bench: --tabel1 rejected; --gen-json stdout is one JSON document, warm rebuilds = 0; every LP row ok"

echo "== trace smoke (cold/warm generate with --trace) =="
# Trace files live at a stable path (not the mktemp pool) so CI can
# upload them as a post-mortem artifact when this script fails; they are
# removed only on success, at the bottom.
tracedir="_build/trace-smoke"
rm -rf "$tracedir" && mkdir -p "$tracedir"
tracegen=$(mktemp -d)
tracecold=$(mktemp) && tracewarm=$(mktemp) && tracenone=$(mktemp)
trap 'rm -f "$tmp1" "$tmpN" "$cold" "$poisoned" "$stats" \
       "$coldg" "$warmg" "$resumedg" "$stageout" "$warmstats" \
       "$serve1" "$serveN" "$servestats" "$servebench" \
       "$shardout" "$genjson" "$lpjson" "$tracecold" "$tracewarm" "$tracenone"
     rm -rf "$cachedir" "$stagedir" "$resumedir" "$servedir" "$sharddir" \
       "$tracegen"' EXIT
RLIBM_CACHE_DIR="$tracegen" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify \
  --trace "$tracedir/cold.jsonl" -j 1 > "$tracecold" 2> /dev/null
RLIBM_CACHE_DIR="$tracegen" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify \
  --trace "$tracedir/warm.jsonl" -j "$N" > "$tracewarm" 2> /dev/null
# Observing the run must not move an output bit, at either job count.
RLIBM_CACHE_DIR="$tracegen" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify \
  -j "$N" > "$tracenone" 2> /dev/null
diff "$tracecold" "$tracewarm"
diff "$tracewarm" "$tracenone"
python3 - "$tracedir/cold.jsonl" "$tracedir/warm.jsonl" <<'EOF'
import json, sys

def load(path):
    with open(path) as f:
        lines = [json.loads(l) for l in f if l.strip()]
    assert len(lines) > 1, f"{path}: empty trace"
    header, events = lines[0], lines[1:]
    assert header["schema_version"] == 1, header
    assert header["kind"] == "rlibm-trace", header
    for key in ("timestamp", "host", "jobs"):
        assert key in header, header
    for ev in events:
        for key in ("ts", "level", "ev", "fields"):
            assert key in ev, ev
    return header, events

def stage_ends(events):
    return [e for e in events if e["ev"] == "stage.end"]

cold_h, cold = load(sys.argv[1])
warm_h, warm = load(sys.argv[2])
assert cold_h["jobs"] == 1, cold_h["jobs"]
assert any(e["fields"].get("status") == "rebuilt" for e in stage_ends(cold)), \
    "cold run rebuilt no stage"
warm_ends = stage_ends(warm)
assert warm_ends, "warm trace has no stage spans"
assert all(e["fields"].get("status") == "hit" for e in warm_ends), \
    [e["fields"] for e in warm_ends]
# Timing sanity.  Stage spans nest (a cold verdict span contains the
# poly span, which contains the constraints span, ...), so only the
# top-level stage spans — those not enclosed by another stage span —
# partition the run; their durations must be non-negative and sum to no
# more than the trace's own wall clock.
for events in (cold, warm):
    stage_ids = {e["span"] for e in events
                 if e["ev"] in ("stage.begin", "stage.end")}
    secs = [e["fields"]["seconds"] for e in stage_ends(events)]
    assert all(s >= 0.0 for s in secs), secs
    top = [e["fields"]["seconds"] for e in stage_ends(events)
           if e.get("parent") not in stage_ids]
    assert top, "no top-level stage spans"
    wall = max(e["ts"] for e in events) - min(e["ts"] for e in events)
    assert sum(top) <= wall + 0.25, (sum(top), wall)
EOF
echo "trace: schema OK, warm run all-hit, output bit-identical with tracing on"

echo "== LP certificate and counter smoke (traced cold generate) =="
# Every LP solve of a cold generation must carry an exact certificate
# that checked: the float pivots only steer, the verdict is exact.  The
# exact work counters of this fixed generation are pinned too: a change
# that moves a pivot, the float/exact split or an entry size shows here.
# Clocks are reported, never gated.
lpgen=$(mktemp -d)
trap 'rm -f "$tmp1" "$tmpN" "$cold" "$poisoned" "$stats" \
       "$coldg" "$warmg" "$resumedg" "$stageout" "$warmstats" \
       "$serve1" "$serveN" "$servestats" "$servebench" \
       "$shardout" "$genjson" "$lpjson" "$tracecold" "$tracewarm" "$tracenone"
     rm -rf "$cachedir" "$stagedir" "$resumedir" "$servedir" "$sharddir" \
       "$tracegen" "$lpgen"' EXIT
RLIBM_CACHE_DIR="$lpgen" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 \
  --trace "$tracedir/lp.jsonl" -j 1 > /dev/null 2> /dev/null
python3 - "$tracedir/lp.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    events = [json.loads(l) for l in f if l.strip()][1:]
solves = [e for e in events
          if e["ev"] in ("lp.solved", "lp.infeasible", "lp.unbounded")]
assert any(e["ev"] == "lp.solved" for e in solves), "no LP solve traced"
for e in solves:
    fields = e["fields"]
    assert fields.get("certified") is True, e
    assert fields.get("certificate") in ("optimality", "farkas", "ray"), e
    for key in ("rows", "pivots_cum", "maxbits", "float_pivots",
                "exact_pivots", "seconds"):
        assert key in fields, (key, e)
def total(key):
    return sum(e["fields"][key] for e in solves)
counters = {
    "solves": len(solves),
    "lp.solved": sum(e["ev"] == "lp.solved" for e in solves),
    "lp.infeasible": sum(e["ev"] == "lp.infeasible" for e in solves),
    "float_pivots": total("float_pivots"),
    "exact_pivots": total("exact_pivots"),
    "maxbits": max(e["fields"]["maxbits"] for e in solves),
    "rows": max(e["fields"]["rows"] for e in solves),
}
expected = {"solves": 10, "lp.solved": 9, "lp.infeasible": 1,
            "float_pivots": 314, "exact_pivots": 380, "maxbits": 194,
            "rows": 57}
assert counters == expected, (counters, expected)
print(f"{len(solves)} LP solves, every certificate checked, "
      f"counters as pinned; {total('seconds'):.3f} s in the LP (not gated)")
EOF
echo "LP: every traced solve carries a passed exact certificate; counters match"

echo "== fault smoke (injected ENOSPC, kill-point resume, fsck) =="
# Fault artifacts live at a stable path (like the trace smoke) so CI can
# upload the fsck report and any quarantined files as post-mortem
# artifacts when this script fails; removed only on success, at the
# bottom.
faultdir="_build/fault-smoke"
rm -rf "$faultdir" && mkdir -p "$faultdir"
# Sticky injected ENOSPC on every store write: warm completes the
# computation in memory but must report every failed publish and exit
# through the typed store-io code (3) with the uniform error rendering.
mkdir -p "$faultdir/enospc-store"
rc=0
RLIBM_CACHE_DIR="$faultdir/enospc-store" RLIBM_FAULT_PLAN='write@1+=enospc' \
  dune exec --no-build bin/rlibm_gen.exe -- warm \
  --func exp2 --through oracle --ebits 4 --prec 7 \
  > "$faultdir/enospc.out" 2> "$faultdir/enospc.err" || rc=$?
[ "$rc" -eq 3 ] \
  || { echo "injected ENOSPC: expected exit 3, got $rc"
       cat "$faultdir/enospc.err"; exit 1; }
grep -q 'store publishes failed' "$faultdir/enospc.err" \
  || { echo "failed publishes not reported:"; cat "$faultdir/enospc.err"; exit 1; }
grep -q 'rlibm: store I/O error' "$faultdir/enospc.err" \
  || { echo "no typed store-io message:"; cat "$faultdir/enospc.err"; exit 1; }
# Kill-point: abort the process at a mutating store operation mid-way
# through a sharded publish; fsck --repair must find nothing quarantined
# (atomic publish can orphan temps, never expose a torn entry) and a
# resumed run must leave the store byte-identical to an uninterrupted
# control run.
mkdir -p "$faultdir/control" "$faultdir/killed"
RLIBM_CACHE_DIR="$faultdir/control" dune exec --no-build bin/rlibm_gen.exe -- \
  warm --func exp2 --through oracle --shards 2 --ebits 4 --prec 7 \
  2> /dev/null
rc=0
RLIBM_CACHE_DIR="$faultdir/killed" RLIBM_FAULT_PLAN='mut@4=abort' \
  dune exec --no-build bin/rlibm_gen.exe -- warm \
  --func exp2 --through oracle --shards 2 --ebits 4 --prec 7 \
  2> "$faultdir/killed.err" || rc=$?
[ "$rc" -eq 70 ] \
  || { echo "kill-point: expected abort exit 70, got $rc"
       cat "$faultdir/killed.err"; exit 1; }
dune exec --no-build bin/rlibm_gen.exe -- fsck \
  --cache-dir "$faultdir/killed" --repair > "$faultdir/fsck.out" \
  || { echo "fsck --repair failed on the killed store:"
       cat "$faultdir/fsck.out"; exit 1; }
grep -q ', 0 quarantined,' "$faultdir/fsck.out" \
  || { echo "kill left a torn entry:"; cat "$faultdir/fsck.out"; exit 1; }
RLIBM_CACHE_DIR="$faultdir/killed" dune exec --no-build bin/rlibm_gen.exe -- \
  warm --func exp2 --through oracle --shards 2 --ebits 4 --prec 7 \
  2> /dev/null
diff -r "$faultdir/control" "$faultdir/killed"
# And the resumed store passes a plain fsck scan with everything valid.
dune exec --no-build bin/rlibm_gen.exe -- fsck \
  --cache-dir "$faultdir/killed" > "$faultdir/fsck-clean.out" \
  || { echo "resumed store not fsck-clean:"
       cat "$faultdir/fsck-clean.out"; exit 1; }
grep -q ', 0 quarantined, 0 stale temps,' "$faultdir/fsck-clean.out" \
  || { echo "resumed store has findings:"; cat "$faultdir/fsck-clean.out"; exit 1; }
echo "injected ENOSPC exits 3 typed; kill-point resume bit-identical, fsck clean"

echo "== example smoke (quickstart cold / warm) =="
# The examples generate through the staged pipeline: a cold run and a
# warm run served by the store it filled must print the same output.
# The temporary store also keeps example runs out of the tree.
exdir=$(mktemp -d) && excold=$(mktemp) && exwarm=$(mktemp)
trap 'rm -f "$tmp1" "$tmpN" "$cold" "$poisoned" "$stats" \
       "$coldg" "$warmg" "$resumedg" "$stageout" "$warmstats" \
       "$serve1" "$serveN" "$servestats" "$servebench" \
       "$shardout" "$genjson" "$lpjson" "$tracecold" "$tracewarm" "$tracenone" \
       "$excold" "$exwarm"
     rm -rf "$cachedir" "$stagedir" "$resumedir" "$servedir" "$sharddir" \
       "$tracegen" "$lpgen" "$exdir"' EXIT
RLIBM_CACHE_DIR="$exdir" dune exec --no-build examples/quickstart.exe \
  > "$excold"
RLIBM_CACHE_DIR="$exdir" dune exec --no-build examples/quickstart.exe \
  > "$exwarm"
diff "$excold" "$exwarm"
echo "quickstart: cold and warm runs print identical output"

echo "== binary16 smoke (cold log2 / exp2 --verify) =="
# Every binary16 input through the whole pipeline against the oracle,
# in a temporary store so the oracle and every stage run cold.
b16dir=$(mktemp -d) && b16out=$(mktemp)
trap 'rm -f "$tmp1" "$tmpN" "$cold" "$poisoned" "$stats" \
       "$coldg" "$warmg" "$resumedg" "$stageout" "$warmstats" \
       "$serve1" "$serveN" "$servestats" "$servebench" \
       "$shardout" "$genjson" "$lpjson" "$tracecold" "$tracewarm" "$tracenone" \
       "$excold" "$exwarm" "$b16out"
     rm -rf "$cachedir" "$stagedir" "$resumedir" "$servedir" "$sharddir" \
       "$tracegen" "$lpgen" "$exdir" "$b16dir"' EXIT
for f in log2 exp2; do
  RLIBM_CACHE_DIR="$b16dir" dune exec --no-build bin/rlibm_gen.exe -- generate \
    --func "$f" --ebits 5 --prec 11 --scheme estrin-fma --verify -j "$N" \
    > "$b16out"
  grep -Eq '^verify: 63488 inputs: 63488 checked, 0 wrong round-to-odd, 0/[0-9]+ wrong narrowed$' "$b16out" \
    || { echo "binary16 $f: wrong results or no verdict:"; cat "$b16out"; exit 1; }
  tail -n 1 "$b16out"
done
echo "binary16: log2 and exp2 correct on every input, every narrowed format"

rm -rf "$tracedir" "$faultdir"
echo "== OK =="
