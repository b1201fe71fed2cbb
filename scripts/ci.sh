#!/bin/sh
# CI gate: build everything, run the full test suite, then run the
# partition and parallel benches in smoke mode — their serial-vs-engine
# agreement assertions are cheap correctness checks worth executing on
# every commit (both exit nonzero on any disagreement; the grep is a
# belt-and-braces check on the JSON they emit).
set -eux

cd "$(dirname "$0")/.."

dune build
dune runtest

# The metric edge cases (empty truth / empty declaration must never
# produce nan) and the telemetry contract run as part of `dune runtest`
# above; run them by name too so a narrowed test filter can't silently
# drop them.
dune exec test/test_workload.exe -- test metrics
dune exec test/test_telemetry.exe

# ---- correctness harness gate ----
#
# 1. Fixed-seed soak: 200 deterministic scenarios through the full
#    differential/metamorphic oracle. Any counterexample exits nonzero
#    (and prints a shrunk, replayable scenario dump).
dune exec bin/entity_ident.exe -- check --seed 1 --scenarios 200

# 2. Workload-family soaks: 50 fixed-seed scenarios per family through
#    each family's reference oracle (k-database closure agreement,
#    matching-dependency fixpoint containment, merge-policy
#    containment) on top of the full differential matrix.
for fam in kdb md merge-policy; do
  dune exec bin/entity_ident.exe -- soak --family "$fam" \
    --seed 1 --scenarios 50
done

# 3. Corpus replay: seeds that once exposed a bug stay green forever.
#    To add one, copy the seed (and family) from a counterexample's
#    replay line into test/corpus/regression-seeds.txt (see the comment
#    header there).
dune exec bin/entity_ident.exe -- check --scenarios 0 \
  --corpus test/corpus/regression-seeds.txt

# 4. Mutation sanity: a deliberately broken engine variant MUST be
#    caught — if the harness waves a seeded fault through, the harness
#    itself has rotted, so invert the exit code. One fault per oracle:
#    the generic engine matrix plus each family's own.
for mutation in "broken-blocking-key " "kdb-lost-edge --family kdb" \
    "md-phantom-match --family md" \
    "merge-rogue-pair --family merge-policy"; do
  fault=${mutation%% *}
  family_flag=${mutation#* }
  # shellcheck disable=SC2086
  if dune exec bin/entity_ident.exe -- check --seed 1 --scenarios 10 \
      --fault "$fault" $family_flag > /dev/null 2>&1; then
    echo "CI: checker failed to catch the seeded $fault fault" >&2
    exit 1
  fi
done

# 5. CLI flag hygiene: an unknown family (or any unknown flag) must be
#    a typed usage error, never a silent fall-through to the default
#    workload.
if dune exec bin/entity_ident.exe -- check --family no-such-family \
    > /dev/null 2>&1; then
  echo "CI: --family accepted an unknown family name" >&2
  exit 1
fi
dune exec bin/entity_ident.exe -- check --family no-such-family 2>&1 \
  | grep -q "unknown scenario family" || {
  echo "CI: unknown --family error does not name the problem" >&2
  exit 1
}
if dune exec bin/entity_ident.exe -- soak --no-such-flag \
    > /dev/null 2>&1; then
  echo "CI: soak accepted an unknown flag" >&2
  exit 1
fi

# Malformed CSV input (a NULL in a key column, an unterminated quote,
# a key naming no column) must exit 2 with a message naming the
# problem, never an uncaught exception.
bad_csv=$(mktemp -d)
printf 'name,cuisine\nAnjuman,Indian\n' > "$bad_csv/ok.csv"
printf 'name,cuisine\n,Indian\n' > "$bad_csv/null_key.csv"
printf 'name,cuisine\n"Anjuman,Indian\n' > "$bad_csv/open_quote.csv"
for case in "null_key.csv name,cuisine NULL value" \
    "open_quote.csv name,cuisine unterminated" \
    "ok.csv name,nope is not a column"; do
  # shellcheck disable=SC2086
  set -- $case
  file=$1 key=$2
  shift 2
  status=0
  dune exec bin/entity_ident.exe -- identify --left "$bad_csv/$file" \
    --right "$bad_csv/ok.csv" --r-key "$key" --s-key name,cuisine \
    --key name,cuisine > /dev/null 2> "$bad_csv/err" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q "$*" "$bad_csv/err"; then
    echo "CI: malformed $file (key $key) exited $status without naming" \
         "the problem: $(cat "$bad_csv/err")" >&2
    exit 1
  fi
done
rm -rf "$bad_csv"

# 6. Durable-store crash recovery: drive a request stream through the
#    serve protocol, tear the WAL at three deterministic byte offsets
#    (full-3: torn final record; half: mid-log cut; 0: empty log),
#    recover each crash copy, and hold its identify response
#    byte-for-byte against a fresh store re-ingested from the surviving
#    store-dump request stream. Any divergence, leftover .tmp file, or
#    stuck lock fails the gate.
eid=_build/default/bin/entity_ident.exe
store_scratch=$(mktemp -d)
serve_args="--no-sync --r-schema name,cuisine,street \
  --s-schema name,speciality,county --r-key name,cuisine \
  --s-key name,speciality --key name,cuisine,speciality \
  --rules data/restaurants.ilfd"
cat > "$store_scratch/requests.ndjson" <<'EOF'
{"op":"insert","side":"r","row":{"name":"TwinCities","cuisine":"Chinese","street":"Co.B2"}}
{"op":"insert","side":"s","row":{"name":"TwinCities","speciality":"Hunan","county":"Dakota"}}
{"op":"insert","side":"r","row":{"name":"Anjuman","cuisine":"Indian","street":"LeSalleAve."}}
{"op":"insert","side":"s","row":{"name":"Anjuman","speciality":"Mughalai","county":"Hennepin"}}
{"op":"insert","side":"r","row":{"name":"It'sGreek","cuisine":"Greek","street":"FrontAve."}}
{"op":"insert","side":"s","row":{"name":"It'sGreek","speciality":"Gyros","county":"Ramsey"}}
{"op":"insert","side":"r","row":{"name":"Lone","cuisine":"Thai","street":"Elm"}}
{"op":"insert","side":"s","row":{"name":"Solo","speciality":"Sushi","county":"Kent"}}
{"op":"merge","r_key":{"name":"Lone","cuisine":"Thai"},"s_key":{"name":"Solo","speciality":"Sushi"}}
{"op":"split","r_key":{"name":"TwinCities","cuisine":"Chinese"},"s_key":{"name":"TwinCities","speciality":"Hunan"}}
EOF
# shellcheck disable=SC2086
"$eid" serve --store "$store_scratch/base" $serve_args \
  < "$store_scratch/requests.ndjson" > /dev/null
wal_size=$(wc -c < "$store_scratch/base/wal.log")
for off in $((wal_size - 3)) $((wal_size / 2)) 0; do
  crash="$store_scratch/crash$off"
  fresh="$store_scratch/fresh$off"
  cp -r "$store_scratch/base" "$crash"
  truncate -s "$off" "$crash/wal.log"
  "$eid" store-dump --store "$crash" > "$store_scratch/dump$off.ndjson"
  echo '{"op":"identify"}' | "$eid" serve --store "$crash" --no-sync \
    > "$store_scratch/got$off.json"
  # shellcheck disable=SC2086
  "$eid" serve --store "$fresh" $serve_args \
    < "$store_scratch/dump$off.ndjson" > /dev/null
  echo '{"op":"identify"}' | "$eid" serve --store "$fresh" --no-sync \
    > "$store_scratch/want$off.json"
  if ! cmp "$store_scratch/got$off.json" "$store_scratch/want$off.json"; then
    echo "CI: recovered store at WAL offset $off diverges from the" \
         "re-ingested dump" >&2
    exit 1
  fi
  if find "$crash" "$fresh" -name '*.tmp' -o -name lock | grep -q .; then
    echo "CI: leftover temp/lock files after recovery at offset $off" >&2
    exit 1
  fi
done
# The untorn store must still hold the three derivable pairs minus the
# split one plus the manual merge (sanity that the gate tested real data).
if ! grep -q Anjuman "$store_scratch/got$((wal_size - 3)).json"; then
  echo "CI: crash-recovery gate saw no matched entities" >&2
  exit 1
fi
rm -rf "$store_scratch"

# 7. ILFD compilation scaling: compiling a 32k-rule family must cost at
#    most 40x a 2k-rule one (linear is ~16x, the old quadratic compile
#    ~256x and more). Batch runs, store opens and explain requests all
#    compile the family, so a quadratic compile is a per-update cost.
dune exec bench/compile_scaling.exe

# 8. Serve-request scaling: on stores of 1k and 64k rows per side, the
#    median insert and the median stats request at 64k must cost at
#    most 4x their 1k medians (measured 1.3-1.5x and ~1x; a per-insert
#    relation rebuild or a per-request matching-table rebuild is ~64x).
dune exec bench/insert_scaling.exe

dune build bench/main.exe
bench_dir=$(mktemp -d)
(
  cd "$bench_dir"
  BENCH_SMOKE=1 "$OLDPWD"/_build/default/bench/main.exe partition
  BENCH_SMOKE=1 "$OLDPWD"/_build/default/bench/main.exe parallel
  if grep -q '"agree": false' BENCH_partition.json BENCH_parallel.json; then
    echo "CI: bench agreement check failed" >&2
    exit 1
  fi
  # The stats-enabled artefacts must be well-formed JSON with no
  # non-finite numbers and the keys downstream tooling reads.
  for f in BENCH_partition.json BENCH_parallel.json; do
    if grep -Eq '(^|[^a-zA-Z])(nan|inf)' "$f"; then
      echo "CI: non-finite number in $f" >&2
      exit 1
    fi
  done
  if command -v python3 > /dev/null; then
    python3 - <<'EOF'
import json, sys

for path in ("BENCH_partition.json", "BENCH_parallel.json"):
    with open(path) as f:
        doc = json.load(f)  # raises on malformed JSON
    for key in ("results", "stats"):
        if key not in doc:
            sys.exit(f"CI: {path} is missing the {key!r} object")
    stats = doc["stats"]
    for key in ("counters", "spans", "derived"):
        if key not in stats:
            sys.exit(f"CI: {path} stats block is missing {key!r}")
    def walk(x):
        if isinstance(x, float) and (x != x or abs(x) == float("inf")):
            sys.exit(f"CI: non-finite number in {path}")
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
    walk(doc)

# The production extension path must actually be the fixpoint (at least
# one chase round recorded) in both pipeline-bearing artefacts, and the
# partition bench's fixpoint-vs-recursive head-to-head must agree.
for path in ("BENCH_partition.json", "BENCH_parallel.json"):
    counters = json.load(open(path))["stats"]["counters"]
    if counters.get("ilfd.fixpoint.rounds", 0) < 1:
        sys.exit(f"CI: {path} recorded no fixpoint rounds — "
                 "the extension ran on the fallback path")

ext = json.load(open("BENCH_partition.json")).get("extension")
if ext is None:
    sys.exit("CI: BENCH_partition.json is missing the extension object")
if ext.get("agree") is not True:
    sys.exit("CI: fixpoint extension disagrees with the recursive engine")

doc = json.load(open("BENCH_parallel.json"))
if doc.get("stats_jobs_invariant") is not True:
    sys.exit("CI: telemetry counters differ between job counts")

# The small-input regression gate: at 1k x 1k the parallel partition
# must cost at most 15% over serial (spawn-per-call made jobs=2 run
# 14x slower; the pool + serial-fallback threshold is what this holds).
rows = {(r["n_r"], r["jobs"]): r["ms"] for r in doc["results"]}
serial, j2 = rows.get((1000, 1)), rows.get((1000, 2))
if serial is None or j2 is None:
    sys.exit("CI: parallel bench smoke sweep is missing the 1k x 1k rows")
if j2 > serial * 1.15:
    sys.exit(
        f"CI: jobs=2 at 1k x 1k took {j2:.2f} ms vs {serial:.2f} ms serial "
        "(> 1.15x) — the small-input parallel regression is back")
print("CI: bench JSON artefacts are well-formed")
EOF
  fi
)
rm -rf "$bench_dir"
