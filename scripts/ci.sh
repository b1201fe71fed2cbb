#!/bin/sh
# CI gate: build everything, run the full test suite, the correctness
# harness and its seeded mutations, the CLI's input-hygiene checks, the
# store's crash-recovery gate and the three scaling gates, then run the
# partition bench in smoke mode — its fixpoint-vs-recursive extension
# agreement is a cheap correctness check worth executing on every
# commit (it exits nonzero on any disagreement; the grep is a
# belt-and-braces check on the JSON it emits), and its stats block must
# show every derivation class evaluated on the ILFD tries, none on the
# scan.
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
#    the generic engine matrix, the per-tuple ILFD evaluator's
#    derivation order (fixpoint-agreement), the Figure 3 partition's
#    not-matched set (figure3-agreement), the Section 4.2 relational
#    expressions' matching table (algebra-agreement) and each family's
#    own.
for mutation in "broken-blocking-key " "derivation-stratum-order " \
    "nmt-lost-pair " "algebra-lost-pair " \
    "kdb-lost-edge --family kdb" "md-phantom-match --family md" \
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
# Deleted execution modes stay deleted: --jobs/-j (the domain pool) and
# --shards/--mem-budget (the out-of-core mode) are unknown options, a
# usage error (exit 124), on an otherwise valid invocation.
for removed in "identify --jobs 2" "identify -j 2" "fuse --jobs 2" \
    "identify --shards 4" "identify --mem-budget 1"; do
  status=0
  # shellcheck disable=SC2086
  dune exec bin/entity_ident.exe -- $removed --left data/restaurants_r.csv \
    --right data/restaurants_s.csv --r-key name,cuisine \
    --s-key name,speciality --key name,cuisine,speciality \
    --rules data/restaurants.ilfd > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 124 ]; then
    echo "CI: '$removed' exited $status, not 124 (unknown option)" >&2
    exit 1
  fi
done
# The intern table takes no lock and publishes no snapshot: it relies on
# the program running on one domain, so no domain, lock, atomic or
# thread may appear in the program's sources.
if grep -rnE '(Domain|Mutex|Atomic|Thread)\.' lib bin; then
  echo "CI: a concurrency primitive is back in lib/ or bin/" >&2
  exit 1
fi

# Malformed CSV input (a NULL or a repeated value in a key column, an
# unterminated quote, a key naming no column, a header repeating a
# column) must exit 2 with a message naming the problem, never an
# uncaught exception.
bad_csv=$(mktemp -d)
printf 'name,cuisine\nAnjuman,Indian\n' > "$bad_csv/ok.csv"
printf 'name,cuisine\n,Indian\n' > "$bad_csv/null_key.csv"
printf 'name,cuisine\nAnjuman,Indian\nAnjuman,Thai\n' > "$bad_csv/dup_key.csv"
printf 'name,cuisine\n"Anjuman,Indian\n' > "$bad_csv/open_quote.csv"
printf 'name,name\nAnjuman,Indian\n' > "$bad_csv/dup_header.csv"
for case in "null_key.csv name,cuisine NULL value" \
    "dup_key.csv name duplicate value on key (name)" \
    "open_quote.csv name,cuisine unterminated" \
    "ok.csv name,nope is not a column" \
    "dup_header.csv name duplicate column"; do
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
# A CSV that starts with a UTF-8 byte-order mark (as Excel writes it)
# loads like one without: the mark is not part of the first column's
# name, so identify exits 0 and prints the match.
printf '\357\273\277name,cuisine\nAnjuman,Indian\n' > "$bad_csv/bom.csv"
status=0
dune exec bin/entity_ident.exe -- identify --left "$bad_csv/bom.csv" \
  --right "$bad_csv/ok.csv" --r-key name,cuisine --s-key name,cuisine \
  --key name,cuisine --show mt > "$bad_csv/out" 2> "$bad_csv/err" \
  || status=$?
if [ "$status" -ne 0 ] || ! grep -q "Anjuman *Indian *Anjuman *Indian" \
    "$bad_csv/out"; then
  echo "CI: identify on a BOM-prefixed CSV exited $status without the" \
       "match: $(cat "$bad_csv/out" "$bad_csv/err")" >&2
  exit 1
fi
# The K_Ext join matches under non_null_eq, which compares an integer
# with a float exactly: 1 matches 1.0 and 2^60 matches 2^60 as a float,
# but 2^53 + 1 does not match 2^53 as a float, the float it rounds to.
# In the rendered matching table, in the stream and in a serve session.
printf 'id,a\nr1,1\nr2,9007199254740993\nr3,1152921504606846976\n' \
  > "$bad_csv/int.csv"
printf 'sid,a\ns1,1.0\ns2,9007199254740992.0\ns3,1152921504606846976.0\n' \
  > "$bad_csv/float.csv"
num_args="--left $bad_csv/int.csv --right $bad_csv/float.csv --r-key id \
  --s-key sid --key a"
status=0
# shellcheck disable=SC2086
dune exec bin/entity_ident.exe -- identify $num_args --show mt \
  > "$bad_csv/out" 2> "$bad_csv/err" || status=$?
if [ "$status" -ne 0 ] || ! grep -q "^r1 *s1 *$" "$bad_csv/out" \
    || ! grep -q "^r3 *s3 *$" "$bad_csv/out" \
    || grep -q "^r2 " "$bad_csv/out"; then
  echo "CI: identify --show mt does not match 1 with 1.0 and 2^60 with" \
       "2^60., or matches 2^53 + 1 with 2^53.:" \
       "$(cat "$bad_csv/out" "$bad_csv/err")" >&2
  exit 1
fi
status=0
# shellcheck disable=SC2086
dune exec bin/entity_ident.exe -- identify $num_args --stream-out - \
  > "$bad_csv/out" 2> "$bad_csv/err" || status=$?
if [ "$status" -ne 0 ] || ! grep -qF '{"r":{"id":"r1","a":1},"s":{"sid":"s1","a":1.0}}' \
    "$bad_csv/out" \
    || ! grep -qF '{"r":{"id":"r3","a":1152921504606846976},"s":{"sid":"s3","a":1.152921504606847e+18}}' \
    "$bad_csv/out" \
    || grep -qF '"id":"r2"' "$bad_csv/out"; then
  echo "CI: identify --stream-out does not match 1 with 1.0 and 2^60" \
       "with 2^60., or matches 2^53 + 1 with 2^53.:" \
       "$(cat "$bad_csv/out" "$bad_csv/err")" >&2
  exit 1
fi
status=0
printf '%s\n' '{"op":"insert","side":"r","row":{"id":"r1","a":1}}' \
  '{"op":"insert","side":"s","row":{"sid":"s1","a":1.0}}' \
  '{"op":"insert","side":"r","row":{"id":"r2","a":9007199254740993}}' \
  '{"op":"insert","side":"s","row":{"sid":"s2","a":9007199254740992.0}}' \
  '{"op":"insert","side":"r","row":{"id":"r3","a":1152921504606846976}}' \
  '{"op":"insert","side":"s","row":{"sid":"s3","a":1152921504606846976.0}}' \
  '{"op":"identify"}' \
  | dune exec bin/entity_ident.exe -- serve --store "$bad_csv/store" \
      --no-sync --r-schema id,a --s-schema sid,a --r-key id --s-key sid \
      --key a > "$bad_csv/out" 2> "$bad_csv/err" || status=$?
if [ "$status" -ne 0 ] \
    || [ "$(grep -c '"s_key":{"sid":"s1"}' "$bad_csv/out")" -ne 2 ] \
    || [ "$(grep -c '"s_key":{"sid":"s3"}' "$bad_csv/out")" -ne 2 ] \
    || grep -qF '"s_key":{"sid":"s2"}' "$bad_csv/out"; then
  echo "CI: serve does not match 1 with 1.0 and 2^60 with 2^60., or" \
       "matches 2^53 + 1 with 2^53.: $(cat "$bad_csv/out" "$bad_csv/err")" >&2
  exit 1
fi
# Equality is transitive: 2^53 and 2^53 + 1 on R cannot both match 2^53.
# on S, so the extended key stays sound (exit 0, one pair).
printf 'id,a\nr2,9007199254740992\nr4,9007199254740993\n' > "$bad_csv/int.csv"
printf 'sid,a\ns2,9007199254740992.0\n' > "$bad_csv/float.csv"
status=0
# shellcheck disable=SC2086
dune exec bin/entity_ident.exe -- identify $num_args --show mt \
  > "$bad_csv/out" 2> "$bad_csv/err" || status=$?
if [ "$status" -ne 0 ] || ! grep -q "^r2 *s2 *$" "$bad_csv/out" \
    || grep -q "^r4 " "$bad_csv/out"; then
  echo "CI: identify matched 2^53 and 2^53 + 1 both with 2^53. (exit" \
       "$status): $(cat "$bad_csv/out" "$bad_csv/err")" >&2
  exit 1
fi
# --stream-out onto a FIFO streams into it in place: its reader gets
# every record, and the path is still a FIFO afterwards (a temp file
# renamed over it would leave a regular file in its place).
fifo="$bad_csv/out.fifo"
mkfifo "$fifo"
cat "$fifo" > "$bad_csv/fifo.ndjson" &
reader=$!
restaurant_args="--left data/restaurants_r.csv --right data/restaurants_s.csv \
  --r-key name,cuisine --s-key name,speciality --key name,cuisine,speciality \
  --rules data/restaurants.ilfd"
status=0
# shellcheck disable=SC2086
dune exec bin/entity_ident.exe -- identify $restaurant_args \
  --stream-out "$fifo" > /dev/null 2> "$bad_csv/err" || status=$?
# Let a reader still waiting see a writer come and go, then collect it.
if [ -p "$fifo" ]; then exec 3<> "$fifo"; exec 3>&-; else kill "$reader"; fi
wait "$reader" || true
# shellcheck disable=SC2086
dune exec bin/entity_ident.exe -- identify $restaurant_args \
  --stream-out "$bad_csv/file.ndjson" > /dev/null
if [ "$status" -ne 0 ] || [ ! -p "$fifo" ] \
    || ! cmp -s "$bad_csv/fifo.ndjson" "$bad_csv/file.ndjson"; then
  echo "CI: identify --stream-out onto a FIFO exited $status or did not" \
       "stream into it in place: $(cat "$bad_csv/err")" >&2
  exit 1
fi
# --stream-out writes the pairs only, so a flag whose output it would
# drop is a usage error naming that flag, and no output file is left.
for flag in --negative --explain; do
  status=0
  # shellcheck disable=SC2086
  dune exec bin/entity_ident.exe -- identify $restaurant_args $flag \
    --stream-out "$bad_csv/refused.ndjson" > /dev/null 2> "$bad_csv/err" \
    || status=$?
  if [ "$status" -ne 2 ] || ! grep -q -- "$flag" "$bad_csv/err" \
      || [ -e "$bad_csv/refused.ndjson" ] \
      || [ -e "$bad_csv/refused.ndjson.tmp" ]; then
    echo "CI: identify --stream-out with $flag exited $status or left" \
         "output: $(cat "$bad_csv/err")" >&2
    exit 1
  fi
done
# A write that fails on a materialised output is a message naming the
# destination and exit 3, never an uncaught exception or a silent exit 0:
# identify's tables onto a full device, fuse --out onto a full device,
# and fuse --out into a directory that does not exist, which leaves no
# temp file behind.
for case in "identify --show mt|/dev/full|stdout" \
    "fuse --out /dev/full||/dev/full" \
    "fuse --out $bad_csv/no/such/x.csv||$bad_csv/no/such/x.csv"; do
  cmd=${case%%|*}
  rest=${case#*|}
  redirect=${rest%%|*}
  dest=${rest#*|}
  status=0
  # shellcheck disable=SC2086
  dune exec bin/entity_ident.exe -- $cmd $restaurant_args \
    > "${redirect:-/dev/null}" 2> "$bad_csv/err" || status=$?
  if [ "$status" -ne 3 ] \
      || ! grep -q "cannot write to $dest: " "$bad_csv/err"; then
    echo "CI: '$cmd' onto $dest exited $status without naming the" \
         "destination: $(cat "$bad_csv/err")" >&2
    exit 1
  fi
done
if [ -e "$bad_csv/no" ]; then
  echo "CI: a failed fuse --out left files behind" >&2
  exit 1
fi
# mine reads its relation through the same error path, with no key.
status=0
dune exec bin/entity_ident.exe -- mine --from "$bad_csv/open_quote.csv" \
  --lhs name --rhs cuisine > /dev/null 2> "$bad_csv/err" || status=$?
if [ "$status" -ne 2 ] || ! grep -q "unterminated" "$bad_csv/err"; then
  echo "CI: mine on open_quote.csv exited $status without naming the" \
       "problem: $(cat "$bad_csv/err")" >&2
  exit 1
fi
# mine prints rules that --rules reads back: a value holding a separator
# is quoted, so the mined rule derives the cuisine that matches the pair.
printf 'name,cuisine\nSmith & Sons,Diner\n' > "$bad_csv/mine.csv"
printf 'name\nSmith & Sons\n' > "$bad_csv/mine_r.csv"
dune exec bin/entity_ident.exe -- mine --from "$bad_csv/mine.csv" --lhs name \
  --rhs cuisine --min-support 1 | sed -n 's/  \[support=.*//p' \
  > "$bad_csv/mined.ilfd"
status=0
dune exec bin/entity_ident.exe -- identify --left "$bad_csv/mine_r.csv" \
  --right "$bad_csv/mine.csv" --r-key name --s-key name --key name,cuisine \
  --rules "$bad_csv/mined.ilfd" --show mt > "$bad_csv/out" \
  2> "$bad_csv/err" || status=$?
if [ "$status" -ne 0 ] || ! grep -q "^Smith & Sons *Smith & Sons *$" \
    "$bad_csv/out"; then
  echo "CI: mine's rule $(cat "$bad_csv/mined.ilfd") did not read back" \
       "through --rules (exit $status): $(cat "$bad_csv/out" "$bad_csv/err")" >&2
  exit 1
fi
# A rules file with a line that does not parse: every subcommand that
# reads --rules exits 2 naming the file and the line.
printf '# rules\nspeciality = Hunan -> cuisine = Chinese\nspeciality = Hunan ->\n' \
  > "$bad_csv/bad.ilfd"
pair_args="--left $bad_csv/ok.csv --right $bad_csv/ok.csv --r-key name \
  --s-key name --key name,cuisine"
for sub in "identify $pair_args" "fuse $pair_args" "session $pair_args" \
    "closure name=x" "cover"; do
  status=0
  # shellcheck disable=SC2086
  dune exec bin/entity_ident.exe -- $sub --rules "$bad_csv/bad.ilfd" \
    > /dev/null 2> "$bad_csv/err" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q "bad.ilfd: line 3: empty consequent" \
      "$bad_csv/err"; then
    echo "CI: '${sub%% *}' on a malformed rules file exited $status" \
         "without naming the line: $(cat "$bad_csv/err")" >&2
    exit 1
  fi
done
rm -rf "$bad_csv"

# 6. Durable-store crash recovery: drive a request stream through the
#    serve protocol, with a snapshot after its fourth request, tear the
#    WAL at every record boundary and one byte before each (a torn
#    record), found from the WAL's framing, recover each crash copy, and
#    hold its identify response byte-for-byte against a fresh store
#    re-ingested from the surviving store-dump request stream. A copy
#    whose log still holds every record the snapshot covers restores
#    from it and keeps it; one cut below the snapshot's offset replays
#    the log in full and sets the snapshot aside. Any divergence, a
#    snapshot kept or set aside the wrong way, a leftover .tmp file, or
#    a stuck lock fails the gate.
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
{"op":"snapshot"}
{"op":"stats"}
{"op":"insert","side":"r","row":{"name":"It'sGreek","cuisine":"Greek","street":"FrontAve."}}
{"op":"insert","side":"s","row":{"name":"It'sGreek","speciality":"Gyros","county":"Ramsey"}}
{"op":"insert","side":"r","row":{"name":"Lone","cuisine":"Thai","street":"Elm"}}
{"op":"insert","side":"s","row":{"name":"Solo","speciality":"Sushi","county":"Kent"}}
{"op":"merge","r_key":{"name":"Lone","cuisine":"Thai"},"s_key":{"name":"Solo","speciality":"Sushi"}}
{"op":"split","r_key":{"name":"TwinCities","cuisine":"Chinese"},"s_key":{"name":"TwinCities","speciality":"Hunan"}}
EOF
# shellcheck disable=SC2086
"$eid" serve --store "$store_scratch/base" $serve_args \
  < "$store_scratch/requests.ndjson" > "$store_scratch/responses.ndjson"
# The stats answer after the snapshot gives the WAL offset it covers.
snap_off=$(sed -n 's/.*"wal_offset":\([0-9]*\).*/\1/p' \
  "$store_scratch/responses.ndjson")
# Each WAL record is a 4-byte big-endian payload length, a 4-byte CRC,
# then the payload; the log has no header.
wal="$store_scratch/base/wal.log"
wal_size=$(wc -c < "$wal")
offsets=0
pos=0
while [ "$pos" -lt "$wal_size" ]; do
  read -r b0 b1 b2 b3 <<LEN
$(od -An -tu1 -j "$pos" -N 4 "$wal")
LEN
  pos=$((pos + 8 + ((b0 * 256 + b1) * 256 + b2) * 256 + b3))
  offsets="$offsets $((pos - 1)) $pos"
done
if [ "$pos" -ne "$wal_size" ]; then
  echo "CI: the WAL's record lengths sum to $pos, not its $wal_size bytes" >&2
  exit 1
fi
for off in $offsets; do
  crash="$store_scratch/crash$off"
  fresh="$store_scratch/fresh$off"
  cp -r "$store_scratch/base" "$crash"
  truncate -s "$off" "$crash/wal.log"
  "$eid" store-dump --store "$crash" > "$store_scratch/dump$off.ndjson"
  # identify, and explain, which reads the restored base rows by key.
  printf '%s\n' '{"op":"identify"}' '{"op":"explain"}' \
    | "$eid" serve --store "$crash" --no-sync > "$store_scratch/got$off.json"
  # shellcheck disable=SC2086
  "$eid" serve --store "$fresh" $serve_args \
    < "$store_scratch/dump$off.ndjson" > /dev/null
  printf '%s\n' '{"op":"identify"}' '{"op":"explain"}' \
    | "$eid" serve --store "$fresh" --no-sync > "$store_scratch/want$off.json"
  if ! cmp "$store_scratch/got$off.json" "$store_scratch/want$off.json"; then
    echo "CI: recovered store at WAL offset $off diverges from the" \
         "re-ingested dump" >&2
    exit 1
  fi
  if find "$crash" "$fresh" -name '*.tmp' -o -name lock | grep -q .; then
    echo "CI: leftover temp/lock files after recovery at offset $off" >&2
    exit 1
  fi
  if [ "$off" -ge "$snap_off" ] && [ ! -f "$crash/snapshot" ]; then
    echo "CI: recovery at WAL offset $off set aside the snapshot at" \
         "$snap_off" >&2
    exit 1
  fi
  if [ "$off" -lt "$snap_off" ] && [ -f "$crash/snapshot" ]; then
    echo "CI: recovery at WAL offset $off kept the snapshot at $snap_off," \
         "which covers records the log no longer holds" >&2
    exit 1
  fi
done
# The untorn store must still hold the three derivable pairs minus the
# split one plus the manual merge (sanity that the gate tested real data).
if ! grep -q Anjuman "$store_scratch/got$wal_size.json"; then
  echo "CI: crash-recovery gate saw no matched entities" >&2
  exit 1
fi
rm -rf "$store_scratch"

# 7. ILFD compilation scaling: compiling a 32k-rule family and building
#    all of its tries (one extension that walks every rule group) must
#    cost at most 40x a 2k-rule one (linear is ~16x, the old quadratic
#    compile ~256x and more). Batch runs, store opens and rule additions
#    all compile the family, so a quadratic compile is a per-update
#    cost; an explain request derives through the plans the store holds.
dune exec bench/compile_scaling.exe

# 8. Serve-request scaling: on stores of 1k and 64k rows per side, the
#    median insert, stats request and keyed explain request at 64k must
#    cost at most 4x their 1k medians (measured 1.1-2.6x, ~1x and
#    1.1-1.4x; a per-insert relation rebuild, a per-request
#    matching-table rebuild or an explain that re-runs the batch
#    pipeline is ~64x). And an insert whose row fires one of 64k rules
#    on one consequent must cost at most 4x one that fires one of 1k
#    (measured 1.1-1.4x; a derivation that tests every candidate rule
#    is ~57x).
dune exec bench/insert_scaling.exe

# 9. Materialised-output scaling: the integrated table, fuse's CSV and
#    the rendered matching table, from the ILFD extension to the text,
#    must cost at most 32x as much at 64k entities per side as at 4k
#    (measured 16-23x: linear work plus the sorts' log factor; the
#    per-row scan of the matched pairs that found unmatched rows was
#    ~256x).
dune exec bench/materialise_scaling.exe

# 10. Partition bench smoke run: the production fixpoint extension
#     must agree with the recursive reference, and the telemetry-enabled
#     Identify.run behind its stats block must record derivation
#     classes and no class taking the scan fallback.
dune build bench/main.exe
bench_dir=$(mktemp -d)
(
  cd "$bench_dir"
  BENCH_SMOKE=1 "$OLDPWD"/_build/default/bench/main.exe partition
  if grep -q '"agree": false' BENCH_partition.json; then
    echo "CI: bench agreement check failed" >&2
    exit 1
  fi
  # The stats-enabled artefact must be well-formed JSON with no
  # non-finite numbers and the keys downstream tooling reads.
  if grep -Eq '(^|[^a-zA-Z])(nan|inf)' BENCH_partition.json; then
    echo "CI: non-finite number in BENCH_partition.json" >&2
    exit 1
  fi
  if command -v python3 > /dev/null; then
    python3 - <<'EOF'
import json, sys

path = "BENCH_partition.json"
with open(path) as f:
    doc = json.load(f)  # raises on malformed JSON
if "stats" not in doc:
    sys.exit(f"CI: {path} is missing the 'stats' object")
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

# The production extension path must actually be the ILFD tries (some
# derivation classes evaluated, none of them on the scan fallback), and
# the fixpoint-vs-recursive head-to-head must agree.
counters = stats["counters"]
if counters.get("ilfd.fixpoint.classes", 0) < 1:
    sys.exit(f"CI: {path} recorded no derivation classes — "
             "the extension did not run")
if counters.get("ilfd.fixpoint.fallback_classes") != 0:
    sys.exit(f"CI: {path} recorded fallback classes — "
             "the extension ran on the scan fallback")
ext = doc.get("extension")
if ext is None:
    sys.exit(f"CI: {path} is missing the extension object")
if ext.get("agree") is not True:
    sys.exit("CI: fixpoint extension disagrees with the recursive engine")
print("CI: bench JSON artefact is well-formed")
EOF
  fi
)
rm -rf "$bench_dir"
