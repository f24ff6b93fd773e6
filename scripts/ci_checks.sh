#!/usr/bin/env bash
# The console-script checks of the tier1 workflow, one check_<name> function per
# step: `bash scripts/ci_checks.sh [name...]` runs the named checks, or all.  Each
# runs in a subshell with its own temporary directory $tmp.  Call checks and
# helpers plainly, never under `if`, `&&` or `||`: bash ignores `set -e` there.
set -euo pipefail
cd "$(dirname "$0")/.."

# expect_exit CODES CMD...: CMD must exit with one of CODES (comma-separated)
# and write no Traceback to stderr; its stderr is shown if not.
expect_exit() {
  local codes=$1 code=0
  shift
  "$@" 2> "$tmp/stderr" || code=$?
  if [[ ",$codes," != *",$code,"* ]] || grep -q Traceback "$tmp/stderr"; then
    echo "expected exit $codes without a traceback, got $code: $*" >&2
    cat "$tmp/stderr" >&2
    return 1
  fi
}

# replayed RECORDS [REPORT]: replay exits 4 if a violated record of RECORDS does
# not reproduce; given REPORT, its JSON report must read REPORT.
replayed() {
  if [ $# -eq 1 ]; then
    rainbowmatch replay --in "$1" --format summary
  else
    test "$(rainbowmatch replay --in "$1")" = "$2"
  fi
}

check_cold_start() {
  # Every CLI stage is a fresh process that pays for what the package
  # imports.  Prints the ten slowest imports, cumulative, with no time
  # gate; the pool's modules load only when a campaign pools.
  python3 -X importtime -m rainbowmatch gen --kind latin --order 4 > /dev/null 2> "$tmp/importtime.txt"
  sort -t '|' -k 2 -n "$tmp/importtime.txt" | tail -n 10
  if grep -E '\| +(dataclasses|multiprocessing)$' "$tmp/importtime.txt"; then exit 1; fi
}

check_os_pipes() {
  # In-process tests cannot catch a missing entry point or an unflushed pipe.
  lines=$(rainbowmatch gen --kind latin --order 5 --count 50 \
    | rainbowmatch reduce | rainbowmatch solve --format summary | wc -l)
  test "$lines" -eq 50
  # Construct alone checks its matching: every line must say matched,
  # and a failed construction would exit 3 and fail the pipe.
  matched=$(rainbowmatch gen --kind latin --order 5 --count 50 \
    | rainbowmatch construct --strategy backtrack --format summary | grep -c ' matched ')
  test "$matched" -eq 50
  # gen writes generated edges without sorting them: every kind's
  # lines must already be their own canonical form.
  for flags in "latin --order 8 --count 200" "latin --order 6 --drop 2 --count 100" \
               "random --n 3 --left 6 --right 5 --count 300" \
               "random --n 5 --left 8 --right 7 --count 100" \
               "enumerate --n 2 --left 3 --right 4"; do
    # shellcheck disable=SC2086
    rainbowmatch gen --kind $flags | python3 -c '
import sys
from rainbowmatch.graph import from_json, to_canonical_json
lines = sys.stdin.read().splitlines()
assert lines and all(to_canonical_json(from_json(line)) == line for line in lines)
'
  done
}

check_n2_base() {
  # An n = 2 input is the induction's base: it is matched as it stands,
  # never reduced.
  matched=$(rainbowmatch gen --kind enumerate --n 2 --left 3 --right 3 --count 36 \
    | rainbowmatch construct --strategy backtrack | grep -c '"status":"matched"')
  test "$matched" -eq 36
  summary=$(rainbowmatch check --kind enumerate --n 2 --left 3 --right 4 --hyp H4 --hyp H5 \
    --records "$tmp/n2.jsonl" --format summary)
  test "$summary" = "$(printf '%s\n' \
    'H4: trials=576 holds=576 violated=0 inconclusive=0' \
    'H5: trials=576 holds=576 violated=0 inconclusive=0')"
  replayed "$tmp/n2.jsonl" '{"total":1152,"violated":0,"reproduced":0,"mismatches":[]}'
}

check_readme_quick_start() {
  # The reduce record reads the outcome's graph, which only a caller
  # that asks for it builds; seed 17 stalls, so reduce exits 3.
  test "$(rainbowmatch gen --kind latin --order 4 --seed 7 | rainbowmatch solve)" = \
    '{"digest":"603a54f16a6a1798","max":3,"witness":[[0,1,0],[1,2,1],[2,0,2]],"nodes":11}'
  test "$(rainbowmatch gen --kind latin --order 4 --seed 7 \
    | rainbowmatch construct --format summary)" = \
    '603a54f16a6a1798 matched matching=[[0, 1, 0], [1, 2, 1], [2, 0, 2]]'
  rainbowmatch gen --kind random --n 3 --left 6 --right 5 --seed 17 \
    | expect_exit 3 rainbowmatch reduce --emit record > "$tmp/reduce.out"
  grep -q '^{"digest_before":"6c89ef7080d7f4a3","status":"stalled","iterations":6,' "$tmp/reduce.out"
  summary=$(rainbowmatch check --kind random --n 3 --left 6 --right 5 --seed 0 --count 1000 \
    --hyp H2 --hyp H3 --records "$tmp/records.jsonl" --format summary)
  test "$summary" = "$(printf '%s\n' \
    'H2: trials=1000 holds=832 violated=168 inconclusive=0' \
    'H3: trials=1000 holds=216 violated=616 inconclusive=168')"
  replayed "$tmp/records.jsonl" '{"total":2000,"violated":784,"reproduced":784,"mismatches":[]}'
  rainbowmatch gen --kind random --n 3 --left 6 --right 5 --seed 1 \
    | rainbowmatch minimize --hyp H4 > /dev/null
}

check_readme_library() {
  # Runs the Python block under "## Library" and compares each printed
  # line with the comment on its print call.
  python3 - <<'EOF'
import contextlib, io, re
text = open("README.md", encoding="utf-8").read()
block = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.M | re.S).group(1)
expected = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    exec(block, {})
printed = out.getvalue().splitlines()
assert printed == expected, (printed, expected)
print(f"README library block: {len(printed)} lines as documented")
EOF
}

check_capped_construct() {
  # Exit 3 reports failed constructions; each instance gets one line.
  rainbowmatch gen --kind random --n 4 --left 7 --right 6 --count 30 --out "$tmp/n4.instances"
  for policy in maxdrain lastvertex; do
    expect_exit 3 rainbowmatch construct --strategy backtrack --policy "$policy" --max-iters 40 \
      --in "$tmp/n4.instances" --out "$tmp/n4.$policy.construct"
    test "$(wc -l < "$tmp/n4.$policy.construct")" -eq 30
  done
}

check_first_feasible() {
  # FirstFeasible stops inside the search, at its first candidate, the
  # one backtracking tries first.  Every instance it matches,
  # backtracking matches with the same matching and steps; none of
  # these 100 is matched, so the check also compares that candidate,
  # the H5 witness, wherever backtracking fails too.
  rainbowmatch gen --kind random --n 4 --left 7 --right 6 --seed 0 --count 100 --out "$tmp/ff.instances"
  for strategy in first backtrack; do
    expect_exit 0,3 rainbowmatch construct --strategy "$strategy" --in "$tmp/ff.instances" \
      --out "$tmp/ff.$strategy"
    test "$(wc -l < "$tmp/ff.$strategy")" -eq 100
  done
  python3 - "$tmp/ff.first" "$tmp/ff.backtrack" <<'EOF'
import json, sys
first, back = ([json.loads(line) for line in open(path)] for path in sys.argv[1:])
compared = 0
for f, b in zip(first, back):
    if f["status"] == "matched":
        want = ("matched", f["matching"], f["steps"])
        assert (b["status"], b["matching"], b["steps"]) == want, f["digest"]
    elif f["candidate"] is not None and b["status"] != "matched":
        assert (b["candidate"], b["steps"]) == (f["candidate"], f["steps"]), f["digest"]
    else:
        continue
    compared += 1
assert compared > 0
print(f"{compared} of {len(first)} FirstFeasible outcomes are backtracking's first path")
EOF
}

check_malformed_input() {
  # A line nested past the JSON decoder's recursion limit, a violated
  # record naming an unknown hypothesis, and a spec too small for a
  # color class of n + 1 edges, refused before gen opens its output;
  # then flags gen and check would not read: an --in, a --seed
  # beside --kind enumerate, and check's --count beside it; reduce's
  # and shift's --out and --trace naming one file, which the outputs
  # and trace entries would interleave in; a negative seed, which
  # random.Random would read as its absolute value; last replay's
  # records named as its output, which the report would overwrite.
  python3 -c "print('[' * 200000)" | expect_exit 2 rainbowmatch validate
  echo '{"hyp":"H9","verdict":"violated","witness":{"instance":{"n":1,"left":2,"right":2,"edges":[]}}}' \
    | expect_exit 2 rainbowmatch replay
  echo kept > "$tmp/gen.out"
  rainbowmatch gen --kind random --n 3 --left 6 --right 5 --count 3 --out "$tmp/three.jsonl"
  for flags in "gen --kind enumerate --n 2 --left 2 --right 3" \
               "gen --kind random --n 2 --left 3 --right 3 --in $tmp/gen.out" \
               "gen --kind enumerate --n 2 --seed 1" \
               "check --kind random --n 2 --left 3 --right 3 --in $tmp/gen.out" \
               "check --kind enumerate --n 2 --seed 1" \
               "check --kind enumerate --n 2 --left 3 --right 3 --count 5" \
               "reduce --in $tmp/three.jsonl --trace $tmp/gen.out" \
               "shift --pivot 0 --donor 1 --in $tmp/three.jsonl --trace $tmp/gen.out"; do
    # shellcheck disable=SC2086
    expect_exit 2 rainbowmatch $flags --out "$tmp/gen.out"
    test "$(cat "$tmp/gen.out")" = kept
  done
  for flags in "gen --kind random --n 3 --left 6 --right 5 --seed -1" \
               "check --kind latin --order 4 --seed -1"; do
    # shellcheck disable=SC2086
    expect_exit 2 rainbowmatch $flags > "$tmp/seed.out"
    test ! -s "$tmp/seed.out"
  done
  rainbowmatch check --kind random --n 2 --left 3 --right 3 --count 5 \
    --records "$tmp/replay.jsonl" > /dev/null
  cp "$tmp/replay.jsonl" "$tmp/replay.kept"
  expect_exit 2 rainbowmatch replay --in "$tmp/replay.jsonl" --out "$tmp/replay.jsonl"
  cmp "$tmp/replay.jsonl" "$tmp/replay.kept"
}

check_huge_indices() {
  # Used vertices are bits of an int: a bit per declared vertex would
  # exhaust the address space below.  reduce must compact the right
  # side of $latin onto its four used vertices.  A CONJ record with one
  # edge per color is outside the hypotheses' domain, so replay refuses it.
  # minimize shrinks seed 1 of n=3 6x5 with left vertex 5 relabeled
  # 999999 on a declared side of 10^6, so it must not visit every
  # declared vertex: it returns the one compaction, 5x5.
  ulimit -v 1000000
  huge='{"n":1,"left":100000000000,"right":2,"edges":[[99999999999,0,0],[0,1,0]]}'
  latin='{"n":3,"left":4,"right":100000000001,"edges":[[0,100000000000,0],[1,2,0],[2,1,0],[3,0,0],[0,2,1],[1,0,1],[2,100000000000,1],[3,1,1],[0,1,2],[1,100000000000,2],[2,0,2],[3,2,2]]}'
  conj='{"hyp":"CONJ","verdict":"violated","witness":{"instance":{"n":2,"left":3,"right":3,"edges":[[0,0,0],[0,0,1]]}}}'
  shrink='{"n":3,"left":1000000,"right":5,"edges":[[0,0,0],[1,3,0],[4,1,0],[999999,2,0],[0,3,1],[1,0,1],[3,1,1],[999999,2,1],[0,1,2],[1,0,2],[3,4,2],[4,3,2]]}'
  echo "$huge" | expect_exit 0 rainbowmatch solve
  echo "$latin" | expect_exit 0 rainbowmatch reduce --emit record > "$tmp/reduce.out"
  grep -qF '"right_map":[0,1,2,100000000000]' "$tmp/reduce.out"
  echo "$latin" | expect_exit 0,3 rainbowmatch construct --strategy backtrack
  echo "$conj" | expect_exit 2 rainbowmatch replay
  echo "$shrink" | expect_exit 0 timeout 60 rainbowmatch minimize --hyp H4 > "$tmp/minimize.out"
  grep -qF '"left":5,"right":5' "$tmp/minimize.out"
}

check_experiment_battery() {
  # Tier-1 covers only the script's usage errors; this is a real run.
  python3 scripts/run_campaigns.py --out-dir "$tmp/rc" --trials 200 --latin-trials 20 --workers 2
  for records in "$tmp"/rc/*.jsonl; do
    replayed "$records"
  done
}

check_deep_searches() {
  # The one CLI and process-pool run where construct skips doomed peels
  # below the top level, which takes n >= 4.  The search has no budget,
  # so no n=5 H4 verdict may be inconclusive: seed 20 runs 52 peels.
  rainbowmatch check --kind random --n 5 --left 8 --right 7 --seed 0 --count 30 \
    --workers 2 --records "$tmp/n5.jsonl" --out "$tmp/n5.summary"
  rainbowmatch check --kind random --n 4 --left 7 --right 6 --seed 0 --count 100 \
    --workers 2 --records "$tmp/n4.jsonl" --out "$tmp/n4.summary"
  grep '"hyp":"H4"' "$tmp/n5.summary" | grep -q '"inconclusive":0,'
  replayed "$tmp/n5.jsonl"
  replayed "$tmp/n4.jsonl"
}

check_four_peels() {
  # n = 6: construct peels four levels above the n = 2 base; 4 of these
  # 20 searches match, 16 fail (exit 3).
  rainbowmatch gen --kind random --n 6 --left 9 --right 8 --count 20 \
    | expect_exit 3 rainbowmatch construct --strategy backtrack > "$tmp/n6.construct"
  test "$(wc -l < "$tmp/n6.construct")" -eq 20
  test "$(grep -c '"status":"matched"' "$tmp/n6.construct")" -eq 4
  rainbowmatch check --kind random --n 6 --left 9 --right 8 --count 20 --hyp H4 --hyp H5 \
    --records "$tmp/n6.jsonl" --out "$tmp/n6.summary"
  replayed "$tmp/n6.jsonl"
}

check_five_peels() {
  # n = 7 is the one size run anywhere where construct peels five levels
  # above the n = 2 base; 2 of these 10 searches match, 8 fail (exit 3).
  rainbowmatch gen --kind random --n 7 --left 10 --right 9 --count 10 \
    | expect_exit 3 rainbowmatch construct --strategy backtrack > "$tmp/n7.construct"
  test "$(wc -l < "$tmp/n7.construct")" -eq 10
  test "$(grep -c '"status":"matched"' "$tmp/n7.construct")" -eq 2
  rainbowmatch check --kind random --n 7 --left 10 --right 9 --count 10 --hyp H4 --hyp H5 \
    --records "$tmp/n7.jsonl" --out "$tmp/n7.summary"
  replayed "$tmp/n7.jsonl"
}

check_iteration_cap() {
  # Under --max-iters 0 no reduction takes a step, so every H4 search
  # stops at the cap and none may be called violated.
  rainbowmatch check --kind random --n 4 --left 7 --right 6 --count 50 --hyp H4 \
    --max-iters 0 --records "$tmp/iters0.jsonl" --out "$tmp/iters0.summary"
  grep -q '"violated":0,' "$tmp/iters0.summary"
  grep -q '"inconclusive":50,' "$tmp/iters0.summary"
}

check_capped_campaigns() {
  # An enumeration cut part-way through its one spec, and two random
  # streams longer than their budget, the second 100 times longer, so
  # that the pool is handed only the specs the cap can use; records
  # and summaries are compared without their "ms" timing.
  strip='import json, sys
for line in sys.stdin:
    d = json.loads(line); d.pop("ms"); print(json.dumps(d))'
  for w in 1 2; do
    rainbowmatch check --kind enumerate --n 2 --left 3 --right 3 --budget 10 \
      --workers "$w" --records "$tmp/enum-$w.jsonl" --out "$tmp/enum-$w.summary"
    rainbowmatch check --kind random --n 3 --left 6 --right 5 --count 50 --budget 20 \
      --workers "$w" --records "$tmp/random-$w.jsonl" --out "$tmp/random-$w.summary"
    rainbowmatch check --kind random --n 4 --left 7 --right 6 --count 2000 --budget 20 \
      --hyp H4 --workers "$w" --records "$tmp/long-$w.jsonl" --out "$tmp/long-$w.summary"
  done
  for out in enum.jsonl enum.summary random.jsonl random.summary long.jsonl long.summary; do
    diff <(python3 -c "$strip" < "$tmp/${out/./-1.}") \
      <(python3 -c "$strip" < "$tmp/${out/./-2.}")
  done
  for name in enum random long; do grep -q '"truncated":true' "$tmp/$name-1.summary"; done
}

# shellcheck disable=SC2046
[ $# -gt 0 ] || set -- $(sed -n 's/^check_\([a-z0-9_]*\)() {$/\1/p' scripts/ci_checks.sh)
root=$(mktemp -d)
trap 'rm -rf "$root"' EXIT
for name; do
  echo "== $name"
  (tmp=$(mktemp -d "$root/$name.XXXXXX"); "check_$name")
done
