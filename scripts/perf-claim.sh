#!/usr/bin/env bash
# perf-claim.sh — the perf claim protocol of ROADMAP "Standing gates" as
# one command (make perf-claim WORKLOAD=… METRIC=… BASE=…).
#
# It builds the perf binary twice — from the committed files of BASE
# (git archive, nothing is left behind in .git) and from the working
# tree — after making sure both sides have the same perf/ and
# BENCHMARK.json (make perf-frozen), then
#
#   1. runs every workload once per seed on each side, back to back,
#      alternating which side goes first (>= 10 seeds: >= 10 pairs);
#   2. runs every workload once more per side with --trace 1;
#   3. judges the claim on the named end-to-end metric of the named
#      workload: change better in >= 9 of 10 pairs, and the medians
#      apart by more than the parent's interquartile distance;
#   4. runs `perf -compare parent.json change.json` over all records and
#      checks that the simulated counters repeat exactly;
#
# and writes all of it — pairs, medians, quartiles, wins, verdict, the
# compare table, the counters, every record — as one JSON file in the
# shape of results/BENCH_pr13.json and BENCH_pr15.json. About 45 minutes
# for ten seeds. --dry-run does everything but the measuring: one
# 1-second pair of the claimed workload, no traced runs, result on
# stdout; `make ci` runs it so this script cannot rot.
set -euo pipefail

usage() {
	cat >&2 <<'EOF'
usage: scripts/perf-claim.sh --workload W --metric M --base REF [options]
  --seeds "1 2 …"   seeds to pair on, at least 10 (default "1 2 3 4 5 6 7 8 9 10");
                    name at least one seed not used while developing
  --seconds N       measured window per run (default 10)
  --pr N            PR number: output defaults to results/BENCH_prN.json
  --title T         title recorded in the file
  --out FILE        where to write the record
  --dry-run         check, build, one 1-second pair, print to stdout
EOF
	exit 2
}

die() { echo "perf-claim: $*" >&2; exit 1; }

workload="" metric="" base="" seeds="1 2 3 4 5 6 7 8 9 10" seconds=10 pr="" title="" out="" dry=0
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload=${2-}; shift 2 ;;
	--metric) metric=${2-}; shift 2 ;;
	--base) base=${2-}; shift 2 ;;
	--seeds) seeds=${2-}; shift 2 ;;
	--seconds) seconds=${2-}; shift 2 ;;
	--pr) pr=${2-}; shift 2 ;;
	--title) title=${2-}; shift 2 ;;
	--out) out=${2-}; shift 2 ;;
	--dry-run) dry=1; shift ;;
	*) usage ;;
	esac
done
[ -n "$workload" ] && [ -n "$metric" ] && [ -n "$base" ] || usage
for tool in git go jq tar; do
	command -v "$tool" >/dev/null || die "$tool is required"
done

cd "$(git rev-parse --show-toplevel)"
base_commit=$(git rev-parse --verify --quiet "$base^{commit}") || die "no such commit: $base"

# The benchmark judges a change against its parent: both must run the
# same benchmark.
git diff --quiet "$base_commit" -- perf BENCHMARK.json ||
	die "perf/ or BENCHMARK.json differ from $base (make perf-frozen): only a [benchmark] PR may touch them"
[ -z "$(git ls-files --others --exclude-standard -- perf)" ] || die "untracked files under perf/"

read -r -a seed_list <<<"$seeds"
if [ "$dry" = 1 ]; then
	seed_list=("${seed_list[0]}")
	seconds=1
elif [ "${#seed_list[@]}" -lt 10 ]; then
	die "the protocol needs at least 10 pairs; got ${#seed_list[@]} seeds"
fi
if [ -z "$out" ]; then
	out=results/BENCH_claim.json
	[ -z "$pr" ] || out=results/BENCH_pr$pr.json
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base" "$work/run/parent" "$work/run/change"
git archive "$base_commit" | tar -x -C "$work/base"
echo "perf-claim: building parent ($(git rev-parse --short "$base_commit")) and change (working tree)" >&2
go -C "$work/base/perf" build -o "$work/perf_parent" .
go -C perf build -o "$work/perf_change" .

manifest=$("$work/perf_change" -manifest)
[ "$("$work/perf_parent" -manifest)" = "$manifest" ] || die "the two binaries print different manifests"
jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' <<<"$manifest" >/dev/null ||
	die "unknown workload $workload; the manifest has: $(jq -r '[.workloads[].name] | join(" ")' <<<"$manifest")"
jq -e --arg m "$metric" 'any(.end_to_end[]; .name == $m)' <<<"$manifest" >/dev/null ||
	die "unknown end-to-end metric $metric; the manifest has: $(jq -r '[.end_to_end[].name] | join(" ")' <<<"$manifest")"
mapfile -t workloads < <(jq -r '.workloads[].name' <<<"$manifest")
[ "$dry" = 0 ] || workloads=("$workload")

# run SIDE WORKLOAD SEED TRACE appends the run's record — the result
# line the binary prints last, tagged the way `perf -out` tags it — to
# the side's record file.
run() {
	local side=$1 wl=$2 seed=$3 trace=$4 line
	echo "perf-claim: $side $wl seed=$seed trace=$trace" >&2
	line=$(cd "$work/run/$side" && "$work/perf_$side" --workload "$wl" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1) ||
		die "$side run failed: $wl seed=$seed trace=$trace"
	jq -c --arg w "$wl" --argjson s "$seed" --argjson t "$trace" '{workload: $w, seed: $s, trace: $t} + .' <<<"$line" >>"$work/$side.jsonl"
}

i=0
for seed in "${seed_list[@]}"; do
	order=(parent change)
	[ $((i % 2)) = 0 ] || order=(change parent)
	for wl in "${workloads[@]}"; do
		for side in "${order[@]}"; do run "$side" "$wl" "$seed" 0; done
	done
	echo "${order[0]}" >>"$work/first"
	i=$((i + 1))
done
if [ "$dry" = 0 ]; then
	for wl in "${workloads[@]}"; do
		for side in parent change; do run "$side" "$wl" "${seed_list[0]}" 1; done
	done
fi
jq -s . "$work/parent.jsonl" >"$work/parent.json"
jq -s . "$work/change.jsonl" >"$work/change.json"

compare_status=0
"$work/perf_change" -compare "$work/parent.json" "$work/change.json" >"$work/compare.txt" 2>&1 || compare_status=$?

# The simulated counters that must repeat exactly per seed for a change
# that claims not to alter behaviour (ROADMAP, Standing gates).
counters='["sim.events_per_node_slot","sim_datagrams_per_node_slot","core.updates_applied","core.retries","core.failovers","chord.evictions","core.rounds_off_pct","imbalance_factor"]'

report=$(jq -n \
	--slurpfile parent "$work/parent.json" --slurpfile change "$work/change.json" \
	--rawfile compare "$work/compare.txt" --rawfile first "$work/first" \
	--argjson manifest "$manifest" --argjson counters "$counters" \
	--arg workload "$workload" --arg metric "$metric" --arg pr "$pr" --arg title "$title" \
	--arg parent_commit "$base_commit" --arg seeds "${seed_list[*]}" --argjson seconds "$seconds" \
	--arg host "$(nproc) cores, GOMAXPROCS=1 (set by perf), $(go env GOVERSION) $(go env GOOS)/$(go env GOARCH)" \
	--argjson compare_status "$compare_status" --argjson dry "$dry" '
def median: sort | if length == 0 then null elif length % 2 == 1 then .[length / 2 | floor] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
# Q1 and Q3 as perf/stats.go and Python statistics.quantiles(n=4) cut them.
def quartile($i): sort | length as $n
	| if $n < 2 then .[0] else
		([([($i * ($n + 1) / 4 | floor), 1] | max), $n - 1] | min) as $j
		| ($i * ($n + 1) - $j * 4) as $d
		| (.[$j - 1] * (4 - $d) + .[$j] * $d) / 4
	end;
def runs($recs; $w; $t): [$recs[] | select(.workload == $w and .trace == $t)];
def values($recs; $w; $m): [runs($recs; $w; 0)[] | .metrics[$m].value];
$parent[0] as $p | $change[0] as $c
| ($manifest.end_to_end[] | select(.name == $metric)) as $mdef
| ($first | split("\n") | map(select(. != ""))) as $firsts
| values($p; $workload; $metric) as $pv | values($c; $workload; $metric) as $cv
| ([range(0; $pv | length) | select(if $mdef.better == "lower" then $cv[.] < $pv[.] else $cv[.] > $pv[.] end)] | length) as $wins
| (($pv | quartile(3)) - ($pv | quartile(1))) as $iqr
| (($pv | median) - ($cv | median) | if $mdef.better == "lower" then . else -. end) as $gain
| {
	pr: (if $pr == "" then null else ($pr | tonumber) end),
	title: $title,
	parent_commit: $parent_commit,
	host: $host,
	method: "scripts/perf-claim.sh: parent built from `git archive` of parent_commit, change from the working tree, perf/ and BENCHMARK.json identical on both sides; for every seed (\($seeds)) and every workload one parent run and one change run back to back (--seconds \($seconds) --trace 0), alternating by seed which side goes first; then one traced run (--trace 1) of the first seed per workload and side. compare_table is `perf -compare parent.json change.json` over these records, verbatim.",
	dry_run: ($dry == 1),
	claim: {
		workload: $workload, metric: $metric, unit: $mdef.unit, better: $mdef.better,
		parent_median: ($pv | median), parent_q1: ($pv | quartile(1)), parent_q3: ($pv | quartile(3)),
		change_median: ($cv | median), change_q1: ($cv | quartile(1)), change_q3: ($cv | quartile(3)),
		change_wins: $wins, pairs_run: ($pv | length),
		median_difference: $gain, parent_interquartile_distance: $iqr,
		improvement_pct: (if ($pv | median) then 100 * $gain / ($pv | median) else null end),
		verdict: (if ($pv | length) >= 10 and $wins * 10 >= ($pv | length) * 9 and $iqr != null and $gain > $iqr
			then "met: change wins \($wins)/\($pv | length) pairs; medians differ by \($gain / $iqr * 10 | round / 10)x the parent interquartile distance"
			else "NOT met: change wins \($wins)/\($pv | length) pairs; median gain \($gain) against a parent interquartile distance of \($iqr)" end),
		pairs: [range(0; $pv | length) as $k | runs($p; $workload; 0)[$k] as $prec | runs($c; $workload; 0)[$k] as $crec | {
			seed: $prec.seed, first: $firsts[$k],
			parent: ($prec.metrics | map_values(.value)), change: ($crec.metrics | map_values(.value)),
			failed: {parent: [$prec.failed, $prec.attempted], change: [$crec.failed, $crec.attempted]}
		}]
	},
	end_to_end: ([$manifest.workloads[].name as $w | {key: $w, value: ([$manifest.end_to_end[].name as $m
		| values($p; $w; $m) as $a | values($c; $w; $m) as $b | select(($a | length) > 0)
		| {key: $m, value: {parent_median: ($a | median), parent_q1: ($a | quartile(1)), parent_q3: ($a | quartile(3)),
			change_median: ($b | median), change_q1: ($b | quartile(1)), change_q3: ($b | quartile(3)), parent: $a, change: $b}}] | from_entries)}]
		| map(select(.value != {})) | from_entries),
	failed_of_attempted: ([$manifest.workloads[].name as $w | select((runs($p; $w; 0) | length) > 0) | {key: $w, value: {
		parent: [([runs($p; $w; 0)[].failed] | add), ([runs($p; $w; 0)[].attempted] | add)],
		change: [([runs($c; $w; 0)[].failed] | add), ([runs($c; $w; 0)[].attempted] | add)]}}] | from_entries),
	simulated_counters_repeat_exactly: ([$manifest.workloads[].name as $w | select($w | startswith("sim-"))
		| runs($p; $w; 1)[0] as $pt | runs($c; $w; 1)[0] as $ct | select($pt != null and $ct != null)
		| {key: $w, value: ([$counters[] as $n | {key: $n, value: {parent: $pt.metrics[$n].value, change: $ct.metrics[$n].value, equal: ($pt.metrics[$n].value == $ct.metrics[$n].value)}}] | from_entries)}] | from_entries),
	per_layer_before_after: ([$manifest.workloads[].name as $w | runs($p; $w; 1)[0] as $pt | runs($c; $w; 1)[0] as $ct | select($pt != null and $ct != null)
		| {key: $w, value: ([$pt.metrics | keys[] as $n
			| {key: $n, value: {parent: $pt.metrics[$n].value, change: $ct.metrics[$n].value}}] | from_entries)}] | from_entries),
	compare_exit_status: $compare_status,
	compare_table: ($compare | split("\n") | map(select(. != ""))),
	parent: $p, change: $c
}')

if [ "$dry" = 1 ]; then
	jq '{dry_run, claim: (.claim | del(.pairs)), compare_exit_status, records: [(.parent | length), (.change | length)]}' <<<"$report"
	echo "perf-claim: dry run ok (nothing written)" >&2
	exit 0
fi
mkdir -p "$(dirname "$out")"
jq --indent 1 . <<<"$report" >"$out"
echo "perf-claim: wrote $out" >&2
jq -r '.claim.verdict' "$out"
jq -e 'all(.simulated_counters_repeat_exactly[][]; .equal)' "$out" >/dev/null ||
	echo "perf-claim: WARNING: simulated counters differ between parent and change" >&2
[ "$compare_status" = 0 ] || echo "perf-claim: WARNING: perf -compare exited $compare_status (see compare_table)" >&2
