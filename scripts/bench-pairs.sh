#!/usr/bin/env bash
# bench-pairs.sh runs one benchmark workload in alternated pairs, a
# parent commit's ./bench against the working tree's, and summarises
# the five end-to-end metrics BENCHMARK.json declares.
#
#   scripts/bench-pairs.sh PARENT WORKLOAD N SEED [bench flags...]
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=live_paced N=10 SEED=17 [BENCH_ARGS='-smoke --seconds 1']
#
# Each side is built once before any run: the parent from
# `git archive PARENT` unpacked into a temporary directory (so an
# interrupted run leaves nothing registered in the repository), the
# change from the working tree, uncommitted edits included. Both
# binaries run from one working directory and write their archives
# under one shared --workdir inside it, each reading its own side's
# BENCHMARK.json through --spec, with --trace 0 and the given seed: a
# binary run from the temporary directory and one run from the
# repository write to different file systems, and replay_correlate's
# rec/s read 5-12 % apart that way between binaries with identical hot
# code. The order flips every pair (parent first, then change first,
# ...) so a drift of the box during the set does not favour one side. It prints every run's metrics, then
# each side's median [q1, q3] and how many pairs each side won by the
# metric's declared direction. Needs git, go, jq and awk; it edits
# nothing under bench/.
set -euo pipefail

if [ $# -lt 4 ]; then
	echo "usage: $0 PARENT WORKLOAD N SEED [bench flags...]" >&2
	exit 2
fi
parent=$1 workload=$2 n=$3 seed=$4
shift 4

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir "$work/parent"
git -C "$root" archive "$parent" | tar -x -C "$work/parent"
(cd "$work/parent" && go build -o "$work/bench-parent" ./bench)
(cd "$root" && go build -o "$work/bench-change" ./bench)

metrics=$(jq -r '.end_to_end[] | "\(.name) \(.better)"' "$root/BENCHMARK.json")
names=$(echo "$metrics" | awk '{print $1}')

# run SIDE PAIR appends one line "SIDE PAIR name=value ..." to results.
run() {
	local side=$1 pair=$2 spec out
	shift 2
	if [ "$side" = parent ]; then spec=$work/parent/BENCHMARK.json; else spec=$root/BENCHMARK.json; fi
	out=$work/$side-$pair.out
	if ! (cd "$work" && "$work/bench-$side" --spec "$spec" --workdir "$work/runs" --workload "$workload" --seed "$seed" --trace 0 "$@" >"$out" 2>&1); then
		echo "$side run $pair failed:" >&2
		tail -20 "$out" >&2
		exit 1
	fi
	local line
	line=$(tail -1 "$out" | jq -r --arg names "$names" '
		($names | split("\n")) as $ns
		| "attempted=\(.attempted) failed=\(.failed) correct=\(.correct) "
		  + ([$ns[] as $k | "\($k)=\(.metrics[$k].value)"] | join(" "))')
	echo "$side $pair $line" | tee -a "$work/results"
}

for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then
		run parent "$i" "$@"
		run change "$i" "$@"
	else
		run change "$i" "$@"
		run parent "$i" "$@"
	fi
done

echo
echo "$workload, seed $seed, $n pairs: $parent vs working tree"
printf '%-16s %-34s %-34s %s\n' metric parent change 'pairs won (parent/change/tie)'
echo "$metrics" | while read -r name better; do
	awk -v name="$name" -v better="$better" '
		function quart(v, k, q,   pos, lo) {
			pos = (k - 1) * q + 1; lo = int(pos)
			return lo >= k ? v[k] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
		}
		function sorted(v, k,   i, j, t) {
			for (i = 2; i <= k; i++)
				for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
		}
		{
			for (f = 3; f <= NF; f++) {
				split($f, kv, "=")
				if (kv[1] != name) continue
				if ($1 == "parent") { p[$2] = kv[2]; ps[++np] = kv[2] } else { c[$2] = kv[2]; cs[++nc] = kv[2] }
			}
		}
		END {
			sorted(ps, np); sorted(cs, nc)
			for (i in p) {
				if (!(i in c)) continue
				d = c[i] - p[i]
				if (better == "lower") d = -d
				if (d > 0) cw++; else if (d < 0) pw++; else tie++
			}
			printf "%-16s %-34s %-34s %d/%d/%d\n", name,
				sprintf("%.5g [%.5g, %.5g]", quart(ps, np, .5), quart(ps, np, .25), quart(ps, np, .75)),
				sprintf("%.5g [%.5g, %.5g]", quart(cs, nc, .5), quart(cs, nc, .25), quart(cs, nc, .75)),
				pw, cw, tie
		}' "$work/results"
done
