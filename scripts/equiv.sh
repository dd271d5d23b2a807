#!/usr/bin/env bash
# equiv.sh — output-equivalence check of the working tree against a base
# revision. Builds the graphpim CLI (and the examples) once from
# `git archive BASE` and once from the working tree, runs both builds on
# the same commands, and cmp's every stdout, stderr and exit-code pair.
# Differences are printed as unified diffs; the exit status is 1 if any
# pair differs.
#
# Usage: bash scripts/equiv.sh BASE [quick|all]
#
#   quick  `run -quick -q -format json <id>` for every `list` id, with and
#          without -check, plus `run -quick -q -format json -mem M all`
#          for M in ddr, lpddr, vault.
#   all    (default) quick, plus `workload` at default scale for
#          {BFS,PRank,SpMV} x {baseline,upei,graphpim}, BFS with
#          -policy auto, -mem vault, -mem ddr and -quick, and
#          every examples/ program except the sweep.
#
# EQUIVDIR (default $TMPDIR/graphpim-equiv) holds the builds and outputs.
set -euo pipefail

base=${1:?usage: equiv.sh BASE [quick|all]}
scope=${2:-all}
case $scope in quick | all) ;; *)
	echo "equiv.sh: scope must be quick or all, not $scope" >&2
	exit 2
	;;
esac

root=$(git rev-parse --show-toplevel)
dir=${EQUIVDIR:-${TMPDIR:-/tmp}/graphpim-equiv}
rm -rf "$dir"
mkdir -p "$dir/src" "$dir/base" "$dir/head" "$dir/out"
git -C "$root" archive "$base" | tar -x -C "$dir/src"

examples=(quickstart analytical fraud recommender)
build() { # build SRC BIN
	(cd "$1" && go build -o "$2/graphpim" ./cmd/graphpim)
	if [ "$scope" = all ]; then
		for ex in "${examples[@]}"; do
			(cd "$1" && go build -o "$2/$ex" "./examples/$ex")
		done
	fi
}
build "$dir/src" "$dir/base"
build "$root" "$dir/head"

fail=0
# check NAME PROGRAM ARGS... runs PROGRAM from both builds and compares.
check() {
	local name=$1 prog=$2
	shift 2
	local side
	for side in base head; do
		set +e
		"$dir/$side/$prog" "$@" >"$dir/out/$name.$side.out" 2>"$dir/out/$name.$side.err"
		echo $? >"$dir/out/$name.$side.code"
		set -e
	done
	local ext same=1
	for ext in out err code; do
		if ! cmp -s "$dir/out/$name.base.$ext" "$dir/out/$name.head.$ext"; then
			same=0
			diff -u "$dir/out/$name.base.$ext" "$dir/out/$name.head.$ext" || true
		fi
	done
	if [ $same = 1 ]; then
		echo "equiv: same   $name"
	else
		echo "equiv: DIFFER $name"
		fail=1
	fi
}

check list graphpim list
for id in $("$dir/base/graphpim" list | awk '{print $1}'); do
	check "run-$id" graphpim run -quick -q -format json "$id"
	check "run-check-$id" graphpim run -quick -q -format json -check "$id"
done
for m in ddr lpddr vault; do
	check "run-mem-$m" graphpim run -quick -q -format json -mem "$m" all
done

if [ "$scope" = all ]; then
	for w in BFS PRank SpMV; do
		for c in baseline upei graphpim; do
			check "workload-$w-$c" graphpim workload -config "$c" "$w"
		done
	done
	check workload-BFS-auto graphpim workload -policy auto BFS
	check workload-BFS-vault graphpim workload -mem vault BFS
	check workload-BFS-ddr graphpim workload -mem ddr BFS
	check workload-BFS-quick graphpim workload -quick BFS
	for ex in "${examples[@]}"; do
		check "example-$ex" "$ex"
	done
fi

if [ $fail = 1 ]; then
	echo "equiv: outputs differ from $base (see diffs above)"
	exit 1
fi
echo "equiv: every output identical to $base"
