#!/usr/bin/env bash
# Runs a workload in alternating pairs on two checkouts and compares them.
#
#   bash perfbench/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS OUT_DIR [FIRST_SEED]
#
# PARENT_DIR and CHANGE_DIR are checkouts of the two commits, each with the
# same perfbench/ and BENCHMARK.json (the script refuses otherwise). Pair i
# runs seed FIRST_SEED+i (default 1) on both sides for BENCHMARK.json's
# run_seconds; odd pairs run the change first.
# Run records land in OUT_DIR/parent and OUT_DIR/change, and the comparison
# table in OUT_DIR/compare-WORKLOAD.txt (rows also as JSON beside it).
set -euo pipefail
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
out=$5
first=${6:-1}
for f in perfbench BENCHMARK.json; do
	if ! diff -rq -x .bench_build "$parent/$f" "$change/$f" >/dev/null; then
		echo "pairs.sh: $f differs between the checkouts; use identical benchmark code" >&2
		exit 2
	fi
done
mkdir -p "$out/parent" "$out/change"
out=$(cd "$out" && pwd)
unset CARGO_TARGET_DIR
run() { # side dir seed
	(cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$3" --trace 0 \
		--record "$out/$1/$workload-s$3.json" | tail -n 1)
}
for ((i = 0; i < pairs; i++)); do
	seed=$((first + i))
	if ((i % 2 == 0)); then
		echo "parent $seed $(run parent "$parent" "$seed")"
		echo "change $seed $(run change "$change" "$seed")"
	else
		echo "change $seed $(run change "$change" "$seed")"
		echo "parent $seed $(run parent "$parent" "$seed")"
	fi
done
(cd "$change" && bash perfbench/run.sh compare --parent "$out/parent" --change "$out/change" \
	--out "$out/compare-$workload.json") | tee "$out/compare-$workload.txt"
