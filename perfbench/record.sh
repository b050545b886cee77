#!/usr/bin/env bash
# Re-records perfbench/expected/ from the current source: the true IPCs and
# every operation's output at each recorded seed (1-20 and the held-out
# 2007). Run it from the repository root, only after a change that is meant
# to alter simulation results, and say in the change why the recorded
# outputs moved.
#
#   bash perfbench/record.sh
set -euo pipefail
seeds="$(seq 1 20) 2007"
exp=perfbench/expected
tmp=.bench_build/record
mkdir -p "$tmp"
for w in sampled fig7-fabric strategies; do
	: >"$tmp/$w.tsv"
	for s in $seeds; do
		bash perfbench/run.sh --workload "$w" --seed "$s" --record "$tmp/one.tsv"
		cat "$tmp/one.tsv" >>"$tmp/$w.tsv"
	done
done
# Rows without a seed column are fig7-fabric's true-IPC jobs.
{
	echo "# program	true IPC	cycles	instructions (full-detail run of the first 2M instructions)"
	awk -F'\t' 'NF == 4' "$tmp/fig7-fabric.tsv" | sort -u
} >"$exp/true_ipc.tsv"
for w in sampled fig7-fabric strategies; do
	{
		echo "# seed	op	IPC	cycles	instructions	warm ops	logged records	recon scanned	recon applied"
		awk -F'\t' 'NF == 9' "$tmp/$w.tsv"
	} >"$exp/$w.tsv"
done
