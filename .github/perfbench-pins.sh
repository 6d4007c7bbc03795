#!/usr/bin/env bash
# Checks perfbench's deterministic outputs against .github/perfbench-pins.json.
# For every workload at seeds 1 and 2 it runs the traced smoke and compares,
# from the JSON lines it prints, the stream digest, runs and executed ratio
# per campaign, wire bytes per record and store bytes per segment. A change that alters the daemon and
# its offline reproduction the same way passes perfbench's own checks but
# fails here. Timings are not pinned, nor is the board fabrication count,
# which depends on worker interleaving.
#
# Run from the repository root:
#
#	bash .github/perfbench-pins.sh
#
# On a mismatch it prints the diff and exits 1. A change meant to move a
# pinned value replaces the pins file with the "measured" block it prints.
set -euo pipefail

pins=.github/perfbench-pins.json
got=$(mktemp)
trap 'rm -f "$got"' EXIT

for w in fig4-grid vmin-new-board dram-refresh replay; do
	for s in 1 2; do
		bash perfbench/run.sh --workload "$w" --smoke --trace 1 --seed "$s" |
			grep '^{' |
			jq -s --arg w "$w" --arg s "$s" '
				(map(select(.stream_sha256))[0].stream_sha256) as $sha |
				(map(select(.metrics))[0].metrics) as $m |
				{w: $w, s: $s, pins: ({stream_sha256: $sha} + ($m
					| with_entries(select(.key | IN(
						"campaign.runs_per_campaign", "campaign.executed_ratio",
						"wire.bytes_per_record", "store.bytes_per_segment")))
					| map_values(.value)))}'
	done
done | jq -S -s 'reduce .[] as $e ({}; .[$e.w][$e.s] = $e.pins)' > "$got"

if ! diff <(jq -S . "$pins") "$got"; then
	echo "perfbench outputs differ from $pins; measured:" >&2
	cat "$got" >&2
	exit 1
fi
echo "perfbench outputs match $pins"
