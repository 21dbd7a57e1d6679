#!/usr/bin/env bash
# Exit codes of the installed `covbvm` console script, run in the current
# directory: a valid config exits 0 with a report; a section that is not a
# JSON object, and a field outside its domain, exit 2 and write nothing.
set -euo pipefail

cfg='"schema_version": 1, "seed": 17, "model": {"mu": [2.0, 1.0], "mult": [1, 2]},
  "prior": {"kind": "inverse_wishart"}'
functional="$cfg, \"command\": \"bvm-functional\", \"functional\": {\"kind\": \"trace\"},
  \"monte_carlo\": {\"posterior_draws\": 1000}"
echo "{$functional, \"data\": {\"n\": 400}}" > good.json
echo "{$functional, \"data\": 5}" > bad-section.json
echo "{$cfg, \"command\": \"contraction\", \"data\": {\"n\": 400}, \"delta_grid\": [0.1, 0.2],
  \"monte_carlo\": {\"replications\": 0}}" > bad-replications.json

covbvm --config good.json --out good
test -f good/report.json
for name in bad-section bad-replications; do
  status=0
  covbvm --config "$name.json" --out "$name" || status=$?
  if [ "$status" -ne 2 ] || [ -e "$name" ]; then
    echo "$name.json: expected exit 2 and no output directory, got $status" >&2
    exit 1
  fi
done
echo "console script exit codes: ok"
