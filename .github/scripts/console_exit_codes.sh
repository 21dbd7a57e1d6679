#!/usr/bin/env bash
# Exit codes of the installed `covbvm` console script, run in the current
# directory: a valid `bvm-functional` config exits 0 with a report, and a
# valid `bvm-projector` config exits 0 with a report that says whether the
# theorem's precondition held; a section that is not a JSON object, a field
# outside its domain, a model whose `mu` and `mult` differ in length, and a
# model with an empty spectrum exit 2 and write nothing.
set -euo pipefail

cfg='"schema_version": 1, "seed": 17, "prior": {"kind": "inverse_wishart"}'
model='"model": {"mu": [2.0, 1.0], "mult": [1, 2]}'
functional="$cfg, \"command\": \"bvm-functional\", \"functional\": {\"kind\": \"trace\"},
  \"monte_carlo\": {\"posterior_draws\": 1000}"
echo "{$functional, $model, \"data\": {\"n\": 400}}" > good.json
echo "{$cfg, $model, \"command\": \"bvm-projector\", \"data\": {\"n\": 400},
  \"selection\": {\"s_minus\": 1, \"s_plus\": 1}, \"l_star_j\": 1.0,
  \"monte_carlo\": {\"posterior_draws\": 1000}}" > good-projector.json
echo "{$functional, $model, \"data\": 5}" > bad-section.json
echo "{$cfg, $model, \"command\": \"contraction\", \"data\": {\"n\": 400}, \"delta_grid\": [0.1, 0.2],
  \"monte_carlo\": {\"replications\": 0}}" > bad-replications.json
echo "{$functional, \"model\": {\"mu\": [2.0, 1.0], \"mult\": [1]}, \"data\": {\"n\": 400}}" > bad-model.json
echo "{$functional, \"model\": {\"mu\": [], \"mult\": []}, \"data\": {\"n\": 400}}" > empty-model.json

covbvm --config good.json --out good
test -f good/report.json
covbvm --config good-projector.json --out good-projector
grep -q '"precondition_ok"' good-projector/report.json
for name in bad-section bad-replications bad-model empty-model; do
  status=0
  covbvm --config "$name.json" --out "$name" || status=$?
  if [ "$status" -ne 2 ] || [ -e "$name" ]; then
    echo "$name.json: expected exit 2 and no output directory, got $status" >&2
    exit 1
  fi
done
echo "console script exit codes: ok"
