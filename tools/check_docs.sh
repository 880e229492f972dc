#!/usr/bin/env bash
# Documentation-coherence gate. Three checks:
#
#   1. Lint rule ids are bidirectionally coherent: every id (R1, R2,
#      ...) cited in docs/ or DESIGN.md §10 exists in
#      tools/meteo_lint.py's RULES table, and every id RULES defines
#      is documented in DESIGN.md's rule catalog.
#   2. Every dotted series token in docs/OBSERVABILITY.md names a real
#      metric/label string in src/obs/names.hpp (stale-doc direction;
#      check 3 walks code->doc).
#   3. Every quoted string in src/obs/names.hpp (metric names, label
#      keys, and the label values listed in its comments) appears in
#      docs/OBSERVABILITY.md, so a metric cannot land undocumented.
#
# Run from anywhere; tier-1 (tools/run_tier1.sh) fails on any drift.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

fail=0
problem() {
  echo "check_docs: $*" >&2
  fail=1
}

for f in docs/PERFORMANCE.md docs/ARCHITECTURE.md docs/OBSERVABILITY.md; do
  [[ -f "$f" ]] || problem "missing ${f}"
done
[[ ${fail} -eq 0 ]] || { echo "check_docs: FAILED" >&2; exit 1; }

# --- 1. lint rule ids (bidirectional) ----------------------------------------
# docs -> code: every rule id a doc cites must exist in the RULES table.
mapfile -t rule_ids < <(grep -rhoE '\bR[0-9]+\b' docs/*.md DESIGN.md | sort -u)
for r in "${rule_ids[@]}"; do
  if ! grep -qE "^\s*\"${r}\":" tools/meteo_lint.py; then
    problem "docs cite lint rule ${r} but tools/meteo_lint.py does not define it"
  fi
done
# code -> docs: every rule RULES defines must have a catalog row in
# DESIGN.md §10 (`| R<n> |` table syntax), so a new rule cannot land
# undocumented.
mapfile -t defined_rules < <(grep -oE '^\s*"R[0-9]+":' tools/meteo_lint.py \
  | grep -oE 'R[0-9]+' | sort -u)
if [[ ${#defined_rules[@]} -eq 0 ]]; then
  problem "extracted no rule ids from tools/meteo_lint.py (pattern drift?)"
fi
for r in "${defined_rules[@]}"; do
  if ! grep -qE "^\| ${r} \|" DESIGN.md; then
    problem "tools/meteo_lint.py defines rule ${r} but DESIGN.md's rule catalog has no | ${r} | row"
  fi
done

# Dotted lowercase tokens (`op.count`, `epoch.current`, ...) — the shape
# of metric series. File names are excluded by rejecting anything ending
# in a known source/doc extension.
extract_dotted() {
  grep -hoE '`[a-z_]+(\.[a-z_]+)+`' "$1" | tr -d '`' \
    | grep -vE '\.(md|sh|py|hpp|cpp|json|txt|cmake)$' | sort -u
}

# --- 2. metric series named in OBSERVABILITY.md ------------------------------
mapfile -t obs_tokens < <(extract_dotted docs/OBSERVABILITY.md || true)
for t in "${obs_tokens[@]}"; do
  if ! grep -qF "\"${t}\"" src/obs/names.hpp; then
    problem "docs/OBSERVABILITY.md names series '${t}' which is not in" \
            "src/obs/names.hpp"
  fi
done

# --- 3. names.hpp strings documented in OBSERVABILITY.md --------------------
mapfile -t names < <(grep -o '"[^"]\+"' src/obs/names.hpp | tr -d '"' | sort -u)
if [[ ${#names[@]} -eq 0 ]]; then
  problem "extracted no names from src/obs/names.hpp (pattern drift?)"
fi
for name in "${names[@]}"; do
  if ! grep -qF -- "${name}" docs/OBSERVABILITY.md; then
    problem "'${name}' (src/obs/names.hpp) is not documented in" \
            "docs/OBSERVABILITY.md"
  fi
done

if [[ ${fail} -ne 0 ]]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: ok (${#rule_ids[@]} lint rules, ${#obs_tokens[@]}" \
     "series tokens, ${#names[@]} names.hpp strings)"
