#!/usr/bin/env bash
# check-waivers.sh — the repo's waiver-hygiene gate, consolidated from the
# inline shell that used to live in ci.yml. Run from the repository root.
#
# Enforced invariants:
#   1. The serving and ingest layers stay waiver-free: no
#      `trajlint:allow` anywhere under internal/serve, internal/ingest,
#      or cmd/trajserve. They were written to the analyzer contracts
#      from day one and must stay that way.
#   2. Every waiver in shipped code carries a reason (`-- why`). The
#      directive parser reports reason-less waivers inside analyzed
#      packages; this check extends that to every tracked .go file, so a
#      waiver can't hide in a package an analyzer doesn't cover yet.
#   3. Every waiver names a known analyzer. A typo'd name would silently
#      waive nothing while looking like it waived something.
#   4. The vendored x/tools revision is pinned in exactly one place:
#      tools/analyzers/go.mod. vendor/modules.txt must agree with it.
#
# Analyzer fixture trees (tools/analyzers/*/testdata) are exempt from 2
# and 3: they deliberately contain malformed and unknown-name directives
# to prove the analyzers reject them.

set -euo pipefail

# Keep in sync with cmd/trajlint/main.go and internal/directive.
KNOWN_ANALYZERS="nilguard|determinism|floatcmp|closepair|ctxfirst|lockdiscipline|goleak|sendbound"

fail=0

# 1. serve and ingest packages are waiver-free.
if grep -rn "trajlint:allow" internal/serve internal/ingest cmd/trajserve 2>/dev/null; then
  echo "ERROR: internal/serve, internal/ingest and cmd/trajserve must pass trajlint without waivers" >&2
  fail=1
fi

# Shipped .go files: everything tracked except the analyzer module, whose
# sources and fixtures talk *about* the directive syntax (the parser, its
# docs, and deliberately-malformed test inputs).
mapfile -t shipped < <(git ls-files '*.go' | grep -v '^tools/analyzers/')

# 2. every waiver carries a reason after ` -- `.
if grep -nH "trajlint:allow" "${shipped[@]}" | grep -v "trajlint:allow [a-z]* -- ."; then
  echo "ERROR: reason-less trajlint:allow directive (syntax: //trajlint:allow <name> -- <reason>)" >&2
  fail=1
fi

# 3. every waiver names a known analyzer.
if grep -nH "trajlint:allow" "${shipped[@]}" | grep -vE "trajlint:allow ($KNOWN_ANALYZERS) "; then
  echo "ERROR: trajlint:allow naming an unknown analyzer (known: ${KNOWN_ANALYZERS//|/, })" >&2
  fail=1
fi

# 4. x/tools is pinned in go.mod alone; vendor/modules.txt must match.
pin=$(sed -n 's/^require golang.org\/x\/tools \(.*\)$/\1/p' tools/analyzers/go.mod)
vendored=$(sed -n 's/^# golang.org\/x\/tools \(.*\)$/\1/p' tools/analyzers/vendor/modules.txt)
if [ -z "$pin" ]; then
  echo "ERROR: no golang.org/x/tools require line in tools/analyzers/go.mod" >&2
  fail=1
elif [ "$pin" != "$vendored" ]; then
  echo "ERROR: x/tools pin mismatch: go.mod has '$pin', vendor/modules.txt has '$vendored'" >&2
  echo "       re-vendor so both carry the same revision" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "waiver hygiene OK: serve+ingest waiver-free, all waivers reasoned and known, x/tools pin consistent"
