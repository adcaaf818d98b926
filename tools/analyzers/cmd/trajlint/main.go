// Trajlint is the repo's static-analysis suite: eight go/analysis analyzers
// that enforce the reproduction's project-specific invariants — nil-safe
// instrumentation handles (nilguard), bit-deterministic work in the gated
// packages (determinism), tolerance-based float comparison in the numeric
// packages (floatcmp), leak-free file lifecycles (closepair),
// first-parameter, never-stored context.Context plumbing in the
// cancellable packages (ctxfirst), and the concurrency-safety suite: lock
// release and self-deadlock rules (lockdiscipline), joined goroutines
// (goleak) and bounded channel sends (sendbound). Lock and atomic copies
// are go vet's copylocks check.
//
// It is a unitchecker binary, driven by the go command:
//
//	go build -o bin/trajlint ./tools/analyzers/cmd/trajlint
//	go vet -vettool=$(pwd)/bin/trajlint ./...
//
// Suppress an individual finding with a documented directive:
//
//	//trajlint:allow <analyzer> -- <reason>
//
// See README.md ("Static analysis") and each analyzer's package doc.
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"trajpattern/tools/analyzers/closepair"
	"trajpattern/tools/analyzers/ctxfirst"
	"trajpattern/tools/analyzers/determinism"
	"trajpattern/tools/analyzers/floatcmp"
	"trajpattern/tools/analyzers/goleak"
	"trajpattern/tools/analyzers/lockdiscipline"
	"trajpattern/tools/analyzers/nilguard"
	"trajpattern/tools/analyzers/sendbound"
)

func main() {
	unitchecker.Main(
		nilguard.Analyzer,
		determinism.Analyzer,
		floatcmp.Analyzer,
		closepair.Analyzer,
		ctxfirst.Analyzer,
		lockdiscipline.Analyzer,
		goleak.Analyzer,
		sendbound.Analyzer,
	)
}
