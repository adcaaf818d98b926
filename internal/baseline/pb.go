// Package baseline implements the comparison algorithms of the TrajPattern
// paper's evaluation (Section 6):
//
//   - PB, the projection-based top-k NM miner used as the efficiency
//     baseline in Figure 4. It grows prefixes and bounds unspecified
//     positions by each trajectory's best singular log-probability — the
//     deliberately loose bound whose blow-up in k and G the paper analyzes.
//   - MatchMiner, a top-k miner for the unnormalized match measure of [14]
//     (Yang et al., SIGMOD 2002). The match measure keeps the Apriori
//     property, so a level-wise candidate-generation miner with
//     threshold pruning reproduces the output of the border-collapsing
//     algorithm; the sampling machinery of [14] is an optimization of the
//     search control, not of the result set.
//   - Exhaustive, a brute-force enumerator usable as a test oracle on tiny
//     instances.
//
// All three return results in the same deterministic order as core.Mine so
// outputs are directly comparable.
package baseline

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"trajpattern/internal/core"
)

// PBConfig parameterizes the projection-based miner.
type PBConfig struct {
	// K is the number of patterns to mine. Required.
	K int
	// MinLen, when > 1, restricts the answer set to patterns of at least
	// that length (the threshold ω is then maintained over long patterns
	// only, matching the Section 5 variant).
	MinLen int
	// MaxLen caps pattern length; required for termination of the PB
	// bound (without it every prefix remains extensible — exactly the
	// weakness §6.2 describes). Zero means core.DefaultMaxLen.
	MaxLen int
	// Seeds is the singular alphabet. Nil means Scorer.ObservedCells(1).
	Seeds []int
}

// PBStats reports the work done by one PB run.
type PBStats struct {
	PrefixesExpanded int // prefixes that passed the extensibility bound
	PrefixesPruned   int // prefixes cut by the bound
	NMEvaluations    int // patterns scored
}

// PBResult is the output of MinePB.
type PBResult struct {
	Patterns []core.ScoredPattern
	Stats    PBStats
}

// MinePB mines the exact top-k patterns by NM using projection-based
// prefix growth ([13]-style search control applied to the NM measure).
//
// For a prefix A of length i, the NM of any super-pattern A·X of total
// length n is at most Σ_T (logM_A(T) + (n−i)·β_T)/n where β_T is
// trajectory T's best singular log-probability over the alphabet: the max
// of the seeds' log-matches in T, which the seeds' own scan yields. Because
// logM_A(T) ≤ i·β_T, this bound is non-decreasing in n, so its value at
// n = MaxLen is the admissible optimistic bound; a prefix is expanded only
// while that bound reaches the running top-k threshold ω.
func MinePB(s *core.Scorer, cfg PBConfig) (*PBResult, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("baseline: PBConfig.K must be > 0, got %d", cfg.K)
	}
	if cfg.MaxLen == 0 {
		cfg.MaxLen = core.DefaultMaxLen
	}
	if cfg.MaxLen < 1 {
		return nil, fmt.Errorf("baseline: PBConfig.MaxLen must be >= 1")
	}
	if cfg.MinLen < 1 {
		cfg.MinLen = 1
	}
	if cfg.MinLen > cfg.MaxLen {
		return nil, fmt.Errorf("baseline: MinLen %d exceeds MaxLen %d", cfg.MinLen, cfg.MaxLen)
	}
	seeds := cfg.Seeds
	if seeds == nil {
		seeds = s.ObservedCells(1)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("baseline: no seed cells")
	}

	var stats PBStats
	top := newTopK(cfg.K)
	// beta[T] is β_T, folded in by the seeds' scan under betaMu; sumBeta,
	// their sum in trajectory order, is set once that scan returns.
	beta := make([]float64, s.NumTrajectories())
	for ti := range beta {
		beta[ti] = math.Inf(-1)
	}
	var betaMu sync.Mutex
	var sumBeta float64

	// A frame is a scored pattern. sumLogM feeds the bound; nm is the NM
	// PB ranks and reports.
	type frame struct {
		pat     core.Pattern
		sumLogM float64
		nm      float64
	}

	// score makes pat's frame from its per-trajectory best-window
	// log-matches. nm sums logM/m in trajectory order, as Scorer.NM does,
	// so PB reports NM's bits. sumLogM sums each logM taken as (logM/m)·m:
	// the conversion rounds that product before the sum, so no fused
	// multiply-add can change the total's bits.
	score := func(pat core.Pattern, logM []float64) frame {
		f := frame{pat: pat}
		m := float64(len(pat))
		for _, v := range logM {
			q := v / m
			f.nm += q
			f.sumLogM += float64(q * m)
		}
		return f
	}

	admit := func(f frame) {
		if len(f.pat) >= cfg.MinLen {
			top.offer(f.pat, f.nm)
		}
	}

	// extensible reports whether any super-pattern of f could still reach
	// the current threshold.
	extensible := func(f frame) bool {
		i := len(f.pat)
		if i >= cfg.MaxLen {
			return false
		}
		omega, full := top.threshold()
		if !full {
			return true
		}
		n := float64(cfg.MaxLen)
		ub := sumBeta + (f.sumLogM-float64(i)*sumBeta)/n
		return ub >= omega-1e-12
	}

	// Depth-first expansion in deterministic seed order. grow scores every
	// one-cell child of prefix (the seeds themselves for the empty prefix)
	// in one Extensions scan, which sums the prefix's windows once and runs
	// score on its workers; the seeds' scan also folds each seed's
	// log-matches into beta. The children's patterns are cut from one
	// slab per expansion: frames only read them, and top.offer clones.
	// Admission and the stack stay on this goroutine, in reverse seed
	// order, so the first seed's child pops first.
	var stack []frame
	children := make([]frame, len(seeds))
	grow := func(prefix core.Pattern) {
		m := len(prefix) + 1
		slab := make(core.Pattern, len(seeds)*m)
		for idx, c := range seeds {
			pat := slab[idx*m : (idx+1)*m : (idx+1)*m]
			copy(pat, prefix)
			pat[m-1] = c
			children[idx].pat = pat
		}
		s.Extensions(prefix, seeds, func(k int, logM []float64) {
			children[k] = score(children[k].pat, logM)
			if len(prefix) == 0 {
				betaMu.Lock()
				for ti, v := range logM {
					beta[ti] = max(beta[ti], v)
				}
				betaMu.Unlock()
			}
		})
		for idx := len(seeds) - 1; idx >= 0; idx-- {
			stats.NMEvaluations++
			admit(children[idx])
			stack = append(stack, children[idx])
		}
	}
	grow(nil)
	for _, b := range beta {
		sumBeta += b
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !extensible(f) {
			stats.PrefixesPruned++
			continue
		}
		stats.PrefixesExpanded++
		grow(f.pat)
	}

	return &PBResult{Patterns: top.items, Stats: stats}, nil
}

// topK holds the running k best patterns in rank order (core.CompareRank).
type topK struct {
	k     int
	items []core.ScoredPattern
}

func newTopK(k int) *topK { return &topK{k: k} }

// offer inserts a copy of p, scored nm, at its rank when it ranks among
// the k best, dropping the item it pushes past rank k.
func (t *topK) offer(p core.Pattern, nm float64) {
	i, _ := slices.BinarySearchFunc(t.items, core.ScoredPattern{Pattern: p, NM: nm}, compareScored)
	if i == t.k {
		return
	}
	if len(t.items) == t.k {
		t.items = t.items[:t.k-1]
	}
	t.items = slices.Insert(t.items, i, core.ScoredPattern{Pattern: p.Clone(), NM: nm})
}

// threshold returns the current kth-best NM and whether k items are held.
func (t *topK) threshold() (float64, bool) {
	if len(t.items) < t.k {
		return math.Inf(-1), false
	}
	return t.items[len(t.items)-1].NM, true
}

func compareScored(a, b core.ScoredPattern) int {
	return core.CompareRank(a.NM, a.Pattern, b.NM, b.Pattern)
}
