package baseline

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"trajpattern/internal/core"
)

// MatchConfig parameterizes the top-k match miner.
type MatchConfig struct {
	// K is the number of patterns to mine. Required.
	K int
	// MinLen restricts the answer to patterns of at least this length.
	// Because the match measure decays with length, the interesting
	// comparisons of §6.1 use MinLen >= 3 (otherwise the top-k are all
	// singulars). Zero or one means no constraint.
	MinLen int
	// MaxLen caps pattern length. Zero means core.DefaultMaxLen.
	MaxLen int
	// Seeds is the singular alphabet. Nil means Scorer.ObservedCells(1).
	Seeds []int
}

// MatchStats reports the work done by one match-mining run.
type MatchStats struct {
	Levels     int // number of levels explored
	Candidates int // candidate patterns scored
	Survivors  int // patterns retained as extension bases across all levels
}

// ScoredMatch pairs a pattern with its match value Σ_T M(P, T).
type ScoredMatch struct {
	Pattern core.Pattern
	Match   float64
}

// MatchResult is the output of MineMatch.
type MatchResult struct {
	Patterns []ScoredMatch
	Stats    MatchStats
}

// MineMatch mines the exact top-k patterns by the match measure of [14].
// Match obeys the Apriori property (extending a pattern never increases
// its match), so the miner proceeds level-wise: level j candidates are
// joins of surviving (j-1)-patterns that overlap in j-2 positions, pruned
// when either maximal proper contiguous sub-pattern did not survive, and a
// pattern survives while its match reaches the running kth-best threshold.
// This reproduces the output set of the border-collapsing algorithm of
// [14]; see the package comment.
func MineMatch(s *core.Scorer, cfg MatchConfig) (*MatchResult, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("baseline: MatchConfig.K must be > 0, got %d", cfg.K)
	}
	if cfg.MaxLen == 0 {
		cfg.MaxLen = core.DefaultMaxLen
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

	var stats MatchStats
	top := newTopMatch(cfg.K)

	// Level 1.
	level := make([]ScoredMatch, 0, len(seeds))
	for _, c := range seeds {
		p := core.Pattern{c}
		sm := ScoredMatch{Pattern: p, Match: s.Match(p)}
		stats.Candidates++
		if cfg.MinLen <= 1 {
			top.offer(p, sm.Match)
		}
		level = append(level, sm)
	}
	stats.Levels = 1

	// With a length floor, ω stays -Inf until K patterns of that length
	// exist, which lets the early levels grow without any pruning. A
	// greedy beam primes ω with real length-MinLen patterns first; every
	// beam pattern is scored exactly, so the threshold is always a valid
	// lower bound on the final kth-best.
	if cfg.MinLen > 1 {
		stats.Candidates += primeMatchThreshold(s, cfg, level, top)
	}

	for j := 2; j <= cfg.MaxLen && len(level) > 0; j++ {
		// Threshold pruning of extension bases: a pattern below ω cannot
		// have a super-pattern at or above ω (Apriori).
		omega, full := top.threshold()
		var bases []ScoredMatch
		for _, sm := range level {
			if !full || sm.Match >= omega {
				bases = append(bases, sm)
			}
		}
		stats.Survivors += len(bases)
		if len(bases) == 0 {
			break
		}
		surviving := make(map[string]float64, len(bases))
		for _, sm := range bases {
			surviving[sm.Pattern.Key()] = sm.Match
		}

		// Candidate generation: GSP-style join of patterns overlapping in
		// j-2 positions, via a prefix index so only joinable pairs are
		// enumerated; at j == 2 this is the full cross product.
		cand := make(map[string]core.Pattern)
		propose := func(p core.Pattern) {
			// Apriori prune: both maximal contiguous sub-patterns must
			// have survived, and the candidate's optimistic match (the
			// smaller parent match) must still reach ω.
			ma, okA := surviving[p.DropFirst().Key()]
			mb, okB := surviving[p.DropLast().Key()]
			if !okA || !okB {
				return
			}
			if full && math.Min(ma, mb) < omega {
				return
			}
			cand[p.Key()] = p
		}
		if j == 2 {
			for _, a := range bases {
				for _, b := range bases {
					propose(core.Pattern{a.Pattern[0], b.Pattern[0]})
				}
			}
		} else {
			// Index bases by their length-(j-2) prefix.
			byPrefix := make(map[string][]core.Pattern, len(bases))
			for _, b := range bases {
				k := b.Pattern.DropLast().Key()
				byPrefix[k] = append(byPrefix[k], b.Pattern)
			}
			for _, a := range bases {
				suffix := a.Pattern.DropFirst().Key()
				for _, b := range byPrefix[suffix] {
					propose(a.Pattern.Concat(core.Pattern{b[len(b)-1]}))
				}
			}
		}
		keys := make([]string, 0, len(cand))
		for k := range cand {
			keys = append(keys, k)
		}
		sort.Strings(keys)

		next := make([]ScoredMatch, 0, len(keys))
		for _, k := range keys {
			p := cand[k]
			sm := ScoredMatch{Pattern: p, Match: s.Match(p)}
			stats.Candidates++
			if j >= cfg.MinLen {
				top.offer(p, sm.Match)
			}
			next = append(next, sm)
		}
		level = next
		stats.Levels = j
	}

	return &MatchResult{Patterns: top.items, Stats: stats}, nil
}

// primeMatchThreshold grows a small beam of prefixes to length MinLen,
// offering every scored pattern of sufficient length to top so ω becomes
// finite before the level-wise phase. It returns the number of patterns
// scored. The beam width trades priming cost against threshold quality.
func primeMatchThreshold(s *core.Scorer, cfg MatchConfig, singulars []ScoredMatch, top *topMatch) int {
	const beamWidth = 48
	scored := 0

	beam := append([]ScoredMatch(nil), singulars...)
	slices.SortFunc(beam, compareMatch)
	if len(beam) > beamWidth {
		beam = beam[:beamWidth]
	}
	heads := make([]core.Pattern, len(beam))
	for i, sm := range beam {
		heads[i] = sm.Pattern
	}

	frontier := beam
	for length := 2; length <= cfg.MinLen; length++ {
		var next []ScoredMatch
		for _, f := range frontier {
			for _, h := range heads {
				p := f.Pattern.Concat(core.Pattern{h[len(h)-1]})
				sm := ScoredMatch{Pattern: p, Match: s.Match(p)}
				scored++
				if length >= cfg.MinLen {
					top.offer(p, sm.Match)
				}
				next = append(next, sm)
			}
		}
		slices.SortFunc(next, compareMatch)
		if len(next) > beamWidth {
			next = next[:beamWidth]
		}
		frontier = next
	}
	return scored
}

// topMatch holds the running k best patterns under the match measure in
// rank order (core.CompareRank), deduplicating by pattern key: the beam
// primer and the level-wise phase can both score the same pattern.
type topMatch struct {
	k     int
	items []ScoredMatch
	held  map[string]bool // the keys of items
}

func newTopMatch(k int) *topMatch {
	return &topMatch{k: k, held: make(map[string]bool)}
}

// offer inserts a copy of p, scored match, at its rank when it is not held
// and ranks among the k best, dropping the item it pushes past rank k.
func (t *topMatch) offer(p core.Pattern, match float64) {
	key := p.Key()
	if t.held[key] {
		return
	}
	i, _ := slices.BinarySearchFunc(t.items, ScoredMatch{Pattern: p, Match: match}, compareMatch)
	if i == t.k {
		return
	}
	if len(t.items) == t.k {
		delete(t.held, t.items[t.k-1].Pattern.Key())
		t.items = t.items[:t.k-1]
	}
	t.items = slices.Insert(t.items, i, ScoredMatch{Pattern: p.Clone(), Match: match})
	t.held[key] = true
}

func (t *topMatch) threshold() (float64, bool) {
	if len(t.items) < t.k {
		return math.Inf(-1), false
	}
	return t.items[len(t.items)-1].Match, true
}

func compareMatch(a, b ScoredMatch) int {
	return core.CompareRank(a.Match, a.Pattern, b.Match, b.Pattern)
}
