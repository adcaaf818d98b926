package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file implements the Section 5 extension: patterns with wild-card
// ("don't care") positions.
//
// A wild-card position matches any location with probability 1 and is not
// counted in the normalization length m, so adding wild cards can never
// inflate a pattern's NM by itself — it only allows specified positions to
// align with better windows.

// Wildcard is the cell value representing the "*" don't-care position.
const Wildcard = -1

// WildPattern is a pattern that may contain Wildcard positions. At least
// one position must be specified.
type WildPattern []int

// SpecifiedLen returns the number of non-wildcard positions, the
// normalization length.
func (p WildPattern) SpecifiedLen() int {
	n := 0
	for _, c := range p {
		if c != Wildcard {
			n++
		}
	}
	return n
}

// String renders the pattern with "*" for wild cards, e.g. "3,*,*,7".
func (p WildPattern) String() string {
	var b strings.Builder
	for i, c := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		if c == Wildcard {
			b.WriteByte('*')
		} else {
			b.WriteString(strconv.Itoa(c))
		}
	}
	return b.String()
}

func (p WildPattern) validate() error {
	if p.SpecifiedLen() == 0 {
		return fmt.Errorf("core: wild pattern %q has no specified positions", p.String())
	}
	if len(p) > 0 && (p[0] == Wildcard || p[len(p)-1] == Wildcard) {
		return fmt.Errorf("core: wild pattern %q begins or ends with a wildcard (trim it: boundary wildcards are vacuous)", p.String())
	}
	return nil
}

// NMWild returns the normalized match of a wild-card pattern: the
// shared-prefix walk scans it with an all-zero vector (log 1) at each
// wildcard position, and each trajectory's best window is normalized by
// the number of specified positions; a trajectory shorter than the
// pattern contributes DefaultLogFloor. Boundary wildcards are rejected
// because they never change the score.
func (s *Scorer) NMWild(p WildPattern) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	spec := float64(p.SpecifiedLen())
	var total float64
	s.scan(Pattern(p), func(ti int, logM float64) {
		if s.shorter(ti, len(p)) {
			total += DefaultLogFloor
		} else {
			total += logM / spec
		}
	})
	return total, nil
}

// ScoredWildPattern pairs a wild pattern with its NM value.
type ScoredWildPattern struct {
	Pattern WildPattern
	NM      float64
}

// MineWithWildcards runs the TrajPattern miner and then applies the
// Section 5 wildcard refinement to every mined pattern: up to maxRun
// consecutive "*" symbols are inserted at each internal boundary whenever
// that improves the pattern's NM, and the refined set is re-ranked. The
// result keeps cfg.K entries.
func MineWithWildcards(ctx context.Context, s *Scorer, cfg MinerConfig, maxRun int) ([]ScoredWildPattern, *Result, error) {
	if maxRun < 0 {
		return nil, nil, fmt.Errorf("core: negative wildcard budget %d", maxRun)
	}
	res, err := Mine(ctx, s, cfg)
	if err != nil {
		return nil, nil, err
	}
	out := make([]ScoredWildPattern, 0, len(res.Patterns))
	for _, sp := range res.Patterns {
		wp, nm, err := s.ExpandWithWildcards(sp.Pattern, maxRun)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, ScoredWildPattern{Pattern: wp, NM: nm})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].NM > out[j].NM })
	return out, res, nil
}

// ExpandWithWildcards post-processes a mined pattern per Section 5: it
// tries inserting 1..maxRun wild cards at every internal boundary of p and
// returns the wild pattern with the best NM — which is p itself (as a
// WildPattern) when no insertion helps. This realizes "for each pattern P
// in Q, we can add between 0 and d '*' symbols" as a refinement step.
func (s *Scorer) ExpandWithWildcards(p Pattern, maxRun int) (WildPattern, float64, error) {
	if len(p) == 0 {
		return nil, 0, fmt.Errorf("core: empty pattern")
	}
	if maxRun < 0 {
		return nil, 0, fmt.Errorf("core: negative wildcard budget %d", maxRun)
	}
	best := make(WildPattern, len(p))
	for i, c := range p {
		best[i] = c
	}
	bestNM, err := s.NMWild(best)
	if err != nil {
		return nil, 0, err
	}
	for pos := 1; pos < len(p); pos++ {
		for run := 1; run <= maxRun; run++ {
			cand := make(WildPattern, 0, len(p)+run)
			for i, c := range p {
				if i == pos {
					for r := 0; r < run; r++ {
						cand = append(cand, Wildcard)
					}
				}
				cand = append(cand, c)
			}
			nm, err := s.NMWild(cand)
			if err != nil {
				return nil, 0, err
			}
			if nm > bestNM {
				best, bestNM = cand, nm
			}
		}
	}
	return best, bestNM, nil
}
