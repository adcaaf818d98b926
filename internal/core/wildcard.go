package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file implements the Section 5 extensions: patterns with wild-card
// ("don't care") positions and gap patterns with a variable number of
// consecutive wild cards, whose NM is computed by dynamic programming.
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

// MaxConsecutiveWildcards returns the longest run of Wildcard positions,
// the quantity the paper bounds with the parameter d.
func (p WildPattern) MaxConsecutiveWildcards() int {
	best, run := 0, 0
	for _, c := range p {
		if c == Wildcard {
			run++
			if run > best {
				best = run
			}
		} else {
			run = 0
		}
	}
	return best
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

// NMWild returns the normalized match of a wild-card pattern: the window
// scan treats wildcard positions as probability 1 (log 0 contribution) and
// normalizes by the number of specified positions. Boundary wildcards are
// rejected because they never change the score.
func (s *Scorer) NMWild(p WildPattern) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	spec := p.SpecifiedLen()
	vecs := make([][]float64, len(p))
	for j, cell := range p {
		if cell != Wildcard {
			vecs[j] = s.cellLogProbs(cell)
		}
	}
	var total float64
	m := len(p)
	for ti := range s.data {
		start, end := s.offsets[ti], s.offsets[ti+1]
		if end-start < m {
			total += DefaultLogFloor
			continue
		}
		best := math.Inf(-1)
		for w := start; w+m <= end; w++ {
			var sum float64
			for j := 0; j < m; j++ {
				if vecs[j] != nil {
					sum += vecs[j][w+j]
				}
			}
			if sum > best {
				best = sum
			}
		}
		total += best / float64(spec)
	}
	return total, nil
}

// GapPattern is a pattern whose fixed segments are separated by variable
// gaps: between Segments[i] and Segments[i+1] the trajectory may contain
// between MinGap[i] and MaxGap[i] snapshots that are not constrained (a
// variable run of "*"). len(MinGap) == len(MaxGap) == len(Segments)-1.
type GapPattern struct {
	Segments []Pattern
	MinGap   []int
	MaxGap   []int
}

// SpecifiedLen returns the total number of specified positions.
func (p GapPattern) SpecifiedLen() int {
	n := 0
	for _, seg := range p.Segments {
		n += len(seg)
	}
	return n
}

func (p GapPattern) validate() error {
	if len(p.Segments) == 0 {
		return fmt.Errorf("core: gap pattern with no segments")
	}
	for i, seg := range p.Segments {
		if len(seg) == 0 {
			return fmt.Errorf("core: gap pattern segment %d is empty", i)
		}
	}
	if len(p.MinGap) != len(p.Segments)-1 || len(p.MaxGap) != len(p.Segments)-1 {
		return fmt.Errorf("core: gap pattern needs %d gap bounds, got %d/%d",
			len(p.Segments)-1, len(p.MinGap), len(p.MaxGap))
	}
	for i := range p.MinGap {
		if p.MinGap[i] < 0 || p.MaxGap[i] < p.MinGap[i] {
			return fmt.Errorf("core: gap %d has invalid bounds [%d,%d]", i, p.MinGap[i], p.MaxGap[i])
		}
	}
	return nil
}

// minSpan returns the smallest window length the pattern can occupy.
func (p GapPattern) minSpan() int {
	n := p.SpecifiedLen()
	for _, g := range p.MinGap {
		n += g
	}
	return n
}

// NMGap returns the normalized match of a gap pattern via the dynamic
// program the paper sketches: for each trajectory, the best total
// log-probability over all placements of the segments respecting the gap
// bounds, normalized by the number of specified positions; per-trajectory
// values are summed over the dataset.
func (s *Scorer) NMGap(p GapPattern) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	spec := p.SpecifiedLen()
	// Cache segment vectors once.
	segVecs := make([][][]float64, len(p.Segments))
	for i, seg := range p.Segments {
		segVecs[i] = s.vectors(seg, nil)
	}

	var total float64
	for ti := range s.data {
		start, end := s.offsets[ti], s.offsets[ti+1]
		L := end - start
		if L < p.minSpan() {
			total += DefaultLogFloor
			continue
		}
		// segScore[i][w] = log-match of segment i anchored at window
		// offset w (within this trajectory).
		segScore := make([][]float64, len(p.Segments))
		for i, seg := range p.Segments {
			m := len(seg)
			scores := make([]float64, L-m+1)
			for w := 0; w+m <= L; w++ {
				var sum float64
				for j := 0; j < m; j++ {
					sum += segVecs[i][j][start+w+j]
				}
				scores[w] = sum
			}
			segScore[i] = scores
		}
		// DP over segments: best[i][w] = best total log-match of segments
		// 0..i with segment i anchored at w.
		prev := segScore[0]
		for i := 1; i < len(p.Segments); i++ {
			segLen := len(p.Segments[i-1])
			cur := make([]float64, len(segScore[i]))
			for w := range cur {
				best := math.Inf(-1)
				// Segment i-1 anchored at u ends at u+segLen-1; the gap is
				// w - (u+segLen), constrained to [MinGap, MaxGap].
				for gap := p.MinGap[i-1]; gap <= p.MaxGap[i-1]; gap++ {
					u := w - gap - segLen
					if u < 0 || u >= len(prev) {
						continue
					}
					if prev[u] > best {
						best = prev[u]
					}
				}
				cur[w] = best + segScore[i][w]
			}
			prev = cur
		}
		best := math.Inf(-1)
		for _, v := range prev {
			if v > best {
				best = v
			}
		}
		if math.IsInf(best, -1) {
			total += DefaultLogFloor
			continue
		}
		total += best / float64(spec)
	}
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
