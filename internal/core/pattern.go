// Package core implements the primary contribution of the TrajPattern
// paper: the trajectory-pattern model over imprecise trajectories, the
// match and normalized-match (NM) measures, the min-max property, the
// TrajPattern top-k mining algorithm with 1-extension pruning, the
// pattern-group presentation of the results, and the Section 5 extensions
// (wildcard patterns and the minimum-length variant).
package core

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"trajpattern/internal/grid"
)

// Pattern is a trajectory pattern P = (p₁, …, pₘ): an ordered list of grid
// cell indices interpreted as the possible positions of an object at m
// consecutive snapshots (Section 3.3). The empty pattern is invalid.
type Pattern []int

// Clone returns a copy of p.
func (p Pattern) Clone() Pattern { return append(Pattern(nil), p...) }

// Key returns a canonical string identity for map keys and dedup.
func (p Pattern) Key() string {
	var b strings.Builder
	for i, c := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// ParsePattern is the inverse of Key.
func ParsePattern(key string) (Pattern, error) {
	if key == "" {
		return nil, fmt.Errorf("core: empty pattern key")
	}
	parts := strings.Split(key, ",")
	p := make(Pattern, len(parts))
	for i, s := range parts {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("core: bad pattern key %q: %w", key, err)
		}
		p[i] = v
	}
	return p, nil
}

// Equal reports whether p and q are identical position-for-position.
func (p Pattern) Equal(q Pattern) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Concat returns the pattern obtained by appending q to the end of p, the
// candidate-generation operation of Section 4.
func (p Pattern) Concat(q Pattern) Pattern {
	out := make(Pattern, 0, len(p)+len(q))
	out = append(out, p...)
	return append(out, q...)
}

// DropFirst returns p without its first position, or nil for length <= 1.
func (p Pattern) DropFirst() Pattern {
	if len(p) <= 1 {
		return nil
	}
	return p[1:].Clone()
}

// DropLast returns p without its last position, or nil for length <= 1.
func (p Pattern) DropLast() Pattern {
	if len(p) <= 1 {
		return nil
	}
	return p[:len(p)-1].Clone()
}

// Validate reports whether every position is a valid cell index of g.
func (p Pattern) Validate(g *grid.Grid) error {
	if len(p) == 0 {
		return fmt.Errorf("core: empty pattern")
	}
	for i, c := range p {
		if c < 0 || c >= g.NumCells() {
			return fmt.Errorf("core: position %d has cell %d outside grid of %d cells", i, c, g.NumCells())
		}
	}
	return nil
}

// Format renders the pattern with cell centers for human consumption,
// e.g. "(0.15,0.25)→(0.25,0.25)".
func (p Pattern) Format(g *grid.Grid) string {
	var b strings.Builder
	for i, c := range p {
		if i > 0 {
			b.WriteString("→")
		}
		pt := g.CenterAt(c)
		fmt.Fprintf(&b, "(%.3g,%.3g)", pt.X, pt.Y)
	}
	return b.String()
}

// ScoredPattern pairs a pattern with its NM value in a dataset.
type ScoredPattern struct {
	Pattern Pattern
	NM      float64
}

// CompareRank orders scored patterns the way Mine answers: score
// descending, then length ascending, then key ascending. It returns a
// negative number when (scoreA, a) ranks before (scoreB, b), zero when
// they tie on all three, and a positive number otherwise. The baselines
// and the shard merge rank with it, whatever their score measures.
func CompareRank(scoreA float64, a Pattern, scoreB float64, b Pattern) int {
	if c := cmp.Compare(scoreB, scoreA); c != 0 {
		return c
	}
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	return strings.Compare(a.Key(), b.Key())
}
