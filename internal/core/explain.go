package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Explanation breaks a pattern's NM down per trajectory: where the best
// window lies and how much each trajectory contributes. It turns an opaque
// score into something a user can audit against the raw data.
type Explanation struct {
	Pattern Pattern
	NM      float64             // total (the sum of contributions)
	PerTraj []TrajectoryContrib // indexed by trajectory
}

// TrajectoryContrib is one trajectory's share of a pattern's NM.
type TrajectoryContrib struct {
	Trajectory int     // index into the dataset
	NM         float64 // NM(P, T): best-window normalized log match
	Window     int     // start snapshot of the best window (-1 if too short)
	TooShort   bool    // trajectory shorter than the pattern (floor applied)
}

// Explain computes the full NM breakdown of p.
func (s *Scorer) Explain(p Pattern) (*Explanation, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("core: empty pattern")
	}
	if err := p.Validate(s.cfg.Grid); err != nil {
		return nil, err
	}
	vecs := s.vectors(p, nil)
	m := len(p)
	ex := &Explanation{Pattern: p.Clone(), PerTraj: make([]TrajectoryContrib, len(s.data))}
	for ti := range s.data {
		start, end := s.offsets[ti], s.offsets[ti+1]
		contrib := TrajectoryContrib{Trajectory: ti, Window: -1}
		if end-start < m {
			contrib.TooShort = true
			contrib.NM = DefaultLogFloor
		} else {
			best := math.Inf(-1)
			for w := start; w+m <= end; w++ {
				var sum float64
				for j := 0; j < m; j++ {
					sum += vecs[j][w+j]
				}
				if sum > best {
					best = sum
					contrib.Window = w - start
				}
			}
			contrib.NM = best / float64(m)
		}
		ex.PerTraj[ti] = contrib
		ex.NM += contrib.NM
	}
	return ex, nil
}

// TopContributors returns the n trajectories contributing the most
// (closest to zero) to the pattern's NM, best first.
func (e *Explanation) TopContributors(n int) []TrajectoryContrib {
	out := append([]TrajectoryContrib(nil), e.PerTraj...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].NM > out[j].NM })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// String renders a short human-readable summary.
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pattern %s: NM %.4f over %d trajectories\n",
		e.Pattern.Key(), e.NM, len(e.PerTraj))
	for _, c := range e.TopContributors(5) {
		if c.TooShort {
			fmt.Fprintf(&b, "  traj %d: too short (floor %.4g)\n", c.Trajectory, c.NM)
			continue
		}
		fmt.Fprintf(&b, "  traj %d: NM %.4f at window %d\n", c.Trajectory, c.NM, c.Window)
	}
	return b.String()
}
