package core

import "trajpattern/internal/traj"

// CellVector returns cell's log-prob vector over every flat position,
// building it if needed, for the external tests.
func (s *Scorer) CellVector(cell int) []float64 { return s.vectors(Pattern{cell}, nil)[0] }

// InstalledVector returns cell's installed log-prob vector, or nil if it
// has none, without building it.
func (s *Scorer) InstalledVector(cell int) []float64 { return s.cached(cell) }

// InstalledCells returns how many cells have an installed vector.
func (s *Scorer) InstalledCells() int {
	n := 0
	for c := range s.cells {
		if s.cached(c) != nil {
			n++
		}
	}
	return n
}

// LogProb is the per-position reference the cell build must reproduce.
func (s *Scorer) LogProb(pt traj.Point, cell int) float64 { return s.logProb(pt, cell) }
