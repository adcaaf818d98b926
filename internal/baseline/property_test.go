package baseline

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"trajpattern/internal/core"
	"trajpattern/internal/grid"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

// randomTiny builds a small random dataset on the unit square.
func randomTiny(seed uint64) traj.Dataset {
	rng := stat.NewRNG(seed)
	n := 2 + rng.Intn(3)
	d := make(traj.Dataset, n)
	for i := range d {
		ln := 5 + rng.Intn(6)
		tr := make(traj.Trajectory, ln)
		for j := range tr {
			tr[j] = traj.P(rng.Float64(), rng.Float64(), 0.1+rng.Float64()*0.1)
		}
		d[i] = tr
	}
	return d
}

// Property: on random tiny instances, MinePB returns exactly the
// exhaustive top-k NM values (PB's bound is admissible).
func TestQuickPBExactness(t *testing.T) {
	f := func(seed uint64) bool {
		data := randomTiny(seed)
		g := grid.NewSquare(2)
		s, err := core.NewScorer(data, core.Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			return false
		}
		seeds := s.AllCells()
		pb, err := MinePB(s, PBConfig{K: 5, MaxLen: 3, Seeds: seeds})
		if err != nil {
			return false
		}
		oracle, err := ExhaustiveNM(s, seeds, 5, 1, 3)
		if err != nil {
			return false
		}
		if len(pb.Patterns) != len(oracle) {
			return false
		}
		for i := range oracle {
			if math.Abs(pb.Patterns[i].NM-oracle[i].NM) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: a projection scores prefix·c exactly as a from-scratch scan
// does, trajectory by trajectory and bit for bit, for prefixes of length
// 1-5 and every cell. Each dataset holds a trajectory exactly as long as
// the prefix and one shorter, neither of which has a window for the
// child. The projection is reused from a different prefix first, as PB
// reuses it across expansions.
func TestQuickProjectionMatchesScan(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stat.NewRNG(seed)
		m := 1 + rng.Intn(5)
		lens := []int{m, max(1, m-1), m + 1, m + 2 + rng.Intn(10), 1 + rng.Intn(14)}
		data := make(traj.Dataset, len(lens))
		for i, n := range lens {
			tr := make(traj.Trajectory, n)
			for j := range tr {
				tr[j] = traj.P(rng.Float64(), rng.Float64(), 0.05+rng.Float64()*0.15)
			}
			data[i] = tr
		}
		g := grid.NewSquare(3)
		s, err := core.NewScorer(data, core.Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			return false
		}
		randomPattern := func(n int) core.Pattern {
			p := make(core.Pattern, n)
			for i := range p {
				p[i] = rng.Intn(g.NumCells())
			}
			return p
		}
		var pr core.Projection
		s.Project(&pr, randomPattern(1+rng.Intn(5)))
		prefix := randomPattern(m)
		s.Project(&pr, prefix)
		got := make([]float64, len(data))
		for c := 0; c < g.NumCells(); c++ {
			pr.ExtendLogMatches(c, got)
			want := s.LogMatches(prefix.Concat(core.Pattern{c}))
			for ti := range want {
				if math.Float64bits(got[ti]) != math.Float64bits(want[ti]) {
					t.Logf("prefix %v cell %d traj %d (len %d): projection %v, scan %v",
						prefix, c, ti, lens[ti], got[ti], want[ti])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: MineMatch (beam priming + indexed join + bound skipping)
// returns exactly the exhaustive top-k match values, including with a
// length floor.
func TestQuickMatchMinerExactness(t *testing.T) {
	f := func(seed uint64, minLenRaw uint8) bool {
		data := randomTiny(seed)
		minLen := 1 + int(minLenRaw)%3
		g := grid.NewSquare(2)
		s, err := core.NewScorer(data, core.Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			return false
		}
		seeds := s.AllCells()
		res, err := MineMatch(s, MatchConfig{K: 5, MinLen: minLen, MaxLen: 3, Seeds: seeds})
		if err != nil {
			return false
		}
		oracle, err := ExhaustiveMatch(s, seeds, 5, minLen, 3)
		if err != nil {
			return false
		}
		if len(res.Patterns) != len(oracle) {
			return false
		}
		for i := range oracle {
			if math.Abs(res.Patterns[i].Match-oracle[i].Match) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the TrajPattern miner's top-1 always equals the exhaustive
// top-1 (the strongest pattern is never lost by pruning or caps), and its
// answer values never exceed the oracle's rank-for-rank.
func TestQuickTrajPatternVsOracle(t *testing.T) {
	f := func(seed uint64) bool {
		data := randomTiny(seed)
		g := grid.NewSquare(2)
		s, err := core.NewScorer(data, core.Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			return false
		}
		seeds := s.AllCells()
		res, err := core.Mine(context.Background(), s, core.MinerConfig{K: 5, MaxLen: 3, Seeds: seeds})
		if err != nil {
			return false
		}
		oracle, err := ExhaustiveNM(s, seeds, 5, 1, 3)
		if err != nil {
			return false
		}
		if len(res.Patterns) == 0 || len(oracle) == 0 {
			return false
		}
		if math.Abs(res.Patterns[0].NM-oracle[0].NM) > 1e-9 {
			return false
		}
		for i := range res.Patterns {
			if i < len(oracle) && res.Patterns[i].NM > oracle[i].NM+1e-9 {
				return false // better than exhaustive is impossible
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
