package baseline

import (
	"context"
	"math"
	"slices"
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
// exhaustive top-k, key for key and NM bit for bit (PB's bound is
// admissible and PB reports Scorer.NM's sum). Each instance is also
// checked with an empty trajectory inserted, whose bound must be the
// floor every pattern scores on it, not −Inf.
func TestQuickPBExactness(t *testing.T) {
	f := func(seed uint64) bool {
		tiny := randomTiny(seed)
		at := int(seed % uint64(len(tiny)+1))
		withEmpty := append(append(append(traj.Dataset{}, tiny[:at]...), traj.Trajectory{}), tiny[at:]...)
		for _, data := range []traj.Dataset{tiny, withEmpty} {
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
			if err := sameTopK(pb.Patterns, oracle); err != nil {
				t.Logf("seed %d, %d trajectories: %v", seed, len(data), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: scoring a prefix's one-cell children in one Extensions scan,
// as PB does, gives each child's log-match exactly as a scan of that child
// alone does, trajectory by trajectory and bit for bit, for prefixes of
// length 1-5 and every cell. Each dataset holds a trajectory exactly as
// long as the prefix and one shorter, neither of which has a window for
// the child. A different prefix's children are scanned first, so the
// pooled scratch is reused, as PB reuses it across expansions.
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
		cells := s.AllCells()
		s.Extensions(randomPattern(1+rng.Intn(5)), cells, func(int, []float64) {})
		prefix := randomPattern(m)
		got := make([][]float64, len(cells))
		s.Extensions(prefix, cells, func(k int, logM []float64) { got[k] = slices.Clone(logM) })
		for k, c := range cells {
			want := s.LogMatches(prefix.Concat(core.Pattern{c}))
			for ti := range want {
				if v := got[k][ti]; math.Float64bits(v) != math.Float64bits(want[ti]) {
					t.Logf("prefix %v cell %d traj %d (len %d): Extensions %v, scan %v",
						prefix, c, ti, lens[ti], v, want[ti])
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
		// Mine scores through ScoreAll's shared-prefix walk; every NM it
		// returns must be the single-pattern NM, bit for bit.
		for _, sp := range res.Patterns {
			if math.Float64bits(sp.NM) != math.Float64bits(s.NM(sp.Pattern)) {
				return false
			}
		}
		// The same rank-0 pattern must carry the oracle's NM bits; a
		// different one is a tie, which only has to agree to rounding.
		if res.Patterns[0].Pattern.Equal(oracle[0].Pattern) {
			if math.Float64bits(res.Patterns[0].NM) != math.Float64bits(oracle[0].NM) {
				return false
			}
		} else if math.Abs(res.Patterns[0].NM-oracle[0].NM) > 1e-9 {
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
