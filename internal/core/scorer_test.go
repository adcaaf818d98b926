package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"trajpattern/internal/geom"
	"trajpattern/internal/grid"
	"trajpattern/internal/obs"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

// testScorer builds a scorer over the given dataset on an n×n unit-square
// grid with δ equal to the cell size.
func testScorer(t *testing.T, data traj.Dataset, n int) *Scorer {
	t.Helper()
	g := grid.NewSquare(n)
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomDataset generates a deterministic random dataset inside the unit
// square.
func randomDataset(seed uint64, nTraj, length int, sigma float64) traj.Dataset {
	rng := stat.NewRNG(seed)
	d := make(traj.Dataset, nTraj)
	for i := range d {
		tr := make(traj.Trajectory, length)
		for j := range tr {
			tr[j] = traj.P(rng.Float64(), rng.Float64(), sigma)
		}
		d[i] = tr
	}
	return d
}

func TestNewScorerValidation(t *testing.T) {
	g := grid.NewSquare(4)
	good := traj.Dataset{{traj.P(0.5, 0.5, 0.1)}}
	if _, err := NewScorer(good, Config{Grid: nil, Delta: 0.1}); err == nil {
		t.Error("nil grid accepted")
	}
	if _, err := NewScorer(good, Config{Grid: g, Delta: 0}); err == nil {
		t.Error("zero delta accepted")
	}
	if _, err := NewScorer(nil, Config{Grid: g, Delta: 0.1}); err == nil {
		t.Error("empty dataset accepted")
	}
	bad := traj.Dataset{{traj.P(0, 0, -1)}}
	if _, err := NewScorer(bad, Config{Grid: g, Delta: 0.1}); err == nil {
		t.Error("invalid dataset accepted")
	}
}

func TestNMSingularAgainstDirectComputation(t *testing.T) {
	// One trajectory with one snapshot: NM of a singular pattern is just
	// log Prob(l, σ, cell, δ).
	data := traj.Dataset{{traj.P(0.55, 0.55, 0.1)}}
	s := testScorer(t, data, 10)
	cell := s.Config().Grid.IndexOf(data[0][0].Mean)
	c := s.Config().Grid.CenterAt(cell)
	want := math.Log(stat.BoxProb2D(0.55, 0.55, 0.1, c.X, c.Y, s.Config().Delta))
	if got := s.NM(Pattern{cell}); math.Abs(got-want) > 1e-12 {
		t.Errorf("NM = %v, want %v", got, want)
	}
}

func TestNMWindowMaximization(t *testing.T) {
	// Pattern of two cells matching exactly the tail of the trajectory;
	// NM(P,T) must pick the best window, not the first.
	g := grid.NewSquare(4)
	a := g.CenterAt(5)  // cell (1,1)
	b := g.CenterAt(10) // cell (2,2)
	far := g.CenterAt(0)
	data := traj.Dataset{{
		{Mean: far, Sigma: 0.05},
		{Mean: far, Sigma: 0.05},
		{Mean: a, Sigma: 0.05},
		{Mean: b, Sigma: 0.05},
	}}
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	p := Pattern{5, 10}
	got := s.NM(p) // one trajectory: NM(P, D) is NM(P, T)
	// The perfect window: both positions centered on their cells.
	lp := math.Log(stat.BoxProb2D(a.X, a.Y, 0.05, a.X, a.Y, g.CellWidth()))
	want := lp // average of two identical log-probs
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("windowed NM = %v, want %v", got, want)
	}
}

func TestNMShortTrajectoryUsesFloor(t *testing.T) {
	data := traj.Dataset{{traj.P(0.5, 0.5, 0.1)}} // length 1
	s := testScorer(t, data, 4)
	p := Pattern{0, 1, 2} // length 3 > trajectory
	got := s.NM(p)
	if got != DefaultLogFloor {
		t.Errorf("short-trajectory NM = %v, want floor %v", got, DefaultLogFloor)
	}
}

func TestMatchApriori(t *testing.T) {
	// The match measure keeps the Apriori property: extending a pattern
	// never increases its match (Section 3.3).
	data := randomDataset(1, 5, 20, 0.08)
	s := testScorer(t, data, 5)
	rng := stat.NewRNG(2)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(4)
		p := make(Pattern, n)
		for i := range p {
			p[i] = rng.Intn(25)
		}
		ext := p.Concat(Pattern{rng.Intn(25)})
		if s.Match(ext) > s.Match(p)+1e-12 {
			t.Fatalf("Apriori violated: match(%v)=%v > match(%v)=%v",
				ext, s.Match(ext), p, s.Match(p))
		}
	}
}

func TestNMAprioriCounterexample(t *testing.T) {
	// The paper's motivation: NM does NOT obey Apriori. Construct a case
	// where extending a pattern increases NM: a weak singular followed by
	// a strong singular has higher average log-prob than the weak one
	// alone.
	g := grid.NewSquare(4)
	weak := g.CenterAt(5)
	strong := g.CenterAt(10)
	away := weak.Sub(strong)
	away = away.Scale(1 / math.Hypot(away.X, away.Y)) // unit vector from cell 10 to cell 5
	data := traj.Dataset{{
		{Mean: weak.Add(away.Scale(0.12)), Sigma: 0.05}, // offset from cell 5
		{Mean: strong, Sigma: 0.02},                     // dead center of cell 10
	}}
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	sub := Pattern{5}
	super := Pattern{5, 10}
	if !(s.NM(super) > s.NM(sub)) {
		t.Errorf("expected NM(super)=%v > NM(sub)=%v (Apriori must fail for NM)",
			s.NM(super), s.NM(sub))
	}
}

func TestMinMaxProperty(t *testing.T) {
	// Property 1: NM(P'·P'') <= max(NM(P'), NM(P'')) on random data and
	// random splits.
	data := randomDataset(3, 4, 15, 0.1)
	s := testScorer(t, data, 4)
	rng := stat.NewRNG(4)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		p := make(Pattern, n)
		for i := range p {
			p[i] = rng.Intn(16)
		}
		cut := 1 + rng.Intn(n-1)
		left, right := p[:cut], p[cut:]
		nm := s.NM(p)
		bound := math.Max(s.NM(left), s.NM(right))
		if nm > bound+1e-9 {
			t.Fatalf("min-max violated: NM(%v)=%v > max(%v, %v)=%v",
				p, nm, left, right, bound)
		}
	}
}

// walkData is a dataset for the walk tests: trajectories of every length
// from 0 to 9, so most test patterns are longer than some of them, plus
// three long enough for patterns sharing more than walkDepth positions.
func walkData() traj.Dataset {
	var data traj.Dataset
	for n := 0; n <= 9; n++ {
		data = append(data, randomDataset(uint64(40+n), 1, n, 0.1)...)
	}
	return append(data, randomDataset(50, 3, walkDepth+12, 0.15)...)
}

// walkBatch returns a batch shaped to exercise ScoreAll's shared-prefix
// walk: random patterns of every length from 1 to maxLen over cells below
// nCells, each with its prefixes, a one-cell extension and a sibling that
// differs in its last cell, and duplicates, in shuffled order.
func walkBatch(seed uint64, nCells, maxLen int) []Pattern {
	rng := stat.NewRNG(seed)
	var batch []Pattern
	for m := 1; m <= maxLen; m++ {
		for r := 0; r < 3; r++ {
			p := make(Pattern, m)
			for j := range p {
				p[j] = rng.Intn(nCells)
			}
			for j := 1; j < m; j++ {
				batch = append(batch, p[:j])
			}
			sibling := p.Clone()
			sibling[m-1] = rng.Intn(nCells)
			batch = append(batch, p, p.Clone(), sibling, p.Concat(Pattern{rng.Intn(nCells)}))
		}
	}
	for i := len(batch) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		batch[i], batch[j] = batch[j], batch[i]
	}
	return batch
}

// naiveLogMatches is the reference log-match of p per trajectory: every
// window sum adds its terms in pattern order, window by window.
func naiveLogMatches(s *Scorer, p Pattern) []float64 {
	vecs := s.vectors(p, nil)
	out := make([]float64, len(s.data))
	for ti := range s.data {
		start, n := s.offsets[ti], s.offsets[ti+1]-s.offsets[ti]
		out[ti] = DefaultLogFloor * float64(len(p))
		if n >= len(p) {
			out[ti] = math.Inf(-1)
			for w := 0; w+len(p) <= n; w++ {
				var sum float64
				for j := range p {
					sum += vecs[j][start+w+j]
				}
				out[ti] = math.Max(out[ti], sum)
			}
		}
	}
	return out
}

// TestScoreAllMatchesIndividual checks ScoreAll's shared-prefix walk
// against per-pattern NM, and NM and LogMatches against the naive
// reference, bit for bit: batches with shared prefixes and duplicates,
// patterns longer than some trajectories, every length from 1 to a few
// past walkDepth, so that neighbours share more levels than a walk keeps,
// and 1 to 4 workers.
func TestScoreAllMatchesIndividual(t *testing.T) {
	data := walkData()
	g := grid.NewSquare(4)
	ref := testScorer(t, data, 4)
	batch := walkBatch(5, 6, walkDepth+4)
	want := make([]float64, len(batch))
	for i, p := range batch {
		got := ref.LogMatches(p)
		var naiveNM float64
		for ti, lm := range naiveLogMatches(ref, p) {
			if math.Float64bits(got[ti]) != math.Float64bits(lm) {
				t.Fatalf("pattern %v traj %d: LogMatches %v, naive %v", p, ti, got[ti], lm)
			}
			naiveNM += lm / float64(len(p))
		}
		if want[i] = ref.NM(p); math.Float64bits(want[i]) != math.Float64bits(naiveNM) {
			t.Fatalf("pattern %v: NM %v, naive %v", p, want[i], naiveNM)
		}
	}
	for workers := 1; workers <= 4; workers++ {
		s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ScoreAll(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range batch {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers %d, pattern %d %v: ScoreAll %v, NM %v", workers, i, p, got[i], want[i])
			}
		}
		if got := s.NMEvaluations(); got != len(batch) {
			t.Errorf("workers %d: %d NM evaluations for a batch of %d", workers, got, len(batch))
		}
	}
}

// TestLongPatternScratchBounded scores a pattern far longer than every
// trajectory through ScoreAll (twice in one walk, so two neighbours share
// all of it), NM and LogMatches. A walk keeps at most walkDepth level
// slots of the longest trajectory's length, so a call allocates a few
// words per pattern position, its vector list, plus a fixed allowance:
// never pattern length times trajectory length.
func TestLongPatternScratchBounded(t *testing.T) {
	const long, maxLen = 20000, 128
	data := randomDataset(3, 4, maxLen, 0.1)
	g := grid.NewSquare(4)
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := make(Pattern, long)
	for i := range p {
		p[i] = i % 3
	}
	s.Prepare([]int{0, 1, 2})
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// 160 B per position covers the vector list, 24 B a position, and its
	// amortized growth; one stack of long×maxLen floats is 20 MB.
	for _, c := range []struct {
		name      string
		positions int
		score     func()
	}{
		{"ScoreAll", 2 * long, func() {
			if _, err := s.ScoreAll(context.Background(), []Pattern{p, p}); err != nil {
				t.Fatal(err)
			}
		}},
		{"NM", long, func() { s.NM(p) }},
		{"LogMatches", long, func() { s.LogMatches(p) }},
	} {
		if got, bound := allocated(c.score), uint64(160*c.positions+1<<20); got > bound {
			t.Errorf("%s of a %d-position pattern over trajectories of %d allocated %d B, want at most %d",
				c.name, long, maxLen, got, bound)
		}
	}
}

// TestExtensionsScratchBounded extends a 20,000-position prefix over data
// with one trajectory long enough to hold its children, so Extensions sums
// the prefix's windows. The scan keeps one buffer of window sums and one
// log-match row per worker, so a call allocates its vector list, 24 B a
// position, plus a fixed allowance: a buffer per prefix level would be
// 20,000 × 640 floats, 100 MB.
func TestExtensionsScratchBounded(t *testing.T) {
	const long = 20000
	data := append(randomDataset(3, 4, 128, 0.1), randomDataset(4, 1, long+128, 0.1)...)
	g := grid.NewSquare(4)
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := make(Pattern, long)
	for i := range p {
		p[i] = i % 3
	}
	cells := []int{0, 1, 2}
	s.Prepare(cells)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Extensions(p, cells, func(int, []float64) {})
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(160*long+1<<20); got > bound {
		t.Errorf("Extensions of a %d-position prefix over %d flat positions allocated %d B, want at most %d",
			long, len(s.flat), got, bound)
	}
}

func TestProbModesBothValid(t *testing.T) {
	data := randomDataset(7, 3, 10, 0.1)
	g := grid.NewSquare(4)
	box, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth(), Mode: ProbDisk})
	if err != nil {
		t.Fatal(err)
	}
	p := Pattern{5, 6}
	bNM, dNM := box.NM(p), disk.NM(p)
	// Disk of radius δ is contained in the box of half-width δ, so the
	// disk NM is never larger.
	if dNM > bNM+1e-9 {
		t.Errorf("disk NM %v > box NM %v", dNM, bNM)
	}
	// Both are valid finite log values.
	if math.IsNaN(bNM) || math.IsNaN(dNM) || bNM > 0 || dNM > 0 {
		t.Errorf("invalid NM values: box %v disk %v", bNM, dNM)
	}
}

func TestObservedCells(t *testing.T) {
	data := traj.Dataset{{traj.P(0.05, 0.05, 0.01)}} // lower-left cell only
	s := testScorer(t, data, 10)
	cells := s.ObservedCells(0)
	if len(cells) != 1 || cells[0] != 0 {
		t.Errorf("ObservedCells(0) = %v", cells)
	}
	// With one ring: 0 and its 3 corner neighbors.
	cells = s.ObservedCells(1)
	if len(cells) != 4 {
		t.Errorf("ObservedCells(1) = %v", cells)
	}
	if got := s.AllCells(); len(got) != 100 || got[99] != 99 {
		t.Errorf("AllCells = %d cells", len(got))
	}
}

// Property: ObservedCells is the set a map builds, sorted: each snapshot
// mean's cell, plus grid.Neighbors of radius r around each of them. The
// datasets hold one to four trajectories of 0 to 12 snapshots (at least
// one in all) with means over [−0.5, 1.5)², so some fall outside the unit
// square and IndexOf clamps them to the edge. Grids run from 1×1 to 20×20
// and r from 0 to 2.
func TestQuickObservedCellsMatchesMap(t *testing.T) {
	f := func(seed uint64, nx, ny, r uint8) bool {
		rng := stat.NewRNG(seed)
		var data traj.Dataset
		for range 1 + rng.Intn(4) {
			tr := make(traj.Trajectory, rng.Intn(13))
			for j := range tr {
				tr[j] = traj.P(2*rng.Float64()-0.5, 2*rng.Float64()-0.5, 0.05)
			}
			data = append(data, tr)
		}
		data[0] = append(data[0], traj.P(2*rng.Float64()-0.5, 2*rng.Float64()-0.5, 0.05))
		g := grid.New(geom.UnitSquare(), 1+int(nx)%20, 1+int(ny)%20)
		s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			t.Log(err)
			return false
		}
		ring := int(r) % 3
		set := map[int]bool{}
		for _, tr := range data {
			for _, pt := range tr {
				set[g.IndexOf(pt.Mean)] = true
			}
		}
		var want []int
		for c := range set {
			want = append(want, c)
			for _, n := range g.Neighbors(c, ring) {
				want = append(want, n)
			}
		}
		sort.Ints(want)
		want = slices.Compact(want)
		if got := s.ObservedCells(ring); !slices.Equal(got, want) {
			t.Logf("%v, r %d: got %v, want %v", g, ring, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestObservedCellsDeterministic is the regression test for the trajlint
// determinism finding in ObservedCells: the base cells were expanded in map
// iteration order. The output must be identical (and sorted) across calls.
func TestObservedCellsDeterministic(t *testing.T) {
	data := traj.Dataset{
		{traj.P(0.05, 0.05, 0.01), traj.P(0.55, 0.55, 0.01), traj.P(0.95, 0.15, 0.01)},
		{traj.P(0.25, 0.85, 0.01), traj.P(0.65, 0.35, 0.01)},
	}
	s := testScorer(t, data, 10)
	first := s.ObservedCells(2)
	if !sort.IntsAreSorted(first) {
		t.Fatalf("ObservedCells not sorted: %v", first)
	}
	for i := 0; i < 10; i++ {
		got := s.ObservedCells(2)
		if len(got) != len(first) {
			t.Fatalf("run %d: %d cells, want %d", i, len(got), len(first))
		}
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("run %d differs at %d: %v vs %v", i, j, got, first)
			}
		}
	}
}

// TestLogMatchesMatchesNaiveScan checks the unrolled window-scan kernels
// against a window-by-window reference that adds each window's terms in
// pattern order: LogMatches and NM must agree with it to the bit for every
// pattern length up to past the unroll width and every trajectory length,
// including those shorter than the pattern.
func TestLogMatchesMatchesNaiveScan(t *testing.T) {
	var data traj.Dataset
	for n := 1; n <= 13; n++ {
		data = append(data, randomDataset(uint64(n), 1, n, 0.1)...)
	}
	s := testScorer(t, data, 4)
	rng := stat.NewRNG(77)
	for trial := 0; trial < 40; trial++ {
		p := make(Pattern, 1+trial%7)
		for i := range p {
			p[i] = rng.Intn(16)
		}
		vecs := s.vectors(p, nil)
		got := s.LogMatches(p)
		var nm float64
		for ti, tr := range data {
			want := DefaultLogFloor * float64(len(p))
			if len(tr) >= len(p) {
				want = math.Inf(-1)
				for w := 0; w+len(p) <= len(tr); w++ {
					var sum float64
					for j := range p {
						sum += vecs[j][s.offsets[ti]+w+j]
					}
					want = math.Max(want, sum)
				}
			}
			if math.Float64bits(got[ti]) != math.Float64bits(want) {
				t.Fatalf("pattern %v traj %d (len %d): LogMatches %v, naive %v", p, ti, len(tr), got[ti], want)
			}
			nm += want / float64(len(p))
		}
		if got := s.NM(p); math.Float64bits(got) != math.Float64bits(nm) {
			t.Fatalf("pattern %v: NM %v, naive %v", p, got, nm)
		}
	}
}

// TestConcurrentScoringSharedScorer drives one unprepared Scorer from
// several goroutines at once, as concurrent /v1/score batches do: ScoreAll
// and NM over overlapping cells. Every score must equal a serial scorer's
// to the bit, each distinct cell must be cached exactly once, and every
// vector lookup must count as either a build or a hit.
func TestConcurrentScoringSharedScorer(t *testing.T) {
	data := randomDataset(21, 6, 30, 0.1)
	g := grid.NewSquare(5)
	reg := obs.New()
	shared, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth(), Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	serial := testScorer(t, data, 5)
	rng := stat.NewRNG(5)
	patterns := make([]Pattern, 40)
	distinct := make(map[int]bool)
	lookups := 0
	for i := range patterns {
		p := make(Pattern, 1+rng.Intn(5))
		for j := range p {
			p[j] = rng.Intn(15) // 15 of the 25 cells: batches overlap
			distinct[p[j]] = true
		}
		patterns[i] = p
		lookups += len(p)
	}
	want := make([]float64, len(patterns))
	for i, p := range patterns {
		want[i] = serial.NM(p)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				got, err := shared.ScoreAll(context.Background(), patterns)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("ScoreAll pattern %d: %v, serial %v", i, got[i], want[i])
					}
				}
				return
			}
			for k := range patterns {
				i := (k + w*5) % len(patterns)
				if got := shared.NM(patterns[i]); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("NM pattern %d: %v, serial %v", i, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()

	if got := shared.InstalledCells(); got != len(distinct) {
		t.Errorf("%d installed vectors, want %d distinct cells", got, len(distinct))
	}
	if got := shared.NMEvaluations(); got != goroutines*len(patterns) {
		t.Errorf("NMEvaluations = %d, want %d", got, goroutines*len(patterns))
	}
	// Each ScoreAll also looks up every distinct cell once to prepare it.
	total := int64(goroutines*lookups + goroutines/2*len(distinct))
	snap := reg.Snapshot()
	if got := snap.Counter("scorer.cells.built") + snap.Counter("scorer.cache.hits"); got != total {
		t.Errorf("cells built + cache hits = %d, want %d lookups", got, total)
	}
}

func TestNMEmptyPatternPanics(t *testing.T) {
	s := testScorer(t, randomDataset(8, 2, 5, 0.1), 4)
	for _, f := range []func(){
		func() { s.NM(nil) },
		func() { s.Match(nil) },
		func() { s.LogMatches(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on empty pattern")
				}
			}()
			f()
		}()
	}
}

// Property: NM is always <= 0 (probabilities never exceed 1) and >= floor.
func TestQuickNMBounds(t *testing.T) {
	data := randomDataset(9, 3, 10, 0.1)
	s := testScorer(t, data, 4)
	floor := DefaultLogFloor * float64(len(data))
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		p := make(Pattern, len(raw))
		for i, v := range raw {
			p[i] = int(v) % 16
		}
		nm := s.NM(p)
		return nm <= 1e-12 && nm >= floor-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property (full min-max over random datasets too, not just one fixture),
// in its length-weighted form as well: NM(A·B) ≤ (|A|·NM(A) + |B|·NM(B)) /
// (|A| + |B|), the bound the miner's pair skip rests on (DESIGN §4,
// deviation 4).
func TestQuickMinMaxProperty(t *testing.T) {
	f := func(seed uint64, rawP []uint8, cutRaw uint8) bool {
		if len(rawP) < 2 || len(rawP) > 6 {
			return true
		}
		data := randomDataset(seed, 2, 8, 0.15)
		g := grid.NewSquare(3)
		s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			return false
		}
		p := make(Pattern, len(rawP))
		for i, v := range rawP {
			p[i] = int(v) % 9
		}
		cut := 1 + int(cutRaw)%(len(p)-1)
		a, b := float64(cut), float64(len(p)-cut)
		nmA, nmB := s.NM(p[:cut]), s.NM(p[cut:])
		lm := (a*nmA + b*nmB) / (a + b)
		return s.NM(p) <= math.Max(nmA, nmB)+1e-9 && s.NM(p) <= lm+1e-9*math.Abs(lm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
