package baseline

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"trajpattern/internal/core"
	"trajpattern/internal/datagen"
	"trajpattern/internal/grid"
)

// lmCompletion is an independent top-k oracle for instances too large
// for ExhaustiveNM: the LM-bound completion. Write LM(P) = Σ_T log M(P, T),
// the best-window log-matches summed over trajectories. A window of A·B
// splits into a window of A and one of B, so LM(A·B) ≤ LM(A) + LM(B); each
// position adds at most β_T to log M(P, T), β_T being trajectory T's best
// singular log-prob over seeds, so for any prefix R of a length-n pattern
// P, LM(P) ≤ LM(R) + (n − |R|)·B with B = Σ_T β_T. The floor terms of
// trajectories shorter than P keep both inequalities.
//
// omegaD must be a lower bound on the true kth NM, such as the kth NM of
// any k real patterns. Every prefix R of a true top-k pattern then has
// LM(R) ≥ t(|R|), t(r) being the least n·ω_d − (n − r)·B over n in [r,
// maxLen], lowered by a relative 1e-9 so that rounding never drops a
// pattern whose NM ties ω_d. The completion grows level by level from
// the seed cells, scoring R·c only if LM(R) + LM(c) ≥ t(|R| + 1) and
// keeping a scored pattern for the next level only if its LM reaches t of
// its length. Each kept R's children are one Extensions scan, as are the
// seeds, whose scan also gives each β_T as the max of their log-matches
// in T. It returns the best k of everything it scored in core.CompareRank
// order, each NM summed as Σ_T (log M_T / m) in trajectory order
// (Scorer.NM's bits), and how many patterns it scored.
func lmCompletion(s *core.Scorer, seeds []int, k, maxLen int, omegaD float64) ([]core.ScoredPattern, int) {
	beta := make([]float64, s.NumTrajectories())
	for ti := range beta {
		beta[ti] = math.Inf(-1)
	}
	var mu sync.Mutex
	var all []core.ScoredPattern
	// score scores prefix·c for every c in cells in one Extensions scan,
	// records each in all and returns their LMs. The seeds' scan, the
	// empty prefix's, also folds their log-matches into beta.
	score := func(prefix core.Pattern, cells []int) []float64 {
		lms := make([]float64, len(cells))
		scored := make([]core.ScoredPattern, len(cells))
		s.Extensions(prefix, cells, func(i int, logM []float64) {
			p := prefix.Concat(core.Pattern{cells[i]})
			var nm float64
			for _, v := range logM {
				lms[i] += v
				nm += v / float64(len(p))
			}
			scored[i] = core.ScoredPattern{Pattern: p, NM: nm}
			if len(prefix) == 0 {
				mu.Lock()
				for ti, v := range logM {
					beta[ti] = max(beta[ti], v)
				}
				mu.Unlock()
			}
		})
		all = append(all, scored...)
		return lms
	}
	cellLM := score(nil, seeds)
	var sumBeta float64
	for _, b := range beta {
		sumBeta += b
	}
	t := func(r int) float64 {
		least := math.Inf(1)
		for n := r; n <= maxLen; n++ {
			least = min(least, float64(n)*omegaD-float64(n-r)*sumBeta)
		}
		return least - 1e-9*math.Abs(least)
	}

	type node struct {
		pat core.Pattern
		lm  float64
	}
	var level []node
	for i, c := range seeds {
		if cellLM[i] >= t(1) {
			level = append(level, node{core.Pattern{c}, cellLM[i]})
		}
	}
	for r := 1; r < maxLen && len(level) > 0; r++ {
		tr := t(r + 1)
		var next []node
		for _, R := range level {
			var kids []int
			for i, c := range seeds {
				if R.lm+cellLM[i] >= tr {
					kids = append(kids, c)
				}
			}
			if len(kids) == 0 {
				continue
			}
			for i, lm := range score(R.pat, kids) {
				if lm >= tr {
					next = append(next, node{R.pat.Concat(core.Pattern{kids[i]}), lm})
				}
			}
		}
		level = next
	}
	evals := len(all)
	slices.SortFunc(all, compareScored)
	return all[:min(k, len(all))], evals
}

// certify checks that got is the exact top-k by NM over seeds with
// patterns up to maxLen, key for key and NM bit for bit, and returns how
// many patterns the completion scored. got's own NMs must be Scorer.NM's,
// which makes its kth NM the completion's lower bound ω_d.
func certify(s *core.Scorer, seeds []int, k, maxLen int, got []core.ScoredPattern) (int, error) {
	if len(got) != k {
		return 0, fmt.Errorf("%d patterns, want %d", len(got), k)
	}
	for i, sp := range got {
		if nm := s.NM(sp.Pattern); math.Float64bits(sp.NM) != math.Float64bits(nm) {
			return 0, fmt.Errorf("rank %d: %s claims NM %v, Scorer.NM is %v", i, sp.Pattern.Key(), sp.NM, nm)
		}
	}
	want, evals := lmCompletion(s, seeds, k, maxLen, got[k-1].NM)
	return evals, sameTopK(got, want)
}

// sameTopK reports the first rank where got and want differ in key or NM
// bits.
func sameTopK(got, want []core.ScoredPattern) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d patterns, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Pattern.Equal(want[i].Pattern) || math.Float64bits(got[i].NM) != math.Float64bits(want[i].NM) {
			return fmt.Errorf("rank %d: %s %v, want %s %v",
				i, got[i].Pattern.Key(), got[i].NM, want[i].Pattern.Key(), want[i].NM)
		}
	}
	return nil
}

// TestCertifyMineOnBenchmarkInstances certifies core.Mine's top-k, key for
// key and bit for bit, on the four zebra instances the benchmark mines:
// its mine-cold instance on the 16×16 and 12×12 grids and its Figure 4
// instance on the 12×12 and 9×9 grids. The miner's ω-based pair skip is
// not a theorem about the final answer; this is the evidence that it
// leaves these answers exact. It also plants a wrong answer on the
// smallest instance, rank 0 dropped and rank k+1 appended, and requires
// the certificate to refuse it.
func TestCertifyMineOnBenchmarkInstances(t *testing.T) {
	for _, in := range []struct{ s, l, k, gridN int }{
		{160, 120, 20, 16},
		{160, 120, 20, 12},
		{80, 60, 10, 12},
		{80, 60, 10, 9},
	} {
		name := fmt.Sprintf("S%d_L%d_K%d_grid%d", in.s, in.l, in.k, in.gridN)
		t.Run(name, func(t *testing.T) {
			ds, err := datagen.ZebraDataset(datagen.ZebraConfig{NumZebras: in.s, AvgLen: in.l, NumGroups: 5, Seed: 1}, 0.02, 2)
			if err != nil {
				t.Fatal(err)
			}
			g := grid.NewSquare(in.gridN)
			s, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth()})
			if err != nil {
				t.Fatal(err)
			}
			const maxLen = 6
			mine := func(k int) []core.ScoredPattern {
				res, err := core.Mine(context.Background(), s, core.MinerConfig{K: k, MaxLen: maxLen, MaxLowQ: 4 * k})
				if err != nil {
					t.Fatal(err)
				}
				return res.Patterns
			}
			seeds := s.ObservedCells(1)
			got := mine(in.k)
			evals, err := certify(s, seeds, in.k, maxLen, got)
			if err != nil {
				t.Fatalf("core.Mine's top-%d is not the exact one: %v", in.k, err)
			}
			t.Logf("certified top-%d with %d completion evaluations", in.k, evals)
			if in.gridN != 9 {
				return
			}
			// The planted answer: the exact top-(k+1) without its rank 0.
			// The miner's (k+1)th NM is a real pattern's, so it bounds the
			// true (k+1)th from below.
			wider := mine(in.k + 1)
			exact, _ := lmCompletion(s, seeds, in.k+1, maxLen, wider[in.k].NM)
			if err := sameTopK(exact[:in.k], got); err != nil {
				t.Fatalf("the exact top-%d does not extend the certified top-%d: %v", in.k+1, in.k, err)
			}
			if _, err := certify(s, seeds, in.k, maxLen, exact[1:]); err == nil {
				t.Fatal("the certificate accepted a top-k missing its rank 0")
			}
		})
	}
}

// Property: on random tiny instances, the completion returns exactly
// ExhaustiveNM's top-k when ω_d is core.Mine's kth NM, a lower bound that
// may sit below the true kth NM. Shapes vary k, MaxLen and the grid.
func TestQuickLMCompletionMatchesExhaustive(t *testing.T) {
	f := func(seed uint64, shape uint8) bool {
		k := []int{3, 5, 10}[shape%3]
		maxLen := 3 + int(shape/3)%2
		n := 2 + int(shape/6)%2
		data := randomTiny(seed)
		g := grid.NewSquare(n)
		s, err := core.NewScorer(data, core.Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			return false
		}
		seeds := s.AllCells()
		res, err := core.Mine(context.Background(), s, core.MinerConfig{K: k, MaxLen: maxLen, Seeds: seeds})
		if err != nil || len(res.Patterns) != k {
			return false
		}
		oracle, err := ExhaustiveNM(s, seeds, k, 1, maxLen)
		if err != nil {
			return false
		}
		got, _ := lmCompletion(s, seeds, k, maxLen, res.Patterns[k-1].NM)
		if err := sameTopK(got, oracle); err != nil {
			t.Logf("seed %d, k %d, MaxLen %d, %d×%d grid: %v", seed, k, maxLen, n, n, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
