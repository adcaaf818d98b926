package baseline

import (
	"fmt"

	"trajpattern/internal/core"
)

// MaxExhaustiveSpace bounds the |seeds|^maxLen search space Exhaustive is
// willing to enumerate; beyond it the call errors instead of running for
// hours. The oracle is a correctness tool for tiny instances only.
const MaxExhaustiveSpace = 50_000_000

// ExhaustiveNM enumerates every pattern over the seed alphabet with length
// in [minLen, maxLen] and returns the exact top-k by NM. It is the test
// oracle for the other miners.
func ExhaustiveNM(s *core.Scorer, seeds []int, k, minLen, maxLen int) ([]core.ScoredPattern, error) {
	if err := checkExhaustive(seeds, k, minLen, maxLen); err != nil {
		return nil, err
	}
	top := newTopK(k)
	enumerate(seeds, minLen, maxLen, func(p core.Pattern) {
		top.offer(p, s.NM(p))
	})
	return top.items, nil
}

// ExhaustiveMatch is ExhaustiveNM for the match measure.
func ExhaustiveMatch(s *core.Scorer, seeds []int, k, minLen, maxLen int) ([]ScoredMatch, error) {
	if err := checkExhaustive(seeds, k, minLen, maxLen); err != nil {
		return nil, err
	}
	top := newTopMatch(k)
	enumerate(seeds, minLen, maxLen, func(p core.Pattern) {
		top.offer(p, s.Match(p))
	})
	return top.items, nil
}

func checkExhaustive(seeds []int, k, minLen, maxLen int) error {
	if k <= 0 {
		return fmt.Errorf("baseline: k must be > 0")
	}
	if len(seeds) == 0 {
		return fmt.Errorf("baseline: no seed cells")
	}
	if minLen < 1 || maxLen < minLen {
		return fmt.Errorf("baseline: invalid length bounds [%d,%d]", minLen, maxLen)
	}
	space := 1.0
	total := 0.0
	for l := 1; l <= maxLen; l++ {
		space *= float64(len(seeds))
		total += space
		if total > MaxExhaustiveSpace {
			return fmt.Errorf("baseline: exhaustive space %d^%d exceeds limit %d",
				len(seeds), maxLen, MaxExhaustiveSpace)
		}
	}
	return nil
}

// enumerate visits every pattern over seeds with length in [minLen,
// maxLen], in lexicographic seed order.
func enumerate(seeds []int, minLen, maxLen int, visit func(core.Pattern)) {
	var cur core.Pattern
	var rec func()
	rec = func() {
		if len(cur) >= minLen {
			visit(cur)
		}
		if len(cur) == maxLen {
			return
		}
		for _, c := range seeds {
			cur = append(cur, c)
			rec()
			cur = cur[:len(cur)-1]
		}
	}
	rec()
}
