package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"trajpattern/internal/core"
)

// cand is one merge candidate: a pattern from some shard's memo, with its
// global NM assembled from per-shard exact values and, until rescoring
// fills them in, min-max upper bounds for the missing shards.
type cand struct {
	key     string
	pat     core.Pattern
	exact   float64 // sum of known per-shard NMs, fixed shard order
	ub      float64 // exact + Σ upper bounds of the missing shards
	missing []int   // shard indices with no memoized NM for this pattern
}

// merge combines the shards' terminal candidate sets into the global
// top-k. The rule, justified by the paper's min-max property (NM is a sum
// over trajectories, hence a sum over shards, and every per-position log
// probability is ≤ 0):
//
//  1. Candidates are the union of the shards' NM memos (every pattern any
//     shard ever scored), restricted to length ≥ MinLen. Final Q sets are
//     not enough: a pattern can rank in the global top-k while being
//     pruned from every shard's local Q, but its per-shard evaluations
//     survive in the memos.
//  2. A candidate's NM on shard s is read from that shard's memo when the
//     shard ever scored it; otherwise it is bounded above by
//     (1/m)·min_j NM1_s(c_j) — the shard-s NM of the pattern's weakest
//     singular cell, which every memo holds because all shards score the
//     same global seed set. (A window sum of m log-probs is at most its
//     smallest term, and the short-trajectory floor case only lowers it.)
//  3. The k-th best among fully-known candidates is the global floor; any
//     candidate whose upper bound falls below it cannot reach the top-k
//     and is pruned unscored.
//  4. Survivors are batch-rescored on exactly their missing shards, one
//     goroutine per shard, and global NMs are summed in fixed shard order
//     so the result is deterministic for a given shard count.
//
// Cancellation during rescoring degrades to the fully-known candidates
// (reason non-empty); a scoring panic is a hard error.
func (e *Engine) merge(ctx context.Context, cfg core.MinerConfig, states []*core.Checkpoint) ([]core.ScoredPattern, string, error) {
	n := len(states)
	k := cfg.K
	minLen := max(cfg.MinLen, 1)

	// Build the per-shard memos and, in the same pass, the candidate union:
	// every length-eligible pattern any shard ever scored. Sorting the keys
	// makes the candidate order independent of shard order.
	memos := make([]map[string]float64, n)
	seen := make(map[string]core.Pattern)
	var keys []string
	for i, st := range states {
		memos[i] = map[string]float64{}
		if st == nil {
			continue
		}
		for _, se := range st.Evaluated {
			pat := core.Pattern(se.Cells)
			key := pat.Key()
			memos[i][key] = se.NM
			if len(pat) < minLen {
				continue
			}
			if _, ok := seen[key]; ok {
				continue
			}
			seen[key] = pat
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)

	var exact, partial []*cand
	for _, key := range keys {
		c := &cand{key: key, pat: seen[key]}
		for s := 0; s < n; s++ {
			if nm, ok := memos[s][key]; ok {
				c.exact += nm
				c.ub += nm
			} else {
				c.missing = append(c.missing, s)
				c.ub += singularBound(memos[s], c.pat)
			}
		}
		if len(c.missing) == 0 {
			exact = append(exact, c)
		} else {
			partial = append(partial, c)
		}
	}
	slices.SortFunc(exact, compareCands)

	// Global floor: with k fully-known candidates in hand, the true top-k
	// all have NM ≥ exact[k-1].exact, so any upper bound below it is out.
	floor := math.Inf(-1)
	if len(exact) >= k {
		floor = exact[k-1].exact
	}
	survivors := partial[:0]
	for _, c := range partial {
		if c.ub < floor {
			continue
		}
		survivors = append(survivors, c)
	}

	// Rescore each survivor on exactly its missing shards, one batch and
	// one goroutine per shard.
	reason := ""
	if len(survivors) > 0 {
		byShard := make([][]core.Pattern, n)
		for _, c := range survivors {
			for _, s := range c.missing {
				byShard[s] = append(byShard[s], c.pat)
			}
		}
		vals := make([][]float64, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for s, pats := range byShard {
			if len(pats) == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				vals[s], errs[s] = e.scorers[s].ScoreAll(ctx, pats)
			}()
		}
		wg.Wait()
		for s, err := range errs {
			if err == nil {
				continue
			}
			var pe *core.ScorePanicError
			if errors.As(err, &pe) {
				return nil, "", fmt.Errorf("shard %d/%d: merge rescoring: %w", s, n, err)
			}
			// Cancelled: the partial candidates cannot be completed, so
			// the fully-known set is the best answer still derivable.
			reason = fmt.Sprintf("merge rescoring: %v", context.Cause(ctx))
			survivors = nil
			break
		}
		for s := 0; s < n && survivors != nil; s++ {
			for i, p := range byShard[s] {
				memos[s][p.Key()] = vals[s][i]
			}
		}
		for _, c := range survivors {
			c.exact = 0
			for s := 0; s < n; s++ {
				c.exact += memos[s][c.key]
			}
		}
	}

	final := append(exact, survivors...)
	slices.SortFunc(final, compareCands)
	if len(final) > k {
		final = final[:k]
	}
	out := make([]core.ScoredPattern, len(final))
	for i, c := range final {
		out[i] = core.ScoredPattern{Pattern: c.pat, NM: c.exact}
	}
	return out, reason, nil
}

// singularBound returns a sound upper bound on a pattern's NM in the
// shard behind memo: (1/m) times the shard NM of the pattern's weakest
// singular cell. Every per-position log probability is ≤ 0, so a window
// sum of m of them is at most its minimum term, which for the best window
// is at most the singular NM of that cell; the short-trajectory case
// contributes m·floor/m = floor per trajectory to both sides. A cell
// absent from the memo (a shard cancelled before seeding) falls back to
// 0, the global maximum of any NM contribution.
func singularBound(memo map[string]float64, pat core.Pattern) float64 {
	best := 0.0
	for i, cell := range pat {
		nm1, ok := memo[core.Pattern{cell}.Key()]
		if !ok {
			return 0
		}
		if i == 0 || nm1 < best {
			best = nm1
		}
	}
	return best / float64(len(pat))
}

// compareCands ranks candidates as core.Mine ranks its answer.
func compareCands(a, b *cand) int { return core.CompareRank(a.exact, a.pat, b.exact, b.pat) }
