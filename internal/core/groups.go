package core

import (
	"fmt"
	"math"
	"sort"

	"trajpattern/internal/grid"
	"trajpattern/internal/trace"
)

// Group is a pattern group (Definition 2): a set of patterns of equal
// length that are pairwise similar — at every snapshot the distance between
// any two members is at most γ (Definition 1). Members are ordered
// deterministically.
type Group struct {
	Members []Pattern
}

// Len returns the number of member patterns.
func (g Group) Len() int { return len(g.Members) }

// PatternLen returns the common length of the member patterns, or 0 for an
// empty group.
func (g Group) PatternLen() int {
	if len(g.Members) == 0 {
		return 0
	}
	return len(g.Members[0])
}

// Similar reports whether two patterns of the same length are similar
// patterns per Definition 1: at every snapshot their positions are within
// gamma (Euclidean distance between cell centers). Patterns of different
// lengths are never similar.
func Similar(a, b Pattern, g *grid.Grid, gamma float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if g.CenterAt(a[i]).Dist(g.CenterAt(b[i])) > gamma {
			return false
		}
	}
	return true
}

// DiscoverGroups clusters the given patterns into pattern groups following
// Section 4.2: patterns are first bucketed by length; within a bucket the
// patterns are clustered at each snapshot into "snapshot groups" (sets
// whose positions at that snapshot are pairwise within gamma); then the
// iterative smallest-group intersection procedure assembles pattern groups.
//
// Every returned group satisfies the pairwise-γ-at-every-snapshot
// invariant, every input pattern appears in exactly one group, and the
// output order is deterministic. The paper recommends γ = 3σ̄ (Section 5).
//
// When tr is non-nil the clustering is recorded as one "groups.cluster"
// span (pattern count, γ, resulting group count) on the shared run
// timeline; a nil tr records nothing.
func DiscoverGroups(patterns []Pattern, g *grid.Grid, gamma float64, tr *trace.Tracer) (groups []Group, err error) {
	var sp *trace.Span
	if tr != nil {
		sp = tr.Local().Span("groups.cluster", trace.Attrs{"patterns": len(patterns), "gamma": gamma})
	}
	defer func() { sp.Attr("groups", len(groups)).End() }()
	// NaN fails every comparison (a NaN γ would pass `< 0` and make every
	// similarity test false), so reject it explicitly.
	if math.IsNaN(gamma) || gamma < 0 {
		return nil, cfgErr("Groups", "Gamma", "must be >= 0 and not NaN, got %v", gamma)
	}
	byLen := make(map[int][]Pattern)
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("core: empty pattern at index %d", i)
		}
		byLen[len(p)] = append(byLen[len(p)], p)
	}
	lengths := make([]int, 0, len(byLen))
	for l := range byLen {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)

	for _, l := range lengths {
		bucket := byLen[l]
		sort.Slice(bucket, func(i, j int) bool { return bucket[i].Key() < bucket[j].Key() })
		groups = append(groups, groupBucket(bucket, g, gamma)...)
	}
	return groups, nil
}

// groupBucket runs the §4.2 procedure on patterns of one common length.
func groupBucket(bucket []Pattern, g *grid.Grid, gamma float64) []Group {
	n := len(bucket)
	if n == 0 {
		return nil
	}
	m := len(bucket[0])

	// Snapshot groups: cluster pattern indices at each snapshot. Greedy
	// complete-linkage assignment in deterministic order: a pattern joins
	// the first cluster whose every member is within gamma at this
	// snapshot.
	snapGroups := make([][][]int, m) // per snapshot: list of clusters of indices
	for s := 0; s < m; s++ {
		var clusters [][]int
	assign:
		for i := 0; i < n; i++ {
			pi := g.CenterAt(bucket[i][s])
			for ci, cl := range clusters {
				ok := true
				for _, j := range cl {
					if pi.Dist(g.CenterAt(bucket[j][s])) > gamma {
						ok = false
						break
					}
				}
				if ok {
					clusters[ci] = append(clusters[ci], i)
					continue assign
				}
			}
			clusters = append(clusters, []int{i})
		}
		snapGroups[s] = clusters
	}

	remaining := make(map[int]struct{}, n)
	for i := 0; i < n; i++ {
		remaining[i] = struct{}{}
	}

	// live returns cluster restricted to remaining patterns.
	live := func(cl []int) []int {
		var out []int
		for _, i := range cl {
			if _, ok := remaining[i]; ok {
				out = append(out, i)
			}
		}
		return out
	}

	emit := func(members []int) Group {
		sort.Ints(members)
		grp := Group{Members: make([]Pattern, len(members))}
		for i, idx := range members {
			grp.Members[i] = bucket[idx]
			delete(remaining, idx)
		}
		return grp
	}

	var groups []Group
	for len(remaining) > 0 {
		// Find the smallest non-empty live snapshot group.
		var smallest []int
		for s := 0; s < m; s++ {
			for _, cl := range snapGroups[s] {
				lv := live(cl)
				if len(lv) == 0 {
					continue
				}
				if smallest == nil || len(lv) < len(smallest) {
					smallest = lv
				}
			}
		}
		cand := smallest
		// Intersect with the snapshot groups of other snapshots until the
		// candidate is contained in some group at every snapshot.
		for len(cand) > 1 {
			contained := true
			var bestInter []int
			for s := 0; s < m && contained; s++ {
				found := false
				for _, cl := range snapGroups[s] {
					lv := live(cl)
					if containsAll(lv, cand) {
						found = true
						break
					}
					if in := intersect(cand, lv); len(in) > 0 {
						if bestInter == nil || len(in) < len(bestInter) {
							bestInter = in
						}
					}
				}
				if !found {
					contained = false
				}
			}
			if contained {
				break
			}
			cand = bestInter
		}
		groups = append(groups, emit(cand))
	}

	// Deterministic output order: by first member's key.
	sort.Slice(groups, func(i, j int) bool {
		return groups[i].Members[0].Key() < groups[j].Members[0].Key()
	})
	return groups
}

// containsAll reports whether set (sorted or not) contains every element of
// sub.
func containsAll(set, sub []int) bool {
	in := make(map[int]struct{}, len(set))
	for _, v := range set {
		in[v] = struct{}{}
	}
	for _, v := range sub {
		if _, ok := in[v]; !ok {
			return false
		}
	}
	return true
}

// intersect returns the elements of a that are also in b, in a's order.
func intersect(a, b []int) []int {
	in := make(map[int]struct{}, len(b))
	for _, v := range b {
		in[v] = struct{}{}
	}
	var out []int
	for _, v := range a {
		if _, ok := in[v]; ok {
			out = append(out, v)
		}
	}
	return out
}

// DefaultGamma returns the paper's recommended maximum similar-pattern
// distance γ = 3σ̄ for a dataset with mean standard deviation sigmaBar
// (Section 5: the normal distribution concentrates ~99.7% of its mass
// within 3σ).
func DefaultGamma(sigmaBar float64) float64 { return 3 * sigmaBar }
