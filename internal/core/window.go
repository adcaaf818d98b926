package core

// The window-scan kernels. The window scans of NM, LogMatches, the match
// measures and PB's Projection all run through them. They unroll across
// windows, four at a time, never across the terms of one window sum, so
// each sum takes its terms in the order of the caller's passes and is the
// same float a plain loop would produce. The unrolled bodies carry no
// bounds checks; besides being faster, that keeps their speed from
// depending on where the linker happens to place the loop.

// addTo adds src into dst element by element: dst[i] += src[i] for every
// i < len(dst). src must be at least as long as dst.
func addTo(dst, src []float64) {
	src = src[:len(dst)]
	for len(dst) >= 4 && len(src) >= 4 {
		dst[0] += src[0]
		dst[1] += src[1]
		dst[2] += src[2]
		dst[3] += src[3]
		dst, src = dst[4:], src[4:]
	}
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
	}
}

// addMax returns the largest acc[i] + src[i] over i < len(acc), comparing
// in index order, without writing acc: the final pass of a window scan
// fused with its maximum. acc must be non-empty and src at least as long.
func addMax(acc, src []float64) float64 {
	src = src[:len(acc)]
	best := acc[0] + src[0]
	acc, src = acc[1:], src[1:]
	for len(acc) >= 4 && len(src) >= 4 {
		v0 := acc[0] + src[0]
		v1 := acc[1] + src[1]
		v2 := acc[2] + src[2]
		v3 := acc[3] + src[3]
		if v0 > best {
			best = v0
		}
		if v1 > best {
			best = v1
		}
		if v2 > best {
			best = v2
		}
		if v3 > best {
			best = v3
		}
		acc, src = acc[4:], src[4:]
	}
	src = src[:len(acc)]
	for i, a := range acc {
		if v := a + src[i]; v > best {
			best = v
		}
	}
	return best
}

// maxOf returns the largest element of the non-empty v.
func maxOf(v []float64) float64 {
	best := v[0]
	for _, x := range v[1:] {
		if x > best {
			best = x
		}
	}
	return best
}

// Projection holds a prefix's window sums over every trajectory, built
// once so that each one-cell extension prefix·c is scored by a single
// fused add-and-max pass per trajectory instead of a scan of all its
// positions. The extension's window sum is the prefix's sum plus one term,
// so its log-match is the same float a from-scratch scan of prefix·c
// gives. The zero value is empty; Scorer.Project fills it.
type Projection struct {
	s *Scorer
	m int // prefix length
	// Trajectory ti's sums live at sums[off[ti]:off[ti+1]]: one per window
	// of the prefix that leaves room for one more position, so a
	// trajectory no longer than the prefix has none.
	sums []float64
	off  []int
}

// Project builds into pr the window sums of prefix over every trajectory,
// reusing pr's buffers.
func (s *Scorer) Project(pr *Projection, prefix Pattern) {
	if len(prefix) == 0 {
		panic("core: projection of empty prefix")
	}
	m := len(prefix)
	pr.s, pr.m = s, m
	pr.off = append(pr.off[:0], 0)
	n := 0
	for ti := range s.data {
		n += max(0, s.offsets[ti+1]-s.offsets[ti]-m)
		pr.off = append(pr.off, n)
	}
	if cap(pr.sums) < n {
		pr.sums = make([]float64, n)
	}
	pr.sums = pr.sums[:n]
	sc := s.newScan(prefix)
	defer s.release(sc)
	for ti := range s.data {
		acc := pr.sums[pr.off[ti]:pr.off[ti+1]]
		if len(acc) == 0 {
			continue
		}
		start := s.offsets[ti]
		copy(acc, sc.vecs[0][start:])
		for j := 1; j < m; j++ {
			addTo(acc, sc.vecs[j][start+j:])
		}
	}
}

// ExtendLogMatches writes into dst[ti], for every trajectory ti, the
// best-window log-match of prefix·cell, exactly as LogMatches would
// return it. dst must have one element per trajectory.
func (pr *Projection) ExtendLogMatches(cell int, dst []float64) {
	s := pr.s
	v := s.cellLogProbs(cell)
	floor := s.cfg.LogFloor * float64(pr.m+1)
	for ti := range dst {
		acc := pr.sums[pr.off[ti]:pr.off[ti+1]]
		if len(acc) == 0 {
			dst[ti] = floor
			continue
		}
		dst[ti] = addMax(acc, v[s.offsets[ti]+pr.m:])
	}
}
