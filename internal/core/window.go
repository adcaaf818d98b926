package core

import "sync"

// The window-scan kernels and the shared-prefix walk built on them. Every
// window scan runs through four kernels: the one-pattern scan behind NM,
// NMWild, LogMatches and Match and ScoreAll's walk through add, addMax and
// maxOf, and Extensions through extend, which scores four children of a
// prefix per pass over the trajectories. On amd64 they are AVX2 assembly
// (window_amd64.s), chosen when the package loads if the CPU and the OS
// support AVX2; elsewhere, on older CPUs and in race-detector builds they
// are the Go kernels below, which are also the assembly's reference. Both
// work across windows (and extend across children), never across the
// terms of one window sum, so each sum takes its terms in the order of the
// caller's passes and is the same float a plain loop would produce.
// A max is an exact selection, so taking it lane by lane returns the
// in-order loop's value as long as no input is NaN or -0; every built
// entry lies in [DefaultLogFloor, 0] with log 1 = +0, and a wildcard reads
// +0, so neither occurs. The Go kernels unroll four windows at a time;
// their unrolled bodies carry no bounds checks, which besides being faster
// keeps their speed from depending on where the linker places the loop.

// addGo writes a[i] + b[i] into dst[i] for every i < len(dst). a and b
// must be at least as long as dst; dst may start where a starts.
func addGo(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for len(dst) >= 4 && len(a) >= 4 && len(b) >= 4 {
		dst[0] = a[0] + b[0]
		dst[1] = a[1] + b[1]
		dst[2] = a[2] + b[2]
		dst[3] = a[3] + b[3]
		dst, a, b = dst[4:], a[4:], b[4:]
	}
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// addMaxGo returns the largest acc[i] + src[i] over i < len(acc),
// comparing in index order, without writing acc: the final pass of a
// window scan fused with its maximum. acc must be non-empty and src at
// least as long.
func addMaxGo(acc, src []float64) float64 {
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

// maxOfGo returns the largest element of the non-empty v.
func maxOfGo(v []float64) float64 {
	best := v[0]
	for _, x := range v[1:] {
		if x > best {
			best = x
		}
	}
	return best
}

// extendGo scores four one-cell children of an i-position prefix in every
// trajectory, trajectory t being flat positions offsets[t] to
// offsets[t+1]. Into rows[k·nt+t], nt = len(offsets)−1, it writes child
// k's log-match: the largest sums[w] + vecs[k][w+i] over t's windows w, as
// addMaxGo returns it, or DefaultLogFloor·(i+1) where t has no more than i
// positions. sums holds the prefix's window sum at each flat position
// (zero for the empty prefix). rows must hold 4·nt floats, sums every
// window a child's can start at and each vecs[k] every flat position.
func extendGo(rows, sums []float64, vecs *[4][]float64, offsets []int, i int) {
	nt := len(offsets) - 1
	floor := DefaultLogFloor * float64(i+1)
	for k, v := range vecs {
		row := rows[k*nt:][:nt]
		for t := range row {
			start, end := offsets[t], offsets[t+1]
			if end-start <= i {
				row[t] = floor
				continue
			}
			row[t] = addMaxGo(sums[start:end-i], v[start+i:])
		}
	}
}

// walkBlock is how many patterns one ScoreAll walk holds at a time. It
// bounds the walk's vector list; prefixes are shared only within a block.
const walkBlock = 256

// walkDepth caps how many prefix levels a walk keeps for reuse, so a
// walk's scratch stays O(longest trajectory) whatever the patterns'
// length: patterns sharing a deeper prefix recompute the levels past it.
const walkDepth = 32

// walk scores a list of patterns one trajectory at a time. For each
// trajectory it keeps a stack of prefix window sums: level j holds the
// sums of the current pattern's first j positions over every window that
// leaves room for one more. A pattern reuses the levels of the common
// prefix it shares with the pattern before it, computes the rest, and
// ends with one fused add-and-max pass, so patterns added in sorted order
// pay only for the positions past their shared prefix. Each level adds one
// term to the level below it, so every window sum still takes its terms in
// pattern order, and every log-match is the float a scan of the pattern on
// its own gives. A walk holding one pattern is that scan.
//
// Only levels a later pattern can reuse get a slot of their own: levels 2
// up to keep, the deepest prefix two neighbours share (at most
// walkDepth). Every deeper level is accumulated in place in the one slot
// after them, so a lone pattern, however long, needs one slot of s.maxLen
// floats.
type walk struct {
	s    *Scorer
	prev Pattern     // the pattern added last
	vecs [][]float64 // the added patterns' cell vectors, back to back
	ends []int       // pattern k's vectors end at vecs[ends[k]]
	lcp  []int       // positions pattern k shares with pattern k-1
	long int         // the longest added pattern's length
	deep int         // the longest prefix two neighbours share
	keep int         // levels 2..keep keep their sums for reuse; set by ready
	// sums holds the level slots, s.maxLen floats each; level 1 is the
	// first vector itself.
	sums []float64
	logM []float64 // per pattern, the last walked trajectory's log-match
	at   int       // the pattern being added or scanned, for panic reports
}

var walkPool = sync.Pool{New: func() any { return new(walk) }}

// newWalk returns an empty pooled walk over s. Release it with release.
func (s *Scorer) newWalk() *walk {
	w := walkPool.Get().(*walk)
	w.s = s
	return w
}

// reset empties w without keeping its vectors reachable.
func (w *walk) reset() {
	clear(w.vecs)
	w.prev, w.vecs, w.ends, w.lcp = nil, w.vecs[:0], w.ends[:0], w.lcp[:0]
	w.long, w.deep = 0, 0
}

// release empties w and returns it to the pool.
func (w *walk) release() {
	w.reset()
	w.s = nil
	walkPool.Put(w)
}

// add appends the non-empty p to the walk, fetching its cell vectors.
func (w *walk) add(p Pattern) {
	shared := 0
	for shared < min(len(p), len(w.prev)) && p[shared] == w.prev[shared] {
		shared++
	}
	w.vecs = w.s.vectors(p, w.vecs)
	w.ends = append(w.ends, len(w.vecs))
	w.lcp = append(w.lcp, shared)
	w.long = max(w.long, len(p))
	w.deep = max(w.deep, shared)
	w.prev = p
}

// ready sizes the level slots and the log-match slots for the patterns
// added so far. Levels 2..keep+1 need a slot each, but none deeper than
// the longest pattern or trajectory minus one is ever computed.
func (w *walk) ready() {
	w.keep = max(1, min(w.deep, walkDepth))
	if n := max(0, min(w.keep, w.long-2, w.s.maxLen-2)) * w.s.maxLen; cap(w.sums) < n {
		w.sums = make([]float64, n)
	}
	if cap(w.logM) < len(w.ends) {
		w.logM = make([]float64, len(w.ends))
	}
	w.logM = w.logM[:len(w.ends)]
}

// trajectory sets logM[k], for every pattern k, to trajectory ti's
// best-window log-match max log M(P, T), or DefaultLogFloor·m where
// the trajectory is shorter than the pattern's m positions.
func (w *walk) trajectory(ti int) {
	s := w.s
	start := s.offsets[ti]
	n := s.offsets[ti+1] - start
	// level returns the slot of prefix length j ≥ 2: its own up to keep,
	// the shared in-place slot past it.
	level := func(j int) []float64 { return w.sums[(min(j, w.keep+1)-2)*s.maxLen:][:n-j] }
	top := 1 // levels 2..top hold the current pattern's prefix sums
	from := 0
	for k, end := range w.ends {
		w.at = k
		vecs := w.vecs[from:end]
		from = end
		m := len(vecs)
		top = min(top, max(w.lcp[k], 1), w.keep)
		if n < m {
			w.logM[k] = DefaultLogFloor * float64(m)
			continue
		}
		nw := n - m + 1
		switch m {
		case 1:
			w.logM[k] = maxOf(vecs[0][start : start+nw])
		case 2:
			w.logM[k] = addMax(vecs[0][start:start+nw], vecs[1][start+1:])
		default:
			if top < 2 {
				add(level(2), vecs[0][start:], vecs[1][start+1:])
				top = 2
			}
			for ; top < m-1; top++ {
				add(level(top+1), level(top), vecs[top][start+top:])
			}
			w.logM[k] = addMax(level(m-1), vecs[m-1][start+m-1:])
		}
	}
}
