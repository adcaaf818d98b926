//go:build amd64 && !race

package core

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

// scanValue is the i-th value a scan-kernel input draws from byte b, in
// the domain of built vectors: +0 (log 1, and the wildcard's vector), the
// floor, and negatives between them whose sums round.
func scanValue(b byte, i int) float64 {
	switch b {
	case 0:
		return 0
	case 255:
		return DefaultLogFloor
	}
	return -(float64(b) + float64(i%97)/97) * 2.7 / 1.3
}

// scanSlice returns n values drawn from raw, each from a byte of it that a
// generator seeded by raw and salt picks, so one slice mixes the value
// kinds raw holds. The values start off elements into a fresh backing
// array that has room for extra more, so the slice starts at any
// alignment and may extend past n.
func scanSlice(raw []byte, salt, n, off, extra int) []float64 {
	r := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(raw)) + int64(salt)))
	back := make([]float64, off+n+extra)
	for i := range back {
		back[i] = scanValue(raw[r.Intn(len(raw))], i+salt)
	}
	return back[off:][:n+extra]
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzScanKernels checks each window-scan kernel against its Go reference,
// bit for bit: add (into a fresh dst and in place, dst starting where a
// starts, with nothing written past dst), addMax (on a src longer than
// acc), maxOf and extend (checkExtend). Lengths run from 0 to 1,024 (from
// 1 for the max kernels), each slice starts at its own offset of 0 to 7
// elements, and the values are the built-vector domain of scanValue. The
// max kernels run a second time with one window, at peak, the only one to
// reach +0, the domain's top, so a kernel that skips any window returns
// less. On a CPU without AVX2 the kernels are the Go ones and the check is
// trivial.
func FuzzScanKernels(f *testing.F) {
	for _, n := range []uint16{0, 1, 2, 3, 4, 5, 7, 15, 16, 17, 19, 20, 21, 35, 58, 118, 1024} {
		f.Add([]byte{0, 17, 255, 3, 200, 0, 9}, n, n-1, uint8(n), uint8(n*3))
		f.Add([]byte{4, 0, 12}, n, n/2, uint8(n*5), uint8(n))
	}
	f.Add([]byte{255}, uint16(40), uint16(3), uint8(1), uint8(6))
	f.Add([]byte{0}, uint16(33), uint16(32), uint8(2), uint8(5))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 250, 251, 252}, uint16(1000), uint16(998), uint8(0x35), uint8(0x7))
	if !hasAVX2 {
		f.Log("no AVX2: the kernels are the Go kernels")
	}
	f.Fuzz(func(t *testing.T, raw []byte, n, peak uint16, offs, extra uint8) {
		if len(raw) == 0 {
			return
		}
		m := int(n) % 1025
		oa, ob, od := int(offs)%8, int(offs/8)%8, int(extra)%8
		a := scanSlice(raw, 1, m, oa, 0)
		b := scanSlice(raw, 2, m, ob, int(extra)%5)

		// add into its own dst, whose element past the end must stay put.
		want := make([]float64, m)
		addGo(want, a, b)
		back := make([]float64, od+m+1)
		back[od+m] = 1
		add(back[od:][:m], a, b)
		if !sameBits(back[od:][:m], want) || back[od+m] != 1 {
			t.Fatalf("add over %d windows (offsets %d, %d, %d): got %v, want %v", m, oa, ob, od, back[od:], want)
		}

		// add in place: dst is a, one window shorter, as a deeper prefix
		// level is summed into its own slot.
		if m > 0 {
			in := scanSlice(raw, 1, m, oa, 0)
			add(in[:m-1], in, b)
			ref := scanSlice(raw, 1, m, oa, 0)
			addGo(ref[:m-1], ref, b)
			if !sameBits(in, ref) {
				t.Fatalf("add in place over %d windows (offsets %d, %d): got %v, want %v", m-1, oa, ob, in, ref)
			}
		}

		checkExtend(t, raw, m, offs, extra)
		if m == 0 {
			return
		}
		checkMax := func(input string) {
			t.Helper()
			if got, want := addMax(a, b), addMaxGo(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("addMax over %d windows (offsets %d, %d), %s: got %v, want %v", m, oa, ob, input, got, want)
			}
			if got, want := maxOf(b[:m]), maxOfGo(b[:m]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("maxOf over %d windows (offset %d), %s: got %v, want %v", m, ob, input, got, want)
			}
		}
		checkMax("drawn values")
		p := int(peak) % m
		for _, v := range [][]float64{a, b} {
			for i := range v {
				if v[i] >= 0 {
					v[i] = DefaultLogFloor
				}
			}
			v[p] = 0
		}
		checkMax(fmt.Sprintf("+0 at window %d alone", p))
	})
}

// checkExtend checks extend against extendGo, bit for bit, over two to
// eight trajectories of 0 to m positions, one of them empty and one of m,
// for a prefix of i positions, i drawn from 0 to m+1 and below 4 half the
// time. The sums and each child start at their own offset of 0 to 7
// elements. Bits 3-4 of extra repeat the last of one to three distinct
// children into the remaining lanes, as Extensions pads a chunk's last
// four. A second run gives each distinct child k one window per
// trajectory, its peak, where the sum is −k/4, and keeps every other
// window of that child at or below −1, so a kernel that skips a window or
// takes a lane from another child returns another float. Nothing may be
// written past the rows.
func checkExtend(t *testing.T, raw []byte, m int, offs, extra uint8) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(raw)) + int64(m)))
	nt := 2 + r.Intn(7)
	lens := make([]int, nt)
	for k := range lens {
		lens[k] = r.Intn(m + 1)
	}
	empty := r.Intn(nt)
	lens[empty], lens[(empty+1+r.Intn(nt-1))%nt] = 0, m
	offsets := make([]int, nt+1)
	for k, n := range lens {
		offsets[k+1] = offsets[k] + n
	}
	flat := offsets[nt]
	i := r.Intn(m + 2)
	if r.Intn(2) == 0 {
		i = r.Intn(min(4, m+2))
	}
	sums := scanSlice(raw, 3, max(flat-i, 0), int(offs)%8, 0)
	distinct := 4 - int(extra>>3)%4
	var four [4][]float64
	for k := range four {
		if k < distinct {
			four[k] = scanSlice(raw, 4+k, flat, (int(offs)/8+3*k)%8, 0)
		} else {
			four[k] = four[distinct-1]
		}
	}
	run := func(input string) {
		t.Helper()
		want := make([]float64, 4*nt)
		extendGo(want, sums, &four, offsets, i)
		got := make([]float64, 4*nt+1)
		got[4*nt] = 1
		extend(got[:4*nt], sums, &four, offsets, i)
		if !sameBits(got[:4*nt], want) || got[4*nt] != 1 {
			t.Fatalf("extend, prefix of %d, trajectories of %v, %d distinct children, %s: got %v, want %v",
				i, lens, distinct, input, got, want)
		}
	}
	run("drawn values")
	for _, v := range four[:distinct] {
		for p := range v {
			if v[p] > -1 {
				v[p] = DefaultLogFloor
			}
		}
	}
	for ti, n := range lens {
		if n <= i {
			continue
		}
		for k, v := range four[:distinct] {
			w := offsets[ti] + r.Intn(n-i)
			sums[w], v[w+i] = 0, -float64(k)/4
		}
	}
	run("one peak per child and trajectory")
}

// TestScanKernelsPanicOnBadLengths checks that an assembly kernel given
// lengths its Go reference rejects hands them to that reference, which
// panics, rather than reading past the end of a slice.
func TestScanKernelsPanicOnBadLengths(t *testing.T) {
	for name, call := range map[string]func(){
		"add with a short a":      func() { add(make([]float64, 5), make([]float64, 4), make([]float64, 5)) },
		"add with a short b":      func() { add(make([]float64, 5), make([]float64, 5), make([]float64, 2)) },
		"addMax with no windows":  func() { addMax(nil, make([]float64, 3)) },
		"addMax with a short src": func() { addMax(make([]float64, 9), make([]float64, 8)) },
		"maxOf with no windows":   func() { maxOf(nil) },
		"extend with short rows": func() {
			extend(make([]float64, 7), make([]float64, 9), fourOf(10), []int{0, 5, 10}, 1)
		},
		"extend with short sums": func() {
			extend(make([]float64, 8), make([]float64, 8), fourOf(10), []int{0, 5, 10}, 1)
		},
		"extend with a short child": func() {
			four := fourOf(10)
			four[2] = make([]float64, 9)
			extend(make([]float64, 8), make([]float64, 9), four, []int{0, 5, 10}, 1)
		},
		"extend from before the flat positions": func() {
			extend(make([]float64, 4), make([]float64, 9), fourOf(10), []int{-1, 5}, 1)
		},
		"extend with no offsets": func() { extend(nil, nil, fourOf(1), nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// fourOf returns four children of n zeros each.
func fourOf(n int) *[4][]float64 {
	var four [4][]float64
	for k := range four {
		four[k] = make([]float64, n)
	}
	return &four
}

// BenchmarkScanKernels times each window-scan kernel, the Go reference
// against the AVX2 one, at 58 and 118 windows: a two-position pattern's
// scan of perfbench's trajectories, 60 and 120 snapshots on average. An
// extend op scores four children of a one-position prefix over one such
// trajectory, so it does the work of four addMax ops.
func BenchmarkScanKernels(b *testing.B) {
	raw := []byte{0, 17, 255, 3, 200, 9, 255, 255, 41}
	for _, n := range []int{58, 118} {
		x, y := scanSlice(raw, 1, n, 0, 0), scanSlice(raw, 2, n, 0, 0)
		dst := make([]float64, n)
		var four [4][]float64
		for k := range four {
			four[k] = scanSlice(raw, 3+k, n+1, 0, 0)
		}
		rows, offsets := make([]float64, 4), []int{0, n + 1}
		for _, k := range []struct {
			name    string
			gk, avx func(b *testing.B)
		}{
			{"add", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					addGo(dst, x, y)
				}
			}, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					add(dst, x, y)
				}
			}},
			{"addMax", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink = addMaxGo(x, y)
				}
			}, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink = addMax(x, y)
				}
			}},
			{"maxOf", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink = maxOfGo(x)
				}
			}, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink = maxOf(x)
				}
			}},
			{"extend", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					extendGo(rows, x, &four, offsets, 1)
				}
			}, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					extend(rows, x, &four, offsets, 1)
				}
			}},
		} {
			b.Run(fmt.Sprintf("%s/%d/go", k.name, n), k.gk)
			b.Run(fmt.Sprintf("%s/%d/avx2", k.name, n), func(b *testing.B) {
				if !hasAVX2 {
					b.Skip("no AVX2")
				}
				k.avx(b)
			})
		}
	}
}

var benchSink float64
