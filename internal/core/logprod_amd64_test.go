//go:build amd64 && !race

package core

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

// prodValue is the value a logProducts input draws from byte b and random
// bits h: 52 of h's bits as a mantissa in [0.25, 1), where a log's last
// bit depends most on the order of its operations, or in one of 32
// binades below 1; exact zeros, 1, subnormals, e^−700 and its neighbours
// (whose logs straddle the floor), NaN, ±Inf, negatives, and √2/2·2^k and
// its neighbours (where archLog's compare decides k).
func prodValue(b byte, h uint64) float64 {
	e700 := math.Exp(DefaultLogFloor)
	switch {
	case b < 64:
		return math.Ldexp(1+float64(h>>12)/(1<<52), -1-int(b%2))
	case b < 96:
		return math.Ldexp(1+float64(h>>12)/(1<<52), -1-int(b%32))
	case b < 128:
		return 0
	case b < 136:
		return [...]float64{1, math.Copysign(0, -1), 5e-324, 0x1p-1030, math.Nextafter(0x1p-1022, 0), 0x1p-1022, 0x1p-1000, 1e-300}[b-128]
	case b < 144:
		return [...]float64{e700, math.Nextafter(e700, 0), math.Nextafter(e700, 1), math.Exp(-699.5), math.Exp(-700.5), math.NaN(), math.Inf(1), math.Inf(-1)}[b-136]
	case b < 152:
		return -prodValue(b-144+byte(h%64), h)
	}
	r := math.Ldexp(math.Sqrt2/2, -int(b-152)*10)
	return [...]float64{r, math.Nextafter(r, 0), math.Nextafter(r, 1)}[h%3]
}

// prodSlice returns n values drawn from raw, each from a byte of it that a
// generator seeded by raw and salt picks, starting off elements into a
// fresh backing array, so the slice starts at any alignment.
func prodSlice(raw []byte, salt int64, n, off int) []float64 {
	r := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(raw)) + salt))
	back := make([]float64, off+n)
	for i := range back {
		back[i] = prodValue(raw[r.Intn(len(raw))], r.Uint64())
	}
	return back[off:]
}

// FuzzLogProducts checks the cell build's kernel against its Go
// reference, bit for bit, and the reference against clampLog of each
// product, so both stay tied to the live math.Log. Lengths run from 0 to
// 1,024, each slice starts at its own offset of 0 to 3 elements, nothing
// past dst may be written, and the values are prodValue's. Bit q%16 of
// zeros zeroes quad q of px: whole for even q, all but one lane for odd
// q, so all-zero quads sit next to quads that need a log. Bit q%16 of
// ones sets quad q of py to 1, so the product is px itself and the
// values near the floor and at √2/2·2^k reach the log exactly. On a CPU
// without AVX2 the kernel is the Go one and the check is trivial.
func FuzzLogProducts(f *testing.F) {
	for _, n := range []uint16{0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 256, 1021, 1024} {
		f.Add([]byte{0, 17, 95, 3, 60, 100, 9}, n, uint8(n), uint16(0), uint16(0))
		f.Add([]byte{110, 40, 120, 110, 128, 110}, n, uint8(n*3), uint16(0x5a5a), uint16(0x0f0f))
		f.Add([]byte{128, 129, 130, 131, 132, 133, 134, 135, 136, 137, 138, 139, 140, 141, 142, 143}, n, uint8(n*5), uint16(0x00ff), uint16(0x3333))
		f.Add([]byte{144, 148, 152, 153, 160, 180, 200, 220, 240, 255, 20}, n, uint8(n*7), uint16(0x0f0f), uint16(0xffff))
	}
	for b := 0; b < 256; b += 8 {
		f.Add([]byte{byte(b), byte(b + 1), byte(b + 2), byte(b + 3), byte(b + 4), byte(b + 5), byte(b + 6), byte(b + 7)}, uint16(300+b), uint8(b), uint16(b*257), uint16(^b))
		f.Add([]byte{byte(b / 4)}, uint16(1024), uint8(b), uint16(0), uint16(0xffff)) // 1,024 logs in [0.25, 1)
	}
	if !hasAVX2 {
		f.Log("no AVX2: the kernel is the Go kernel")
	}
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, offs uint8, zeros, ones uint16) {
		if len(raw) == 0 {
			return
		}
		m := int(n) % 1025
		ox, oy, od := int(offs)%4, int(offs/4)%4, int(offs/16)%4
		px, py := prodSlice(raw, 1, m, ox), prodSlice(raw, 2, m, oy)
		for p := range px {
			q := p / 4
			if zeros&(1<<(q%16)) != 0 && (q%2 == 0 || p%4 != q%4) {
				px[p] = 0
			}
			if ones&(1<<(q%16)) != 0 {
				py[p] = 1
			}
		}

		want := make([]float64, m)
		logProductsGo(want, px, py)
		for p, v := range want {
			if ref := clampLog(px[p] * py[p]); math.Float64bits(v) != math.Float64bits(ref) {
				t.Fatalf("logProductsGo at %d of %d: %v·%v gave %v, want clampLog's %v", p, m, px[p], py[p], v, ref)
			}
		}
		back := make([]float64, od+m+1)
		back[od+m] = 1
		logProducts(back[od:][:m], px, py)
		if back[od+m] != 1 {
			t.Fatalf("logProducts over %d positions (offsets %d, %d, %d) wrote past dst", m, ox, oy, od)
		}
		for p, v := range back[od:][:m] {
			if math.Float64bits(v) != math.Float64bits(want[p]) {
				t.Fatalf("logProducts at %d of %d (offsets %d, %d, %d): %v·%v gave %v (%#x), want %v (%#x)",
					p, m, ox, oy, od, px[p], py[p], v, math.Float64bits(v), want[p], math.Float64bits(want[p]))
			}
		}
	})
}

// TestLogProductsSweep runs the kernel over (0, 1] by bit pattern, with
// py = 1 so each product is the pattern itself: 2^18 evenly spaced
// patterns, then √2/2 and its neighbours in every binade.
func TestLogProductsSweep(t *testing.T) {
	const steps = 1 << 18
	var px []float64
	for i := 1; i <= steps; i++ {
		px = append(px, math.Float64frombits(uint64(i)*(math.Float64bits(1)/steps)))
	}
	for k := 0; k >= -1074; k-- {
		h := math.Ldexp(math.Sqrt2/2, k)
		px = append(px, h, math.Nextafter(h, 0), math.Nextafter(h, 1))
	}
	py := make([]float64, len(px))
	for i := range py {
		py[i] = 1
	}
	got, want := make([]float64, len(px)), make([]float64, len(px))
	logProducts(got, px, py)
	logProductsGo(want, px, py)
	for p := range got {
		if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
			t.Fatalf("log of %v (%#x): kernel %v, reference %v", px[p], math.Float64bits(px[p]), got[p], want[p])
		}
	}
}

// BenchmarkLogProducts times the cell build's kernel, the Go reference
// against the AVX2 one, on one build block of buildBlock positions in
// which 74% of the products are exactly 0, the share of default's built
// entries, in runs as along a trajectory that leaves a cell's column.
func BenchmarkLogProducts(b *testing.B) {
	px, py := make([]float64, buildBlock), make([]float64, buildBlock)
	for p := range px {
		if p%50 < 37 {
			continue // 37 of every 50 positions: 74% zeros
		}
		px[p] = math.Exp(-float64(p%13) * 3.1)
		py[p] = 1 / (1 + float64(p%7))
	}
	dst := make([]float64, buildBlock)
	for _, k := range []struct {
		name string
		fn   func(dst, px, py []float64)
	}{{"go", logProductsGo}, {"avx2", logProducts}} {
		b.Run(fmt.Sprintf("%d/%s", buildBlock, k.name), func(b *testing.B) {
			if k.name == "avx2" && !hasAVX2 {
				b.Skip("no AVX2")
			}
			for i := 0; i < b.N; i++ {
				k.fn(dst, px, py)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*buildBlock), "ns/position")
		})
	}
}
