//go:build amd64 && !race

package core

// The AVX2 window-scan kernels are in window_amd64.s; window.go says why
// their bits are the Go kernels'. The cell build's kernel is in
// logprod_amd64.s, which says why its bits are logProductsGo's.
// Race-detector builds leave them all out (window_noasm.go): the detector
// cannot see loads and stores made in assembly.

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers, so the kernels may use them. It is read once, when the
// package loads.
var hasAVX2 = cpuHasAVX2()

// cpuHasAVX2 reads AVX2 (leaf 7, EBX bit 5) and AVX and OSXSAVE (leaf 1,
// ECX bits 28 and 27) from CPUID, and whether the OS saves the XMM and
// YMM state (XCR0 bits 1 and 2); XGETBV is only valid once OSXSAVE is set.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// add is addGo on four-lane VADDPDs.
//
//go:noescape
func add(dst, a, b []float64)

// addMax is addMaxGo on four-lane VADDPDs and VMAXPDs, reduced lane by
// lane at the end.
//
//go:noescape
func addMax(acc, src []float64) float64

// maxOf is maxOfGo on four-lane VMAXPDs, reduced lane by lane at the end.
//
//go:noescape
func maxOf(v []float64) float64

// extend is extendGo with its loop over trajectories in assembly: each
// load of the prefix's sums feeds one VADDPD per child, and a 4×4
// transpose reduces the four children's running maxima at once.
//
//go:noescape
func extend(rows, sums []float64, vecs *[4][]float64, offsets []int, i int)

// logProducts is logProductsGo four positions at a time, each lane a port
// of math.Log's amd64 assembly.
//
//go:noescape
func logProducts(dst, px, py []float64)

// cpuid executes CPUID with EAX and ECX set to its arguments.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)
