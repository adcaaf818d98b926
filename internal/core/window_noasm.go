//go:build !amd64 || race

package core

// Without the AVX2 kernels (another architecture, or a race-detector
// build, whose checker cannot see the loads and stores assembly makes)
// the scan and the cell build run the Go kernels.

func add(dst, a, b []float64) { addGo(dst, a, b) }

func addMax(acc, src []float64) float64 { return addMaxGo(acc, src) }

func maxOf(v []float64) float64 { return maxOfGo(v) }

func extend(rows, sums []float64, vecs *[4][]float64, offsets []int, i int) {
	extendGo(rows, sums, vecs, offsets, i)
}

func logProducts(dst, px, py []float64) { logProductsGo(dst, px, py) }
