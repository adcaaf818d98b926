// Package viz renders terminal visualizations of grids, trajectory
// density and trajectory patterns, so trajmine's output can be inspected
// without leaving the shell. All rendering is pure string construction and
// fully tested.
package viz

import (
	"fmt"
	"math"
	"strings"

	"trajpattern/internal/core"
	"trajpattern/internal/grid"
	"trajpattern/internal/traj"
)

// shades orders density glyphs from empty to full.
var shades = []rune{' ', '·', ':', '▒', '▓', '█'}

// Density renders the dataset's mean-location density on the grid as an
// ASCII heatmap: row 0 of the output is the TOP of the space (max Y). The
// optional title is printed above the map.
func Density(d traj.Dataset, g *grid.Grid, title string) string {
	counts := make([]int, g.NumCells())
	maxCount := 0
	for _, t := range d {
		for _, p := range t {
			idx := g.IndexOf(p.Mean)
			counts[idx]++
			if counts[idx] > maxCount {
				maxCount = counts[idx]
			}
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	writeFrame(&b, g, func(idx int) rune {
		if counts[idx] == 0 {
			return shades[0]
		}
		// Log scale keeps sparse cells visible next to hot spots.
		frac := math.Log1p(float64(counts[idx])) / math.Log1p(float64(maxCount))
		level := 1 + int(frac*float64(len(shades)-2)+0.5)
		if level >= len(shades) {
			level = len(shades) - 1
		}
		return shades[level]
	})
	return b.String()
}

// PatternPath renders one pattern as an ordered path: its first position
// is 'a', the second 'b', and so on (wrapping after 'z'); a cell visited
// more than once shows its last letter.
func PatternPath(p core.Pattern, g *grid.Grid, title string) string {
	marks := make(map[int]rune)
	for i, cell := range p {
		marks[cell] = rune('a' + i%26)
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	writeFrame(&b, g, func(idx int) rune {
		if r, ok := marks[idx]; ok {
			return r
		}
		return ' '
	})
	return b.String()
}

// writeFrame draws the bordered grid, calling cell for every flat index.
// Rows are emitted top (max Y) to bottom.
func writeFrame(b *strings.Builder, g *grid.Grid, cell func(idx int) rune) {
	b.WriteString("+")
	b.WriteString(strings.Repeat("-", g.NX()))
	b.WriteString("+\n")
	for y := g.NY() - 1; y >= 0; y-- {
		b.WriteString("|")
		for x := 0; x < g.NX(); x++ {
			b.WriteRune(cell(g.Index(grid.Cell{X: x, Y: y})))
		}
		b.WriteString("|\n")
	}
	b.WriteString("+")
	b.WriteString(strings.Repeat("-", g.NX()))
	b.WriteString("+\n")
}
