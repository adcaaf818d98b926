package viz

import (
	"strings"
	"testing"

	"trajpattern/internal/core"
	"trajpattern/internal/geom"
	"trajpattern/internal/grid"
	"trajpattern/internal/traj"
)

func lines(s string) []string {
	return strings.Split(strings.TrimRight(s, "\n"), "\n")
}

func TestDensityShape(t *testing.T) {
	g := grid.NewSquare(5)
	d := traj.Dataset{{traj.P(0.1, 0.9, 0.01), traj.P(0.1, 0.9, 0.01)}}
	out := Density(d, g, "demo")
	ls := lines(out)
	// Title + top border + 5 rows + bottom border.
	if len(ls) != 8 {
		t.Fatalf("line count = %d:\n%s", len(ls), out)
	}
	if ls[0] != "demo" {
		t.Errorf("title = %q", ls[0])
	}
	if ls[1] != "+-----+" || ls[7] != "+-----+" {
		t.Errorf("borders wrong:\n%s", out)
	}
	// The data point is at x≈0.1 (col 0), y≈0.9 (top row = line 2), and
	// must be rendered with the fullest shade (it is the max cell).
	if r := []rune(ls[2])[1]; r != '█' {
		t.Errorf("hot cell = %q, want full shade:\n%s", r, out)
	}
	// An empty cell renders blank.
	if r := []rune(ls[6])[5]; r != ' ' {
		t.Errorf("cold cell = %q, want blank", r)
	}
}

func TestDensityLogScaleKeepsSparseVisible(t *testing.T) {
	g := grid.NewSquare(3)
	var tr traj.Trajectory
	// 100 points in one cell, 1 point in another.
	for i := 0; i < 100; i++ {
		tr = append(tr, traj.P(0.2, 0.2, 0.01))
	}
	tr = append(tr, traj.P(0.8, 0.8, 0.01))
	out := Density(traj.Dataset{tr}, g, "")
	if !strings.ContainsRune(out, '█') {
		t.Error("hot cell not full")
	}
	// The single-point cell must be visible (non-blank).
	ls := lines(out)
	if r := []rune(ls[1])[3]; r == ' ' {
		t.Errorf("sparse cell invisible:\n%s", out)
	}
}

func TestPatternPath(t *testing.T) {
	g := grid.NewSquare(4)
	out := PatternPath(core.Pattern{0, 1, 2}, g, "")
	for _, want := range []string{"a", "b", "c"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// Wraps after z.
	long := make(core.Pattern, 30)
	for i := range long {
		long[i] = i % 16
	}
	_ = PatternPath(long, g, "") // must not panic
}

func TestFrameWidthNonSquare(t *testing.T) {
	g := grid.New(geom.UnitSquare(), 7, 3)
	out := Density(traj.Dataset{{traj.P(0.5, 0.5, 0.1)}}, g, "")
	ls := lines(out)
	if len(ls) != 5 {
		t.Fatalf("rows = %d", len(ls))
	}
	for _, l := range ls {
		if len([]rune(l)) != 9 { // 7 cells + 2 border chars
			t.Errorf("row width = %d: %q", len([]rune(l)), l)
		}
	}
}
