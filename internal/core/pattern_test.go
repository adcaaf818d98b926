package core

import (
	"testing"
	"testing/quick"

	"trajpattern/internal/grid"
)

func TestPatternKeyRoundTrip(t *testing.T) {
	p := Pattern{3, 0, 15}
	got, err := ParsePattern(p.Key())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) {
		t.Errorf("round trip = %v", got)
	}
	if _, err := ParsePattern(""); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := ParsePattern("1,x"); err == nil {
		t.Error("garbage key accepted")
	}
}

// TestCompareRank pins Mine's answer order: score descending, then
// length ascending, then key ascending as strings, so "10" ranks before
// "9".
func TestCompareRank(t *testing.T) {
	ranked := []ScoredPattern{
		{Pattern{4, 4}, -1},
		{Pattern{10}, -2},
		{Pattern{9}, -2},
		{Pattern{1, 2}, -2},
		{Pattern{0}, -3},
	}
	for i, a := range ranked {
		for j, b := range ranked {
			got := CompareRank(a.NM, a.Pattern, b.NM, b.Pattern)
			if (got < 0) != (i < j) || (got == 0) != (i == j) {
				t.Errorf("CompareRank(%s, %s) = %d, want the sign of %d", a.Pattern.Key(), b.Pattern.Key(), got, i-j)
			}
		}
	}
}

func TestPatternEqual(t *testing.T) {
	if !(Pattern{1, 2}).Equal(Pattern{1, 2}) {
		t.Error("equal patterns unequal")
	}
	if (Pattern{1, 2}).Equal(Pattern{1, 2, 3}) {
		t.Error("different lengths equal")
	}
	if (Pattern{1, 2}).Equal(Pattern{2, 1}) {
		t.Error("different contents equal")
	}
}

func TestConcat(t *testing.T) {
	a, b := Pattern{1, 2}, Pattern{3}
	c := a.Concat(b)
	if !c.Equal(Pattern{1, 2, 3}) {
		t.Errorf("Concat = %v", c)
	}
	// Concat must not alias its receiver's backing array.
	c[0] = 99
	if a[0] != 1 {
		t.Error("Concat aliased receiver")
	}
}

func TestDropFirstLast(t *testing.T) {
	p := Pattern{1, 2, 3}
	if !p.DropFirst().Equal(Pattern{2, 3}) {
		t.Errorf("DropFirst = %v", p.DropFirst())
	}
	if !p.DropLast().Equal(Pattern{1, 2}) {
		t.Errorf("DropLast = %v", p.DropLast())
	}
	if (Pattern{1}).DropFirst() != nil || (Pattern{1}).DropLast() != nil {
		t.Error("singular drops should be nil")
	}
	// Drops must be copies.
	d := p.DropFirst()
	d[0] = 99
	if p[1] != 2 {
		t.Error("DropFirst aliased")
	}
}

func TestValidateAndCenters(t *testing.T) {
	g := grid.NewSquare(4)
	if err := (Pattern{0, 15}).Validate(g); err != nil {
		t.Errorf("valid pattern rejected: %v", err)
	}
	if err := (Pattern{}).Validate(g); err == nil {
		t.Error("empty pattern accepted")
	}
	if err := (Pattern{16}).Validate(g); err == nil {
		t.Error("out-of-range cell accepted")
	}
	if (Pattern{0, 5}).Format(g) == "" {
		t.Error("Format empty")
	}
}

// Property: Key is injective over random small patterns.
func TestQuickKeyInjective(t *testing.T) {
	f := func(a, b []uint8) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		pa := make(Pattern, len(a))
		pb := make(Pattern, len(b))
		for i, v := range a {
			pa[i] = int(v)
		}
		for i, v := range b {
			pb[i] = int(v)
		}
		if pa.Equal(pb) {
			return pa.Key() == pb.Key()
		}
		return pa.Key() != pb.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
