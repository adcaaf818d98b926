package exp

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"trajpattern/internal/core"
	"trajpattern/internal/grid"
)

func TestRunE8Shape(t *testing.T) {
	res, err := RunE8(context.Background(), E8Options{Subjects: 12, Length: 40, K: 20, MinLen: 3, MaxLen: 6, GridN: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLenNM < 3 || res.AvgLenMatch < 3 {
		t.Errorf("averages below floor: %v / %v", res.AvgLenNM, res.AvgLenMatch)
	}
	// Unlike the bus data, the posture workload is near-periodic with
	// homogeneous per-position probabilities, where NM's top-k pins at the
	// length floor (a longer pattern only outranks its own sub-patterns
	// when its endpoints are stronger than its middle). E8 therefore only
	// reports the numbers; no ordering is asserted. See EXPERIMENTS.md.
	if len(res.Table.Rows) != 2 {
		t.Errorf("table rows = %d", len(res.Table.Rows))
	}
}

func TestRunA4A5Shape(t *testing.T) {
	if tb, err := RunA4(context.Background(), tinySweep()); err != nil || len(tb.Rows) != 4 {
		t.Fatalf("A4: %v %+v", err, tb)
	}
	if tb, err := RunA5(context.Background(), tinySweep()); err != nil || len(tb.Rows) != 3 {
		t.Fatalf("A5: %v %+v", err, tb)
	}
}

// TestRunA5Shape: A5 mines once and refines per budget; each row must
// equal the row built from MineWithWildcards run for that budget alone.
func TestRunA5Shape(t *testing.T) {
	tb, err := RunA5(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	o, err := tinySweep().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := o.dataset(o.S, o.L)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.NewSquare(o.GridN)
	var want [][]string
	for _, d := range []int{1, 2, 3} {
		s, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			t.Fatal(err)
		}
		wild, plain, err := core.MineWithWildcards(context.Background(), s, core.MinerConfig{K: o.K, MinLen: 2, MaxLen: o.MaxLen}, d)
		if err != nil {
			t.Fatal(err)
		}
		improved := 0
		var gain float64
		for i, w := range wild {
			if w.Pattern.SpecifiedLen() != len(w.Pattern) {
				improved++
			}
			gain += w.NM - plain.Patterns[i].NM
		}
		want = append(want, []string{
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%d / %d", improved, len(wild)),
			fmt.Sprintf("%.3f", gain/float64(len(wild))),
		})
	}
	if !reflect.DeepEqual(tb.Rows, want) {
		t.Fatalf("A5 rows %v, want %v", tb.Rows, want)
	}
}

func TestRunA6Shape(t *testing.T) {
	tb, err := RunA6(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 7 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][3] != "-" {
		t.Error("first sweep point should have no slope")
	}
}
