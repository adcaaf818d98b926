package exp

import (
	"context"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := Table{
		Title:   "demo",
		Columns: []string{"a", "bbbb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tb.String()
	if !strings.Contains(out, "### demo") || !strings.Contains(out, "| 333 |") {
		t.Errorf("table rendering wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title, blank, header, separator, two rows.
	if len(lines) != 6 {
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestSeriesTable(t *testing.T) {
	s := Series{
		Title:  "fig",
		XLabel: "k",
		XS:     []float64{1, 2},
		Lines:  []Line{{Name: "algo", YS: []float64{0.5}}},
	}
	tb := s.Table()
	if len(tb.Rows) != 2 || tb.Rows[1][1] != "-" {
		t.Errorf("missing value not dashed: %+v", tb.Rows)
	}
	if tb.Columns[0] != "k" || tb.Columns[1] != "algo" {
		t.Errorf("columns = %v", tb.Columns)
	}
}

func TestCheckScale(t *testing.T) {
	if s, err := checkScale(0); err != nil || s != 1 {
		t.Errorf("checkScale(0) = %v, %v", s, err)
	}
	if _, err := checkScale(-0.5); err == nil {
		t.Error("negative scale accepted")
	}
	if _, err := checkScale(1.5); err == nil {
		t.Error("scale > 1 accepted")
	}
}

func tinyBus() BusOptions {
	return BusOptions{Scale: 0.2, GridN: 12, Seed: 42}
}

func tinySweep() SweepOptions {
	return SweepOptions{Scale: 1, Seed: 42, K: 4, S: 12, L: 25, GridN: 8, MaxLen: 4}
}

func TestMakeBusData(t *testing.T) {
	data, err := MakeBusData(tinyBus())
	if err != nil {
		t.Fatal(err)
	}
	// 5 routes × 2 buses × 2 days at scale 0.2.
	if len(data.Traces) != 20 {
		t.Errorf("traces = %d", len(data.Traces))
	}
	if len(data.Velocities) != len(data.Locations) {
		t.Errorf("velocity/location count mismatch")
	}
	if len(data.Velocities[0]) != 100 {
		t.Errorf("velocity length = %d, want 100", len(data.Velocities[0]))
	}
	// The velocity grid must cover all velocity means.
	for _, tr := range data.Velocities {
		for _, p := range tr {
			if !data.Grid.Bounds().Contains(p.Mean) {
				t.Fatalf("velocity %v outside grid %v", p.Mean, data.Grid.Bounds())
			}
		}
	}
}

func TestRunE1Shape(t *testing.T) {
	res, err := RunE1(context.Background(), E1Options{Bus: tinyBus(), K: 30, MinLen: 3, MaxLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLenNM < 3 || res.AvgLenMatch < 3 {
		t.Errorf("averages below the length floor: %v / %v", res.AvgLenNM, res.AvgLenMatch)
	}
	// The paper's qualitative result: NM patterns are longer on average.
	if res.AvgLenNM < res.AvgLenMatch {
		t.Errorf("NM avg %.2f < match avg %.2f", res.AvgLenNM, res.AvgLenMatch)
	}
	if len(res.Table.Rows) != 2 {
		t.Errorf("table rows = %d", len(res.Table.Rows))
	}
}

func TestRunE2Shape(t *testing.T) {
	res, err := RunE2(context.Background(), E2Options{Bus: tinyBus(), K: 20, MinLen: 3, MaxLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 3 {
		t.Fatalf("models = %d", len(res.Models))
	}
	names := map[string]bool{}
	for _, m := range res.Models {
		names[m.Model] = true
		if m.BaseMis == 0 {
			t.Errorf("%s: base model never mis-predicts (experiment vacuous)", m.Model)
		}
	}
	for _, want := range []string{"LM", "LKF", "RMF"} {
		if !names[want] {
			t.Errorf("missing model %s", want)
		}
	}
}

func TestRunE3Shape(t *testing.T) {
	ser, err := RunE3(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(ser.XS) == 0 || len(ser.Lines) != 2 {
		t.Fatalf("series shape: %+v", ser)
	}
	for _, l := range ser.Lines {
		if len(l.YS) != len(ser.XS) {
			t.Errorf("line %s has %d points for %d xs", l.Name, len(l.YS), len(ser.XS))
		}
		for _, y := range l.YS {
			if y < 0 {
				t.Errorf("negative time %v", y)
			}
		}
	}
}

func TestRunE7Shape(t *testing.T) {
	ser, err := RunE7(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	ys := ser.Lines[0].YS
	if len(ys) != len(ser.XS) {
		t.Fatalf("series shape: %+v", ser)
	}
	// Qualitative Figure 4(e) shape: larger δ yields no more groups than
	// the smallest δ.
	if ys[len(ys)-1] > ys[0] {
		t.Errorf("group count grew with delta: %v", ys)
	}
	for _, y := range ys {
		if y < 1 {
			t.Errorf("group count %v < 1", y)
		}
	}
}

func TestRunA1Shape(t *testing.T) {
	tb, err := RunA1(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Same top-k with and without pruning.
	for _, row := range tb.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("pruning changed results: %v", row)
		}
	}
}

func TestRunA2Shape(t *testing.T) {
	if tb, err := RunA2(context.Background(), tinySweep()); err != nil || len(tb.Rows) != 2 {
		t.Fatalf("A2: %v, %+v", err, tb)
	}
}

func TestRunE4E5E6Shape(t *testing.T) {
	for name, run := range map[string]func(context.Context, SweepOptions) (*Series, error){
		"E4": RunE4, "E5": RunE5, "E6": RunE6,
	} {
		ser, err := run(context.Background(), tinySweep())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ser.XS) == 0 || len(ser.Lines) != 2 {
			t.Fatalf("%s: series shape %+v", name, ser)
		}
		for _, l := range ser.Lines {
			if len(l.YS) != len(ser.XS) {
				t.Errorf("%s: line %s has %d points for %d xs", name, l.Name, len(l.YS), len(ser.XS))
			}
			for _, y := range l.YS {
				if y < 0 {
					t.Errorf("%s: negative time %v", name, y)
				}
			}
		}
		// X axes must be strictly increasing.
		for i := 1; i < len(ser.XS); i++ {
			if ser.XS[i] <= ser.XS[i-1] {
				t.Errorf("%s: x axis not increasing: %v", name, ser.XS)
			}
		}
	}
}
