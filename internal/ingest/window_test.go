package ingest

import (
	"reflect"
	"testing"
)

func TestWindowCountEviction(t *testing.T) {
	w := NewWindows(WindowLimits{MaxRecords: 3})
	for i := 1; i <= 5; i++ {
		w.Apply(Record{Seq: uint64(i), Obj: "z", Time: float64(i)})
	}
	snap := w.Snapshot()
	if len(snap) != 1 || len(snap[0].Records) != 3 {
		t.Fatalf("snapshot = %+v, want one object with 3 records", snap)
	}
	if snap[0].Records[0].Seq != 3 || snap[0].Records[2].Seq != 5 {
		t.Fatalf("retained seqs %d..%d, want 3..5", snap[0].Records[0].Seq, snap[0].Records[2].Seq)
	}
	if w.Records() != 3 {
		t.Fatalf("Records = %d, want 3", w.Records())
	}
}

func TestWindowMinLiveSeqAndLastTime(t *testing.T) {
	w := NewWindows(WindowLimits{MaxRecords: 2})
	if _, ok := w.MinLiveSeq(); ok {
		t.Fatal("empty windows reported a live seq")
	}
	if _, ok := w.LastTime("z"); ok {
		t.Fatal("empty windows reported a last time")
	}
	w.Apply(Record{Seq: 1, Obj: "a", Time: 1})
	w.Apply(Record{Seq: 2, Obj: "b", Time: 1})
	w.Apply(Record{Seq: 3, Obj: "a", Time: 2})
	w.Apply(Record{Seq: 4, Obj: "a", Time: 3}) // evicts seq 1
	if min, ok := w.MinLiveSeq(); !ok || min != 2 {
		t.Fatalf("MinLiveSeq = %d/%v, want 2", min, ok)
	}
	if last, ok := w.LastTime("a"); !ok || last != 3 {
		t.Fatalf("LastTime(a) = %v/%v, want 3", last, ok)
	}
	if w.Objects() != 2 {
		t.Fatalf("Objects = %d, want 2", w.Objects())
	}
}

// TestWindowSnapshotDeterministic: same record sequence, same snapshot —
// the property replay convergence rests on.
func TestWindowSnapshotDeterministic(t *testing.T) {
	build := func() []ObjectWindow {
		w := NewWindows(WindowLimits{MaxRecords: 4})
		for i := 0; i < 200; i++ {
			w.Apply(Record{
				Seq: uint64(i + 1), Obj: string(rune('a' + i%7)),
				Time: float64(i), X: float64(i) * 0.5, Y: -float64(i),
			})
		}
		return w.Snapshot()
	}
	if !reflect.DeepEqual(build(), build()) {
		t.Fatal("two identical applications produced different snapshots")
	}
}
