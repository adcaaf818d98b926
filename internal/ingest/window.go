package ingest

import (
	"math"
	"sort"
)

// WindowLimits bounds each object's sliding window. Eviction is
// oldest-first and deterministic: a window's contents are a pure function
// of the record sequence applied to it, which is what makes crash-replay
// convergence checkable byte for byte.
type WindowLimits struct {
	// MaxRecords caps how many records one object retains. Zero means
	// DefaultMaxRecords.
	MaxRecords int
}

// DefaultMaxRecords is the per-object record cap when WindowLimits leaves
// it zero: enough history for the synchronization schedule of §3.1 to
// cover several mining windows, small enough that a runaway object
// cannot hold the WAL hostage.
const DefaultMaxRecords = 256

// objWindow is one object's retained reports, oldest first.
type objWindow struct {
	recs []Record
}

// Windows holds every object's sliding window. It is NOT safe for
// concurrent use; the pipeline serializes access through its own mutex.
type Windows struct {
	limits WindowLimits
	byObj  map[string]*objWindow
	total  int
}

// NewWindows returns empty windows under the given limits.
func NewWindows(limits WindowLimits) *Windows {
	if limits.MaxRecords <= 0 {
		limits.MaxRecords = DefaultMaxRecords
	}
	return &Windows{limits: limits, byObj: make(map[string]*objWindow)}
}

// LastTime returns the object's most recent report time, with ok=false
// for an object with no retained reports. The pipeline's order check
// compares incoming reports against it.
func (w *Windows) LastTime(obj string) (float64, bool) {
	ow := w.byObj[obj]
	if ow == nil || len(ow.recs) == 0 {
		return 0, false
	}
	return ow.recs[len(ow.recs)-1].Time, true
}

// Apply admits one record (already validated and in order) and evicts
// the oldest records beyond MaxRecords.
func (w *Windows) Apply(r Record) {
	ow := w.byObj[r.Obj]
	if ow == nil {
		ow = &objWindow{}
		w.byObj[r.Obj] = ow
	}
	ow.recs = append(ow.recs, r)
	w.total++
	if cut := len(ow.recs) - w.limits.MaxRecords; cut > 0 {
		// Copy down rather than reslice so evicted records do not pin
		// the backing array forever.
		n := copy(ow.recs, ow.recs[cut:])
		ow.recs = ow.recs[:n]
		w.total -= cut
	}
}

// MinLiveSeq returns the smallest sequence number any window still
// retains, and ok=false when every window is empty. WAL segments whose
// records all precede it are dead and prunable.
func (w *Windows) MinLiveSeq() (uint64, bool) {
	min, ok := uint64(math.MaxUint64), false
	for _, ow := range w.byObj {
		if len(ow.recs) == 0 {
			continue
		}
		if s := ow.recs[0].Seq; !ok || s < min {
			min, ok = s, true
		}
	}
	return min, ok
}

// Objects returns how many objects currently retain at least one record.
func (w *Windows) Objects() int {
	n := 0
	for _, ow := range w.byObj {
		if len(ow.recs) > 0 {
			n++
		}
	}
	return n
}

// Records returns the total retained record count across all objects.
func (w *Windows) Records() int { return w.total }

// ObjectWindow is the snapshot form of one object's window.
type ObjectWindow struct {
	Obj     string   `json:"obj"`
	Records []Record `json:"records"`
}

// Snapshot returns a deep copy of every non-empty window, sorted by
// object ID — deterministic, so two processes that applied the same
// record sequence produce DeepEqual snapshots. The chaos suite leans on
// exactly that to prove replay convergence.
func (w *Windows) Snapshot() []ObjectWindow {
	out := make([]ObjectWindow, 0, len(w.byObj))
	for obj, ow := range w.byObj {
		if len(ow.recs) == 0 {
			continue
		}
		out = append(out, ObjectWindow{Obj: obj, Records: append([]Record(nil), ow.recs...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Obj < out[j].Obj })
	return out
}
