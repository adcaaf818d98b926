package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"trajpattern/internal/faultio"
	"trajpattern/internal/obs"
	"trajpattern/internal/obs/slogx"
	"trajpattern/internal/testutil/jsonlog"
)

// testRecords builds n distinct records (sequence numbers unassigned).
func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Obj:  fmt.Sprintf("obj-%d", i%3),
			Time: float64(i) + 0.5,
			X:    float64(i) * 1.25,
			Y:    -float64(i) * 0.5,
		}
	}
	return recs
}

// appendAndSync writes recs through the WAL as one durable batch.
func appendAndSync(t *testing.T, w *WAL, recs []Record) {
	t.Helper()
	if err := w.Append(recs); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := testRecords(5)
	var buf []byte
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
		buf = appendRecord(buf, recs[i])
	}
	off := 0
	for i := range recs {
		got, n, err := decodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("decode record %d: %v", i, err)
		}
		if got != recs[i] {
			t.Fatalf("record %d round-tripped to %+v, want %+v", i, got, recs[i])
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestDecodeRecordRejectsDamage(t *testing.T) {
	frame := appendRecord(nil, Record{Seq: 1, Obj: "z", Time: 1, X: 2, Y: 3})

	// Every strict prefix is a truncated record, never corruption.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := decodeRecord(frame[:cut]); !errors.Is(err, errTruncatedRecord) {
			t.Fatalf("prefix of %d bytes: err = %v, want errTruncatedRecord", cut, err)
		}
	}
	// A flipped payload bit is a CRC mismatch.
	bad := bytes.Clone(frame)
	bad[10] ^= 0x40
	var ce *CorruptError
	if _, _, err := decodeRecord(bad); !errors.As(err, &ce) || !strings.Contains(ce.Reason, "CRC") {
		t.Fatalf("bit flip: err = %v, want CRC CorruptError", err)
	}
	// An absurd length prefix is corruption, not a record to wait for.
	bad = bytes.Clone(frame)
	bad[0], bad[1], bad[2], bad[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := decodeRecord(bad); !errors.As(err, &ce) {
		t.Fatalf("absurd length: err = %v, want CorruptError", err)
	}
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, replayed, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(replayed))
	}
	recs := testRecords(7)
	appendAndSync(t, w, recs[:4])
	appendAndSync(t, w, recs[4:])
	if w.LastSeq() != 7 {
		t.Fatalf("LastSeq = %d, want 7", w.LastSeq())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	w2, replayed, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(replayed, recs) {
		t.Fatalf("replayed %+v,\nwant %+v", replayed, recs)
	}
	// Appends continue the sequence; no number is reused.
	more := testRecords(1)
	appendAndSync(t, w2, more)
	if more[0].Seq != 8 {
		t.Fatalf("post-replay seq = %d, want 8", more[0].Seq)
	}
}

func TestWALRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	// Tiny segments: every single-record batch overflows one.
	w, _, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 1, Metrics: reg})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := testRecords(5)
	for i := range recs {
		appendAndSync(t, w, recs[i:i+1])
	}
	if got := w.Segments(); got != 6 {
		t.Fatalf("Segments = %d, want 6 (5 sealed + active)", got)
	}
	// Records 1 and 2 have aged out of every window; their segments go.
	n, err := w.Prune(3)
	if err != nil {
		t.Fatalf("prune: %v", err)
	}
	if n != 2 {
		t.Fatalf("pruned %d segments, want 2", n)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["ingest.wal.rotations"] != 5 || snap.Counters["ingest.wal.pruned_segments"] != 2 {
		t.Fatalf("metrics = %v", snap.Counters)
	}

	// Replay after pruning yields exactly the still-live suffix.
	w2, replayed, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(replayed, recs[2:]) {
		t.Fatalf("replayed %+v, want records 3..5", replayed)
	}
}

// TestWALReplaySkipsExactlyOneTornTailRecord is the regression test for
// the faultio short-append seam: a write that lands only partially must
// leave a torn tail that replay skips — exactly one record, the
// unacknowledged one — while every previously synced record survives.
func TestWALReplaySkipsExactlyOneTornTailRecord(t *testing.T) {
	dir := t.TempDir()
	fl := faultio.NewFaults()
	w, _, err := OpenWAL(WALConfig{Dir: dir, FS: fl})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := testRecords(4)
	appendAndSync(t, w, recs[:3])
	committedLen := int64(len(appendRecord(appendRecord(appendRecord(nil, recs[0]), recs[1]), recs[2])))

	// The fourth record's append tears 5 bytes in (ShortAppendAfter is
	// a cumulative budget, so it sits 5 bytes past what already
	// landed): partial frame on disk, error to the writer, WAL
	// poisoned. The in-process truncate-repair fails too — this is the
	// crashed-before-repair shape, the one replay must handle.
	fl.ShortAppendAfter = int(committedLen) + 5
	fl.FailTruncate = true
	if err := w.Append(recs[3:4]); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("torn append err = %v, want ErrInjected", err)
	}
	if w.Failed() == nil {
		t.Fatal("WAL not poisoned after failed append")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("sync on poisoned WAL succeeded")
	}
	// The injected truncate-repair also goes through the faulty FS;
	// make it fail too so the torn tail really is on disk, as after a
	// crash with no chance to repair.
	seg := filepath.Join(dir, "wal-00000001.seg")
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() <= committedLen {
		t.Fatalf("segment %d bytes, want torn tail beyond the %d committed", info.Size(), committedLen)
	}

	reg := obs.New()
	var log bytes.Buffer
	logger := slogx.New(slogx.Options{Format: "json", W: &log, OmitTime: true})
	w2, replayed, err := OpenWAL(WALConfig{Dir: dir, Metrics: reg, Log: logger})
	if err != nil {
		t.Fatalf("replay with torn tail: %v", err)
	}
	if !reflect.DeepEqual(replayed, recs[:3]) {
		t.Fatalf("replayed %+v, want exactly the 3 synced records", replayed)
	}
	if w2.TornSkipped() != 1 {
		t.Fatalf("TornSkipped = %d, want 1", w2.TornSkipped())
	}
	if reg.Snapshot().Counters["ingest.replay.torn_skipped"] != 1 {
		t.Fatal("torn skip not metered")
	}
	logged := jsonlog.Records(t, log.String())
	if len(logged) != 1 || logged[0]["level"] != "WARN" || !strings.Contains(logged[0]["msg"].(string), "torn tail") {
		t.Fatalf("torn skip not logged as one warning record: %q", log.String())
	}
	// Replay truncated the tear away; the file is clean for appending.
	if info, err := os.Stat(seg); err != nil || info.Size() != committedLen {
		t.Fatalf("post-replay size = %v/%v, want %d", info, err, committedLen)
	}
	more := testRecords(1)
	appendAndSync(t, w2, more)
	if more[0].Seq != 4 {
		t.Fatalf("seq after torn replay = %d, want 4 (torn record's number reused: it was never acked)", more[0].Seq)
	}
	if err := w2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestWALFailedAppendRepairsTail: when truncate works, a failed append
// leaves a clean file immediately (no torn tail for replay to skip).
func TestWALFailedAppendRepairsTail(t *testing.T) {
	dir := t.TempDir()
	fl := faultio.NewFaults()
	w, _, err := OpenWAL(WALConfig{Dir: dir, FS: fl})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := testRecords(3)
	appendAndSync(t, w, recs[:2])
	fl.ShortAppendAfter = 3
	if err := w.Append(recs[2:3]); err == nil {
		t.Fatal("torn append succeeded")
	}
	fl.ShortAppendAfter = -1 // repair truncate must not be cut short

	reg := obs.New()
	w2, replayed, err := OpenWAL(WALConfig{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(replayed, recs[:2]) {
		t.Fatalf("replayed %+v, want the 2 synced records", replayed)
	}
	if w2.TornSkipped() != 0 {
		t.Fatalf("TornSkipped = %d, want 0: append-failure repair already truncated", w2.TornSkipped())
	}
}

func TestWALReplayRefusesMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := testRecords(3)
	appendAndSync(t, w, recs)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Flip one payload bit in the FIRST record: corruption with intact
	// records after it — not a tear, and not recoverable by truncation.
	seg := filepath.Join(dir, "wal-00000001.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[6] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenWAL(WALConfig{Dir: dir})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("mid-log corruption: err = %v (%T), want *CorruptError", err, err)
	}
	if ce.Segment != "wal-00000001.seg" || ce.Offset != 0 {
		t.Fatalf("CorruptError located at %q offset %d, want segment 1 offset 0", ce.Segment, ce.Offset)
	}
}

func TestWALReplayRefusesTornNonFinalSegment(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := testRecords(2)
	appendAndSync(t, w, recs[:1])
	appendAndSync(t, w, recs[1:])
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Tear the tail of segment 1 — which is NOT the final segment, so
	// the tear cannot be a crash artifact and must be fatal.
	if err := faultio.TearTail(filepath.Join(dir, "wal-00000001.seg"), 3); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenWAL(WALConfig{Dir: dir})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("torn non-final segment: err = %v, want *CorruptError", err)
	}
}

func TestWALReplayTreatsZeroFilledTailAsTorn(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := testRecords(2)
	appendAndSync(t, w, recs)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// A delayed-allocation crash can leave a zero-filled tail whose
	// "length prefix" of 0 would otherwise read as impossible framing.
	seg := filepath.Join(dir, "wal-00000001.seg")
	f, err := (faultio.OS{}).OpenAppend(seg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w2, replayed, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatalf("zero tail replay: %v", err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(replayed, recs) {
		t.Fatalf("replayed %+v, want both records", replayed)
	}
	if w2.TornSkipped() != 1 {
		t.Fatalf("TornSkipped = %d, want 1", w2.TornSkipped())
	}
}

func TestWALFailedFsyncPoisons(t *testing.T) {
	dir := t.TempDir()
	fl := faultio.NewFaults()
	w, _, err := OpenWAL(WALConfig{Dir: dir, FS: fl})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendAndSync(t, w, testRecords(1))
	fl.FailAppendSync = true
	if err := w.Append(testRecords(1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Sync(); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("sync = %v, want ErrInjected", err)
	}
	// Poisoned for good: no appends, no syncs, even after the fault
	// clears — fsync failure semantics don't allow "try again".
	fl.FailAppendSync = false
	if err := w.Append(testRecords(1)); err == nil {
		t.Fatal("append after failed fsync succeeded")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("sync after failed fsync succeeded")
	}
	if w.Failed() == nil {
		t.Fatal("Failed() = nil after failed fsync")
	}
}

func TestWALRefusesSegmentGap(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := testRecords(3)
	for i := range recs {
		appendAndSync(t, w, recs[i:i+1])
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Deleting a MIDDLE segment loses records silently if replay just
	// concatenates what remains; it must refuse instead.
	if err := os.Remove(filepath.Join(dir, "wal-00000002.seg")); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenWAL(WALConfig{Dir: dir})
	var ce *CorruptError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "gap") {
		t.Fatalf("segment gap: err = %v, want gap CorruptError", err)
	}
}
