package ingest

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"trajpattern/internal/faultio"
	"trajpattern/internal/obs"
	"trajpattern/internal/obs/slogx"
)

// DefaultSegmentBytes is the rotation threshold for WAL segments when
// WALConfig.SegmentBytes is zero: small enough that pruning reclaims
// space promptly, large enough that rotation is rare under load.
const DefaultSegmentBytes = 1 << 20

// WALConfig configures a write-ahead log.
type WALConfig struct {
	// Dir is the directory holding the segment files (created if
	// absent). Required.
	Dir string
	// SegmentBytes is the size past which the active segment is sealed
	// and a new one started. Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// FS is the filesystem seam; nil means the real OS. Tests inject a
	// *faultio.Faults to tear appends and fail or stall fsyncs.
	FS faultio.AppendFS
	// Metrics, when non-nil, receives WAL instrumentation under
	// "ingest.wal.*" and "ingest.replay.*".
	Metrics *obs.Registry
	// Log receives the torn-tail skip and a failed tail repair. Nil
	// discards them.
	Log *slogx.Logger
}

// segmentMeta describes one sealed (no longer written) segment.
type segmentMeta struct {
	index   int
	path    string
	lastSeq uint64 // highest sequence number stored in the segment
}

// walMetrics holds the WAL's resolved obs handles; all nil without a
// registry, which every obs method tolerates.
type walMetrics struct {
	records    *obs.Counter
	bytes      *obs.Counter
	fsyncs     *obs.Counter
	fsyncDur   *obs.Histogram
	appendDur  *obs.Histogram
	rotations  *obs.Counter
	pruned     *obs.Counter
	replayRecs *obs.Counter
	replaySegs *obs.Counter
	replayTorn *obs.Counter
}

func newWALMetrics(r *obs.Registry) walMetrics {
	return walMetrics{
		records:    r.Counter("ingest.wal.records"),
		bytes:      r.Counter("ingest.wal.bytes"),
		fsyncs:     r.Counter("ingest.wal.fsyncs"),
		fsyncDur:   r.Histogram("ingest.wal.fsync"),
		appendDur:  r.Histogram("ingest.wal.append"),
		rotations:  r.Counter("ingest.wal.rotations"),
		pruned:     r.Counter("ingest.wal.pruned_segments"),
		replayRecs: r.Counter("ingest.replay.records"),
		replaySegs: r.Counter("ingest.replay.segments"),
		replayTorn: r.Counter("ingest.replay.torn_skipped"),
	}
}

// WAL is a segmented, CRC-framed write-ahead log of ingest records. One
// writer at a time appends (the pipeline's group-commit goroutine);
// methods are nevertheless mutex-guarded so status probes from other
// goroutines stay safe.
//
// Durability protocol: Append writes the framed batch to the active
// segment; Sync fsyncs it and, past the rotation threshold, seals the
// segment and starts the next. A record is durable — and may be
// acknowledged — only after the Sync that covers it returns nil. Any
// append or sync failure poisons the WAL permanently (a failed fsync
// means the kernel may have dropped the batch on the floor; "retry and
// hope" is how databases used to lose data), except that a failed
// *append* first tries to truncate the torn tail so the on-disk log
// stays clean for the restart that follows.
type WAL struct {
	dir    string
	maxSeg int64
	fs     faultio.AppendFS
	log    *slogx.Logger

	mu       sync.Mutex
	file     faultio.File
	index    int   // active segment number
	size     int64 // committed bytes in the active segment
	nextSeq  uint64
	lastSeq  uint64 // highest seq ever assigned (0 = none)
	sealed   []segmentMeta
	failed   error
	buf      []byte
	m        walMetrics
	tornSkip int // torn tail records skipped during Open
}

// segmentName formats the file name of segment i.
func segmentName(i int) string { return fmt.Sprintf("wal-%08d.seg", i) }

// parseSegmentName extracts the index from a segment file name,
// reporting ok=false for files that are not segments.
func parseSegmentName(name string) (int, bool) {
	var i int
	if _, err := fmt.Sscanf(name, "wal-%08d.seg", &i); err != nil || segmentName(i) != name {
		return 0, false
	}
	return i, true
}

// OpenWAL opens (or creates) the log in cfg.Dir, replays every record in
// segment order, and returns the WAL positioned for appending plus the
// replayed records. A truncated record at the very tail of the final
// segment — the shape a crash mid-append leaves — is skipped with a
// logged, metered warning and truncated away before the next append;
// corruption anywhere else (CRC mismatch, impossible framing, a
// truncated record that is not the final bytes of the log) is a hard
// *CorruptError: the log cannot be trusted and must be repaired or
// discarded by an operator, never silently half-replayed.
func OpenWAL(cfg WALConfig) (*WAL, []Record, error) {
	if cfg.Dir == "" {
		return nil, nil, errors.New("ingest: WALConfig.Dir is required")
	}
	fs := cfg.FS
	if fs == nil {
		fs = faultio.OS{}
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("ingest: create WAL dir: %w", err)
	}
	w := &WAL{
		dir:    cfg.Dir,
		maxSeg: cfg.SegmentBytes,
		fs:     fs,
		log:    cfg.Log,
		m:      newWALMetrics(cfg.Metrics),
	}

	indices, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	var records []Record
	activeSize := int64(0)
	for pos, idx := range indices {
		path := filepath.Join(cfg.Dir, segmentName(idx))
		final := pos == len(indices)-1
		recs, committed, torn, err := w.replaySegment(path, final)
		if err != nil {
			return nil, nil, err
		}
		records = append(records, recs...)
		w.m.replaySegs.Inc()
		if len(recs) > 0 {
			last := recs[len(recs)-1].Seq
			if last > w.lastSeq {
				w.lastSeq = last
			}
		}
		if final {
			activeSize = committed
			if torn {
				w.tornSkip++
				w.m.replayTorn.Inc()
				w.log.Warn("WAL torn tail record skipped",
					slog.String("segment", segmentName(idx)), slog.Int64("committed_bytes", committed))
				if err := fs.Truncate(path, committed); err != nil {
					return nil, nil, fmt.Errorf("ingest: truncate torn tail of %s: %w", path, err)
				}
			}
		} else {
			w.sealed = append(w.sealed, segmentMeta{index: idx, path: path, lastSeq: w.lastSeq})
		}
	}
	w.m.replayRecs.Add(int64(len(records)))
	w.nextSeq = w.lastSeq + 1

	// Position the writer: reuse the final segment while it has room,
	// else seal it and start fresh.
	w.index = 1
	if n := len(indices); n > 0 {
		w.index = indices[n-1]
		if activeSize >= cfg.SegmentBytes {
			w.sealed = append(w.sealed, segmentMeta{
				index: w.index, path: filepath.Join(cfg.Dir, segmentName(w.index)), lastSeq: w.lastSeq,
			})
			w.index++
			activeSize = 0
		}
	}
	f, err := fs.OpenAppend(filepath.Join(cfg.Dir, segmentName(w.index)))
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: open WAL segment: %w", err)
	}
	w.file = f
	w.size = activeSize
	return w, records, nil
}

// listSegments returns the segment indices present in dir, ascending,
// erroring on gaps (a missing middle segment means lost records).
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: read WAL dir: %w", err)
	}
	var idx []int
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if i, ok := parseSegmentName(e.Name()); ok {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	for k := 1; k < len(idx); k++ {
		if idx[k] != idx[k-1]+1 {
			return nil, &CorruptError{
				Segment: segmentName(idx[k]),
				Reason:  fmt.Sprintf("segment gap: %s follows %s", segmentName(idx[k]), segmentName(idx[k-1])),
			}
		}
	}
	return idx, nil
}

// replaySegment decodes one segment file. committed reports the byte
// offset of the end of the last good record; torn reports a skipped
// truncated tail (only ever true when final is). Errors are always
// *CorruptError.
func (w *WAL) replaySegment(path string, final bool) (recs []Record, committed int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("ingest: read WAL segment: %w", err)
	}
	base := filepath.Base(path)
	off := 0
	for off < len(data) {
		r, n, derr := decodeRecord(data[off:])
		if derr == nil {
			if r.Seq <= w.lastSeqIn(recs) {
				return nil, 0, false, &CorruptError{
					Segment: base, Offset: int64(off),
					Reason: fmt.Sprintf("sequence regression: record %d after %d", r.Seq, w.lastSeqIn(recs)),
				}
			}
			recs = append(recs, r)
			off += n
			continue
		}
		if errors.Is(derr, errTruncatedRecord) && final {
			// The torn tail: a record whose bytes ran out at EOF. Also
			// accept an all-zeros tail — filesystems that allocate
			// blocks ahead of the data can leave one after power loss.
			return recs, int64(off), true, nil
		}
		if allZero(data[off:]) && final {
			return recs, int64(off), true, nil
		}
		var ce *CorruptError
		if errors.As(derr, &ce) {
			return nil, 0, false, &CorruptError{Segment: base, Offset: int64(off), Reason: ce.Reason}
		}
		return nil, 0, false, &CorruptError{Segment: base, Offset: int64(off), Reason: derr.Error()}
	}
	return recs, int64(len(data)), false, nil
}

// lastSeqIn returns the highest seq seen so far, preferring the current
// segment's records over the cross-segment high-water mark.
func (w *WAL) lastSeqIn(recs []Record) uint64 {
	if len(recs) > 0 {
		return recs[len(recs)-1].Seq
	}
	return w.lastSeq
}

// allZero reports whether every byte of b is zero (and b is non-empty).
func allZero(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Append assigns sequence numbers to recs (in place) and writes their
// framed encoding to the active segment in one write. The batch is NOT
// durable until the next Sync returns nil. On a write error the WAL
// truncates the segment back to its committed size — discarding the torn
// tail it just created — and, whether or not that repair succeeds,
// poisons itself: a WAL that failed once serves 503s until the process
// restarts and replays.
func (w *WAL) Append(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return fmt.Errorf("ingest: WAL failed: %w", w.failed)
	}
	stop := w.m.appendDur.Start()
	defer stop()
	w.buf = w.buf[:0]
	for i := range recs {
		recs[i].Seq = w.nextSeq
		w.nextSeq++
		w.buf = appendRecord(w.buf, recs[i])
	}
	if _, err := w.file.Write(w.buf); err != nil {
		w.failed = fmt.Errorf("append: %w", err)
		// Best-effort repair so the NEXT process finds a clean log: cut
		// the partial batch back off. The in-memory state is already
		// poisoned either way.
		path := filepath.Join(w.dir, segmentName(w.index))
		w.file.Close()
		if terr := w.fs.Truncate(path, w.size); terr != nil {
			w.log.Error("WAL append failed and truncate failed; torn tail left for replay to skip",
				slog.String("segment", segmentName(w.index)), slogx.Err(terr))
		}
		return fmt.Errorf("ingest: WAL append: %w", err)
	}
	w.size += int64(len(w.buf))
	w.lastSeq = recs[len(recs)-1].Seq
	w.m.records.Add(int64(len(recs)))
	w.m.bytes.Add(int64(len(w.buf)))
	return nil
}

// Sync makes every appended record durable, then rotates the active
// segment if it has outgrown the threshold. A failed fsync poisons the
// WAL: the kernel may have discarded the dirty pages, so pretending a
// retry could succeed would acknowledge data that never hit the disk.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return fmt.Errorf("ingest: WAL failed: %w", w.failed)
	}
	stop := w.m.fsyncDur.Start()
	err := w.file.Sync()
	stop()
	w.m.fsyncs.Inc()
	if err != nil {
		w.failed = fmt.Errorf("fsync: %w", err)
		w.file.Close()
		return fmt.Errorf("ingest: WAL fsync: %w", err)
	}
	if w.size >= w.maxSeg {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// rotateLocked seals the active segment and opens the next. Caller
// holds w.mu; the active segment is synced.
func (w *WAL) rotateLocked() error {
	if err := w.file.Close(); err != nil {
		w.failed = fmt.Errorf("close segment: %w", err)
		return fmt.Errorf("ingest: WAL rotate: %w", err)
	}
	w.sealed = append(w.sealed, segmentMeta{
		index: w.index, path: filepath.Join(w.dir, segmentName(w.index)), lastSeq: w.lastSeq,
	})
	w.index++
	f, err := w.fs.OpenAppend(filepath.Join(w.dir, segmentName(w.index)))
	if err != nil {
		w.failed = fmt.Errorf("open next segment: %w", err)
		return fmt.Errorf("ingest: WAL rotate: %w", err)
	}
	w.file = f
	w.size = 0
	w.m.rotations.Inc()
	return nil
}

// Prune removes sealed segments every record of which has aged out of
// every window: those whose last sequence number is below minLiveSeq
// (the oldest sequence any window still retains). The active segment is
// never pruned. It returns how many segments were removed.
func (w *WAL) Prune(minLiveSeq uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	for len(w.sealed) > 0 && w.sealed[0].lastSeq < minLiveSeq {
		seg := w.sealed[0]
		if err := w.fs.Remove(seg.path); err != nil {
			return removed, fmt.Errorf("ingest: prune %s: %w", seg.path, err)
		}
		w.sealed = w.sealed[1:]
		removed++
		w.m.pruned.Inc()
	}
	return removed, nil
}

// Close syncs and closes the active segment. The WAL must not be used
// afterwards. A poisoned WAL closes without syncing (the segment file
// was already closed when the failure was recorded).
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return nil
	}
	w.failed = errors.New("closed")
	if err := w.file.Sync(); err != nil {
		w.file.Close()
		return fmt.Errorf("ingest: WAL close sync: %w", err)
	}
	return w.file.Close()
}

// LastSeq returns the highest assigned sequence number (0 before any).
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSeq
}

// Segments returns how many segment files the log currently spans,
// active included.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sealed) + 1
}

// TornSkipped returns how many torn tail records Open skipped (0 or 1).
func (w *WAL) TornSkipped() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tornSkip
}

// Failed returns the sticky failure, nil while the WAL is healthy.
func (w *WAL) Failed() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}
