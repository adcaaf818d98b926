package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"trajpattern/internal/geom"
	"trajpattern/internal/obs"
	"trajpattern/internal/report"
)

// OverloadError reports a report shed because the ingest queue was full:
// the durable pipeline is running behind the offered load and admission
// must slow down. The serve layer maps it to 429 with Retry-After.
type OverloadError struct {
	// Depth is the queue bound that was full.
	Depth int
}

// Error implements error.
func (e *OverloadError) Error() string {
	if e == nil {
		return "ingest: pipeline overloaded"
	}
	return fmt.Sprintf("ingest: pipeline overloaded: queue of %d full", e.Depth)
}

// UnavailableError reports a report refused because the pipeline cannot
// currently make anything durable — the WAL failed or the pipeline is
// shut down. The serve layer maps it to 503. Unlike OverloadError this is
// not the client's cue to back off and retry soon; it is the operator's
// cue to look at the disk.
type UnavailableError struct {
	// Reason is a short operator-facing cause ("wal failed", "closed").
	Reason string
	// Err is the underlying failure, when one exists.
	Err error
}

// Error implements error.
func (e *UnavailableError) Error() string {
	if e == nil {
		return "ingest: pipeline unavailable"
	}
	if e.Err != nil {
		return fmt.Sprintf("ingest: pipeline unavailable (%s): %v", e.Reason, e.Err)
	}
	return "ingest: pipeline unavailable (" + e.Reason + ")"
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *UnavailableError) Unwrap() error {
	if e == nil {
		return nil
	}
	return e.Err
}

// ErrClosed is the UnavailableError cause after Close.
var ErrClosed = errors.New("ingest: pipeline closed")

// Config configures the ingest pipeline.
type Config struct {
	// WAL configures the write-ahead log (Dir required).
	WAL WALConfig
	// Limits bounds the per-object sliding windows.
	Limits WindowLimits
	// QueueDepth bounds the accept queue; a full queue sheds with
	// OverloadError. Zero means DefaultQueueDepth.
	QueueDepth int
	// Metrics, when non-nil, receives ingest RED instrumentation.
	Metrics *obs.Registry
	// OnApply, when non-nil, runs on the commit goroutine after each
	// batch lands in the windows and before its reports are acknowledged,
	// with the number of records applied.
	// It must not block; the serve layer uses it to nudge the re-mining
	// loop through a select/default send.
	OnApply func(applied int)
}

// DefaultQueueDepth is deep enough to ride out one slow fsync, bounded
// enough that shed latency stays visible.
const DefaultQueueDepth = 256

// fsyncEvery caps how many records one group commit covers. The pipeline
// needs no timer: a batch is whatever accumulated while the previous
// fsync was in flight, up to this cap.
const fsyncEvery = 64

// ingestReq is one report waiting for durability; ack (buffered, length
// 1) carries the outcome back to the waiting handler.
type ingestReq struct {
	rec Record
	ack chan error
}

// pipelineMetrics holds the pipeline's resolved obs handles.
type pipelineMetrics struct {
	accepted   *obs.Counter
	rejectedV  *obs.Counter
	rejectedO  *obs.Counter
	shed       *obs.Counter
	unavail    *obs.Counter
	batches    *obs.Counter
	commitDur  *obs.Histogram
	winRecords *obs.Gauge
	winObjects *obs.Gauge
	queueDepth *obs.Gauge
}

func newPipelineMetrics(r *obs.Registry) pipelineMetrics {
	return pipelineMetrics{
		accepted:   r.Counter("ingest.accepted"),
		rejectedV:  r.Counter("ingest.rejected.validation"),
		rejectedO:  r.Counter("ingest.rejected.order"),
		shed:       r.Counter("ingest.shed.overload"),
		unavail:    r.Counter("ingest.shed.unavailable"),
		batches:    r.Counter("ingest.batches"),
		commitDur:  r.Histogram("ingest.commit"),
		winRecords: r.Gauge("ingest.window.records"),
		winObjects: r.Gauge("ingest.window.objects"),
		queueDepth: r.Gauge("ingest.queue.depth"),
	}
}

// Pipeline is the durable ingest path: Ingest validates a report,
// enqueues it on a bounded queue (full queue = typed shed, never an
// unbounded buffer), and a single commit goroutine batches the queue
// into WAL group commits, applies committed records to the sliding
// windows, and acknowledges. A report is acknowledged nil only after its
// batch's fsync returned — the 200 the handler then writes is a
// durability receipt, which is the whole point of the subsystem.
type Pipeline struct {
	wal       *WAL
	queue     chan ingestReq
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	onApply   func(int)
	m         pipelineMetrics
	replayed  int

	mu  sync.Mutex
	win *Windows
}

// Open replays the WAL, rebuilds the windows from the replayed records
// (byte-identically: the windows are a pure function of the record
// sequence), and starts the commit goroutine. The caller flips readiness
// only after Open returns — a replaying process must not accept traffic
// it could not yet order against its history.
func Open(cfg Config) (*Pipeline, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.WAL.Metrics == nil {
		cfg.WAL.Metrics = cfg.Metrics
	}
	wal, replayed, err := OpenWAL(cfg.WAL)
	if err != nil {
		return nil, err
	}
	win := NewWindows(cfg.Limits)
	for _, r := range replayed {
		win.Apply(r)
	}
	p := &Pipeline{
		wal:      wal,
		queue:    make(chan ingestReq, cfg.QueueDepth),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		onApply:  cfg.OnApply,
		m:        newPipelineMetrics(cfg.Metrics),
		replayed: len(replayed),
		win:      win,
	}
	p.m.winRecords.Set(int64(win.Records()))
	p.m.winObjects.Set(int64(win.Objects()))
	go p.run()
	return p, nil
}

// Ingest submits one report and blocks until it is durable (nil), shed
// (*OverloadError), refused (*report.ValidationError, *report.OrderError,
// *UnavailableError), or the context ends. A context error leaves the
// report's fate ambiguous — it may still commit — which is the
// unavoidable at-least-once seam every durable ingest has; clients that
// time out must tolerate their retry being rejected as out of order.
func (p *Pipeline) Ingest(ctx context.Context, obj string, t, x, y float64) error {
	if err := report.ValidateFix(obj, t, geom.Pt(x, y)); err != nil {
		p.m.rejectedV.Inc()
		return err
	}
	req := ingestReq{rec: Record{Obj: obj, Time: t, X: x, Y: y}, ack: make(chan error, 1)}
	select {
	case p.queue <- req:
		p.m.queueDepth.Set(int64(len(p.queue)))
	case <-p.stop:
		p.m.unavail.Inc()
		return &UnavailableError{Reason: "closed", Err: ErrClosed}
	default:
		p.m.shed.Inc()
		return &OverloadError{Depth: cap(p.queue)}
	}
	select {
	case err := <-req.ack:
		return err
	case <-ctx.Done():
		return ctx.Err()
	case <-p.done:
		// The commit goroutine exited after our enqueue; its final
		// drain may have acked us already.
		select {
		case err := <-req.ack:
			return err
		default:
			p.m.unavail.Inc()
			return &UnavailableError{Reason: "closed", Err: ErrClosed}
		}
	}
}

// run is the commit goroutine: one batch per iteration, no timers.
func (p *Pipeline) run() {
	defer close(p.done)
	batch := make([]ingestReq, 0, fsyncEvery)
	for {
		batch = batch[:0]
		select {
		case <-p.stop:
			p.drain()
			return
		case req := <-p.queue:
			batch = append(batch, req)
		}
	collect:
		for len(batch) < fsyncEvery {
			select {
			case req := <-p.queue:
				batch = append(batch, req)
			default:
				break collect
			}
		}
		p.commit(batch)
	}
}

// drain acknowledges every queued-but-uncommitted report with a typed
// refusal so no handler goroutine is left waiting on a dead pipeline.
func (p *Pipeline) drain() {
	for {
		select {
		case req := <-p.queue:
			p.m.unavail.Inc()
			req.ack <- &UnavailableError{Reason: "closed", Err: ErrClosed}
		default:
			return
		}
	}
}

// commit runs one group commit: order-check the batch, append and fsync
// the survivors, apply them to the windows, acknowledge, prune dead WAL
// segments. Order is checked here, on the single goroutine that owns the
// windows, so the WAL never holds an out-of-order record and there is no
// reservation to race on.
func (p *Pipeline) commit(batch []ingestReq) {
	stopTimer := p.m.commitDur.Start()
	defer stopTimer()
	p.m.batches.Inc()

	valid := make([]ingestReq, 0, len(batch))
	recs := make([]Record, 0, len(batch))
	batchLast := make(map[string]float64, len(batch))
	p.mu.Lock()
	for _, req := range batch {
		last, has := batchLast[req.rec.Obj]
		if !has {
			last, has = p.win.LastTime(req.rec.Obj)
		}
		if err := report.CheckOrder(req.rec.Obj, last, req.rec.Time, has); err != nil {
			p.m.rejectedO.Inc()
			req.ack <- err
			continue
		}
		batchLast[req.rec.Obj] = req.rec.Time
		valid = append(valid, req)
		recs = append(recs, req.rec)
	}
	p.mu.Unlock()
	if len(recs) == 0 {
		return
	}

	if err := p.wal.Append(recs); err != nil {
		p.refuse(valid, err)
		return
	}
	if err := p.wal.Sync(); err != nil {
		p.refuse(valid, err)
		return
	}

	p.mu.Lock()
	for _, r := range recs {
		p.win.Apply(r)
	}
	minLive, haveLive := p.win.MinLiveSeq()
	p.m.winRecords.Set(int64(p.win.Records()))
	p.m.winObjects.Set(int64(p.win.Objects()))
	p.mu.Unlock()

	// Count and notify before acking: a caller that reads ingest.accepted
	// or its OnApply tally after its ack must see its own report in both.
	p.m.accepted.Add(int64(len(valid)))
	if p.onApply != nil {
		p.onApply(len(recs))
	}
	for i := range valid {
		valid[i].ack <- nil
	}

	if haveLive {
		// Best effort: a failed prune costs disk, not correctness.
		p.wal.Prune(minLive)
	}
}

// refuse acknowledges a batch that could not be made durable.
func (p *Pipeline) refuse(reqs []ingestReq, cause error) {
	p.m.unavail.Add(int64(len(reqs)))
	for i := range reqs {
		reqs[i].ack <- &UnavailableError{Reason: "wal failed", Err: cause}
	}
}

// Close stops the commit goroutine, refuses everything still queued, and
// closes the WAL. Safe to call more than once.
func (p *Pipeline) Close() error {
	p.closeOnce.Do(func() { close(p.stop) })
	<-p.done
	return p.wal.Close()
}

// Stats is a point-in-time summary of the pipeline for status endpoints
// and tests.
type Stats struct {
	// LastSeq is the highest WAL sequence number assigned.
	LastSeq uint64 `json:"last_seq"`
	// Replayed is how many records the WAL replayed at Open.
	Replayed int `json:"replayed"`
	// TornSkipped is how many torn tail records replay skipped (0 or 1).
	TornSkipped int `json:"torn_skipped"`
	// Objects and Records describe the live windows.
	Objects int `json:"objects"`
	Records int `json:"records"`
	// Segments is how many WAL segment files exist right now.
	Segments int `json:"segments"`
	// Failed reports a poisoned WAL: every ingest is refused until the
	// process restarts and replays.
	Failed bool `json:"failed"`
}

// Stats returns the current summary.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	objects, records := p.win.Objects(), p.win.Records()
	p.mu.Unlock()
	return Stats{
		LastSeq:     p.wal.LastSeq(),
		Replayed:    p.replayed,
		TornSkipped: p.wal.TornSkipped(),
		Objects:     objects,
		Records:     records,
		Segments:    p.wal.Segments(),
		Failed:      p.wal.Failed() != nil,
	}
}

// WindowSnapshot returns a deep, deterministically ordered copy of every
// object's window.
func (p *Pipeline) WindowSnapshot() []ObjectWindow {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.win.Snapshot()
}
