package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"trajpattern/internal/faultio"
)

// This file exports a tracer's records in the Chrome trace-event format
// ("catapult" JSON), the array-of-events layout that Perfetto and
// chrome://tracing load directly: spans become complete ("X") events with
// a ts/dur pair, instant events become thread-scoped instant ("i") events.
// Reference: the Trace Event Format document of the catapult project.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	TS   int64  `json:"ts"`
	Dur  *int64 `json:"dur,omitempty"` // "X" events only
	PID  int    `json:"pid"`
	TID  int64  `json:"tid"`
	S    string `json:"s,omitempty"` // instant-event scope ("t" = thread)
	Args Attrs  `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object form of the format (preferred
// over the bare array because it tolerates trailing metadata).
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// category derives the Chrome trace category from a record name: the
// leading dot-separated segment ("miner", "scorer", "groups").
func category(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// WriteChromeTrace writes every buffered record in Chrome trace-event
// JSON. Timestamps are microseconds since the tracer's creation, the unit
// the format specifies. No-op on a nil tracer.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	events := t.Events()
	ct := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(events)), DisplayTimeUnit: "ms"}
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  category(e.Name),
			TS:   e.TS,
			PID:  1,
			TID:  e.TID,
			Args: e.Attrs,
		}
		if e.Kind == KindSpan {
			ce.Ph = "X"
			dur := e.Dur
			ce.Dur = &dur
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		ct.TraceEvents = append(ct.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(ct); err != nil {
		return fmt.Errorf("trace: encode chrome trace: %w", err)
	}
	return nil
}

// WriteChromeTraceFile writes the Chrome trace-event JSON to path
// atomically (temp file + fsync + rename). No-op on a nil tracer.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	if t == nil {
		return nil
	}
	return faultio.WriteFileAtomic(nil, path, t.WriteChromeTrace)
}
