// Package retry is the repo's one implementation of capped exponential
// backoff with deterministic jitter, used by serve.Client to retry
// 429/503/transport failures against trajserve.
//
// The schedule is Base·2^(attempt-1) capped at Max, scaled by a jitter
// factor drawn uniformly from [0.5, 1.5) out of an owned stat.RNG —
// deterministic under a fixed seed, so a test can replay a schedule.
// The package computes delays and parses Retry-After hints; the caller
// (serve.Client) does the waiting.
package retry

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"trajpattern/internal/stat"
)

// Defaults for Policy fields left zero. They are serve.Client's historic
// values; the extraction kept them bit-for-bit.
const (
	DefaultMaxAttempts = 4
	DefaultBase        = 50 * time.Millisecond
	DefaultMax         = 2 * time.Second
)

// Policy shapes one retry schedule. The zero value is usable and retries
// with the package defaults, full backoff, and no jitter.
type Policy struct {
	// MaxAttempts bounds total tries (first + retries). Zero or negative
	// means DefaultMaxAttempts.
	MaxAttempts int
	// Base and Max shape the exponential backoff (Base·2^(attempt-1),
	// capped at Max). Zero or negative means the defaults.
	Base time.Duration
	Max  time.Duration
	// RNG supplies the jitter draw (uniform in [0.5, 1.5) of the
	// backoff). Nil means full backoff with no jitter — deterministic,
	// which tests want anyway.
	RNG *stat.RNG

	mu sync.Mutex // guards RNG draws
}

// Attempts returns the effective attempt budget.
func (p *Policy) Attempts() int {
	if p == nil || p.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return p.MaxAttempts
}

// Delay returns the jittered backoff before the given retry attempt
// (1-based: Delay(1) precedes the first retry). The un-jittered value is
// Base·2^(attempt-1) capped at Max; shift overflow also caps.
func (p *Policy) Delay(attempt int) time.Duration {
	base, maxB := DefaultBase, DefaultMax
	if p != nil {
		if p.Base > 0 {
			base = p.Base
		}
		if p.Max > 0 {
			maxB = p.Max
		}
	}
	if attempt < 1 {
		attempt = 1
	}
	d := base << (attempt - 1)
	if d > maxB || d <= 0 {
		d = maxB
	}
	return p.jitter(d)
}

// jitter scales d by a uniform factor in [0.5, 1.5) drawn from the
// deterministic RNG; without an RNG, d is returned unchanged. Draws are
// serialized so concurrent retry loops sharing a Policy stay race-free.
func (p *Policy) jitter(d time.Duration) time.Duration {
	if p == nil {
		return d
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.RNG == nil {
		return d
	}
	return time.Duration(float64(d) * p.RNG.Uniform(0.5, 1.5))
}

// ParseRetryAfter reads an HTTP Retry-After header value in either RFC
// 9110 form: delay-seconds ("120") or HTTP-date ("Fri, 31 Dec 1999
// 23:59:59 GMT", plus the obsolete RFC 850 and asctime formats that
// http.ParseTime accepts). now anchors the date form — the hint is the
// remaining delay, clamped at zero for dates already past. Absent or
// unparsable values mean no hint.
func ParseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	d := t.Sub(now)
	if d < 0 {
		return 0
	}
	return d
}
