package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"trajpattern/internal/retry"
	"trajpattern/internal/stat"
)

// Client default knobs. They alias the retry package's defaults — the
// backoff implementation lives there — and these names stay for
// compatibility.
const (
	DefaultMaxAttempts = retry.DefaultMaxAttempts
	DefaultBaseBackoff = retry.DefaultBase
	DefaultMaxBackoff  = retry.DefaultMax
)

// APIError is a non-retryable HTTP failure decoded from the server's
// error envelope (400, 409, 500 — answers, not congestion).
type APIError struct {
	Status  int
	Code    string
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	if e == nil {
		return "serve: API error"
	}
	return fmt.Sprintf("serve: %d %s: %s", e.Status, e.Code, e.Message)
}

// RetriesExhaustedError reports that every attempt failed on a retryable
// condition; Last is the final attempt's error.
type RetriesExhaustedError struct {
	Attempts int
	Last     error
}

// Error implements error.
func (e *RetriesExhaustedError) Error() string {
	if e == nil {
		return "serve: retries exhausted"
	}
	return fmt.Sprintf("serve: %d attempts exhausted: %v", e.Attempts, e.Last)
}

// Unwrap exposes the final attempt's error to errors.Is/As.
func (e *RetriesExhaustedError) Unwrap() error {
	if e == nil {
		return nil
	}
	return e.Last
}

// Client is a retrying client for trajserve. Transport errors (including
// torn responses), 429 and 503 are retried with capped exponential
// backoff plus deterministic jitter, honouring the server's Retry-After
// hint when it is longer than the computed backoff. Everything else —
// 200s, 400s, 409s, 500s — is an answer, returned immediately.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP performs the requests. Nil means http.DefaultClient. The soak
	// test injects a chaos.Transport here.
	HTTP *http.Client
	// MaxAttempts bounds total tries (first + retries). Zero means
	// DefaultMaxAttempts.
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the exponential backoff
	// (base·2^attempt, capped). Zero means the defaults.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RNG supplies the jitter draw (uniform in [0.5, 1.5) of the
	// backoff). Nil means full backoff with no jitter — deterministic,
	// which tests want anyway.
	RNG *stat.RNG
	// Sleep waits between attempts, returning early with ctx's error if
	// it ends first. Nil means a timer-based wait. Tests inject a fake
	// to run the retry schedule without real time.
	Sleep func(ctx context.Context, d time.Duration) error

	mu sync.Mutex // guards RNG draws
}

// Score submits patterns for NM scoring.
func (c *Client) Score(ctx context.Context, req ScoreRequest) (*ScoreResponse, error) {
	var resp ScoreResponse
	if err := c.do(ctx, routeScore, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Mine runs a bounded mining request.
func (c *Client) Mine(ctx context.Context, req MineRequest) (*MineResponse, error) {
	var resp MineResponse
	if err := c.do(ctx, routeMine, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Predict submits a position history for next-position prediction.
func (c *Client) Predict(ctx context.Context, req PredictRequest) (*PredictResponse, error) {
	var resp PredictResponse
	if err := c.do(ctx, routePredict, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// do runs the request/retry loop for one call.
func (c *Client) do(ctx context.Context, route string, reqBody, out any) error {
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return fmt.Errorf("serve: encode request: %w", err)
	}
	attempts := (&retry.Policy{MaxAttempts: c.MaxAttempts}).Attempts()
	var last error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := c.wait(ctx, attempt, last); err != nil {
				return err
			}
		}
		retryable, err := c.once(ctx, route, payload, out)
		if err == nil {
			return nil
		}
		if !retryable {
			return err
		}
		last = err
	}
	return &RetriesExhaustedError{Attempts: attempts, Last: last}
}

// retryAfterError carries the server's Retry-After hint through the
// retry loop so wait can honour it.
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e *retryAfterError) Error() string {
	if e == nil {
		return "serve: retryable error"
	}
	return e.err.Error()
}

func (e *retryAfterError) Unwrap() error {
	if e == nil {
		return nil
	}
	return e.err
}

// once performs a single attempt. The bool reports whether the failure
// is worth retrying.
func (c *Client) once(ctx context.Context, route string, payload []byte, out any) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+route, bytes.NewReader(payload))
	if err != nil {
		return false, fmt.Errorf("serve: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return false, fmt.Errorf("serve: %s: %w", route, context.Cause(ctx))
		}
		return true, fmt.Errorf("serve: %s: %w", route, err)
	}
	defer resp.Body.Close()

	// Read the whole body before trusting it: a torn stream must fail
	// here as a retryable transport error, never half-decode.
	body, err := io.ReadAll(io.LimitReader(resp.Body, DefaultMaxBodySize))
	if err != nil {
		return true, fmt.Errorf("serve: %s: read response: %w", route, err)
	}

	switch {
	case resp.StatusCode == http.StatusOK:
		dec := json.NewDecoder(bytes.NewReader(body))
		if err := dec.Decode(out); err != nil {
			return true, fmt.Errorf("serve: %s: decode response: %w", route, err)
		}
		return false, nil
	case resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable:
		apiErr := decodeAPIError(resp.StatusCode, body)
		return true, &retryAfterError{err: apiErr, after: parseRetryAfter(resp)}
	default:
		return false, decodeAPIError(resp.StatusCode, body)
	}
}

// wait sleeps the backoff for the given (1-based) retry attempt: capped
// exponential with jitter, raised to the server's Retry-After hint when
// that is longer. The schedule math lives in internal/retry; the policy
// is rebuilt from the client's knobs on every call (they may be edited
// between calls, as tests do) and the jitter draw happens under c.mu so
// concurrent calls sharing one RNG stay serialized.
func (c *Client) wait(ctx context.Context, attempt int, last error) error {
	c.mu.Lock()
	d := (&retry.Policy{Base: c.BaseBackoff, Max: c.MaxBackoff, RNG: c.RNG}).Delay(attempt)
	c.mu.Unlock()
	var ra *retryAfterError
	if errors.As(last, &ra) && ra.after > d {
		d = ra.after
	}
	if c.Sleep != nil {
		return c.Sleep(ctx, d)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: backoff wait: %w", context.Cause(ctx))
	}
}

// decodeAPIError turns an error response into an *APIError, tolerating
// bodies that are not the JSON envelope (a torn error body still yields
// a usable status).
func decodeAPIError(status int, body []byte) *APIError {
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err == nil && eb.Error.Code != "" {
		return &APIError{Status: status, Code: eb.Error.Code, Message: eb.Error.Message}
	}
	return &APIError{Status: status, Code: "http_error", Message: http.StatusText(status)}
}

// parseRetryAfter reads the Retry-After hint in either RFC 9110 form —
// delay-seconds (what trajserve emits) or HTTP-date. Absent or
// unparsable means no hint.
func parseRetryAfter(resp *http.Response) time.Duration {
	return retry.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
}
