package retry

import (
	"net/http"
	"testing"
	"time"

	"trajpattern/internal/stat"
)

func TestAttempts(t *testing.T) {
	if got := (*Policy)(nil).Attempts(); got != DefaultMaxAttempts {
		t.Errorf("nil policy Attempts = %d, want %d", got, DefaultMaxAttempts)
	}
	if got := (&Policy{}).Attempts(); got != DefaultMaxAttempts {
		t.Errorf("zero policy Attempts = %d, want %d", got, DefaultMaxAttempts)
	}
	if got := (&Policy{MaxAttempts: 7}).Attempts(); got != 7 {
		t.Errorf("Attempts = %d, want 7", got)
	}
}

func TestDelaySchedule(t *testing.T) {
	p := &Policy{Base: 50 * time.Millisecond, Max: 400 * time.Millisecond}
	want := []time.Duration{
		50 * time.Millisecond,  // attempt 1
		100 * time.Millisecond, // attempt 2
		200 * time.Millisecond, // attempt 3
		400 * time.Millisecond, // attempt 4
		400 * time.Millisecond, // attempt 5: capped
	}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Shift overflow caps too.
	if got := p.Delay(80); got != 400*time.Millisecond {
		t.Errorf("Delay(80) = %v, want cap", got)
	}
	// Zero policy falls back to package defaults.
	if got := (&Policy{}).Delay(1); got != DefaultBase {
		t.Errorf("zero policy Delay(1) = %v, want %v", got, DefaultBase)
	}
	if got := (*Policy)(nil).Delay(3); got != 4*DefaultBase {
		t.Errorf("nil policy Delay(3) = %v, want %v", got, 4*DefaultBase)
	}
}

func TestDelayJitterIsDeterministicAndBounded(t *testing.T) {
	base := time.Second
	a := &Policy{Base: base, Max: time.Minute, RNG: stat.NewRNG(42)}
	b := &Policy{Base: base, Max: time.Minute, RNG: stat.NewRNG(42)}
	for i := 1; i <= 16; i++ {
		da, db := a.Delay(1), b.Delay(1)
		if da != db {
			t.Fatalf("draw %d: same seed diverged: %v vs %v", i, da, db)
		}
		if da < base/2 || da >= base+base/2 {
			t.Fatalf("draw %d: jittered delay %v outside [0.5s, 1.5s)", i, da)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tests := []struct {
		name string
		v    string
		want time.Duration
	}{
		{"empty", "", 0},
		{"delay seconds", "120", 120 * time.Second},
		{"delay zero", "0", 0},
		{"delay negative", "-5", 0},
		{"http date future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http date past", now.Add(-time.Hour).Format(http.TimeFormat), 0},
		{"rfc850 future", now.Add(30 * time.Second).Format(time.RFC850), 30 * time.Second},
		{"asctime future", now.Add(45 * time.Second).Format(time.ANSIC), 45 * time.Second},
		{"garbage", "soon", 0},
		{"float seconds rejected", "1.5", 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := ParseRetryAfter(tc.v, now); got != tc.want {
				t.Errorf("ParseRetryAfter(%q) = %v, want %v", tc.v, got, tc.want)
			}
		})
	}
}
