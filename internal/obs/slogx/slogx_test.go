package slogx

import (
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestNilLoggerIsNoOp(t *testing.T) {
	var l *Logger
	l.Info("i", RequestID("r"))
	l.Warn("w")
	l.Error("e", Err(nil))
	l.StdLogger(slog.LevelError).Print("s")
}

func TestJSONRecordsCarryCanonicalAttrs(t *testing.T) {
	var b strings.Builder
	l := New(Options{Format: "json", W: &b, OmitTime: true})
	l.Info("request done", Route("/v1/score"), RequestID("req-00000042"), Status(200))

	var rec map[string]any
	if err := json.Unmarshal([]byte(b.String()), &rec); err != nil {
		t.Fatalf("not one JSON record: %v\n%s", err, b.String())
	}
	if _, hasTime := rec["time"]; hasTime {
		t.Fatalf("OmitTime left a time attr: %v", rec)
	}
	for k, want := range map[string]any{
		"msg":        "request done",
		"level":      "INFO",
		"route":      "/v1/score",
		"request_id": "req-00000042",
		"status":     float64(200),
	} {
		if rec[k] != want {
			t.Errorf("attr %q = %v, want %v (record %v)", k, rec[k], want, rec)
		}
	}
}

func TestStdLoggerWritesRecords(t *testing.T) {
	var b strings.Builder
	New(Options{Format: "json", W: &b, OmitTime: true}).StdLogger(slog.LevelError).
		Print("http: TLS handshake error")
	var rec map[string]any
	if err := json.Unmarshal([]byte(b.String()), &rec); err != nil {
		t.Fatalf("not one JSON record: %v\n%s", err, b.String())
	}
	if rec["level"] != "ERROR" || rec["msg"] != "http: TLS handshake error" {
		t.Fatalf("record = %v", rec)
	}
}

func TestLevelFiltering(t *testing.T) {
	var b strings.Builder
	l := New(Options{Level: "warn", W: &b, OmitTime: true})
	l.Info("dropped")
	l.Warn("kept")
	out := b.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, "kept") {
		t.Fatalf("level filter wrong:\n%s", out)
	}
}

func TestTextFormat(t *testing.T) {
	var b strings.Builder
	New(Options{Format: "text", W: &b, OmitTime: true}).Info("hello", Status(429))
	if out := b.String(); !strings.Contains(out, "msg=hello") || !strings.Contains(out, "status=429") {
		t.Fatalf("text handler output unexpected:\n%s", out)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelInfo, "info": slog.LevelInfo,
		"WARN": slog.LevelWarn, "warning": slog.LevelWarn,
		"error": slog.LevelError, "bogus": slog.LevelInfo, "": slog.LevelInfo,
	} {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestErrAttr(t *testing.T) {
	if Err(nil).Value.String() != "" {
		t.Fatal("Err(nil) must be empty")
	}
}
