// Package jsonlog checks the operator log's -log-format json contract in
// tests: every line is one JSON object carrying a level and a msg, the
// shape `jq -c .` accepts and log shippers parse.
package jsonlog

import (
	"encoding/json"
	"strings"
	"testing"
)

// Records decodes log, failing t unless every line is one JSON object
// with string "level" and "msg" fields. An empty log has no records.
func Records(t testing.TB, log string) []map[string]any {
	t.Helper()
	if log == "" {
		return nil
	}
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSuffix(log, "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not one JSON object (%v): %q", err, line)
		}
		level, lok := rec["level"].(string)
		msg, mok := rec["msg"].(string)
		if !lok || !mok || level == "" || msg == "" {
			t.Fatalf("log record without level and msg: %q", line)
		}
		recs = append(recs, rec)
	}
	return recs
}
