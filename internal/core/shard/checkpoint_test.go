package shard

import (
	"context"
	"path/filepath"
	"testing"

	"trajpattern/internal/core"
	"trajpattern/internal/faultio"
)

// TestLoadCheckpointsSkipsTornFile: a torn per-shard checkpoint (the
// on-disk result of power loss mid-install, produced through the
// faultio injector's TearTargetBytes knob) must not void the other
// shards' saved work — the torn shard is reported as skipped and
// restarts fresh, while the rest resume and the run still matches the
// uninterrupted answer.
func TestLoadCheckpointsSkipsTornFile(t *testing.T) {
	s := zebraScorer(t, 9, 8, 16, 8)
	n := 3
	eng, err := NewEngine(s, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.MinerConfig{K: 4, MaxLowQ: 16}
	full, err := eng.Mine(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	prefix := filepath.Join(t.TempDir(), "ck")
	short := cfg
	short.MaxIters = 2
	short.CheckpointPath = prefix
	if _, err := eng.Mine(context.Background(), short, nil); err != nil {
		t.Fatal(err)
	}

	// Tear shard 1's checkpoint: reinstall it with only its first 64
	// bytes, exactly as a reordered rename after power loss would leave
	// it. The write itself reports success — only the reader notices.
	torn := 1
	path := CheckpointPath(prefix, torn, n)
	ck, err := core.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	fl := faultio.NewFaults()
	fl.TearTargetBytes = 64
	if err := core.SaveCheckpoint(fl, path, ck); err != nil {
		t.Fatalf("torn install reported failure: %v", err)
	}

	cks, found, skipped := LoadCheckpoints(prefix, n)
	if found != n-1 {
		t.Fatalf("found = %d, want %d", found, n-1)
	}
	if len(skipped) != 1 || skipped[0].Shard != torn || skipped[0].Path != path {
		t.Fatalf("skipped = %+v, want shard %d at %s", skipped, torn, path)
	}
	if skipped[0].Err == nil {
		t.Fatal("skipped entry carries no error")
	}
	if cks[torn] != nil {
		t.Fatal("torn shard still yielded a checkpoint")
	}
	for i := 0; i < n; i++ {
		if i != torn && cks[i] == nil {
			t.Fatalf("healthy shard %d lost its checkpoint", i)
		}
	}

	// The torn shard restarts fresh; the answer still matches.
	resumed, err := eng.Mine(context.Background(), cfg, cks)
	if err != nil {
		t.Fatal(err)
	}
	fk, rk := patternKeys(full.Patterns), patternKeys(resumed.Patterns)
	if len(fk) != len(rk) {
		t.Fatalf("resumed run: %d patterns, want %d", len(rk), len(fk))
	}
	for i := range fk {
		//trajlint:allow floatcmp -- resume is replay: NMs must be bit-equal, not merely close
		if fk[i] != rk[i] || full.Patterns[i].NM != resumed.Patterns[i].NM {
			t.Errorf("rank %d: resumed (%s, %v) != uninterrupted (%s, %v)",
				i, rk[i], resumed.Patterns[i].NM, fk[i], full.Patterns[i].NM)
		}
	}
}
