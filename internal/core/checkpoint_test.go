package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"trajpattern/internal/faultio"
	"trajpattern/internal/testutil/leakcheck"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Version:     CheckpointVersion,
		Fingerprint: "00000000deadbeef",
		Iteration:   3,
		LastFresh:   7,
		PrevHigh:    []string{"1", "1-2"},
		PrevAns:     []string{"1"},
		Stats:       MinerStats{Iterations: 3, Candidates: 42, MaxQ: 9, NMEvaluations: 42},
		Q:           []string{"1", "1-2", "2"},
		Evaluated: []SavedEntry{
			{Cells: []int{1}, NM: -0.5},
			{Cells: []int{1, 2}, NM: -1.25},
			{Cells: []int{2}, NM: -0.75},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Errorf("round trip changed the checkpoint:\ngot  %+v\nwant %+v", got, ck)
	}
	// The trailer is one self-describing line at the end of the file.
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "trajpattern-checkpoint crc32c=") {
		t.Errorf("trailer = %q, want a trajpattern-checkpoint crc32c line", last)
	}
	// Serialization is deterministic: writing the same state twice gives
	// byte-identical files.
	var buf2 bytes.Buffer
	if err := WriteCheckpoint(&buf2, ck); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two writes of the same checkpoint differ")
	}
}

func TestReadCheckpointRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip one byte of the body: the CRC must catch it even though the
	// result may still be valid JSON.
	for _, i := range []int{10, len(good) / 2} {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x20
		if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil {
			t.Errorf("corrupted byte %d accepted", i)
		}
	}
	// Truncation loses the trailer.
	if _, err := ReadCheckpoint(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	if _, err := ReadCheckpoint(strings.NewReader("")); err == nil {
		t.Error("empty checkpoint accepted")
	}
	// Wrong schema version.
	ck := sampleCheckpoint()
	ck.Version = CheckpointVersion + 1
	buf.Reset()
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(&buf); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted: %v", err)
	}
}

func TestLoadCheckpointMissing(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "none.ckpt")
	_, err := LoadCheckpoint(missing)
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing checkpoint error = %v, want os.ErrNotExist", err)
	}
	// LoadResume reads a missing file as a fresh start and loads or
	// rejects an existing one as LoadCheckpoint does.
	if ck, err := LoadResume(missing); ck != nil || err != nil {
		t.Errorf("LoadResume(missing) = %+v, %v, want a fresh start (nil, nil)", ck, err)
	}
	path := filepath.Join(dir, "run.ckpt")
	if err := SaveCheckpoint(nil, path, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if ck, err := LoadResume(path); err != nil || !reflect.DeepEqual(ck, sampleCheckpoint()) {
		t.Errorf("LoadResume(saved) = %+v, %v", ck, err)
	}
	if err := os.WriteFile(path, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ck, err := LoadResume(path); err == nil {
		t.Errorf("LoadResume accepted a corrupt checkpoint: %+v", ck)
	}
}

// TestSaveCheckpointFaults proves the atomicity claim: under every
// injected failure mode of the write protocol, the previous checkpoint
// at the path survives intact.
func TestSaveCheckpointFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "miner.ckpt")
	old := sampleCheckpoint()
	if err := SaveCheckpoint(nil, path, old); err != nil {
		t.Fatal(err)
	}
	newer := sampleCheckpoint()
	newer.Iteration = 4

	for name, faults := range map[string]*faultio.Faults{
		"create":      {FailCreate: true, ShortWriteAfter: -1},
		"short-write": {ShortWriteAfter: 10},
		"sync":        {FailSync: true, ShortWriteAfter: -1},
		"rename":      {FailRename: true, ShortWriteAfter: -1},
		"torn-rename": {TornRename: true, ShortWriteAfter: -1},
	} {
		if err := SaveCheckpoint(faults, path, newer); !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("%s: error = %v, want an injected fault", name, err)
		}
		got, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("%s: previous checkpoint unreadable after failed save: %v", name, err)
		}
		if !reflect.DeepEqual(got, old) {
			t.Errorf("%s: previous checkpoint changed by a failed save", name)
		}
	}
	// And a healthy save through the fault FS replaces it.
	if err := SaveCheckpoint(faultio.NewFaults(), path, newer); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadCheckpoint(path); err != nil || got.Iteration != 4 {
		t.Errorf("healthy save not visible: %v, %+v", err, got)
	}
}

// TestMineCheckpointWriteFailureIsHard: a miner that cannot persist the
// checkpoint it was asked for must fail loudly, not keep mining.
func TestMineCheckpointWriteFailure(t *testing.T) {
	s := testScorer(t, randomDataset(7, 8, 20, 0.1), 5)
	faults := &faultio.Faults{FailRename: true, ShortWriteAfter: -1}
	_, err := Mine(context.Background(), s, MinerConfig{
		K: 5, MaxLen: 6,
		CheckpointPath: filepath.Join(t.TempDir(), "miner.ckpt"),
		CheckpointFS:   faults,
	})
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("failed checkpoint write not surfaced: %v", err)
	}
	if !errors.Is(err, faultio.ErrInjected) {
		t.Errorf("error %v does not wrap the injected fault", err)
	}
}

func TestMineResumeFingerprintMismatch(t *testing.T) {
	data := randomDataset(7, 8, 20, 0.1)
	s := testScorer(t, data, 5)
	path := filepath.Join(t.TempDir(), "miner.ckpt")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	cfg := MinerConfig{K: 5, MaxLen: 6, CheckpointPath: path,
		OnProgress: func(p Progress) {
			if p.Iteration == 2 {
				cancel(fmt.Errorf("stop for the mismatch test"))
			}
		}}
	if _, err := Mine(ctx, s, cfg); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	// Same checkpoint, different problem (K): refuse to resume.
	s2 := testScorer(t, data, 5)
	_, err = Mine(context.Background(), s2, MinerConfig{K: 4, MaxLen: 6, Resume: ck})
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("fingerprint mismatch accepted: %v", err)
	}
	// Same problem: resume is accepted.
	s3 := testScorer(t, data, 5)
	if _, err := Mine(context.Background(), s3, MinerConfig{K: 5, MaxLen: 6, Resume: ck}); err != nil {
		t.Errorf("matching resume refused: %v", err)
	}
}

// TestMineResumeEqualsUninterrupted is the core crash-safety guarantee:
// stop a run after an arbitrary iteration — cancelled, or cut short by
// MaxIters — resume from its checkpoint with a fresh scorer, and the final
// persisted answer is byte-identical to the uninterrupted run's. Either
// way the checkpoint holds the boundary the run stopped at.
func TestMineResumeEqualsUninterrupted(t *testing.T) {
	defer leakcheck.Check(t)()
	data := randomDataset(7, 8, 20, 0.1)
	// The §5 MinLen variant takes several iterations to saturate, giving
	// resume points both before and after the first long patterns appear.
	base := MinerConfig{K: 8, MinLen: 3, MaxLen: 6}
	dir := t.TempDir()

	// Reference: one uninterrupted run.
	sA := testScorer(t, data, 5)
	resA, err := Mine(context.Background(), sA, base)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Interrupted {
		t.Fatal("reference run interrupted")
	}
	if resA.Stats.Iterations < 3 {
		t.Fatalf("reference run too short (%d iterations) to exercise resume", resA.Stats.Iterations)
	}
	refPath := filepath.Join(dir, "ref.json")
	if err := SavePatterns(refPath, resA.Patterns); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	for stopAt := 1; stopAt < resA.Stats.Iterations; stopAt++ {
		for _, how := range []string{"cancel", "maxiters"} {
			name := fmt.Sprintf("%s %d", how, stopAt)
			ckPath := filepath.Join(dir, fmt.Sprintf("%s%d.ckpt", how, stopAt))

			// Stopped run: cancel after stopAt iterations, or bound it
			// to stopAt.
			sB := testScorer(t, data, 5)
			ctx, cancel := context.WithCancelCause(context.Background())
			cfgB := base
			cfgB.CheckpointPath = ckPath
			if how == "cancel" {
				cfgB.OnProgress = func(p Progress) {
					if p.Iteration == stopAt {
						cancel(fmt.Errorf("simulated crash after iteration %d", stopAt))
					}
				}
			} else {
				cfgB.MaxIters = stopAt
			}
			resB, err := Mine(ctx, sB, cfgB)
			cancel(nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !resB.Interrupted {
				t.Fatalf("%s: run not interrupted", name)
			}

			// Resume with a fresh scorer (a new process would have one).
			ck, err := LoadCheckpoint(ckPath)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ck.Iteration != stopAt {
				t.Errorf("%s: checkpoint holds boundary %d, want %d", name, ck.Iteration, stopAt)
			}
			sC := testScorer(t, data, 5)
			cfgC := base
			cfgC.Resume = ck
			resC, err := Mine(context.Background(), sC, cfgC)
			if err != nil {
				t.Fatalf("%s: resume: %v", name, err)
			}
			if resC.Interrupted {
				t.Fatalf("%s: resumed run interrupted", name)
			}
			if resC.Stats.Iterations != resA.Stats.Iterations {
				t.Errorf("%s: resumed run took %d iterations, uninterrupted took %d",
					name, resC.Stats.Iterations, resA.Stats.Iterations)
			}
			// The memo restores every score the stopped run made, so the
			// resumed run scores only what the uninterrupted run scored
			// after the boundary: nothing twice.
			if got := sC.NMEvaluations() + len(ck.Evaluated); got != resA.Stats.Candidates {
				t.Errorf("%s: resumed NM evaluations %d + checkpointed %d = %d, uninterrupted run scored %d",
					name, sC.NMEvaluations(), len(ck.Evaluated), got, resA.Stats.Candidates)
			}

			gotPath := filepath.Join(dir, fmt.Sprintf("resume-%s%d.json", how, stopAt))
			if err := SavePatterns(gotPath, resC.Patterns); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(gotPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: resumed answer differs from the uninterrupted run", name)
			}
		}
	}
}
