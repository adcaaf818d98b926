package traj

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleDataset() Dataset {
	return Dataset{
		{P(0, 0, 0.1), P(1, 0.5, 0.2)},
		{P(-1, 2, 0.05), P(-1.5, 2.5, 0.05), P(-2, 3, 0.05)},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(d) {
		t.Fatalf("trajectory count = %d, want %d", len(got), len(d))
	}
	for i := range d {
		if len(got[i]) != len(d[i]) {
			t.Fatalf("trajectory %d length mismatch", i)
		}
		for j := range d[i] {
			if got[i][j] != d[i][j] {
				t.Errorf("point [%d][%d] = %+v, want %+v", i, j, got[i][j], d[i][j])
			}
		}
	}
}

func TestReadRejectsInvalid(t *testing.T) {
	// Valid JSON but structurally invalid trajectory (negative sigma).
	in := `[{"mean":{"X":0,"Y":0},"sigma":-1}]`
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Error("negative sigma accepted")
	}
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}

	// Errors name the 1-based line and record of the offending input so
	// a corrupt row in a million-line file is findable. The bad row here
	// is on line 4 but is only the 3rd record (line 2 is blank).
	good := `[{"mean":{"X":0,"Y":0},"sigma":1}]`
	in = good + "\n\n" + good + "\n" + "not json" + "\n" + good + "\n"
	_, err := Read(strings.NewReader(in))
	if err == nil {
		t.Fatal("garbage row accepted")
	}
	for _, want := range []string{"line 4", "record 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	// File-backed reads additionally name the path.
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := writeRaw(path, in); err != nil {
		t.Fatal(err)
	}
	_, err = ReadFile(path)
	if err == nil {
		t.Fatal("garbage row accepted from file")
	}
	for _, want := range []string{path + ":4", "record 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("file error %q does not mention %q", err, want)
		}
	}
}

func TestReadFileRejectsPoisonedFloats(t *testing.T) {
	// Every way a poisoned float can arrive on disk must be rejected with
	// a path:line error instead of flowing into the scorer: out-of-range
	// exponents (the JSON spelling of Inf/NaN coordinates), negative
	// sigma, and huge-exponent sigma.
	cases := []struct {
		name, row string
	}{
		{"inf x", `[{"mean":{"X":1e400,"Y":0},"sigma":1}]`},
		{"inf y", `[{"mean":{"X":0,"Y":-1e999},"sigma":1}]`},
		{"negative sigma", `[{"mean":{"X":0,"Y":0},"sigma":-0.5}]`},
		{"inf sigma", `[{"mean":{"X":0,"Y":0},"sigma":1e400}]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "poison.jsonl")
			if err := writeRaw(path, tc.row+"\n"); err != nil {
				t.Fatal(err)
			}
			_, err := ReadFile(path)
			if err == nil {
				t.Fatal("poisoned row accepted")
			}
			for _, want := range []string{path + ":1", "record 1"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not carry %q", err, want)
				}
			}
		})
	}
}

func TestReadEmpty(t *testing.T) {
	d, err := Read(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 0 {
		t.Errorf("empty input gave %d trajectories", len(d))
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.jsonl")
	d := sampleDataset()
	if err := WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1][2].Mean.X != -2 {
		t.Errorf("file round trip mismatch: %+v", got)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Error("missing file accepted")
	}
}

func writeRaw(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestWritePreservesPrecision(t *testing.T) {
	d := Dataset{{P(math.Pi, math.E, 1.0/3.0)}}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := got[0][0]
	if p.Mean.X != math.Pi || p.Mean.Y != math.E || p.Sigma != 1.0/3.0 {
		t.Errorf("precision lost: %+v", p)
	}
}

// A null record is rejected with its line and record, not taken for the
// end of input: before, a null on line 3 silently cut the dataset to its
// first two trajectories.
func TestReadRejectsNull(t *testing.T) {
	good := `[{"mean":{"X":0,"Y":0},"sigma":1}]`
	in := good + "\n\n" + "null" + "\n" + good + "\n"
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("null record accepted")
	}
	path := filepath.Join(t.TempDir(), "null.jsonl")
	if err := writeRaw(path, in); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFile(path)
	if err == nil {
		t.Fatal("null record accepted from file")
	}
	for _, want := range []string{path + ":3", "record 2", "null"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// A nil trajectory is written as the empty one, so every record survives
// WriteFile and ReadFile.
func TestFileRoundTripNilTrajectory(t *testing.T) {
	d := sampleDataset()
	path := filepath.Join(t.TempDir(), "data.jsonl")
	if err := WriteFile(path, Dataset{d[0], nil, d[1]}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || len(got[0]) != len(d[0]) || len(got[1]) != 0 || len(got[2]) != len(d[1]) {
		t.Fatalf("round trip of 3 records read %d: %+v", len(got), got)
	}
}
