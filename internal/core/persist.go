package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"trajpattern/internal/faultio"
)

// This file persists mined results so patterns can be mined once and
// reused by prediction services (the Figure 3 deployment model: the server
// mines offline, devices download the pattern set).

// resultFile is the on-disk representation of a mined result.
type resultFile struct {
	Version  int             `json:"version"`
	Patterns []scoredPattern `json:"patterns"`
}

type scoredPattern struct {
	Cells []int   `json:"cells"`
	NM    float64 `json:"nm"`
}

const persistVersion = 1

// WritePatterns encodes scored patterns to w as JSON.
func WritePatterns(w io.Writer, patterns []ScoredPattern) error {
	f := resultFile{Version: persistVersion, Patterns: make([]scoredPattern, len(patterns))}
	for i, sp := range patterns {
		if len(sp.Pattern) == 0 {
			return fmt.Errorf("core: empty pattern at index %d", i)
		}
		f.Patterns[i] = scoredPattern{Cells: sp.Pattern, NM: sp.NM}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(f); err != nil {
		return fmt.Errorf("core: encoding patterns: %w", err)
	}
	return bw.Flush()
}

// ReadPatterns decodes scored patterns from r, validating structure and,
// when validate is non-nil, each pattern through it (such as
// Pattern.Validate against a grid).
func ReadPatterns(r io.Reader, validate func(Pattern) error) ([]ScoredPattern, error) {
	var f resultFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("core: decoding patterns: %w", err)
	}
	if f.Version != persistVersion {
		return nil, fmt.Errorf("core: unsupported pattern file version %d", f.Version)
	}
	out := make([]ScoredPattern, len(f.Patterns))
	for i, sp := range f.Patterns {
		if len(sp.Cells) == 0 {
			return nil, fmt.Errorf("core: pattern %d is empty", i)
		}
		// Structural floor applied even with no validate callback: a
		// negative cell index is out of every grid and would panic the
		// scorer, and a non-finite NM poisons every ranking comparison
		// (found by FuzzLoadPatterns).
		for j, c := range sp.Cells {
			if c < 0 {
				return nil, fmt.Errorf("core: pattern %d: cell %d is negative (%d)", i, j, c)
			}
		}
		if math.IsNaN(sp.NM) || math.IsInf(sp.NM, 0) {
			return nil, fmt.Errorf("core: pattern %d: non-finite NM %v", i, sp.NM)
		}
		p := Pattern(sp.Cells)
		if validate != nil {
			if err := validate(p); err != nil {
				return nil, fmt.Errorf("core: pattern %d: %w", i, err)
			}
		}
		out[i] = ScoredPattern{Pattern: p, NM: sp.NM}
	}
	return out, nil
}

// SavePatterns writes scored patterns to the named file atomically
// (temp file + fsync + rename): a crash mid-write leaves the previous
// file, never a torn one.
func SavePatterns(path string, patterns []ScoredPattern) error {
	return faultio.WriteFileAtomic(nil, path, func(w io.Writer) error {
		return WritePatterns(w, patterns)
	})
}

// LoadPatterns reads scored patterns from the named file.
func LoadPatterns(path string, validate func(Pattern) error) ([]ScoredPattern, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return ReadPatterns(f, validate)
}
