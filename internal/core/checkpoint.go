package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"sort"

	"trajpattern/internal/faultio"
)

// CheckpointVersion identifies the on-disk checkpoint schema.
const CheckpointVersion = 1

// checkpointMagic leads the CRC trailer line so a reader can tell a
// truncated file from one with a trailing-garbage problem.
const checkpointMagic = "trajpattern-checkpoint"

// castagnoli is the CRC-32C polynomial table shared by checkpoint
// writers and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checkpoint is a crash-safe snapshot of a Mine run, taken at a grow
// iteration boundary (never mid-iteration, so a resumed run replays the
// remaining iterations exactly as the uninterrupted run would).
// DESIGN.md maps each field to its §4 set.
//
// All slices are sorted deterministically before serialization, so the
// same miner state always produces byte-identical checkpoint files.
type Checkpoint struct {
	Version int `json:"version"`
	// Fingerprint identifies the mining problem (config + scoring +
	// dataset shape). Resume refuses a checkpoint whose fingerprint does
	// not match the current run — replaying someone else's state would
	// silently produce wrong patterns. Run bounds (MaxIters, the
	// context's deadline, checkpoint settings) are deliberately excluded:
	// a run interrupted under a tight bound may be resumed under a looser
	// one.
	Fingerprint string `json:"fingerprint"`
	// Iteration is the next grow iteration to execute (0-based): the
	// snapshot was taken after Iteration-many iterations completed.
	Iteration int `json:"iteration"`
	// LastFresh is the number of fresh candidates evaluated in the
	// iteration before the snapshot; the termination test reads it.
	LastFresh int `json:"last_fresh"`
	// PrevHigh and PrevAns are the high-set and answer-set keys of the
	// labeling the last completed iteration generated from, the
	// stability witnesses of the termination test.
	PrevHigh []string `json:"prev_high"`
	PrevAns  []string `json:"prev_answer"`
	// Stats is the cumulative work accounting up to the snapshot.
	Stats MinerStats `json:"stats"`
	// Q holds the keys of the current pattern set Q; their NM values
	// live in Evaluated, of which Q's keys are always a subset.
	Q []string `json:"q"`
	// Evaluated is the full NM memo — every pattern ever scored, with
	// its value. Restoring it (not just Q) is what makes resume
	// deterministic: readmissions and fresh-candidate counts after
	// resume match the uninterrupted run exactly.
	Evaluated []SavedEntry `json:"evaluated"`
}

// FingerprintMismatchError reports a resume checkpoint taken for a
// different mining problem (config, seeds, scoring, or dataset). It is
// permanent: retrying the same run with the same checkpoint can never
// succeed, so a caller reports it or discards the checkpoint and mines
// fresh.
type FingerprintMismatchError struct {
	// Checkpoint is the fingerprint stored in the checkpoint file.
	Checkpoint string
	// Run is the fingerprint of the run that refused it.
	Run string
}

// Error implements error.
func (e *FingerprintMismatchError) Error() string {
	if e == nil {
		return "core: checkpoint fingerprint mismatch"
	}
	return fmt.Sprintf("core: checkpoint fingerprint %s does not match this run's %s (different config, seeds, scoring, or dataset)", e.Checkpoint, e.Run)
}

// SavedEntry is one pattern/NM record of a Checkpoint. NM survives the
// JSON round trip bit-for-bit (Go emits the shortest representation
// that parses back to the same float64), and is always finite thanks to
// the scorer's log floor.
type SavedEntry struct {
	Cells []int   `json:"cells"`
	NM    float64 `json:"nm"`
}

// WriteCheckpoint serializes ck as indented JSON followed by a one-line
// CRC-32C trailer covering every preceding byte, so a reader can detect
// torn or corrupted files without trusting the JSON parser to notice.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	body, err := json.MarshalIndent(ck, "", " ")
	if err != nil {
		return fmt.Errorf("core: marshal checkpoint: %w", err)
	}
	body = append(body, '\n')
	if _, err := w.Write(body); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s crc32c=%08x\n", checkpointMagic, crc32.Checksum(body, castagnoli))
	return err
}

// ReadCheckpoint parses and verifies a checkpoint written by
// WriteCheckpoint: the trailer must be present, the CRC must match, and
// the schema version must be the current one.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	trimmed := bytes.TrimSuffix(data, []byte("\n"))
	i := bytes.LastIndexByte(trimmed, '\n')
	if i < 0 {
		return nil, fmt.Errorf("core: checkpoint corrupt: no CRC trailer")
	}
	body, trailer := data[:i+1], string(trimmed[i+1:])
	var sum uint32
	if _, err := fmt.Sscanf(trailer, checkpointMagic+" crc32c=%08x", &sum); err != nil {
		return nil, fmt.Errorf("core: checkpoint corrupt: bad trailer %q", trailer)
	}
	if got := crc32.Checksum(body, castagnoli); got != sum {
		return nil, fmt.Errorf("core: checkpoint corrupt: crc32c %08x, trailer says %08x", got, sum)
	}
	var ck Checkpoint
	if err := json.Unmarshal(body, &ck); err != nil {
		return nil, fmt.Errorf("core: checkpoint corrupt: %w", err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}
	return &ck, nil
}

// SaveCheckpoint writes ck to path atomically (temp file + fsync +
// rename): a crash at any point leaves either the previous checkpoint
// or the complete new one, never a torn file. fs selects the filesystem
// seam; nil means the real OS (tests inject faults).
func SaveCheckpoint(fs faultio.FS, path string, ck *Checkpoint) error {
	return faultio.WriteFileAtomic(fs, path, func(w io.Writer) error {
		return WriteCheckpoint(w, ck)
	})
}

// LoadCheckpoint reads and verifies the checkpoint at path. A missing
// file surfaces as an error satisfying errors.Is(err, os.ErrNotExist);
// LoadResume reads that as a fresh start.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ck, err := ReadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ck, nil
}

// LoadResume loads the checkpoint a run resumes from: the load path of
// trajmine -resume. A missing file is a fresh start and returns (nil,
// nil); any other failure, such as an unreadable, torn or corrupt file,
// is an error. A checkpoint for another problem loads fine here; Mine
// refuses it with a *FingerprintMismatchError.
func LoadResume(path string) (*Checkpoint, error) {
	ck, err := LoadCheckpoint(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return ck, err
}

// fingerprint hashes the parts of a run that define the mining problem:
// the search parameters, the seed set, the scoring configuration, and
// the dataset shape. Run bounds and instrumentation are excluded (see
// Checkpoint.Fingerprint).
func (c MinerConfig) fingerprint(s *Scorer, seeds []int) string {
	h := fnv.New64a()
	// The high-set cap is a constant, but its "maxhigh=" text stays in
	// the hash so checkpoints written while it was a MinerConfig field
	// still resume.
	fmt.Fprintf(h, "k=%d minlen=%d maxlen=%d maxhigh=%d maxlowq=%d noprune=%t;",
		c.K, c.MinLen, c.MaxLen, highCapPerK*c.K, c.MaxLowQ, c.DisablePrune)
	fmt.Fprintf(h, "seeds=%d:", len(seeds))
	for _, sd := range seeds {
		fmt.Fprintf(h, "%d,", sd)
	}
	sc := s.cfg
	// The floor is a constant and the cache is always on, but their
	// "floor=-700" and "cache=true" texts stay in the hash so checkpoints
	// written while they were Config fields still resume.
	fmt.Fprintf(h, ";grid=%dx%d bounds=%v delta=%v mode=%v floor=%v cache=true;",
		sc.Grid.NX(), sc.Grid.NY(), sc.Grid.Bounds(), sc.Delta, sc.Mode, float64(DefaultLogFloor))
	fmt.Fprintf(h, "data=%d/%d", len(s.data), len(s.flat))
	return fmt.Sprintf("%016x", h.Sum64())
}

// snapshot captures the miner's boundary state as a Checkpoint. q maps
// key → entry, evaluated is the NM memo, and the key sets are the
// stability witnesses of the termination test.
func snapshot(fp string, iter, lastFresh int, stats MinerStats,
	q map[string]*entry, evaluated map[string]float64,
	prevHigh, prevAns map[string]struct{}) *Checkpoint {
	ck := &Checkpoint{
		Version:     CheckpointVersion,
		Fingerprint: fp,
		Iteration:   iter,
		LastFresh:   lastFresh,
		PrevHigh:    sortedKeys(prevHigh),
		PrevAns:     sortedKeys(prevAns),
		Stats:       stats,
		Q:           make([]string, 0, len(q)),
		Evaluated:   make([]SavedEntry, 0, len(evaluated)),
	}
	for k := range q {
		ck.Q = append(ck.Q, k)
	}
	sort.Strings(ck.Q)
	keys := make([]string, 0, len(evaluated))
	for k := range evaluated {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p, err := ParsePattern(k)
		if err != nil {
			// Keys originate from Pattern.Key, so this cannot happen;
			// panicking here would hide a programming error behind a
			// checkpoint failure.
			panic(fmt.Sprintf("core: unparseable memo key %q: %v", k, err))
		}
		ck.Evaluated = append(ck.Evaluated, SavedEntry{Cells: p, NM: evaluated[k]})
	}
	return ck
}

// restore rebuilds the miner's maps from a verified checkpoint. It
// returns an error when the checkpoint is internally inconsistent (a Q
// key missing from the memo), which a CRC-valid file produced by this
// package never is.
func (ck *Checkpoint) restore() (q map[string]*entry, evaluated map[string]float64,
	prevHigh, prevAns map[string]struct{}, err error) {
	evaluated = make(map[string]float64, len(ck.Evaluated))
	for _, se := range ck.Evaluated {
		evaluated[Pattern(se.Cells).Key()] = se.NM
	}
	q = make(map[string]*entry, len(ck.Q))
	for _, k := range ck.Q {
		nm, ok := evaluated[k]
		if !ok {
			return nil, nil, nil, nil, fmt.Errorf("core: checkpoint inconsistent: Q key %q not in memo", k)
		}
		p, perr := ParsePattern(k)
		if perr != nil {
			return nil, nil, nil, nil, fmt.Errorf("core: checkpoint inconsistent: %w", perr)
		}
		q[k] = &entry{pat: p, key: k, nm: nm}
	}
	prevHigh = keySet(ck.PrevHigh)
	prevAns = keySet(ck.PrevAns)
	return q, evaluated, prevHigh, prevAns, nil
}

// sortedKeys flattens a key set into a sorted slice; nil stays nil so
// the pre-first-labeling state round-trips through a checkpoint.
func sortedKeys(set map[string]struct{}) []string {
	if set == nil {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// keySet is the inverse of sortedKeys.
func keySet(keys []string) map[string]struct{} {
	if keys == nil {
		return nil
	}
	set := make(map[string]struct{}, len(keys))
	for _, k := range keys {
		set[k] = struct{}{}
	}
	return set
}
