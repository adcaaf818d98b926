package traj

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"trajpattern/internal/faultio"
)

// The on-disk format is JSON lines: one trajectory per line, encoded as an
// array of {"mean":{"X":…,"Y":…},"sigma":…} objects. Read and ReadFile
// load a whole dataset; every scoring path scores a resident dataset.

// Write encodes the dataset to w, one trajectory per line. A nil
// trajectory is written as the empty one, [], since Read rejects null.
func Write(w io.Writer, d Dataset) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, t := range d {
		if t == nil {
			t = Trajectory{}
		}
		if err := enc.Encode(t); err != nil {
			return fmt.Errorf("traj: encoding trajectory %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// decoder reads JSONL trajectories line by line, tracking the 1-based
// line number and record (non-blank line) count so errors pinpoint the
// offending input: "traj: data.jsonl:7: record 5: ...". path is empty
// for in-memory readers, which report the line number alone.
type decoder struct {
	br   *bufio.Reader
	path string
	line int // 1-based line of the record being decoded
	rec  int // 1-based count of non-blank records seen
}

// errf prefixes an error with the decoder's position.
func (d *decoder) errf(format string, args ...any) error {
	pos := fmt.Sprintf("line %d", d.line)
	if d.path != "" {
		pos = fmt.Sprintf("%s:%d", d.path, d.line)
	}
	return fmt.Errorf("traj: %s: record %d: %w", pos, d.rec, fmt.Errorf(format, args...))
}

// next decodes the next trajectory, skipping blank lines, and returns
// io.EOF at end of input. Each trajectory is validated structurally
// (finite coordinates, non-negative sigmas); a null record is an error,
// so it cannot pass for the end of input.
func (d *decoder) next() (Trajectory, error) {
	for {
		raw, rerr := d.br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			d.line++
			d.rec++
			return nil, d.errf("read: %v", rerr)
		}
		if len(bytes.TrimSpace(raw)) == 0 {
			if rerr == io.EOF {
				return nil, io.EOF
			}
			d.line++
			continue // blank line
		}
		d.line++
		d.rec++
		var t Trajectory
		if err := json.Unmarshal(raw, &t); err != nil {
			return nil, d.errf("decoding trajectory: %v", err)
		}
		if t == nil {
			return nil, d.errf("null trajectory (write an empty one as [])")
		}
		if err := t.Validate(); err != nil {
			return nil, d.errf("invalid trajectory: %v", err)
		}
		return t, nil
	}
}

// Read decodes a dataset from r. Blank lines are skipped. Errors carry
// the 1-based line and record number of the offending input.
func Read(r io.Reader) (Dataset, error) {
	return readAll(&decoder{br: bufio.NewReader(r)})
}

// readAll decodes every remaining trajectory of d.
func readAll(d *decoder) (Dataset, error) {
	var out Dataset
	for {
		t, err := d.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

// WriteFile writes the dataset to the named file atomically (temp file +
// fsync + rename): path always holds either its previous contents or the
// complete dataset, never a torn file.
func WriteFile(path string, d Dataset) error {
	return faultio.WriteFileAtomic(nil, path, func(w io.Writer) error {
		return Write(w, d)
	})
}

// ReadFile reads a dataset from the named file. Errors carry the file
// path and the 1-based line and record number of the offending input.
func ReadFile(path string) (Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("traj: %w", err)
	}
	defer f.Close()
	return readAll(&decoder{br: bufio.NewReader(f), path: path})
}
