package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"

	"trajpattern/internal/faultio"
)

// Provenance identifies the build and host that produced a metrics
// snapshot or benchmark result, so baselines compared across machines and
// PRs are attributable: a counter drift flagged by the bench gate reads
// differently when the two runs came from different commits, Go versions
// or GOMAXPROCS settings.
type Provenance struct {
	// GitCommit is the VCS revision the binary was built from (empty when
	// the build had no VCS stamping, e.g. `go test` binaries).
	GitCommit string `json:"git_commit,omitempty"`
	// GitDirty reports uncommitted changes at build time.
	GitDirty   bool   `json:"git_dirty,omitempty"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// CollectProvenance captures the current build and host identity.
func CollectProvenance() Provenance {
	p := Provenance{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitCommit = s.Value
			case "vcs.modified":
				p.GitDirty = s.Value == "true"
			}
		}
	}
	return p
}

// Report is the stamped JSON form of a snapshot: the metrics plus the
// provenance of the run that produced them. The commands emit this shape
// (-metricsout, trajserve's /metrics?format=json).
type Report struct {
	Provenance Provenance `json:"provenance"`
	Metrics    Snapshot   `json:"metrics"`
}

// NewReport stamps a snapshot with the current build provenance.
func NewReport(s Snapshot) Report {
	return Report{Provenance: CollectProvenance(), Metrics: s}
}

// JSON returns the report serialized as indented JSON.
func (r Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// WriteFile writes the report as JSON to path, atomically (temp file +
// fsync + rename).
func (r Report) WriteFile(path string) error {
	data, err := r.JSON()
	if err != nil {
		return fmt.Errorf("obs: marshal metrics report: %w", err)
	}
	if err := faultio.WriteFileAtomic(nil, path, func(w io.Writer) error {
		_, werr := w.Write(append(data, '\n'))
		return werr
	}); err != nil {
		return fmt.Errorf("obs: write metrics report: %w", err)
	}
	return nil
}
