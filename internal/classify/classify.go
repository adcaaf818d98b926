// Package classify builds trajectory classifiers from mined patterns —
// the application the paper's introduction promises ("constructing a
// classifier based on the discovered patterns"). Training mines a top-k
// pattern set per class with the TrajPattern algorithm; classification
// scores a trajectory against every class's pattern set with the NM
// measure and picks the best-supported class.
package classify

import (
	"context"
	"fmt"
	"sort"

	"trajpattern/internal/core"
	"trajpattern/internal/traj"
)

// Config parameterizes training.
type Config struct {
	// Scorer is the scoring configuration (grid, δ, probability mode)
	// shared by all classes. Required fields as in core.NewScorer.
	Scorer core.Config
	// K is the number of patterns mined per class. Default 20.
	K int
	// MinLen/MaxLen bound mined pattern lengths. Defaults 2 and 6:
	// singular patterns say little about motion, so classification skips
	// them by default.
	MinLen, MaxLen int
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 20
	}
	if c.MinLen == 0 {
		c.MinLen = 2
	}
	if c.MaxLen == 0 {
		c.MaxLen = 6
	}
	return c
}

// Classifier holds per-class pattern sets.
type Classifier struct {
	cfg     Config
	classes []string
	model   map[string][]core.ScoredPattern
}

// Train mines a pattern set for every class dataset. Class names are
// sorted so results are deterministic. Every class needs a non-empty
// dataset.
func Train(ctx context.Context, classes map[string]traj.Dataset, cfg Config) (*Classifier, error) {
	if len(classes) < 2 {
		return nil, fmt.Errorf("classify: need at least two classes, got %d", len(classes))
	}
	cfg = cfg.withDefaults()
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)

	model := make(map[string][]core.ScoredPattern, len(classes))
	for _, name := range names {
		ds := classes[name]
		if len(ds) == 0 {
			return nil, fmt.Errorf("classify: class %q has no trajectories", name)
		}
		s, err := core.NewScorer(ds, cfg.Scorer)
		if err != nil {
			return nil, fmt.Errorf("classify: class %q: %w", name, err)
		}
		res, err := core.Mine(ctx, s, core.MinerConfig{
			K:      cfg.K,
			MinLen: cfg.MinLen,
			MaxLen: cfg.MaxLen,
		})
		if err != nil {
			return nil, fmt.Errorf("classify: class %q: %w", name, err)
		}
		if len(res.Patterns) == 0 {
			return nil, fmt.Errorf("classify: class %q yielded no patterns", name)
		}
		model[name] = res.Patterns
	}
	return &Classifier{cfg: cfg, classes: names, model: model}, nil
}

// Score computes the per-class support of one trajectory: the mean NM of
// the class's patterns against the trajectory (closer to zero = better
// match). It returns the scores keyed by class.
func (c *Classifier) Score(tr traj.Trajectory) (map[string]float64, error) {
	if len(tr) == 0 {
		return nil, fmt.Errorf("classify: empty trajectory")
	}
	s, err := core.NewScorer(traj.Dataset{tr}, c.cfg.Scorer)
	if err != nil {
		return nil, err
	}
	scores := make(map[string]float64, len(c.classes))
	for _, name := range c.classes {
		// The scorer holds one trajectory, so its NM of P is NM(P, T).
		var sum float64
		for _, sp := range c.model[name] {
			sum += s.NM(sp.Pattern)
		}
		scores[name] = sum / float64(len(c.model[name]))
	}
	return scores, nil
}

// Classify returns the class whose pattern set best matches the
// trajectory, along with the per-class scores. Ties break toward the
// lexicographically first class.
func (c *Classifier) Classify(tr traj.Trajectory) (string, map[string]float64, error) {
	scores, err := c.Score(tr)
	if err != nil {
		return "", nil, err
	}
	best := c.classes[0]
	for _, name := range c.classes[1:] {
		if scores[name] > scores[best] {
			best = name
		}
	}
	return best, scores, nil
}

// Evaluate classifies every trajectory of every labeled test dataset and
// returns the overall accuracy plus the per-class confusion counts
// (confusion[truth][predicted]).
func (c *Classifier) Evaluate(test map[string]traj.Dataset) (float64, map[string]map[string]int, error) {
	confusion := make(map[string]map[string]int)
	total, correct := 0, 0
	names := make([]string, 0, len(test))
	for name := range test {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, truth := range names {
		confusion[truth] = make(map[string]int)
		for _, tr := range test[truth] {
			pred, _, err := c.Classify(tr)
			if err != nil {
				return 0, nil, fmt.Errorf("classify: class %q: %w", truth, err)
			}
			confusion[truth][pred]++
			total++
			if pred == truth {
				correct++
			}
		}
	}
	if total == 0 {
		return 0, nil, fmt.Errorf("classify: empty test set")
	}
	return float64(correct) / float64(total), confusion, nil
}
