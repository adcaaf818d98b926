package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"trajpattern/internal/grid"
	"trajpattern/internal/traj"
)

// asConfigError asserts err unwraps to a *ConfigError naming the given
// struct and field.
func asConfigError(t *testing.T, err error, strct, field string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want ConfigError for %s.%s, got nil", strct, field)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ConfigError for %s.%s, got %T: %v", strct, field, err, err)
	}
	if ce.Struct != strct || ce.Field != field {
		t.Fatalf("ConfigError names %s.%s, want %s.%s", ce.Struct, ce.Field, strct, field)
	}
	if !strings.Contains(ce.Error(), strct) || !strings.Contains(ce.Error(), field) {
		t.Fatalf("Error() %q does not name %s.%s", ce.Error(), strct, field)
	}
}

func TestScorerConfigValidation(t *testing.T) {
	ds := traj.Dataset{{traj.P(0.5, 0.5, 0.1)}}
	g := grid.NewSquare(4)
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"nil grid", Config{Delta: 0.1}, "Grid"},
		{"zero-value grid", Config{Grid: &grid.Grid{}, Delta: 0.1}, "Grid"},
		{"zero delta", Config{Grid: g}, "Delta"},
		{"negative delta", Config{Grid: g, Delta: -1}, "Delta"},
		{"NaN delta", Config{Grid: g, Delta: math.NaN()}, "Delta"},
		{"Inf delta", Config{Grid: g, Delta: math.Inf(1)}, "Delta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewScorer(ds, tc.cfg)
			asConfigError(t, err, "ScorerConfig", tc.field)
		})
	}
	if _, err := NewScorer(ds, Config{Grid: g, Delta: 0.1}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestMinerConfigTypedErrors(t *testing.T) {
	ds := traj.Dataset{{traj.P(0.5, 0.5, 0.1), traj.P(0.6, 0.6, 0.1)}}
	g := grid.NewSquare(4)
	s, err := NewScorer(ds, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		cfg   MinerConfig
		field string
	}{
		{"zero k", MinerConfig{}, "K"},
		{"negative k", MinerConfig{K: -3}, "K"},
		{"negative minlen", MinerConfig{K: 1, MinLen: -2}, "MinLen"},
		{"negative maxlen", MinerConfig{K: 1, MaxLen: -1}, "MaxLen"},
		{"negative maxiters", MinerConfig{K: 1, MaxIters: -1}, "MaxIters"},
		{"minlen over maxlen", MinerConfig{K: 1, MinLen: 9, MaxLen: 4}, "MinLen"},
		{"minlen over default maxlen", MinerConfig{K: 1, MinLen: DefaultMaxLen + 1}, "MinLen"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Mine(context.Background(), s, tc.cfg)
			asConfigError(t, err, "MinerConfig", tc.field)
		})
	}
}

func TestGroupsGammaValidation(t *testing.T) {
	g := grid.NewSquare(4)
	pats := []Pattern{{0, 1}}
	if _, err := DiscoverGroups(pats, g, math.NaN(), nil); err == nil {
		t.Fatal("NaN gamma accepted")
	} else {
		asConfigError(t, err, "Groups", "Gamma")
	}
	if _, err := DiscoverGroups(pats, g, -0.5, nil); err == nil {
		t.Fatal("negative gamma accepted")
	}
	if _, err := DiscoverGroups(pats, g, 0.5, nil); err != nil {
		t.Fatalf("valid gamma rejected: %v", err)
	}
}
