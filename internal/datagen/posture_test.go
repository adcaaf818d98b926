package datagen

import (
	"testing"

	"trajpattern/internal/geom"
)

func TestPosturesShape(t *testing.T) {
	paths, err := Postures(PostureConfig{NumSubjects: 10, Length: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 10 {
		t.Fatalf("subjects = %d", len(paths))
	}
	for _, p := range paths {
		if len(p) != 50 {
			t.Fatalf("length = %d", len(p))
		}
		for _, pt := range p {
			if !geom.UnitSquare().Contains(pt) {
				t.Fatalf("posture outside unit square: %v", pt)
			}
		}
	}
}

func TestPosturesCyclicStructure(t *testing.T) {
	// With no switching and no noise, each subject's path is exactly
	// periodic with the cycle length.
	cfg := PostureConfig{
		NumSubjects: 3, Length: 40, Activities: 2, CycleLen: 5,
		SwitchProb: 1e-12, SensorNoise: 1e-12, Seed: 2,
	}
	paths, err := Postures(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s, p := range paths {
		for i := 0; i+5 < len(p); i++ {
			if p[i].Dist(p[i+5]) > 1e-6 {
				t.Fatalf("subject %d not periodic at %d: %v", s, i, p[i].Dist(p[i+5]))
			}
		}
	}
}

func TestPosturesSharedVocabulary(t *testing.T) {
	// Two subjects performing the same single activity visit the same
	// loop positions (possibly phase-shifted).
	cfg := PostureConfig{
		NumSubjects: 2, Length: 30, Activities: 1, CycleLen: 4,
		SwitchProb: 1e-12, SensorNoise: 1e-12, Seed: 3,
	}
	paths, err := Postures(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every position of subject 1 appears (within epsilon) in subject 0's
	// path.
	for _, q := range paths[1][:4] {
		found := false
		for _, p := range paths[0][:8] {
			if p.Dist(q) < 1e-6 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("position %v not shared across subjects", q)
		}
	}
}

func TestPostureValidation(t *testing.T) {
	bad := []PostureConfig{
		{NumSubjects: 1, Length: 1},
		{SwitchProb: 2},
		{SensorNoise: -1},
	}
	for i, cfg := range bad {
		if _, err := Postures(cfg); err == nil {
			t.Errorf("bad posture config %d accepted", i)
		}
	}
	if _, err := PostureDataset(PostureConfig{}, 0, 1); err == nil {
		t.Error("u=0 accepted")
	}
}

func TestPostureDataset(t *testing.T) {
	ds, err := PostureDataset(PostureConfig{NumSubjects: 5, Length: 20, Seed: 4}, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 5 || len(ds[0]) != 20 {
		t.Fatalf("dataset shape %d × %d", len(ds), len(ds[0]))
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range ds {
		for _, p := range tr {
			if p.Sigma != 0.01 {
				t.Fatalf("sigma = %v", p.Sigma)
			}
		}
	}
}

func TestPostureDeterminism(t *testing.T) {
	cfg := PostureConfig{NumSubjects: 3, Length: 15, Seed: 5}
	a, err := Postures(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Postures(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("posture generation not deterministic")
			}
		}
	}
}
