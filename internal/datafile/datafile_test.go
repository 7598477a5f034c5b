package datafile

import (
	"strings"
	"testing"

	"pnn"
)

func TestRoundTripDisks(t *testing.T) {
	f := &File{
		Kind: KindDisks,
		Disks: []DiskJSON{
			{X: 1, Y: 2, R: 3},
			{X: 4, Y: 5, R: 6, Density: "gaussian", Sigma: 1.5},
		},
	}
	var sb strings.Builder
	if err := Write(&sb, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindDisks || len(got.Disks) != 2 {
		t.Fatalf("roundtrip: %+v", got)
	}
	if got.Disks[1].Density != "gaussian" || got.Disks[1].Sigma != 1.5 {
		t.Fatalf("gaussian fields lost: %+v", got.Disks[1])
	}
	set, err := got.ContinuousSet()
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Fatal("set len")
	}
	if _, err := got.DiscreteSet(); err == nil {
		t.Fatal("wrong-kind conversion must error")
	}
}

func TestRoundTripDiscrete(t *testing.T) {
	f := &File{
		Kind: KindDiscrete,
		Discrete: []DiscreteJSON{
			{X: []float64{0, 1}, Y: []float64{0, 1}, W: []float64{0.3, 0.7}},
			{X: []float64{5}, Y: []float64{5}},
		},
	}
	var sb strings.Builder
	if err := Write(&sb, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	set, err := got.DiscreteSet()
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 || set.K() != 2 {
		t.Fatalf("set: len=%d k=%d", set.Len(), set.K())
	}
}

func TestReadValidation(t *testing.T) {
	cases := []string{
		`{"kind":"unknown"}`,
		`{"kind":"disks"}`,
		`{"kind":"discrete"}`,
		`not json`,
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("input %q should fail validation", c)
		}
	}
}

func TestMismatchedCoordinates(t *testing.T) {
	f := &File{
		Kind:     KindDiscrete,
		Discrete: []DiscreteJSON{{X: []float64{0, 1}, Y: []float64{0}}},
	}
	if _, err := f.DiscreteSet(); err == nil {
		t.Fatal("mismatched X/Y lengths must error")
	}
}

func TestUnknownDensity(t *testing.T) {
	f := &File{
		Kind: KindDisks,
		Disks: []DiskJSON{
			{X: 0, Y: 0, R: 1},
			{X: 1, Y: 1, R: 1, Density: "gausian", Sigma: 0.3},
		},
	}
	if _, err := f.Set(); err == nil || !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("unknown density: %v, want an error naming point 1", err)
	}
	for density, want := range map[string]pnn.Density{
		"":         pnn.Uniform,
		"uniform":  pnn.Uniform,
		"gaussian": pnn.TruncatedGaussian,
	} {
		p, err := DiskJSON{X: 1, Y: 1, R: 1, Density: density, Sigma: 0.3}.Point()
		if err != nil || p.Density != want {
			t.Fatalf("density %q: %+v, %v; want density %v", density, p, err, want)
		}
	}
}
