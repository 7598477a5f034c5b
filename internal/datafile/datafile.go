// Package datafile defines the JSON dataset format shared by cmd/pnngen
// and cmd/pnnquery, and its conversions to the public API types. A dataset
// holds either continuous (disk) or discrete uncertain points.
package datafile

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pnn"
)

// Kind discriminates dataset contents.
type Kind string

// Dataset kinds.
const (
	KindDisks    Kind = "disks"
	KindDiscrete Kind = "discrete"
)

// DiskJSON is one continuous uncertain point.
type DiskJSON struct {
	X, Y, R float64
	// Density is "uniform" (default) or "gaussian"; Point rejects any
	// other value.
	Density string  `json:",omitempty"`
	Sigma   float64 `json:",omitempty"`
}

// Point converts the disk to the pnn value a query engine consumes. An
// unknown Density is an error, never served as uniform.
func (d DiskJSON) Point() (pnn.DiskPoint, error) {
	p := pnn.DiskPoint{Support: pnn.Disk{Center: pnn.Pt(d.X, d.Y), R: d.R}}
	switch d.Density {
	case "", "uniform":
	case "gaussian":
		p.Density = pnn.TruncatedGaussian
		p.Sigma = d.Sigma
	default:
		return pnn.DiskPoint{}, fmt.Errorf("unknown density %q (want uniform or gaussian)", d.Density)
	}
	return p, nil
}

// DiscreteJSON is one discrete uncertain point.
type DiscreteJSON struct {
	X, Y []float64
	// W are the location probabilities; empty means uniform.
	W []float64 `json:",omitempty"`
}

// Point converts the discrete point to the pnn value a query engine
// consumes; X and Y must be non-empty and of equal length.
func (d DiscreteJSON) Point() (pnn.DiscretePoint, error) {
	if len(d.X) != len(d.Y) || len(d.X) == 0 {
		return pnn.DiscretePoint{}, errors.New("x and y must be non-empty and of equal length")
	}
	p := pnn.DiscretePoint{Weights: d.W}
	for t := range d.X {
		p.Locations = append(p.Locations, pnn.Pt(d.X[t], d.Y[t]))
	}
	return p, nil
}

// File is the top-level dataset document.
type File struct {
	Kind     Kind           `json:"kind"`
	Disks    []DiskJSON     `json:"disks,omitempty"`
	Discrete []DiscreteJSON `json:"discrete,omitempty"`
}

// Write encodes the dataset.
func Write(w io.Writer, f *File) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Read decodes and validates a dataset.
func Read(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("datafile: %w", err)
	}
	switch f.Kind {
	case KindDisks:
		if len(f.Disks) == 0 {
			return nil, errors.New("datafile: kind disks with no disks")
		}
	case KindDiscrete:
		if len(f.Discrete) == 0 {
			return nil, errors.New("datafile: kind discrete with no points")
		}
	default:
		return nil, fmt.Errorf("datafile: unknown kind %q", f.Kind)
	}
	return &f, nil
}

// Set converts any dataset to the uncertain-set kind it holds, ready
// for pnn.New.
func (f *File) Set() (pnn.UncertainSet, error) {
	switch f.Kind {
	case KindDisks:
		return f.ContinuousSet()
	case KindDiscrete:
		return f.DiscreteSet()
	default:
		return nil, fmt.Errorf("datafile: unknown kind %q", f.Kind)
	}
}

// ContinuousSet converts a disks dataset to the public API.
func (f *File) ContinuousSet() (*pnn.ContinuousSet, error) {
	if f.Kind != KindDisks {
		return nil, fmt.Errorf("datafile: dataset kind is %q, not disks", f.Kind)
	}
	pts := make([]pnn.DiskPoint, len(f.Disks))
	for i, d := range f.Disks {
		var err error
		if pts[i], err = d.Point(); err != nil {
			return nil, fmt.Errorf("datafile: point %d: %w", i, err)
		}
	}
	return pnn.NewContinuousSet(pts)
}

// DiscreteSet converts a discrete dataset to the public API.
func (f *File) DiscreteSet() (*pnn.DiscreteSet, error) {
	if f.Kind != KindDiscrete {
		return nil, fmt.Errorf("datafile: dataset kind is %q, not discrete", f.Kind)
	}
	pts := make([]pnn.DiscretePoint, len(f.Discrete))
	for i, d := range f.Discrete {
		var err error
		if pts[i], err = d.Point(); err != nil {
			return nil, fmt.Errorf("datafile: point %d: %w", i, err)
		}
	}
	return pnn.NewDiscreteSet(pts)
}
