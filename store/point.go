package store

import (
	"errors"
	"fmt"

	"pnn"
	"pnn/internal/datafile"
)

// Dataset kinds. They mirror datafile's kinds: a stored dataset is the
// mutable counterpart of a pnngen file.
const (
	KindDisks    = string(datafile.KindDisks)
	KindDiscrete = string(datafile.KindDiscrete)
)

// Point is one stored uncertain point: exactly one of Disk and
// Discrete is set, matching the dataset's kind. The shapes are the
// datafile JSON shapes, so stored points, pnngen files, and the HTTP
// mutation API all agree on what a point looks like.
type Point struct {
	Disk     *datafile.DiskJSON     `json:"disk,omitempty"`
	Discrete *datafile.DiscreteJSON `json:"discrete,omitempty"`
}

// kind returns the dataset kind the point belongs to, validating shape.
func (p Point) kind() (string, error) {
	switch {
	case p.Disk != nil && p.Discrete == nil:
		return KindDisks, nil
	case p.Discrete != nil && p.Disk == nil:
		return KindDiscrete, nil
	default:
		return "", errors.New("store: point must set exactly one of disk and discrete")
	}
}

// validate checks the point against its dataset kind, by building the
// pnn value it will become — the same validation a query engine would
// apply, paid once at the write path's door so the log never holds an
// unloadable point.
func (p Point) validate(kind string) error {
	k, err := p.kind()
	if err != nil {
		return err
	}
	if k != kind {
		return fmt.Errorf("store: %s point in a %s dataset: %w", k, kind, ErrKindMismatch)
	}
	switch k {
	case KindDisks:
		if p.Disk.R < 0 {
			return fmt.Errorf("store: negative disk radius %g", p.Disk.R)
		}
		if _, err := p.Disk.Point(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	case KindDiscrete:
		pt, err := p.Discrete.Point()
		if err != nil {
			return fmt.Errorf("store: discrete point: %w", err)
		}
		if _, err := pnn.NewDiscreteSet([]pnn.DiscretePoint{pt}); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// buildSet assembles the pnn set of a dataset's live points in id
// order; nil (with nil error) when there are no points.
func buildSet(kind string, pts []storedPoint) (pnn.UncertainSet, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	switch kind {
	case KindDisks:
		out := make([]pnn.DiskPoint, len(pts))
		for i, sp := range pts {
			var err error
			if out[i], err = sp.P.Disk.Point(); err != nil {
				return nil, fmt.Errorf("store: point %d: %w", sp.ID, err)
			}
		}
		return pnn.NewContinuousSet(out)
	case KindDiscrete:
		out := make([]pnn.DiscretePoint, len(pts))
		for i, sp := range pts {
			var err error
			if out[i], err = sp.P.Discrete.Point(); err != nil {
				return nil, fmt.Errorf("store: point %d: %w", sp.ID, err)
			}
		}
		return pnn.NewDiscreteSet(out)
	}
	return nil, fmt.Errorf("store: unknown kind %q", kind)
}
