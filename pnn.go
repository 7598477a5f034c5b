package pnn

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"pnn/internal/core"
	"pnn/internal/dist"
	"pnn/internal/geom"
)

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Disk is a closed disk.
type Disk struct {
	Center Point
	R      float64
}

// Density selects the pdf of a continuous uncertain point within its
// support disk.
type Density int

// Supported densities.
const (
	// Uniform is the uniform distribution on the support disk.
	Uniform Density = iota
	// TruncatedGaussian is an isotropic Gaussian centered at the disk
	// center, truncated to the disk and renormalized.
	TruncatedGaussian
)

// DiskPoint is a continuous uncertain point: a density supported on a
// disk. Sigma is used only by TruncatedGaussian.
type DiskPoint struct {
	Support Disk
	Density Density
	Sigma   float64
}

// DiscretePoint is an uncertain point with k possible locations;
// Weights[i] is the probability of Locations[i] and the weights sum to 1.
type DiscretePoint struct {
	Locations []Point
	Weights   []float64
}

// IndexProb pairs an uncertain-point index with a probability.
type IndexProb struct {
	Index int
	Prob  float64
}

// internal conversions

func toGeom(p Point) geom.Point { return geom.Point{X: p.X, Y: p.Y} }

func toDisk(d Disk) geom.Disk { return geom.Disk{C: toGeom(d.Center), R: d.R} }

func (p DiskPoint) continuous() dist.Continuous {
	switch p.Density {
	case TruncatedGaussian:
		sigma := p.Sigma
		if sigma <= 0 {
			sigma = p.Support.R / 2
		}
		return dist.TruncatedGaussian{D: toDisk(p.Support), Sigma: sigma}
	default:
		return dist.UniformDisk{D: toDisk(p.Support)}
	}
}

// finite reports whether every value is neither NaN nor ±Inf.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// validate rejects a disk point no structure can answer for: a
// non-finite center, radius or σ, or a negative radius.
func (p DiskPoint) validate() error {
	c := p.Support.Center
	if !finite(c.X, c.Y, p.Support.R, p.Sigma) {
		return fmt.Errorf("non-finite disk point (center %v, radius %g, sigma %g)", c, p.Support.R, p.Sigma)
	}
	if p.Support.R < 0 {
		return fmt.Errorf("negative disk radius %g", p.Support.R)
	}
	return nil
}

// discrete validates p — at least one location, every coordinate
// finite, weights (when given) a finite distribution — and returns its
// distribution.
func (p DiscretePoint) discrete() (*dist.Discrete, error) {
	if len(p.Locations) == 0 {
		return nil, errors.New("discrete point with no locations")
	}
	locs := make([]geom.Point, len(p.Locations))
	for i, l := range p.Locations {
		if !finite(l.X, l.Y) {
			return nil, fmt.Errorf("non-finite location %d %v", i, l)
		}
		locs[i] = toGeom(l)
	}
	if p.Weights == nil {
		return dist.UniformDiscrete(locs), nil
	}
	return dist.NewDiscrete(locs, p.Weights)
}

// ContinuousSet is a collection of continuous uncertain points.
type ContinuousSet struct {
	points []DiskPoint
	disks  []geom.Disk
	conts  []dist.Continuous
}

// NewContinuousSet validates and wraps disk-supported uncertain points.
func NewContinuousSet(points []DiskPoint) (*ContinuousSet, error) {
	if len(points) == 0 {
		return nil, errors.New("pnn: empty point set")
	}
	s := &ContinuousSet{points: points}
	for i, p := range points {
		if err := p.validate(); err != nil {
			return nil, fmt.Errorf("pnn: point %d: %w", i, err)
		}
		s.disks = append(s.disks, toDisk(p.Support))
		s.conts = append(s.conts, p.continuous())
	}
	return s, nil
}

// Len returns the number of uncertain points.
func (s *ContinuousSet) Len() int { return len(s.points) }

// DiscreteSet is a collection of discrete uncertain points.
type DiscreteSet struct {
	dists []*dist.Discrete

	// sups (the location supports the NN≠0 structures take) and maxK are
	// derived from dists on first use, so a set that only answers
	// quantification, like a DynamicIndex view, never builds them.
	derive sync.Once
	sups   []core.DiscretePoint
	maxK   int
}

// NewDiscreteSet validates and wraps discrete uncertain points. A nil
// Weights slice means uniform weights.
func NewDiscreteSet(points []DiscretePoint) (*DiscreteSet, error) {
	if len(points) == 0 {
		return nil, errors.New("pnn: empty point set")
	}
	s := &DiscreteSet{dists: make([]*dist.Discrete, len(points))}
	for i, p := range points {
		d, err := p.discrete()
		if err != nil {
			return nil, fmt.Errorf("pnn: point %d: %w", i, err)
		}
		s.dists[i] = d
	}
	return s, nil
}

// derived fills sups and maxK once and returns s.
func (s *DiscreteSet) derived() *DiscreteSet {
	s.derive.Do(func() {
		s.sups = make([]core.DiscretePoint, len(s.dists))
		for i, d := range s.dists {
			s.sups[i] = core.DiscretePoint{Locs: d.Locs}
			s.maxK = max(s.maxK, d.K())
		}
	})
	return s
}

// Len returns the number of uncertain points.
func (s *DiscreteSet) Len() int { return len(s.dists) }

// K returns the maximum description complexity over the points.
func (s *DiscreteSet) K() int { return s.derived().maxK }

// Spread returns ρ, the ratio of largest to smallest location probability
// over all points (Section 4.3).
func (s *DiscreteSet) Spread() float64 {
	lo, hi := 0.0, 0.0
	for _, d := range s.dists {
		for _, w := range d.W {
			if lo == 0 || w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
		}
	}
	if lo == 0 {
		return 1
	}
	return hi / lo
}
