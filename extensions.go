package pnn

import (
	"errors"
	"fmt"

	"pnn/internal/geom"
	"pnn/internal/linf"
	"pnn/internal/quantify"
)

// This file covers the paper's explicitly-signposted extensions; Index
// answers all of them:
//
//   - expected-distance nearest neighbors (the [AESZ12] definition
//     contrasted in §1.2);
//   - probability-threshold queries (the [DYM+05] variant, §1.2 and the
//     conclusions);
//   - spiral search over continuous distributions (open problem (iii));
//   - the L∞ metric with square uncertainty regions (§3, Remark (ii)).

// ExpectedDistance returns E[d(q, P_i)].
func (s *DiscreteSet) ExpectedDistance(q Point, i int) float64 {
	return quantify.ExpectedDistanceDiscrete(s.dists[i], toGeom(q))
}

// ThresholdResult classifies points against a probability threshold τ.
type ThresholdResult struct {
	// Certain have π̂_i ≥ τ and hence certainly π_i ≥ τ.
	Certain []int
	// Possible have π̂_i < τ ≤ π̂_i + ε: undecidable at this ε. Re-query
	// with a smaller ε, or evaluate exactly for just these indices.
	Possible []int
}

// SquarePoint is an uncertain point whose region is the L∞ ball (square)
// of radius R about Center, queried under the Chebyshev metric
// (§3, Remark (ii)).
type SquarePoint struct {
	Center Point
	R      float64
}

// validate rejects a square no structure can answer for: a non-finite
// center or radius, or a negative radius.
func (p SquarePoint) validate() error {
	if !finite(p.Center.X, p.Center.Y, p.R) {
		return fmt.Errorf("non-finite square (center %v, radius %g)", p.Center, p.R)
	}
	if p.R < 0 {
		return fmt.Errorf("negative square radius %g", p.R)
	}
	return nil
}

// SquareSet is a collection of square uncertain points under L∞.
type SquareSet struct {
	squares []linf.Square
}

// NewSquareSet validates and wraps L∞ uncertain points.
func NewSquareSet(points []SquarePoint) (*SquareSet, error) {
	if len(points) == 0 {
		return nil, errors.New("pnn: empty point set")
	}
	s := &SquareSet{squares: make([]linf.Square, len(points))}
	for i, p := range points {
		if err := p.validate(); err != nil {
			return nil, fmt.Errorf("pnn: point %d: %w", i, err)
		}
		s.squares[i] = linf.Square{C: geom.Point{X: p.Center.X, Y: p.Center.Y}, R: p.R}
	}
	return s, nil
}

// Len returns the number of points.
func (s *SquareSet) Len() int { return len(s.squares) }
