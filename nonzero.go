package pnn

import (
	"pnn/internal/core"
	"pnn/internal/geom"
	"pnn/internal/nnq"
)

// Diagram is the nonzero Voronoi diagram V≠0(P) (Section 2 of the paper):
// the subdivision of the plane into maximal regions with constant NN≠0
// set, preprocessed for point-location queries (Theorem 2.11).
type Diagram struct {
	cont *core.Diagram
	disc *core.DiscreteDiagram
}

// DiagramStats summarizes the combinatorial complexity of a diagram — the
// quantities Theorems 2.5–2.14 bound.
type DiagramStats struct {
	// Vertices is the number of arrangement vertices of A(Γ).
	Vertices int
	// Breakpoints of the curves γ_i (vertices on edges of the weighted
	// Voronoi diagram M).
	Breakpoints int
	// Crossings between pairs of curves γ_i, γ_j.
	Crossings int
	// Faces stored in the point-location subdivision (0 when the diagram
	// was built in complexity-counting mode).
	Faces int
}

// DiagramOption configures diagram construction.
type DiagramOption func(*diagramConfig)

type diagramConfig struct {
	skipSubdivision bool
}

// ComplexityOnly skips the point-location subdivision: the diagram then
// only reports its combinatorial complexity, and Query falls back to the
// direct O(n) evaluation. Used by the Θ(n³) experiments where only vertex
// counts matter.
func ComplexityOnly() DiagramOption {
	return func(c *diagramConfig) { c.skipSubdivision = true }
}

// BuildDiagram constructs V≠0 for continuous uncertain points
// (Theorem 2.5: O(n³) complexity, built in O(n² log n + μ)).
//
// Deprecated: query through the Index facade: New(set, WithNonzeroBackend(BackendDiagram)).
func (s *ContinuousSet) BuildDiagram(opts ...DiagramOption) *Diagram {
	var cfg diagramConfig
	for _, o := range opts {
		o(&cfg)
	}
	d := core.BuildDiagram(s.disks, core.DiagramOptions{SkipSubdivision: cfg.skipSubdivision})
	return &Diagram{cont: d}
}

// BuildDiagram constructs V≠0 for discrete uncertain points
// (Theorem 2.14: O(kn³) complexity).
//
// Deprecated: query through the Index facade: New(set, WithNonzeroBackend(BackendDiagram)).
func (s *DiscreteSet) BuildDiagram(opts ...DiagramOption) *Diagram {
	var cfg diagramConfig
	for _, o := range opts {
		o(&cfg)
	}
	d := core.BuildDiscreteDiagram(s.derived().sups, core.DiscreteDiagramOptions{SkipSubdivision: cfg.skipSubdivision})
	return &Diagram{disc: d}
}

// Stats returns the diagram's combinatorial complexity.
func (d *Diagram) Stats() DiagramStats {
	var st DiagramStats
	switch {
	case d.cont != nil:
		st.Vertices = d.cont.VertexCount()
		st.Breakpoints = d.cont.BreakpointCount()
		st.Crossings = d.cont.CrossingCount()
		if d.cont.Sub != nil {
			st.Faces = d.cont.Sub.Faces()
		}
	case d.disc != nil:
		st.Vertices = d.disc.VertexCount()
		for _, v := range d.disc.Vertices {
			if v.Kind == core.Breakpoint {
				st.Breakpoints++
			} else {
				st.Crossings++
			}
		}
		if d.disc.Sub != nil {
			st.Faces = d.disc.Sub.Faces()
		}
	}
	return st
}

// Query returns NN≠0(q) via point location in O(log μ + t)
// (Theorem 2.11).
func (d *Diagram) Query(q Point) []int {
	gq := geom.Point{X: q.X, Y: q.Y}
	if d.cont != nil {
		return d.cont.Query(gq)
	}
	return d.disc.Query(gq)
}

// queryInto is Query appending into dst (reused from its start).
func (d *Diagram) queryInto(q Point, dst []int) []int {
	gq := geom.Point{X: q.X, Y: q.Y}
	if d.cont != nil {
		return d.cont.QueryInto(gq, dst)
	}
	return d.disc.QueryInto(gq, dst)
}

// NonzeroIndex is the near-linear-size NN≠0 query structure of Section 3
// (Theorem 3.1 for continuous inputs, Theorem 3.2 for discrete ones),
// which avoids the cubic diagram entirely.
type NonzeroIndex struct {
	cont *nnq.ContinuousIndex
	disc *nnq.DiscreteIndex
}

// NewNonzeroIndex builds the two-stage structure in O(n log n).
//
// Deprecated: query through the Index facade: New(set) uses this structure by default.
func (s *ContinuousSet) NewNonzeroIndex() *NonzeroIndex {
	return &NonzeroIndex{cont: nnq.NewContinuous(s.disks)}
}

// NewNonzeroIndex builds the structure in O(N log N), N = Σ k_i.
//
// Deprecated: query through the Index facade: New(set) uses this structure by default.
func (s *DiscreteSet) NewNonzeroIndex() *NonzeroIndex {
	return &NonzeroIndex{disc: nnq.NewDiscrete(s.derived().sups)}
}

// Query returns NN≠0(q) in increasing index order.
func (ix *NonzeroIndex) Query(q Point) []int {
	gq := geom.Point{X: q.X, Y: q.Y}
	if ix.cont != nil {
		return ix.cont.Query(gq)
	}
	return ix.disc.Query(gq)
}

// queryInto is Query appending into dst (reused from its start).
func (ix *NonzeroIndex) queryInto(q Point, dst []int) []int {
	gq := geom.Point{X: q.X, Y: q.Y}
	if ix.cont != nil {
		return ix.cont.QueryInto(gq, dst)
	}
	return ix.disc.QueryInto(gq, dst)
}
