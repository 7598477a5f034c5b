package quantify

import (
	"pnn/internal/dist"
	"pnn/internal/geom"
	"pnn/internal/linearr"
)

// VPr is the probabilistic Voronoi diagram of Section 4.1 (Theorem 4.2):
// the arrangement of the O(N²) perpendicular bisectors of all pairs of
// possible locations refines the plane into cells on which every π_i is
// constant. One probability vector is stored per face; queries are point
// location plus a vector lookup, O(log N + t).
//
// The structure is Θ(N⁴) in the worst case (Lemma 4.1) and is therefore
// only viable for small N — exactly the trade the paper makes before
// developing the approximations of Sections 4.2–4.3.
type VPr struct {
	pts  []*dist.Discrete
	arr  *linearr.Arrangement
	prob map[int][]float64 // face id → probability vector
}

// NewVPr builds the diagram within the given bounding box (queries outside
// fall back to the exact sweep).
func NewVPr(pts []*dist.Discrete, box geom.BBox) *VPr {
	var lines []linearr.Line
	var all []geom.Point
	for _, p := range pts {
		all = append(all, p.Locs...)
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[i] == all[j] {
				continue
			}
			lines = append(lines, linearr.Bisector(all[i], all[j]))
		}
	}
	v := &VPr{pts: pts, arr: linearr.Build(lines, box)}
	reps := v.arr.FaceRepresentatives()
	v.prob = make(map[int][]float64, len(reps))
	for id, rep := range reps {
		v.prob[id] = ExactAll(pts, rep)
	}
	return v
}

// Faces returns the number of cells of the diagram within the box — the
// complexity quantity of Lemma 4.1.
func (v *VPr) Faces() int { return v.arr.Faces() }

// Vertices returns the number of bisector crossings within the box.
func (v *VPr) Vertices() int { return v.arr.VertexCount() }

// Query returns the probability vector at q: a stored-vector lookup for
// in-box queries, the exact sweep otherwise.
func (v *VPr) Query(q geom.Point) []float64 {
	if id, ok := v.arr.Locate(q); ok {
		if pv, ok := v.prob[id]; ok {
			return pv
		}
	}
	return ExactAll(v.pts, q)
}
