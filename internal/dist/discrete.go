package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pnn/internal/geom"
)

// weightSumTol is the tolerance for validating that weights sum to 1;
// it absorbs the rounding of caller-side normalization.
const weightSumTol = 1e-6

// Discrete is a discrete uncertain point: k candidate locations, where
// Locs[t] occurs with probability W[t] and the weights sum to 1.
type Discrete struct {
	Locs []geom.Point
	W    []float64

	cum []float64 // cumulative weights for O(log k) sampling
}

// NewDiscrete validates locations and weights and builds the sampling
// table. It rejects empty or mismatched inputs, negative weights, and
// weight vectors that do not sum to ~1.
func NewDiscrete(locs []geom.Point, w []float64) (*Discrete, error) {
	if len(locs) == 0 {
		return nil, errors.New("dist: discrete point has no locations")
	}
	if len(w) != len(locs) {
		return nil, fmt.Errorf("dist: %d locations but %d weights", len(locs), len(w))
	}
	sum := 0.0
	for t, wt := range w {
		if math.IsNaN(wt) || math.IsInf(wt, 0) {
			return nil, fmt.Errorf("dist: weight %d is not finite (%g)", t, wt)
		}
		if wt < 0 {
			return nil, fmt.Errorf("dist: weight %d is negative (%g)", t, wt)
		}
		sum += wt
	}
	if sum < 1-weightSumTol || sum > 1+weightSumTol {
		return nil, fmt.Errorf("dist: weights sum to %.9g, want 1", sum)
	}
	return newDiscreteUnchecked(locs, w), nil
}

// UniformDiscrete returns the discrete point with uniform weights 1/k.
func UniformDiscrete(locs []geom.Point) *Discrete {
	k := len(locs)
	w := make([]float64, k)
	for t := range w {
		w[t] = 1 / float64(k)
	}
	return newDiscreteUnchecked(locs, w)
}

func newDiscreteUnchecked(locs []geom.Point, w []float64) *Discrete {
	cum := make([]float64, len(w))
	acc := 0.0
	for t, wt := range w {
		acc += wt
		cum[t] = acc
	}
	return &Discrete{Locs: locs, W: w, cum: cum}
}

// K returns the description complexity: the number of locations.
func (d *Discrete) K() int { return len(d.Locs) }

// Spread returns ρ, the ratio of the largest to the smallest location
// probability (Section 4.3). It is +Inf when a weight is zero.
func (d *Discrete) Spread() float64 {
	wmin, wmax := math.Inf(1), 0.0
	for _, w := range d.W {
		wmin = math.Min(wmin, w)
		wmax = math.Max(wmax, w)
	}
	if wmin == 0 {
		return math.Inf(1)
	}
	return wmax / wmin
}

// Sample returns a location index drawn according to the weights. One
// call consumes exactly one value of the source, so derived streams stay
// deterministic.
func (d *Discrete) Sample(rng *rand.Rand) int {
	u := rng.Float64() * d.cum[len(d.cum)-1]
	i := sort.SearchFloat64s(d.cum, u)
	if i >= len(d.cum) {
		i = len(d.cum) - 1
	}
	// SearchFloat64s returns the first index with cum ≥ u; a weight-zero
	// location shares its cumulative value with its predecessor and must
	// not be selected.
	for i < len(d.W)-1 && d.W[i] == 0 {
		i++
	}
	return i
}

// SamplePoint returns a location drawn according to the weights.
func (d *Discrete) SamplePoint(rng *rand.Rand) geom.Point {
	return d.Locs[d.Sample(rng)]
}
