package server

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"

	"pnn/api"
)

// encode marshals one query response. A probabilities vector holds N
// entries, of which only the NN≠0(q) ones are nonzero (Lemma 2.1), so
// its body is written by marshalProbabilities, which copies the zeros
// from a constant instead of sending each through encoding/json's
// reflective encoder. Every other response goes through json.Marshal.
func encode(v any) ([]byte, error) {
	if p, ok := v.(api.Probabilities); ok {
		return marshalProbabilities(p)
	}
	return json.Marshal(v)
}

// zeroRun is a run of +0 vector entries as encoding/json writes them.
var zeroRun = strings.Repeat("0,", 512)

// maxFloatLen bounds the bytes of one float64 in encoding/json's form:
// a sign, 17 significant digits and either "0.00000" ahead of them or a
// point and a three-digit exponent.
const maxFloatLen = 25

// marshalProbabilities returns v exactly as json.Marshal(v) writes it,
// and fails exactly when json.Marshal fails (a NaN or ±Inf anywhere),
// with the same error. The dataset name goes through json.Marshal, so
// its escaping is encoding/json's own.
func marshalProbabilities(v api.Probabilities) ([]byte, error) {
	name, err := json.Marshal(v.Dataset)
	if err != nil {
		return nil, err
	}
	head := [...]float64{v.Query.X, v.Query.Y, v.Eps}
	for _, f := range head {
		if err := checkFinite(f); err != nil {
			return nil, err
		}
	}
	nonzero := 0
	for _, f := range v.Probabilities {
		if math.Float64bits(f) != 0 {
			if err := checkFinite(f); err != nil {
				return nil, err
			}
			nonzero++
		}
	}
	size := len(name) + len(`{"dataset":,"query":{"x":,"y":},"eps":,"probabilities":[]}`) +
		len(head)*maxFloatLen + 2*(len(v.Probabilities)-nonzero) + (maxFloatLen+1)*nonzero
	b := append(make([]byte, 0, size), `{"dataset":`...)
	b = append(b, name...)
	b = append(b, `,"query":{"x":`...)
	b = appendFloat(b, v.Query.X)
	b = append(b, `,"y":`...)
	b = appendFloat(b, v.Query.Y)
	b = append(b, '}')
	if v.Eps != 0 {
		b = append(b, `,"eps":`...)
		b = appendFloat(b, v.Eps)
	}
	b = append(b, `,"probabilities":`...)
	if v.Probabilities == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	ps := v.Probabilities
	for i := 0; i < len(ps); {
		if math.Float64bits(ps[i]) != 0 {
			b = appendFloat(b, ps[i])
			b = append(b, ',')
			i++
			continue
		}
		j := i + 1
		for j < len(ps) && math.Float64bits(ps[j]) == 0 {
			j++
		}
		for run := 2 * (j - i); run > 0; run -= len(zeroRun) {
			b = append(b, zeroRun[:min(run, len(zeroRun))]...)
		}
		i = j
	}
	if len(ps) > 0 {
		b = b[:len(b)-1] // the last entry's comma
	}
	return append(b, "]}"...), nil
}

// checkFinite returns json.Marshal's error for f, which is nil unless f
// is NaN or ±Inf.
func checkFinite(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return err
	}
	return nil
}

// appendFloat appends f as encoding/json encodes a float64: the
// shortest decimal that round-trips, in 'f' form unless 0 < |f| < 1e-6
// or |f| ≥ 1e21, which take 'e' form with "e-07" shortened to "e-7".
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
