package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/url"
	"testing"

	"pnn"
	"pnn/api"
	"pnn/internal/loadgen"
)

var fuzzOps = []pnn.Op{pnn.OpNonzero, pnn.OpProbabilities, pnn.OpTopK, pnn.OpThreshold, pnn.OpExpectedNN}

// FuzzParseParams drives the query-string parser — the first code an
// unauthenticated request reaches — with arbitrary parameter strings.
// It must reject garbage with an error, never a panic, and anything it
// accepts must come out normalized (a later engine build trusts it).
func FuzzParseParams(f *testing.F) {
	f.Add("demo", "1.5", "2.5", "index", "exact", "0.05", "3", "0.2")
	f.Add("fleet", "-0", "1e308", "direct", "mc", "0", "-1", "nan")
	f.Add("", "", "", "", "", "", "", "")
	f.Add("demo", "NaN", "Inf", "diagram", "mcbudget", "1e-300", "4096", "1")
	f.Add("demo", "1", "1", "bogus", "bogus", "x", "x", "x")

	f.Fuzz(func(t *testing.T, dataset, x, y, backend, method, eps, k, tau string) {
		v := url.Values{}
		for key, val := range map[string]string{
			"dataset": dataset, "x": x, "y": y,
			"backend": backend, "method": method, "eps": eps,
			"k": k, "tau": tau,
		} {
			if val != "" {
				v.Set(key, val)
			}
		}
		r := &http.Request{URL: &url.URL{Path: "/v1/query", RawQuery: v.Encode()}}
		for _, op := range fuzzOps {
			p, err := parseParams(r, op)
			if err != nil {
				continue
			}
			switch p.key.Backend {
			case "index", "direct", "diagram":
			default:
				t.Fatalf("accepted params with unnormalized backend %q", p.key.Backend)
			}
			switch p.key.Method {
			case "exact", "spiral", "mc", "mcbudget":
			default:
				t.Fatalf("accepted params with unnormalized method %q", p.key.Method)
			}
			if p.dataset == "" {
				t.Fatal("accepted params without a dataset")
			}
		}
	})
}

// FuzzStorePoints feeds arbitrary JSON through the insert-points body
// decode path (the same unmarshal + shape validation the handler
// runs). Seeds come from the load generator's insert corpus.
func FuzzStorePoints(f *testing.F) {
	for _, kind := range []string{"disks", "discrete"} {
		spec := loadgen.DefaultSpec()
		spec.Kind = kind
		if err := spec.Set("mix", "insert=1"); err != nil {
			f.Fatal(err)
		}
		gen, err := loadgen.NewGen(spec)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			req := gen.Next()
			body, err := json.Marshal(api.InsertPoints{Disks: req.Disks, Discrete: req.Discrete})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"disks":[],"discrete":[]}`))
	f.Add([]byte(`{"disks":[{"x":1e308,"y":-1e308,"r":-1}],"discrete":[{"x":[1],"y":[]}]}`))
	f.Add([]byte(`{"discrete":[{"x":null,"y":null,"w":[1,2,3]}]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var req api.InsertPoints
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		pts, err := storePoints(req)
		if err == nil && len(pts) == 0 {
			t.Fatal("storePoints accepted a pointless insert")
		}
		if err == nil && len(req.Disks) > 0 && len(req.Discrete) > 0 {
			t.Fatal("storePoints accepted a mixed-kind insert")
		}
	})
}

// FuzzProbabilitiesBody checks the /v1/probabilities encoder against
// encoding/json. The vector is raw read as little-endian float64 bits,
// whole words only; an empty vector is checked both nil and non-nil.
// For any name, point, eps and vector the encoder's bytes must equal
// json.Marshal's, and it must fail exactly when json.Marshal fails,
// with the same error.
func FuzzProbabilitiesBody(f *testing.F) {
	words := func(fs ...float64) []byte {
		b := make([]byte, 0, 8*len(fs))
		for _, v := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add("fleet", 3.0, 4.0, 0.0, []byte(nil))
	f.Add("fleet", 3.0, 4.0, 0.05, []byte{})
	for _, v := range []float64{
		negZero, 5e-324, 9.999999e-7, 1e-6, 1e20, 1e21, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add("fleet", v, 1.5, 0.0, words(0, v, 0, 0))
		f.Add("fleet", 1.5, v, v, words(v))
		f.Add("fleet", 0.0, 0.0, -v, words(v, -v, 0.25, 0))
	}
	for _, name := range []string{"<a&b>", "line\u2028sep\u2029", "bad\xffutf8\xc3", ""} {
		f.Add(name, -1.25, 1e-7, 0.1, words(0.5, 0, 0.5))
	}

	f.Fuzz(func(t *testing.T, dataset string, x, y, eps float64, raw []byte) {
		ps := make([]float64, len(raw)/8)
		for i := range ps {
			ps[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		vecs := [][]float64{ps}
		if len(ps) == 0 {
			vecs = append(vecs, nil)
		}
		for _, vec := range vecs {
			v := api.Probabilities{Dataset: dataset, Query: api.Point{X: x, Y: y}, Eps: eps, Probabilities: vec}
			want, wantErr := json.Marshal(v)
			got, err := marshalProbabilities(v)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%+v: err = %v, json.Marshal err = %v", v, err, wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%+v:\n got  %s\n want %s", v, got, want)
			}
		}
	})
}
