package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"pnn"
	"pnn/api"
)

// TestProbabilitiesBodiesMatchEncodingJSON pins the served bytes of
// /v1/probabilities for exact and approximate engines: the single-GET
// body and the /v1/batch item body must both equal json.Marshal of the
// api.Probabilities that a pnn.Index built from the same IndexKey
// answers. Approximate engines report eps and non-round estimates,
// which exact bodies never carry.
func TestProbabilitiesBodiesMatchEncodingJSON(t *testing.T) {
	reg, set := testRegistry(t)
	srv := New(reg, Config{CacheSize: -1})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	points := []api.Point{{X: 3, Y: 4}, {X: 42.5, Y: 17.25}, {X: -7, Y: 0.1}, {X: 60, Y: 55}}
	for _, c := range []struct {
		query   string
		item    api.BatchItem
		wantEps bool
	}{
		{"", api.BatchItem{}, false},
		{"&method=spiral&eps=0.05", api.BatchItem{Method: "spiral", Eps: 0.05}, true},
		{"&method=mc&eps=0.1&delta=0.1", api.BatchItem{Method: "mc", Eps: 0.1, Delta: 0.1}, true},
		{"&method=mcbudget&rounds=200", api.BatchItem{Method: "mcbudget", Rounds: 200}, false},
	} {
		path := func(q api.Point) string {
			return fmt.Sprintf("/v1/probabilities?dataset=fleet&x=%g&y=%g%s", q.X, q.Y, c.query)
		}
		p, err := parseParams(httptest.NewRequest(http.MethodGet, path(points[0]), nil), pnn.OpProbabilities)
		if err != nil {
			t.Fatal(err)
		}
		opts, err := p.key.Options()
		if err != nil {
			t.Fatal(err)
		}
		idx, err := pnn.New(set, opts...)
		if err != nil {
			t.Fatal(err)
		}
		items := make([]api.BatchItem, len(points))
		wants := make([][]byte, len(points))
		for i, q := range points {
			pi, err := idx.Probabilities(pnn.Pt(q.X, q.Y))
			if err != nil {
				t.Fatal(err)
			}
			wants[i], err = json.Marshal(api.Probabilities{Dataset: "fleet", Query: q, Eps: idx.Eps(),
				Probabilities: emptyIfNilFloats(pi)})
			if err != nil {
				t.Fatal(err)
			}
			if got := bytes.Contains(wants[i], []byte(`"eps":`)); got != c.wantEps {
				t.Fatalf("%s: eps present = %v, want %v", p.key, got, c.wantEps)
			}
			status, _, body := getBody(t, hs, path(q))
			if status != http.StatusOK || !bytes.Equal(body, append(wants[i], '\n')) {
				t.Errorf("GET %s: status %d\n got  %s want %s", path(q), status, body, wants[i])
			}
			items[i] = c.item
			items[i].Dataset, items[i].Op, items[i].X, items[i].Y = "fleet", "probabilities", q.X, q.Y
		}
		status, resp := postBatch(t, hs, items)
		if status != http.StatusOK || len(resp.Results) != len(items) {
			t.Fatalf("%s: batch status %d with %d results", p.key, status, len(resp.Results))
		}
		for i, res := range resp.Results {
			if res.Error != nil || !bytes.Equal(res.Body, wants[i]) {
				t.Errorf("%s: batch item %d (error %+v)\n got  %s\n want %s", p.key, i, res.Error, res.Body, wants[i])
			}
		}
	}
}

// sparseVector returns the shape of a probabilities answer on the
// benchmark's 10k×4 set: n entries, at most nonzero of them positive,
// the rest +0 apart from a few −0.
func sparseVector(n, nonzero int) []float64 {
	r := rand.New(rand.NewSource(1))
	ps := make([]float64, n)
	for i := 0; i < nonzero; i++ {
		ps[r.Intn(n)] = r.Float64() / float64(nonzero)
	}
	for i := 0; i < 3; i++ {
		ps[r.Intn(n)] = math.Copysign(0, -1)
	}
	return ps
}

// TestMarshalProbabilitiesLongVector covers zero runs longer than the
// encoder's constant, which the fuzz target's short vectors rarely
// reach.
func TestMarshalProbabilitiesLongVector(t *testing.T) {
	v := api.Probabilities{Dataset: "fleet", Query: api.Point{X: 12.5, Y: -3}, Eps: 0.05,
		Probabilities: sparseVector(10_000, 36)}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := marshalProbabilities(v)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("err = %v; bodies differ (%d vs %d bytes)", err, len(got), len(want))
	}
}

// BenchmarkProbabilitiesBody compares the encoder with json.Marshal on
// a 10,000-entry vector with 36 nonzero entries.
func BenchmarkProbabilitiesBody(b *testing.B) {
	v := api.Probabilities{Dataset: "bench", Query: api.Point{X: 12.5, Y: -3},
		Probabilities: sparseVector(10_000, 36)}
	for _, c := range []struct {
		name string
		enc  func(any) ([]byte, error)
	}{{"encoder", encode}, {"json.Marshal", json.Marshal}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.enc(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
