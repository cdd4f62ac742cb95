package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"specml/internal/dataset"
	"specml/internal/nn"
	"specml/internal/obs"
	"specml/internal/rng"
	"specml/internal/serve"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so the rule must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		want, pct float64
	}{
		{2000, 1980, 99}, // p99 itself has 20 beyond
		{1000, 990, 99},  // p99 has exactly 10 beyond
		{500, 490, 98},   // p98 is the highest with 10 beyond
		{100, 90, 90},    // p90
		{21, 11, 11.0 / 21 * 100},
	} {
		v, pct := tailPercentile(seq(tc.n))
		if v != tc.want || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d: got %v at p%v, want %v at p%v", tc.n, v, pct, tc.want, tc.pct)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", tc.n, beyond)
		}
	}
	if v, pct := tailPercentile([]float64{3, 1, 2}); v != 2 || pct != 50 {
		t.Errorf("small sample: got %v at p%v, want the median", v, pct)
	}
}

func TestPoissonScheduleIsPerSeedDeterministic(t *testing.T) {
	total := 20 * time.Second
	a := poissonSchedule(rng.New(7), 500, total)
	b := poissonSchedule(rng.New(7), 500, total)
	c := poissonSchedule(rng.New(8), 500, total)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Fatal("different seeds gave the same schedule")
	}
	// 10 000 expected arrivals: the count is within 5 sigma of the rate.
	if n := float64(len(a)); math.Abs(n-10000) > 500 {
		t.Fatalf("%v arrivals in 20 s at 500/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= total {
			t.Fatalf("arrival %d at %v out of order or range", i, a[i])
		}
	}
}

func TestInProcessTransportRoundTrips(t *testing.T) {
	body := make([]byte, 68<<10)
	for i := range body {
		body[i] = byte(i * 31)
	}
	echo := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		w.Header().Set("X-Echo-Path", r.URL.Path)
		w.Header().Set("Content-Type", r.Header.Get("Content-Type"))
		w.WriteHeader(http.StatusAccepted)
		w.Write(got)
	})
	ledger := newHopLedger()
	ledger.setRecording(true)
	client := &http.Client{Transport: &inProcess{backends: map[string]http.Handler{"b0": echo}, ledger: ledger}}
	rt := &reqTrace{}
	ctx := context.WithValue(context.Background(), reqTraceKey{}, rt)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://b0/v1/predict", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-test")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("status %d, want 202", resp.StatusCode)
	}
	if resp.Header.Get("X-Echo-Path") != "/v1/predict" || resp.Header.Get("Content-Type") != "application/x-test" {
		t.Errorf("headers did not round-trip: %v", resp.Header)
	}
	if !bytes.Equal(got, body) {
		t.Errorf("68 KB body changed in transit (%d bytes back)", len(got))
	}
	if rt.hops.Load() != 1 || len(ledger.hopMs) != 1 || ledger.perHost["b0"] != 1 {
		t.Errorf("hop not traced: %d hops, ledger %v", rt.hops.Load(), ledger.perHost)
	}
	if _, err := client.Get("http://unknown/"); err == nil {
		t.Error("a request to an unknown backend succeeded")
	}
}

// tinyFit trains a small dense network from a deterministic stream.
func tinyFit(t *testing.T, wrap bool) []byte {
	t.Helper()
	stream, err := dataset.NewStream(96, 8, 2, 5, func(i int, src *rng.Source, x, y []float64) error {
		for j := range x {
			x[j] = src.Float64()
		}
		y[0], y[1] = x[0]+x[1], x[2]-x[3]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var train dataset.Source = stream
	var clk *clockSource
	if wrap {
		clk = &clockSource{Source: stream}
		train = clk
	}
	m := nn.NewModel().Add(nn.NewDense(6)).Add(nn.NewActivation(nn.Tanh)).Add(nn.NewDense(2))
	if err := m.Build(rng.New(3), 8); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitSource(train, nn.FitConfig{Epochs: 3, BatchSize: 16, Seed: 9, Workers: 1, Prefetch: 2}); err != nil {
		t.Fatal(err)
	}
	if wrap && (len(clk.starts) != 18 || clk.rows[0] != 16) {
		t.Errorf("wrapper saw %d batches, want 18", len(clk.starts))
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestClockSourceFitIsIdentical(t *testing.T) {
	if !bytes.Equal(tinyFit(t, true), tinyFit(t, false)) {
		t.Fatal("wrapping the Source changed the fitted model bytes")
	}
}

// promStage sums one stage's _sum and _count series in Prometheus text.
func promStage(t *testing.T, text, suffix, stage string) float64 {
	t.Helper()
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "specserve_stage_seconds"+suffix+"{") || !strings.Contains(line, `stage="`+stage+`"`) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatal(err)
		}
		total += v
	}
	return total
}

func TestReadStagesMatchesPrometheusText(t *testing.T) {
	s, err := serve.New(serve.Config{MaxBatch: 4, BatchWindow: time.Millisecond, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	m := nn.NewModel().Add(nn.NewDense(3))
	if err := m.Build(rng.New(1), 6); err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Register("tiny", m); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		req := serve.PredictRequest{Model: "tiny", Intensities: []float64{1, 2, 3, 4, 5, float64(i)}}
		var body []byte
		ct := "application/json"
		if i%2 == 0 {
			body, _ = json.Marshal(&req)
		} else {
			body, _ = serve.AppendPredictRequestBinary(nil, &req)
			ct = serve.BinaryContentType
		}
		r, _ := http.NewRequest(http.MethodPost, "http://b/v1/predict", bytes.NewReader(body))
		r.Header.Set("Content-Type", ct)
		rec := &recorder{header: make(http.Header)}
		s.ServeHTTP(rec, r)
		if rec.status != http.StatusOK {
			t.Fatalf("predict %d: status %d: %s", i, rec.status, rec.body.String())
		}
	}
	got := readStages([]*obs.Registry{s.Metrics()})
	text := promText(s.Metrics())
	for _, st := range stageNames {
		wantN := promStage(t, text, "_count", st)
		wantS := promStage(t, text, "_sum", st)
		if float64(got[st].count) != wantN || math.Abs(got[st].sum-wantS) > 1e-12*math.Max(1, wantS) {
			t.Errorf("stage %s: reader %d/%g, exposition %g/%g", st, got[st].count, got[st].sum, wantN, wantS)
		}
		if wantN == 0 {
			t.Errorf("stage %s recorded nothing", st)
		}
	}
	if n := got["batch_size"].count; n == 0 || float64(n) != sumSeries(text, "specserve_batch_size_count") {
		t.Errorf("batch size: reader %d, exposition %g", n, sumSeries(text, "specserve_batch_size_count"))
	}
}

// benchmarkFile is the part of ../BENCHMARK.json the catalogue must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the harness: %v", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, file []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if f := file[i]; f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", kind, i, f, d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the harness", w.Name)
		}
	}
}

func TestLayerMapCoversCatalogue(t *testing.T) {
	data, err := os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads map[string]json.RawMessage
		LayerMap  map[string]struct {
			Moves     []string
			Workloads []string
		} `json:"layer_map"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		if _, ok := doc.Workloads[name]; !ok {
			t.Errorf("workloads.json has no record for %s", name)
		}
	}
	if len(doc.LayerMap) != len(perLayer) {
		t.Errorf("layer map has %d entries, catalogue %d", len(doc.LayerMap), len(perLayer))
	}
	for _, d := range perLayer {
		e, ok := doc.LayerMap[d.Name]
		if !ok {
			t.Errorf("layer map misses %s", d.Name)
			continue
		}
		for _, mv := range e.Moves {
			if !containsDef(endToEnd, mv) {
				t.Errorf("%s moves unknown end-to-end metric %q", d.Name, mv)
			}
		}
		for _, w := range e.Workloads {
			if _, ok := workloads[w]; !ok {
				t.Errorf("%s names unknown workload %q", d.Name, w)
			}
		}
	}
}
