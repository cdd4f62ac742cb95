package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"specml/internal/msim"
	"specml/internal/rng"
	"specml/internal/serve"
	"specml/internal/spectrum"
)

// fleet-predict: an open loop of POST /v1/predict at one Poisson rate.
const (
	msAxisLen      = 199 // msim.DefaultAxis samples: the Table-1 input width
	msOutputs      = 8   // compounds of msim.DefaultTask
	predictModels  = 4   // Table-1 CNNs served side by side
	predictSpectra = 64  // distinct request spectra
	predictRate    = 700 // offered requests per second
	predictLimit   = 50 * time.Millisecond
	refSamples     = 10 // spectra per reference mixture for Tool 2
)

// predictInputs are everything fleet-predict sends, generated from the seed.
type predictInputs struct {
	models   map[string][]byte // nn.Save bytes by model name
	binary   [][]byte          // SPB1 frame per spectrum
	jsonBody [][]byte          // JSON body per spectrum
	due      []time.Duration   // Poisson send schedule from the run start
	pick     []int             // spectrum per request
	useJSON  []bool            // codec per request
}

func preparePredict(seed uint64, seconds int) (*prepared, error) {
	src := rng.New(seed)
	in := &predictInputs{models: make(map[string][]byte)}
	names := make([]string, predictModels)
	for k := range names {
		hidden := "selu"
		if k%2 == 1 {
			hidden = "relu"
		}
		m, err := table1Model(seed+uint64(k), hidden)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			return nil, err
		}
		names[k] = fmt.Sprintf("table1-%c", 'a'+k)
		in.models[names[k]] = buf.Bytes()
	}
	comps, err := msim.Compounds(msim.DefaultTask...)
	if err != nil {
		return nil, err
	}
	sim, err := msim.NewLineSimulator(comps)
	if err != nil {
		return nil, err
	}
	vi := msim.NewVirtualInstrument(nil, seed)
	// Tool 2 characterizes the instrument from reference series; the
	// estimate simulates the quarter of the spectra that come on a finer
	// axis, which the server resamples onto the model's 199 inputs.
	refs, err := msim.CollectReferences(vi, sim, msim.DefaultAxis(),
		msim.StandardMixtures(sim.NumCompounds()), refSamples)
	if err != nil {
		return nil, err
	}
	gen := newReport()
	t0 := time.Now()
	est, err := (&msim.Characterizer{Task: sim.Compounds(), IgnitionMZ: 4}).Estimate(refs)
	if err != nil {
		return nil, err
	}
	gen.layers["msim.characterize_ms"] = ms(time.Since(t0))
	fine := spectrum.MustAxis(1.0, 0.25, 397)
	// The last quarter of the spectra is on the fine axis; spectrum j goes
	// to model j mod 4, so every model resamples some of its inputs.
	onFine := func(j int) bool { return j >= predictSpectra*3/4 }
	for j := 0; j < predictSpectra; j++ {
		ideal, err := sim.Mixture(sim.RandomFractions(src, 1.0))
		if err != nil {
			return nil, err
		}
		var s *spectrum.Spectrum
		if onFine(j) {
			s, err = est.Measure(ideal, fine, src)
		} else {
			s, err = vi.Measure(ideal, msim.DefaultAxis())
		}
		if err != nil {
			return nil, err
		}
		req := serve.PredictRequest{Model: names[j%predictModels], Intensities: s.Intensities}
		if onFine(j) {
			req.Axis = &serve.Axis{Start: fine.Start, Step: fine.Step}
		}
		bin, err := serve.AppendPredictRequestBinary(nil, &req)
		if err != nil {
			return nil, err
		}
		js, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		in.binary = append(in.binary, bin)
		in.jsonBody = append(in.jsonBody, js)
	}
	in.due = poissonSchedule(src, predictRate, serveWarmup+time.Duration(seconds)*time.Second)
	for range in.due {
		in.pick = append(in.pick, src.Intn(predictSpectra))
		in.useJSON = append(in.useJSON, src.Intn(4) == 0)
	}
	gen.note("fleet-predict: %d models, %d spectra, %d requests at %d/s offered, limit %v",
		predictModels, predictSpectra, len(in.due), predictRate, predictLimit)
	return &prepared{pass: func(traced bool) (*report, error) { return runPredict(in, seconds, traced) }, gen: gen}, nil
}

// predictOutcome is one request's result.
type predictOutcome struct {
	status    int
	latency   time.Duration // from due time to response
	fractions []float64
}

func runPredict(in *predictInputs, seconds int, traced bool) (*report, error) {
	rep := newReport()
	fl, setup, reps, err := setupFleet(fleetSpec{models: in.models}, traced)
	if err != nil {
		return nil, err
	}
	defer fl.close()
	rep.set("setup_s", setup, reps)
	if err := fillBatches(fl, in); err != nil {
		return nil, err
	}
	runtime.GC()

	out := make([]predictOutcome, len(in.due))
	late := make([]float64, 0, len(in.due))
	start := time.Now().Add(20 * time.Millisecond)
	winStart := start.Add(serveWarmup)
	winEnd := winStart.Add(time.Duration(seconds) * time.Second)
	p := &probe{fl: fl}
	waitWindow := window(winStart, winEnd, p.start, p.end)

	var wg sync.WaitGroup
	send := func(i int, due time.Time) {
		defer wg.Done()
		j := in.pick[i]
		ct, accept, body := serve.BinaryContentType, serve.BinaryContentType, in.binary[j]
		if in.useJSON[i] {
			ct, accept, body = "application/json", "application/json", in.jsonBody[j]
		}
		ctx, cancel := context.WithTimeout(context.Background(), hopTimeout)
		defer cancel()
		status, resp, err := fl.call(ctx, http.MethodPost, "/v1/predict", ct, accept, body)
		o := predictOutcome{status: status, latency: time.Since(due)}
		if err == nil && status == http.StatusOK {
			o.fractions, err = decodeFractions(resp, in.useJSON[i])
			if err != nil {
				o.status = 0
			}
		}
		out[i] = o
	}
	// The single generator goroutine: sleep to each due time, then hand
	// the request to its own goroutine so a slow reply never delays the
	// schedule.
	for i, d := range in.due {
		due := start.Add(d)
		time.Sleep(time.Until(due))
		if d >= serveWarmup && d < serveWarmup+time.Duration(seconds)*time.Second {
			late = append(late, ms(time.Since(due)))
		}
		wg.Add(1)
		go send(i, due)
	}
	wg.Wait()
	waitWindow()
	rep.set("retained_heap_mib", retainedHeapMiB(), 1)

	var lat []float64
	ok, good, timed := 0, 0, 0
	for i, d := range in.due {
		if d < serveWarmup || d >= serveWarmup+time.Duration(seconds)*time.Second {
			continue
		}
		timed++
		o := out[i]
		if o.status != http.StatusOK {
			continue
		}
		ok++
		lat = append(lat, ms(o.latency))
		if o.latency <= predictLimit {
			good++
		}
	}
	latencyMetrics(rep, p, lat, ok, good, timed)
	genLate, _ := tailPercentile(late)
	rep.layers["harness.gen_late_ms_p99"] = genLate
	rep.note("generator late p99 %.4f ms", genLate)
	if genLate > ms(predictLimit) {
		rep.note("WARNING: the generator fell behind by more than the %v latency limit", predictLimit)
	}
	if traced {
		serveLayers(rep, p)
	}
	checkPredictions(rep, fl, in, out)
	return rep, nil
}

// fillBatches opens the warm-up with full batches of every model, one
// model at a time so each burst coalesces within one batch window: the
// layers' batch caches grow to their high-water size before anything is
// measured, instead of whenever the Poisson traffic first bunches up.
func fillBatches(fl *fleet, in *predictInputs) error {
	for j := 0; j < predictModels; j++ {
		for round := 0; round < 2; round++ {
			var wg sync.WaitGroup
			errs := make(chan error, serveMaxBatch)
			for r := 0; r < serveMaxBatch; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), hopTimeout)
					defer cancel()
					status, _, err := fl.call(ctx, http.MethodPost, "/v1/predict",
						serve.BinaryContentType, serve.BinaryContentType, in.binary[j])
					if err == nil && status != http.StatusOK {
						err = fmt.Errorf("warm-up predict: status %d", status)
					}
					if err != nil {
						errs <- err
					}
				}()
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeFractions reads a predict response in the codec it was asked in.
func decodeFractions(body []byte, isJSON bool) ([]float64, error) {
	if isJSON {
		var r struct {
			Fractions []float64 `json:"fractions"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		return r.Fractions, nil
	}
	_, f, err := serve.ParsePredictResponseBinary(body)
	return f, err
}

// checkPredictions sends every spectrum alone through the same fleet and
// requires each prediction made under load to equal it bit for bit (the
// batching bit-identity contract).
func checkPredictions(rep *report, fl *fleet, in *predictInputs, out []predictOutcome) {
	mismatches, compared, soloFailed := 0, 0, 0
	for j := 0; j < predictSpectra; j++ {
		ctx, cancel := context.WithTimeout(context.Background(), hopTimeout)
		status, body, err := fl.call(ctx, http.MethodPost, "/v1/predict",
			serve.BinaryContentType, serve.BinaryContentType, in.binary[j])
		cancel()
		var solo []float64
		if err == nil && status == http.StatusOK {
			solo, err = decodeFractions(body, false)
		}
		if err != nil || status != http.StatusOK || !allFinite(solo) {
			soloFailed++
			continue
		}
		for i, o := range out {
			if in.pick[i] != j || o.status != http.StatusOK {
				continue
			}
			compared++
			if !sameBits(o.fractions, solo) {
				mismatches++
			}
		}
	}
	rep.check("predict-bit-identity", mismatches == 0 && soloFailed == 0 && compared > 0,
		"%d predictions compared with solo requests, %d differ, %d solo requests failed",
		compared, mismatches, soloFailed)
}

// sameBits reports whether two vectors are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func allFinite(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return len(xs) > 0
}

// poissonSchedule draws the send offsets of a Poisson arrival process at
// rate per second over [0, total).
func poissonSchedule(src *rng.Source, rate float64, total time.Duration) []time.Duration {
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(src.Exponential(rate) * float64(time.Second))
		if t >= total {
			return due
		}
		due = append(due, t)
	}
}
