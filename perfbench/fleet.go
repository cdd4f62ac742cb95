package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"specml/internal/front"
	"specml/internal/nn"
	"specml/internal/obs"
	"specml/internal/serve"
)

const (
	// backendCount is the number of specserve backends behind the front.
	backendCount = 2
	// serveMaxBatch is the backends' batch cap (the specserve default).
	serveMaxBatch = 32
)

// fleetSpec describes what the backends serve: models registered from
// nn.Save bytes, or per-backend model directories (needed for publishes).
type fleetSpec struct {
	quantize bool
	models   map[string][]byte
	dirs     []string
}

// fleet is one in-process front plus its backends. With tracing on it
// also keeps the front-side ledger of the timed window.
type fleet struct {
	front   *front.Front
	servers []*serve.Server
	ledger  *hopLedger // nil when untraced

	mu        sync.Mutex
	recording bool
	selfMs    []float64 // front time minus hop time, per traced request
	requests  int
	hops      int
	shed      int
}

func newFleet(spec fleetSpec, traced bool) (*fleet, error) {
	f := &fleet{}
	if traced {
		f.ledger = newHopLedger()
	}
	tr := &inProcess{backends: make(map[string]http.Handler), ledger: f.ledger}
	names := make([]string, 0, len(spec.models))
	for name := range spec.models {
		names = append(names, name)
	}
	sort.Strings(names)
	var urls []string
	for i := 0; i < backendCount; i++ {
		cfg := serve.Config{
			MaxBatch:    serveMaxBatch,
			BatchWindow: 5 * time.Millisecond,
			Workers:     1,
			Quantize:    spec.quantize,
		}
		if spec.dirs != nil {
			cfg.ModelDir = spec.dirs[i]
		}
		s, err := serve.New(cfg)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("backend %d: %w", i, err)
		}
		f.servers = append(f.servers, s)
		for _, name := range names {
			m, err := nn.Load(bytes.NewReader(spec.models[name]))
			if err == nil {
				err = s.Registry().Register(name, m)
			}
			if err != nil {
				f.close()
				return nil, fmt.Errorf("backend %d: model %s: %w", i, name, err)
			}
		}
		host := fmt.Sprintf("backend-%d", i)
		tr.backends[host] = s
		urls = append(urls, "http://"+host)
	}
	fr, err := front.New(front.Config{Backends: urls, Transport: tr, SessionPrefix: "pb"})
	if err != nil {
		f.close()
		return nil, err
	}
	f.front = fr
	return f, nil
}

// close stops the front's prober and drains the backends.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.front != nil {
		_ = f.front.Close(ctx) // a prober that outlives ctx is only a leak warning at exit
	}
	for _, s := range f.servers {
		_ = s.Close(ctx)
	}
}

// call sends one client request through the front and returns the status
// and body. Traced fleets time the front handler and subtract the hops it
// made to get the front's own time.
func (f *fleet) call(ctx context.Context, method, path, contentType, accept string, body []byte) (int, []byte, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://front"+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	var rt *reqTrace
	if f.ledger != nil {
		rt = &reqTrace{}
		req = req.WithContext(context.WithValue(ctx, reqTraceKey{}, rt))
	}
	rec := &recorder{header: make(http.Header)}
	t0 := time.Now()
	f.front.ServeHTTP(rec, req)
	d := time.Since(t0)
	rec.WriteHeader(http.StatusOK) // a handler that wrote nothing answered 200
	if rt != nil && readPath(path) {
		f.mu.Lock()
		if f.recording {
			f.requests++
			f.hops += int(rt.hops.Load())
			if rec.status == http.StatusTooManyRequests {
				f.shed++
			}
			f.selfMs = append(f.selfMs, ms(d-time.Duration(rt.hopNs.Load())))
		}
		f.mu.Unlock()
	}
	return rec.status, rec.body.Bytes(), nil
}

// setRecording opens or closes the traced timed window.
func (f *fleet) setRecording(on bool) {
	if f.ledger == nil {
		return
	}
	f.mu.Lock()
	f.recording = on
	f.mu.Unlock()
	f.ledger.setRecording(on)
}

// histTotal is a histogram's observation count and sum.
type histTotal struct {
	count uint64
	sum   float64
}

func (h histTotal) minus(o histTotal) histTotal {
	return histTotal{count: h.count - o.count, sum: h.sum - o.sum}
}

// mean is the per-observation mean, 0 for an empty histogram.
func (h histTotal) mean() float64 { return share(h.sum, float64(h.count)) }

// stageNames are the specserve_stage_seconds stages, in request order.
var stageNames = []string{"decode", "preprocess", "batch_wait", "forward", "encode"}

// stageSeries lists the label sets of each stage's series; decode and
// encode are split by codec, forward by precision.
var stageSeries = map[string][][]obs.Label{
	"decode":     {{obs.L("codec", "json")}, {obs.L("codec", "binary")}},
	"preprocess": {nil},
	"batch_wait": {nil},
	"forward":    {{obs.L("precision", "fp64")}, {obs.L("precision", "int8")}},
	"encode":     {{obs.L("codec", "json")}, {obs.L("codec", "binary")}},
}

// readStages sums each stage's series, and the batch-size histogram under
// "batch_size", over the given registries. It resolves the instruments by
// name and labels (get-or-create returns the server's own series).
func readStages(regs []*obs.Registry) map[string]histTotal {
	out := make(map[string]histTotal)
	for _, reg := range regs {
		for stage, series := range stageSeries {
			for _, extra := range series {
				labels := append([]obs.Label{obs.L("stage", stage)}, extra...)
				h := reg.Histogram("specserve_stage_seconds", "", obs.LatencyBuckets, labels...)
				t := out[stage]
				t.count += h.Count()
				t.sum += h.Sum()
				out[stage] = t
			}
		}
		h := reg.Histogram("specserve_batch_size", "", obs.SizeBuckets)
		t := out["batch_size"]
		t.count += h.Count()
		t.sum += h.Sum()
		out["batch_size"] = t
	}
	return out
}

// registries returns the backends' obs registries.
func (f *fleet) registries() []*obs.Registry {
	regs := make([]*obs.Registry, len(f.servers))
	for i, s := range f.servers {
		regs[i] = s.Metrics()
	}
	return regs
}

// queueSampler records the peak fleet-wide specserve_queue_depth, read
// from the backends' Prometheus exposition at a fixed period.
type queueSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64
}

func startQueueSampler(regs []*obs.Registry, every time.Duration) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		t := time.NewTicker(every)
		defer t.Stop()
		var buf bytes.Buffer
		for {
			select {
			case <-q.stop:
				return
			case <-t.C:
			}
			depth := 0.0
			for _, reg := range regs {
				buf.Reset()
				if err := reg.WritePrometheus(&buf); err == nil {
					depth += sumSeries(buf.String(), "specserve_queue_depth")
				}
			}
			if depth > q.peak {
				q.peak = depth
			}
		}
	}()
	return q
}

func (q *queueSampler) finish() float64 {
	close(q.stop)
	<-q.done
	return q.peak
}

// sumSeries sums every sample of one metric name in Prometheus text.
func sumSeries(text, name string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue // a longer name sharing the prefix
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += v
		}
	}
	return total
}
