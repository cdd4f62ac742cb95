package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// inProcess is a front.Config.Transport that hands every hop straight to a
// backend's ServeHTTP, keyed by the URL host: the fleet runs in one process
// without sockets. With a non-nil ledger it also times each hop a traced
// client request makes.
type inProcess struct {
	backends map[string]http.Handler
	ledger   *hopLedger
}

func (t *inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.backends[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("perfbench: no in-process backend %q", req.URL.Host)
	}
	// The handler may replace the request body (MaxBytesReader), and a
	// RoundTripper must not modify its request, so the backend gets a copy.
	sreq := req.Clone(req.Context())
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}
	sreq.RequestURI = req.URL.RequestURI()
	sreq.RemoteAddr = "in-process"
	rec := &recorder{header: make(http.Header)}
	t0 := time.Now()
	h.ServeHTTP(rec, sreq)
	if t.ledger != nil {
		t.ledger.hop(req.Context(), req.URL.Host, req.URL.Path, time.Since(t0))
	}
	return rec.response(req), nil
}

// recorder is the minimal http.ResponseWriter a backend writes into.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

// response turns the recording into the client-side response of req.
func (r *recorder) response(req *http.Request) *http.Response {
	r.WriteHeader(http.StatusOK)
	body := r.body.Bytes()
	return &http.Response{
		Status:        strconv.Itoa(r.status) + " " + http.StatusText(r.status),
		StatusCode:    r.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        r.header,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// reqTrace accumulates the hops of one client request; it rides in the
// request context from the front wrapper to the transport.
type reqTrace struct {
	hops  atomic.Int64
	hopNs atomic.Int64
}

type reqTraceKey struct{}

// readPath reports whether a request path is on the read path the
// serve.* and front.* metrics describe: predicts and monitor steps, not
// publishes, session opens and closes.
func readPath(path string) bool {
	return strings.HasSuffix(path, "/predict") || strings.HasSuffix(path, "/step")
}

// hopLedger collects hop timings of traced client requests on the read
// path. Health probes carry no reqTrace and are not counted.
type hopLedger struct {
	mu        sync.Mutex
	recording bool
	hopMs     []float64
	perHost   map[string]int
}

func newHopLedger() *hopLedger { return &hopLedger{perHost: make(map[string]int)} }

func (l *hopLedger) hop(ctx context.Context, host, path string, d time.Duration) {
	rt, _ := ctx.Value(reqTraceKey{}).(*reqTrace)
	if rt == nil {
		return
	}
	rt.hops.Add(1)
	rt.hopNs.Add(int64(d))
	if !readPath(path) {
		return
	}
	l.mu.Lock()
	if l.recording {
		l.hopMs = append(l.hopMs, ms(d))
		l.perHost[host]++
	}
	l.mu.Unlock()
}

// setRecording opens or closes the timed window of the ledger.
func (l *hopLedger) setRecording(on bool) {
	l.mu.Lock()
	l.recording = on
	l.mu.Unlock()
}

// maxShare is the busiest backend's share of recorded hops.
func (l *hopLedger) maxShare() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	total, most := 0, 0
	for _, n := range l.perHost {
		total += n
		if n > most {
			most = n
		}
	}
	return share(float64(most), float64(total))
}
