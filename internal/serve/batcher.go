package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"specml/internal/obs"
)

// ErrBatcherClosed is returned by Batcher.Predict after Close.
var ErrBatcherClosed = errors.New("serve: batcher closed")

// request is one enqueued forward pass awaiting a batch slot.
type request struct {
	x        []float64
	enqueued time.Time // batch_wait stage starts here
	resp     chan response
}

type response struct {
	y   []float64
	err error
}

// Batcher is the micro-batching dispatcher: concurrent Predict calls are
// coalesced into one PredictBatch forward pass. A batch is flushed when it
// reaches MaxBatch requests or when Window has elapsed since the batch's
// first request, whichever comes first — the classic latency/throughput
// trade of an online inference server. Backends run PredictBatch on one
// worker, so what a batch amortizes is per-forward work that does not grow
// with the row count: packing each weight matrix into GEMM panels and
// streaming the weights through the cache once for all the rows instead of
// once per request.
//
// The run function receives the coalesced inputs in arrival order and must
// return one output per input. Because nn.Model.PredictBatch is
// bit-identical to sequential Predict calls for any worker count, batching
// is invisible to clients: the response for input x is the same no matter
// which requests it shared a batch with.
type Batcher struct {
	maxBatch int
	window   time.Duration
	run      func([][]float64) ([][]float64, error)
	stats    *Stats
	model    string        // pprof/metrics label; empty for bare batchers
	mx       *serveMetrics // nil disables obs recording
	logger   *slog.Logger

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
	reqs     chan *request
	done     chan struct{}

	// Dispatcher-goroutine scratch, reused across flushes so steady-state
	// batching does not allocate per batch.
	batchBuf []*request
	xsBuf    [][]float64
}

// NewBatcher starts the dispatcher goroutine. maxBatch <= 0 defaults to 32;
// window <= 0 flushes eagerly (a batch only grows while requests are
// already queued). stats may be nil.
func NewBatcher(maxBatch int, window time.Duration, stats *Stats,
	run func([][]float64) ([][]float64, error)) *Batcher {
	return newBatcher(maxBatch, window, stats, run, "", nil, nil)
}

// newBatcher is NewBatcher plus the observability wiring: a model label
// for pprof/metrics attribution, the server's obs instruments and a
// structured logger. Everything is installed before the dispatcher
// goroutine starts, so no field needs locking.
func newBatcher(maxBatch int, window time.Duration, stats *Stats,
	run func([][]float64) ([][]float64, error),
	model string, mx *serveMetrics, logger *slog.Logger) *Batcher {
	if maxBatch <= 0 {
		maxBatch = 32
	}
	if logger == nil {
		logger = obs.NopLogger()
	}
	b := &Batcher{
		maxBatch: maxBatch,
		window:   window,
		run:      run,
		stats:    stats,
		model:    model,
		mx:       mx,
		logger:   logger,
		reqs:     make(chan *request, 4*maxBatch),
		done:     make(chan struct{}),
	}
	go b.loop()
	return b
}

// Predict enqueues one input vector and blocks until its batch has run or
// ctx is done. The returned slice is owned by the caller.
func (b *Batcher) Predict(ctx context.Context, x []float64) ([]float64, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrBatcherClosed
	}
	// Registering under the lock guarantees Close observes this request:
	// either it is enqueued before the channel closes or it never enters.
	b.inflight.Add(1)
	b.mu.Unlock()

	r := &request{x: x, enqueued: time.Now(), resp: make(chan response, 1)}
	select {
	case b.reqs <- r:
		b.inflight.Done()
	case <-ctx.Done():
		b.inflight.Done()
		return nil, ctx.Err()
	}
	select {
	case resp := <-r.resp:
		return resp.y, resp.err
	case <-ctx.Done():
		// The batch still runs; the buffered resp channel lets the
		// dispatcher complete without a receiver.
		return nil, ctx.Err()
	}
}

// Close stops accepting new requests, waits until every already-accepted
// request has been answered (in-flight batches drain, they are never
// dropped), and stops the dispatcher goroutine. Close is idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.mu.Unlock()
	b.inflight.Wait() // every accepted request is now in the channel
	close(b.reqs)
	<-b.done
}

// loop collects requests into batches and flushes them. The goroutine is
// pprof-labeled so CPU profiles attribute forward-pass time to the model
// whose dispatcher ran it.
func (b *Batcher) loop() {
	obs.LabelGoroutine("stage", "batch-dispatch", "model", b.model)
	defer close(b.done)
	for {
		first, ok := <-b.reqs
		if !ok {
			return
		}
		batch := b.collect(first)
		b.flush(batch)
	}
}

// collect gathers up to maxBatch requests, waiting at most window after
// the first one. A closed request channel ends collection early; the
// remaining queued requests are picked up by subsequent loop iterations,
// so shutdown drains everything.
func (b *Batcher) collect(first *request) []*request {
	if b.batchBuf == nil {
		b.batchBuf = make([]*request, 0, b.maxBatch)
	}
	batch := append(b.batchBuf[:0], first)
	if b.window <= 0 {
		for len(batch) < b.maxBatch {
			select {
			case r, ok := <-b.reqs:
				if !ok {
					return batch
				}
				batch = append(batch, r)
			default:
				return batch
			}
		}
		return batch
	}
	timer := time.NewTimer(b.window)
	defer timer.Stop()
	for len(batch) < b.maxBatch {
		select {
		case r, ok := <-b.reqs:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// flush runs one coalesced forward pass and distributes the results.
func (b *Batcher) flush(batch []*request) {
	if cap(b.xsBuf) < len(batch) {
		b.xsBuf = make([][]float64, len(batch))
	}
	xs := b.xsBuf[:len(batch)]
	for i, r := range batch {
		xs[i] = r.x
	}
	var start time.Time
	if b.mx != nil {
		start = time.Now()
		for _, r := range batch {
			b.mx.stBatchWait.Observe(start.Sub(r.enqueued).Seconds())
		}
	}
	ys, err := b.runSafe(xs)
	if err == nil && len(ys) != len(batch) {
		err = errors.New("serve: batch run returned wrong result count")
	}
	if b.mx != nil {
		b.mx.stForward.ObserveSince(start)
		b.mx.batchSize.Observe(float64(len(batch)))
	}
	if err != nil {
		b.logger.Error("batch flush failed", "model", b.model, "batch", len(batch), "err", err)
	}
	if b.stats != nil {
		b.stats.RecordBatch(len(batch))
	}
	for i, r := range batch {
		if err != nil {
			r.resp <- response{err: err}
			continue
		}
		r.resp <- response{y: ys[i]}
	}
	// Drop input and request references so reused scratch doesn't pin
	// completed batches in memory.
	for i := range xs {
		xs[i] = nil
		batch[i] = nil
	}
}

// runSafe invokes the run function, converting a panic into a batch error:
// the dispatcher goroutine is shared by every request of a model, so a
// single poisoned forward pass must fail its batch, not kill the process.
func (b *Batcher) runSafe(xs [][]float64) (ys [][]float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			ys, err = nil, fmt.Errorf("serve: batch forward pass panicked: %v", p)
		}
	}()
	return b.run(xs)
}
