package nn

import (
	"fmt"
	"strings"
	"sync"

	"specml/internal/parallel"
	"specml/internal/rng"
)

// Model is a feed-forward stack of layers.
type Model struct {
	layers      []Layer
	inputShape  []int
	outputShape []int
	built       bool

	// Cached shared replicas for data-parallel PredictBatch, recycled
	// across calls so steady-state batched inference allocates nothing.
	repMu   sync.Mutex
	repFree []*Model

	// Per-layer output blocks for the batched forward's per-sample
	// fallback (layers without a batched kernel).
	fallbackOut [][]float64

	// params caches the flattened parameter list once built (the layer
	// stack is immutable after Build), so per-batch ZeroGrad calls don't
	// rebuild the slice.
	params []*Param

	// fuseAct enables the fused Dense+activation batch step (opt-in,
	// bit-identical; see forwardBatchFused in batch.go).
	fuseAct bool
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// Add appends a layer. It panics if the model is already built, which is
// always a programming error.
func (m *Model) Add(l Layer) *Model {
	if m.built {
		panic("nn: Add after Build")
	}
	m.layers = append(m.layers, l)
	return m
}

// Build fixes the input shape, allocates and initializes all parameters
// from src, and validates shape compatibility across the stack.
func (m *Model) Build(src *rng.Source, inputShape ...int) error {
	if m.built {
		return fmt.Errorf("nn: model already built")
	}
	if len(m.layers) == 0 {
		return fmt.Errorf("nn: empty model")
	}
	shape := append([]int(nil), inputShape...)
	if shapeLen(shape) == 0 {
		return fmt.Errorf("nn: empty input shape %v", inputShape)
	}
	for _, d := range shape {
		if d <= 0 {
			return fmt.Errorf("nn: non-positive input dimension in %v", inputShape)
		}
	}
	for i, l := range m.layers {
		out, err := l.Build(src, shape)
		if err != nil {
			return fmt.Errorf("nn: building layer %d (%s): %w", i, l.Kind(), err)
		}
		shape = out
	}
	m.inputShape = append([]int(nil), inputShape...)
	m.outputShape = shape
	m.built = true
	for _, l := range m.layers {
		m.params = append(m.params, l.Params()...)
	}
	return nil
}

// InputShape returns the built input shape.
func (m *Model) InputShape() []int { return m.inputShape }

// OutputShape returns the built output shape.
func (m *Model) OutputShape() []int { return m.outputShape }

// InputLen returns the flat input size.
func (m *Model) InputLen() int { return shapeLen(m.inputShape) }

// OutputLen returns the flat output size.
func (m *Model) OutputLen() int { return shapeLen(m.outputShape) }

// Layers returns the layer stack.
func (m *Model) Layers() []Layer { return m.layers }

// Forward runs one sample through the network and returns the output
// buffer, which is owned by the model and overwritten by the next call.
func (m *Model) Forward(x []float64) []float64 {
	if !m.built {
		panic("nn: Forward before Build")
	}
	if len(x) != m.InputLen() {
		panic(fmt.Sprintf("nn: input length %d, model expects %d", len(x), m.InputLen()))
	}
	for _, l := range m.layers {
		x = l.Forward(x)
	}
	return x
}

// Predict runs Forward with training-mode layers (dropout) disabled and
// copies the output into a fresh slice. The pass runs in inference mode:
// layers skip the input snapshots only Backward would read.
func (m *Model) Predict(x []float64) []float64 {
	m.SetTraining(false)
	m.setInference(true)
	out := m.Forward(x)
	res := make([]float64, len(out))
	copy(res, out)
	m.setInference(false)
	return res
}

// Backward propagates dLoss/dOutput through the stack, accumulating
// parameter gradients. It must follow a Forward call for the same sample.
func (m *Model) Backward(gradOut []float64) []float64 {
	if !m.built {
		panic("nn: Backward before Build")
	}
	g := gradOut
	for i := len(m.layers) - 1; i >= 0; i-- {
		g = m.layers[i].Backward(g)
	}
	return g
}

// Params returns all trainable parameters in layer order. After Build the
// cached list is returned; callers must not append to it.
func (m *Model) Params() []*Param {
	if m.built {
		return m.params
	}
	var ps []*Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total trainable parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Data)
	}
	return n
}

// ZeroGrad clears all gradient accumulators.
func (m *Model) ZeroGrad() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// SetTraining toggles training-mode behaviour on layers that have one.
func (m *Model) SetTraining(training bool) {
	for _, l := range m.layers {
		if ta, ok := l.(trainingAware); ok {
			ta.SetTraining(training)
		}
	}
}

// setInference toggles snapshot-free forward passes on layers that support
// them. Callers must restore the flag to false before any Forward whose
// caches a later Backward will consume.
func (m *Model) setInference(v bool) {
	for _, l := range m.layers {
		if ia, ok := l.(inferenceAware); ok {
			ia.SetInference(v)
		}
	}
}

// SetFusedActivations toggles the fused Dense+activation batch step: when
// a Dense layer is immediately followed by a ReLU/SELU activation, the
// batched forward applies the activation inside the GEMM output/bias pass
// instead of traversing the block a second time. Off by default; results
// (and gradients, when training through the batched path) are bit-identical
// either way. Replicas created after the call inherit the setting.
func (m *Model) SetFusedActivations(v bool) { m.fuseAct = v }

// Clone returns an independent copy of a built model: same architecture,
// deep-copied parameters, fresh caches.
func (m *Model) Clone() (*Model, error) {
	if !m.built {
		return nil, fmt.Errorf("nn: Clone before Build")
	}
	c := NewModel()
	for _, l := range m.layers {
		nl, err := LayerFromSpec(l.Spec())
		if err != nil {
			return nil, err
		}
		c.Add(nl)
	}
	// Build with a throwaway source, then overwrite parameters.
	if err := c.Build(rng.New(0), m.inputShape...); err != nil {
		return nil, err
	}
	src := m.Params()
	dst := c.Params()
	for i := range src {
		copy(dst[i].Data, src[i].Data)
	}
	c.fuseAct = m.fuseAct
	return c, nil
}

// sharedReplica returns a model with the same architecture whose parameter
// Data slices alias the receiver's — weights are shared read-only and stay
// in sync with the receiver at zero copy cost — while gradient buffers and
// all layer caches (activations, dropout masks, LSTM state) are private.
// Replicas back the data-parallel paths of Fit and PredictBatch: one
// replica per worker, each serving one goroutine at a time.
func (m *Model) sharedReplica() (*Model, error) {
	c, err := m.Clone()
	if err != nil {
		return nil, err
	}
	src, dst := m.Params(), c.Params()
	for i := range src {
		dst[i].Data = src[i].Data
	}
	return c, nil
}

// replicaPool builds n shared replicas of the model.
func (m *Model) replicaPool(n int) ([]*Model, error) {
	pool := make([]*Model, n)
	for i := range pool {
		r, err := m.sharedReplica()
		if err != nil {
			return nil, err
		}
		pool[i] = r
	}
	return pool, nil
}

// hasDropout reports whether any layer needs per-sample mask reseeding
// during data-parallel training.
func (m *Model) hasDropout() bool {
	for _, l := range m.layers {
		if _, ok := l.(*Dropout); ok {
			return true
		}
	}
	return false
}

// reseedDropout gives every dropout layer a fresh stream derived from
// seed (one Split per layer, in layer order).
func (m *Model) reseedDropout(seed uint64) {
	src := rng.New(seed)
	for _, l := range m.layers {
		if d, ok := l.(*Dropout); ok {
			d.Reseed(src.Split())
		}
	}
}

// PredictBatch runs inference over all rows of x, returning one freshly
// allocated prediction per row. The rows are packed into one block and
// forwarded through the batched kernels (im2col + blocked GEMM), which are
// bit-identical to calling Predict row by row. With workers > 1 (0 = all
// cores) the block is sharded into contiguous row ranges, each forwarded
// through a cached shared replica, so the receiver's caches are never
// touched and steady-state calls allocate only the returned slices.
func (m *Model) PredictBatch(x [][]float64, workers int) ([][]float64, error) {
	if !m.built {
		return nil, fmt.Errorf("nn: PredictBatch before Build")
	}
	out := make([][]float64, len(x))
	if len(x) == 0 {
		return out, nil
	}
	m.checkBatchInputs(x)
	inLen, outLen := m.InputLen(), m.OutputLen()
	w := parallel.Resolve(workers)
	if w > len(x) {
		w = len(x)
	}
	xb := batchScratch.Get(len(x) * inLen)
	defer batchScratch.Put(xb)
	for i, row := range x {
		copy(xb[i*inLen:(i+1)*inLen], row)
	}
	if w == 1 {
		predictShard(m, xb, out, inLen, outLen, 0, len(x))
		return out, nil
	}
	reps, err := m.acquireReplicas(w)
	if err != nil {
		return nil, err
	}
	defer m.releaseReplicas(reps)
	err = parallel.For(w, w, func(_, shard int) error {
		lo, hi := shard*len(x)/w, (shard+1)*len(x)/w
		if lo < hi {
			predictShard(reps[shard], xb, out, inLen, outLen, lo, hi)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// predictShard runs samples lo..hi of the flattened input block xb through
// mm and stores a fresh copy of each output row in out. It is a plain
// function rather than a closure so the single-worker path allocates
// nothing but the returned rows.
func predictShard(mm *Model, xb []float64, out [][]float64, inLen, outLen, lo, hi int) {
	mm.SetTraining(false)
	mm.setInference(true)
	yb := mm.forwardBatch(xb[lo*inLen:hi*inLen], hi-lo)
	mm.setInference(false)
	for s := lo; s < hi; s++ {
		res := make([]float64, outLen)
		copy(res, yb[(s-lo)*outLen:(s-lo+1)*outLen])
		out[s] = res
	}
}

// CopyParamsFrom copies parameter values from other, which must have an
// identical architecture.
func (m *Model) CopyParamsFrom(other *Model) error {
	a, b := m.Params(), other.Params()
	if len(a) != len(b) {
		return fmt.Errorf("nn: parameter-set mismatch (%d vs %d tensors)", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Data) != len(b[i].Data) {
			return fmt.Errorf("nn: parameter tensor %d size mismatch", i)
		}
		copy(a[i].Data, b[i].Data)
	}
	return nil
}

// Summary returns a human-readable architecture table in the spirit of the
// paper's Table 1.
func (m *Model) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-20s %-14s %10s\n", "#", "Layer", "Output", "Params")
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 52))
	shape := m.inputShape
	fmt.Fprintf(&sb, "%-4s %-20s %-14v %10d\n", "0", "input", shape, 0)
	// Rebuild shapes by re-deriving from specs is unnecessary: track through
	// layer Build results is not stored per layer, so recompute via OutputShape
	// of sequential dry-run: store during Build would be cleaner; derive here.
	shapes := m.layerShapes()
	for i, l := range m.layers {
		n := 0
		for _, p := range l.Params() {
			n += len(p.Data)
		}
		fmt.Fprintf(&sb, "%-4d %-20s %-14v %10d\n", i+1, l.Kind(), shapes[i], n)
	}
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 52))
	fmt.Fprintf(&sb, "total trainable parameters: %d\n", m.NumParams())
	return sb.String()
}

// LayerOutputShapes returns the output shape of every layer in order,
// derived from the built input shape. Used by the platform cost model to
// count per-layer operations.
func (m *Model) LayerOutputShapes() [][]int {
	if !m.built {
		panic("nn: LayerOutputShapes before Build")
	}
	return m.layerShapes()
}

// layerShapes recomputes per-layer output shapes from the specs (shape
// inference only, no allocation of new models).
func (m *Model) layerShapes() [][]int {
	shapes := make([][]int, len(m.layers))
	shape := m.inputShape
	for i, l := range m.layers {
		shape = inferShape(l, shape)
		shapes[i] = shape
	}
	return shapes
}

// inferShape mirrors each layer's Build-time shape computation without
// touching parameters.
func inferShape(l Layer, in []int) []int {
	switch v := l.(type) {
	case *Dense:
		return []int{v.Out}
	case *Conv1D:
		length, _, err := seq2D(in)
		if err != nil {
			return in
		}
		out, err := convOutLen(length, v.Kernel, v.Stride)
		if err != nil {
			return in
		}
		return []int{out, v.Filters}
	case *LocallyConnected1D:
		length, _, err := seq2D(in)
		if err != nil {
			return in
		}
		out, err := convOutLen(length, v.Kernel, v.Stride)
		if err != nil {
			return in
		}
		return []int{out, v.Filters}
	case *MaxPool1D:
		length, ch, err := seq2D(in)
		if err != nil {
			return in
		}
		out, err := convOutLen(length, v.Kernel, v.Stride)
		if err != nil {
			return in
		}
		return []int{out, ch}
	case *AvgPool1D:
		length, ch, err := seq2D(in)
		if err != nil {
			return in
		}
		out, err := convOutLen(length, v.Kernel, v.Stride)
		if err != nil {
			return in
		}
		return []int{out, ch}
	case *LSTM:
		return []int{v.Units}
	case *TimeDistributed:
		if len(in) != 2 {
			return in
		}
		innerIn := v.InnerShape
		if len(innerIn) == 0 {
			innerIn = []int{in[1]}
		}
		return []int{in[0], shapeLen(inferShape(v.Inner, innerIn))}
	case *Flatten:
		return []int{shapeLen(in)}
	case *Reshape:
		return append([]int(nil), v.TargetShape...)
	default:
		return in
	}
}
