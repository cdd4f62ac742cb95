package nn

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"specml/internal/rng"
)

// TestPlanSpecsMatchesBuild pins the allocation-free walk to Build: for an
// architecture using every built-in layer type, planSpecs must predict
// exactly the parameter count Build allocates.
func TestPlanSpecsMatchesBuild(t *testing.T) {
	for _, tc := range []struct {
		input []int
		specs []LayerSpec
	}{
		{[]int{40}, []LayerSpec{
			{Type: "reshape", TargetShape: []int{40, 1}},
			{Type: "conv1d", Filters: 3, Kernel: 5, Stride: 2},
			{Type: "activation", Activation: "relu"},
			{Type: "maxpool1d", Kernel: 2}, // stride 0 defaults to the kernel
			{Type: "avgpool1d", Kernel: 2, Stride: 1},
			{Type: "locallyconnected1d", Filters: 2, Kernel: 3, Stride: 3},
			{Type: "flatten"},
			{Type: "dropout", Rate: 0.1},
			{Type: "dense", Out: 4},
			{Type: "softmax"},
		}},
		{[]int{3, 10}, []LayerSpec{
			{Type: "timedistributed", TargetShape: []int{10, 1},
				Inner: &LayerSpec{Type: "conv1d", Filters: 2, Kernel: 4, Stride: 2}},
			{Type: "lstm", Units: 5},
			{Type: "dense", Out: 2},
		}},
		{[]int{4, 6}, []LayerSpec{
			{Type: "timedistributed", Inner: &LayerSpec{Type: "dense", Out: 3}},
			{Type: "flatten"},
			{Type: "dense", Out: 1},
		}},
	} {
		m, err := FromSpecs(tc.specs)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Build(rng.New(1), tc.input...); err != nil {
			t.Fatal(err)
		}
		got, err := planSpecs(tc.specs, tc.input)
		if err != nil {
			t.Fatalf("planSpecs rejects a buildable architecture: %v", err)
		}
		if got != m.NumParams() {
			t.Fatalf("planSpecs = %d parameters, Build allocated %d", got, m.NumParams())
		}
	}
}

// loadAllocBytes returns what Load allocated for body, and its error.
func loadAllocBytes(body []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(body))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// loadAllocBound is the most Load may allocate for a body of n bytes: a
// small multiple of the body (every parameter must be carried in it, as a
// JSON number of at least two bytes) plus Build's per-sample buffers,
// bounded through maxLoadActivations.
func loadAllocBound(n int) uint64 {
	return uint64(64*n) + 8*8*maxLoadActivations
}

func TestLoadRejectsHostileArchitectures(t *testing.T) {
	for name, body := range map[string]string{
		// ~80 GB of dense weights from a body that carries none.
		"oversized dense":  `{"format":"specml/model/v1","inputShape":[100000],"layers":[{"type":"dense","out":100000}],"weights":[[],[]]}`,
		"negative input":   `{"format":"specml/model/v1","inputShape":[-5],"layers":[{"type":"dense","out":1}],"weights":[[0,0,0,0,0],[0]]}`,
		"zero input":       `{"format":"specml/model/v1","inputShape":[0],"layers":[{"type":"flatten"}],"weights":[]}`,
		"negative target":  `{"format":"specml/model/v1","inputShape":[5],"layers":[{"type":"reshape","targetShape":[-1,-5]},{"type":"flatten"}],"weights":[]}`,
		"overflowing dims": `{"format":"specml/model/v1","inputShape":[4294967296,4294967296],"layers":[{"type":"flatten"}],"weights":[]}`,
		"huge activation":  `{"format":"specml/model/v1","inputShape":[100000000],"layers":[{"type":"activation","activation":"relu"}],"weights":[]}`,
		"long recurrence":  `{"format":"specml/model/v1","inputShape":[2000000,1],"layers":[{"type":"lstm","units":16}],"weights":[[],[],[]]}`,
		"weights short":    `{"format":"specml/model/v1","inputShape":[3],"layers":[{"type":"dense","out":2}],"weights":[[1,2,3],[1,2]]}`,
	} {
		alloc, err := loadAllocBytes([]byte(body))
		if err == nil {
			t.Fatalf("%s: Load accepted %s", name, body)
		}
		if bound := loadAllocBound(len(body)); alloc > bound {
			t.Fatalf("%s: Load allocated %d bytes before failing (bound %d)", name, alloc, bound)
		}
		if !strings.HasPrefix(err.Error(), "nn:") {
			t.Fatalf("%s: error %q lacks the nn: prefix", name, err)
		}
	}
}

// FuzzLoadModel throws hostile bodies at Load. The contract: no panic,
// and no allocation beyond loadAllocBound — an architecture the body does
// not pay for must fail before Build allocates it. A body that loads must
// save again.
func FuzzLoadModel(f *testing.F) {
	m := NewModel().Add(NewReshape(12, 1)).Add(NewConv1D(2, 4, 2)).
		Add(NewActivation(ReLU)).Add(NewFlatten()).Add(NewDense(3))
	if err := m.Build(rng.New(1), 12); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	lstm := NewModel().Add(NewLSTM(2)).Add(NewDense(1))
	if err := lstm.Build(rng.New(2), 3, 2); err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := lstm.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"format":"specml/model/v1","inputShape":[100000],"layers":[{"type":"dense","out":100000}],"weights":[[],[]]}`))
	f.Add([]byte(`{"format":"specml/model/v1","inputShape":[-5],"layers":[{"type":"dense","out":1}],"weights":[[0],[0]]}`))
	f.Add([]byte(`{"format":"specml/model/v1","inputShape":[4,3],"layers":[{"type":"timedistributed","inner":{"type":"dense","out":2}}],"weights":[[1,2,3,4,5,6],[0,0]]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		alloc, err := loadAllocBytes(body)
		if bound := loadAllocBound(len(body)); alloc > bound {
			t.Fatalf("Load allocated %d bytes for a %d-byte body (bound %d, err %v)", alloc, len(body), bound, err)
		}
		if err != nil {
			return
		}
		got, err := Load(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("second Load failed: %v", err)
		}
		if err := got.Save(&bytes.Buffer{}); err != nil {
			t.Fatalf("loaded model does not save: %v", err)
		}
	})
}
