package nn

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"specml/internal/rng"
)

func TestModelShapeInference(t *testing.T) {
	// The paper's Table-1 topology on a 200-point spectrum with 8 outputs.
	m := NewModel().
		Add(NewReshape(200, 1)).
		Add(NewConv1D(25, 20, 1)).Add(NewActivation(SELU)).
		Add(NewConv1D(25, 20, 3)).Add(NewActivation(SELU)).
		Add(NewConv1D(25, 15, 2)).Add(NewActivation(SELU)).
		Add(NewConv1D(15, 15, 4)).Add(NewSoftmax()).
		Add(NewFlatten()).
		Add(NewDense(8)).Add(NewSoftmax())
	if err := m.Build(rng.New(1), 200); err != nil {
		t.Fatal(err)
	}
	if m.OutputLen() != 8 {
		t.Fatalf("output len = %d, want 8", m.OutputLen())
	}
	// 200 -k20s1-> 181 -k20s3-> 54 -k15s2-> 20 -k15s4-> 2 positions x 15 filters
	shapes := m.layerShapes()
	wantConv4 := []int{2, 15}
	got := shapes[7]
	if !shapeEq(got, wantConv4) {
		t.Fatalf("conv4 shape = %v, want %v", got, wantConv4)
	}
	out := m.Forward(make([]float64, 200))
	if len(out) != 8 {
		t.Fatalf("forward output len = %d", len(out))
	}
}

func TestModelBuildErrors(t *testing.T) {
	m := NewModel()
	if err := m.Build(rng.New(1), 4); err == nil {
		t.Fatal("empty model must not build")
	}
	m2 := NewModel().Add(NewConv1D(2, 10, 1))
	if err := m2.Build(rng.New(1), 5); err == nil {
		t.Fatal("kernel larger than input must not build")
	}
	m3 := NewModel().Add(NewDense(3))
	if err := m3.Build(rng.New(1), 4); err != nil {
		t.Fatal(err)
	}
	if err := m3.Build(rng.New(1), 4); err == nil {
		t.Fatal("double Build must error")
	}
	if err := NewModel().Add(NewFlatten()).Build(rng.New(1), -5); err == nil {
		t.Fatal("negative input dimension must not build")
	}
}

func TestModelForwardBeforeBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewModel().Add(NewDense(2)).Forward([]float64{1})
}

func TestModelInputLengthPanics(t *testing.T) {
	m := buildModel(t, 1, []int{4}, NewDense(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Forward([]float64{1, 2})
}

func TestNumParamsTable1(t *testing.T) {
	// Table-1 CNN parameter count on 200-point input, 8 outputs:
	// conv1: 25*(20*1)+25 = 525
	// conv2: 25*(20*25)+25 = 12525
	// conv3: 25*(15*25)+25 = 9400
	// conv4: 15*(15*25)+15 = 5640
	// dense: 8*(2*15)+8 = 248
	m := buildModel(t, 1, []int{200},
		NewReshape(200, 1),
		NewConv1D(25, 20, 1), NewActivation(SELU),
		NewConv1D(25, 20, 3), NewActivation(SELU),
		NewConv1D(25, 15, 2), NewActivation(SELU),
		NewConv1D(15, 15, 4), NewSoftmax(),
		NewFlatten(), NewDense(8), NewSoftmax())
	want := 525 + 12525 + 9400 + 5640 + 248
	if got := m.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestNMRCNNParamCountMatchesPaper(t *testing.T) {
	// The paper reports 10 532 trainable parameters for the NMR CNN:
	// locally connected (4 filters, kernel 9, stride 9) on 1700 points,
	// flatten, dense to 4 concentrations.
	m := buildModel(t, 1, []int{1700, 1},
		NewLocallyConnected1D(4, 9, 9),
		NewFlatten(),
		NewDense(4))
	if got := m.NumParams(); got != 10532 {
		t.Fatalf("NMR CNN params = %d, want 10532 (paper)", got)
	}
}

func TestNMRLSTMParamCountMatchesPaper(t *testing.T) {
	// The paper reports 221 956 trainable parameters for the LSTM model:
	// LSTM(32) over 5 timesteps of 1700-point spectra plus Dense(4).
	m := buildModel(t, 1, []int{5, 1700}, NewLSTM(32), NewDense(4))
	if got := m.NumParams(); got != 221956 {
		t.Fatalf("NMR LSTM params = %d, want 221956 (paper)", got)
	}
}

func TestSummaryContainsLayersAndTotal(t *testing.T) {
	m := buildModel(t, 1, []int{10}, NewDense(4), NewSoftmax())
	s := m.Summary()
	for _, frag := range []string{"dense", "softmax", "total trainable parameters: 44"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("summary missing %q:\n%s", frag, s)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := buildModel(t, 2, []int{6}, NewDense(5), NewActivation(ReLU), NewDense(3))
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4, 5, 6}
	a := m.Predict(x)
	b := c.Predict(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("clone predicts differently")
		}
	}
	// mutate the clone; original must not change
	c.Params()[0].Data[0] += 1
	a2 := m.Predict(x)
	for i := range a {
		if a[i] != a2[i] {
			t.Fatal("mutating clone changed original")
		}
	}
}

func TestCopyParamsFromMismatch(t *testing.T) {
	a := buildModel(t, 1, []int{4}, NewDense(2))
	b := buildModel(t, 1, []int{4}, NewDense(3))
	if err := a.CopyParamsFrom(b); err == nil {
		t.Fatal("mismatched architectures must error")
	}
}

func TestDeterministicInitialization(t *testing.T) {
	a := buildModel(t, 42, []int{5}, NewDense(4), NewDense(2))
	b := buildModel(t, 42, []int{5}, NewDense(4), NewDense(2))
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Data {
			if pa[i].Data[j] != pb[i].Data[j] {
				t.Fatal("same seed produced different initializations")
			}
		}
	}
	c := buildModel(t, 43, []int{5}, NewDense(4), NewDense(2))
	if pa[0].Data[0] == c.Params()[0].Data[0] {
		t.Fatal("different seeds produced identical first weight")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := buildModel(t, 3, []int{12},
		NewReshape(12, 1),
		NewConv1D(3, 4, 2), NewActivation(SELU),
		NewFlatten(), NewDense(4), NewSoftmax())
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 12)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	a, b := m.Predict(x), m2.Predict(x)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-15 {
			t.Fatalf("loaded model predicts differently: %v vs %v", a, b)
		}
	}
}

func TestSaveLoadLSTM(t *testing.T) {
	m := buildModel(t, 4, []int{3, 5}, NewLSTM(4), NewDense(2))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 15)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	a, b := m.Predict(x), m2.Predict(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("LSTM round trip mismatch")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage must not load")
	}
	if _, err := Load(strings.NewReader(`{"format":"other"}`)); err == nil {
		t.Fatal("wrong format must not load")
	}
}

func TestFromSpecsUnknownType(t *testing.T) {
	if _, err := FromSpecs([]LayerSpec{{Type: "nope"}}); err == nil {
		t.Fatal("unknown layer type must error")
	}
}

func TestSpecsRoundTrip(t *testing.T) {
	m := NewModel().
		Add(NewReshape(8, 1)).
		Add(NewConv1D(2, 3, 1)).
		Add(NewActivation(ReLU)).
		Add(NewMaxPool1D(2, 0)).
		Add(NewFlatten()).
		Add(NewDropout(0.25)).
		Add(NewDense(2)).
		Add(NewSoftmax())
	specs := m.Specs()
	m2, err := FromSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Layers()) != len(m.Layers()) {
		t.Fatal("spec round trip lost layers")
	}
	for i := range specs {
		if m2.Layers()[i].Kind() != m.Layers()[i].Kind() {
			t.Fatalf("layer %d kind mismatch", i)
		}
	}
}

func TestDropoutTrainingVsInference(t *testing.T) {
	m := buildModel(t, 5, []int{100}, NewDropout(0.5))
	x := make([]float64, 100)
	for i := range x {
		x[i] = 1
	}
	m.SetTraining(false)
	out := m.Forward(x)
	for _, v := range out {
		if v != 1 {
			t.Fatal("inference dropout must be identity")
		}
	}
	m.SetTraining(true)
	out = m.Forward(x)
	zeros := 0
	for _, v := range out {
		switch v {
		case 0:
			zeros++
		case 2:
			// kept and scaled by 1/(1-0.5)
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros == 0 || zeros == len(out) {
		t.Fatalf("dropout dropped %d/100, expected ~50", zeros)
	}
}

// TestPredictBatchTable1SteadyStateAllocs pins the README's zero
// steady-state allocation promise on the serving path: a batch-2 Table-1
// PredictBatch allocates only what it returns — the outer slice and one
// row per sample. Layer batch buffers, im2col scratch and the packed GEMM
// panels are all reused from the first call on.
func TestPredictBatchTable1SteadyStateAllocs(t *testing.T) {
	m := buildModel(t, 1, []int{199},
		NewReshape(199, 1),
		NewConv1D(25, 20, 1), NewActivation(SELU),
		NewConv1D(25, 20, 3), NewActivation(SELU),
		NewConv1D(25, 15, 2), NewActivation(SELU),
		NewConv1D(15, 15, 4), NewSoftmax(),
		NewFlatten(), NewDense(8), NewSoftmax())
	src := rng.New(5)
	x := make([][]float64, 2)
	for i := range x {
		x[i] = make([]float64, 199)
		for j := range x[i] {
			x[i][j] = src.Uniform(0, 1)
		}
	}
	if _, err := m.PredictBatch(x, 1); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := m.PredictBatch(x, 1); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(1 + len(x)); got != want {
		t.Fatalf("PredictBatch allocates %v times per call, want %v (the returned rows)", got, want)
	}
}
