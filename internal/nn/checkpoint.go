package nn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// OptimizerState is a serializable snapshot of an optimizer's per-parameter
// state. Slots maps a state name ("m", "v", "velocity", ...) to one row per
// parameter tensor, in Model.Params order — the order is the contract that
// lets a restored optimizer re-key its state by pointer on a rebuilt model.
type OptimizerState struct {
	Name  string                 `json:"name"`
	Step  int                    `json:"step,omitempty"`
	Slots map[string][][]float64 `json:"slots,omitempty"`
}

// StatefulOptimizer is implemented by optimizers whose state can be captured
// into a checkpoint and restored so a resumed fit continues bit-identically.
// params must be the same ordered parameter set the optimizer steps.
type StatefulOptimizer interface {
	Optimizer
	// CaptureState snapshots the optimizer state for the given parameters.
	// Returned rows are copies; mutating the optimizer afterwards does not
	// alter a captured state.
	CaptureState(params []*Param) OptimizerState
	// RestoreState re-keys a captured state onto the given parameters.
	RestoreState(params []*Param, st OptimizerState) error
}

// captureSlot copies one state row per parameter. Parameters the optimizer
// has not touched yet get zero rows (the same state lazy initialization
// would produce).
func captureSlot(params []*Param, state map[*Param][]float64) [][]float64 {
	rows := make([][]float64, len(params))
	for i, p := range params {
		row := make([]float64, len(p.Data))
		if state != nil {
			copy(row, state[p])
		}
		rows[i] = row
	}
	return rows
}

// restoreSlot re-keys one slot's rows by parameter pointer, validating shape.
func restoreSlot(name string, params []*Param, rows [][]float64) (map[*Param][]float64, error) {
	if len(rows) != len(params) {
		return nil, fmt.Errorf("nn: optimizer slot %q has %d rows, model has %d parameter tensors",
			name, len(rows), len(params))
	}
	state := make(map[*Param][]float64, len(params))
	for i, p := range params {
		if len(rows[i]) != len(p.Data) {
			return nil, fmt.Errorf("nn: optimizer slot %q row %d has %d values, want %d",
				name, i, len(rows[i]), len(p.Data))
		}
		row := make([]float64, len(p.Data))
		copy(row, rows[i])
		state[p] = row
	}
	return state, nil
}

func checkStateName(got OptimizerState, want string) error {
	if got.Name != want {
		return fmt.Errorf("nn: optimizer state is for %q, optimizer is %q", got.Name, want)
	}
	return nil
}

// CaptureState implements StatefulOptimizer. SGD is stateless.
func (s *SGD) CaptureState([]*Param) OptimizerState {
	return OptimizerState{Name: s.Name()}
}

// RestoreState implements StatefulOptimizer.
func (s *SGD) RestoreState(_ []*Param, st OptimizerState) error {
	return checkStateName(st, s.Name())
}

// CaptureState implements StatefulOptimizer.
func (m *Momentum) CaptureState(params []*Param) OptimizerState {
	return OptimizerState{
		Name:  m.Name(),
		Slots: map[string][][]float64{"velocity": captureSlot(params, m.velocity)},
	}
}

// RestoreState implements StatefulOptimizer.
func (m *Momentum) RestoreState(params []*Param, st OptimizerState) error {
	if err := checkStateName(st, m.Name()); err != nil {
		return err
	}
	v, err := restoreSlot("velocity", params, st.Slots["velocity"])
	if err != nil {
		return err
	}
	m.velocity = v
	return nil
}

// CaptureState implements StatefulOptimizer.
func (a *Adam) CaptureState(params []*Param) OptimizerState {
	return OptimizerState{
		Name: a.Name(),
		Step: a.t,
		Slots: map[string][][]float64{
			"m": captureSlot(params, a.m),
			"v": captureSlot(params, a.v),
		},
	}
}

// RestoreState implements StatefulOptimizer.
func (a *Adam) RestoreState(params []*Param, st OptimizerState) error {
	if err := checkStateName(st, a.Name()); err != nil {
		return err
	}
	m, err := restoreSlot("m", params, st.Slots["m"])
	if err != nil {
		return err
	}
	v, err := restoreSlot("v", params, st.Slots["v"])
	if err != nil {
		return err
	}
	a.t = st.Step
	a.m, a.v = m, v
	return nil
}

// Checkpoint is a complete mid-training snapshot: weights, optimizer state
// and the fit cursor (completed epochs). Resuming from it with the same
// FitConfig and data source continues bit-identically to an uninterrupted
// fit — the shuffle and dropout streams are fast-forwarded past Epoch
// completed passes, and JSON round-trips float64 exactly (shortest-repr),
// so nothing drifts across a save/load boundary.
type Checkpoint struct {
	Epoch     int    // completed epochs
	Seed      uint64 // FitConfig.Seed the run was started with
	Samples   int    // per-epoch sample count of the data source
	BatchSize int
	Model     *Model // weights after Epoch epochs
	Optimizer OptimizerState
	History   *History
	// BestValBits is math.Float64bits of the best validation loss so far —
	// bit-level encoding keeps +Inf (no validation yet) exact in JSON.
	BestValBits uint64
	SinceBest   int    // epochs since the best validation epoch
	Best        *Model // best-epoch weights (nil when not tracking)
}

// savedCheckpoint is the on-disk JSON layout of a checkpoint.
type savedCheckpoint struct {
	Format      string         `json:"format"`
	Epoch       int            `json:"epoch"`
	Seed        uint64         `json:"seed"`
	Samples     int            `json:"samples"`
	BatchSize   int            `json:"batchSize"`
	InputShape  []int          `json:"inputShape"`
	Layers      []LayerSpec    `json:"layers"`
	Weights     [][]float64    `json:"weights"`
	Optimizer   OptimizerState `json:"optimizer"`
	History     *History       `json:"history,omitempty"`
	BestValBits uint64         `json:"bestValBits"`
	SinceBest   int            `json:"sinceBest,omitempty"`
	BestWeights [][]float64    `json:"bestWeights,omitempty"`
}

const checkpointFormat = "specml/ckpt/v1"

// SaveCheckpoint writes a checkpoint as specml/ckpt/v1 JSON.
func SaveCheckpoint(w io.Writer, ck *Checkpoint) error {
	if ck == nil || ck.Model == nil {
		return fmt.Errorf("nn: checkpoint needs a model")
	}
	if !ck.Model.built {
		return fmt.Errorf("nn: checkpoint model is not built")
	}
	sc := savedCheckpoint{
		Format:      checkpointFormat,
		Epoch:       ck.Epoch,
		Seed:        ck.Seed,
		Samples:     ck.Samples,
		BatchSize:   ck.BatchSize,
		InputShape:  ck.Model.inputShape,
		Layers:      ck.Model.Specs(),
		Optimizer:   ck.Optimizer,
		History:     ck.History,
		BestValBits: ck.BestValBits,
		SinceBest:   ck.SinceBest,
	}
	for _, p := range ck.Model.Params() {
		sc.Weights = append(sc.Weights, p.Data)
	}
	if ck.Best != nil {
		for _, p := range ck.Best.Params() {
			sc.BestWeights = append(sc.BestWeights, p.Data)
		}
	}
	return json.NewEncoder(w).Encode(&sc)
}

// loadWeights rebuilds a model from decoded specs and copies saved weight
// tensors in: the shared tail of Load and LoadCheckpoint.
func loadWeights(specs []LayerSpec, inputShape []int, weights [][]float64) (*Model, error) {
	carried := 0
	for _, w := range weights {
		carried += len(w)
	}
	m, err := buildChecked(specs, inputShape, carried)
	if err != nil {
		return nil, err
	}
	params := m.Params()
	if len(params) != len(weights) {
		return nil, fmt.Errorf("nn: saved model has %d weight tensors, architecture needs %d",
			len(weights), len(params))
	}
	for i, p := range params {
		if len(p.Data) != len(weights[i]) {
			return nil, fmt.Errorf("nn: weight tensor %d has %d values, want %d",
				i, len(weights[i]), len(p.Data))
		}
		copy(p.Data, weights[i])
	}
	return m, nil
}

// LoadCheckpoint reads a checkpoint saved with SaveCheckpoint. The contained
// models come back built.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var sc savedCheckpoint
	if err := json.NewDecoder(r).Decode(&sc); err != nil {
		return nil, fmt.Errorf("nn: decoding checkpoint: %w", err)
	}
	if sc.Format != checkpointFormat {
		return nil, fmt.Errorf("nn: unsupported checkpoint format %q", sc.Format)
	}
	model, err := loadWeights(sc.Layers, sc.InputShape, sc.Weights)
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{
		Epoch:       sc.Epoch,
		Seed:        sc.Seed,
		Samples:     sc.Samples,
		BatchSize:   sc.BatchSize,
		Model:       model,
		Optimizer:   sc.Optimizer,
		History:     sc.History,
		BestValBits: sc.BestValBits,
		SinceBest:   sc.SinceBest,
	}
	if len(sc.BestWeights) > 0 {
		best, err := loadWeights(sc.Layers, sc.InputShape, sc.BestWeights)
		if err != nil {
			return nil, fmt.Errorf("nn: best-epoch weights: %w", err)
		}
		ck.Best = best
	}
	return ck, nil
}

// SaveCheckpointFile writes a checkpoint atomically: the JSON goes to a
// temporary file in the same directory and is renamed into place, so a crash
// mid-write never corrupts the previous checkpoint.
func SaveCheckpointFile(path string, ck *Checkpoint) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("nn: writing checkpoint: %w", err)
	}
	if err := SaveCheckpoint(f, ck); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("nn: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("nn: writing checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpointFile reads a checkpoint written by SaveCheckpointFile.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nn: reading checkpoint: %w", err)
	}
	defer f.Close()
	return LoadCheckpoint(f)
}

// snapshotCheckpoint captures the fit state after `epoch` completed epochs.
// The weights are deep-copied (training continues to mutate the master) and
// the optimizer state rows are copied by CaptureState; bestModel is retained
// by reference because the fit replaces — never mutates — it.
func (m *Model) snapshotCheckpoint(cfg FitConfig, n, epoch int, hist *History, bestVal float64, sinceBest int, bestModel *Model) (*Checkpoint, error) {
	so, ok := cfg.Optimizer.(StatefulOptimizer)
	if !ok {
		return nil, fmt.Errorf("nn: optimizer %s does not support checkpointing", cfg.Optimizer.Name())
	}
	snap, err := m.Clone()
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		Epoch:       epoch,
		Seed:        cfg.Seed,
		Samples:     n,
		BatchSize:   cfg.BatchSize,
		Model:       snap,
		Optimizer:   so.CaptureState(m.Params()),
		History:     cloneHistory(hist),
		BestValBits: math.Float64bits(bestVal),
		SinceBest:   sinceBest,
		Best:        bestModel,
	}, nil
}
