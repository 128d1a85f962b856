package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// modelFile is the self-describing on-disk format: the architecture
// config, the calibrated decision threshold and the raw parameter payload,
// so loading needs no out-of-band knowledge of how the model was trained
// or where it decides. Threshold is a pointer so that an explicit 0
// ("always frequency") differs from a file that predates the field.
type modelFile struct {
	Format    string          `json:"format"`
	Config    Config          `json:"config"`
	Threshold *float64        `json:"threshold,omitempty"`
	Payload   json.RawMessage `json:"payload"`
}

const modelFormat = "neuroselect-model-v1"

// SaveFile serializes the model with its configuration and threshold.
func (m *Model) SaveFile(w io.Writer) error {
	var payload bytes.Buffer
	if err := m.Params.Save(&payload); err != nil {
		return err
	}
	th := m.Threshold
	return json.NewEncoder(w).Encode(modelFile{
		Format:    modelFormat,
		Config:    m.Cfg,
		Threshold: &th,
		Payload:   json.RawMessage(payload.Bytes()),
	})
}

// LoadModelFile reconstructs a model (architecture, threshold and weights)
// saved with SaveFile. A file without a threshold decides at
// DefaultThreshold. A config with a negative dimension, a negative
// threshold, or a payload that does not hold every parameter of that
// architecture exactly once, is an error.
func LoadModelFile(r io.Reader) (*Model, error) {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if mf.Format != modelFormat {
		return nil, fmt.Errorf("core: unsupported model format %q", mf.Format)
	}
	if c := mf.Config; c.Hidden < 0 || c.HGTLayers < 0 || c.MPLayers < 0 {
		return nil, fmt.Errorf("core: load model: negative dimension in config %+v", c)
	}
	if mf.Threshold != nil && *mf.Threshold < 0 {
		return nil, fmt.Errorf("core: load model: negative threshold %v", *mf.Threshold)
	}
	m := NewModel(mf.Config)
	if mf.Threshold != nil {
		m.Threshold = *mf.Threshold
	}
	if err := m.Params.Load(bytes.NewReader(mf.Payload)); err != nil {
		return nil, err
	}
	return m, nil
}
