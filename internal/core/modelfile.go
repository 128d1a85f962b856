package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// modelFile is the self-describing on-disk format: the architecture config
// followed by the raw parameter payload, so loading needs no out-of-band
// knowledge of how the model was trained.
type modelFile struct {
	Format  string          `json:"format"`
	Config  Config          `json:"config"`
	Payload json.RawMessage `json:"payload"`
}

const modelFormat = "neuroselect-model-v1"

// SaveFile serializes the model with its configuration.
func (m *Model) SaveFile(w io.Writer) error {
	var payload bytes.Buffer
	if err := m.Params.Save(&payload); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(modelFile{
		Format:  modelFormat,
		Config:  m.Cfg,
		Payload: json.RawMessage(payload.Bytes()),
	})
}

// LoadModelFile reconstructs a model (architecture and weights) saved with
// SaveFile. A config with a negative dimension, or a payload that does not
// hold every parameter of that architecture exactly once, is an error.
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
	m := NewModel(mf.Config)
	if err := m.Params.Load(bytes.NewReader(mf.Payload)); err != nil {
		return nil, err
	}
	return m, nil
}
