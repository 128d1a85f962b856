package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"neuroselect/internal/gen"
	"neuroselect/internal/satgraph"
)

func TestModelFileRoundTrip(t *testing.T) {
	cfg := Config{Hidden: 8, HGTLayers: 2, MPLayers: 1, Attention: true, Seed: 9}
	m := NewModel(cfg)
	g := satgraph.BuildVCG(gen.RandomKSAT(15, 60, 3, 1).F)
	want := m.PredictGraph(g)

	var buf bytes.Buffer
	if err := m.SaveFile(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg != cfg {
		t.Fatalf("config drift: %+v vs %+v", loaded.Cfg, cfg)
	}
	if got := loaded.PredictGraph(g); got != want {
		t.Fatalf("prediction drift: %v vs %v", got, want)
	}
}

func TestModelFileThreshold(t *testing.T) {
	for _, th := range []float64{0, 0.3, 1.1} {
		m := NewModel(Config{Hidden: 4, HGTLayers: 1, MPLayers: 1, Seed: 1})
		m.Threshold = th
		var buf bytes.Buffer
		if err := m.SaveFile(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadModelFile(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(loaded.Threshold) != math.Float64bits(th) {
			t.Errorf("threshold %v loaded as %v", th, loaded.Threshold)
		}
	}

	// A file written before the threshold field existed holds only
	// format, config and payload; it decides at DefaultThreshold.
	m := NewModel(Config{Hidden: 4, HGTLayers: 1, MPLayers: 1, Seed: 1})
	m.Threshold = 0.3
	var buf bytes.Buffer
	if err := m.SaveFile(&buf); err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "threshold")
	old, _ := json.Marshal(fields)
	loaded, err := LoadModelFile(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Threshold != DefaultThreshold {
		t.Fatalf("file without a threshold decides at %v, want %v", loaded.Threshold, DefaultThreshold)
	}

	fields["threshold"] = json.RawMessage(`-0.1`)
	negative, _ := json.Marshal(fields)
	if _, err := LoadModelFile(bytes.NewReader(negative)); err == nil {
		t.Fatal("negative threshold accepted")
	}
}

func TestModelFileNoAttentionRoundTrip(t *testing.T) {
	cfg := Config{Hidden: 8, HGTLayers: 1, MPLayers: 1, Attention: false, Seed: 2}
	m := NewModel(cfg)
	var buf bytes.Buffer
	if err := m.SaveFile(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg.Attention {
		t.Fatal("attention flag lost")
	}
}

func TestLoadModelFileErrors(t *testing.T) {
	if _, err := LoadModelFile(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadModelFile(strings.NewReader(`{"format":"wrong","config":{},"payload":[]}`)); err == nil {
		t.Fatal("wrong format accepted")
	}
	for _, cfg := range []string{`{"Hidden":-1}`, `{"HGTLayers":-2}`, `{"MPLayers":-1}`} {
		file := `{"format":"neuroselect-model-v1","config":` + cfg + `,"payload":[]}`
		if _, err := LoadModelFile(strings.NewReader(file)); err == nil {
			t.Errorf("negative dimension accepted: %s", cfg)
		}
	}
	// A payload that omits parameters must not load as a model serving its
	// seeded initial weights.
	if _, err := LoadModelFile(strings.NewReader(`{"format":"neuroselect-model-v1","config":{"Hidden":4,"Seed":1},"payload":[]}`)); err == nil {
		t.Error("empty payload accepted")
	}
	var buf bytes.Buffer
	if err := NewModel(Config{Hidden: 4, HGTLayers: 1, MPLayers: 1, Seed: 1}).SaveFile(&buf); err != nil {
		t.Fatal(err)
	}
	var mf modelFile
	if err := json.Unmarshal(buf.Bytes(), &mf); err != nil {
		t.Fatal(err)
	}
	var params []json.RawMessage
	if err := json.Unmarshal(mf.Payload, &params); err != nil {
		t.Fatal(err)
	}
	mf.Payload, _ = json.Marshal(params[1:])
	short, _ := json.Marshal(mf)
	if _, err := LoadModelFile(bytes.NewReader(short)); err == nil {
		t.Error("payload missing a parameter accepted")
	}
}
