package core

import (
	"bytes"
	"encoding/json"
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
