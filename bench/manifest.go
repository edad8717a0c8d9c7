package main

import (
	"encoding/json"
	"io"
)

// manifest is BENCHMARK.json: the contract between this benchmark and
// whatever runs it.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestLoad  `json:"workloads"`
	EndToEnd   []metricDef     `json:"end_to_end"`
	PerLayer   []manifestLayer `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest(seconds int) manifest {
	m := manifest{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: seconds,
		EndToEnd:   endToEnd,
	}
	for _, s := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{Name: s.name, Why: s.why})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, manifestLayer{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func writeManifest(out io.Writer, seconds int) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(buildManifest(seconds))
}
