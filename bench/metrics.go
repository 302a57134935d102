package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: share of the parent's median it may worsen by
}

// benchmarkSpec is BENCHMARK.json at the repository root, which the driver
// reads too. It is the one place where the workloads and why they exist,
// the metrics, their units, directions and bounds, and the length of a run
// are written down; this program only adds how a workload runs
// (workloadImpls) and how a metric is computed.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json and refuses it unless the workloads it
// lists are exactly the ones this program implements.
func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := &benchmarkSpec{}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.Workloads) != len(workloadImpls) {
		return nil, fmt.Errorf("%s lists %d workloads, the program implements %d", path, len(spec.Workloads), len(workloadImpls))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadImpls[w.Name]; !ok {
			return nil, fmt.Errorf("%s lists workload %q, which the program does not implement", path, w.Name)
		}
	}
	if spec.RunSeconds < 1 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: run_seconds, end_to_end or per_layer missing", path)
	}
	return spec, nil
}

func (s *benchmarkSpec) why(workload string) string {
	for _, w := range s.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}
