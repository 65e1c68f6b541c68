package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks
// the emitted results against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

const tinyRun = 600 * time.Millisecond

func tiny(t *testing.T, w workload, traced bool, inj injection) *result {
	t.Helper()
	var log bytes.Buffer
	res, err := runWorkload(w, 7, tinyRun, traced, t.TempDir(), true, inj, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", w.name, err, log.String())
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Log(log.String())
		}
	})
	return res
}

// checkMetrics asserts that got carries exactly the named metrics with
// their declared units.
func checkMetrics(t *testing.T, label string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", label, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", label, m.Name, g.Unit, m.Unit)
		}
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	var built []string
	for _, w := range workloads {
		built = append(built, w.name)
	}
	if !slices.Equal(declared, built) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", declared, built)
	}
	for name, unit := range layerUnits {
		i := slices.IndexFunc(b.PerLayer, func(m struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}) bool {
			return m.Name == name
		})
		if i < 0 || b.PerLayer[i].Unit != unit {
			t.Errorf("per-layer metric %s (%s) not declared as such in BENCHMARK.json", name, unit)
		}
	}
}

func TestEveryWorkloadAtTinySize(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := tiny(t, w, false, injectNone)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, "untraced", res.Metrics, b.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s reads %v", name, m.Value)
				}
			}
			res = tiny(t, w, true, injectNone)
			if !res.Correct {
				t.Fatalf("traced run: %d of %d failed", res.Failed, res.Attempted)
			}
			checkMetrics(t, "traced", res.Metrics, b.PerLayer)
		})
	}
}

func TestDroppedCanaryIsAFailure(t *testing.T) {
	for _, w := range workloads[:2] {
		t.Run(w.name, func(t *testing.T) {
			res := tiny(t, w, false, injectDropCanary)
			if res.Correct || res.Failed < 1 {
				t.Fatalf("a canary run without its fault went unnoticed: correct %v, %d failed", res.Correct, res.Failed)
			}
		})
	}
}

func TestDroppedEventIsAFailure(t *testing.T) {
	w, _ := findWorkload("inmem-16mon")
	res := tiny(t, w, false, injectDropEvent)
	if res.Correct || res.Failed < 1 {
		t.Fatalf("a lost event went unnoticed: correct %v, %d failed", res.Correct, res.Failed)
	}
}
