package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runTool(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestArchVerifies(t *testing.T) {
	t.Parallel()
	code, out, errOut := runTool(t, "-arch")
	if code != 0 {
		t.Fatalf("exit = %d, err=%q", code, errOut)
	}
	for _, want := range []string{"Figure 1", "data gathering", "architecture verified"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestTinySweepProducesTable(t *testing.T) {
	t.Parallel()
	code, out, errOut := runTool(t,
		"-intervals", "2ms,4ms",
		"-ops", "400",
		"-procs", "2",
		"-repeats", "1",
		"-workloads", "manager",
	)
	if code != 0 {
		t.Fatalf("exit = %d, err=%q\n%s", code, errOut, out)
	}
	for _, want := range []string{"checking interval", "2ms", "4ms", "manager ratio", "shape check"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScalingSweepProducesTable(t *testing.T) {
	t.Parallel()
	code, out, errOut := runTool(t,
		"-monitors", "1,2",
		"-ops", "200",
		"-procs", "1",
		"-intervals", "2ms",
	)
	if code != 0 {
		t.Fatalf("exit = %d, err=%q\n%s", code, errOut, out)
	}
	for _, want := range []string{"E4 (scaling)", "hold-world", "per-monitor", "events/sec", "shape check"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScalingGlobalLockFlag(t *testing.T) {
	t.Parallel()
	code, out, errOut := runTool(t,
		"-monitors", "1",
		"-ops", "100",
		"-procs", "1",
		"-globallock",
	)
	if code != 0 {
		t.Fatalf("exit = %d, err=%q\n%s", code, errOut, out)
	}
	if !strings.Contains(out, "db=global-lock") {
		t.Errorf("output missing global-lock marker:\n%s", out)
	}
}

func TestBadMonitorCountRejected(t *testing.T) {
	t.Parallel()
	code, _, errOut := runTool(t, "-monitors", "several")
	if code != 2 || !strings.Contains(errOut, "bad monitor count") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestScalingRejectsIntervalSweep(t *testing.T) {
	t.Parallel()
	code, _, errOut := runTool(t, "-monitors", "1,2", "-intervals", "2ms,4ms")
	if code != 2 || !strings.Contains(errOut, "single -intervals") {
		t.Fatalf("code=%d err=%q, want rejection of multi-interval scaling sweep", code, errOut)
	}
}

func TestTable1ReportsThroughput(t *testing.T) {
	t.Parallel()
	code, out, errOut := runTool(t,
		"-intervals", "2ms",
		"-ops", "200",
		"-procs", "1",
		"-repeats", "1",
		"-workloads", "manager",
	)
	if code != 0 {
		t.Fatalf("exit = %d, err=%q\n%s", code, errOut, out)
	}
	if !strings.Contains(out, "events/sec") {
		t.Errorf("detail table missing events/sec column:\n%s", out)
	}
}

func TestBadIntervalRejected(t *testing.T) {
	t.Parallel()
	code, _, errOut := runTool(t, "-intervals", "soon")
	if code != 2 || !strings.Contains(errOut, "bad interval") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	t.Parallel()
	code, _, errOut := runTool(t,
		"-workloads", "blockchain",
		"-intervals", "2ms", "-ops", "100", "-procs", "1", "-repeats", "1")
	if code != 1 || !strings.Contains(errOut, "unknown workload") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestBadFlagRejected(t *testing.T) {
	t.Parallel()
	code, _, _ := runTool(t, "-nonsense")
	if code != 2 {
		t.Fatalf("code=%d, want 2", code)
	}
}

func TestJSONArtefactWritten(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "BENCH_scaling.json")
	code, out, errOut := runTool(t,
		"-monitors", "1,2",
		"-ops", "200",
		"-procs", "1",
		"-intervals", "2ms",
		"-json", path,
	)
	if code != 0 {
		t.Fatalf("exit = %d, err=%q\n%s", code, errOut, out)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("artefact not written: %v", err)
	}
	var art struct {
		Kind        string           `json:"kind"`
		GeneratedAt string           `json:"generated_at"`
		Config      map[string]any   `json:"config"`
		Rows        []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(blob, &art); err != nil {
		t.Fatalf("artefact is not valid JSON: %v", err)
	}
	if art.Kind != "E4-scaling" || art.GeneratedAt == "" {
		t.Fatalf("artefact header = %q/%q", art.Kind, art.GeneratedAt)
	}
	if len(art.Rows) != 4 { // 2 monitor counts × 2 checkpoint modes
		t.Fatalf("artefact has %d rows, want 4", len(art.Rows))
	}
	for i, r := range art.Rows {
		if _, ok := r["events_per_sec"]; !ok {
			t.Fatalf("row %d missing events_per_sec: %v", i, r)
		}
	}
}

func TestJSONArtefactOverheadSweep(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "bench.json")
	code, _, errOut := runTool(t,
		"-intervals", "2ms",
		"-ops", "200",
		"-procs", "2",
		"-repeats", "1",
		"-workloads", "manager",
		"-json", path,
	)
	if code != 0 {
		t.Fatalf("exit = %d, err=%q", code, errOut)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("artefact not written: %v", err)
	}
	var art struct {
		Kind string           `json:"kind"`
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(blob, &art); err != nil {
		t.Fatalf("artefact is not valid JSON: %v", err)
	}
	if art.Kind != "E2-overhead" || len(art.Rows) != 1 {
		t.Fatalf("artefact = kind %q with %d rows, want E2-overhead with 1", art.Kind, len(art.Rows))
	}
}

func TestTraceStoreStandaloneArtefactAndSelfGate(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "store.json")
	code, out, errOut := runTool(t, "-tracestore", "-repeats", "1", "-json", path)
	if code != 0 {
		t.Fatalf("exit = %d, err=%q\n%s", code, errOut, out)
	}
	for _, want := range []string{"E5 (trace store)", "full", "seek", "faster than a full ReadDir"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Kind string           `json:"kind"`
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(blob, &art); err != nil {
		t.Fatal(err)
	}
	if art.Kind != "E5-tracestore" || len(art.Rows) != 2 {
		t.Fatalf("artefact kind=%q rows=%d, want E5-tracestore with 2 rows", art.Kind, len(art.Rows))
	}
	for _, row := range art.Rows {
		if _, ok := row["events_per_sec"].(float64); !ok {
			t.Fatalf("row missing events_per_sec: %+v", row)
		}
		if row["bench"] != "tracestore" {
			t.Fatalf("row missing the bench key that separates E5 from E4 rows: %+v", row)
		}
	}
	// A sweep gated against its own artefact must pass (the CI gate's
	// happy path).
	code, _, errOut = runTool(t, "-tracestore", "-repeats", "1", "-baseline", path, "-tolerance", "0.99")
	if code != 0 {
		t.Fatalf("self-baseline gate failed: %s", errOut)
	}
}

// Not parallel: E9's peak heap is a process-wide reading, so the
// sweep must not share the test process with the other sweeps' live
// data.
func TestSoakStandaloneArtefactAndSelfGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "soak.json")
	code, out, errOut := runTool(t, "-soak", "-repeats", "1", "-json", path)
	if code != 0 {
		t.Fatalf("exit = %d, err=%q\n%s", code, errOut, out)
	}
	for _, want := range []string{"E9 (long-horizon compaction)", "peak heap", "larger backlog costs"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Kind string           `json:"kind"`
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(blob, &art); err != nil {
		t.Fatal(err)
	}
	// Default sweep: one row per backlog size.
	if art.Kind != "E9-soak" || len(art.Rows) != 2 {
		t.Fatalf("artefact kind=%q rows=%d, want E9-soak with 2 rows", art.Kind, len(art.Rows))
	}
	for _, row := range art.Rows {
		for _, field := range []string{"peak_heap_bytes", "bytes_reclaimed", "bytes_in", "events_dropped", "elapsed_ns"} {
			if _, ok := row[field].(float64); !ok {
				t.Fatalf("row missing %s: %+v", field, row)
			}
		}
		if row["bench"] != "soak" {
			t.Fatalf("row missing the bench key that separates E9 from the other rows: %+v", row)
		}
	}
	// A sweep gated against its own artefact must pass (the CI gate's
	// happy path, heap ceiling included).
	code, _, errOut = runTool(t, "-soak", "-repeats", "1", "-baseline", path, "-tolerance", "0.99")
	if code != 0 {
		t.Fatalf("self-baseline gate failed: %s", errOut)
	}
}

// Not parallel, like the E9 test: allocs/event counts the whole
// process's allocations, so other sweeps running alongside would be
// billed to the record path.
func TestRecordPathStandaloneArtefactAndSelfGate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rp.json")
	code, out, errOut := runTool(t, "-recordpath", "-repeats", "1", "-json", path)
	if code != 0 {
		t.Fatalf("exit = %d, err=%q", code, errOut)
	}
	for _, want := range []string{"E6 (record path)", "allocs/event", "batched ingest is"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Kind string           `json:"kind"`
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(blob, &art); err != nil {
		t.Fatal(err)
	}
	// Default sweep: 2 monitor counts x 2 modes.
	if art.Kind != "E6-recordpath" || len(art.Rows) != 4 {
		t.Fatalf("artefact kind=%q rows=%d, want E6-recordpath with 4 rows", art.Kind, len(art.Rows))
	}
	for _, row := range art.Rows {
		for _, field := range []string{"events_per_sec", "ns_per_event", "bytes_per_event", "allocs_per_event"} {
			if _, ok := row[field].(float64); !ok {
				t.Fatalf("row missing %s: %+v", field, row)
			}
		}
		if row["bench"] != "recordpath" {
			t.Fatalf("row missing the bench key that separates E6 from E4/E5 rows: %+v", row)
		}
	}
	// A sweep gated against its own artefact must pass (the CI gate's
	// happy path, alloc ceiling included).
	code, _, errOut = runTool(t, "-recordpath", "-repeats", "1", "-baseline", path, "-tolerance", "0.99")
	if code != 0 {
		t.Fatalf("self-baseline gate failed: %s", errOut)
	}
}
