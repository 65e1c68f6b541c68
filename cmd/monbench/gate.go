// The perf gate: compare a fresh sweep artefact against a committed
// baseline (BENCH_scaling.json) and fail on regression. CI builds
// monbench, reruns the baseline's sweep configuration and calls this
// via -baseline; a PR that slows recording throughput or inflates
// checkpoint tail latency beyond the tolerance fails its gate job.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// latencyFloorNs is the absolute slack applied to latency comparisons:
// p99 deltas below this are scheduler noise on any host (CI containers
// routinely jitter checkpoint tails by several ms, and p99 is
// nearest-rank — the worst observed checkpoint, the noisiest possible
// statistic), not regressions, however large they are relatively. The
// latency gate exists to catch order-of-magnitude stalls — an
// unbatched drain of a huge shard puts p99 tens to hundreds of ms
// over the baseline — while throughput stays the fine-grained
// ±tolerance signal, since it is averaged over the whole run and far
// more stable.
const latencyFloorNs = float64(10 * time.Millisecond)

// allocFloorPerEvent is the absolute slack applied to the E6
// allocs-per-event comparison. The record path's steady state is a few
// thousandths of an allocation per event (pooled slabs amortised over
// drains), so relative tolerance alone would flag GC-assist noise; the
// gate exists to catch an allocation creeping back into the per-event
// hot loop, which jumps the metric by ~1 (one heap object per event)
// or at least ~1/batch-size per staged block. A quarter of an
// allocation per event separates those decisively from noise.
const allocFloorPerEvent = 0.25

// heapFloorBytes is the absolute slack applied to the E9
// peak-heap comparison. The live-heap high-water is read at GC cycle
// ends, so which cycle lands at the pass's busiest moment varies and a
// few megabytes of jitter between runs is normal on any host; the gate
// exists to catch the streaming compactor regressing to whole-backlog
// buffering, which inflates the peak by the decoded backlog — tens of
// megabytes at the E9 sweep sizes.
const heapFloorBytes = float64(8 << 20)

// rowKey identifies a sweep cell across artefacts: every config-like
// field of the row, i.e. everything except the measurements.
func rowKey(row map[string]any) string {
	measurements := map[string]bool{
		"events_per_sec": true, "elapsed_ns": true, "checks": true,
		"events": true, "ratio": true,
		"checkpoint_p50_ns": true, "checkpoint_p99_ns": true,
		"files_opened": true, "files_total": true,
		"ns_per_event": true, "bytes_per_event": true, "allocs_per_event": true,
		"overhead_pct": true, "records": true, "records_per_sec": true,
		"peak_heap_bytes": true, "bytes_in": true, "bytes_reclaimed": true,
		"events_dropped": true, "files_in": true, "files_out": true,
		"transitions": true,
	}
	keys := make([]string, 0, len(row))
	for k := range row {
		if !measurements[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%s=%v|", k, row[k])
	}
	return out
}

// num extracts a numeric field from a normalized row (absent or
// non-numeric fields read as not-ok). Rows reach comparisons only
// after a JSON round-trip, so every number is a float64.
func num(row map[string]any, field string) (float64, bool) {
	v, ok := row[field].(float64)
	return v, ok
}

// normalize round-trips a value through JSON so in-memory artefacts
// (ints, time.Durations) and unmarshalled baselines (float64
// everywhere) compare under one type regime.
func normalize[T any](v T) (T, error) {
	var out T
	blob, err := json.Marshal(v)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(blob, &out); err != nil {
		return out, err
	}
	return out, nil
}

// compareArtefacts matches fresh rows to baseline rows by key and
// returns one message per regression: events/sec dropping more than
// tol below the baseline, or checkpoint p99 rising more than tol (and
// more than latencyFloorNs) above it. Baseline rows with no fresh
// counterpart are ignored (sweep configs may shrink); zero matched
// rows is itself an error, since it means the gate compared nothing.
func compareArtefacts(baseline, fresh []map[string]any, tol float64) ([]string, error) {
	base := make(map[string]map[string]any, len(baseline))
	for _, row := range baseline {
		base[rowKey(row)] = row
	}
	matched := 0
	var regressions []string
	for _, row := range fresh {
		bRow, ok := base[rowKey(row)]
		if !ok {
			continue
		}
		matched++
		// Collector (E8) rows measure TCP-loopback shipping all the way
		// to fsynced-ack durability; their per-cell medians spread ~±15%
		// between runs on an idle host (more on shared runners), so the
		// fine-grained band would flake. They gate at twice the
		// tolerance — still catching the wire-path failure classes worth
		// gating (a per-record fsync, a busy-waiting shipper, handshake
		// storms), all of which cost well over half the throughput.
		epsTol := tol
		if kind, _ := row["bench"].(string); kind == "collector" {
			epsTol = 2 * tol
		}
		if bEPS, ok := num(bRow, "events_per_sec"); ok && bEPS > 0 {
			if fEPS, ok := num(row, "events_per_sec"); ok && fEPS < bEPS*(1-epsTol) {
				regressions = append(regressions, fmt.Sprintf(
					"%s events/sec %.0f < baseline %.0f −%d%%",
					rowKey(row), fEPS, bEPS, int(epsTol*100)))
			}
		}
		if bP99, ok := num(bRow, "checkpoint_p99_ns"); ok && bP99 > 0 {
			if fP99, ok := num(row, "checkpoint_p99_ns"); ok &&
				fP99 > bP99*(1+tol) && fP99-bP99 > latencyFloorNs {
				regressions = append(regressions, fmt.Sprintf(
					"%s checkpoint p99 %v > baseline %v +%d%%",
					rowKey(row), time.Duration(fP99), time.Duration(bP99), int(tol*100)))
			}
		}
		// The memory ceiling (E9 soak rows): the streaming compaction
		// pass's peak heap must not rise beyond both the relative
		// tolerance and the absolute sampler-noise floor — a regression
		// here means compaction memory started tracking the backlog.
		if bPeak, ok := num(bRow, "peak_heap_bytes"); ok && bPeak > 0 {
			if fPeak, ok := num(row, "peak_heap_bytes"); ok &&
				fPeak > bPeak*(1+tol) && fPeak-bPeak > heapFloorBytes {
				regressions = append(regressions, fmt.Sprintf(
					"%s peak heap %.1f MiB > baseline %.1f MiB +%d%%",
					rowKey(row), fPeak/(1<<20), bPeak/(1<<20), int(tol*100)))
			}
		}
		// The alloc ceiling (E6 record-path rows): allocations per event
		// must not rise beyond both the relative tolerance and the
		// absolute noise floor. Baselines at exactly zero still gate via
		// the floor — the relative band is degenerate there.
		if bAPE, ok := num(bRow, "allocs_per_event"); ok {
			if fAPE, ok := num(row, "allocs_per_event"); ok &&
				fAPE > bAPE*(1+tol) && fAPE-bAPE > allocFloorPerEvent {
				regressions = append(regressions, fmt.Sprintf(
					"%s allocs/event %.3f > baseline %.3f (ceiling %.3f)",
					rowKey(row), fAPE, bAPE, bAPE*(1+tol)+allocFloorPerEvent))
			}
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("no fresh row matched any baseline row — key schema drift? regenerate the baseline")
	}
	return regressions, nil
}

// gateAgainstBaseline loads the baseline artefact, compares the fresh
// sweep against it and reports the verdict. Returns a process exit
// code: 0 pass, 1 regression or error.
func gateAgainstBaseline(path string, fresh benchArtefact, tol float64, out, errOut io.Writer) int {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(errOut, "monbench: read baseline: %v\n", err)
		return 1
	}
	var base benchArtefact
	if err := json.Unmarshal(blob, &base); err != nil {
		fmt.Fprintf(errOut, "monbench: parse baseline %s: %v\n", path, err)
		return 1
	}
	if base.Kind != fresh.Kind {
		fmt.Fprintf(errOut, "monbench: baseline kind %q, fresh sweep kind %q — not comparable\n",
			base.Kind, fresh.Kind)
		return 1
	}
	// Row keys carry only per-cell config (monitors, modes); the sweep
	// parameters live in the config block. A fresh sweep run with
	// different ops/procs/interval would silently key-match baseline
	// rows and gate apples against oranges — reject it instead. Keys
	// present on one side only are tolerated (schema evolution), but
	// every shared key must agree.
	freshCfg, err := normalize(fresh.Config)
	if err != nil {
		fmt.Fprintf(errOut, "monbench: %v\n", err)
		return 1
	}
	for k, bv := range base.Config {
		if fv, ok := freshCfg[k]; ok && fmt.Sprint(fv) != fmt.Sprint(bv) {
			fmt.Fprintf(errOut, "monbench: baseline config %s=%v but fresh sweep ran %s=%v — rerun with the baseline's configuration (or regenerate the baseline)\n",
				k, bv, k, fv)
			return 1
		}
	}
	freshRows, err := normalize(fresh.Rows)
	if err != nil {
		fmt.Fprintf(errOut, "monbench: %v\n", err)
		return 1
	}
	regressions, err := compareArtefacts(base.Rows, freshRows, tol)
	if err != nil {
		fmt.Fprintf(errOut, "monbench: perf gate: %v\n", err)
		return 1
	}
	if len(regressions) > 0 {
		fmt.Fprintf(errOut, "monbench: perf gate FAILED against %s (tolerance ±%d%%):\n",
			path, int(tol*100))
		for _, r := range regressions {
			fmt.Fprintf(errOut, "  %s\n", r)
		}
		return 1
	}
	fmt.Fprintf(out, "\nperf gate passed against %s (tolerance ±%d%%)\n", path, int(tol*100))
	return 0
}
