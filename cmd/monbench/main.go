// Command monbench regenerates the paper's Table 1: the overhead ratio
// of the augmented monitor construct (history recording + periodic
// fault detection) over the bare monitor, swept across checking
// intervals and the three monitor-class workloads.
//
//	monbench                      # paper-scale sweep (0.5s, 1s, 2s, 3s)
//	monbench -quick               # scaled-down sweep for a fast look
//	monbench -intervals 250ms,1s  # custom intervals
//	monbench -arch                # print the Figure 1 architecture
//	monbench -monitors 1,4,16     # E4: many-monitor scaling sweep
//	monbench ... -json BENCH_scaling.json   # also write a machine-readable artefact
//
// Absolute ratios depend on the host; the paper's shape — the ratio
// falls as the checking interval grows — is what to compare. Every
// sweep also reports events/sec (recording throughput) so successive
// PRs can track the performance trajectory; -json persists the sweep
// (config, rows, events/sec) as a JSON artefact for exactly that
// tracking.
//
// The -monitors sweep drives N independent monitors into one sharded
// history database and one detector, comparing the paper-faithful
// stop-the-world checkpoint against the per-monitor pipeline;
// -globallock reruns it on the legacy single-mutex database to show
// the contention the sharding removed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"robustmon/internal/experiment"
)

// benchArtefact is the schema of the -json perf artefact tracked
// across PRs (e.g. BENCH_scaling.json).
type benchArtefact struct {
	// Kind is "E2-overhead" or "E4-scaling".
	Kind string `json:"kind"`
	// GeneratedAt is the RFC 3339 UTC instant the sweep finished.
	GeneratedAt string `json:"generated_at"`
	// Config echoes the sweep parameters so rows are comparable.
	Config map[string]any `json:"config"`
	// Rows hold one entry per sweep cell; events_per_sec is the
	// headline trajectory metric.
	Rows []map[string]any `json:"rows"`
}

// writeArtefact marshals the artefact to path (pretty-printed, so
// diffs between PRs stay reviewable).
func writeArtefact(path string, a benchArtefact) error {
	blob, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o666)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool against args, writing to out/errOut; split from
// main for testability.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("monbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		arch      = fs.Bool("arch", false, "print the Figure 1 architecture and exit")
		quick     = fs.Bool("quick", false, "scaled-down sweep (ms intervals, fewer ops)")
		intervals = fs.String("intervals", "", "comma-separated checking intervals (e.g. 500ms,1s,2s,3s)")
		ops       = fs.Int("ops", 0, "monitor operations per measurement (0 = default)")
		procs     = fs.Int("procs", 0, "concurrent processes (0 = default)")
		repeats   = fs.Int("repeats", 0, "repetitions per cell (0 = default); E4 reports the per-metric median")
		workloads = fs.String("workloads", "", "comma-separated workloads: coordinator,allocator,manager")
		suspend   = fs.Duration("suspend", 0, "simulated per-checkpoint process-suspension cost (models the 2001 JVM prototype; 0 = native)")
		monitors  = fs.String("monitors", "", "comma-separated monitor counts for the E4 scaling sweep (e.g. 1,4,16); empty = run E2 instead. E4 honours -ops, -procs, a single -intervals value, -workers, -globallock, -adaptive and -batch; the other E2 flags do not apply")
		workers   = fs.Int("workers", 0, "checkpoint worker-pool bound for -monitors (0 = auto)")
		global    = fs.Bool("globallock", false, "run -monitors against the legacy single-mutex history database")
		adaptive  = fs.Bool("adaptive", false, "add adaptive-scheduler rows to the -monitors sweep (per-monitor intervals next to every fixed-T cell)")
		batch     = fs.Int("batch", 0, "batched-replay batch size for the -monitors sweep (0 = unbatched)")
		store     = fs.Bool("tracestore", false, "add the E5 trace-store rows (full ReadDir vs index-backed windowed SeekReader over a synthetic export directory); combines with -monitors into one artefact, or runs standalone")
		record    = fs.Bool("recordpath", false, "add the E6 record-path rows (singleton DB.Append vs BatchWriter ingest under concurrent producers: events/sec, ns/event, B/event, allocs/event); combines with -monitors into one artefact, or runs standalone")
		obsover   = fs.Bool("obsoverhead", false, "add the E7 self-observability rows (instrumented vs stripped ingest throughput, plus the bare-increment allocation profile); combines with -monitors into one artefact, or runs standalone")
		collector = fs.Bool("collector", false, "add the E8 collector rows (N NetSink producers over loopback into one fleet collector vs a single-process WALSink baseline); combines with -monitors into one artefact, or runs standalone")
		soakf     = fs.Bool("soak", false, "add the E9 long-horizon compaction rows (streaming retention pass over backlogs many times the chunk budget: peak heap, bytes reclaimed); combines with -monitors into one artefact, or runs standalone")
		obsrulesf = fs.Bool("obsrules", false, "add the E10 threshold-rule rows (rule-engine Eval cost per registry snapshot, quiet vs flapping, with the quiet path's zero-alloc claim gated); combines with -monitors into one artefact, or runs standalone")
		batchw    = fs.Bool("batchwriters", false, "wire the -monitors workload through lock-free BatchWriters instead of direct DB.Append (the raw-speed record path under the full monitor protocol)")
		jsonPath  = fs.String("json", "", "also write the sweep results as a JSON artefact to this path (e.g. BENCH_scaling.json)")
		baseline  = fs.String("baseline", "", "perf gate: compare the fresh sweep against this JSON artefact and exit non-zero on regression")
		tolerance = fs.Float64("tolerance", 0.25, "perf gate: relative tolerance for -baseline comparisons")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *arch {
		fmt.Fprint(out, experiment.Figure1().String())
		if err := experiment.VerifyFigure1(); err != nil {
			fmt.Fprintf(errOut, "monbench: architecture verification FAILED: %v\n", err)
			return 1
		}
		fmt.Fprintln(out, "\narchitecture verified: every edge carries data (E3)")
		return 0
	}

	if *monitors != "" {
		return runScaling(scalingFlags{
			monitorCounts: *monitors,
			ops:           *ops,
			procs:         *procs,
			repeats:       *repeats,
			intervals:     *intervals,
			workers:       *workers,
			global:        *global,
			adaptive:      *adaptive,
			batch:         *batch,
			batchwriters:  *batchw,
			tracestore:    *store,
			recordpath:    *record,
			obsoverhead:   *obsover,
			collector:     *collector,
			soak:          *soakf,
			obsrules:      *obsrulesf,
			jsonPath:      *jsonPath,
			baseline:      *baseline,
			tolerance:     *tolerance,
		}, out, errOut)
	}

	if *store || *record || *obsover || *collector || *soakf || *obsrulesf {
		// Standalone E5/E6/E7/E8/E9/E10: their own artefact kinds; several
		// flags at once share one artefact (the rows are keyed apart by
		// "bench").
		var kinds []string
		art := benchArtefact{
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			Config:      map[string]any{},
		}
		if *store {
			rows, cfgEntries, code := runTraceStore(*repeats, out, errOut)
			if code != 0 {
				return code
			}
			kinds = append(kinds, "E5-tracestore")
			art.Rows = append(art.Rows, rows...)
			for k, v := range cfgEntries {
				art.Config[k] = v
			}
		}
		if *record {
			if *store {
				fmt.Fprintln(out)
			}
			rows, cfgEntries, code := runRecordPathSweep(*repeats, out, errOut)
			if code != 0 {
				return code
			}
			kinds = append(kinds, "E6-recordpath")
			art.Rows = append(art.Rows, rows...)
			for k, v := range cfgEntries {
				art.Config[k] = v
			}
		}
		if *obsover {
			if *store || *record {
				fmt.Fprintln(out)
			}
			rows, cfgEntries, code := runObsOverheadSweep(*repeats, out, errOut)
			if code != 0 {
				return code
			}
			kinds = append(kinds, "E7-obsoverhead")
			art.Rows = append(art.Rows, rows...)
			for k, v := range cfgEntries {
				art.Config[k] = v
			}
		}
		if *collector {
			if *store || *record || *obsover {
				fmt.Fprintln(out)
			}
			rows, cfgEntries, code := runCollectorSweep(*repeats, out, errOut)
			if code != 0 {
				return code
			}
			kinds = append(kinds, "E8-collector")
			art.Rows = append(art.Rows, rows...)
			for k, v := range cfgEntries {
				art.Config[k] = v
			}
		}
		if *soakf {
			if *store || *record || *obsover || *collector {
				fmt.Fprintln(out)
			}
			rows, cfgEntries, code := runSoakSweep(*repeats, out, errOut)
			if code != 0 {
				return code
			}
			kinds = append(kinds, "E9-soak")
			art.Rows = append(art.Rows, rows...)
			for k, v := range cfgEntries {
				art.Config[k] = v
			}
		}
		if *obsrulesf {
			if *store || *record || *obsover || *collector || *soakf {
				fmt.Fprintln(out)
			}
			rows, cfgEntries, code := runObsRulesSweep(*repeats, out, errOut)
			if code != 0 {
				return code
			}
			kinds = append(kinds, "E10-obsrules")
			art.Rows = append(art.Rows, rows...)
			for k, v := range cfgEntries {
				art.Config[k] = v
			}
		}
		art.Kind = strings.Join(kinds, "+")
		if *jsonPath != "" {
			if err := writeArtefact(*jsonPath, art); err != nil {
				fmt.Fprintf(errOut, "monbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(out, "\nwrote %s\n", *jsonPath)
		}
		if *baseline != "" {
			return gateAgainstBaseline(*baseline, art, *tolerance, out, errOut)
		}
		return 0
	}

	cfg := experiment.DefaultOverheadConfig()
	if *quick {
		cfg.Intervals = []time.Duration{
			5 * time.Millisecond, 10 * time.Millisecond,
			20 * time.Millisecond, 30 * time.Millisecond,
		}
		cfg.Ops = 4000
		cfg.Repeats = 2
	}
	if *intervals != "" {
		cfg.Intervals = nil
		for _, s := range strings.Split(*intervals, ",") {
			d, err := time.ParseDuration(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(errOut, "monbench: bad interval %q: %v\n", s, err)
				return 2
			}
			cfg.Intervals = append(cfg.Intervals, d)
		}
	}
	if *workloads != "" {
		cfg.Workloads = nil
		for _, s := range strings.Split(*workloads, ",") {
			cfg.Workloads = append(cfg.Workloads, experiment.Workload(strings.TrimSpace(s)))
		}
	}
	if *ops > 0 {
		cfg.Ops = *ops
	}
	if *procs > 0 {
		cfg.Procs = *procs
	}
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}
	cfg.SuspendOverhead = *suspend

	fmt.Fprintf(out, "E2 (Table 1): ops=%d procs=%d repeats=%d suspend=%v\n\n",
		cfg.Ops, cfg.Procs, cfg.Repeats, cfg.SuspendOverhead)
	rows, err := experiment.RunOverhead(cfg)
	if err != nil {
		fmt.Fprintf(errOut, "monbench: %v\n", err)
		return 1
	}
	fmt.Fprint(out, experiment.Table1(rows).String())
	fmt.Fprintln(out)
	detail := experiment.NewTable("workload", "interval", "checks", "events", "ratio", "events/sec")
	for _, r := range rows {
		// Events are summed over cfg.Repeats extended runs of mean
		// duration r.Extended, so throughput is Events/(Repeats·Extended).
		var eps float64
		if total := r.Extended.Seconds() * float64(cfg.Repeats); total > 0 {
			eps = float64(r.Events) / total
		}
		detail.AddRow(string(r.Workload), r.Interval.String(),
			fmt.Sprint(r.Checks), fmt.Sprint(r.Events),
			experiment.FormatRatio(r.Ratio), experiment.FormatEventsPerSec(eps))
	}
	fmt.Fprint(out, detail.String())
	fmt.Fprintln(out, "\npaper's shape check: ratio should fall as the interval grows;")
	fmt.Fprintln(out, "the paper reports ≈7x at 0.5s falling toward ≈4x at 3.0s (2001 JVM).")
	art := benchArtefact{
		Kind:        "E2-overhead",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Config: map[string]any{
			"ops": cfg.Ops, "procs": cfg.Procs, "repeats": cfg.Repeats,
			"suspend_ns": cfg.SuspendOverhead.Nanoseconds(),
		},
	}
	for _, r := range rows {
		var eps float64
		if total := r.Extended.Seconds() * float64(cfg.Repeats); total > 0 {
			eps = float64(r.Events) / total
		}
		art.Rows = append(art.Rows, map[string]any{
			"workload": string(r.Workload), "interval_ns": r.Interval.Nanoseconds(),
			"ratio": r.Ratio, "checks": r.Checks, "events": r.Events,
			"events_per_sec": eps,
		})
	}
	if *jsonPath != "" {
		if err := writeArtefact(*jsonPath, art); err != nil {
			fmt.Fprintf(errOut, "monbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "\nwrote %s\n", *jsonPath)
	}
	if *baseline != "" {
		return gateAgainstBaseline(*baseline, art, *tolerance, out, errOut)
	}
	return 0
}

// scalingFlags carries the E4 sweep's command-line configuration.
type scalingFlags struct {
	monitorCounts string
	ops, procs    int
	repeats       int
	intervals     string
	workers       int
	global        bool
	adaptive      bool
	batch         int
	batchwriters  bool
	tracestore    bool
	recordpath    bool
	obsoverhead   bool
	collector     bool
	soak          bool
	obsrules      bool
	jsonPath      string
	baseline      string
	tolerance     float64
}

// runTraceStore executes the E5 trace-store sweep and returns its
// artefact rows and config entries (exit code non-zero on failure).
// The rows carry "bench":"tracestore" so they can share an artefact
// with E4 rows without colliding in the gate's key space.
func runTraceStore(repeats int, out, errOut io.Writer) ([]map[string]any, map[string]any, int) {
	cfg := experiment.DefaultTraceStoreConfig()
	if repeats > 0 {
		cfg.Repeats = repeats
	}
	fmt.Fprintf(out, "E5 (trace store): events=%d monitors=%d segment=%d window=%.0f%% repeats=%d\n\n",
		cfg.Events, cfg.Monitors, cfg.SegmentEvents, cfg.Window*100, cfg.Repeats)
	rows, err := experiment.RunTraceStore(cfg)
	if err != nil {
		fmt.Fprintf(errOut, "monbench: %v\n", err)
		return nil, nil, 1
	}
	fmt.Fprint(out, experiment.TraceStoreTable(rows).String())
	var full, seek time.Duration
	for _, r := range rows {
		switch r.Mode {
		case "full":
			full = r.Elapsed
		case "seek":
			seek = r.Elapsed
		}
	}
	if seek > 0 {
		fmt.Fprintf(out, "\nwindowed replay is %.1fx faster than a full ReadDir for a %.0f%% window\n",
			float64(full)/float64(seek), cfg.Window*100)
	}
	var artRows []map[string]any
	for _, r := range rows {
		artRows = append(artRows, map[string]any{
			"bench": "tracestore", "replay": r.Mode,
			"events": r.Events, "elapsed_ns": r.Elapsed.Nanoseconds(),
			"events_per_sec": r.EventsPerSec,
			"files_opened":   r.FilesOpened, "files_total": r.FilesTotal,
		})
	}
	cfgEntries := map[string]any{
		"store_events": cfg.Events, "store_monitors": cfg.Monitors,
		"store_segment_events": cfg.SegmentEvents,
		"store_max_file_bytes": cfg.MaxFileBytes,
		"store_window":         cfg.Window,
		"store_repeats":        cfg.Repeats,
	}
	return artRows, cfgEntries, 0
}

// runRecordPathSweep executes the E6 record-path sweep and returns its
// artefact rows and config entries (exit code non-zero on failure).
// The rows carry "bench":"recordpath" so they can share an artefact
// with E4/E5 rows without colliding in the gate's key space; the
// bytes/allocs-per-event measurements are gated alongside events/sec,
// so an allocation creeping back into the ingest hot loop fails CI
// like a throughput regression does.
func runRecordPathSweep(repeats int, out, errOut io.Writer) ([]map[string]any, map[string]any, int) {
	cfg := experiment.DefaultRecordPathConfig()
	if repeats > 0 {
		cfg.Repeats = repeats
	}
	fmt.Fprintf(out, "E6 (record path): producers/monitor=%d events/producer=%d batch=%d drain-every=%d repeats=%d\n\n",
		cfg.ProducersPerMonitor, cfg.EventsPerProducer, cfg.Batch, cfg.DrainEveryEvents, cfg.Repeats)
	rows, err := experiment.RunRecordPath(cfg)
	if err != nil {
		fmt.Fprintf(errOut, "monbench: %v\n", err)
		return nil, nil, 1
	}
	fmt.Fprint(out, experiment.RecordPathTable(rows).String())
	// Headline: batch speedup over singleton Append at the largest
	// monitor count (the acceptance shape).
	byMode := map[string]experiment.RecordPathRow{}
	maxMon := 0
	for _, r := range rows {
		if r.Monitors > maxMon {
			maxMon = r.Monitors
		}
	}
	for _, r := range rows {
		if r.Monitors == maxMon {
			byMode[r.Mode] = r
		}
	}
	if a, b := byMode["append"], byMode["batch"]; a.EventsPerSec > 0 {
		fmt.Fprintf(out, "\nbatched ingest is %.1fx the singleton-Append rate at %d monitors\n",
			b.EventsPerSec/a.EventsPerSec, maxMon)
	}
	var artRows []map[string]any
	for _, r := range rows {
		artRows = append(artRows, map[string]any{
			"bench": "recordpath", "mode": r.Mode,
			"monitors": r.Monitors, "producers": r.Producers, "batch": r.Batch,
			"events": r.Events, "elapsed_ns": r.Elapsed.Nanoseconds(),
			"events_per_sec": r.EventsPerSec, "ns_per_event": r.NsPerEvent,
			"bytes_per_event": r.BytesPerEvent, "allocs_per_event": r.AllocsPerEvent,
		})
	}
	cfgEntries := map[string]any{
		"recordpath_producers_per_monitor": cfg.ProducersPerMonitor,
		"recordpath_events_per_producer":   cfg.EventsPerProducer,
		"recordpath_batch":                 cfg.Batch,
		"recordpath_drain_every":           cfg.DrainEveryEvents,
		"recordpath_repeats":               cfg.Repeats,
	}
	return artRows, cfgEntries, 0
}

// obsOverheadSelfGatePct is the standalone sanity bound on the E7
// instrumented-vs-stripped throughput cost: an overhead past half the
// stripped rate means the "nil-check or one atomic" contract broke
// (a lock or allocation landed on the hot path), which no container
// noise produces. Finer regressions are the baseline gate's job.
const obsOverheadSelfGatePct = 50.0

// runObsOverheadSweep executes the E7 self-observability sweep and
// returns its artefact rows and config entries (exit code non-zero on
// failure). The rows carry "bench":"obsoverhead"; the increment row's
// allocs-per-event is the allocation-free claim and is self-gated
// against the gate's own noise floor — instrumentation that allocates
// per increment fails here even without a baseline. The instrumented
// row's events/sec rides the normal baseline gate, so creeping
// overhead fails CI like any throughput regression.
func runObsOverheadSweep(repeats int, out, errOut io.Writer) ([]map[string]any, map[string]any, int) {
	cfg := experiment.DefaultObsOverheadConfig()
	if repeats > 0 {
		cfg.Repeats = repeats
	}
	fmt.Fprintf(out, "E7 (obs overhead): monitors=%d producers/monitor=%d events/producer=%d increment-ops=%d repeats=%d\n\n",
		cfg.Monitors, cfg.ProducersPerMonitor, cfg.EventsPerProducer, cfg.IncrementOps, cfg.Repeats)
	rows, err := experiment.RunObsOverhead(cfg)
	if err != nil {
		fmt.Fprintf(errOut, "monbench: %v\n", err)
		return nil, nil, 1
	}
	fmt.Fprint(out, experiment.ObsOverheadTable(rows).String())
	for _, r := range rows {
		switch r.Mode {
		case "instrumented":
			fmt.Fprintf(out, "\ninstrumentation costs %.2f%% of stripped ingest throughput\n", r.OverheadPct)
			if r.OverheadPct > obsOverheadSelfGatePct {
				fmt.Fprintf(errOut, "monbench: obs overhead %.2f%% exceeds the %.0f%% sanity bound — instrumentation is no longer allocation- and lock-free\n",
					r.OverheadPct, obsOverheadSelfGatePct)
				return nil, nil, 1
			}
		case "increment":
			if r.AllocsPerEvent > allocFloorPerEvent {
				fmt.Fprintf(errOut, "monbench: obs increment path allocates %.3f/op (claim: 0, noise floor %.2f)\n",
					r.AllocsPerEvent, allocFloorPerEvent)
				return nil, nil, 1
			}
		}
	}
	var artRows []map[string]any
	for _, r := range rows {
		artRows = append(artRows, map[string]any{
			"bench": "obsoverhead", "mode": r.Mode, "monitors": r.Monitors,
			"events": r.Events, "elapsed_ns": r.Elapsed.Nanoseconds(),
			"events_per_sec": r.EventsPerSec, "ns_per_event": r.NsPerEvent,
			"allocs_per_event": r.AllocsPerEvent, "overhead_pct": r.OverheadPct,
		})
	}
	cfgEntries := map[string]any{
		"obsoverhead_monitors":              cfg.Monitors,
		"obsoverhead_producers_per_monitor": cfg.ProducersPerMonitor,
		"obsoverhead_events_per_producer":   cfg.EventsPerProducer,
		"obsoverhead_drain_every":           cfg.DrainEveryEvents,
		"obsoverhead_increment_ops":         cfg.IncrementOps,
		"obsoverhead_repeats":               cfg.Repeats,
	}
	return artRows, cfgEntries, 0
}

// runCollectorSweep executes the E8 collector sweep and returns its
// artefact rows and config entries (exit code non-zero on failure).
// The rows carry "bench":"collector" so they can share an artefact
// with the other sweeps; the fleet rows' events/sec ride the normal
// baseline gate, so a regression in the framing, ack or resume path
// fails CI like any throughput regression.
func runCollectorSweep(repeats int, out, errOut io.Writer) ([]map[string]any, map[string]any, int) {
	cfg := experiment.DefaultCollectorConfig()
	if repeats > 0 {
		cfg.Repeats = repeats
	}
	fmt.Fprintf(out, "E8 (collector): segments/producer=%d events/segment=%d repeats=%d\n\n",
		cfg.SegmentsPerProducer, cfg.EventsPerSegment, cfg.Repeats)
	rows, err := experiment.RunCollector(cfg)
	if err != nil {
		fmt.Fprintf(errOut, "monbench: %v\n", err)
		return nil, nil, 1
	}
	fmt.Fprint(out, experiment.CollectorTable(rows).String())
	// Headline: the wire-hop cost (1 fleet producer vs the local
	// baseline) and the largest fleet cell's share of local throughput.
	var local, one, widest experiment.CollectorRow
	for _, r := range rows {
		switch {
		case r.Mode == "local":
			local = r
		case r.Producers == 1:
			one = r
		}
		if r.Mode == "fleet" && r.Producers > widest.Producers {
			widest = r
		}
	}
	if local.EventsPerSec > 0 && one.EventsPerSec > 0 {
		fmt.Fprintf(out, "\none shipped producer runs at %.0f%% of local WALSink throughput; %d producers at %.0f%%\n",
			100*one.EventsPerSec/local.EventsPerSec, widest.Producers,
			100*widest.EventsPerSec/local.EventsPerSec)
	}
	var artRows []map[string]any
	for _, r := range rows {
		artRows = append(artRows, map[string]any{
			"bench": "collector", "mode": r.Mode, "producers": r.Producers,
			"records": r.Records, "events": r.Events,
			"elapsed_ns":     r.Elapsed.Nanoseconds(),
			"events_per_sec": r.EventsPerSec, "records_per_sec": r.RecordsPerSec,
		})
	}
	cfgEntries := map[string]any{
		"collector_segments_per_producer": cfg.SegmentsPerProducer,
		"collector_events_per_segment":    cfg.EventsPerSegment,
		"collector_repeats":               cfg.Repeats,
	}
	return artRows, cfgEntries, 0
}

// soakSelfGateRatio bounds how much the peak heap of the largest E9
// backlog may exceed the smallest one's. The streaming compactor's
// memory tracks the chunk budget, not the backlog, so the ratio should
// hover near 1; a 4x backlog growth pushing peak heap past this bound
// means the pass buffers the backlog again, which no sampler noise
// produces. Finer regressions are the baseline gate's job
// (peak_heap_bytes rides it like any other measurement).
const soakSelfGateRatio = 3.0

// runSoakSweep executes the E9 long-horizon compaction sweep and
// returns its artefact rows and config entries (exit code non-zero on
// failure). The rows carry "bench":"soak"; peak_heap_bytes is both
// self-gated (backlog-proportional growth fails standalone) and
// baseline-gated, so the bounded-memory claim regressing fails CI like
// a throughput regression.
func runSoakSweep(repeats int, out, errOut io.Writer) ([]map[string]any, map[string]any, int) {
	cfg := experiment.DefaultSoakBenchConfig()
	if repeats > 0 {
		cfg.Repeats = repeats
	}
	fmt.Fprintf(out, "E9 (long-horizon compaction): monitors=%d segment=%d chunk=%d retain=%.0f%% repeats=%d\n\n",
		cfg.Monitors, cfg.SegmentEvents, cfg.ChunkEvents, cfg.RetainFrac*100, cfg.Repeats)
	rows, err := experiment.RunSoakBench(cfg)
	if err != nil {
		fmt.Fprintf(errOut, "monbench: %v\n", err)
		return nil, nil, 1
	}
	fmt.Fprint(out, experiment.SoakBenchTable(rows).String())
	small, large := rows[0], rows[len(rows)-1]
	if large.Backlog > small.Backlog {
		// A pass that ends before any GC cycle reports a zero peak (the
		// live heap moves only at cycle ends); a 1 MiB denominator floor
		// keeps the ratio meaningful.
		denom := float64(small.PeakHeapBytes)
		if denom < 1<<20 {
			denom = 1 << 20
		}
		ratio := float64(large.PeakHeapBytes) / denom
		fmt.Fprintf(out, "\na %dx larger backlog costs %.1fx the peak heap (streaming bound: ~1x)\n",
			large.Backlog/small.Backlog, ratio)
		if ratio > soakSelfGateRatio && float64(large.PeakHeapBytes-small.PeakHeapBytes) > heapFloorBytes {
			fmt.Fprintf(errOut, "monbench: peak heap grew %.1fx across a %dx backlog growth (bound %.1fx) — compaction memory tracks the backlog, not the chunk budget\n",
				ratio, large.Backlog/small.Backlog, soakSelfGateRatio)
			return nil, nil, 1
		}
	}
	var artRows []map[string]any
	for _, r := range rows {
		artRows = append(artRows, map[string]any{
			"bench": "soak", "backlog": r.Backlog,
			"bytes_in": r.BytesIn, "bytes_reclaimed": r.BytesReclaimed,
			"events": r.EventsOut, "events_dropped": r.EventsDropped,
			"peak_heap_bytes": r.PeakHeapBytes,
			"elapsed_ns":      r.Elapsed.Nanoseconds(),
			"files_in":        r.FilesIn, "files_out": r.FilesOut,
		})
	}
	cfgEntries := map[string]any{
		"soak_monitors":       cfg.Monitors,
		"soak_segment_events": cfg.SegmentEvents,
		"soak_max_file_bytes": cfg.MaxFileBytes,
		"soak_chunk_events":   cfg.ChunkEvents,
		"soak_retain_frac":    cfg.RetainFrac,
		"soak_repeats":        cfg.Repeats,
	}
	return artRows, cfgEntries, 0
}

// runObsRulesSweep executes the E10 threshold-rule sweep and returns
// its artefact rows and config entries (exit code non-zero on
// failure). The rows carry "bench":"obsrules"; the quiet row's
// allocs-per-event is the zero-alloc claim of the steady-state rule
// walk and is self-gated against the shared noise floor — a rule
// engine that allocates when nothing transitions fails here even
// without a baseline. Both rows' evals/sec ride the normal baseline
// gate, so a slowdown in the per-snapshot walk fails CI like any
// throughput regression.
func runObsRulesSweep(repeats int, out, errOut io.Writer) ([]map[string]any, map[string]any, int) {
	cfg := experiment.DefaultObsRulesConfig()
	if repeats > 0 {
		cfg.Repeats = repeats
	}
	fmt.Fprintf(out, "E10 (threshold rules): rules=%d metrics=%d evals=%d flap-every=%d repeats=%d\n\n",
		cfg.Rules, cfg.Metrics, cfg.Evals, cfg.FlapEvery, cfg.Repeats)
	rows, err := experiment.RunObsRules(cfg)
	if err != nil {
		fmt.Fprintf(errOut, "monbench: %v\n", err)
		return nil, nil, 1
	}
	fmt.Fprint(out, experiment.ObsRulesTable(rows).String())
	for _, r := range rows {
		if r.Mode == "quiet" && r.AllocsPerEval > allocFloorPerEvent {
			fmt.Fprintf(errOut, "monbench: obs-rules quiet path allocates %.3f/eval (claim: 0, noise floor %.2f)\n",
				r.AllocsPerEval, allocFloorPerEvent)
			return nil, nil, 1
		}
	}
	if q, f := rows[0], rows[1]; q.NsPerEval > 0 {
		fmt.Fprintf(out, "\nflapping churn costs %.1fx the quiet walk per eval\n", f.NsPerEval/q.NsPerEval)
	}
	var artRows []map[string]any
	for _, r := range rows {
		artRows = append(artRows, map[string]any{
			"bench": "obsrules", "mode": r.Mode,
			"rules": r.Rules, "metrics": r.Metrics,
			"events": r.Evals, "transitions": r.Transitions,
			"elapsed_ns":     r.Elapsed.Nanoseconds(),
			"events_per_sec": r.EvalsPerSec, "ns_per_event": r.NsPerEval,
			"allocs_per_event": r.AllocsPerEval,
		})
	}
	cfgEntries := map[string]any{
		"obsrules_rules":      cfg.Rules,
		"obsrules_metrics":    cfg.Metrics,
		"obsrules_evals":      cfg.Evals,
		"obsrules_flap_every": cfg.FlapEvery,
		"obsrules_repeats":    cfg.Repeats,
	}
	return artRows, cfgEntries, 0
}

// runScaling executes the E4 many-monitor sweep (-monitors).
func runScaling(f scalingFlags, out, errOut io.Writer) int {
	cfg := experiment.DefaultScalingConfig()
	cfg.Monitors = nil
	for _, s := range strings.Split(f.monitorCounts, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fmt.Fprintf(errOut, "monbench: bad monitor count %q\n", s)
			return 2
		}
		cfg.Monitors = append(cfg.Monitors, n)
	}
	if f.intervals != "" {
		if strings.Contains(f.intervals, ",") {
			fmt.Fprintf(errOut, "monbench: -monitors sweeps monitor counts at one checking interval; give a single -intervals value (got %q)\n", f.intervals)
			return 2
		}
		d, err := time.ParseDuration(strings.TrimSpace(f.intervals))
		if err != nil {
			fmt.Fprintf(errOut, "monbench: bad interval %q: %v\n", f.intervals, err)
			return 2
		}
		cfg.Interval = d
	}
	if f.ops > 0 {
		cfg.OpsPerMonitor = f.ops
	}
	if f.procs > 0 {
		cfg.ProcsPerMonitor = f.procs
	}
	cfg.Workers = f.workers
	cfg.GlobalLock = f.global
	cfg.Adaptive = f.adaptive
	cfg.BatchSize = f.batch
	cfg.BatchWriters = f.batchwriters
	cfg.Repeats = f.repeats

	db := "sharded"
	if f.global {
		db = "global-lock"
	}
	recorder := "direct"
	if f.batchwriters {
		recorder = "batchwriter"
	}
	fmt.Fprintf(out, "E4 (scaling): ops/monitor=%d procs/monitor=%d interval=%v workers=%d db=%s adaptive=%v batch=%d recorder=%s\n\n",
		cfg.OpsPerMonitor, cfg.ProcsPerMonitor, cfg.Interval, cfg.Workers, db, cfg.Adaptive, cfg.BatchSize, recorder)
	rows, err := experiment.RunScaling(cfg)
	if err != nil {
		fmt.Fprintf(errOut, "monbench: %v\n", err)
		return 1
	}
	fmt.Fprint(out, experiment.ScalingTable(rows).String())
	fmt.Fprintln(out, "\nshape check: events/sec should hold (or grow) as monitors are added —")
	fmt.Fprintln(out, "per-monitor shards remove DB contention and the checkpoint worker pool")
	fmt.Fprintln(out, "spreads replay; compare against -globallock for the pre-sharding profile.")
	fmt.Fprintln(out, "check p99 is the batched-replay target: it should stay bounded as segments grow.")
	art := benchArtefact{
		Kind:        "E4-scaling",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Config: map[string]any{
			"ops_per_monitor": cfg.OpsPerMonitor, "procs_per_monitor": cfg.ProcsPerMonitor,
			"interval_ns": cfg.Interval.Nanoseconds(), "workers": cfg.Workers,
			"db": db, "adaptive": cfg.Adaptive, "batch": cfg.BatchSize,
			"recorder": recorder, "repeats": cfg.Repeats,
		},
	}
	for _, r := range rows {
		art.Rows = append(art.Rows, map[string]any{
			"monitors": r.Monitors, "checkpoint": r.CheckpointName(),
			"scheduler": r.SchedName(), "batch": r.BatchSize,
			"elapsed_ns": r.Elapsed.Nanoseconds(), "events": r.Events,
			"checks": r.Checks, "events_per_sec": r.EventsPerSec,
			"checkpoint_p50_ns": r.CheckP50.Nanoseconds(),
			"checkpoint_p99_ns": r.CheckP99.Nanoseconds(),
		})
	}
	if f.tracestore {
		fmt.Fprintln(out)
		storeRows, storeCfg, code := runTraceStore(f.repeats, out, errOut)
		if code != 0 {
			return code
		}
		// One artefact for both sweeps: the E5 rows are keyed apart by
		// their "bench" field, the config blocks merge disjoint keys.
		art.Rows = append(art.Rows, storeRows...)
		for k, v := range storeCfg {
			art.Config[k] = v
		}
	}
	if f.recordpath {
		fmt.Fprintln(out)
		rpRows, rpCfg, code := runRecordPathSweep(f.repeats, out, errOut)
		if code != 0 {
			return code
		}
		art.Rows = append(art.Rows, rpRows...)
		for k, v := range rpCfg {
			art.Config[k] = v
		}
	}
	if f.obsoverhead {
		fmt.Fprintln(out)
		obsRows, obsCfg, code := runObsOverheadSweep(f.repeats, out, errOut)
		if code != 0 {
			return code
		}
		art.Rows = append(art.Rows, obsRows...)
		for k, v := range obsCfg {
			art.Config[k] = v
		}
	}
	if f.collector {
		fmt.Fprintln(out)
		colRows, colCfg, code := runCollectorSweep(f.repeats, out, errOut)
		if code != 0 {
			return code
		}
		art.Rows = append(art.Rows, colRows...)
		for k, v := range colCfg {
			art.Config[k] = v
		}
	}
	if f.soak {
		fmt.Fprintln(out)
		soakRows, soakCfg, code := runSoakSweep(f.repeats, out, errOut)
		if code != 0 {
			return code
		}
		art.Rows = append(art.Rows, soakRows...)
		for k, v := range soakCfg {
			art.Config[k] = v
		}
	}
	if f.obsrules {
		fmt.Fprintln(out)
		orRows, orCfg, code := runObsRulesSweep(f.repeats, out, errOut)
		if code != 0 {
			return code
		}
		art.Rows = append(art.Rows, orRows...)
		for k, v := range orCfg {
			art.Config[k] = v
		}
	}
	if f.jsonPath != "" {
		if err := writeArtefact(f.jsonPath, art); err != nil {
			fmt.Fprintf(errOut, "monbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "\nwrote %s\n", f.jsonPath)
	}
	if f.baseline != "" {
		return gateAgainstBaseline(f.baseline, art, f.tolerance, out, errOut)
	}
	return 0
}
