package experiment

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"robustmon/internal/export/compact"
)

// E9 — long-horizon compaction cost. The streaming compactor's claim
// is bounded memory: a retention pass over a backlog many times the
// chunk budget must hold one decoded record per input file, never the
// decoded backlog. This sweep makes the claim a gated number — it
// compacts synthetic backlogs of increasing size under one fixed chunk
// budget, sampling the live heap throughout, and reports the peak heap
// growth plus the bytes the pass reclaimed. The rows land in the perf
// artefact (BENCH_scaling.json), so a change that regresses the
// compactor back to whole-backlog buffering — peak heap tracking
// backlog size instead of chunk budget — fails the perf gate exactly
// like a throughput regression.

// SoakBenchConfig parameterises the E9 sweep.
type SoakBenchConfig struct {
	// Monitors is how many monitors the synthetic events round-robin
	// over.
	Monitors int
	// SegmentEvents is the events per WAL record.
	SegmentEvents int
	// MaxFileBytes is the sink's rotation threshold; small, so the
	// backlog spans many files (the k-way-merge shape).
	MaxFileBytes int64
	// ChunkEvents is the compactor's output re-chunking budget — the
	// bound peak memory must track.
	ChunkEvents int
	// Backlogs are the event counts swept, each a multiple of
	// ChunkEvents (the acceptance floor is 4x).
	Backlogs []int
	// RetainFrac is the retention floor as a fraction of each backlog:
	// the pass both merges and drops, like a production pass.
	RetainFrac float64
	// Repeats re-runs each cell; the minimum peak and elapsed are
	// reported (noise — GC timing, scheduler — is one-sided, exactly
	// as TraceStoreConfig.Repeats documents).
	Repeats int
}

// DefaultSoakBenchConfig is the sweep cmd/monbench runs for -soak.
func DefaultSoakBenchConfig() SoakBenchConfig {
	return SoakBenchConfig{
		Monitors:      8,
		SegmentEvents: 256,
		MaxFileBytes:  32 << 10,
		ChunkEvents:   4096,
		Backlogs:      []int{32_768, 131_072}, // 8x and 32x the chunk budget
		RetainFrac:    0.5,
		Repeats:       3,
	}
}

// SoakBenchRow is one cell of the E9 sweep: one backlog size.
type SoakBenchRow struct {
	// Backlog is the events in the input backlog (the cell key).
	Backlog int
	// BytesIn is the input directory size; BytesReclaimed what the
	// pass shrank it by.
	BytesIn, BytesReclaimed int64
	// EventsOut survived the pass; EventsDropped fell below the
	// retention floor.
	EventsOut, EventsDropped int64
	// PeakHeapBytes is the peak live-heap growth observed during the
	// pass (minimum across repeats) — the bounded-memory claim.
	PeakHeapBytes int64
	// Elapsed is the fastest pass wall time across the repeats.
	Elapsed time.Duration
	// FilesIn inputs became FilesOut outputs.
	FilesIn, FilesOut int
}

// RunSoakBench builds one synthetic backlog per cell and measures a
// full streaming retention pass over it.
func RunSoakBench(cfg SoakBenchConfig) ([]SoakBenchRow, error) {
	if cfg.Monitors <= 0 || cfg.SegmentEvents <= 0 || cfg.ChunkEvents <= 0 ||
		len(cfg.Backlogs) == 0 || cfg.RetainFrac < 0 || cfg.RetainFrac >= 1 {
		return nil, fmt.Errorf("experiment: bad soak-bench config %+v", cfg)
	}
	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	var rows []SoakBenchRow
	for _, backlog := range cfg.Backlogs {
		if backlog < 4*cfg.ChunkEvents {
			return nil, fmt.Errorf("experiment: backlog %d below the 4x chunk budget floor (%d)",
				backlog, 4*cfg.ChunkEvents)
		}
		row := SoakBenchRow{Backlog: backlog}
		for i := 0; i < repeats; i++ {
			one, err := soakBenchPass(backlog, cfg)
			if err != nil {
				return nil, err
			}
			if i == 0 || one.PeakHeapBytes < row.PeakHeapBytes {
				row.PeakHeapBytes = one.PeakHeapBytes
			}
			if i == 0 || one.Elapsed < row.Elapsed {
				row.Elapsed = one.Elapsed
			}
			// The structural outputs are deterministic; keep the last.
			row.BytesIn, row.BytesReclaimed = one.BytesIn, one.BytesReclaimed
			row.EventsOut, row.EventsDropped = one.EventsOut, one.EventsDropped
			row.FilesIn, row.FilesOut = one.FilesIn, one.FilesOut
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// soakBenchPass builds one backlog directory and times one retention
// pass over it with the heap sampled throughout.
func soakBenchPass(backlog int, cfg SoakBenchConfig) (SoakBenchRow, error) {
	var row SoakBenchRow
	dir, err := os.MkdirTemp("", "robustmon-soakbench-*")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	if err := buildTraceStoreDir(dir, TraceStoreConfig{
		Events:        backlog,
		Monitors:      cfg.Monitors,
		SegmentEvents: cfg.SegmentEvents,
		MaxFileBytes:  cfg.MaxFileBytes,
		Window:        1,
	}); err != nil {
		return row, err
	}

	// Live-heap high-water during the pass, against a post-GC baseline.
	// The live heap (/gc/heap/live:bytes, what the latest GC cycle
	// marked reachable) excludes uncollected garbage, so the peak tracks
	// what the compactor holds, not when the collector happened to run.
	// The metric moves only at GC cycle ends, which a pass at these
	// allocation rates reaches many times over; a 200µs poll sees each.
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	readLive := func() uint64 {
		metrics.Read(live)
		return live[0].Value.Uint64()
	}
	base := readLive()
	peak := base
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				peak = max(peak, readLive())
				return
			case <-tick.C:
				peak = max(peak, readLive())
			}
		}
	}()

	start := time.Now()
	res, err := compact.Dir(dir, compact.Config{
		KeepNewest:  -1,
		RetainSeq:   int64(float64(backlog) * cfg.RetainFrac),
		ChunkEvents: cfg.ChunkEvents,
	})
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	if err != nil {
		return row, err
	}
	row = SoakBenchRow{
		Backlog:        backlog,
		BytesIn:        res.BytesReclaimed, // corrected below
		BytesReclaimed: res.BytesReclaimed,
		EventsOut:      res.Events,
		EventsDropped:  res.EventsDropped,
		Elapsed:        elapsed,
		FilesIn:        res.FilesIn,
		FilesOut:       res.FilesOut,
	}
	if peak > base {
		row.PeakHeapBytes = int64(peak - base)
	}
	// Input bytes = what survived on disk plus what the pass reclaimed.
	var after int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return row, err
	}
	for _, e := range ents {
		if info, err := e.Info(); err == nil {
			after += info.Size()
		}
	}
	row.BytesIn = after + res.BytesReclaimed
	return row, nil
}

// SoakBenchTable renders the E9 sweep.
func SoakBenchTable(rows []SoakBenchRow) *Table {
	t := NewTable("backlog", "files", "bytes in", "reclaimed", "dropped", "peak heap", "elapsed")
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Backlog),
			fmt.Sprintf("%d→%d", r.FilesIn, r.FilesOut),
			fmt.Sprintf("%.1f MiB", float64(r.BytesIn)/(1<<20)),
			fmt.Sprintf("%.1f MiB", float64(r.BytesReclaimed)/(1<<20)),
			fmt.Sprint(r.EventsDropped),
			fmt.Sprintf("%.1f MiB", float64(r.PeakHeapBytes)/(1<<20)),
			r.Elapsed.Round(time.Millisecond).String())
	}
	return t
}
