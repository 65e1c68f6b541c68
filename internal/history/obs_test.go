package history

import (
	"testing"

	"robustmon/internal/event"
	"robustmon/internal/obs"
)

// TestWithObsCountsRecordPath drives every instrumented layer of the
// record path — singleton appends, a batch publication, partial and
// full drains, slab recycling — and checks the registry against the
// exactly-known traffic. The drain sizes are chosen at the smallest
// pool class (1024) so the hit/miss/recycle sequence is deterministic:
// the first drain must miss (cold pool), recycled slabs must hit.
func TestWithObsCountsRecordPath(t *testing.T) {
	reg := obs.NewRegistry()
	db := New(WithObs(reg))
	for i := int64(1); i <= 3000; i++ {
		db.Append(ev(i))
	}
	batch := make([]event.Event, 10)
	for i := range batch {
		batch[i] = ev(int64(4000 + i))
	}
	db.AppendBatch("m", batch)
	horizon := db.LastSeq()

	// Partial cut: copies into a fresh class-1024 segment (cold pool →
	// miss), which Recycle then returns to exactly that class.
	seg1, more, _ := db.DrainMonitorUpTo("m", horizon, 1024)
	if len(seg1) != 1024 || !more {
		t.Fatalf("first cut: %d events, more=%v", len(seg1), more)
	}
	db.Recycle(seg1)

	// Second cut: served by the slab just recycled — a pool hit.
	seg2, _, _ := db.DrainMonitorUpTo("m", horizon, 1024)
	if len(seg2) != 1024 {
		t.Fatalf("second cut: %d events", len(seg2))
	}
	db.Recycle(seg2)

	// The remainder (962 events) drains whole: the swap path asks the
	// pool for a replacement slab and finds seg2's again.
	seg3, more, _ := db.DrainMonitorUpTo("m", horizon, 1024)
	if len(seg3) != 962 || more {
		t.Fatalf("final cut: %d events, more=%v", len(seg3), more)
	}

	snap := reg.Snapshot()
	for _, c := range []struct {
		metric string
		want   int64
	}{
		{"history_append_total", 3000},
		{"history_append_batch_total", 1},
		{"history_append_batch_events_total", 10},
		{"history_pool_miss_total", 1},
		{"history_pool_hit_total", 2},
		{"history_slab_recycle_total", 2},
	} {
		if got, ok := snap.Counter(c.metric); !ok || got != c.want {
			t.Errorf("%s = %d (ok=%v), want %d", c.metric, got, ok, c.want)
		}
	}
	h, ok := snap.Histogram("history_drain_events")
	if !ok || h.Count != 3 || h.Sum != 3010 {
		t.Errorf("history_drain_events count=%d sum=%d (ok=%v), want 3 drains totalling 3010", h.Count, h.Sum, ok)
	}
}
