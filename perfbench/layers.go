package main

import (
	"time"

	"robustmon/internal/detect"
)

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload leaves idle reads 0.
var layerUnits = map[string]string{
	"monitor.op_self_ns_p50":        "ns",
	"history.append_ns_p50":         "ns",
	"history.append_ns_p99":         "ns",
	"history.appends":               "count",
	"detect.checkpoint_ns_p50":      "ns",
	"detect.checkpoint_ns_p99":      "ns",
	"detect.checkpoints":            "count",
	"detect.events_per_checkpoint":  "count",
	"detect.frozen_share":           "ratio",
	"detect.violations":             "count",
	"detect.resets":                 "count",
	"export.handoff_ns_p99":         "ns",
	"export.handoff_blocked_share":  "ratio",
	"export.sink_write_ns_p50":      "ns",
	"export.bytes_per_event":        "B",
	"export.dropped":                "count",
	"net.flush_ack_ns":              "ns",
	"net.acked_records":             "count",
	"net.resent_records":            "count",
	"net.reconnects":                "count",
	"store.readdir_ns":              "ns",
	"store.verify_ns":               "ns",
	"store.range_ns_p50":            "ns",
	"store.range_ns_p99":            "ns",
	"store.files_opened_share":      "ratio",
	"compact.pass_ns":               "ns",
	"compact.bytes_reclaimed_share": "ratio",
	"runtime.gc_cycles":             "count",
	"runtime.gc_cpu_share":          "ratio",
	"trace.overhead_share":          "ratio",
}

// fillIdleLayers reports 0 for every per-layer metric the workload did
// not exercise.
func fillIdleLayers(m map[string]metric) {
	for name, unit := range layerUnits {
		if _, ok := m[name]; !ok {
			m[name] = metric{0, unit}
		}
	}
}

// detectLayer adds the detector's metrics: checkpoint spans from the
// clock seam, and Stats deltas over the timed phase of length wall.
func detectLayer(m map[string]metric, tr *tracer, before, after detect.Stats, wall time.Duration) {
	cps := tr.durations("detect.checkpoint")
	checks := after.Checks - before.Checks
	perCheck := 0.0
	if checks > 0 {
		perCheck = float64(after.Events-before.Events) / float64(checks)
	}
	m["detect.checkpoint_ns_p50"] = metric{percentile(cps, 0.50), "ns"}
	m["detect.checkpoint_ns_p99"] = metric{percentile(cps, 0.99), "ns"}
	m["detect.checkpoints"] = metric{float64(checks), "count"}
	m["detect.events_per_checkpoint"] = metric{perCheck, "count"}
	m["detect.frozen_share"] = metric{(after.FrozenFor - before.FrozenFor).Seconds() / wall.Seconds(), "ratio"}
	m["detect.violations"] = metric{float64(after.Violations - before.Violations), "count"}
	m["detect.resets"] = metric{float64(after.Resets - before.Resets), "count"}
}

// historyLayer adds the history's metrics: the appends of sampled calls
// and the count of every append since appendsBefore.
func historyLayer(m map[string]metric, tr *tracer, appendsBefore int64) {
	ap := tr.durations("history.append")
	m["history.append_ns_p50"] = metric{percentile(ap, 0.50), "ns"}
	m["history.append_ns_p99"] = metric{percentile(ap, 0.99), "ns"}
	m["history.appends"] = metric{float64(tr.appends.Load() - appendsBefore), "count"}
}
