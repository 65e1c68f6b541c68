package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"robustmon/internal/apps/boundedbuffer"
	"robustmon/internal/clock"
	"robustmon/internal/detect"
	"robustmon/internal/event"
	"robustmon/internal/export"
	"robustmon/internal/export/compact"
	"robustmon/internal/export/index"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
	"robustmon/internal/proc"
	"robustmon/internal/verify"
)

// store-query: set-up lays down a seeded store through the production
// write path — monitors → history → hold-world detector with health
// records and a threshold rule → exporter → WAL sink with its index —
// and compacts it behind a retention floor. The timed phase only reads:
// windowed ReplayRange queries over seq windows and monitor subsets,
// canary look-ups checked offline, and one full ReadDir + verify pass.
const (
	storeOMs         = 32 // 16 per writer goroutine
	storeBuffers     = 2
	storeBufCapacity = 4
	storeBufferEvery = 8
	// Calls per writer goroutine before and after the retention floor.
	// The kept part is sized so that the full offline verify pass,
	// whose literal-rule checker is quadratic in each monitor's events,
	// stays well under a second.
	storeRetired     = 2_000
	storeKept        = 12_000
	storeInterval    = 2 * time.Millisecond
	storeBatch       = 256
	storeHealthEvery = storeInterval
	storeFileBytes   = 256 << 10
	// Compaction writes small files of short per-monitor chunks, so the
	// index can prune a windowed query to the files it needs.
	storeCompactBytes = 16 << 10
	storeCompactChunk = 256
	storeCanaryGap    = 200
	storeQueries      = 4096 // distinct seeded queries, cycled
	// storeLookupEvery makes every storeLookupEvery-th query a canary
	// look-up.
	storeLookupEvery = 4
)

// storeSetup is one laid-down store and what its writing observed.
type storeSetup struct {
	dir    string
	specs  []monitor.Spec
	names  []string
	floor  int64 // retention floor: events at or below it were retired
	last   int64 // highest event seq written
	events int   // events the detector replayed (and so exported)
	vd     *verdicts
	resets int
	res    *compact.Result
	before int64 // store bytes before compaction
	compNs int64
}

// storeCall makes call k of writer goroutine g's cycle: its operation
// managers in turn, and every storeBufferEvery-th call its side of a
// buffer (writer 0 sends, writer 1 receives).
func storeCall(g int, k int64, oms []*monitor.Monitor, bufs []*boundedbuffer.Buffer, names []string, script *opScript, p *proc.P) error {
	if k%storeBufferEvery == storeBufferEvery-1 {
		b := bufs[(k/storeBufferEvery)%storeBuffers]
		if g == 0 {
			return b.Send(p, int(k))
		}
		_, err := b.Receive(p)
		return err
	}
	per := int64(storeOMs / 2)
	m := oms[int64(g)*per+k%per]
	return enterExit(m, p, names[script.next()])
}

func layStore(cfg runConfig, dir string) (*storeSetup, error) {
	s := &storeSetup{dir: dir}
	retired, kept := int64(storeRetired), int64(storeKept)
	db := history.New()
	reg := obs.NewRegistry()
	walClock := clock.NewVirtual(time.Unix(0, 0))
	sink, err := export.NewWALSink(dir, export.WALConfig{
		MaxFileBytes: storeFileBytes,
		RotateEvery:  time.Hour,
		Clock:        walClock,
		OnSeal:       []export.SealedSink{index.NewMaintainer(dir)},
	})
	if err != nil {
		return nil, err
	}
	exp := export.New(sink, export.Config{Policy: export.Block})

	var oms []*monitor.Monitor
	var mons []*monitor.Monitor
	for i := 0; i < storeOMs; i++ {
		spec := opManagerSpec(fmt.Sprintf("om%d", i), inmemProcs)
		m, err := monitor.New(spec, monitor.WithRecorder(db))
		if err != nil {
			return nil, err
		}
		oms = append(oms, m)
		mons = append(mons, m)
		s.specs = append(s.specs, spec)
	}
	var bufs []*boundedbuffer.Buffer
	for i := 0; i < storeBuffers; i++ {
		name := fmt.Sprintf("buf%d", i)
		b, err := boundedbuffer.New(storeBufCapacity, boundedbuffer.WithName(name),
			boundedbuffer.WithMonitorOptions(monitor.WithRecorder(db)))
		if err != nil {
			return nil, err
		}
		bufs = append(bufs, b)
		mons = append(mons, b.Monitor())
		s.specs = append(s.specs, boundedbuffer.Spec(name, storeBufCapacity))
	}
	can, err := newCanary(cfg.seed, storeCanaryGap, monitor.WithRecorder(db))
	if err != nil {
		return nil, err
	}
	s.specs = append(s.specs, can.mon.Spec())
	for _, spec := range s.specs {
		s.names = append(s.names, spec.Name)
	}
	s.vd = &verdicts{can: can}
	det := detect.NewDefault(db, detect.Config{
		Interval:    storeInterval,
		Tmax:        time.Hour,
		Tio:         time.Hour,
		BatchSize:   storeBatch,
		Clock:       clock.Real{},
		OnViolation: s.vd.onViolation,
		Exporter:    exp,
		Obs:         reg,
		HealthEvery: storeHealthEvery,
		// Fires while canaries are being reset and clears between them,
		// so the store carries rule alerts.
		Rules: []obsrules.Rule{{Name: "canary-resets", Metric: "detect_resets_total", Rate: true}},
	}, append(mons, can.mon)...)
	can.det = det
	stopDet := detectorRun(det)

	r := newRand(cfg.seed, streamOps)
	scripts := []*opScript{newOpScript(r, inmemScriptLen, inmemProcs), newOpScript(r, inmemScriptLen, inmemProcs)}
	names := procNames(inmemProcs)
	calls := func(n int64, withCanary bool) error {
		rt := proc.NewRuntime()
		errs := make([]error, 2)
		for g := 0; g < 2; g++ {
			rt.Spawn(fmt.Sprintf("writer%d", g), func(p *proc.P) {
				for k := int64(0); k < n; k++ {
					if withCanary && g == 0 {
						if _, err := can.step(p); err != nil {
							errs[g] = err
							return
						}
					}
					if err := storeCall(g, k, oms, bufs, names, scripts[g], p); err != nil {
						errs[g] = err
						return
					}
				}
			})
		}
		rt.Join()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	// The retired part ends with every monitor idle and every buffer
	// empty; a checkpoint and a flush put all of it into files that are
	// then sealed, so the retention floor cuts the store between whole
	// operations.
	if err := calls(retired, false); err != nil {
		return nil, err
	}
	det.CheckNow()
	if err := exp.Flush(); err != nil {
		return nil, err
	}
	s.floor = db.LastSeq()
	walClock.Advance(2 * time.Hour)
	if err := exp.Flush(); err != nil {
		return nil, err
	}
	if err := calls(kept, true); err != nil {
		return nil, err
	}
	stopDet()
	if err := exp.Close(); err != nil {
		return nil, err
	}
	st := det.Stats()
	s.events, s.resets, s.last = st.Events, st.Resets, db.LastSeq()

	if s.before, err = dirBytes(dir); err != nil {
		return nil, err
	}
	start := time.Now()
	s.res, err = compact.Dir(dir, compact.Config{
		KeepNewest:   -1,
		RetainSeq:    s.floor + 1,
		MaxFileBytes: storeCompactBytes,
		ChunkEvents:  storeCompactChunk,
	})
	s.compNs = int64(time.Since(start))
	return s, err
}

// storeQuery is one seeded windowed query: a seq window and a subset of
// one to four monitors.
type storeQuery struct {
	min, max int64
	mons     []string
}

func storeQueriesFor(seed uint64, s *storeSetup) []storeQuery {
	r := newRand(seed, streamQueries)
	span := s.last - s.floor
	qs := make([]storeQuery, storeQueries)
	for i := range qs {
		width := span/500 + r.Int64N(span/50)
		lo := s.floor + 1 + r.Int64N(span-width)
		q := storeQuery{min: lo, max: lo + width}
		q.mons = pickMonitors(r, s.names, 1+r.IntN(4))
		qs[i] = q
	}
	return qs
}

func pickMonitors(r *rand.Rand, names []string, n int) []string {
	perm := r.Perm(len(names))[:n]
	out := make([]string, n)
	for i, j := range perm {
		out[i] = names[j]
	}
	slices.Sort(out)
	return out
}

// fingerprint summarises a replayed window for the equality check.
func fingerprint(events event.Seq) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, e := range events {
		v := uint64(e.Seq)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
		h.Write([]byte(e.Monitor))
	}
	return h.Sum64()
}

func runStore(cfg runConfig, tr *tracer) (*outcome, error) {
	o := &outcome{}
	var s *storeSetup
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			os.RemoveAll(s.dir)
		}
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = layStore(cfg, filepath.Join(cfg.dir, fmt.Sprintf("store-%d", i))); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start))
	}
	queries := storeQueriesFor(cfg.seed, s)
	var layer map[string]metric
	if tr != nil {
		layer = map[string]metric{}
	}

	// One client, through one reader: first a full pass reads the whole
	// store back and checks it offline; then, until the run ends, the
	// seeded windowed queries with a canary look-up every
	// storeLookupEvery-th query. Each reset marker closes one canary's
	// life, which a look-up replays on the canary alone for the offline
	// checker.
	tp := beginTimed()
	if tr != nil {
		tr.startMeasuring()
	}
	var full *export.Replay
	var results []verify.Result
	var err error
	readNs := measureNs(tr, "store.readdir", func() { full, err = export.ReadDir(s.dir) })
	if err != nil {
		return nil, err
	}
	verifyNs := measureNs(tr, "store.verify", func() { results, err = verify.Trace(full.Events, verify.Options{Specs: s.specs}) })
	if err != nil {
		return nil, err
	}
	c := &queryClient{got: make(map[int]uint64, len(queries))}
	if c.rd, err = index.OpenDir(s.dir); err != nil {
		return nil, err
	}
	var lives [][2]int64
	prev := s.floor
	for _, m := range full.Markers {
		if m.Monitor == canaryName && m.Horizon > prev {
			lives = append(lives, [2]int64{prev + 1, m.Horizon})
			prev = m.Horizon
		}
	}
	if len(lives) == 0 {
		return nil, fmt.Errorf("store holds no canary above the retention floor")
	}
	var stop atomic.Bool
	c.base = time.Now()
	o.appDur = cfg.dur
	go func() {
		time.Sleep(cfg.dur)
		stop.Store(true)
	}()
	canarySpecs := []monitor.Spec{s.specs[len(s.specs)-1]}
	for i := 0; !stop.Load(); i++ {
		if i%storeLookupEvery == storeLookupEvery-1 {
			c.lookUp(lives[(i/storeLookupEvery)%len(lives)], canarySpecs, tr)
		} else {
			c.query(queries, i%len(queries), tr)
		}
	}
	o.opWall = time.Since(tp.start)
	o.checkWall = o.opWall
	tp.end(o, layer)
	o.ops = int64(len(c.starts))
	o.events = c.replayed + 2*int64(len(full.Events))
	o.memEvents = o.events
	o.opLat = c.rangeLat
	o.opTimes, o.opWeight = c.starts, 1
	o.delays = c.lookupLat

	// Correctness: the store holds what the detector exported minus what
	// retention dropped, with markers, health records, alerts and a
	// tombstone; every windowed replay equals the same window cut from
	// the full replay; the offline checker flags exactly the monitors the
	// online detector flagged (the canary) and every canary look-up.
	o.attempted += o.ops
	for _, err := range c.errs {
		o.fail("query failed: %v", err)
	}
	s.vd.check(o)
	o.check(int64(len(full.Events)) == int64(s.events)-s.res.EventsDropped,
		"store holds %d events, detector exported %d and retention dropped %d", len(full.Events), s.events, s.res.EventsDropped)
	o.check(len(full.Tombstones) > 0 && s.res.EventsDropped > 0, "retention left no tombstone (%d events dropped)", s.res.EventsDropped)
	o.check(len(full.Healths) > 0 && len(full.Alerts) > 0, "store holds %d health records and %d alerts", len(full.Healths), len(full.Alerts))
	o.check(len(full.Markers) == s.resets, "store holds %d recovery markers, detector applied %d resets", len(full.Markers), s.resets)
	for qi, fp := range c.got {
		q := queries[qi]
		o.check(fp == fingerprint(cutWindow(full.Events, q)), "windowed replay %d [%d,%d] %v differs from the full replay's window", qi, q.min, q.max, q.mons)
	}
	o.check(c.missed == 0, "%d of %d canary look-ups not flagged offline", c.missed, len(c.lookupLat))
	for _, res := range results {
		flagged := !res.Clean()
		o.check(flagged == (res.Monitor == canaryName && s.resets > 0),
			"offline verdict on %s (flagged %v) disagrees with the online verdict", res.Monitor, flagged)
	}
	o.notes = append(o.notes, fmt.Sprintf("readdir %v verify %v", time.Duration(readNs), time.Duration(verifyNs)))
	o.notes = append(o.notes, fmt.Sprintf("store: %d events in %d files after compaction, %d canary lives, %d distinct windows queried",
		len(full.Events), full.Files, len(lives), len(c.got)))

	if tr != nil {
		rangeNs := tr.durations("store.range")
		layer["store.readdir_ns"] = metric{float64(readNs), "ns"}
		layer["store.verify_ns"] = metric{float64(verifyNs), "ns"}
		layer["store.range_ns_p50"] = metric{percentile(rangeNs, 0.50), "ns"}
		layer["store.range_ns_p99"] = metric{percentile(rangeNs, 0.99), "ns"}
		layer["store.files_opened_share"] = metric{share(c.opened, c.filesTotal), "ratio"}
		layer["compact.pass_ns"] = metric{float64(s.compNs), "ns"}
		layer["compact.bytes_reclaimed_share"] = metric{share(s.res.BytesReclaimed, s.before), "ratio"}
		fillIdleLayers(layer)
		o.layer = layer
	}
	return o, nil
}

// queryClient is the closed-loop reader of the store.
type queryClient struct {
	rd                 *index.SeekReader
	base               time.Time // start of the query loop
	starts             []int64   // every query's start, ns since base
	rangeLat           []sample
	lookupLat          []int64
	replayed           int64
	opened, filesTotal int64
	missed             int64
	got                map[int]uint64 // fingerprint per distinct query
	errs               []error
}

// timed runs one query, in a span when traced, and returns when it
// started and its latency.
func (c *queryClient) timed(tr *tracer, name string, query func() (event.Seq, error)) sample {
	var events event.Seq
	var err error
	start := time.Now()
	at := int64(start.Sub(c.base))
	c.starts = append(c.starts, at)
	if tr != nil {
		tr.timed(name, func() { events, err = query() })
	} else {
		events, err = query()
	}
	d := int64(time.Since(start))
	if err != nil {
		if len(c.errs) < 8 {
			c.errs = append(c.errs, err)
		}
	} else {
		c.replayed += int64(len(events))
	}
	return sample{at, d}
}

// query runs seeded windowed query qi.
func (c *queryClient) query(queries []storeQuery, qi int, tr *tracer) {
	q := queries[qi]
	c.rangeLat = append(c.rangeLat, c.timed(tr, "store.range", func() (event.Seq, error) {
		rep, err := c.rd.ReplayRange(q.min, q.max, q.mons...)
		if err != nil {
			return nil, err
		}
		if _, seen := c.got[qi]; !seen {
			c.got[qi] = fingerprint(rep.Events)
		}
		st := c.rd.LastStats()
		c.opened += int64(st.Opened)
		c.filesTotal += int64(st.FilesTotal)
		return rep.Events, nil
	}))
}

// lookUp replays one canary life and checks it offline; a life the
// offline checker does not flag is missed.
func (c *queryClient) lookUp(life [2]int64, specs []monitor.Spec, tr *tracer) {
	c.lookupLat = append(c.lookupLat, c.timed(tr, "store.lookup", func() (event.Seq, error) {
		rep, err := c.rd.ReplayRange(life[0], life[1], canaryName)
		if err != nil {
			return nil, err
		}
		res, err := verify.Trace(rep.Events, verify.Options{Specs: specs})
		if err != nil {
			return nil, err
		}
		if len(res) != 1 || res[0].Clean() {
			c.missed++
		}
		return rep.Events, nil
	}).v)
}

// cutWindow filters events to q's window and monitor subset.
func cutWindow(events event.Seq, q storeQuery) event.Seq {
	var out event.Seq
	for _, e := range events {
		if e.Seq < q.min || e.Seq > q.max {
			continue
		}
		if q.mons != nil && !slices.Contains(q.mons, e.Monitor) {
			continue
		}
		out = append(out, e)
	}
	return out
}
