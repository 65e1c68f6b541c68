package export

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"robustmon/internal/clock"
	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
)

// The on-disk WAL layout. A directory of numbered files
// ("00000001.wal", …); each file starts with the 5-byte magic (4-byte
// prefix + format version) and holds a sequence of records. In format
// version 2 every record begins with a one-byte record type; version 1
// files (written before recovery markers existed) have no type byte
// and hold only segment records. All record types share one header:
//
//	uint8   record type (v2 only: 0 = segment, 1 = recovery marker,
//	                     2 = health snapshot, 3 = retention tombstone,
//	                     4 = threshold alert)
//	uint16  len(monitor)      ┐
//	bytes   monitor           │ little-endian record header
//	int64   first seq         │ (marker: reset horizon twice;
//	int64   last seq          │  health: capture horizon twice)
//	uint32  event count       │ (marker: discarded-event count;
//	uint32  len(payload)      │  health: 0)
//	uint32  CRC-32 (IEEE) of payload ┘
//	bytes   payload
//
// A segment record's payload is event.WriteBinary of the drained
// events — itself a well-formed single-segment trace. A recovery
// marker's payload is the self-contained marker blob of
// encodeMarker: the shard-local reset's horizon, discarded-event
// count, triggering rule/pid and instant. A threshold-alert record's
// payload is the self-contained blob of encodeAlert: one rule
// transition (fire or clear) of the self-watching rule engine, pinned
// like a health record to its evaluation instant and global-sequence
// horizon (the monitor field is empty — an alert judges the pipeline,
// not one monitor). A health-snapshot record's
// payload is the self-contained blob of encodeHealth: a periodic
// obs.Snapshot of the detector's metrics registry pinned to its
// capture instant and global-sequence horizon (the monitor field is
// empty — health is per-process, not per-monitor). A retention
// tombstone's payload is the self-contained blob of encodeTombstone:
// the horizon below which retention may have dropped records, plus the
// cumulative accounting of exactly what was dropped (the monitor field
// is empty — the tombstone describes the whole store). The header
// duplicates the seq range and count so a reader can index a WAL
// without decoding payloads, and the CRC turns a torn write into a
// detectable truncation instead of silent corruption. Files are
// fsynced when rotated and on Flush/Close; a crash can therefore only
// lose or tear the tail of the newest file, which the reader recovers
// from by dropping the torn record.

// walMagicPrefix identifies a WAL segment file; the byte that follows
// it on disk is the format version.
var walMagicPrefix = [4]byte{'R', 'M', 'W', 'L'}

// The WAL format versions the reader accepts. The writer always writes
// the current version.
const (
	walVersion1      = 1 // segments only, no record-type byte
	walVersion2      = 2 // record-type byte: segments + recovery markers
	walVersionLatest = walVersion2
)

// Record types (format version ≥ 2). recHealth, recTombstone and
// recAlert ride the same v2 framing recMarker introduced: the header
// layout is unchanged, so the format version does not bump — v1 and
// marker-era v2 files read exactly as before, and only tooling older
// than the new record type refuses a file containing one.
const (
	recSegment   byte = 0
	recMarker    byte = 1
	recHealth    byte = 2
	recTombstone byte = 3
	recAlert     byte = 4
)

// walExt is the segment-file extension.
const walExt = ".wal"

// maxMonitorName bounds the monitor-id field of a record header.
const maxMonitorName = 1 << 10

// DefaultMaxFileBytes is the rotation threshold when WALConfig leaves
// MaxFileBytes zero: a file is closed (and fsynced) once it grows past
// this many bytes.
const DefaultMaxFileBytes = 8 << 20

// SealedSink consumes sealed-file summaries. A WAL file is "sealed"
// when it has been flushed, fsynced and closed — rotation or Close —
// so a summary handed to OnSeal always describes durable bytes. This
// is the incremental-maintenance seam of the trace store (the index
// maintainer is one SealedSink; a network shipper is another), and
// WALConfig.OnSeal fans each seal out to any number of them.
//
// OnSeal is called from whatever goroutine drives the sink (the
// exporter's writer); a slow consumer stalls the write path, so do
// real work asynchronously. A returned error is reported through
// WALConfig.OnSealError and counted, but never fails the write path
// and never starves the other consumers: every registered sink sees
// every seal.
type SealedSink interface {
	OnSeal(fs FileSummary) error
}

// SealedSinkFunc adapts a plain function to the SealedSink interface.
type SealedSinkFunc func(fs FileSummary) error

// OnSeal calls f.
func (f SealedSinkFunc) OnSeal(fs FileSummary) error { return f(fs) }

// WALConfig parameterises a WALSink.
type WALConfig struct {
	// MaxFileBytes rotates to a new segment file once the current one
	// exceeds this size (default DefaultMaxFileBytes). Rotation is the
	// durability boundary: the outgoing file is flushed and fsynced
	// before the next one opens.
	MaxFileBytes int64
	// RotateEvery, when positive, additionally rotates by age: a write
	// or Flush that finds the current file older than this seals it
	// first. Size-based rotation alone lets an idle monitor's trickle
	// sit in one open (undurable, uncompactable) file indefinitely;
	// age-based rotation bounds how long any record stays outside a
	// sealed, index-visible, compactable segment. The check runs at
	// write/flush time — a sink nobody touches seals nothing, which is
	// fine: it also wrote nothing new.
	RotateEvery time.Duration
	// Clock is the time source for age-based rotation (default: wall
	// clock). Only consulted when RotateEvery is set.
	Clock clock.Clock
	// SyncEveryWrite additionally fsyncs after every record — maximum
	// durability for crash-recovery tests; too slow for production.
	SyncEveryWrite bool
	// OnSeal holds the consumers notified with the sealed file's summary
	// each time a file is rotated or closed. Every consumer sees every
	// seal, in registration order; one consumer's error is routed to
	// OnSealError (and counted as export_wal_seal_errors_total) without
	// skipping the rest and without failing the write path. Wire
	// index.NewMaintainer(dir) here and the directory's index tracks
	// every sealed segment for free; wire a network shipper alongside it
	// and sealed segments stream off-box too.
	OnSeal []SealedSink
	// OnSealError, when set, receives each error an OnSeal consumer
	// returns. Seal errors are advisory — the file is already durable
	// locally — so they are reported, not propagated.
	OnSealError func(error)
	// Obs, when set, instruments the sink: export_wal_bytes_total
	// (header + payload bytes written), export_wal_records_total,
	// export_wal_rotations_total and the export_wal_fsync_ns latency
	// histogram. Nil disables at zero cost (see internal/obs).
	Obs *obs.Registry
}

// walMetrics are the sink's obs handles; the zero value (all nil) is
// the disabled mode.
type walMetrics struct {
	bytes      *obs.Counter
	records    *obs.Counter
	rotations  *obs.Counter
	sealErrors *obs.Counter
	fsyncNs    *obs.Histogram
}

func newWALMetrics(reg *obs.Registry) walMetrics {
	if reg == nil {
		return walMetrics{}
	}
	return walMetrics{
		bytes:      reg.Counter("export_wal_bytes_total"),
		records:    reg.Counter("export_wal_records_total"),
		rotations:  reg.Counter("export_wal_rotations_total"),
		sealErrors: reg.Counter("export_wal_seal_errors_total"),
		fsyncNs:    reg.Histogram("export_wal_fsync_ns"),
	}
}

// WALSink persists exported segments to a directory of numbered,
// CRC-protected segment files. Construct with NewWALSink; it is driven
// by the exporter's writer goroutine and is not safe for concurrent
// use.
type WALSink struct {
	dir  string
	cfg  WALConfig
	next int // number of the next file to create

	f    *os.File
	bw   *bufio.Writer
	size int64
	// hdr is the record-header scratch buffer, reused across every
	// record the sink ever writes (nothing downstream retains it:
	// summaryBuilder folds it into a CRC and lets go).
	hdr      []byte
	openedAt time.Time
	cur      *summaryBuilder // summary of the file being written
	met      walMetrics
}

// NewWALSink opens (creating if needed) dir for appending. An existing
// WAL is never clobbered: numbering continues after the highest
// existing file.
func NewWALSink(dir string, cfg WALConfig) (*WALSink, error) {
	if cfg.MaxFileBytes <= 0 {
		cfg.MaxFileBytes = DefaultMaxFileBytes
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("export: create wal dir: %w", err)
	}
	names, err := walFiles(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(names) > 0 {
		last := strings.TrimSuffix(filepath.Base(names[len(names)-1]), walExt)
		if _, err := fmt.Sscanf(last, "%d", &next); err != nil {
			return nil, fmt.Errorf("export: bad wal file name %q", names[len(names)-1])
		}
		next++
	}
	return &WALSink{dir: dir, cfg: cfg, next: next, met: newWALMetrics(cfg.Obs)}, nil
}

// walFiles lists dir's segment files sorted by name — numeric order,
// since names are zero-padded.
func walFiles(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*"+walExt))
	if err != nil {
		return nil, fmt.Errorf("export: list wal dir: %w", err)
	}
	sort.Strings(names)
	return names, nil
}

// Dir returns the sink's directory.
func (w *WALSink) Dir() string { return w.dir }

// SealedFiles reports how many sealed segment files are on disk —
// the rotated backlog a compactor can merge. It counts the directory
// (one readdir per call — the exporter polls it once per written
// segment, which is drain-rhythm, not event-rhythm), not the sink's
// monotonic file number: compaction shrinks the directory, and the
// backlog must shrink with it or a threshold trigger would keep
// firing forever after first crossing it. Files inherited from
// earlier sink sessions count too, since numbering resumes after
// them; the file currently being written does not.
func (w *WALSink) SealedFiles() int {
	names, err := walFiles(w.dir)
	if err != nil {
		return 0
	}
	n := len(names)
	if w.f != nil {
		n-- // the active file is on disk but not sealed
	}
	if n < 0 {
		n = 0
	}
	return n
}

// open starts the next numbered segment file.
func (w *WALSink) open() error {
	name := filepath.Join(w.dir, fmt.Sprintf("%08d%s", w.next, walExt))
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return fmt.Errorf("export: create wal file: %w", err)
	}
	w.next++
	w.f = f
	w.bw = bufio.NewWriter(f)
	w.size = 0
	w.openedAt = w.cfg.Clock.Now()
	w.cur = newSummaryBuilder(baseName(name), walVersionLatest)
	magic := append(append([]byte(nil), walMagicPrefix[:]...), walVersionLatest)
	if _, err := w.bw.Write(magic); err != nil {
		return fmt.Errorf("export: write wal magic: %w", err)
	}
	w.size += int64(len(magic))
	return nil
}

// WriteSegment appends one segment record and rotates if the file
// outgrew the threshold. The payload is encoded into a pooled buffer
// (event.AppendBinary), so steady-state segment writes allocate
// nothing per event.
func (w *WALSink) WriteSegment(seg Segment) error {
	if len(seg.Events) == 0 {
		return nil
	}
	// ~48 bytes/event covers typical traces; undersizing only costs
	// one growth step inside AppendBinary (and the grown buffer is
	// what re-enters the pool).
	p := getPayloadBuf(16 + 48*len(seg.Events))
	*p = event.AppendBinary((*p)[:0], seg.Events)
	err := w.writeRecord(recSegment, seg.Monitor,
		seg.First(), seg.Last(), uint32(len(seg.Events)), *p)
	putPayloadBuf(p)
	return err
}

// WriteMarker appends one recovery-marker record — the durable trace of
// a shard-local online reset (see history.RecoveryMarker). It
// implements the optional MarkerSink extension.
func (w *WALSink) WriteMarker(m history.RecoveryMarker) error {
	p := getPayloadBuf(64 + len(m.Rule) + len(m.Monitor))
	*p = appendMarker((*p)[:0], m)
	err := w.writeRecord(recMarker, m.Monitor,
		m.Horizon, m.Horizon, uint32(m.Dropped), *p)
	putPayloadBuf(p)
	return err
}

// WriteHealth appends one health-snapshot record — a periodic capture
// of the detector's metrics registry, pinned to its global-sequence
// horizon so offline tooling can place it in the trace's timeline. It
// implements the optional HealthSink extension. The monitor field is
// empty: health describes the whole process, not one monitor.
func (w *WALSink) WriteHealth(h obs.HealthRecord) error {
	p := getPayloadBuf(256)
	*p = appendHealth((*p)[:0], h)
	err := w.writeRecord(recHealth, "", h.Seq, h.Seq, 0, *p)
	putPayloadBuf(p)
	return err
}

// WriteAlert appends one threshold-alert record — the durable trace of
// a rule transition in the self-watching engine (see
// internal/obs/rules). It implements the optional AlertSink extension.
// The monitor field is empty (an alert judges the pipeline, not one
// monitor); the header carries the alert's sequence horizon twice, so
// the index can place it without decoding the payload.
func (w *WALSink) WriteAlert(a obsrules.Alert) error {
	p := getPayloadBuf(64 + len(a.Rule) + len(a.Metric) + len(a.Origin))
	*p = appendAlert((*p)[:0], a)
	err := w.writeRecord(recAlert, "", a.Seq, a.Seq, 0, *p)
	putPayloadBuf(p)
	return err
}

// WriteTombstone appends one retention-tombstone record — the durable
// trace of a retention pass that dropped whole segment files below a
// horizon (see internal/export/compact). It implements the optional
// TombstoneSink extension. The monitor field is empty (the tombstone
// describes the whole store); the header carries the horizon as its
// seq range and the dropped-event total (saturated) as its count, so
// the index can place it without decoding the payload.
func (w *WALSink) WriteTombstone(t Tombstone) error {
	p := getPayloadBuf(128 + 32*len(t.Monitors))
	*p = appendTombstone((*p)[:0], t)
	err := w.writeRecord(recTombstone, "", t.Horizon, t.Horizon,
		saturatingUint32(t.Events), *p)
	putPayloadBuf(p)
	return err
}

// WriteRecordBytes stores one framed record (header and payload, no
// file magic: the bytes AppendSegmentRecord and its siblings produce)
// as it is. It is the replication path: a collector stores what the
// producer sent without decoding its events and encoding them again.
// b must hold exactly one record that the WAL reader accepts and that
// re-encodes to b itself. The header, the payload CRC and their
// agreement are checked. A segment payload is validated in place by
// event.CheckBinary, so a segment costs no per-event allocation. The
// rare annotation kinds are decoded, checked against their header and
// required to re-encode to b; the decoded annotation is returned (the
// collector reads a health record's horizon and instant). For a
// segment the returned Record is zero.
func (w *WALSink) WriteRecordBytes(b []byte) (Record, error) {
	h, n, err := parseHeader(b, walVersionLatest)
	if err != nil {
		return Record{}, fmt.Errorf("export: record bytes: %w", err)
	}
	payload := b[n:]
	if len(payload) != int(h.payloadLen) {
		return Record{}, fmt.Errorf("export: record bytes: %d payload bytes, header says %d", len(payload), h.payloadLen)
	}
	if got := crc32.ChecksumIEEE(payload); got != h.sum {
		return Record{}, fmt.Errorf("export: record bytes: %w (got %08x, header says %08x)", errCRCMismatch, got, h.sum)
	}
	var rec Record
	if h.typ == recSegment {
		count, first, last, err := event.CheckBinary(payload, h.monitor)
		if err != nil {
			return Record{}, fmt.Errorf("export: record bytes: %w", err)
		}
		if count != int(h.count) || first != h.first || last != h.last {
			return Record{}, fmt.Errorf("export: record bytes: header (%d events, seq %d..%d) disagrees with payload (%d events, seq %d..%d)",
				h.count, h.first, h.last, count, first, last)
		}
	} else {
		d, err := decodeAnnotation(&h, payload)
		if err != nil {
			return Record{}, fmt.Errorf("export: record bytes: %w", err)
		}
		rec = d.record()
		p := getPayloadBuf(len(b))
		*p, err = appendRecord((*p)[:0], rec)
		canonical := err == nil && bytes.Equal(*p, b)
		putPayloadBuf(p)
		if !canonical {
			return Record{}, fmt.Errorf("export: record bytes: record type %d is not canonically encoded", h.typ)
		}
	}
	return rec, w.writeRecord(h.typ, h.monitor, h.first, h.last, h.count, payload)
}

// writeRecord appends one record of either type and rotates if the
// file outgrew the threshold.
func (w *WALSink) writeRecord(typ byte, monitor string, first, last int64, count uint32, payload []byte) error {
	if len(monitor) > maxMonitorName {
		return fmt.Errorf("export: monitor name %d bytes long (limit %d)", len(monitor), maxMonitorName)
	}
	if w.f != nil && w.stale() {
		// Age-based rotation: seal the old file before this record, so
		// the record lands in a fresh one and the backlog stays bounded
		// in time, not just in bytes.
		if err := w.rotate(); err != nil {
			return err
		}
	}
	if w.f == nil {
		if err := w.open(); err != nil {
			return err
		}
	}
	w.hdr = appendRecordHeader(w.hdr[:0], typ, monitor, first, last, count, payload)
	if _, err := w.bw.Write(w.hdr); err != nil {
		return fmt.Errorf("export: write record header: %w", err)
	}
	if _, err := w.bw.Write(payload); err != nil {
		return fmt.Errorf("export: write record payload: %w", err)
	}
	w.cur.add(&recHeader{
		typ: typ, monitor: monitor, first: first, last: last,
		count: count, payloadLen: uint32(len(payload)), raw: w.hdr,
	}, w.size)
	w.size += int64(len(w.hdr) + len(payload))
	w.met.records.Inc()
	w.met.bytes.Add(int64(len(w.hdr) + len(payload)))
	if w.cfg.SyncEveryWrite {
		if err := w.sync(); err != nil {
			return err
		}
	}
	if w.size >= w.cfg.MaxFileBytes {
		return w.rotate()
	}
	return nil
}

// sync flushes the buffered writer and fsyncs the current file.
func (w *WALSink) sync() error {
	if w.f == nil {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("export: flush wal: %w", err)
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("export: fsync wal: %w", err)
	}
	w.met.fsyncNs.Observe(time.Since(start).Nanoseconds())
	return nil
}

// stale reports whether the current file outlived the age-rotation
// threshold.
func (w *WALSink) stale() bool {
	return w.cfg.RotateEvery > 0 && w.cfg.Clock.Now().Sub(w.openedAt) >= w.cfg.RotateEvery
}

// rotate seals the current file — flush, fsync, close — and arranges
// for the next write to open a fresh one. Everything before the
// rotation point is durable from here on; the sealed file's summary is
// then fanned out to every OnSeal consumer. One consumer's failure never starves another: the
// error goes to OnSealError and the seal-error counter, and the loop
// continues.
func (w *WALSink) rotate() error {
	if w.f == nil {
		return nil
	}
	if err := w.sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("export: close wal file: %w", err)
	}
	w.f, w.bw = nil, nil
	w.met.rotations.Inc()
	if w.cur != nil && w.cur.sum.Records > 0 {
		fs := w.cur.done(w.size, false)
		for _, s := range w.cfg.OnSeal {
			if s == nil {
				continue
			}
			if err := s.OnSeal(fs); err != nil {
				w.met.sealErrors.Inc()
				if w.cfg.OnSealError != nil {
					w.cfg.OnSealError(err)
				}
			}
		}
	}
	w.cur = nil
	return nil
}

// Flush makes everything written so far durable without rotating —
// unless the current file outlived RotateEvery, in which case it is
// sealed instead, so periodic flushers give even an idle trickle
// bounded, compactable segments.
func (w *WALSink) Flush() error {
	if w.f != nil && w.stale() {
		return w.rotate()
	}
	return w.sync()
}

// Close seals the current file. The sink is unusable afterwards.
func (w *WALSink) Close() error { return w.rotate() }
