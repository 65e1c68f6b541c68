package export

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
)

// ErrBadWALMagic reports that a file in the export directory does not
// start with the WAL header.
var ErrBadWALMagic = errors.New("export: bad wal magic")

// errCRCMismatch marks a full-length record whose payload failed its
// CRC — damage to one record, not to the file structure: the header
// was plausible and the payload was fully consumed, so the reader is
// positioned at the next record boundary and can keep going. ReadDir
// skips such records and counts them (Replay.CorruptRecords) instead
// of abandoning everything after them.
var errCRCMismatch = errors.New("record CRC mismatch")

// ErrCorruptRecord is the exported identity of a CRC-corrupt record —
// localised damage the caller may skip (errors.Is(err,
// ErrCorruptRecord) holds for the wrapped errors RecordReader and the
// file readers return). The streaming compactor uses it to skip and
// count a damaged record instead of abandoning a pass.
var ErrCorruptRecord = errCRCMismatch

// Replay is the result of reading an export directory back.
type Replay struct {
	// Events is the recorded trace merged into the global <L order —
	// what history.DB.Full() of a WithFullTrace run would have
	// returned.
	Events event.Seq
	// Markers are the recovery markers found in the WAL, in record
	// order (which is reset order — the exporter's single writer
	// serialises them). Each marks a shard-local online reset: the
	// named monitor's events at or below Marker.Horizon that were still
	// buffered at reset time were discarded unreplayed, so Events has a
	// deliberate gap there and violations straddling the horizon on
	// that monitor may be reset artefacts. Nil for a run that never
	// reset (including every format-v1 WAL).
	Markers []history.RecoveryMarker
	// Healths are the health-snapshot records found in the WAL, in
	// record order (which is capture order — the exporter's single
	// writer serialises them): the run's own metrics timeline. Nil for
	// a run recorded without a health cadence (including every
	// format-v1 WAL).
	Healths []obs.HealthRecord
	// Alerts are the threshold-alert records found in the WAL, in
	// record order (which is transition order — the exporter's single
	// writer serialises them): the run's rule-engine timeline, every
	// fire and clear of the self-watching rules. Nil for a run recorded
	// without rules (including every pre-alert WAL).
	Alerts []obsrules.Alert
	// Tombstones are the retention tombstones found in the WAL, exact
	// duplicates collapsed. A tombstone records a deliberate
	// retention truncation: events below Tombstone.Horizon may be
	// missing from Events by design — disk was reclaimed, not lost.
	// Nil for a store retention never truncated.
	Tombstones []Tombstone
	// Files and Segments count the WAL files and valid segment records
	// read (Segments excludes marker records).
	Files, Segments int
	// CorruptRecords counts records whose full-length payload failed
	// its CRC — localised damage (a bit flip, a bad sector), not a
	// crash tear, which is always a short read. Each such record is
	// skipped and the reader continues with the next one, so a single
	// corrupt record costs its own events, never the rest of the file.
	CorruptRecords int
	// DuplicateEvents, DuplicateMarkers and DuplicateHealths count
	// identical records collapsed during the merge. Duplicates never occur in a healthy
	// WAL (sequence numbers are globally unique); they are the
	// signature of a compaction interrupted between installing its
	// merged output and unlinking the inputs it replaced — the reader
	// recovers the exact stream either way. A sequence-number collision
	// between *different* events is corruption and an error.
	DuplicateEvents, DuplicateMarkers, DuplicateHealths int
	// DuplicateTombstones and DuplicateAlerts count identical
	// tombstones and alerts collapsed during the merge (the same
	// interrupted-compaction signature as the other duplicate
	// counters).
	DuplicateTombstones, DuplicateAlerts int
	// Recovered reports that the newest file ended in a torn record
	// (crash mid-write); the tail was dropped and Events holds
	// everything up to the last valid record.
	Recovered bool
	// TruncatedFile names the file with the torn tail (empty when
	// Recovered is false).
	TruncatedFile string
}

// RetentionHorizon returns the highest tombstone horizon in the replay
// — the sequence number below which retention may have dropped records
// — or 0 when retention never truncated this store. A windowed query
// whose window starts below this value is incomplete by design.
func (r *Replay) RetentionHorizon() int64 {
	var h int64
	for _, t := range r.Tombstones {
		if t.Horizon > h {
			h = t.Horizon
		}
	}
	return h
}

// ReadDir replays an export directory written by WALSink: every valid
// record of every segment file, k-way-merged (event.Merge) back into
// the global sequence order. Records land in the WAL in drain order,
// which may interleave monitors arbitrarily — each record's payload is
// seq-sorted, and the merge restores the total order.
//
// A torn record — short header, short payload, or a zero-filled tail
// block — is tolerated only at the tail of the newest file, where it
// is the expected signature of a crash mid-write: the tail is dropped
// and Replay.Recovered is set. A torn record in any older file is
// corruption and an error. A CRC mismatch over a full-length payload
// (an append-only tear is a prefix, never a full-length scramble) is
// damage to that one record: it is skipped, counted in
// Replay.CorruptRecords, and reading continues with the next record.
func ReadDir(dir string) (*Replay, error) {
	names, err := walFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("export: no %s files in %s", walExt, dir)
	}
	rep := &Replay{Files: len(names)}
	var payloads []event.Seq
	var markers []history.RecoveryMarker
	var healths []obs.HealthRecord
	var tombs []Tombstone
	var alerts []obsrules.Alert
	for i, name := range names {
		fr, err := readWALFile(name)
		if err != nil {
			return nil, err
		}
		if fr.torn != nil {
			if i != len(names)-1 {
				return nil, fmt.Errorf("export: %s: %w (not the newest file — corruption, not a crash tail)", name, fr.torn)
			}
			rep.Recovered = true
			rep.TruncatedFile = name
		}
		payloads = append(payloads, fr.segs...)
		markers = append(markers, fr.markers...)
		healths = append(healths, fr.healths...)
		tombs = append(tombs, fr.tombs...)
		alerts = append(alerts, fr.alerts...)
		rep.CorruptRecords += fr.corrupt
	}
	rep.Segments = len(payloads)
	merged, err := MergeReplay(payloads, markers, healths, tombs, alerts)
	if err != nil {
		return nil, err
	}
	rep.Events = merged.Events
	rep.Markers = merged.Markers
	rep.Healths = merged.Healths
	rep.Tombstones = merged.Tombstones
	rep.Alerts = merged.Alerts
	rep.DuplicateEvents = merged.DuplicateEvents
	rep.DuplicateMarkers = merged.DuplicateMarkers
	rep.DuplicateHealths = merged.DuplicateHealths
	rep.DuplicateTombstones = merged.DuplicateTombstones
	rep.DuplicateAlerts = merged.DuplicateAlerts
	return rep, nil
}

// MergeReplay assembles per-record event payloads, markers, health
// snapshots, retention tombstones and threshold alerts into the
// replayed form: events k-way-merged into the global <L order with
// identical duplicates collapsed (and counted), the record-kind slices
// deduplicated preserving first-occurrence order. It is the shared
// back half of ReadDir and the windowed index.SeekReader; only Events,
// Markers, Healths, Tombstones, Alerts and the duplicate counters of
// the returned Replay are populated. A sequence-number collision
// between two different events is an error — that is two runs (or a
// corrupted record) sharing one directory, not a recoverable
// duplicate.
func MergeReplay(payloads []event.Seq, markers []history.RecoveryMarker, healths []obs.HealthRecord, tombstones []Tombstone, alerts []obsrules.Alert) (*Replay, error) {
	rep := &Replay{}
	merged := event.Merge(payloads...)
	out := merged[:0]
	for _, e := range merged {
		if n := len(out); n > 0 && out[n-1].Seq == e.Seq {
			if out[n-1] != e {
				return nil, fmt.Errorf("export: two different events share sequence number %d (monitors %q and %q) — mixed runs or corruption",
					e.Seq, out[n-1].Monitor, e.Monitor)
			}
			rep.DuplicateEvents++
			continue
		}
		out = append(out, e)
	}
	if len(out) > 0 {
		rep.Events = out
	}
	if len(markers) > 0 {
		// Into a fresh slice — never in place: the input belongs to the
		// caller (this is an exported API) and must not be scrambled by
		// the compaction under it.
		seen := make(map[history.RecoveryMarker]bool, len(markers))
		kept := make([]history.RecoveryMarker, 0, len(markers))
		for _, m := range markers {
			if seen[m] {
				rep.DuplicateMarkers++
				continue
			}
			seen[m] = true
			kept = append(kept, m)
		}
		rep.Markers = kept
	}
	if len(healths) > 0 {
		// Health records hold slices, so the dedup identity is the
		// deterministic encoding rather than Go equality — same
		// semantics: exact duplicates are compaction overlap, collapsed
		// and counted.
		seen := make(map[string]bool, len(healths))
		kept := make([]obs.HealthRecord, 0, len(healths))
		for _, h := range healths {
			k := HealthKey(h)
			if seen[k] {
				rep.DuplicateHealths++
				continue
			}
			seen[k] = true
			kept = append(kept, h)
		}
		rep.Healths = kept
	}
	if len(tombstones) > 0 {
		// Tombstones hold a slice, so the dedup identity is the
		// deterministic encoding (TombstoneKey), like health records.
		seen := make(map[string]bool, len(tombstones))
		kept := make([]Tombstone, 0, len(tombstones))
		for _, tb := range tombstones {
			k := TombstoneKey(tb)
			if seen[k] {
				rep.DuplicateTombstones++
				continue
			}
			seen[k] = true
			kept = append(kept, tb)
		}
		rep.Tombstones = kept
	}
	if len(alerts) > 0 {
		// Alerts dedup on their deterministic encoding (AlertKey) like
		// health records and tombstones — one identity rule for every
		// record kind.
		seen := make(map[string]bool, len(alerts))
		kept := make([]obsrules.Alert, 0, len(alerts))
		for _, a := range alerts {
			k := AlertKey(a)
			if seen[k] {
				rep.DuplicateAlerts++
				continue
			}
			seen[k] = true
			kept = append(kept, a)
		}
		rep.Alerts = kept
	}
	return rep, nil
}

// FileReplay is one WAL segment file read back on its own — the
// per-file half of ReadDir, exported for the trace-store layers
// (index.SeekReader opens exactly the files its index admits, the
// compactor reads the rotated inputs it is about to merge).
type FileReplay struct {
	// Segments holds the file's valid segment records in record order.
	Segments []Segment
	// Markers holds the file's recovery markers in record order.
	Markers []history.RecoveryMarker
	// Healths holds the file's health-snapshot records in record order.
	Healths []obs.HealthRecord
	// Tombstones holds the file's retention tombstones in record order.
	Tombstones []Tombstone
	// Alerts holds the file's threshold-alert records in record order.
	Alerts []obsrules.Alert
	// CorruptRecords counts skipped CRC-corrupt records (see Replay).
	CorruptRecords int
	// Torn reports that the file ends in a torn record; Segments and
	// Markers hold the valid prefix. Acceptable only for the newest
	// file of a directory — the crash-tail signature — and corruption
	// anywhere else; that verdict is the caller's.
	Torn bool
}

// ReadWALFile reads one segment file of either format version.
func ReadWALFile(name string) (*FileReplay, error) {
	fr, err := readWALFile(name)
	if err != nil {
		return nil, err
	}
	out := &FileReplay{
		Markers:        fr.markers,
		Healths:        fr.healths,
		Tombstones:     fr.tombs,
		Alerts:         fr.alerts,
		CorruptRecords: fr.corrupt,
		Torn:           fr.torn != nil,
	}
	for _, seg := range fr.segs {
		// readRecord enforces non-empty payloads with a single monitor,
		// so the segment's monitor is its first event's.
		out.Segments = append(out.Segments, Segment{Monitor: seg[0].Monitor, Events: seg})
	}
	return out, nil
}

// WALFiles lists the directory's segment files sorted by name — which
// is creation order, since names are zero-padded numbers.
func WALFiles(dir string) ([]string, error) { return walFiles(dir) }

// readRecordAt reads the single record at the given byte offset of a
// WAL file — the shared machinery of the index's point reads
// (ReadMarkerAt, ReadHealthAt, ReadTombstoneAt, ReadAlertAt).
func readRecordAt(name string, offset int64) (decodedRecord, error) {
	var zero decodedRecord
	f, err := os.Open(name)
	if err != nil {
		return zero, fmt.Errorf("export: open wal file: %w", err)
	}
	defer f.Close()
	var magic [5]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return zero, fmt.Errorf("export: %s: read magic: %w", name, err)
	}
	version := magic[4]
	if [4]byte(magic[:4]) != walMagicPrefix || version < walVersion1 || version > walVersionLatest {
		return zero, fmt.Errorf("%w in %s", ErrBadWALMagic, name)
	}
	if offset < int64(len(magic)) || offset >= math.MaxInt64 {
		return zero, fmt.Errorf("export: %s: implausible record offset %d", name, offset)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return zero, fmt.Errorf("export: %s: seek record: %w", name, err)
	}
	rec, terr, rerr := readRecord(bufio.NewReader(f), version)
	if rerr != nil {
		return zero, fmt.Errorf("export: %s offset %d: %w", name, offset, rerr)
	}
	if terr != nil {
		return zero, fmt.Errorf("export: %s offset %d: torn record: %w", name, offset, terr)
	}
	return rec, nil
}

// ReadMarkerAt reads the single marker record at the given byte offset
// of a WAL file — the point-read behind the index's marker offsets: a
// windowed replay can collect a file's recovery markers without
// decoding any of its segment payloads.
func ReadMarkerAt(name string, offset int64) (history.RecoveryMarker, error) {
	var zero history.RecoveryMarker
	rec, err := readRecordAt(name, offset)
	if err != nil {
		return zero, err
	}
	if rec.marker == nil {
		return zero, fmt.Errorf("export: %s offset %d does not hold a marker record", name, offset)
	}
	return *rec.marker, nil
}

// ReadHealthAt reads the single health-snapshot record at the given
// byte offset of a WAL file — the point-read behind the index's
// health offsets, so a windowed replay collects a skipped file's
// health timeline without decoding its segment payloads.
func ReadHealthAt(name string, offset int64) (obs.HealthRecord, error) {
	var zero obs.HealthRecord
	rec, err := readRecordAt(name, offset)
	if err != nil {
		return zero, err
	}
	if rec.health == nil {
		return zero, fmt.Errorf("export: %s offset %d does not hold a health record", name, offset)
	}
	return *rec.health, nil
}

// ReadTombstoneAt reads the single retention-tombstone record at the
// given byte offset of a WAL file — the point-read behind the index's
// tombstone offsets, so a windowed replay learns the retention horizon
// of a skipped file without decoding its segment payloads.
func ReadTombstoneAt(name string, offset int64) (Tombstone, error) {
	var zero Tombstone
	rec, err := readRecordAt(name, offset)
	if err != nil {
		return zero, err
	}
	if rec.tomb == nil {
		return zero, fmt.Errorf("export: %s offset %d does not hold a tombstone record", name, offset)
	}
	return *rec.tomb, nil
}

// ReadAlertAt reads the single threshold-alert record at the given
// byte offset of a WAL file — the point-read behind the index's alert
// offsets, so a windowed replay collects a skipped file's rule-engine
// timeline without decoding its segment payloads.
func ReadAlertAt(name string, offset int64) (obsrules.Alert, error) {
	var zero obsrules.Alert
	rec, err := readRecordAt(name, offset)
	if err != nil {
		return zero, err
	}
	if rec.alert == nil {
		return zero, fmt.Errorf("export: %s offset %d does not hold an alert record", name, offset)
	}
	return *rec.alert, nil
}

// fileReplay is readWALFile's result: the decoded records of one file
// plus its damage accounting.
type fileReplay struct {
	segs    []event.Seq
	markers []history.RecoveryMarker
	healths []obs.HealthRecord
	tombs   []Tombstone
	alerts  []obsrules.Alert
	corrupt int
	torn    error // non-nil when the file ends mid-record
}

// readWALFile reads one segment file (either format version). A CRC-
// corrupt record is skipped and counted; a torn tail ends the read
// with the valid prefix and fr.torn set — the caller decides whether a
// torn tail is acceptable for this file.
func readWALFile(name string) (*fileReplay, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("export: open wal file: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var magic [5]byte
	fr := &fileReplay{}
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		// Even the magic can be torn: a crash right after file creation.
		fr.torn = fmt.Errorf("torn wal header: %w", err)
		return fr, nil
	}
	version := magic[4]
	if [4]byte(magic[:4]) != walMagicPrefix || version < walVersion1 || version > walVersionLatest {
		return nil, fmt.Errorf("%w in %s", ErrBadWALMagic, name)
	}
	for {
		rec, terr, rerr := readRecord(br, version)
		if rerr != nil {
			if errors.Is(rerr, errCRCMismatch) {
				// Localised damage: the payload was fully consumed, so the
				// stream is at the next record boundary — skip and go on.
				fr.corrupt++
				continue
			}
			return nil, fmt.Errorf("export: %s record %d: %w", name, len(fr.segs)+len(fr.markers)+len(fr.healths)+len(fr.tombs)+len(fr.alerts)+fr.corrupt, rerr)
		}
		if terr != nil {
			if terr == io.EOF {
				return fr, nil // EOF exactly at a record boundary: clean end
			}
			fr.torn = terr
			return fr, nil
		}
		switch {
		case rec.marker != nil:
			fr.markers = append(fr.markers, *rec.marker)
		case rec.health != nil:
			fr.healths = append(fr.healths, *rec.health)
		case rec.tomb != nil:
			fr.tombs = append(fr.tombs, *rec.tomb)
		case rec.alert != nil:
			fr.alerts = append(fr.alerts, *rec.alert)
		default:
			fr.segs = append(fr.segs, rec.events)
		}
	}
}

// recHeader is one decoded record header plus the exact bytes it was
// read from (raw) — the unit of the per-file header chain that the
// index checksums.
type recHeader struct {
	typ         byte
	monitor     string
	first, last int64
	count       uint32
	payloadLen  uint32
	sum         uint32
	raw         []byte
}

// maxHeaderLen is the longest record header: type byte, monitor length
// and name, seq range, count, payload length and CRC.
const maxHeaderLen = 1 + 2 + maxMonitorName + 8 + 8 + 4 + 4 + 4

// errShortHeader is parseHeader's verdict on input that ends before
// the header does.
var errShortHeader = errors.New("export: record header cut short")

// readHeader reads one record header of the given format version. A
// short read at any point is a torn record and comes back in terr:
// io.EOF exactly at a record boundary (a clean end of file),
// io.ErrUnexpectedEOF or an implausible-header error otherwise. No
// header damage is distinguishable from a tear — arbitrary bytes left
// by a torn tail produce exactly the same shapes — so readHeader never
// reports corruption; that verdict needs the payload CRC.
func readHeader(br *bufio.Reader, version byte) (*recHeader, error) {
	// Peek returns what the stream still holds (up to a longest
	// header), so parseHeader sees exactly the bytes a field-by-field
	// read would have consumed before failing.
	b, perr := br.Peek(maxHeaderLen)
	h, n, err := parseHeader(b, version)
	if errors.Is(err, errShortHeader) {
		switch {
		case perr != nil && perr != io.EOF:
			return nil, perr
		case len(b) == 0:
			return nil, io.EOF // clean record boundary
		}
		return nil, io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, err
	}
	// The peeked bytes are the reader's buffer, which the payload read
	// reuses: raw must own its copy.
	h.raw = append(make([]byte, 0, n), b[:n]...)
	_, _ = br.Discard(n)
	return &h, nil
}

// parseHeader parses one record header of the given format version
// from the front of b and returns it with its length; h.raw aliases b.
// Input that ends early is errShortHeader; the plausibility checks run
// in field order, so a bad field ahead of the cut wins.
func parseHeader(b []byte, version byte) (h recHeader, n int, err error) {
	h.typ = recSegment
	if version >= walVersion2 {
		if len(b) < 1 {
			return h, 0, errShortHeader
		}
		h.typ = b[0]
		if h.typ != recSegment && h.typ != recMarker && h.typ != recHealth && h.typ != recTombstone && h.typ != recAlert {
			// No writer emits such a type, but a torn tail leaves
			// arbitrary bytes behind — torn at the tail, corruption
			// elsewhere (the caller decides which).
			return h, 0, fmt.Errorf("export: unknown record type %d", h.typ)
		}
		n = 1
	}
	if len(b) < n+2 {
		return h, 0, errShortHeader
	}
	monLen := int(binary.LittleEndian.Uint16(b[n:]))
	if monLen > maxMonitorName {
		// The writer refuses such names, so these bytes were never the
		// start of a record — but a torn header leaves arbitrary bytes
		// behind, so at the tail this still reads as a torn record.
		return h, 0, fmt.Errorf("export: monitor name %d bytes long (limit %d)", monLen, maxMonitorName)
	}
	n += 2
	if len(b) < n+monLen+28 {
		return h, 0, errShortHeader
	}
	h.monitor = string(b[n : n+monLen])
	n += monLen
	h.first = int64(binary.LittleEndian.Uint64(b[n:]))
	h.last = int64(binary.LittleEndian.Uint64(b[n+8:]))
	h.count = binary.LittleEndian.Uint32(b[n+16:])
	h.payloadLen = binary.LittleEndian.Uint32(b[n+20:])
	h.sum = binary.LittleEndian.Uint32(b[n+24:])
	n += 28
	h.raw = b[:n]
	// Guard the allocation before trusting the length field: a torn or
	// bit-flipped header must not make the reader balloon.
	const maxPayload = 1 << 30
	if h.payloadLen > maxPayload {
		return h, 0, fmt.Errorf("export: implausible payload length %d", h.payloadLen)
	}
	if h.typ == recSegment && h.count == 0 {
		// The writer skips empty segments, so no real segment record has
		// count 0 — but a filesystem that zero-fills a torn tail block
		// produces exactly this shape (in v2 the zero fill also reads as
		// type 0 = segment). Torn, not corrupt. Markers and tombstones
		// are exempt: a reset that found nothing buffered legitimately
		// drops 0 events, and a tombstone's count merely mirrors its
		// (possibly zero, possibly saturated) dropped total.
		return h, 0, fmt.Errorf("export: zero-count record (zero-filled torn tail)")
	}
	return h, n, nil
}

// decodedRecord is readRecord's success result: exactly one of the
// kind fields is set.
type decodedRecord struct {
	events event.Seq
	marker *history.RecoveryMarker
	health *obs.HealthRecord
	tomb   *Tombstone
	alert  *obsrules.Alert
}

// readRecord reads one WAL record of the given format version. A short
// read at any point is a torn record and comes back in terr (io.EOF
// exactly at a record boundary, io.ErrUnexpectedEOF or an
// implausible-header error otherwise); rerr is reserved for damage
// that cannot result from a crashed append — a CRC mismatch over a
// full-length payload (errCRCMismatch, which the caller may skip), or
// a CRC-valid record whose header and payload disagree. Exactly one
// kind field of the returned record is set on success.
func readRecord(br *bufio.Reader, version byte) (rec decodedRecord, terr, rerr error) {
	h, err := readHeader(br, version)
	if err != nil {
		return rec, err, nil
	}
	// Pre-size only a bounded buffer and grow as real bytes arrive
	// (io.CopyN), so a lying sub-cap length field still cannot allocate
	// more than the input actually backs — the same guard
	// event.ReadBinary applies to its count field.
	const maxPayloadPrealloc = 64 << 10
	prealloc := int(h.payloadLen)
	if prealloc > maxPayloadPrealloc {
		prealloc = maxPayloadPrealloc
	}
	pbuf := bytes.NewBuffer(make([]byte, 0, prealloc))
	if _, err := io.CopyN(pbuf, br, int64(h.payloadLen)); err != nil {
		return rec, noEOFBoundary(err), nil
	}
	payload := pbuf.Bytes()
	if got := crc32.ChecksumIEEE(payload); got != h.sum {
		// The payload is full-length, so this is no crash tear (an
		// append-only tear is always a prefix, i.e. a short read):
		// corruption of this one record, wherever it appears.
		return rec, nil, fmt.Errorf("%w (got %08x, header says %08x)", errCRCMismatch, got, h.sum)
	}

	// The CRC passed, so header/payload disagreement is a writer bug,
	// not a torn write.
	if h.typ != recSegment {
		rec, err = decodeAnnotation(h, payload)
		return rec, nil, err
	}
	events, err := event.ReadBinary(bytes.NewReader(payload))
	if err != nil {
		return rec, nil, fmt.Errorf("decode payload: %w", err)
	}
	seg := Segment{Monitor: h.monitor, Events: events}
	if len(events) != int(h.count) || seg.First() != h.first || seg.Last() != h.last {
		return rec, nil, fmt.Errorf("header (monitor %q, %d events, seq %d..%d) disagrees with payload (%d events, seq %d..%d)",
			h.monitor, h.count, h.first, h.last, len(events), seg.First(), seg.Last())
	}
	for _, e := range events {
		if e.Monitor != seg.Monitor {
			return rec, nil, fmt.Errorf("event %d belongs to monitor %q, record header says %q", e.Seq, e.Monitor, seg.Monitor)
		}
	}
	rec.events = events
	return rec, nil, nil
}

// decodeAnnotation decodes the CRC-valid payload of a marker, health,
// alert or tombstone record and checks it against its header.
func decodeAnnotation(h *recHeader, payload []byte) (rec decodedRecord, err error) {
	switch h.typ {
	case recMarker:
		m, err := decodeMarker(payload)
		if err != nil {
			return rec, fmt.Errorf("decode marker payload: %w", err)
		}
		if m.Monitor != h.monitor || m.Horizon != h.first || m.Horizon != h.last || m.Dropped != int(h.count) {
			return rec, fmt.Errorf("marker header (monitor %q, horizon %d..%d, %d dropped) disagrees with payload (monitor %q, horizon %d, %d dropped)",
				h.monitor, h.first, h.last, h.count, m.Monitor, m.Horizon, m.Dropped)
		}
		rec.marker = &m
	case recHealth:
		hr, err := decodeHealth(payload)
		if err != nil {
			return rec, fmt.Errorf("decode health payload: %w", err)
		}
		if h.monitor != "" || hr.Seq != h.first || hr.Seq != h.last || h.count != 0 {
			return rec, fmt.Errorf("health header (monitor %q, horizon %d..%d, count %d) disagrees with payload (horizon %d)",
				h.monitor, h.first, h.last, h.count, hr.Seq)
		}
		rec.health = &hr
	case recAlert:
		a, err := decodeAlert(payload)
		if err != nil {
			return rec, fmt.Errorf("decode alert payload: %w", err)
		}
		if h.monitor != "" || a.Seq != h.first || a.Seq != h.last || h.count != 0 {
			return rec, fmt.Errorf("alert header (monitor %q, horizon %d..%d, count %d) disagrees with payload (horizon %d)",
				h.monitor, h.first, h.last, h.count, a.Seq)
		}
		rec.alert = &a
	case recTombstone:
		tb, err := decodeTombstone(payload)
		if err != nil {
			return rec, fmt.Errorf("decode tombstone payload: %w", err)
		}
		if h.monitor != "" || tb.Horizon != h.first || tb.Horizon != h.last || h.count != saturatingUint32(tb.Events) {
			return rec, fmt.Errorf("tombstone header (monitor %q, horizon %d..%d, count %d) disagrees with payload (horizon %d, %d events)",
				h.monitor, h.first, h.last, h.count, tb.Horizon, tb.Events)
		}
		rec.tomb = &tb
	}
	return rec, nil
}

// record converts a decoded record to its exported form.
func (d decodedRecord) record() Record {
	switch {
	case d.marker != nil:
		return Record{Marker: d.marker}
	case d.health != nil:
		return Record{Health: d.health}
	case d.tomb != nil:
		return Record{Tombstone: d.tomb}
	case d.alert != nil:
		return Record{Alert: d.alert}
	}
	return Record{Segment: &Segment{Monitor: d.events[0].Monitor, Events: d.events}}
}

// noEOFBoundary maps io.EOF mid-record to io.ErrUnexpectedEOF so only
// a boundary EOF reads as a clean end of file.
func noEOFBoundary(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// baseName is filepath.Base shared by the scanner and the sink so
// FileSummary.Name is always the bare segment-file name.
func baseName(name string) string { return filepath.Base(name) }

// RecordReader holds one WAL file open for repeated record point
// reads — the streaming compactor's input cursor: a header-only scan
// (ScanFileRecords) locates every record, then a RecordReader decodes
// them one at a time in whatever order the merge needs, so a
// multi-gigabyte file never has to be resident at once. Unlike the
// one-shot ReadMarkerAt family it amortises the open across the whole
// merge. Not safe for concurrent use.
type RecordReader struct {
	name    string
	f       *os.File
	version byte
	br      *bufio.Reader
}

// OpenRecordReader opens the file and validates its WAL magic.
func OpenRecordReader(name string) (*RecordReader, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("export: open wal file: %w", err)
	}
	var magic [5]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("export: %s: read magic: %w", name, err)
	}
	version := magic[4]
	if [4]byte(magic[:4]) != walMagicPrefix || version < walVersion1 || version > walVersionLatest {
		f.Close()
		return nil, fmt.Errorf("%w in %s", ErrBadWALMagic, name)
	}
	return &RecordReader{name: name, f: f, version: version, br: bufio.NewReader(f)}, nil
}

// ReadAt decodes the single record at the given byte offset. A
// CRC-corrupt record comes back as an error wrapping ErrCorruptRecord
// (the reader stays usable — the stream position is re-seeked on every
// call); a torn record is an error too, since point reads target
// offsets a header scan already validated.
func (r *RecordReader) ReadAt(offset int64) (Record, error) {
	if offset < 5 {
		return Record{}, fmt.Errorf("export: %s: implausible record offset %d", r.name, offset)
	}
	if _, err := r.f.Seek(offset, io.SeekStart); err != nil {
		return Record{}, fmt.Errorf("export: %s: seek record: %w", r.name, err)
	}
	r.br.Reset(r.f)
	rec, terr, rerr := readRecord(r.br, r.version)
	if rerr != nil {
		return Record{}, fmt.Errorf("export: %s offset %d: %w", r.name, offset, rerr)
	}
	if terr != nil {
		return Record{}, fmt.Errorf("export: %s offset %d: torn record: %w", r.name, offset, terr)
	}
	return rec.record(), nil
}

// Close releases the underlying file.
func (r *RecordReader) Close() error { return r.f.Close() }
