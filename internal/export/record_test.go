package export

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"robustmon/internal/history"
	"robustmon/internal/obs"
)

// TestRecordCodecByteIdenticalToWAL: encoding a record with the
// standalone codec must produce exactly the bytes WALSink puts on
// disk for the same record — the property fleet replication rests on.
// One encoder exists structurally (appendRecordHeader + the payload
// codecs), but this pins it against refactors that fork the paths.
func TestRecordCodecByteIdenticalToWAL(t *testing.T) {
	t.Parallel()
	seg := Segment{Monitor: "a", Events: tseq("a", 1, 5)}
	marker := historyMarkerSeed()
	health := healthRecordSeed()

	dir := t.TempDir()
	sink, err := NewWALSink(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(seg); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteMarker(marker); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteHealth(health); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := walFiles(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("walFiles = %v, %v; want one file", names, err)
	}
	disk, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}

	var wire []byte
	wire = append(wire, walMagicPrefix[:]...)
	wire = append(wire, walVersionLatest)
	if wire, err = AppendSegmentRecord(wire, seg); err != nil {
		t.Fatal(err)
	}
	if wire, err = AppendMarkerRecord(wire, marker); err != nil {
		t.Fatal(err)
	}
	if wire, err = AppendHealthRecord(wire, health); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, wire) {
		t.Fatalf("standalone codec diverged from the WAL writer:\n disk %d bytes\n wire %d bytes", len(disk), len(wire))
	}
}

// TestRecordRoundTrip: every record kind the standalone codec
// encodes, WriteRecordBytes stores byte for byte and the WAL reader
// decodes back to the original; the decoded annotation comes back to
// the caller. Trailing bytes, truncation, emptiness and non-canonical
// encodings are all refused.
func TestRecordRoundTrip(t *testing.T) {
	t.Parallel()
	records := []Record{
		{Segment: &Segment{Monitor: "m1", Events: tseq("m1", 3, 9)}},
		{Marker: ptr(historyMarkerSeed())},
		{Health: ptr(healthRecordSeed())},
	}
	dir := t.TempDir()
	sink, err := NewWALSink(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), walMagicPrefix[:]...)
	want = append(want, walVersionLatest)
	for _, r := range records {
		b, err := appendRecord(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sink.WriteRecordBytes(b)
		if err != nil {
			t.Fatalf("WriteRecordBytes: %v", err)
		}
		if r.Segment == nil && !reflect.DeepEqual(got, r) {
			t.Fatalf("WriteRecordBytes returned %+v, want %+v", got, r)
		}
		if r.Segment != nil && !reflect.DeepEqual(got, Record{}) {
			t.Fatalf("WriteRecordBytes decoded a segment: %+v", got)
		}
		want = append(want, b...)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := walFiles(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("walFiles = %v, %v; want one file", names, err)
	}
	disk, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, want) {
		t.Fatalf("stored %d bytes, want the %d received", len(disk), len(want))
	}
	rep, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Events, records[0].Segment.Events) ||
		!reflect.DeepEqual(rep.Markers, []history.RecoveryMarker{*records[1].Marker}) ||
		!reflect.DeepEqual(rep.Healths, []obs.HealthRecord{*records[2].Health}) {
		t.Fatalf("read back %d events, %d markers, %d healths; want the records written",
			len(rep.Events), len(rep.Markers), len(rep.Healths))
	}

	b, err := appendRecord(nil, records[0])
	if err != nil {
		t.Fatal(err)
	}
	nonMinimal := nonMinimalSegmentRecord(*records[0].Segment)
	if _, _, rerr := readRecord(bufio.NewReader(bytes.NewReader(nonMinimal)), walVersionLatest); rerr != nil {
		t.Fatalf("reader refused the non-minimal record: %v", rerr)
	}
	bad := map[string][]byte{
		"trailing":           append(append([]byte(nil), b...), 0),
		"truncated":          b[:len(b)-1],
		"empty":              nil,
		"non-minimal varint": nonMinimal,
	}
	for name, in := range bad {
		if _, err := sink.WriteRecordBytes(in); err == nil {
			t.Fatalf("WriteRecordBytes accepted %s input", name)
		}
	}
	if _, err := appendRecord(nil, Record{}); err == nil {
		t.Fatal("appendRecord accepted an empty record")
	}
}

func ptr[T any](v T) *T { return &v }

// TestWALOnSealFanOut: every OnSeal consumer sees every seal in
// order, an erroring consumer never starves the ones after it, and
// the error is routed to OnSealError and counted — while the write
// path stays oblivious.
func TestWALOnSealFanOut(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	var first, second []FileSummary
	var reported []error
	boom := errors.New("boom")
	sink, err := NewWALSink(t.TempDir(), WALConfig{
		MaxFileBytes: 1, // rotate after every record
		Obs:          reg,
		OnSealError:  func(err error) { reported = append(reported, err) },
		OnSeal: []SealedSink{
			SealedSinkFunc(func(fs FileSummary) error {
				first = append(first, fs)
				return boom
			}),
			nil, // tolerated, skipped
			SealedSinkFunc(func(fs FileSummary) error {
				second = append(second, fs)
				return nil
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := sink.WriteSegment(Segment{Monitor: "a", Events: tseq("a", 3*i+1, 3*i+3)}); err != nil {
			t.Fatalf("write %d: the erroring seal consumer leaked into the write path: %v", i, err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("fan-out fed consumers %d and %d seals, want 3 each", len(first), len(second))
	}
	for i := range first {
		if first[i].Name != second[i].Name {
			t.Fatalf("seal %d: consumers saw different files %q vs %q", i, first[i].Name, second[i].Name)
		}
	}
	if len(reported) != 3 {
		t.Fatalf("OnSealError reported %d errors, want 3", len(reported))
	}
	for _, err := range reported {
		if !errors.Is(err, boom) {
			t.Fatalf("OnSealError got %v, want the consumer's error", err)
		}
	}
	if v, _ := reg.Snapshot().Counter("export_wal_seal_errors_total"); v != 3 {
		t.Fatalf("export_wal_seal_errors_total = %d, want 3", v)
	}
}

// TestTeeSink: every record reaches every capable sink, markers and
// health snapshots skip sinks without the extension, and one sink's
// error doesn't stop delivery to the others.
func TestTeeSink(t *testing.T) {
	t.Parallel()
	a, b := &MemorySink{}, &MemorySink{}
	plain := &countingSegSink{}
	failing := &teeFailSink{}
	tee := NewTeeSink(a, nil, plain, failing, b)

	seg := Segment{Monitor: "m", Events: tseq("m", 1, 2)}
	if err := tee.WriteSegment(seg); err == nil {
		t.Fatal("WriteSegment swallowed the failing sink's error")
	}
	if err := tee.WriteMarker(historyMarkerSeed()); err != nil {
		t.Fatalf("WriteMarker: %v", err)
	}
	if err := tee.WriteHealth(healthRecordSeed()); err != nil {
		t.Fatalf("WriteHealth: %v", err)
	}
	if err := tee.Flush(); err == nil {
		t.Fatal("Flush swallowed the failing sink's error")
	}
	if err := tee.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for name, m := range map[string]*MemorySink{"a": a, "b": b} {
		if len(m.Segments()) != 1 || len(m.Markers()) != 1 || len(m.Healths()) != 1 {
			t.Fatalf("sink %s got %d/%d/%d records, want 1 of each kind",
				name, len(m.Segments()), len(m.Markers()), len(m.Healths()))
		}
	}
	if plain.segments != 1 {
		t.Fatalf("segment-only sink got %d segments, want 1", plain.segments)
	}
}

// countingSegSink implements only the base Sink interface — the tee
// must route segments to it and silently skip markers/health.
type countingSegSink struct{ segments int }

func (s *countingSegSink) WriteSegment(Segment) error { s.segments++; return nil }
func (s *countingSegSink) Flush() error               { return nil }
func (s *countingSegSink) Close() error               { return nil }

// teeFailSink errors on the segment path and Flush but not Close.
type teeFailSink struct{}

func (s *teeFailSink) WriteSegment(Segment) error { return fmt.Errorf("tee: disk on fire") }
func (s *teeFailSink) Flush() error               { return fmt.Errorf("tee: still on fire") }
func (s *teeFailSink) Close() error               { return nil }

// TestMaintainerSeamEquivalence: the index maintainer's OnSeal seam
// is exercised indirectly across the index package's tests; here we
// pin only that the seals a WALSink feeds through OnSeal record exactly
// what a header scan of the sealed files rebuilds — the equivalence
// that lets a damaged index be rebuilt instead of trusted.
func TestMaintainerSeamEquivalence(t *testing.T) {
	t.Parallel()
	write := func(dir string, cfg WALConfig) {
		sink, err := NewWALSink(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 3; i++ {
			if err := sink.WriteSegment(Segment{Monitor: "a", Events: tseq("a", i, i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The maintainer lives in the index package (which imports this
	// one), so stand in for it with a SealedSinkFunc consumer writing a
	// sidecar file of sealed names.
	record := func(dir string) func(FileSummary) {
		return func(fs FileSummary) {
			f, err := os.OpenFile(filepath.Join(dir, "sealed.txt"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			fmt.Fprintln(f, fs.Name, fs.Records, fs.Size)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	fA := record(dirA)
	write(dirA, WALConfig{MaxFileBytes: 1, OnSeal: []SealedSink{
		SealedSinkFunc(func(fs FileSummary) error { fA(fs); return nil }),
	}})
	write(dirB, WALConfig{MaxFileBytes: 1})
	names, err := walFiles(dirB)
	if err != nil {
		t.Fatal(err)
	}
	fB := record(dirB)
	for _, name := range names {
		fs, err := ScanFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fB(fs)
	}
	a, err := os.ReadFile(filepath.Join(dirA, "sealed.txt"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirB, "sealed.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("OnSeal and a header scan recorded different seals:\n%s\nvs\n%s", a, b)
	}
}
