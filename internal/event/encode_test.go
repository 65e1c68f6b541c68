package event

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleSeq() Seq {
	return Seq{
		mk(1, Enter, 1, "Send", "", 1),
		mk(2, Wait, 1, "Send", "notFull", 0),
		mk(3, Enter, 2, "Receive", "", 1),
		mk(4, SignalExit, 2, "Receive", "notFull", 1),
		mk(5, SignalExit, 1, "Send", "", 0),
	}
}

func seqsEqual(a, b Seq) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Seq != y.Seq || x.Monitor != y.Monitor || x.Type != y.Type ||
			x.Pid != y.Pid || x.Proc != y.Proc || x.Cond != y.Cond ||
			x.Flag != y.Flag || !x.Time.Equal(y.Time) {
			return false
		}
	}
	return true
}

func TestJSONRoundTrip(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	s := sampleSeq()
	if err := WriteJSON(&buf, s); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if !seqsEqual(s, got) {
		t.Fatalf("round trip mismatch:\n in: %v\nout: %v", s, got)
	}
}

func TestJSONIsLineOriented(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleSeq()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != len(sampleSeq()) {
		t.Fatalf("got %d lines, want %d", lines, len(sampleSeq()))
	}
}

func TestJSONReadGarbage(t *testing.T) {
	t.Parallel()
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("ReadJSON accepted garbage")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	s := sampleSeq()
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !seqsEqual(s, got) {
		t.Fatalf("round trip mismatch:\n in: %v\nout: %v", s, got)
	}
}

func TestBinaryEmptySeq(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil); err != nil {
		t.Fatalf("WriteBinary(nil): %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d events, want 0", len(got))
	}
}

func TestBinaryBadMagic(t *testing.T) {
	t.Parallel()
	if _, err := ReadBinary(strings.NewReader("XXXXgarbage")); err != ErrBadMagic {
		t.Fatalf("ReadBinary bad magic error = %v, want ErrBadMagic", err)
	}
}

func TestBinaryTruncated(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sampleSeq()); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{5, 10, len(raw) - 1} {
		if cut >= len(raw) {
			continue
		}
		if _, err := ReadBinary(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("ReadBinary accepted a trace truncated at %d bytes", cut)
		}
	}
}

func randomEvent(rng *rand.Rand, seq int64) Event {
	typs := []Type{Enter, Wait, SignalExit}
	typ := typs[rng.Intn(len(typs))]
	cond := ""
	if typ != Enter {
		cond = []string{"notFull", "notEmpty", "free", "c"}[rng.Intn(4)]
	}
	return Event{
		Seq:     seq,
		Monitor: []string{"buf", "alloc", "rw"}[rng.Intn(3)],
		Type:    typ,
		Pid:     rng.Int63n(100) + 1,
		Proc:    []string{"Send", "Receive", "Acquire", "Release"}[rng.Intn(4)],
		Cond:    cond,
		Flag:    rng.Intn(2),
		Time:    t0.Add(time.Duration(rng.Int63n(1e9))).UTC(),
	}
}

// TestCodecsQuickRoundTrip fuzzes both codecs with random traces.
func TestCodecsQuickRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := make(Seq, 0, n)
		for i := int64(1); i <= int64(n); i++ {
			s = append(s, randomEvent(rng, i))
		}
		var jb, bb bytes.Buffer
		if WriteJSON(&jb, s) != nil || WriteBinary(&bb, s) != nil {
			return false
		}
		js, err1 := ReadJSON(&jb)
		bs, err2 := ReadBinary(&bb)
		return err1 == nil && err2 == nil && seqsEqual(s, js) && seqsEqual(s, bs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBinaryMatchesWriteBinary(t *testing.T) {
	t.Parallel()
	for _, s := range []Seq{nil, {}, sampleSeq()} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			t.Fatal(err)
		}
		got := AppendBinary(nil, s)
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("AppendBinary diverged from WriteBinary for %d events:\n  append %x\n  write  %x",
				len(s), got, buf.Bytes())
		}
		// Appending onto an existing prefix must leave the prefix intact
		// and produce the same encoding after it — the pooled-buffer
		// contract the WAL sink relies on.
		withPrefix := AppendBinary([]byte("prefix"), s)
		if !bytes.HasPrefix(withPrefix, []byte("prefix")) || !bytes.Equal(withPrefix[6:], buf.Bytes()) {
			t.Fatalf("AppendBinary with prefix diverged")
		}
	}
}

func TestAppendBinaryIsAllocFreeIntoSizedBuffer(t *testing.T) {
	// Not parallel: AllocsPerRun measures the whole process heap.
	s := sampleSeq()
	dst := make([]byte, 0, 4096)
	if avg := testing.AllocsPerRun(100, func() {
		dst = AppendBinary(dst[:0], s)
	}); avg != 0 {
		t.Fatalf("AppendBinary into a sized buffer allocates %.1f times per call, want 0", avg)
	}
}

// TestCheckBinary: CheckBinary reports the count and seq range of a
// trace AppendBinary wrote, without allocating, and refuses every
// encoding that would not re-encode to itself as well as events of
// another monitor. Byte-level parity with ReadBinary is fuzzed by the
// export package's FuzzWriteRecordBytes.
func TestCheckBinary(t *testing.T) {
	t.Parallel()
	s := sampleSeq()
	b := AppendBinary(nil, s)
	mon := s[0].Monitor
	n, first, last, err := CheckBinary(b, mon)
	if err != nil || n != len(s) || first != s[0].Seq || last != s[len(s)-1].Seq {
		t.Fatalf("CheckBinary = %d, %d..%d, %v; want %d, %d..%d", n, first, last, err, len(s), s[0].Seq, s[len(s)-1].Seq)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _, _, _ = CheckBinary(b, mon) }); allocs != 0 {
		t.Fatalf("CheckBinary allocated %.1f times per call", allocs)
	}
	// The trace length as a two-byte varint: ReadBinary decodes it, but
	// AppendBinary would write one byte.
	nonMinimal := append(append(append([]byte(nil), b[:4]...), b[4]|0x80, 0), b[5:]...)
	if _, err := ReadBinary(bytes.NewReader(nonMinimal)); err != nil {
		t.Fatalf("ReadBinary refused the non-minimal trace: %v", err)
	}
	bad := map[string][]byte{
		"non-minimal varint": nonMinimal,
		"trailing byte":      append(append([]byte(nil), b...), 0),
		"truncated":          b[:len(b)-1],
		"bad magic":          append([]byte("RMT\x02"), b[4:]...),
		"empty":              nil,
	}
	for name, in := range bad {
		if _, _, _, err := CheckBinary(in, mon); err == nil {
			t.Errorf("CheckBinary accepted a %s trace", name)
		}
	}
	if _, _, _, err := CheckBinary(b, mon+"x"); err == nil {
		t.Error("CheckBinary accepted events of another monitor")
	}
}
