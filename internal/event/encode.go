package event

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// Codecs for exporting/importing history traces. Two formats are
// supported:
//
//   - JSON Lines (one event object per line), for human inspection and
//     interoperability with other tooling;
//   - a compact length-prefixed binary format, for large traces.
//
// Both round-trip every field including the timestamp at nanosecond
// resolution.

// ErrBadMagic reports that a binary stream does not start with the
// trace header.
var ErrBadMagic = errors.New("event: bad trace magic")

// The binary decoders' plausibility caps: a longer string or trace is
// refused as corrupt rather than allocated.
const (
	maxStringLen = 1 << 20
	maxTraceLen  = 1 << 30
)

// binaryMagic identifies a binary trace stream; the trailing byte is a
// format version.
var binaryMagic = [4]byte{'R', 'M', 'T', 1}

// WriteJSON writes the sequence as JSON Lines.
func WriteJSON(w io.Writer, s Seq) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, e := range s {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("event: encode json event %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("event: flush json trace: %w", err)
	}
	return nil
}

// ReadJSON reads a JSON Lines trace until EOF.
func ReadJSON(r io.Reader) (Seq, error) {
	dec := json.NewDecoder(r)
	var out Seq
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, fmt.Errorf("event: decode json event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}

// WriteBinary writes the sequence in the compact binary trace format.
func WriteBinary(w io.Writer, s Seq) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return fmt.Errorf("event: write trace magic: %w", err)
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putString := func(v string) error {
		if err := putUvarint(uint64(len(v))); err != nil {
			return err
		}
		_, err := bw.WriteString(v)
		return err
	}
	if err := putUvarint(uint64(len(s))); err != nil {
		return fmt.Errorf("event: write trace length: %w", err)
	}
	for i, e := range s {
		err := errors.Join(
			putVarint(e.Seq),
			putString(e.Monitor),
			putUvarint(uint64(e.Type)),
			putVarint(e.Pid),
			putString(e.Proc),
			putString(e.Cond),
			putUvarint(uint64(e.Flag)),
			putVarint(e.Time.UnixNano()),
		)
		if err != nil {
			return fmt.Errorf("event: write binary event %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("event: flush binary trace: %w", err)
	}
	return nil
}

// AppendBinary appends the sequence's binary trace encoding to dst and
// returns the extended slice, exactly the bytes WriteBinary would have
// written (pinned by TestAppendBinaryMatchesWriteBinary and
// FuzzAppendBinary). It is the allocation-free encode for the export
// hot path: callers hand it a pooled buffer (dst may be nil) and the
// only allocations are the amortised growth of dst itself.
func AppendBinary(dst []byte, s Seq) []byte {
	dst = append(dst, binaryMagic[:]...)
	var scratch [binary.MaxVarintLen64]byte
	dst = append(dst, scratch[:binary.PutUvarint(scratch[:], uint64(len(s)))]...)
	for i := range s {
		dst = appendEventBinary(dst, &s[i])
	}
	return dst
}

// appendEventBinary appends one event's binary encoding — the field
// order of WriteBinary's encode loop.
func appendEventBinary(dst []byte, e *Event) []byte {
	var scratch [binary.MaxVarintLen64]byte
	putVarint := func(v int64) {
		dst = append(dst, scratch[:binary.PutVarint(scratch[:], v)]...)
	}
	putUvarint := func(v uint64) {
		dst = append(dst, scratch[:binary.PutUvarint(scratch[:], v)]...)
	}
	putString := func(v string) {
		putUvarint(uint64(len(v)))
		dst = append(dst, v...)
	}
	putVarint(e.Seq)
	putString(e.Monitor)
	putUvarint(uint64(e.Type))
	putVarint(e.Pid)
	putString(e.Proc)
	putString(e.Cond)
	putUvarint(uint64(e.Flag))
	putVarint(e.Time.UnixNano())
	return dst
}

// ReadBinary reads a binary trace written by WriteBinary.
func ReadBinary(r io.Reader) (Seq, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("event: read trace magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, ErrBadMagic
	}
	getString := func() (string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return "", err
		}
		if n > maxStringLen {
			return "", fmt.Errorf("event: implausible string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("event: read trace length: %w", err)
	}
	if count > maxTraceLen {
		return nil, fmt.Errorf("event: implausible trace length %d", count)
	}
	// Pre-size from the declared count, but cap the speculative
	// allocation: the count field of a corrupt or truncated stream must
	// not make the reader balloon before the decode loop fails.
	out := make(Seq, 0, min(count, 4096))
	for i := uint64(0); i < count; i++ {
		var e Event
		if e.Seq, err = binary.ReadVarint(br); err != nil {
			return nil, fmt.Errorf("event: read event %d seq: %w", i, err)
		}
		if e.Monitor, err = getString(); err != nil {
			return nil, fmt.Errorf("event: read event %d monitor: %w", i, err)
		}
		typ, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("event: read event %d type: %w", i, err)
		}
		e.Type = Type(typ)
		if e.Pid, err = binary.ReadVarint(br); err != nil {
			return nil, fmt.Errorf("event: read event %d pid: %w", i, err)
		}
		if e.Proc, err = getString(); err != nil {
			return nil, fmt.Errorf("event: read event %d proc: %w", i, err)
		}
		if e.Cond, err = getString(); err != nil {
			return nil, fmt.Errorf("event: read event %d cond: %w", i, err)
		}
		flag, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("event: read event %d flag: %w", i, err)
		}
		e.Flag = int(flag)
		nanos, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("event: read event %d time: %w", i, err)
		}
		e.Time = time.Unix(0, nanos).UTC()
		out = append(out, e)
	}
	return out, nil
}

// CheckBinary validates a binary trace in place, without decoding it,
// and reports its event count and the seqs of its first and last
// events (zero for an empty trace). Every event must name monitor. It
// accepts exactly the traces ReadBinary decodes and AppendBinary
// re-encodes to the same bytes: ReadBinary's length caps apply, every
// varint must be minimal, and no byte may follow the last event
// (pinned by TestCheckBinary and the export package's
// FuzzWriteRecordBytes). It never allocates on success, which
// makes it the validator for a received trace that is stored as is.
func CheckBinary(b []byte, monitor string) (count int, first, last int64, err error) {
	if len(b) < len(binaryMagic) || [4]byte(b[:4]) != binaryMagic {
		return 0, 0, 0, ErrBadMagic
	}
	c := binaryChecker{b: b, off: len(binaryMagic)}
	n := c.uvarint("trace length")
	if c.err == nil && n > maxTraceLen {
		return 0, 0, 0, fmt.Errorf("event: implausible trace length %d", n)
	}
	for i := uint64(0); i < n && c.err == nil; i++ {
		seq := c.varint("seq")
		if mon := c.bytes("monitor"); c.err == nil && string(mon) != monitor {
			return 0, 0, 0, fmt.Errorf("event: event %d belongs to monitor %q, want %q", seq, mon, monitor)
		}
		c.uvarint("type")
		c.varint("pid")
		c.bytes("proc")
		c.bytes("cond")
		c.uvarint("flag")
		c.varint("time")
		if i == 0 {
			first = seq
		}
		last = seq
	}
	if c.err != nil {
		return 0, 0, 0, c.err
	}
	if rest := len(b) - c.off; rest > 0 {
		return 0, 0, 0, fmt.Errorf("event: %d trailing bytes after %d events", rest, n)
	}
	return int(n), first, last, nil
}

// binaryChecker walks a binary trace for CheckBinary. The first error
// sticks and turns every later read into a no-op.
type binaryChecker struct {
	b   []byte
	off int
	err error
}

// uvarint reads one minimally encoded unsigned varint: a multi-byte
// encoding whose last byte is zero has a shorter form, which is the
// one AppendBinary would have written.
func (c *binaryChecker) uvarint(what string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	switch {
	case n == 0:
		c.err = fmt.Errorf("event: read %s: %w", what, io.ErrUnexpectedEOF)
	case n < 0:
		c.err = fmt.Errorf("event: read %s: varint overflows 64 bits", what)
	case n > 1 && c.b[c.off+n-1] == 0:
		c.err = fmt.Errorf("event: read %s: non-minimal varint", what)
	default:
		c.off += n
	}
	return v
}

// varint reads one minimally encoded signed (zig-zag) varint.
func (c *binaryChecker) varint(what string) int64 {
	u := c.uvarint(what)
	return int64(u>>1) ^ -int64(u&1)
}

// bytes reads one length-prefixed string in place.
func (c *binaryChecker) bytes(what string) []byte {
	n := c.uvarint(what)
	if c.err != nil {
		return nil
	}
	if n > maxStringLen {
		c.err = fmt.Errorf("event: read %s: implausible string length %d", what, n)
		return nil
	}
	if n > uint64(len(c.b)-c.off) {
		c.err = fmt.Errorf("event: read %s: %w", what, io.ErrUnexpectedEOF)
		return nil
	}
	s := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return s
}
