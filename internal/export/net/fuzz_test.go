package netexport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/export"
)

// streamConn is the collector's end of a pipe whose inbound side is a
// fixed byte stream: reads drain it and then see EOF, as after a
// peer's half-close, while the collector's answers still cross the
// pipe.
type streamConn struct {
	net.Conn
	r io.Reader
}

func (c streamConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// serveConn runs one collector connection that receives stream,
// discarding whatever the collector answers, until the collector
// hangs up.
func serveConn(col *Collector, stream []byte) {
	client, server := net.Pipe()
	go func() { _, _ = io.Copy(io.Discard, client) }()
	col.handle(streamConn{Conn: server, r: bytes.NewReader(stream)})
	client.Close()
}

// TestCollectorFrameReadBoundedByArrivedBytes: a frame's length field
// is unauthenticated until its CRC checks out, so a peer that sends
// only a length — even as its pre-handshake HELLO — must not make the
// collector allocate it. Not parallel: it reads the process-wide
// allocation counter.
func TestCollectorFrameReadBoundedByArrivedBytes(t *testing.T) {
	col, err := NewCollector(CollectorConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	const conns = 4
	clients := make([]net.Conn, conns)
	done := make([]chan struct{}, conns)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range clients {
		client, server := net.Pipe()
		clients[i], done[i] = client, make(chan struct{})
		go func(i int) {
			col.handle(server)
			close(done[i])
		}(i)
		if _, err := client.Write(binary.LittleEndian.AppendUint32(nil, 60<<20)); err != nil {
			t.Fatal(err)
		}
		// The pipe is unbuffered: this write returns only once the
		// collector reads the body, so its buffer is sized by then.
		if _, err := client.Write([]byte{frameHello}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	for i, client := range clients {
		client.Close()
		<-done[i]
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("%d connections that each sent a 60 MiB frame length allocated %d bytes", conns, grew)
	}
}

// appendFuzzFrames turns the fuzzer's frame stream — each body behind
// a uvarint length, cut short where the input ends — into wire frames
// with valid length and CRC, so mutations reach the frame parsers
// instead of dying at the CRC.
func appendFuzzFrames(dst, in []byte) []byte {
	for len(in) > 0 {
		n, k := binary.Uvarint(in)
		if k <= 0 {
			return dst
		}
		in = in[k:]
		n = min(n, uint64(len(in)))
		if n > 0 {
			dst = appendFrame(dst, in[:n])
		}
		in = in[n:]
	}
	return dst
}

// encodeFuzzFrames is appendFuzzFrames' inverse, for seeding.
func encodeFuzzFrames(bodies ...[]byte) []byte {
	var out []byte
	for _, b := range bodies {
		out = binary.AppendUvarint(out, uint64(len(b)))
		out = append(out, b...)
	}
	return out
}

// FuzzCollectorConn feeds arbitrary HELLO/RECORD/FLUSH frame streams
// into a Collector. It must not panic, its allocations must stay
// proportional to the bytes it was sent, and every record it stores
// must read back intact. With raw set the stream goes out unframed,
// so the framing itself is fuzzed too.
func FuzzCollectorConn(f *testing.F) {
	at := time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)
	seg, err := export.AppendSegmentRecord(nil, export.Segment{Monitor: "m", Events: tseq("m", 1, 3)})
	if err != nil {
		f.Fatal(err)
	}
	cond, err := export.AppendSegmentRecord(nil, export.Segment{Monitor: "buf", Events: event.Seq{
		{Seq: 4, Monitor: "buf", Type: event.Wait, Pid: 1, Proc: "Put", Cond: "notFull", Time: at},
		{Seq: 5, Monitor: "buf", Type: event.SignalExit, Pid: 2, Proc: "Get", Cond: "notFull", Time: at},
	}})
	if err != nil {
		f.Fatal(err)
	}
	marker, err := export.AppendMarkerRecord(nil, tmarker("m", 3))
	if err != nil {
		f.Fatal(err)
	}
	health, err := export.AppendHealthRecord(nil, thealth(5))
	if err != nil {
		f.Fatal(err)
	}
	hello := appendHello(nil, "node-1")
	session := encodeFuzzFrames(hello,
		appendRecordFrame(nil, 1, seg),
		appendRecordFrame(nil, 2, marker),
		appendRecordFrame(nil, 3, health),
		appendFlushFrame(nil),
		appendRecordFrame(nil, 3, health), // a resent duplicate
		appendRecordFrame(nil, 4, cond),
		appendFlushFrame(nil))
	f.Add(session, false)
	f.Add(appendFuzzFrames(nil, session), true)
	f.Add(encodeFuzzFrames(appendRecordFrame(nil, 1, seg)), false) // no HELLO
	f.Add(encodeFuzzFrames(hello, appendRecordFrame(nil, 1, seg[:len(seg)-1])), false)
	f.Add(binary.LittleEndian.AppendUint32(nil, 60<<20), true) // a length and nothing else

	f.Fuzz(func(t *testing.T, in []byte, raw bool) {
		stream := in
		if !raw {
			stream = appendFuzzFrames(nil, in)
		}
		dir := t.TempDir()
		col, err := NewCollector(CollectorConfig{Dir: dir, AckEvery: 4, NoIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serveConn(col, stream)
		if err := col.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(stream))+8<<20 {
			t.Fatalf("collector allocated %d bytes on a %d-byte stream", grew, len(stream))
		}
		names, err := filepath.Glob(filepath.Join(dir, "*", "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			fr, err := export.ReadWALFile(name)
			if err != nil {
				t.Fatalf("stored WAL %s does not read back: %v", name, err)
			}
			if fr.CorruptRecords != 0 || fr.Torn {
				t.Fatalf("stored WAL %s reads back with %d corrupt records, torn %v", name, fr.CorruptRecords, fr.Torn)
			}
		}
	})
}
