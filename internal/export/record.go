package export

// The standalone record codec. A WAL file is a magic header followed
// by framed records; this file exposes the record framing itself —
// encode one record to bytes — so the same encoding that lands on
// local disk can travel a wire (see internal/export/net) and be stored
// on the far side byte-for-byte identically by
// WALSink.WriteRecordBytes. Sharing appendRecordHeader with
// WALSink.writeRecord is what makes that identity a structural
// property rather than a convention: there is exactly one encoder.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
)

// appendRecordHeader appends the v2 record header (type byte, monitor,
// seq range, count, payload length, payload CRC) for the given payload.
// The single shared encoder behind both the WAL writer and the wire
// codec.
func appendRecordHeader(dst []byte, typ byte, monitor string, first, last int64, count uint32, payload []byte) []byte {
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(monitor)))
	dst = append(dst, monitor...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(first))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(last))
	dst = binary.LittleEndian.AppendUint32(dst, count)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return dst
}

// Record is one trace record in standalone (wire) form — exactly one
// of the five kinds is set. The zero Record is invalid.
type Record struct {
	Segment   *Segment
	Marker    *history.RecoveryMarker
	Health    *obs.HealthRecord
	Tombstone *Tombstone
	Alert     *obsrules.Alert
}

// AppendSegmentRecord appends one fully framed segment record
// (header + payload, no file magic) and returns the extended buffer.
// The bytes are exactly what WALSink.WriteSegment would put on disk.
func AppendSegmentRecord(dst []byte, seg Segment) ([]byte, error) {
	if len(seg.Events) == 0 {
		return dst, fmt.Errorf("export: encode record: empty segment")
	}
	if len(seg.Monitor) > maxMonitorName {
		return dst, fmt.Errorf("export: monitor name %d bytes long (limit %d)", len(seg.Monitor), maxMonitorName)
	}
	p := getPayloadBuf(16 + 48*len(seg.Events))
	*p = event.AppendBinary((*p)[:0], seg.Events)
	dst = appendRecordHeader(dst, recSegment, seg.Monitor,
		seg.First(), seg.Last(), uint32(len(seg.Events)), *p)
	dst = append(dst, *p...)
	putPayloadBuf(p)
	return dst, nil
}

// AppendMarkerRecord appends one fully framed recovery-marker record;
// byte-identical to WALSink.WriteMarker's on-disk form.
func AppendMarkerRecord(dst []byte, m history.RecoveryMarker) ([]byte, error) {
	if len(m.Monitor) > maxMonitorName {
		return dst, fmt.Errorf("export: monitor name %d bytes long (limit %d)", len(m.Monitor), maxMonitorName)
	}
	p := getPayloadBuf(64 + len(m.Rule) + len(m.Monitor))
	*p = appendMarker((*p)[:0], m)
	dst = appendRecordHeader(dst, recMarker, m.Monitor,
		m.Horizon, m.Horizon, uint32(m.Dropped), *p)
	dst = append(dst, *p...)
	putPayloadBuf(p)
	return dst, nil
}

// AppendHealthRecord appends one fully framed health-snapshot record;
// byte-identical to WALSink.WriteHealth's on-disk form.
func AppendHealthRecord(dst []byte, h obs.HealthRecord) ([]byte, error) {
	p := getPayloadBuf(256)
	*p = appendHealth((*p)[:0], h)
	dst = appendRecordHeader(dst, recHealth, "", h.Seq, h.Seq, 0, *p)
	dst = append(dst, *p...)
	putPayloadBuf(p)
	return dst, nil
}

// AppendAlertRecord appends one fully framed threshold-alert record;
// byte-identical to WALSink.WriteAlert's on-disk form.
func AppendAlertRecord(dst []byte, a obsrules.Alert) ([]byte, error) {
	p := getPayloadBuf(64 + len(a.Rule) + len(a.Metric) + len(a.Origin))
	*p = appendAlert((*p)[:0], a)
	dst = appendRecordHeader(dst, recAlert, "", a.Seq, a.Seq, 0, *p)
	dst = append(dst, *p...)
	putPayloadBuf(p)
	return dst, nil
}

// AppendTombstoneRecord appends one fully framed retention-tombstone
// record; byte-identical to WALSink.WriteTombstone's on-disk form.
func AppendTombstoneRecord(dst []byte, t Tombstone) ([]byte, error) {
	p := getPayloadBuf(128 + 32*len(t.Monitors))
	*p = appendTombstone((*p)[:0], t)
	dst = appendRecordHeader(dst, recTombstone, "", t.Horizon, t.Horizon,
		saturatingUint32(t.Events), *p)
	dst = append(dst, *p...)
	putPayloadBuf(p)
	return dst, nil
}

// appendRecord appends whichever kind r carries: the canonical bytes
// of a decoded record.
func appendRecord(dst []byte, r Record) ([]byte, error) {
	switch {
	case r.Segment != nil:
		return AppendSegmentRecord(dst, *r.Segment)
	case r.Marker != nil:
		return AppendMarkerRecord(dst, *r.Marker)
	case r.Health != nil:
		return AppendHealthRecord(dst, *r.Health)
	case r.Tombstone != nil:
		return AppendTombstoneRecord(dst, *r.Tombstone)
	case r.Alert != nil:
		return AppendAlertRecord(dst, *r.Alert)
	}
	return dst, fmt.Errorf("export: encode record: empty record")
}
