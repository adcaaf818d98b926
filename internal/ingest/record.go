// Package ingest is the durable streaming-ingest subsystem behind
// trajserve's POST /v1/ingest: accepted location reports append to a
// segmented write-ahead log (length-prefixed records with CRC-32C
// trailers, fsync-batched group commit), feed per-object sliding windows
// with deterministic eviction, and are replayed byte-identically after a
// crash before the service reports ready.
//
// The package holds the paper's ingest contract to the robustness bar of
// the rest of the repo: no report acknowledged with 200 may be lost to a
// SIGKILL, overload sheds with typed errors instead of queueing without
// bound, and a torn WAL tail — the on-disk shape of power loss
// mid-append — is skipped on replay with a logged, metered warning while
// any mid-log corruption is a hard error.
//
// The package is deterministic by construction (trajlint's determinism
// analyzer covers it waiver-free): no wall-clock reads, no global RNG,
// and every map iteration that feeds output is key-sorted. Group commit
// needs no timer — a batch is whatever accumulated while the previous
// fsync was in flight.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Record is one accepted location report as persisted in the WAL: the
// wire fields (object, time, location) plus the global sequence number
// the WAL assigned at append. Seq is strictly increasing across the
// whole log and never reused, which is what makes segment pruning and
// replay convergence checkable.
type Record struct {
	Seq  uint64  `json:"seq"`
	Obj  string  `json:"obj"`
	Time float64 `json:"time"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// Wire framing: every record is
//
//	uint32 payloadLen | payload | uint32 crc32c(payload)
//
// with payload
//
//	uint64 seq | float64 time | float64 x | float64 y | uint16 objLen | obj
//
// all little-endian. The length prefix lets a reader skip to the CRC
// without parsing, and the CRC trailer covers the payload alone — the
// length prefix is implicitly verified by the trailer's position.
const (
	recordFixedPayload = 8 + 8 + 8 + 8 + 2 // seq, time, x, y, objLen
	recordFrame        = 4 + 4             // length prefix + CRC trailer

	// maxObjBytes mirrors report.MaxObjectIDLen; the decoder enforces it
	// independently so a hand-forged segment cannot smuggle an oversized
	// ID past validation.
	maxObjBytes = 128

	// maxRecordPayload bounds a credible payload; a length prefix beyond
	// it is corruption (or a tear that mangled the prefix), never a
	// record to wait for.
	maxRecordPayload = recordFixedPayload + maxObjBytes
)

// walCRC is the CRC-32C (Castagnoli) table shared by the WAL writer and
// reader, matching the checkpoint trailer's choice.
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports bytes that cannot be a record: a CRC mismatch, an
// impossible length, or an object length that disagrees with the
// payload. Replay treats it as fatal everywhere except a record that
// runs to the exact end of the final segment (see WAL replay).
type CorruptError struct {
	// Segment is the offending segment file (empty during in-memory
	// decoding), Offset the byte offset of the record's length prefix.
	Segment string
	Offset  int64
	// Reason says what was wrong.
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	if e == nil {
		return "ingest: corrupt WAL record"
	}
	if e.Segment == "" {
		return fmt.Sprintf("ingest: corrupt record at offset %d: %s", e.Offset, e.Reason)
	}
	return fmt.Sprintf("ingest: corrupt WAL record in %s at offset %d: %s", e.Segment, e.Offset, e.Reason)
}

// errTruncatedRecord marks bytes that end before the framed record does:
// the torn-tail shape. Only the final position of the final segment may
// legally hold it.
var errTruncatedRecord = errors.New("ingest: truncated WAL record")

// appendRecord appends the framed encoding of r to dst and returns the
// extended slice. It assumes r was validated (object within bounds);
// encoding an oversized object panics rather than writing a frame the
// decoder would reject.
func appendRecord(dst []byte, r Record) []byte {
	if len(r.Obj) > maxObjBytes {
		panic(fmt.Sprintf("ingest: appendRecord: object id %d bytes exceeds %d (validation bypassed?)", len(r.Obj), maxObjBytes))
	}
	payloadLen := recordFixedPayload + len(r.Obj)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payloadLen))
	payloadStart := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Time))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.X))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Y))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Obj)))
	dst = append(dst, r.Obj...)
	sum := crc32.Checksum(dst[payloadStart:], walCRC)
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// decodeRecord decodes the first framed record in b. It returns the
// record and the number of bytes consumed, errTruncatedRecord when b
// ends before the frame does (n then reports how many bytes the full
// frame would need), or a *CorruptError when the bytes cannot be a
// record at any length.
func decodeRecord(b []byte) (r Record, n int, err error) {
	if len(b) < 4 {
		return Record{}, recordFrame, errTruncatedRecord
	}
	payloadLen := int(binary.LittleEndian.Uint32(b))
	if payloadLen < recordFixedPayload || payloadLen > maxRecordPayload {
		return Record{}, 0, &CorruptError{Reason: fmt.Sprintf("impossible payload length %d", payloadLen)}
	}
	total := recordFrame + payloadLen
	if len(b) < total {
		return Record{}, total, errTruncatedRecord
	}
	payload := b[4 : 4+payloadLen]
	want := binary.LittleEndian.Uint32(b[4+payloadLen:])
	if got := crc32.Checksum(payload, walCRC); got != want {
		return Record{}, 0, &CorruptError{Reason: fmt.Sprintf("CRC mismatch: stored %08x, computed %08x", want, got)}
	}
	objLen := int(binary.LittleEndian.Uint16(payload[32:34]))
	if objLen != payloadLen-recordFixedPayload {
		return Record{}, 0, &CorruptError{Reason: fmt.Sprintf("object length %d disagrees with payload length %d", objLen, payloadLen)}
	}
	r = Record{
		Seq:  binary.LittleEndian.Uint64(payload[0:8]),
		Time: math.Float64frombits(binary.LittleEndian.Uint64(payload[8:16])),
		X:    math.Float64frombits(binary.LittleEndian.Uint64(payload[16:24])),
		Y:    math.Float64frombits(binary.LittleEndian.Uint64(payload[24:32])),
		Obj:  string(payload[34:]),
	}
	return r, total, nil
}
