// Replication frame payloads. A hot-standby master tails the primary's
// write-ahead journal over one duplex connection: the standby opens with
// a FrameRepHello, the primary answers with a FrameRepCheckpoint base
// image, then streams FrameRepRecords batches (raw journal bytes)
// interleaved with FrameRepPing probes. The standby reports its
// applied watermark with FrameRepAck frames, from which the primary
// derives replication lag.
//
// Record and checkpoint payloads are binary (length-delimited fields in
// little-endian), not JSON: the records stream carries the journal's own
// on-disk bytes verbatim, so wrapping them in JSON would force a copy and
// an escape pass on the hot flush path.
package wire

import (
	"encoding/binary"
	"fmt"
)

// RepHello opens a replication session (FrameRepHello payload, JSON).
type RepHello struct {
	// StandbyID names the standby instance (for /statusz and logs).
	StandbyID string `json:"standbyId"`
	// App must match the primary's application; a standby for the wrong
	// app is refused.
	App string `json:"app"`
}

// RepCheckpoint is the decoded form of a FrameRepCheckpoint payload: the
// primary's current checkpoint image plus the (epoch, generation) pair
// the image was cut at. The journal file started at the same instant is
// empty, so Data is a complete state base: every later FrameRepRecords
// byte applies strictly on top of it.
type RepCheckpoint struct {
	Epoch      uint64
	Generation uint64
	// Data is the checkpoint JSON exactly as the primary persists it
	// (the payload of its on-disk checkpoint record).
	Data []byte
}

// RepRecords is the decoded form of a FrameRepRecords payload: one
// flushed batch of raw journal record bytes.
type RepRecords struct {
	// Seq is the primary's flush-batch watermark: a monotone index
	// assigned per flushed batch in stream order, so "applied ≤ Seq"
	// means every earlier batch is in the mirror too. The standby echoes
	// the highest applied watermark in FrameRepAck.
	Seq uint64
	// Data holds encoded journal records, byte-identical to what the
	// primary appended to its own journal file.
	Data []byte
}

// AppendRepCheckpoint appends an encoded FrameRepCheckpoint payload:
// u64 epoch | u64 generation | checkpoint bytes.
func AppendRepCheckpoint(dst []byte, ck RepCheckpoint) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, ck.Epoch)
	dst = binary.LittleEndian.AppendUint64(dst, ck.Generation)
	return append(dst, ck.Data...)
}

// DecodeRepCheckpoint splits a FrameRepCheckpoint payload. Data aliases
// the input.
func DecodeRepCheckpoint(payload []byte) (RepCheckpoint, error) {
	if len(payload) < 16 {
		return RepCheckpoint{}, fmt.Errorf("%w: short repCheckpoint", ErrBadFrame)
	}
	return RepCheckpoint{
		Epoch:      binary.LittleEndian.Uint64(payload[0:8]),
		Generation: binary.LittleEndian.Uint64(payload[8:16]),
		Data:       payload[16:],
	}, nil
}

// AppendRepRecords appends an encoded FrameRepRecords payload:
// u64 seq | raw journal bytes.
func AppendRepRecords(dst []byte, rr RepRecords) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, rr.Seq)
	return append(dst, rr.Data...)
}

// DecodeRepRecords splits a FrameRepRecords payload. Data aliases the
// input.
func DecodeRepRecords(payload []byte) (RepRecords, error) {
	if len(payload) < 8 {
		return RepRecords{}, fmt.Errorf("%w: short repRecords", ErrBadFrame)
	}
	return RepRecords{
		Seq:  binary.LittleEndian.Uint64(payload[0:8]),
		Data: payload[8:],
	}, nil
}

// AppendRepSeq appends the u64 payload shared by FrameRepAck (applied
// watermark) and FrameRepPing (primary's current flush watermark).
func AppendRepSeq(dst []byte, seq uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, seq)
}

// DecodeRepSeq decodes a FrameRepAck / FrameRepPing payload.
func DecodeRepSeq(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("%w: repSeq payload is %d bytes", ErrBadFrame, len(payload))
	}
	return binary.LittleEndian.Uint64(payload), nil
}
