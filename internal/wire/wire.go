// Package wire defines the framing protocol Swing's live runtime speaks
// between the master and worker devices: length-prefixed frames with a
// type byte, carrying either JSON control messages (hello, deploy,
// start/stop) or binary data tuples and acknowledgments.
//
// The protocol is deliberately small: one duplex TCP connection per worker
// carries deployment control, the downstream tuple stream, and the
// upstream result/ACK stream. TCP's own flow control provides the
// backpressure that the paper's resource management reacts to.
//
// # Buffer ownership
//
// The hot-path entry points hand out pooled buffers with explicit
// release semantics:
//
//   - ReadFrameBuf returns the payload inside a *Buf borrowed from the
//     pool. The caller owns it until it calls Release; after Release the
//     payload bytes must not be touched (the buffer will be overwritten
//     by a future frame). Whatever aliases the payload must be done with
//     it first: the master's result path hands a result frame's *Buf to
//     a per-frame record that releases it when the frame's last result
//     has played or been dropped. ReadFrame, whose payload the caller
//     owns, is for control frames off the data path.
//   - GetBuf / (*Buf).Release follow the same rule for senders that
//     encode outbound frames in pooled memory. A data frame is built in
//     place: TupleBatch and ResultBatch reserve the frame header at the
//     front of their buffer (SetBuf points them at a pooled one), and
//     Frame returns the complete frame, ready to write with no further
//     copy. Control frames are appended with AppendFrame.
//   - WriteFrame borrows and releases internally; its payload argument
//     is never retained.
//
// Built with the swingdebug tag, Release overwrites the buffer's bytes
// with a poison pattern and panics when a buffer is released twice
// without a GetBuf in between, so a use after release reads garbage
// rather than a later frame's plausible bytes.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// FrameType distinguishes frame payloads.
type FrameType uint8

// Frame types.
const (
	// FrameHello is the worker's first message: identity + capabilities.
	FrameHello FrameType = iota + 1
	// FrameDeploy tells the worker which function units to activate.
	FrameDeploy
	// FrameStart begins stream processing.
	FrameStart
	// FrameStop ends processing; the connection closes afterwards.
	FrameStop
	// FrameTuple carries one serialized data tuple. The runtime sends
	// every tuple in a FrameTupleBatch; the type stays for tools that
	// frame single tuples.
	FrameTuple
	// frameReserved is type 6, retired: it carried single results,
	// which now travel only in FrameResultBatch. Keeping the number
	// keeps the later types'.
	frameReserved
	// FrameStats carries periodic worker-side statistics.
	FrameStats
	// FramePing is the master's liveness probe; the worker echoes the
	// payload back in a FramePong. A hung worker whose TCP link is still
	// up stops echoing, which is how the failure detector tells "slow"
	// from "gone" without waiting for the connection to break.
	FramePing
	// FramePong is the worker's echo of a FramePing payload.
	FramePong
	// FrameResultBatch carries final result tuples upstream: u32 count,
	// then count × (u32 length, result payload). Each result doubles as
	// the ACK of §V-B, echoing the emit timestamp and reporting the
	// worker's processing delay. Workers batch acks/results on a short
	// linger so one upstream write amortizes over many tuples.
	FrameResultBatch
	// FrameRepHello opens a replication session: the standby identifies
	// itself to the primary (JSON RepHello). The primary answers with a
	// FrameRepCheckpoint snapshot, then streams FrameRepRecords.
	FrameRepHello
	// FrameRepCheckpoint carries a full checkpoint image (the same JSON
	// the master persists on disk) plus its (epoch, generation) header so
	// the standby can reset its mirror to a known-consistent base.
	FrameRepCheckpoint
	// FrameRepRecords carries a batch of raw journal record bytes,
	// exactly as flushed to the primary's disk, plus the flush-batch
	// watermark after the batch.
	FrameRepRecords
	// FrameRepAck is the standby's applied-watermark report; the primary
	// derives replication lag from it.
	FrameRepAck
	// FrameRepPing is the primary's liveness probe on the replication
	// link, carrying its current flush watermark; the standby answers
	// with a FrameRepAck and uses ping silence to arm takeover.
	FrameRepPing
	// FrameTupleBatch is the downstream data frame, the mirror of
	// FrameResultBatch: u32 count, then count × (u32 length, marshaled
	// tuple). The master sends every tuple bound for a worker in one,
	// a single Submit as a batch of one.
	FrameTupleBatch
)

// String names the frame type.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameDeploy:
		return "deploy"
	case FrameStart:
		return "start"
	case FrameStop:
		return "stop"
	case FrameTuple:
		return "tuple"
	case FrameStats:
		return "stats"
	case FramePing:
		return "ping"
	case FramePong:
		return "pong"
	case FrameResultBatch:
		return "resultBatch"
	case FrameRepHello:
		return "repHello"
	case FrameRepCheckpoint:
		return "repCheckpoint"
	case FrameRepRecords:
		return "repRecords"
	case FrameRepAck:
		return "repAck"
	case FrameRepPing:
		return "repPing"
	case FrameTupleBatch:
		return "tupleBatch"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// MaxFrameSize bounds a frame payload (16 MiB), protecting against
// corrupt length prefixes.
const MaxFrameSize = 16 << 20

// frameHeaderSize is the bytes before a frame's payload: the u32 payload
// length and the type byte.
const frameHeaderSize = 5

// Errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrBadFrame      = errors.New("wire: malformed frame")
)

// Buf is a pooled payload buffer. Get one with GetBuf (or via
// ReadFrameBuf) and return it with Release when the bytes are no longer
// needed. B may be re-sliced/appended freely while owned.
type Buf struct {
	dbg bufDebug // empty unless built with swingdebug
	B   []byte
}

// Bytes returns b.B, or nil for a nil b (ReadFrameBuf's empty frame).
func (b *Buf) Bytes() []byte {
	if b == nil {
		return nil
	}
	return b.B
}

// maxPooledBuf caps the capacity a buffer may have and still return to
// the pool; a rare 16 MiB frame should not pin 16 MiB per pool slot
// forever.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return &Buf{B: make([]byte, 0, 4096)} }}

// GetBuf returns a pooled buffer with length n (contents undefined).
func GetBuf(n int) *Buf {
	b := bufPool.Get().(*Buf)
	b.dbg.get()
	if cap(b.B) < n {
		b.B = make([]byte, n)
	} else {
		b.B = b.B[:n]
	}
	return b
}

// Release returns the buffer to the pool. Safe on nil. The caller must
// not use b.B after Release.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	b.dbg.release(b.B)
	if cap(b.B) > maxPooledBuf {
		return // let the GC take oversized buffers
	}
	bufPool.Put(b)
}

// AppendFrame appends one encoded frame — u32 little-endian payload
// length, type byte, payload — to dst and returns the extended slice.
// The byte layout is identical to WriteFrame's output, so appended
// frames may be concatenated and flushed in a single write.
func AppendFrame(dst []byte, typ FrameType, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrameSize {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, byte(typ))
	return append(dst, payload...), nil
}

// WriteFrame writes one frame: u32 little-endian payload length, type
// byte, payload. Header and payload are coalesced into a single Write
// call, so frames are never torn across writes and small frames are not
// split into two segments. Callers serialize concurrent writers
// externally.
func WriteFrame(w io.Writer, typ FrameType, payload []byte) error {
	buf := GetBuf(0)
	b, err := AppendFrame(buf.B, typ, payload)
	if err != nil {
		buf.Release()
		return err
	}
	buf.B = b
	_, err = w.Write(b)
	buf.Release()
	if err != nil {
		return fmt.Errorf("write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one frame written by WriteFrame. The payload is
// freshly allocated (nil for zero-length frames) and owned by the
// caller. Only handshakes and control links use it: a data path reads
// with ReadFrameBuf, which allocates nothing at steady state.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	// The header goes through a pooled buffer rather than a stack array:
	// a [5]byte sliced into an io.Reader interface escapes, costing one
	// allocation per frame.
	hb := GetBuf(frameHeaderSize)
	defer hb.Release()
	if _, err := io.ReadFull(r, hb.B); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hb.B[:4])
	typ, err := checkHeader(hb.B[4], n)
	if err != nil {
		return 0, nil, err
	}
	if n == 0 {
		return typ, nil, nil
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("read frame payload: %w", err)
	}
	return typ, payload, nil
}

// ReadFrameBuf reads one frame into a pooled buffer. The returned *Buf
// (nil for zero-length frames) holds the payload in B; the caller must
// Release it once the payload has been consumed and must not retain
// sub-slices of it past the Release. The worker reads tuple frames and
// the master reads result frames this way; each hands the buffer to a
// record that releases it once nothing aliases the payload.
func ReadFrameBuf(r io.Reader) (FrameType, *Buf, error) {
	// One pooled buffer serves both the header read and, grown in
	// place, the payload read — the whole frame costs zero allocations
	// at steady state.
	buf := GetBuf(frameHeaderSize)
	if _, err := io.ReadFull(r, buf.B); err != nil {
		buf.Release()
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(buf.B[:4])
	typ, err := checkHeader(buf.B[4], n)
	if err != nil {
		buf.Release()
		return 0, nil, err
	}
	if n == 0 {
		buf.Release()
		return typ, nil, nil
	}
	if cap(buf.B) < int(n) {
		buf.B = make([]byte, n)
	} else {
		buf.B = buf.B[:n]
	}
	if _, err := io.ReadFull(r, buf.B); err != nil {
		buf.Release()
		return 0, nil, fmt.Errorf("read frame payload: %w", err)
	}
	return typ, buf, nil
}

func checkHeader(rawType byte, n uint32) (FrameType, error) {
	if n > MaxFrameSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	typ := FrameType(rawType)
	if typ < FrameHello || typ > FrameTupleBatch {
		return 0, fmt.Errorf("%w: unknown type %d", ErrBadFrame, rawType)
	}
	return typ, nil
}

// Hello is the worker's registration message.
type Hello struct {
	// DeviceID names the worker device (unique in the swarm).
	DeviceID string `json:"deviceId"`
	// App is the application name the worker installed; it must match
	// the master's (the paper's workflow installs the same app
	// everywhere).
	App string `json:"app"`
	// SpeedFactor optionally declares an artificial slowdown for
	// heterogeneity experiments on homogeneous hosts (1 = native).
	SpeedFactor float64 `json:"speedFactor,omitempty"`
	// Epoch is the last master incarnation this worker was joined to
	// (0 = never joined). A reconnecting worker echoes it so a restarted
	// master can tell a re-adoption from a fresh join.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Deploy assigns function units to the worker.
type Deploy struct {
	// Units lists unit IDs to activate, in pipeline order.
	Units []string `json:"units"`
	// ReportEveryMillis sets the stats reporting period.
	ReportEveryMillis int64 `json:"reportEveryMillis,omitempty"`
	// Epoch is the master's incarnation number (1 for a fresh master,
	// incremented on each crash-recovery restart). Workers remember it and
	// echo it in their next Hello; a change tells a reconnecting worker it
	// is being re-adopted by a new incarnation.
	Epoch uint64 `json:"epoch,omitempty"`
	// Parallelism sets the worker's processor-pool width (how many
	// tuples it may process concurrently). 0 means the worker picks its
	// default (GOMAXPROCS).
	Parallelism int `json:"parallelism,omitempty"`
	// AckLingerMicros is the worker's result/ack batching window in
	// microseconds: completed results may wait up to this long to share
	// a FrameResultBatch with their successors. 0 disables lingering
	// (results still batch opportunistically when they are already
	// queued behind each other).
	AckLingerMicros int64 `json:"ackLingerMicros,omitempty"`
	// OpDeadlineMillis arms the worker's per-tuple watchdog: an operator
	// chain that has not returned within this budget is abandoned and the
	// tuple reported as a DropDeadline notice. 0 disables the watchdog
	// (and pre-watchdog workers ignore the field).
	OpDeadlineMillis int64 `json:"opDeadlineMillis,omitempty"`
}

// DropReason classifies why a worker consumed a tuple without producing
// a result. It rides in bits 1-3 of the binary ResultMeta flags byte.
type DropReason uint8

// Drop reasons.
const (
	// DropNone: not dropped. A drop notice never carries it.
	DropNone DropReason = iota
	// DropError: a processor returned an error for this tuple.
	DropError
	// DropPanic: a processor panicked; the worker's sandbox recovered and
	// the operator chain was rebuilt.
	DropPanic
	// DropDeadline: the per-tuple processing deadline expired before the
	// operator chain returned (the watchdog abandoned the attempt).
	DropDeadline
	// DropFiltered: a stage legitimately emitted nothing. Reported on
	// ack-only frames with Dropped unset — it is accounting, not failure.
	DropFiltered
)

// failure reports whether r names a processor failure, the reasons a
// drop notice (ResultMeta.Dropped) may carry.
func (r DropReason) failure() bool {
	return r == DropError || r == DropPanic || r == DropDeadline
}

// String names the drop reason.
func (r DropReason) String() string {
	switch r {
	case DropNone:
		return "none"
	case DropError:
		return "error"
	case DropPanic:
		return "panic"
	case DropDeadline:
		return "deadline"
	case DropFiltered:
		return "filtered"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// ResultMeta prefixes a result payload (before the tuple bytes).
//
// A result with no tuple bytes after the meta is an ack-only result:
// the worker consumed the input tuple (a stage filtered it out, or a
// processor failed and Dropped is set) and produced no result. Ack-only
// frames keep the master's in-flight tracker and latency estimates fresh
// even when the pipeline emits nothing.
type ResultMeta struct {
	// TupleID echoes the input tuple's ID so the master can release the
	// matching in-flight (un-acked) entry.
	TupleID uint64 `json:"tupleId"`
	// Attempt echoes the input tuple's transmission attempt counter.
	Attempt uint8 `json:"attempt,omitempty"`
	// EmitNanos echoes the timestamp the master attached when it
	// dispatched the tuple (for latency estimation, §V-B).
	EmitNanos int64 `json:"emitNanos"`
	// ProcNanos is the worker's measured pure processing time.
	ProcNanos int64 `json:"procNanos"`
	// Dropped marks an ack-only frame caused by a processor failure; the
	// master counts these so silently-failing workers stay visible.
	Dropped bool `json:"dropped,omitempty"`
	// Reason classifies the drop (or marks a filtered tuple). DropNone on
	// successful results; a drop notice always names a failure.
	Reason DropReason `json:"reason,omitempty"`
}

// Stats is the worker's periodic report.
type Stats struct {
	DeviceID  string `json:"deviceId"`
	Processed int64  `json:"processed"`
	// Dropped counts tuples discarded by processor errors on this worker
	// (cumulative over the worker's lifetime, across reconnects).
	Dropped  int64 `json:"dropped,omitempty"`
	QueueLen int   `json:"queueLen"`
	// Reconnects counts how many times this worker has rejoined the
	// master after a broken link, so the master can explain suspect/dead
	// transitions on a flapping device.
	Reconnects int64 `json:"reconnects,omitempty"`
	// Panics counts operator panics the sandbox recovered on this worker.
	Panics int64 `json:"panics,omitempty"`
	// Deadlined counts tuples abandoned by the per-tuple watchdog.
	Deadlined int64 `json:"deadlined,omitempty"`
	UptimeMS  int64 `json:"uptimeMillis"`
}

// Ping is the payload of a FramePing, echoed verbatim in the FramePong.
type Ping struct {
	// Seq numbers the master's pings per connection.
	Seq uint64 `json:"seq"`
	// SentNanos is the master's send timestamp, for RTT measurement.
	SentNanos int64 `json:"sentNanos"`
}

// EncodeJSON marshals a control message for a frame payload.
func EncodeJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wire: encode: %w", err)
	}
	return b, nil
}

// DecodeJSON unmarshals a control payload.
func DecodeJSON(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}

// Result payload encoding. The payload opens with a u32 meta length
// whose set high bit marks the fixed-width binary meta written by
// AppendResult; tuple bytes follow the meta.
// The flags byte packs Dropped in bit 0 and the DropReason in bits 1-3.
const (
	binaryMetaFlag = 1 << 31
	binaryMetaSize = 8 + 1 + 8 + 8 + 1 // id, attempt, emit, proc, flags

	metaFlagDropped    = 1 << 0
	metaReasonShift    = 1
	metaReasonMask     = 0x7
	maxEncodableReason = DropReason(metaReasonMask)
)

// AppendResult appends one encoded result payload (binary meta + tuple
// bytes) to dst and returns the extended slice.
func AppendResult(dst []byte, meta ResultMeta, tupleBytes []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, binaryMetaFlag|binaryMetaSize)
	dst = binary.LittleEndian.AppendUint64(dst, meta.TupleID)
	dst = append(dst, meta.Attempt)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(meta.EmitNanos))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(meta.ProcNanos))
	var flags byte
	if meta.Dropped {
		flags = metaFlagDropped
	}
	if meta.Reason <= maxEncodableReason {
		flags |= byte(meta.Reason) << metaReasonShift
	}
	dst = append(dst, flags)
	return append(dst, tupleBytes...)
}

// DecodeResult splits one result payload of a FrameResultBatch. The
// returned tuple bytes alias the input payload. A drop notice must name
// the failure that caused it: one that carries no failure reason is a
// bad frame.
func DecodeResult(payload []byte) (ResultMeta, []byte, error) {
	if len(payload) < 4 {
		return ResultMeta{}, nil, fmt.Errorf("%w: short result", ErrBadFrame)
	}
	n := binary.LittleEndian.Uint32(payload[:4])
	if n != binaryMetaFlag|binaryMetaSize || len(payload) < 4+binaryMetaSize {
		return ResultMeta{}, nil, fmt.Errorf("%w: bad result meta", ErrBadFrame)
	}
	b := payload[4:]
	meta := ResultMeta{
		TupleID:   binary.LittleEndian.Uint64(b[0:8]),
		Attempt:   b[8],
		EmitNanos: int64(binary.LittleEndian.Uint64(b[9:17])),
		ProcNanos: int64(binary.LittleEndian.Uint64(b[17:25])),
		Dropped:   b[25]&metaFlagDropped != 0,
		Reason:    DropReason(b[25]>>metaReasonShift) & metaReasonMask,
	}
	if meta.Dropped && !meta.Reason.failure() {
		return ResultMeta{}, nil, fmt.Errorf("%w: drop notice with reason %v", ErrBadFrame, meta.Reason)
	}
	return meta, payload[4+binaryMetaSize:], nil
}

// CheckFrame reports ErrFrameTooLarge for an encoded frame whose payload
// exceeds MaxFrameSize: a frame the peer's reader would refuse.
func CheckFrame(frame []byte) error {
	if n := len(frame) - frameHeaderSize; n > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	return nil
}

// batchBuf is the encoding shared by the two data frames: a frame
// header, a u32 count, then count × (u32 entry length, entry bytes), all
// in one buffer. The header is reserved up front and patched by frame,
// so a finished batch is written straight from the buffer it was
// encoded in. Entries go in with begin/End bracketing: begin reserves
// the entry length, the caller appends the entry, End patches it.
type batchBuf struct {
	buf   []byte
	count uint32
}

// BatchOverhead is the bytes a batch frame holds besides its entries:
// the frame header and the count. Each entry adds a u32 length to its
// bytes.
const BatchOverhead = frameHeaderSize + 4

// begin reserves an entry header and returns its offset for End.
func (b *batchBuf) begin() int {
	if len(b.buf) == 0 {
		b.buf = append(b.buf, make([]byte, BatchOverhead)...) // patched in frame
	}
	start := len(b.buf)
	b.buf = append(b.buf, 0, 0, 0, 0) // entry length, patched in End
	return start
}

// Append extends the current entry via fn, which appends the entry's
// bytes to dst and returns the extended slice (tuple.AppendMarshal's
// shape). Must sit between Begin and End.
func (b *batchBuf) Append(fn func(dst []byte) ([]byte, error)) error {
	grown, err := fn(b.buf)
	if err != nil {
		return err
	}
	b.buf = grown
	return nil
}

// End patches the entry length reserved by Begin and counts the entry.
func (b *batchBuf) End(start int) {
	binary.LittleEndian.PutUint32(b.buf[start:], uint32(len(b.buf)-start-4))
	b.count++
}

// Cancel abandons the entry reserved by Begin (e.g. a marshal error),
// truncating the buffer back to the entry start. Cancelling the first
// entry leaves the batch empty.
func (b *batchBuf) Cancel(start int) {
	if b.count == 0 {
		start = 0
	}
	b.buf = b.buf[:start]
}

// SetBuf points the batch at an external backing buffer (typically a
// pooled buffer from GetBuf), resetting any accumulated entries. Frame
// then aliases that buffer — or its reallocation, which the caller
// recovers from Frame — so a sender can encode the frame directly in
// pool-managed memory.
func (b *batchBuf) SetBuf(buf []byte) {
	b.buf = buf[:0]
	b.count = 0
}

// Count reports how many entries the batch holds.
func (b *batchBuf) Count() int { return int(b.count) }

// Size reports the encoded payload size in bytes (0 for an empty batch).
func (b *batchBuf) Size() int { return max(len(b.buf)-frameHeaderSize, 0) }

// Payload finalizes the count prefix and returns the frame payload, the
// frame without its header (nil for an empty batch). The slice aliases
// the batch's buffer and is invalidated by the next Add or Reset.
func (b *batchBuf) Payload() []byte {
	if b.count == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(b.buf[frameHeaderSize:], b.count)
	return b.buf[frameHeaderSize:]
}

// frame finalizes the header and the count prefix and returns the whole
// frame of type typ (nil for an empty batch), byte-identical to
// AppendFrame(nil, typ, Payload()). The slice aliases the batch's buffer
// and is invalidated by the next Add or Reset.
func (b *batchBuf) frame(typ FrameType) []byte {
	p := b.Payload()
	if p == nil {
		return nil
	}
	binary.LittleEndian.PutUint32(b.buf, uint32(len(p)))
	b.buf[4] = byte(typ)
	return b.buf
}

// Reset empties the batch, keeping the buffer capacity.
func (b *batchBuf) Reset() {
	b.buf = b.buf[:0]
	b.count = 0
}

// decodeBatch walks a batch payload, invoking fn with each entry. Entries
// alias the input and are exact sub-slices (no trailing bytes).
// Decoding stops at the first error from fn.
func decodeBatch(payload []byte, what string, fn func(entry []byte) error) error {
	if len(payload) < 4 {
		return fmt.Errorf("%w: short %s", ErrBadFrame, what)
	}
	count := binary.LittleEndian.Uint32(payload[:4])
	rest := payload[4:]
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return fmt.Errorf("%w: %s truncated at entry %d", ErrBadFrame, what, i)
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		if uint64(n) > uint64(len(rest)-4) {
			return fmt.Errorf("%w: %s entry %d length %d", ErrBadFrame, what, i, n)
		}
		if err := fn(rest[4 : 4+n]); err != nil {
			return err
		}
		rest = rest[4+n:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %s", ErrBadFrame, len(rest), what)
	}
	return nil
}

// ResultBatch accumulates results for one FrameResultBatch frame. The
// zero value is ready to use; Reset after each flush keeps the
// underlying buffer for reuse. Payload layout: u32 count, then count ×
// (u32 entry length, result payload).
//
// Besides Add, an entry can be written in place: Begin writes the
// entry's meta, the caller appends the result tuple via Append, and End
// closes the entry — a worker marshals each result straight into the
// frame it sends.
type ResultBatch struct{ batchBuf }

// Add appends one result to the batch.
func (b *ResultBatch) Add(meta ResultMeta, tupleBytes []byte) {
	start := b.begin()
	b.buf = AppendResult(b.buf, meta, tupleBytes)
	b.End(start)
}

// Begin reserves an entry, writes meta into it and returns its offset
// for End. The caller appends the result tuple's bytes with Append (or
// nothing, for an ack-only result) before calling End.
func (b *ResultBatch) Begin(meta ResultMeta) int {
	start := b.begin()
	b.buf = AppendResult(b.buf, meta, nil)
	return start
}

// Frame returns the batch as one complete FrameResultBatch frame (nil
// for an empty batch); see Payload for its lifetime.
func (b *ResultBatch) Frame() []byte { return b.frame(FrameResultBatch) }

// DecodeResultBatch walks a FrameResultBatch payload, invoking fn with
// each entry's result payload (decode with DecodeResult). Entries alias
// the input. Decoding stops at the first error from fn.
func DecodeResultBatch(payload []byte, fn func(entry []byte) error) error {
	return decodeBatch(payload, "result batch", fn)
}

// TupleBatch accumulates marshaled tuples for one FrameTupleBatch frame
// — the downstream mirror of ResultBatch. The zero value is ready to
// use; Reset after each flush keeps the underlying buffer for reuse.
// Payload layout: u32 count, then count × (u32 entry length, tuple
// bytes).
//
// Besides Add, an entry can be written in place: Begin reserves the
// entry length, the caller marshals the tuple via Append, and End
// patches it, so a tuple is marshaled directly into the frame.
type TupleBatch struct{ batchBuf }

// Add appends one pre-marshaled tuple to the batch.
func (b *TupleBatch) Add(tupleBytes []byte) {
	start := b.Begin()
	b.buf = append(b.buf, tupleBytes...)
	b.End(start)
}

// Begin reserves an entry header and returns its offset for End. The
// caller appends the tuple bytes with Append before calling End.
func (b *TupleBatch) Begin() int { return b.begin() }

// Frame returns the batch as one complete FrameTupleBatch frame (nil
// for an empty batch); see Payload for its lifetime.
func (b *TupleBatch) Frame() []byte { return b.frame(FrameTupleBatch) }

// DecodeTupleBatch walks a FrameTupleBatch payload, invoking fn with
// each entry's tuple bytes. Entries alias the input and are exact
// sub-slices (no trailing bytes), so they decode directly with
// tuple.UnmarshalShared against the one frame buffer. Decoding stops at
// the first error from fn.
func DecodeTupleBatch(payload []byte, fn func(entry []byte) error) error {
	return decodeBatch(payload, "tuple batch", fn)
}

// TupleBatchCount reads the count prefix of a FrameTupleBatch payload
// without walking the entries (transport-side subframe accounting).
func TupleBatchCount(payload []byte) (int, error) {
	if len(payload) < 4 {
		return 0, fmt.Errorf("%w: short tuple batch", ErrBadFrame)
	}
	return int(binary.LittleEndian.Uint32(payload[:4])), nil
}
