package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// countingWriter records how many Write calls it received.
type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestWriteFrameSingleWrite pins the torn-frame fix: header and payload
// must reach the connection in one Write call, and the byte layout must
// stay the historical u32-length | type | payload.
func TestWriteFrameSingleWrite(t *testing.T) {
	payload := []byte("coalesce me")
	var w countingWriter
	if err := WriteFrame(&w, FrameTuple, payload); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("WriteFrame issued %d writes, want 1", w.writes)
	}
	want := []byte{byte(len(payload)), 0, 0, 0, byte(FrameTuple)}
	want = append(want, payload...)
	if !bytes.Equal(w.buf.Bytes(), want) {
		t.Fatalf("frame bytes %x, want %x", w.buf.Bytes(), want)
	}
}

// TestAppendFrameMatchesWriteFrame: the append-based encoder used by the
// coalescing send queues must produce byte-identical frames.
func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameResultBatch, payload); err != nil {
		t.Fatal(err)
	}
	appended, err := AppendFrame([]byte("prefix"), FrameResultBatch, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(appended[len("prefix"):], buf.Bytes()) {
		t.Fatalf("AppendFrame %x != WriteFrame %x", appended[len("prefix"):], buf.Bytes())
	}
	if _, err := AppendFrame(nil, FrameTuple, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized append: err = %v", err)
	}
}

// TestReadFrameZeroLengthNil: control frames (ping/pong/start/stop)
// carry no payload and must not allocate one.
func TestReadFrameZeroLengthNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FramePong, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf)
	if err != nil || typ != FramePong {
		t.Fatalf("typ=%v err=%v", typ, err)
	}
	if payload != nil {
		t.Fatalf("zero-length frame returned non-nil payload %v", payload)
	}
}

// TestReadFrameEmptyAllocs is the allocation regression test for the
// zero-length path: reading a control frame must not allocate at all.
func TestReadFrameEmptyAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FramePing, nil); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	r := bytes.NewReader(frame)
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		if _, _, err := ReadFrame(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("zero-length ReadFrame allocates %.1f/op, want 0", allocs)
	}
}

// TestReadFrameBufAllocs: the pooled read path must be allocation-free
// at steady state even for payload-bearing frames.
func TestReadFrameBufAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameTuple, make([]byte, 6*1024)); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	r := bytes.NewReader(frame)
	// Prime the pool outside the measured window.
	r.Reset(frame)
	if _, b, err := ReadFrameBuf(r); err != nil {
		t.Fatal(err)
	} else {
		b.Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		_, b, err := ReadFrameBuf(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	})
	if allocs != 0 {
		t.Fatalf("pooled ReadFrameBuf allocates %.1f/op, want 0", allocs)
	}
}

// TestWriteFrameAllocs: the single-write encoder must be allocation-free
// at steady state (pooled scratch buffer).
func TestWriteFrameAllocs(t *testing.T) {
	payload := make([]byte, 6*1024)
	if err := WriteFrame(io.Discard, FrameTuple, payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := WriteFrame(io.Discard, FrameTuple, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteFrame allocates %.1f/op, want 0", allocs)
	}
}

// TestReadFrameBufRoundTrip checks payload fidelity and the zero-length
// nil-Buf contract, including that Release on a nil Buf is safe.
func TestReadFrameBufRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("pooled payload")
	if err := WriteFrame(&buf, FrameResultBatch, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, FrameStop, nil); err != nil {
		t.Fatal(err)
	}
	typ, b, err := ReadFrameBuf(&buf)
	if err != nil || typ != FrameResultBatch {
		t.Fatalf("typ=%v err=%v", typ, err)
	}
	if !bytes.Equal(b.B, payload) {
		t.Fatalf("payload %q", b.B)
	}
	b.Release()
	typ, b, err = ReadFrameBuf(&buf)
	if err != nil || typ != FrameStop {
		t.Fatalf("typ=%v err=%v", typ, err)
	}
	if b != nil {
		t.Fatalf("zero-length frame returned buffer %v", b)
	}
	b.Release() // nil-safe by contract
}

// TestResultBinaryMeta pins the binary fast path: AppendResult sets the
// high bit on the meta length and DecodeResult restores every field.
func TestResultBinaryMeta(t *testing.T) {
	meta := ResultMeta{TupleID: 1 << 40, Attempt: 3, EmitNanos: -7, ProcNanos: 12345, Dropped: true, Reason: DropPanic}
	payload := AppendResult(nil, meta, []byte{9, 8, 7})
	got, tupleBytes, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Fatalf("meta %+v, want %+v", got, meta)
	}
	if !bytes.Equal(tupleBytes, []byte{9, 8, 7}) {
		t.Fatalf("tuple bytes %v", tupleBytes)
	}
	if payload[3]&0x80 == 0 {
		t.Fatal("binary meta marker bit not set")
	}
	// Truncated binary meta is rejected, not sliced out of bounds.
	if _, _, err := DecodeResult(payload[:10]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated binary meta: err = %v", err)
	}
}

// TestResultDropReasons: every reason code survives the binary meta
// round trip, with Dropped in bit 0 of the flags byte and the reason in
// bits 1-3.
func TestResultDropReasons(t *testing.T) {
	for _, reason := range []DropReason{DropNone, DropError, DropPanic, DropDeadline, DropFiltered} {
		meta := ResultMeta{
			TupleID: 7, EmitNanos: 9,
			Dropped: reason != DropNone && reason != DropFiltered,
			Reason:  reason,
		}
		payload := AppendResult(nil, meta, nil)
		got, _, err := DecodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != meta {
			t.Fatalf("reason %v: meta %+v, want %+v", reason, got, meta)
		}
		flags := payload[4+binaryMetaSize-1]
		if (flags&1 != 0) != meta.Dropped || DropReason(flags>>1) != reason {
			t.Fatalf("reason %v: flags %08b", reason, flags)
		}
	}
	if DropPanic.String() != "panic" || DropReason(7).String() != "reason(7)" {
		t.Fatalf("DropReason.String: %q %q", DropPanic, DropReason(7))
	}
}

// TestDecodeResultRejectsReasonlessDrop: a drop notice must name the
// failure behind it. One that carries no failure reason — DropNone, the
// DropFiltered accounting verdict, or a code no encoder assigns — is a
// bad frame, not a drop to file under some default counter.
func TestDecodeResultRejectsReasonlessDrop(t *testing.T) {
	for _, reason := range []DropReason{DropNone, DropFiltered, DropReason(7)} {
		payload := AppendResult(nil, ResultMeta{TupleID: 3, Dropped: true, Reason: reason}, nil)
		if _, _, err := DecodeResult(payload); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("drop notice with reason %v: err = %v, want ErrBadFrame", reason, err)
		}
	}
	// The same reasons without the dropped bit are plain results.
	for _, reason := range []DropReason{DropNone, DropFiltered} {
		payload := AppendResult(nil, ResultMeta{TupleID: 3, Reason: reason}, nil)
		if _, _, err := DecodeResult(payload); err != nil {
			t.Fatalf("result with reason %v: %v", reason, err)
		}
	}
	// A batch carrying a reason-less notice stops at it, like any bad entry.
	var batch ResultBatch
	batch.Add(ResultMeta{TupleID: 1}, nil)
	batch.Add(ResultMeta{TupleID: 2, Dropped: true}, nil)
	n := 0
	err := DecodeResultBatch(batch.Payload(), func(entry []byte) error {
		_, _, err := DecodeResult(entry)
		if err == nil {
			n++
		}
		return err
	})
	if !errors.Is(err, ErrBadFrame) || n != 1 {
		t.Fatalf("batch: %d entries decoded, err = %v; want 1, ErrBadFrame", n, err)
	}
}

// TestResultBatchRoundTrip: N results in, the same N out, in order,
// through a framed write/read cycle.
func TestResultBatchRoundTrip(t *testing.T) {
	var batch ResultBatch
	if got := batch.Payload(); got != nil {
		t.Fatalf("empty batch payload %v", got)
	}
	want := []ResultMeta{
		{TupleID: 1, EmitNanos: 10, ProcNanos: 1},
		{TupleID: 2, EmitNanos: 20, ProcNanos: 2, Dropped: true, Reason: DropDeadline},
		{TupleID: 3, Attempt: 2, EmitNanos: 30, ProcNanos: 3},
	}
	bodies := [][]byte{[]byte("result-1"), nil, []byte("result-3")}
	for i, m := range want {
		batch.Add(m, bodies[i])
	}
	if batch.Count() != len(want) {
		t.Fatalf("count %d", batch.Count())
	}

	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameResultBatch, batch.Payload()); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf)
	if err != nil || typ != FrameResultBatch {
		t.Fatalf("typ=%v err=%v", typ, err)
	}
	var i int
	err = DecodeResultBatch(payload, func(entry []byte) error {
		meta, tupleBytes, err := DecodeResult(entry)
		if err != nil {
			return err
		}
		if meta != want[i] {
			t.Fatalf("entry %d meta %+v, want %+v", i, meta, want[i])
		}
		if !bytes.Equal(tupleBytes, bodies[i]) {
			t.Fatalf("entry %d tuple bytes %v, want %v", i, tupleBytes, bodies[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("decoded %d entries, want %d", i, len(want))
	}

	// Reset keeps the buffer but empties the batch.
	batch.Reset()
	if batch.Count() != 0 || batch.Payload() != nil {
		t.Fatal("Reset did not empty the batch")
	}
	batch.Add(want[0], nil)
	if batch.Count() != 1 {
		t.Fatal("batch unusable after Reset")
	}
}

// TestDecodeResultBatchErrors rejects malformed batch payloads instead
// of panicking or silently truncating.
func TestDecodeResultBatchErrors(t *testing.T) {
	nop := func([]byte) error { return nil }
	if err := DecodeResultBatch([]byte{1, 2}, nop); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short payload: err = %v", err)
	}
	// Claims one entry but has no entry header.
	if err := DecodeResultBatch([]byte{1, 0, 0, 0}, nop); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("missing entry: err = %v", err)
	}
	// Entry length overruns the payload.
	if err := DecodeResultBatch([]byte{1, 0, 0, 0, 0xff, 0, 0, 0}, nop); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("overrun entry: err = %v", err)
	}
	// Trailing garbage after the declared entries.
	var batch ResultBatch
	batch.Add(ResultMeta{TupleID: 1}, nil)
	bad := append(append([]byte{}, batch.Payload()...), 0xEE)
	if err := DecodeResultBatch(bad, nop); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing bytes: err = %v", err)
	}
	// Errors from the callback propagate.
	sentinel := errors.New("stop")
	if err := DecodeResultBatch(batch.Payload(), func([]byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("callback error: err = %v", err)
	}
}

// TestFrameResultBatchType: the new frame type is named and accepted by
// the reader's type validation.
func TestFrameResultBatchType(t *testing.T) {
	if FrameResultBatch.String() != "resultBatch" {
		t.Fatalf("String() = %q", FrameResultBatch.String())
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameResultBatch, []byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	typ, _, err := ReadFrame(&buf)
	if err != nil || typ != FrameResultBatch {
		t.Fatalf("typ=%v err=%v", typ, err)
	}
	// One past the last known type is still rejected.
	bad := []byte{0, 0, 0, 0, byte(FrameTupleBatch) + 1}
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("unknown type: err = %v", err)
	}
}

// TestTupleBatchRoundTrip: N tuples in, the same N out, in order,
// through a framed write/read cycle, and each entry is an exact
// sub-slice (the tuple decoder rejects trailing bytes).
func TestTupleBatchRoundTrip(t *testing.T) {
	var batch TupleBatch
	if got := batch.Payload(); got != nil {
		t.Fatalf("empty batch payload %v", got)
	}
	bodies := [][]byte{[]byte("tuple-1"), nil, []byte("tuple-three")}
	for _, b := range bodies {
		batch.Add(b)
	}
	if batch.Count() != len(bodies) {
		t.Fatalf("count %d", batch.Count())
	}

	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameTupleBatch, batch.Payload()); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf)
	if err != nil || typ != FrameTupleBatch {
		t.Fatalf("typ=%v err=%v", typ, err)
	}
	var i int
	err = DecodeTupleBatch(payload, func(entry []byte) error {
		if !bytes.Equal(entry, bodies[i]) {
			t.Fatalf("entry %d = %q, want %q", i, entry, bodies[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(bodies) {
		t.Fatalf("decoded %d entries, want %d", i, len(bodies))
	}
	if n, err := TupleBatchCount(payload); err != nil || n != len(bodies) {
		t.Fatalf("TupleBatchCount = %d, %v", n, err)
	}

	// Reset keeps the buffer but empties the batch.
	batch.Reset()
	if batch.Count() != 0 || batch.Payload() != nil {
		t.Fatal("Reset did not empty the batch")
	}
	batch.Add(bodies[0])
	if batch.Count() != 1 {
		t.Fatal("batch unusable after Reset")
	}
}

// TestTupleBatchBeginEnd: the in-place marshal path (Begin/Append/End)
// produces the same layout as Add, and Cancel abandons a reserved entry
// without corrupting the batch.
func TestTupleBatchBeginEnd(t *testing.T) {
	var direct, staged TupleBatch
	direct.Add([]byte("abc"))
	direct.Add([]byte("defgh"))

	start := staged.Begin()
	if err := staged.Append(func(dst []byte) ([]byte, error) {
		return append(dst, "abc"...), nil
	}); err != nil {
		t.Fatal(err)
	}
	staged.End(start)
	// A cancelled entry leaves no trace.
	start = staged.Begin()
	staged.Cancel(start)
	start = staged.Begin()
	if err := staged.Append(func(dst []byte) ([]byte, error) {
		return append(dst, "defgh"...), nil
	}); err != nil {
		t.Fatal(err)
	}
	staged.End(start)

	if !bytes.Equal(direct.Payload(), staged.Payload()) {
		t.Fatalf("staged payload %x != direct %x", staged.Payload(), direct.Payload())
	}
}

// TestDecodeTupleBatchErrors rejects malformed batch payloads instead
// of panicking or silently truncating.
func TestDecodeTupleBatchErrors(t *testing.T) {
	nop := func([]byte) error { return nil }
	if err := DecodeTupleBatch([]byte{1, 2}, nop); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short payload: err = %v", err)
	}
	if err := DecodeTupleBatch([]byte{1, 0, 0, 0}, nop); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("missing entry: err = %v", err)
	}
	if err := DecodeTupleBatch([]byte{1, 0, 0, 0, 0xff, 0, 0, 0}, nop); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("overrun entry: err = %v", err)
	}
	var batch TupleBatch
	batch.Add([]byte{1})
	bad := append(append([]byte{}, batch.Payload()...), 0xEE)
	if err := DecodeTupleBatch(bad, nop); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing bytes: err = %v", err)
	}
	sentinel := errors.New("stop")
	if err := DecodeTupleBatch(batch.Payload(), func([]byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("callback error: err = %v", err)
	}
	if _, err := TupleBatchCount([]byte{1}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short count: err = %v", err)
	}
	if FrameTupleBatch.String() != "tupleBatch" {
		t.Fatalf("String() = %q", FrameTupleBatch.String())
	}
}

// batchFrames builds one TupleBatch and one ResultBatch of a few
// entries each, the tuple batch over a pooled buffer.
func batchFrames(t *testing.T) (*TupleBatch, *ResultBatch) {
	t.Helper()
	tb := new(TupleBatch)
	tb.SetBuf(GetBuf(0).B)
	tb.Add([]byte("tuple-1"))
	tb.Add(nil)
	start := tb.Begin()
	if err := tb.Append(func(dst []byte) ([]byte, error) { return append(dst, "tuple-3"...), nil }); err != nil {
		t.Fatal(err)
	}
	tb.End(start)
	rb := new(ResultBatch)
	rb.Add(ResultMeta{TupleID: 1, EmitNanos: 10}, []byte("result-1"))
	rb.Add(ResultMeta{TupleID: 2, Dropped: true, Reason: DropError}, nil)
	start = rb.Begin(ResultMeta{TupleID: 3, Attempt: 1})
	if err := rb.Append(func(dst []byte) ([]byte, error) { return append(dst, "result-3"...), nil }); err != nil {
		t.Fatal(err)
	}
	rb.End(start)
	return tb, rb
}

// TestBatchFrameMatchesAppendFrame: a batch's in-place Frame is
// byte-identical to framing its Payload with AppendFrame, and reads
// back through ReadFrameBuf as the batch's type and payload.
func TestBatchFrameMatchesAppendFrame(t *testing.T) {
	tb, rb := batchFrames(t)
	for _, c := range []struct {
		typ     FrameType
		frame   []byte
		payload []byte
	}{
		{FrameTupleBatch, tb.Frame(), tb.Payload()},
		{FrameResultBatch, rb.Frame(), rb.Payload()},
	} {
		want, err := AppendFrame(nil, c.typ, c.payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.frame, want) {
			t.Fatalf("%v: Frame %x, AppendFrame %x", c.typ, c.frame, want)
		}
		if err := CheckFrame(c.frame); err != nil {
			t.Fatalf("%v: CheckFrame: %v", c.typ, err)
		}
		typ, buf, err := ReadFrameBuf(bytes.NewReader(c.frame))
		if err != nil {
			t.Fatalf("%v: read back: %v", c.typ, err)
		}
		if typ != c.typ || !bytes.Equal(buf.B, c.payload) {
			t.Fatalf("%v: read back type %v, payload %x", c.typ, typ, buf.B)
		}
		buf.Release()
	}
	if got := (&ResultBatch{}).Frame(); got != nil {
		t.Fatalf("empty batch frame %x", got)
	}
	if err := CheckFrame(make([]byte, frameHeaderSize+MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: err = %v", err)
	}
}

// TestBatchFrameCancelFirstEntry: cancelling a batch's first entry
// leaves an empty batch — no frame, no payload, size 0 — that builds
// the same frame as a fresh one afterwards.
func TestBatchFrameCancelFirstEntry(t *testing.T) {
	var tb TupleBatch
	tb.Cancel(tb.Begin())
	if tb.Frame() != nil || tb.Payload() != nil || tb.Size() != 0 || tb.Count() != 0 {
		t.Fatalf("tuple batch after cancelling its first entry: size %d, count %d", tb.Size(), tb.Count())
	}
	var rb ResultBatch
	rb.Cancel(rb.Begin(ResultMeta{TupleID: 1}))
	if rb.Frame() != nil || rb.Payload() != nil || rb.Size() != 0 || rb.Count() != 0 {
		t.Fatalf("result batch after cancelling its first entry: size %d, count %d", rb.Size(), rb.Count())
	}
	var fresh TupleBatch
	fresh.Add([]byte("x"))
	tb.Add([]byte("x"))
	if !bytes.Equal(tb.Frame(), fresh.Frame()) {
		t.Fatalf("frame after cancel %x, fresh %x", tb.Frame(), fresh.Frame())
	}
}

// TestBatchFrameResultBeginEnd: a result written in place — Begin with
// its meta, the tuple via Append, End — encodes exactly as Add, and a
// cancelled entry leaves no trace.
func TestBatchFrameResultBeginEnd(t *testing.T) {
	meta := ResultMeta{TupleID: 5, Attempt: 2, EmitNanos: 50, ProcNanos: 5}
	var direct, staged ResultBatch
	direct.Add(meta, []byte("abc"))
	direct.Add(meta, nil)

	start := staged.Begin(meta)
	if err := staged.Append(func(dst []byte) ([]byte, error) { return append(dst, "abc"...), nil }); err != nil {
		t.Fatal(err)
	}
	staged.End(start)
	start = staged.Begin(meta)
	if err := staged.Append(func(dst []byte) ([]byte, error) {
		return append(dst, "partial"...), errors.New("marshal failed")
	}); err == nil {
		t.Fatal("Append swallowed the marshal error")
	}
	staged.Cancel(start)
	staged.End(staged.Begin(meta))
	if !bytes.Equal(direct.Frame(), staged.Frame()) {
		t.Fatalf("staged frame %x != direct %x", staged.Frame(), direct.Frame())
	}
}
