package wire

import (
	"bytes"
	"testing"
)

// FuzzFrameCodec throws arbitrary bytes at the frame reader. The codec
// sits directly on the network, so it must never panic or over-allocate
// on hostile input, and anything it accepts must survive a re-encode /
// re-decode round trip unchanged.
func FuzzFrameCodec(f *testing.F) {
	// Seed with every frame type the protocol speaks, plus edge shapes.
	for typ := FrameHello; typ <= FramePong; typ++ {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, []byte(`{"device_id":"w1","epoch":3}`)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	var empty bytes.Buffer
	if err := WriteFrame(&empty, FramePing, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01}) // length far beyond MaxFrameSize
	f.Add([]byte{5, 0, 0, 0, 99, 'h', 'e', 'l', 'l', 'o'})
	// The two data frames, as their batches build them in place.
	var tb TupleBatch
	tb.Add([]byte("tuple-1"))
	tb.Add(nil)
	f.Add(append([]byte(nil), tb.Frame()...))
	var rb ResultBatch
	rb.Add(ResultMeta{TupleID: 1, EmitNanos: 10}, []byte("result-1"))
	rb.Add(ResultMeta{TupleID: 2, Dropped: true, Reason: DropDeadline}, nil)
	f.Add(append([]byte(nil), rb.Frame()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatalf("accepted frame failed to re-encode: type %d, %d bytes: %v",
				typ, len(payload), err)
		}
		typ2, payload2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed frame: (%d, %x) -> (%d, %x)",
				typ, payload, typ2, payload2)
		}
	})
}
