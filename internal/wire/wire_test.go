package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frame")
	if err := WriteFrame(&buf, FrameTuple, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != FrameTuple || string(got) != string(payload) {
		t.Fatalf("typ=%v payload=%q", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameStart, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != FrameStart || len(got) != 0 {
		t.Fatalf("typ=%v len=%d", typ, len(got))
	}
}

func TestFrameSequence(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := WriteFrame(&buf, FrameTuple, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		_, p, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if p[0] != byte(i) {
			t.Fatalf("frame %d out of order", i)
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("EOF expected, got %v", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	err := WriteFrame(io.Discard, FrameTuple, make([]byte, MaxFrameSize+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
	// A corrupt length prefix is rejected before allocation.
	bad := []byte{0xff, 0xff, 0xff, 0xff, byte(FrameTuple)}
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestFrameUnknownType(t *testing.T) {
	bad := []byte{0, 0, 0, 0, 200}
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameTuple, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestFrameTypeString(t *testing.T) {
	for ft := FrameHello; ft <= FrameRepPing; ft++ {
		if ft == frameReserved {
			continue
		}
		if strings.Contains(ft.String(), "frame(") {
			t.Errorf("type %d unnamed", ft)
		}
	}
	if FrameType(99).String() != "frame(99)" {
		t.Error("unknown type formatting")
	}
}

func TestControlJSON(t *testing.T) {
	h := Hello{DeviceID: "B", App: "facerec", SpeedFactor: 2}
	b, err := EncodeJSON(h)
	if err != nil {
		t.Fatal(err)
	}
	var got Hello
	if err := DecodeJSON(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("got %+v", got)
	}
	if err := DecodeJSON([]byte("{bad"), &got); err == nil {
		t.Fatal("bad json accepted")
	}
}

func TestResultEncoding(t *testing.T) {
	meta := ResultMeta{TupleID: 77, Attempt: 2, EmitNanos: 123456789, ProcNanos: 42}
	tupleBytes := []byte{1, 2, 3, 4}
	payload := AppendResult(nil, meta, tupleBytes)
	gotMeta, gotTuple, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta %+v", gotMeta)
	}
	if string(gotTuple) != string(tupleBytes) {
		t.Fatalf("tuple bytes %v", gotTuple)
	}
}

// TestResultAckOnly covers the empty-tuple form: a drop notice keeps its
// meta (including the Dropped flag) and carries zero tuple bytes.
func TestResultAckOnly(t *testing.T) {
	meta := ResultMeta{TupleID: 9, Attempt: 1, EmitNanos: 5, ProcNanos: 3, Dropped: true, Reason: DropError}
	payload := AppendResult(nil, meta, nil)
	gotMeta, gotTuple, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta %+v", gotMeta)
	}
	if len(gotTuple) != 0 {
		t.Fatalf("ack-only frame carried %d tuple bytes", len(gotTuple))
	}
}

// TestPingPongRoundTrip frames a liveness probe and its echo: the pong
// payload must carry the ping's sequence and timestamp back unchanged.
func TestPingPongRoundTrip(t *testing.T) {
	ping := Ping{Seq: 42, SentNanos: 987654321}
	pb, err := EncodeJSON(ping)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FramePing, pb); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf)
	if err != nil || typ != FramePing {
		t.Fatalf("typ=%v err=%v", typ, err)
	}
	// The worker echoes the payload verbatim under FramePong.
	if err := WriteFrame(&buf, FramePong, payload); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = ReadFrame(&buf)
	if err != nil || typ != FramePong {
		t.Fatalf("typ=%v err=%v", typ, err)
	}
	var got Ping
	if err := DecodeJSON(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got != ping {
		t.Fatalf("echo %+v, want %+v", got, ping)
	}
}

func TestStatsJSON(t *testing.T) {
	st := Stats{DeviceID: "B", Processed: 10, Dropped: 2, QueueLen: 1, Reconnects: 3, UptimeMS: 99}
	b, err := EncodeJSON(st)
	if err != nil {
		t.Fatal(err)
	}
	var got Stats
	if err := DecodeJSON(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Fatalf("got %+v", got)
	}
}

func TestResultDecodingErrors(t *testing.T) {
	if _, _, err := DecodeResult([]byte{1, 2}); err == nil {
		t.Fatal("short payload accepted")
	}
	if _, _, err := DecodeResult([]byte{0xff, 0, 0, 0}); err == nil {
		t.Fatal("oversized meta length accepted")
	}
}

// TestFrameRoundTripProperty fuzzes payloads through the framing.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(payload []byte, typSeed uint8) bool {
		typ := FrameType(typSeed%uint8(FramePong)) + FrameHello
		if typ > FramePong {
			typ = FramePong
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			return false
		}
		gotTyp, got, err := ReadFrame(&buf)
		if err != nil || gotTyp != typ || len(got) != len(payload) {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
