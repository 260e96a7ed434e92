package tuple

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetGet(t *testing.T) {
	tp := New(1, 2)
	tp.Set("frame", Bytes([]byte{1, 2, 3}))
	tp.Set("name", String("alice"))

	b, err := tp.MustBytes("frame")
	if err != nil {
		t.Fatalf("MustBytes: %v", err)
	}
	if len(b) != 3 || b[0] != 1 {
		t.Fatalf("bytes = %v", b)
	}
	s, err := tp.MustString("name")
	if err != nil {
		t.Fatalf("MustString: %v", err)
	}
	if s != "alice" {
		t.Fatalf("string = %q", s)
	}
}

func TestSetReplaces(t *testing.T) {
	tp := New(1, 1)
	tp.Set("x", Int64(1))
	tp.Set("x", Int64(2))
	if tp.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tp.Len())
	}
	v, err := tp.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.AsInt64(); i != 2 {
		t.Fatalf("x = %d, want 2", i)
	}
}

func TestGetMissing(t *testing.T) {
	tp := New(1, 1)
	if _, err := tp.Get("missing"); !errors.Is(err, ErrNoField) {
		t.Fatalf("err = %v, want ErrNoField", err)
	}
}

func TestMustBytesWrongKind(t *testing.T) {
	tp := New(1, 1)
	tp.Set("x", String("not bytes"))
	if _, err := tp.MustBytes("x"); !errors.Is(err, ErrBadKind) {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
	tp.Set("y", Bytes(nil))
	if _, err := tp.MustString("y"); !errors.Is(err, ErrBadKind) {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
}

// TestValueKinds: each constructor's value reports its kind and wire
// size, and reads back its input through its own accessor, and only that
// one: every other accessor reports false and a zero payload.
func TestValueKinds(t *testing.T) {
	m := NewMatrix(2, 3)
	cases := []struct {
		v    Value
		kind Kind
		size int
		want any
	}{
		{Bytes([]byte{1, 2}), KindBytes, 2, "\x01\x02"},
		{String("abc"), KindString, 3, "abc"},
		{Int64(math.MinInt64), KindInt64, 8, int64(math.MinInt64)},
		{Float64(-3.5), KindFloat64, 8, -3.5},
		{Bool(true), KindBool, 1, true},
		{Bool(false), KindBool, 1, false},
		{FloatMatrix(m), KindFloatMatrix, 8 + 48, m},
		{FloatMatrix(nil), KindFloatMatrix, 8, (*Matrix)(nil)},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("Kind() = %v, want %v", c.v.Kind(), c.kind)
		}
		if c.v.WireSize() != c.size {
			t.Errorf("%v WireSize() = %d, want %d", c.kind, c.v.WireSize(), c.size)
		}
		b, okB := c.v.AsBytes()
		s, okS := c.v.AsString()
		i, okI := c.v.AsInt64()
		f, okF := c.v.AsFloat64()
		y, okY := c.v.AsBool()
		mm, okM := c.v.AsFloatMatrix()
		got := map[Kind]any{KindBytes: string(b), KindString: s, KindInt64: i,
			KindFloat64: f, KindBool: y, KindFloatMatrix: mm}
		ok := map[Kind]bool{KindBytes: okB, KindString: okS, KindInt64: okI,
			KindFloat64: okF, KindBool: okY, KindFloatMatrix: okM}
		zero := map[Kind]any{KindBytes: "", KindString: "", KindInt64: int64(0),
			KindFloat64: 0.0, KindBool: false, KindFloatMatrix: (*Matrix)(nil)}
		for k := KindBytes; k <= KindFloatMatrix; k++ {
			switch {
			case k == c.kind && (!ok[k] || got[k] != c.want):
				t.Errorf("%v accessor = %v, %v; want %v, true", k, got[k], ok[k], c.want)
			case k != c.kind && (ok[k] || got[k] != zero[k]):
				t.Errorf("%v value read as %v: %v, %v", c.kind, k, got[k], ok[k])
			}
		}
	}
}

func TestKindString(t *testing.T) {
	for k := KindBytes; k <= KindFloatMatrix; k++ {
		if strings.Contains(k.String(), "kind(") {
			t.Errorf("Kind %d has no name", k)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should embed its numeric value")
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(1, 0, 4.5)
	if m.At(1, 0) != 4.5 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
	if m.At(0, 0) != 0 {
		t.Fatalf("At(0,0) = %v", m.At(0, 0))
	}
}

func TestCloneIsDeep(t *testing.T) {
	tp := New(9, 10)
	tp.EmitNanos = 1234
	raw := []byte{1, 2, 3}
	m := NewMatrix(1, 2)
	m.Set(0, 0, 7)
	tp.Set("frame", Bytes(raw))
	tp.Set("feat", FloatMatrix(m))

	c := tp.Clone()
	if !c.Equal(tp) {
		t.Fatal("clone not equal to original")
	}
	raw[0] = 99
	m.Set(0, 0, 99)
	cb, err := c.MustBytes("frame")
	if err != nil {
		t.Fatal(err)
	}
	if cb[0] != 1 {
		t.Fatal("clone shares byte payload with original")
	}
	cv, err := c.Get("feat")
	if err != nil {
		t.Fatal(err)
	}
	cm, _ := cv.AsFloatMatrix()
	if cm.At(0, 0) != 7 {
		t.Fatal("clone shares matrix payload with original")
	}
}

func TestValidateDuplicate(t *testing.T) {
	tp := New(1, 1)
	tp.fields = append(tp.fields, Field{Name: "a", Value: Int64(1)}, Field{Name: "a", Value: Int64(2)})
	if err := tp.Validate(); !errors.Is(err, ErrDupField) {
		t.Fatalf("err = %v, want ErrDupField", err)
	}
}

func TestValidateZeroKind(t *testing.T) {
	tp := New(1, 1)
	tp.fields = append(tp.fields, Field{Name: "a"})
	if err := tp.Validate(); err == nil {
		t.Fatal("zero-kind field passed validation")
	}
}

func TestValidateNil(t *testing.T) {
	var tp *Tuple
	if err := tp.Validate(); !errors.Is(err, ErrNilTuple) {
		t.Fatalf("err = %v, want ErrNilTuple", err)
	}
}

func roundTrip(t *testing.T, tp *Tuple) *Tuple {
	t.Helper()
	data, err := Marshal(tp)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if len(data) != tp.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(data), tp.WireSize())
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !got.Equal(tp) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tp)
	}
	shared, err := UnmarshalShared(data)
	if err != nil {
		t.Fatalf("UnmarshalShared: %v", err)
	}
	if !shared.Equal(tp) {
		t.Fatalf("shared round trip mismatch:\n got %+v\nwant %+v", shared, tp)
	}
	return got
}

func TestRoundTripAllKinds(t *testing.T) {
	m := NewMatrix(2, 3)
	for i := range m.Data {
		m.Data[i] = float64(i) * 1.5
	}
	tp := New(42, 7)
	tp.EmitNanos = -5
	tp.Attempt = 2
	tp.Set("frame", Bytes([]byte{0, 255, 127}))
	tp.Set("label", String("héllo wörld"))
	tp.Set("count", Int64(math.MinInt64))
	tp.Set("score", Float64(math.Inf(-1)))
	tp.Set("ok", Bool(true))
	tp.Set("feat", FloatMatrix(m))
	roundTrip(t, tp)
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, New(0, 0))
}

func TestRoundTripNaN(t *testing.T) {
	tp := New(1, 1)
	tp.Set("nan", Float64(math.NaN()))
	roundTrip(t, tp)
}

func TestRoundTripEmptyPayloads(t *testing.T) {
	tp := New(1, 1)
	tp.Set("b", Bytes(nil))
	tp.Set("s", String(""))
	tp.Set("m", FloatMatrix(NewMatrix(0, 0)))
	roundTrip(t, tp)
}

func TestMarshalNil(t *testing.T) {
	if _, err := Marshal(nil); !errors.Is(err, ErrNilTuple) {
		t.Fatalf("err = %v, want ErrNilTuple", err)
	}
}

func TestMarshalBadMatrixShape(t *testing.T) {
	tp := New(1, 1)
	tp.Set("m", FloatMatrix(&Matrix{Rows: 2, Cols: 2, Data: make([]float64, 3)}))
	if _, err := Marshal(tp); err == nil {
		t.Fatal("mis-shaped matrix marshaled without error")
	}
}

func TestMarshalLongFieldName(t *testing.T) {
	tp := New(1, 1)
	tp.Set(strings.Repeat("x", 256), Int64(1))
	if _, err := Marshal(tp); err == nil {
		t.Fatal("256-char field name marshaled without error")
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	tp := New(3, 4)
	tp.Set("frame", Bytes(make([]byte, 100)))
	data, err := Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, headerSize - 1, headerSize, headerSize + 3, len(data) - 1} {
		if _, err := Unmarshal(data[:cut]); err == nil {
			t.Errorf("Unmarshal of %d/%d bytes succeeded", cut, len(data))
		}
	}
}

func TestUnmarshalTrailingGarbage(t *testing.T) {
	data, err := Marshal(New(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(data, 0xde, 0xad)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestUnmarshalBadKind(t *testing.T) {
	tp := New(1, 1)
	tp.Set("x", Bool(false))
	data, err := Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the kind byte (header + nameLen + name).
	data[headerSize+1+1] = 200
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("unknown kind byte accepted")
	}
}

func TestUnmarshalOversizedLengthPrefix(t *testing.T) {
	tp := New(1, 1)
	tp.Set("b", Bytes([]byte{1}))
	data, err := Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	// Length prefix sits after header + nameLen(1) + name(1) + kind(1).
	off := headerSize + 3
	data[off] = 0xff
	data[off+1] = 0xff
	data[off+2] = 0xff
	data[off+3] = 0xff
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
}

func TestUnmarshalDoesNotAliasInput(t *testing.T) {
	tp := New(1, 1)
	tp.Set("b", Bytes([]byte{10, 20}))
	data, err := Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0
	}
	b, err := got.MustBytes("b")
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 10 || b[1] != 20 {
		t.Fatal("decoded tuple aliases input buffer")
	}
}

// TestRoundTripProperty fuzzes tuples with random field mixes through the
// codec and requires exact equality after a round trip.
func TestRoundTripProperty(t *testing.T) {
	f := func(id, seq uint64, emit int64, blob []byte, s string, i int64, fl float64, flag bool) bool {
		tp := New(id, seq)
		tp.EmitNanos = emit
		tp.Set("blob", Bytes(blob))
		tp.Set("s", String(s))
		tp.Set("i", Int64(i))
		tp.Set("f", Float64(fl))
		tp.Set("flag", Bool(flag))
		data, err := Marshal(tp)
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		return got.Equal(tp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalNeverPanicsProperty feeds random byte soup to Unmarshal; it
// must return an error or a valid tuple, never panic.
func TestUnmarshalNeverPanicsProperty(t *testing.T) {
	f := func(junk []byte) bool {
		got, err := Unmarshal(junk)
		if err != nil {
			return true
		}
		return got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	f := func(blob []byte, s string) bool {
		tp := New(1, 2)
		tp.Set("b", Bytes(blob))
		tp.Set("s", String(s))
		data, err := Marshal(tp)
		if err != nil {
			return false
		}
		return len(data) == tp.WireSize()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalVideoFrame(b *testing.B) {
	// The paper's face-recognition frames are 6.0 kB (400x226 px).
	tp := New(1, 1)
	tp.Set("frame", Bytes(make([]byte, 6000)))
	tp.Set("camera", String("A"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(tp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalVideoFrame(b *testing.B) {
	tp := New(1, 1)
	tp.Set("frame", Bytes(make([]byte, 6000)))
	tp.Set("camera", String("A"))
	data, err := Marshal(tp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}
