package tuple

import (
	"testing"
	"unsafe"
)

// TestValueLayout pins the packed value: three words per Value, two
// pointer words per Field (name and payload), and a Tuple whose four
// inline fields fit in 216 bytes.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("sizeof(Value) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(Field{}); got != 40 {
		t.Errorf("sizeof(Field) = %d, want 40", got)
	}
	if got := unsafe.Sizeof(Tuple{}); got != 216 {
		t.Errorf("sizeof(Tuple) = %d, want 216", got)
	}
}

// TestBytesNilVersusEmpty: a nil payload reads back nil and an empty one
// reads back empty but non-nil.
func TestBytesNilVersusEmpty(t *testing.T) {
	if b, ok := Bytes(nil).AsBytes(); !ok || b != nil {
		t.Fatalf("Bytes(nil).AsBytes() = %v, %v; want nil, true", b, ok)
	}
	if b, ok := Bytes([]byte{}).AsBytes(); !ok || b == nil || len(b) != 0 {
		t.Fatalf("Bytes([]byte{}).AsBytes() = %v (nil %v), %v; want empty non-nil", b, b == nil, ok)
	}
	if !Bytes(nil).Equal(Bytes([]byte{})) {
		t.Fatal("nil and empty bytes compare unequal")
	}
}

// TestBytesSpareCapacity: a slice with capacity beyond its length reads
// back its length only and shares the caller's array; appending to what
// AsBytes returns reallocates rather than writing into the spare room.
func TestBytesSpareCapacity(t *testing.T) {
	backing := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b, _ := Bytes(backing[:3]).AsBytes()
	if len(b) != 3 || cap(b) != 3 || &b[0] != &backing[0] {
		t.Fatalf("AsBytes = len %d cap %d, shared %v; want len 3 cap 3 shared", len(b), cap(b), &b[0] == &backing[0])
	}
	_ = append(b, 0xEE)
	if backing[3] != 4 {
		t.Fatalf("append through AsBytes wrote into the spare capacity: %v", backing)
	}
	roundTrip(t, New(1, 1).Set("b", Bytes(backing[:3])))
}
