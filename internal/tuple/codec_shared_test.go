package tuple

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"
)

func sampleTuple() *Tuple {
	t := New(7, 3)
	t.EmitNanos = 555
	t.Attempt = 1
	t.Set("frame", Bytes([]byte{1, 2, 3, 4}))
	t.Set("camera", String("rear"))
	t.Set("ts", Int64(99))
	return t
}

// TestAppendMarshalMatchesMarshal: the append-based encoder must emit
// byte-identical output after any prefix.
func TestAppendMarshalMatchesMarshal(t *testing.T) {
	tp := sampleTuple()
	plain, err := Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	appended, err := AppendMarshal([]byte("prefix"), tp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(appended[len("prefix"):], plain) {
		t.Fatal("AppendMarshal output differs from Marshal")
	}
	// Reusing the same buffer must not corrupt the second encoding.
	buf := appended[:0]
	buf, err = AppendMarshal(buf, tp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, plain) {
		t.Fatal("AppendMarshal into reused buffer differs")
	}
}

// TestUnmarshalSharedAliases: the zero-copy decoder must alias byte
// fields into the input buffer, and the regular decoder must not.
func TestUnmarshalSharedAliases(t *testing.T) {
	data, err := Marshal(sampleTuple())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := UnmarshalShared(data)
	if err != nil {
		t.Fatal(err)
	}
	if !shared.Equal(sampleTuple()) {
		t.Fatal("shared decode mismatch")
	}
	sb, err := shared.MustBytes("frame")
	if err != nil {
		t.Fatal(err)
	}
	owned, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := owned.MustBytes("frame")
	if err != nil {
		t.Fatal(err)
	}
	// Mutate through the shared view: the input buffer must change (they
	// alias), while the owned decode must be unaffected.
	before := append([]byte(nil), data...)
	sb[0] = 0xFF
	if bytes.Equal(data, before) {
		t.Fatal("shared bytes do not alias input")
	}
	if ob[0] == 0xFF {
		t.Fatal("owned bytes alias input")
	}
}

// TestUnmarshalSharedAllocs pins the decode allocation budget for the
// worker's hot path: tuple (with inline field storage), interned names,
// aliased bytes — only the string field's copy and the tuple itself
// should allocate.
func TestUnmarshalSharedAllocs(t *testing.T) {
	data, err := Marshal(sampleTuple())
	if err != nil {
		t.Fatal(err)
	}
	// Warm the name-intern table outside the measured window.
	if _, err := UnmarshalShared(data); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := UnmarshalShared(data); err != nil {
			t.Fatal(err)
		}
	})
	// 1 tuple + 1 string-field copy.
	if allocs > 2 {
		t.Fatalf("UnmarshalShared allocates %.1f/op, want <= 2", allocs)
	}
}

// TestMarshalAllocs: encoding must allocate only the output buffer.
func TestMarshalAllocs(t *testing.T) {
	tp := sampleTuple()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Marshal(tp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Marshal allocates %.1f/op, want <= 1", allocs)
	}
	// And AppendMarshal into a pre-sized buffer must not allocate at all.
	buf := make([]byte, 0, tp.WireSize())
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := AppendMarshal(buf[:0], tp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendMarshal allocates %.1f/op, want 0", allocs)
	}
}

// TestValidateManyFields keeps the map-based duplicate check for large
// tuples honest (the alloc-free fast path only covers small ones).
func TestValidateManyFields(t *testing.T) {
	big := New(1, 1)
	for i := 0; i < 20; i++ {
		big.Set(string(rune('a'+i)), Int64(int64(i)))
	}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	big.fields = append(big.fields, Field{Name: "a", Value: Int64(0)})
	if err := big.Validate(); err == nil {
		t.Fatal("duplicate in large tuple accepted")
	}
}

// TestNewSetAllocs: New starts the field list on the inline storage, so
// building a tuple of up to four fields costs the tuple alone.
func TestNewSetAllocs(t *testing.T) {
	payload := []byte{1, 2, 3}
	allocs := testing.AllocsPerRun(200, func() {
		tp := New(1, 1)
		tp.Set("frame", Bytes(payload))
		tp.Set("ts", Int64(1))
		tp.Set("ok", Bool(true))
		tp.Set("score", Float64(0.5))
		if tp.Len() != 4 {
			t.Fatal("lost a field")
		}
	})
	if allocs != 1 {
		t.Fatalf("New + 4×Set allocates %.1f/op, want 1", allocs)
	}
}

// TestSharedBytesAppendDoesNotClobberSibling: tuples decoded back to
// back from one buffer alias it, so an append to one tuple's bytes field
// must reallocate rather than write over the next tuple's encoding.
func TestSharedBytesAppendDoesNotClobberSibling(t *testing.T) {
	first := New(1, 1).Set("frame", Bytes([]byte{1, 2, 3, 4}))
	second := New(2, 2).Set("frame", Bytes([]byte{5, 6, 7, 8}))
	buf, err := AppendMarshal(nil, first)
	if err != nil {
		t.Fatal(err)
	}
	split := len(buf)
	if buf, err = AppendMarshal(buf, second); err != nil {
		t.Fatal(err)
	}
	decoders := map[string]func(data []byte) (*Tuple, error){
		"UnmarshalShared": UnmarshalShared,
		"DecodeSharedInto": func(data []byte) (*Tuple, error) {
			block := make([]Tuple, 1)
			return &block[0], DecodeSharedInto(&block[0], data)
		},
	}
	for name, dec := range decoders {
		t.Run(name, func(t *testing.T) {
			data := append([]byte(nil), buf...)
			a, err := dec(data[:split])
			if err != nil {
				t.Fatal(err)
			}
			b, err := dec(data[split:])
			if err != nil {
				t.Fatal(err)
			}
			// Grow the first tuple's trailing bytes field across the whole
			// of the second tuple's encoding.
			ab, _ := a.MustBytes("frame")
			if cap(ab) != len(ab) {
				t.Fatalf("aliased bytes have cap %d for len %d", cap(ab), len(ab))
			}
			_ = append(ab, bytes.Repeat([]byte{0xEE}, len(buf)-split)...)
			if !b.Equal(second) {
				t.Fatalf("appending to the first tuple's bytes rewrote its sibling: %+v", b.Fields())
			}
		})
	}
}

// TestDecodeSharedIntoBlock fills one caller-owned block with several
// tuples and zeroes the slot on a decode error.
func TestDecodeSharedIntoBlock(t *testing.T) {
	data, err := Marshal(sampleTuple())
	if err != nil {
		t.Fatal(err)
	}
	block := make([]Tuple, 3)
	for i := range block[:2] {
		if err := DecodeSharedInto(&block[i], data); err != nil {
			t.Fatal(err)
		}
		if !block[i].Equal(sampleTuple()) {
			t.Fatalf("slot %d decoded %+v", i, block[i].Fields())
		}
	}
	block[2].ID = 9
	if err := DecodeSharedInto(&block[2], data[:len(data)-1]); err == nil {
		t.Fatal("truncated tuple decoded")
	}
	if block[2].ID != 0 || block[2].Len() != 0 {
		t.Fatalf("failed decode left %+v in its slot", block[2])
	}
	// Decoding into a block costs only the string field's copy.
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeSharedInto(&block[0], data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("DecodeSharedInto allocates %.1f/op, want <= 1", allocs)
	}
}

// TestInternNameCapped: a stream of distinct hostile names stops growing
// the intern table at internCap; later names still decode, unshared.
func TestInternNameCapped(t *testing.T) {
	saved := internTable.Load()
	t.Cleanup(func() { internTable.Store(saved) })
	internTable.Store(&map[string]string{})
	for i := 0; i < internCap+100; i++ {
		name := fmt.Sprintf("hostile-%d", i)
		if got := internName([]byte(name)); got != name {
			t.Fatalf("internName(%q) = %q", name, got)
		}
	}
	if n := len(*internTable.Load()); n != internCap {
		t.Fatalf("intern table holds %d names, want the cap %d", n, internCap)
	}
	// A name interned before the cap is still shared.
	a := internName([]byte("hostile-0"))
	b := internName([]byte("hostile-0"))
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("interned name not shared")
	}
}
