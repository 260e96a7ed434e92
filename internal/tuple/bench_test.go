package tuple

import "testing"

func benchTuple() *Tuple {
	t := New(42, 7)
	t.EmitNanos = 123456789
	t.Set("frame", Bytes(make([]byte, 6*1024)))
	t.Set("camera", String("front"))
	t.Set("ts", Int64(987654321))
	return t
}

// BenchmarkTupleMarshal measures the per-tuple encode cost on the Submit
// hot path.
func BenchmarkTupleMarshal(b *testing.B) {
	t := benchTuple()
	b.ReportAllocs()
	b.SetBytes(int64(t.WireSize()))
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTupleUnmarshal measures the per-tuple decode cost on the
// worker's receive path.
func BenchmarkTupleUnmarshal(b *testing.B) {
	data, err := Marshal(benchTuple())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeSharedIntoBlock measures the result path's frame
// decode: 256 tuples of 600 B payload decoded into one []Tuple block,
// block allocation included.
func BenchmarkDecodeSharedIntoBlock(b *testing.B) {
	const n = 256
	encs := make([][]byte, n)
	for i := range encs {
		t := New(uint64(i), uint64(i)).Set("frame", Bytes(make([]byte, 600)))
		var err error
		if encs[i], err = Marshal(t); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		block := make([]Tuple, n)
		for j, data := range encs {
			if err := DecodeSharedInto(&block[j], data); err != nil {
				b.Fatal(err)
			}
		}
	}
}
