package wire

import (
	"bytes"
	"testing"
)

// FuzzRepCodec throws arbitrary bytes at the replication payload
// decoders. The replication link crosses machines, so the decoders must
// never panic on hostile input, and any payload they accept must survive
// a re-encode / re-decode round trip unchanged.
func FuzzRepCodec(f *testing.F) {
	f.Add(AppendRepCheckpoint(nil, RepCheckpoint{Epoch: 3, Generation: 7,
		Data: []byte(`{"version":1,"epoch":3}`)}))
	f.Add(AppendRepRecords(nil, RepRecords{Seq: 41,
		Data: []byte{9, 0, 0, 0, 2, 'p', 'a', 'y', 'l', 'o', 'a', 'd', '!'}}))
	f.Add(AppendRepSeq(nil, 12345))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xff}, 16))

	f.Fuzz(func(t *testing.T, data []byte) {
		if ck, err := DecodeRepCheckpoint(data); err == nil {
			enc := AppendRepCheckpoint(nil, ck)
			if !bytes.Equal(enc, data) {
				t.Fatalf("repCheckpoint round trip changed payload: %x -> %x", data, enc)
			}
			ck2, err := DecodeRepCheckpoint(enc)
			if err != nil || ck2.Epoch != ck.Epoch || ck2.Generation != ck.Generation ||
				!bytes.Equal(ck2.Data, ck.Data) {
				t.Fatalf("repCheckpoint re-decode mismatch: %+v vs %+v (%v)", ck, ck2, err)
			}
		}
		if rr, err := DecodeRepRecords(data); err == nil {
			enc := AppendRepRecords(nil, rr)
			if !bytes.Equal(enc, data) {
				t.Fatalf("repRecords round trip changed payload: %x -> %x", data, enc)
			}
		}
		if seq, err := DecodeRepSeq(data); err == nil {
			if !bytes.Equal(AppendRepSeq(nil, seq), data) {
				t.Fatalf("repSeq round trip changed payload: %x", data)
			}
		}
	})
}
