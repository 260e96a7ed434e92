package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Wire format (all integers little-endian):
//
//	header:  id u64 | seq u64 | emitNanos i64 | attempt u8 | nfields u16
//	field:   nameLen u8 | name | kind u8 | payload
//	payload: bytes/string: len u32 | data
//	         int64/float64: 8 bytes
//	         bool: 1 byte
//	         matrix: rows u32 | cols u32 | rows*cols float64
//
// The format is versionless by design: both ends of a Swing deployment run
// the same app binary (the paper's workflow installs the same app on every
// device), so there is no cross-version framing to negotiate.

const headerSize = 8 + 8 + 8 + 1 + 2

const (
	maxFieldName = 255
	maxFields    = 1 << 16

	// maxPayload bounds a single field payload (64 MiB); it protects
	// receivers against corrupt or hostile length prefixes.
	maxPayload = 64 << 20
)

func fieldFraming(f Field) int {
	n := 1 + len(f.Name) + 1 // nameLen, name, kind
	switch f.Value.kind {
	case KindBytes, KindString:
		n += 4
	}
	return n + f.Value.WireSize()
}

// Marshal serializes the tuple into a fresh byte slice.
func Marshal(t *Tuple) ([]byte, error) {
	if t == nil {
		return nil, ErrNilTuple
	}
	return AppendMarshal(make([]byte, 0, t.WireSize()), t)
}

// AppendMarshal appends the tuple's encoding to dst and returns the
// extended slice, so hot paths can serialize into pooled or reused
// buffers. On error the returned slice may carry a partial encoding;
// callers should truncate back to the original length before reuse.
func AppendMarshal(dst []byte, t *Tuple) ([]byte, error) {
	if t == nil {
		return dst, ErrNilTuple
	}
	if err := t.Validate(); err != nil {
		return dst, err
	}
	if len(t.fields) >= maxFields {
		return dst, fmt.Errorf("tuple: %d fields exceeds limit", len(t.fields))
	}
	buf := dst
	buf = binary.LittleEndian.AppendUint64(buf, t.ID)
	buf = binary.LittleEndian.AppendUint64(buf, t.SeqNo)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.EmitNanos))
	buf = append(buf, t.Attempt)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t.fields)))
	for _, f := range t.fields {
		if len(f.Name) > maxFieldName {
			return buf, fmt.Errorf("tuple: field name %q too long", f.Name)
		}
		buf = append(buf, byte(len(f.Name)))
		buf = append(buf, f.Name...)
		buf = append(buf, byte(f.Value.kind))
		switch v := f.Value; v.kind {
		case KindBytes:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v.num))
			buf = append(buf, v.bytes()...)
		case KindString:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v.num))
			buf = append(buf, v.str()...)
		case KindInt64, KindFloat64:
			buf = binary.LittleEndian.AppendUint64(buf, v.num)
		case KindBool:
			buf = append(buf, byte(v.num))
		case KindFloatMatrix:
			m := v.matrix()
			if m == nil {
				m = &Matrix{}
			}
			if m.Rows < 0 || m.Cols < 0 || m.Rows*m.Cols != len(m.Data) {
				return buf, fmt.Errorf("tuple: field %q matrix shape %dx%d does not match %d elements",
					f.Name, m.Rows, m.Cols, len(m.Data))
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Rows))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Cols))
			for _, v := range m.Data {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		default:
			return buf, fmt.Errorf("tuple: field %q has unsupported kind %v", f.Name, f.Value.kind)
		}
	}
	return buf, nil
}

// Field names recur on every tuple of a stream (the same few names,
// millions of tuples), so decoding interns them instead of allocating a
// fresh string per field. The table is bounded: hostile streams with
// unbounded distinct names fall back to plain allocation once it fills.
//
// Reads are lock-free: the table is an immutable map behind an atomic
// pointer, so concurrent decoders share it without writing a common
// reader-count cache line. A miss below the cap republishes a grown copy
// under internMu; misses are rare once a stream's names are known.
const internCap = 1024

var (
	internMu    sync.Mutex
	internTable atomic.Pointer[map[string]string]
)

func init() {
	internTable.Store(&map[string]string{})
}

func internName(b []byte) string {
	tab := *internTable.Load()
	if s, ok := tab[string(b)]; ok { // compiler avoids allocating the key
		return s
	}
	s := string(b)
	if len(tab) >= internCap {
		return s
	}
	internMu.Lock()
	defer internMu.Unlock()
	cur := *internTable.Load()
	if prev, ok := cur[s]; ok {
		return prev
	}
	if len(cur) >= internCap {
		return s
	}
	next := make(map[string]string, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[s] = s
	internTable.Store(&next)
	return s
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) need(n int) ([]byte, error) {
	if r.off+n > len(r.buf) {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.buf))
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u8() (byte, error) {
	b, err := r.need(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.need(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.need(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Unmarshal parses a tuple from data. The returned tuple owns copies of all
// payloads; data may be reused afterwards.
func Unmarshal(data []byte) (*Tuple, error) {
	return unmarshal(data, false)
}

// UnmarshalShared parses a tuple whose byte-array fields alias data
// instead of copying it. The caller must keep data alive and unmutated
// for as long as the tuple (or anything derived from its bytes fields)
// is in use — e.g. a pooled frame buffer may only be released after the
// tuple has been fully processed. All other field kinds are owned by
// the tuple as with Unmarshal. Aliased slices are capped at their own
// length, so appending to one reallocates instead of overwriting the
// bytes that follow it in data.
func UnmarshalShared(data []byte) (*Tuple, error) {
	return unmarshal(data, true)
}

func unmarshal(data []byte, share bool) (*Tuple, error) {
	t := new(Tuple)
	if err := decode(t, data, share); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeSharedInto is UnmarshalShared into caller-owned storage: it
// overwrites *dst, so a decoder can fill one []Tuple block for a whole
// frame of tuples with a single allocation. The aliasing rules of
// UnmarshalShared apply, and dst must stay where it is while in use
// (its field list lives inline in the Tuple). On error *dst is zeroed.
func DecodeSharedInto(dst *Tuple, data []byte) error {
	if err := decode(dst, data, true); err != nil {
		*dst = Tuple{}
		return err
	}
	return nil
}

// MinEncodedSize is the smallest possible tuple encoding: the header of
// a tuple with no fields. Decoders use it to bound untrusted counts.
const MinEncodedSize = headerSize

func decode(t *Tuple, data []byte, share bool) error {
	r := &reader{buf: data}
	id, err := r.u64()
	if err != nil {
		return err
	}
	seq, err := r.u64()
	if err != nil {
		return err
	}
	emit, err := r.u64()
	if err != nil {
		return err
	}
	attempt, err := r.u8()
	if err != nil {
		return err
	}
	nf, err := r.u16()
	if err != nil {
		return err
	}
	*t = Tuple{ID: id, SeqNo: seq, EmitNanos: int64(emit), Attempt: attempt}
	if int(nf) <= len(t.farr) {
		t.fields = t.farr[:0]
	} else {
		t.fields = make([]Field, 0, nf)
	}
	for i := 0; i < int(nf); i++ {
		nameLen, err := r.u8()
		if err != nil {
			return err
		}
		nameBytes, err := r.need(int(nameLen))
		if err != nil {
			return err
		}
		name := internName(nameBytes)
		kindByte, err := r.u8()
		if err != nil {
			return err
		}
		kind := Kind(kindByte)
		var v Value
		switch kind {
		case KindBytes:
			n, err := r.u32()
			if err != nil {
				return err
			}
			if n > maxPayload {
				return fmt.Errorf("tuple: field %q payload %d exceeds limit", name, n)
			}
			raw, err := r.need(int(n))
			if err != nil {
				return err
			}
			if share {
				// A Value keeps no capacity, so AsBytes caps the alias at
				// its length and an append cannot reach the next field.
				v = Bytes(raw)
			} else {
				b := make([]byte, n)
				copy(b, raw)
				v = Bytes(b)
			}
		case KindString:
			n, err := r.u32()
			if err != nil {
				return err
			}
			if n > maxPayload {
				return fmt.Errorf("tuple: field %q payload %d exceeds limit", name, n)
			}
			raw, err := r.need(int(n))
			if err != nil {
				return err
			}
			v = String(string(raw))
		case KindInt64:
			u, err := r.u64()
			if err != nil {
				return err
			}
			v = Int64(int64(u))
		case KindFloat64:
			u, err := r.u64()
			if err != nil {
				return err
			}
			v = Float64(math.Float64frombits(u))
		case KindBool:
			b, err := r.u8()
			if err != nil {
				return err
			}
			v = Bool(b != 0)
		case KindFloatMatrix:
			rows, err := r.u32()
			if err != nil {
				return err
			}
			cols, err := r.u32()
			if err != nil {
				return err
			}
			total := uint64(rows) * uint64(cols)
			if total*8 > maxPayload {
				return fmt.Errorf("tuple: field %q matrix %dx%d exceeds limit", name, rows, cols)
			}
			m := &Matrix{Rows: int(rows), Cols: int(cols), Data: make([]float64, total)}
			for j := range m.Data {
				u, err := r.u64()
				if err != nil {
					return err
				}
				m.Data[j] = math.Float64frombits(u)
			}
			v = FloatMatrix(m)
		default:
			return fmt.Errorf("tuple: field %q has unknown kind byte %d", name, kindByte)
		}
		t.fields = append(t.fields, Field{Name: name, Value: v})
	}
	if r.off != len(data) {
		return fmt.Errorf("tuple: %d trailing bytes after decode", len(data)-r.off)
	}
	return t.Validate()
}
