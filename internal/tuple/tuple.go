// Package tuple implements Swing's data tuples: the unit of data that flows
// along edges of an application dataflow graph, together with the binary
// serialization service the paper describes (§IV-C, "Serialization
// Service").
//
// A tuple is an ordered list of named, typed fields. Mobile sensing apps
// transmit customized payloads — an image container, a multi-dimensional
// sensor vector, a segment of an audio stream — so the codec supports raw
// byte arrays, strings, scalars and float matrices.
package tuple

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Kind identifies the dynamic type of a tuple field value.
type Kind uint8

// Field value kinds. They start at 1 so the zero Kind is invalid, which
// catches uninitialized fields during validation.
const (
	KindBytes Kind = iota + 1
	KindString
	KindInt64
	KindFloat64
	KindBool
	KindFloatMatrix
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindBytes:
		return "bytes"
	case KindString:
		return "string"
	case KindInt64:
		return "int64"
	case KindFloat64:
		return "float64"
	case KindBool:
		return "bool"
	case KindFloatMatrix:
		return "floatmatrix"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Matrix is a dense row-major matrix of float64 values, e.g. image feature
// vectors or audio spectra.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a Rows x Cols zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Value is a single typed tuple field value, packed into three words so
// a decoded tuple block stays small and carries one pointer per value
// for the collector to scan. By kind:
//
//	bytes:   p = the slice's data pointer, num = its length
//	string:  p = the string's data pointer, num = its length
//	int64:   num = the value's bits
//	float64: num = math.Float64bits of the value
//	bool:    num = 0 or 1
//	matrix:  p = the *Matrix
//
// p keeps the payload alive. A bytes value remembers no capacity, so
// AsBytes returns a slice capped at its length.
type Value struct {
	p    unsafe.Pointer
	num  uint64
	kind Kind
}

// Bytes wraps a byte slice as a Value. The slice is not copied; callers
// that retain the input must not mutate it afterwards.
func Bytes(b []byte) Value {
	return Value{p: unsafe.Pointer(unsafe.SliceData(b)), num: uint64(len(b)), kind: KindBytes}
}

// String wraps a string as a Value.
func String(s string) Value {
	return Value{p: unsafe.Pointer(unsafe.StringData(s)), num: uint64(len(s)), kind: KindString}
}

// Int64 wraps an int64 as a Value.
func Int64(i int64) Value { return Value{num: uint64(i), kind: KindInt64} }

// Float64 wraps a float64 as a Value.
func Float64(f float64) Value { return Value{num: math.Float64bits(f), kind: KindFloat64} }

// Bool wraps a bool as a Value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.num = 1
	}
	return v
}

// FloatMatrix wraps a Matrix as a Value. The matrix is not copied.
func FloatMatrix(m *Matrix) Value { return Value{p: unsafe.Pointer(m), kind: KindFloatMatrix} }

// Kind reports the value's dynamic kind; zero for an unset Value.
func (v Value) Kind() Kind { return v.kind }

// AsBytes returns the byte payload and whether the value holds one. The
// slice's capacity equals its length, so appending to it reallocates.
// Nil bytes come back nil; empty non-nil bytes come back empty non-nil.
func (v Value) AsBytes() ([]byte, bool) {
	if v.kind != KindBytes {
		return nil, false
	}
	return v.bytes(), true
}

// AsString returns the string payload and whether the value holds one.
func (v Value) AsString() (string, bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.str(), true
}

// AsInt64 returns the int64 payload and whether the value holds one.
func (v Value) AsInt64() (int64, bool) {
	if v.kind != KindInt64 {
		return 0, false
	}
	return int64(v.num), true
}

// AsFloat64 returns the float64 payload and whether the value holds one.
func (v Value) AsFloat64() (float64, bool) {
	if v.kind != KindFloat64 {
		return 0, false
	}
	return math.Float64frombits(v.num), true
}

// AsBool returns the bool payload and whether the value holds one.
func (v Value) AsBool() (bool, bool) {
	if v.kind != KindBool {
		return false, false
	}
	return v.num != 0, true
}

// AsFloatMatrix returns the matrix payload and whether the value holds one.
func (v Value) AsFloatMatrix() (*Matrix, bool) {
	if v.kind != KindFloatMatrix {
		return nil, false
	}
	return v.matrix(), true
}

// bytes, str and matrix read p back by kind; the caller has checked it.
func (v Value) bytes() []byte   { return unsafe.Slice((*byte)(v.p), v.num) }
func (v Value) str() string     { return unsafe.String((*byte)(v.p), v.num) }
func (v Value) matrix() *Matrix { return (*Matrix)(v.p) }

// WireSize returns the number of payload bytes this value contributes when
// serialized, excluding per-field framing. It is the quantity the network
// model charges for transmission.
func (v Value) WireSize() int {
	switch v.kind {
	case KindBytes, KindString:
		return int(v.num)
	case KindInt64, KindFloat64:
		return 8
	case KindBool:
		return 1
	case KindFloatMatrix:
		if v.p == nil {
			return 8
		}
		return 8 + 8*len(v.matrix().Data)
	default:
		return 0
	}
}

// Equal reports deep value equality. NaN float payloads compare equal to
// themselves so round-trip tests can use it.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindBytes:
		return bytes.Equal(v.bytes(), o.bytes())
	case KindString:
		return v.str() == o.str()
	case KindInt64, KindBool:
		return v.num == o.num
	case KindFloat64:
		f, g := math.Float64frombits(v.num), math.Float64frombits(o.num)
		return f == g || (math.IsNaN(f) && math.IsNaN(g))
	case KindFloatMatrix:
		vm, om := v.matrix(), o.matrix()
		if (vm == nil) != (om == nil) {
			return false
		}
		if vm == nil {
			return true
		}
		if vm.Rows != om.Rows || vm.Cols != om.Cols || len(vm.Data) != len(om.Data) {
			return false
		}
		for i := range vm.Data {
			a, b := vm.Data[i], om.Data[i]
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// Field is a named tuple value.
type Field struct {
	Name  string
	Value Value
}

// Tuple is the unit of data flowing along dataflow-graph edges.
//
// ID is assigned by the source and is globally unique within a run; it
// drives ACK matching at upstreams and reordering at the sink. SeqNo is the
// source emission sequence (playback order). EmitNanos carries the
// timestamp the current upstream attached when it dispatched the tuple,
// which the downstream echoes in its ACK for latency estimation (§V-B).
// Attempt counts transmission attempts: 0 on first dispatch, incremented
// each time the runtime retransmits the tuple after a worker failure, so
// downstreams can tell a retransmission from fresh traffic.
type Tuple struct {
	ID        uint64
	SeqNo     uint64
	EmitNanos int64
	Attempt   uint8

	fields []Field
	// farr inlines storage for small field lists (the common case for
	// sensing tuples: a payload plus a couple of annotations), so
	// building or decoding a tuple costs one allocation instead of two. fields
	// aliases farr when it fits; Set's append spills to the heap
	// transparently when it does not. Tuples must not be copied by
	// value (use Clone), or fields would alias the original's farr.
	farr [4]Field
}

// Errors returned by tuple operations.
var (
	ErrNoField   = errors.New("tuple: no such field")
	ErrDupField  = errors.New("tuple: duplicate field name")
	ErrNilTuple  = errors.New("tuple: nil tuple")
	ErrBadKind   = errors.New("tuple: wrong field kind")
	ErrTruncated = errors.New("tuple: truncated encoding")
)

// New returns an empty tuple with the given identity. Its field list
// starts on the inline storage, so New plus up to four Sets costs one
// allocation.
func New(id, seq uint64) *Tuple {
	t := &Tuple{ID: id, SeqNo: seq}
	t.fields = t.farr[:0]
	return t
}

// Set adds or replaces the named field.
func (t *Tuple) Set(name string, v Value) *Tuple {
	for i := range t.fields {
		if t.fields[i].Name == name {
			t.fields[i].Value = v
			return t
		}
	}
	t.fields = append(t.fields, Field{Name: name, Value: v})
	return t
}

// Get returns the named field's value.
func (t *Tuple) Get(name string) (Value, error) {
	for i := range t.fields {
		if t.fields[i].Name == name {
			return t.fields[i].Value, nil
		}
	}
	return Value{}, fmt.Errorf("%w: %q", ErrNoField, name)
}

// MustBytes returns the named bytes field or an error if absent/mistyped.
func (t *Tuple) MustBytes(name string) ([]byte, error) {
	v, err := t.Get(name)
	if err != nil {
		return nil, err
	}
	b, ok := v.AsBytes()
	if !ok {
		return nil, fmt.Errorf("%w: field %q is %v, want bytes", ErrBadKind, name, v.Kind())
	}
	return b, nil
}

// MustString returns the named string field or an error if absent/mistyped.
func (t *Tuple) MustString(name string) (string, error) {
	v, err := t.Get(name)
	if err != nil {
		return "", err
	}
	s, ok := v.AsString()
	if !ok {
		return "", fmt.Errorf("%w: field %q is %v, want string", ErrBadKind, name, v.Kind())
	}
	return s, nil
}

// Fields returns a copy of the field list in insertion order.
func (t *Tuple) Fields() []Field {
	out := make([]Field, len(t.fields))
	copy(out, t.fields)
	return out
}

// Len reports the number of fields.
func (t *Tuple) Len() int { return len(t.fields) }

// WireSize is the total payload size in bytes: field payloads plus framing
// (headers, names and length prefixes), matching the encoded length of
// Marshal's output.
func (t *Tuple) WireSize() int {
	n := headerSize
	for i := range t.fields {
		n += fieldFraming(t.fields[i])
	}
	return n
}

// Clone returns a deep copy of the tuple; byte and matrix payloads are
// copied so the clone can be mutated independently.
func (t *Tuple) Clone() *Tuple {
	c := &Tuple{ID: t.ID, SeqNo: t.SeqNo, EmitNanos: t.EmitNanos, Attempt: t.Attempt}
	c.fields = make([]Field, len(t.fields))
	for i, f := range t.fields {
		cv := f.Value
		switch cv.kind {
		case KindBytes:
			b := make([]byte, cv.num)
			copy(b, cv.bytes())
			cv = Bytes(b)
		case KindFloatMatrix:
			if om := cv.matrix(); om != nil {
				m := &Matrix{Rows: om.Rows, Cols: om.Cols, Data: make([]float64, len(om.Data))}
				copy(m.Data, om.Data)
				cv = FloatMatrix(m)
			}
		}
		c.fields[i] = Field{Name: f.Name, Value: cv}
	}
	return c
}

// Equal reports deep equality of identity and fields.
func (t *Tuple) Equal(o *Tuple) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.ID != o.ID || t.SeqNo != o.SeqNo || t.EmitNanos != o.EmitNanos ||
		t.Attempt != o.Attempt || len(t.fields) != len(o.fields) {
		return false
	}
	for i := range t.fields {
		if t.fields[i].Name != o.fields[i].Name || !t.fields[i].Value.Equal(o.fields[i].Value) {
			return false
		}
	}
	return true
}

// Validate checks structural invariants: no duplicate field names and no
// zero-kind values.
func (t *Tuple) Validate() error {
	if t == nil {
		return ErrNilTuple
	}
	// Small tuples (the hot path) take a quadratic scan rather than
	// allocating a set; Validate runs on every Marshal and Unmarshal.
	if len(t.fields) <= 16 {
		for i := range t.fields {
			f := &t.fields[i]
			if f.Value.kind == 0 || f.Value.kind > KindFloatMatrix {
				return fmt.Errorf("tuple: field %q has invalid kind %d", f.Name, f.Value.kind)
			}
			for j := 0; j < i; j++ {
				if t.fields[j].Name == f.Name {
					return fmt.Errorf("%w: %q", ErrDupField, f.Name)
				}
			}
		}
		return nil
	}
	seen := make(map[string]struct{}, len(t.fields))
	for _, f := range t.fields {
		if _, dup := seen[f.Name]; dup {
			return fmt.Errorf("%w: %q", ErrDupField, f.Name)
		}
		seen[f.Name] = struct{}{}
		if f.Value.kind == 0 || f.Value.kind > KindFloatMatrix {
			return fmt.Errorf("tuple: field %q has invalid kind %d", f.Name, f.Value.kind)
		}
	}
	return nil
}
