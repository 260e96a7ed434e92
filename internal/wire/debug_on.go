//go:build swingdebug

package wire

import "sync/atomic"

// poisonByte is the byte a released buffer is filled with under swingdebug.
const poisonByte = 0xDB

// bufDebug tracks whether a buffer is released, so a second Release
// panics, and poisons the bytes on the first.
type bufDebug struct {
	released atomic.Bool
}

func (d *bufDebug) get() { d.released.Store(false) }

func (d *bufDebug) release(b []byte) {
	if d.released.Swap(true) {
		panic("wire: Buf released twice")
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = poisonByte
	}
}
