//go:build swingdebug

package wire

import "testing"

// TestReleasePoisonsAndPanicsTwice: under swingdebug a released buffer's
// bytes are overwritten, a second Release panics, and a buffer taken
// from the pool again may be released again.
func TestReleasePoisonsAndPanicsTwice(t *testing.T) {
	b := GetBuf(64)
	for i := range b.B {
		b.B[i] = byte(i)
	}
	payload := b.B
	b.Release()
	for i, c := range payload {
		if c != poisonByte {
			t.Fatalf("byte %d reads %#x after Release, want poison %#x", i, c, poisonByte)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a second Release did not panic")
			}
		}()
		b.Release()
	}()
	GetBuf(8).Release() // a pooled buffer is released once per GetBuf
}
