//go:build !swingdebug

package wire

// bufDebug is empty in a normal build: Release neither poisons nor
// checks.
type bufDebug struct{}

func (bufDebug) get()           {}
func (bufDebug) release([]byte) {}
