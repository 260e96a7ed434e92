// Package discovery implements Swing's device discovery (paper §IV-C): the
// master periodically announces itself over UDP and workers listen for the
// announcement to learn the master's control address — a portable
// stand-in for the Android Network Service Discovery the prototype used.
package discovery

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Magic prefixes every announcement datagram.
const Magic = "SWING1"

// DefaultPort is the default UDP announcement port.
const DefaultPort = 17716

// Announcement is one master beacon.
type Announcement struct {
	// App is the application name the master is coordinating.
	App string
	// Addr is the master's control address ("host:port").
	Addr string
	// Epoch is the master's incarnation number (1 when fresh, one more
	// after each recovery; 0 names no incarnation). Workers prefer the highest epoch they
	// hear: after a master restart, stale beacons still in flight from the
	// dead incarnation must not win the race against the live one.
	Epoch uint64
}

// Encode renders the announcement datagram: magic, app, address and
// epoch, separated by spaces.
func (a Announcement) Encode() []byte {
	return []byte(Magic + " " + a.App + " " + a.Addr + " " + strconv.FormatUint(a.Epoch, 10))
}

// ErrBadAnnouncement reports an unparseable datagram.
var ErrBadAnnouncement = errors.New("discovery: bad announcement")

// Parse decodes an announcement datagram in the form Encode writes.
func Parse(b []byte) (Announcement, error) {
	parts := strings.Fields(string(b))
	if len(parts) != 4 || parts[0] != Magic {
		return Announcement{}, fmt.Errorf("%w: %q", ErrBadAnnouncement, string(b))
	}
	epoch, err := strconv.ParseUint(parts[3], 10, 64)
	if err != nil {
		return Announcement{}, fmt.Errorf("%w: epoch %q", ErrBadAnnouncement, parts[3])
	}
	return Announcement{App: parts[1], Addr: parts[2], Epoch: epoch}, nil
}

// Announcer broadcasts the master's presence on a fixed period.
type Announcer struct {
	conn   net.Conn
	stop   chan struct{}
	done   chan struct{}
	closeO sync.Once
}

// NewAnnouncer starts announcing ann to target (e.g.
// "255.255.255.255:17716" on a LAN or "127.0.0.1:17716" for local runs)
// every period.
func NewAnnouncer(target string, ann Announcement, period time.Duration) (*Announcer, error) {
	if period <= 0 {
		return nil, errors.New("discovery: non-positive period")
	}
	conn, err := net.Dial("udp", target)
	if err != nil {
		return nil, fmt.Errorf("discovery: dial %s: %w", target, err)
	}
	a := &Announcer{
		conn: conn,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	payload := ann.Encode()
	go func() {
		defer close(a.done)
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		// Announce immediately, then on the ticker.
		_, _ = conn.Write(payload)
		for {
			select {
			case <-ticker.C:
				_, _ = conn.Write(payload)
			case <-a.stop:
				return
			}
		}
	}()
	return a, nil
}

// Close stops announcing and releases the socket.
func (a *Announcer) Close() error {
	a.closeO.Do(func() {
		close(a.stop)
		<-a.done
		_ = a.conn.Close()
	})
	return nil
}

// Listen blocks until a master announcement for app arrives on the UDP
// listen address (e.g. ":17716"), or the timeout expires.
func Listen(listenAddr, app string, timeout time.Duration) (Announcement, error) {
	return ListenSince(listenAddr, app, 0, timeout)
}

// ListenSince is Listen filtered by incarnation: beacons whose epoch is
// below minEpoch are ignored. A worker that was joined to incarnation N
// passes N so a not-yet-dead announcer from the crashed master (or a
// zombie that lost a partition) cannot steer it back to a stale address.
// Epoch-0 beacons, which name no incarnation, are only accepted when
// minEpoch is 0.
func ListenSince(listenAddr, app string, minEpoch uint64, timeout time.Duration) (Announcement, error) {
	pc, err := net.ListenPacket("udp", listenAddr)
	if err != nil {
		return Announcement{}, fmt.Errorf("discovery: listen %s: %w", listenAddr, err)
	}
	defer func() { _ = pc.Close() }()
	if timeout > 0 {
		if err := pc.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return Announcement{}, fmt.Errorf("discovery: deadline: %w", err)
		}
	}
	buf := make([]byte, 512)
	for {
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			return Announcement{}, fmt.Errorf("discovery: read: %w", err)
		}
		ann, err := Parse(buf[:n])
		if err != nil {
			continue // unrelated datagram on the port
		}
		if app != "" && ann.App != app {
			continue
		}
		if ann.Epoch < minEpoch {
			continue // stale beacon from a dead or zombie incarnation
		}
		return ann, nil
	}
}
