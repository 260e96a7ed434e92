package discovery

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

func freeUDPPort(t *testing.T) int {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := pc.LocalAddr().(*net.UDPAddr).Port
	_ = pc.Close()
	return port
}

func TestEncodeParse(t *testing.T) {
	ann := Announcement{App: "facerec", Addr: "192.168.1.2:7000"}
	got, err := Parse(ann.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != ann {
		t.Fatalf("got %+v", got)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("HELLO x y"),
		[]byte("SWING1 onlyapp"),
		[]byte("SWING1 a b c d"),
	}
	for _, c := range cases {
		if _, err := Parse(c); !errors.Is(err, ErrBadAnnouncement) {
			t.Errorf("Parse(%q) err = %v", c, err)
		}
	}
}

func TestAnnounceAndListen(t *testing.T) {
	port := freeUDPPort(t)
	target := fmt.Sprintf("127.0.0.1:%d", port)
	listenAddr := fmt.Sprintf("127.0.0.1:%d", port)

	found := make(chan Announcement, 1)
	errs := make(chan error, 1)
	go func() {
		ann, err := Listen(listenAddr, "facerec", 5*time.Second)
		if err != nil {
			errs <- err
			return
		}
		found <- ann
	}()
	time.Sleep(50 * time.Millisecond) // listener binds first

	ann := Announcement{App: "facerec", Addr: "10.0.0.1:7000"}
	a, err := NewAnnouncer(target, ann, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()

	select {
	case got := <-found:
		if got != ann {
			t.Fatalf("got %+v", got)
		}
	case err := <-errs:
		t.Fatalf("Listen: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("announcement never received")
	}
}

func TestListenFiltersApps(t *testing.T) {
	port := freeUDPPort(t)
	target := fmt.Sprintf("127.0.0.1:%d", port)

	wrong, err := NewAnnouncer(target, Announcement{App: "otherapp", Addr: "1.2.3.4:1"}, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = wrong.Close() }()

	_, err = Listen(fmt.Sprintf("127.0.0.1:%d", port), "facerec", 400*time.Millisecond)
	if err == nil {
		t.Fatal("listener matched the wrong app")
	}
}

func TestListenTimeout(t *testing.T) {
	port := freeUDPPort(t)
	start := time.Now()
	_, err := Listen(fmt.Sprintf("127.0.0.1:%d", port), "facerec", 200*time.Millisecond)
	if err == nil {
		t.Fatal("no timeout")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout too slow")
	}
}

func TestAnnouncerCloseIdempotent(t *testing.T) {
	port := freeUDPPort(t)
	a, err := NewAnnouncer(fmt.Sprintf("127.0.0.1:%d", port), Announcement{App: "x", Addr: "y:1"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAnnouncerBadPeriod(t *testing.T) {
	if _, err := NewAnnouncer("127.0.0.1:9", Announcement{}, 0); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestEncodeParseEpoch(t *testing.T) {
	ann := Announcement{App: "facerec", Addr: "192.168.1.2:7000", Epoch: 3}
	got, err := Parse(ann.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != ann {
		t.Fatalf("got %+v, want %+v", got, ann)
	}
	// Epoch 0 is written like any other epoch: a beacon has one form.
	zero := Announcement{App: "facerec", Addr: "192.168.1.2:7000"}
	if s := string(zero.Encode()); s != "SWING1 facerec 192.168.1.2:7000 0" {
		t.Fatalf("epoch-0 beacon = %q, not the 4-field form", s)
	}
}

func TestParseEpochForms(t *testing.T) {
	// The 3-field form without an epoch is not a beacon any more.
	if _, err := Parse([]byte("SWING1 facerec 10.0.0.1:7000")); !errors.Is(err, ErrBadAnnouncement) {
		t.Fatalf("3-field beacon err = %v", err)
	}
	// A non-numeric fourth field is a malformed beacon, not an app name.
	if _, err := Parse([]byte("SWING1 facerec 10.0.0.1:7000 banana")); !errors.Is(err, ErrBadAnnouncement) {
		t.Fatalf("bad epoch err = %v", err)
	}
}

func TestListenSinceLegacyBeacons(t *testing.T) {
	port := freeUDPPort(t)
	target := fmt.Sprintf("127.0.0.1:%d", port)
	listenAddr := fmt.Sprintf("127.0.0.1:%d", port)

	// An epoch-0 beacon names no incarnation. A worker that has never
	// joined one (minEpoch 0) may adopt it; one that served epoch 1 or
	// later must not — the beacon cannot prove it is newer than what the
	// worker already had.
	legacy, err := NewAnnouncer(target, Announcement{App: "facerec", Addr: "10.0.0.3:3"}, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = legacy.Close() }()

	if _, err := ListenSince(listenAddr, "facerec", 1, 400*time.Millisecond); err == nil {
		t.Fatal("epoch-0 beacon accepted at minEpoch 1")
	}
	got, err := ListenSince(listenAddr, "facerec", 0, 5*time.Second)
	if err != nil {
		t.Fatalf("ListenSince at minEpoch 0: %v", err)
	}
	if got.Addr != "10.0.0.3:3" || got.Epoch != 0 {
		t.Fatalf("got %+v, want the epoch-0 beacon", got)
	}
}

func TestListenSinceFiltersStaleEpochs(t *testing.T) {
	port := freeUDPPort(t)
	target := fmt.Sprintf("127.0.0.1:%d", port)

	// A zombie incarnation keeps announcing epoch 1; the live master
	// announces epoch 2. A worker that was joined to epoch 2 must never
	// be steered to the stale address.
	stale, err := NewAnnouncer(target, Announcement{App: "facerec", Addr: "10.0.0.1:1", Epoch: 1}, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stale.Close() }()

	found := make(chan Announcement, 1)
	errs := make(chan error, 1)
	go func() {
		ann, err := ListenSince(fmt.Sprintf("127.0.0.1:%d", port), "facerec", 2, 5*time.Second)
		if err != nil {
			errs <- err
			return
		}
		found <- ann
	}()
	time.Sleep(100 * time.Millisecond) // stale beacons are flowing and ignored

	live, err := NewAnnouncer(target, Announcement{App: "facerec", Addr: "10.0.0.2:2", Epoch: 2}, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = live.Close() }()

	select {
	case got := <-found:
		if got.Addr != "10.0.0.2:2" || got.Epoch != 2 {
			t.Fatalf("steered to %+v, want the live epoch-2 master", got)
		}
	case err := <-errs:
		t.Fatalf("ListenSince: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("live announcement never accepted")
	}
}
