package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventLogRingWraps(t *testing.T) {
	l := NewEventLog(16)
	for i := 0; i < 40; i++ {
		l.Record(EventShed, "", fmt.Sprintf("burst-%d", i), int64(i))
	}
	if got := l.Total(); got != 40 {
		t.Fatalf("Total = %d, want 40", got)
	}
	evs := l.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want ring capacity 16", len(evs))
	}
	for i, e := range evs {
		want := uint64(25 + i) // oldest retained is seq 25 (40-16+1)
		if e.Seq != want {
			t.Fatalf("event %d: seq %d, want %d", i, e.Seq, want)
		}
		if e.At.IsZero() {
			t.Fatalf("event %d: zero timestamp", i)
		}
	}
}

func TestEventLogConcurrent(t *testing.T) {
	l := NewEventLog(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Record(EventWorkerJoin, "w", "", 0)
				l.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := l.Total(); got != 1600 {
		t.Fatalf("Total = %d, want 1600", got)
	}
}

func testSnapshot() Snapshot {
	s := Snapshot{
		TakenAt:      time.Now(),
		UptimeMillis: 1234,
		Epoch:        2,
		Ledger: Ledger{
			Counters: Counters{Submitted: 100, Acked: 90, Shed: 5},
			InFlight: 4, Retransmitting: 1,
		},
		Routing: Routing{Policy: "LRS", ProbeBudget: 3, Probing: true},
		Workers: []Worker{{
			ID: "B", Health: "healthy", Breaker: "closed", Selected: true,
			Weight: 0.75, LatencyMillis: 12.5, Samples: 42,
		}},
		Journal: &Journal{Records: 10, Bytes: 640},
	}
	s.Ledger.Balanced = s.Ledger.CheckBalance()
	return s
}

func TestLedgerCheckBalance(t *testing.T) {
	l := Ledger{Counters: Counters{Submitted: 10, Acked: 6, Shed: 2}, InFlight: 1, Retransmitting: 1}
	if !l.CheckBalance() {
		t.Fatal("balanced ledger reported unbalanced")
	}
	l.Acked++
	if l.CheckBalance() {
		t.Fatal("unbalanced ledger reported balanced")
	}
}

func TestServerEndpoints(t *testing.T) {
	events := NewEventLog(16)
	events.Record(EventEvicted, "C", "silence 800ms", 0)
	srv, err := Serve("127.0.0.1:0", testSnapshot, events)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	if body, ct := get("/statusz"); !strings.Contains(ct, "text/html") ||
		!strings.Contains(body, "Swing master") || !strings.Contains(body, "worker-evicted") {
		t.Fatalf("dashboard: ct=%q body=%.120q", ct, body)
	}
	for _, path := range []string{"/statusz?format=json", "/status.json"} {
		body, ct := get(path)
		if !strings.Contains(ct, "application/json") {
			t.Fatalf("%s content-type = %q", path, ct)
		}
		var snap Snapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if snap.Ledger.Submitted != 100 || !snap.Ledger.Balanced || !snap.Ledger.CheckBalance() {
			t.Fatalf("%s: bad ledger %+v", path, snap.Ledger)
		}
		if len(snap.Workers) != 1 || snap.Workers[0].ID != "B" {
			t.Fatalf("%s: bad workers %+v", path, snap.Workers)
		}
	}
	body, _ := get("/events")
	var evs []Event
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != EventEvicted || evs[0].Worker != "C" {
		t.Fatalf("events = %+v", evs)
	}
	// Accept-header negotiation on /statusz.
	req, _ := http.NewRequest("GET", base+"/statusz", nil)
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("Accept negotiation gave %q", ct)
	}
}
