package obs

import (
	"encoding/json"
	"fmt"
	"html"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// Server is the observability HTTP endpoint. It serves:
//
//	/statusz       minimal HTML dashboard (auto-refreshing); with
//	               ?format=json (or an Accept: application/json header)
//	               the same Snapshot as JSON
//	/status.json   the Snapshot as JSON, always
//	/events        the retained event-log tail as JSON
//
// Every response is computed from one call to the snapshot source — the
// same function that renders the periodic status log line — so a poll
// always sees an internally consistent sample.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// ServeOption customizes the observability endpoint.
type ServeOption func(*serveConfig)

type serveConfig struct {
	pprof bool
}

// WithPprof mounts net/http/pprof's handlers under /debug/pprof/ on the
// same listener, so live soaks can be profiled (CPU, heap, block, mutex)
// against the node that is actually serving traffic. The handlers are
// registered explicitly on the endpoint's private mux — nothing leaks
// onto http.DefaultServeMux.
func WithPprof() ServeOption {
	return func(c *serveConfig) { c.pprof = true }
}

// Serve starts the endpoint on addr (host:port; :0 picks a free port).
// snapshot is invoked once per status request; events may be nil, which
// disables /events.
func Serve(addr string, snapshot func() Snapshot, events *EventLog, opts ...ServeOption) (*Server, error) {
	var sc serveConfig
	for _, o := range opts {
		o(&sc)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	if sc.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		snap := snapshot()
		if r.URL.Query().Get("format") == "json" ||
			strings.Contains(r.Header.Get("Accept"), "application/json") {
			writeJSON(w, snap)
			return
		}
		writeDashboard(w, snap, events)
	})
	mux.HandleFunc("/status.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, snapshot())
	})
	if events != nil {
		mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, events.Snapshot())
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		http.Redirect(w, r, "/statusz", http.StatusFound)
	})
	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return s, nil
}

// Addr returns the bound listen address (useful with :0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

// writeDashboard renders the minimal human dashboard: ledger, routing,
// per-worker table, recent events. Static HTML with a meta refresh — no
// scripts, so it works from curl-piped-to-browser and text browsers.
func writeDashboard(w http.ResponseWriter, s Snapshot, events *EventLog) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html><html><head><meta charset="utf-8">` +
		`<meta http-equiv="refresh" content="2">` +
		`<title>swing /statusz</title><style>` +
		`body{font:14px/1.5 monospace;margin:2em;background:#fafafa;color:#222}` +
		`table{border-collapse:collapse;margin:0 0 1.5em}` +
		`td,th{border:1px solid #ccc;padding:2px 9px;text-align:left}` +
		`th{background:#eee}` +
		`.bad{color:#b00020;font-weight:bold}.ok{color:#1a7f37}` +
		`h1{font-size:18px}h2{font-size:15px;margin-bottom:4px}` +
		`</style></head><body>`)
	fmt.Fprintf(&b, "<h1>Swing master &mdash; epoch %d, up %s</h1>", s.Epoch,
		(time.Duration(s.UptimeMillis) * time.Millisecond).Round(time.Second))

	bal, cls := "balanced", "ok"
	if !s.Ledger.Balanced {
		bal, cls = "UNBALANCED", "bad"
	}
	fmt.Fprintf(&b, `<h2>Ledger <span class="%s">(%s)</span></h2>`, cls, bal)
	b.WriteString("<table><tr><th>submitted</th><th>acked</th><th>shed</th><th>shed_overload</th>" +
		"<th>shed_poison</th><th>in_flight</th><th>retransmitting</th><th>retransmitted</th>" +
		"<th>hedged</th><th>shadowed</th><th>dropped</th><th>evicted</th><th>readopted</th><th>recovered</th></tr>")
	fmt.Fprintf(&b, "<tr><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr></table>",
		s.Ledger.Submitted, s.Ledger.Acked, s.Ledger.Shed, s.Ledger.ShedOverload,
		s.Ledger.ShedPoison, s.Ledger.InFlight, s.Ledger.Retransmitting, s.Ledger.Retransmitted,
		s.Ledger.Hedged, s.Ledger.Shadowed, s.Ledger.WorkerDropped, s.Ledger.Evicted, s.Ledger.Readopted, s.Ledger.Recovered)

	over := ""
	if s.Routing.Overloaded {
		over = ` &mdash; <span class="bad">OVERLOADED</span>`
	}
	fmt.Fprintf(&b, "<h2>Routing &mdash; %s%s</h2>", html.EscapeString(s.Routing.Policy), over)
	fmt.Fprintf(&b, "<table><tr><th>probing</th><th>probe_budget</th><th>sink arrived</th><th>played</th><th>skipped</th></tr>"+
		"<tr><td>%v</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr></table>",
		s.Routing.Probing, s.Routing.ProbeBudget, s.Sink.Arrived, s.Sink.Played, s.Sink.Skipped)

	fmt.Fprintf(&b, "<h2>Workers (%d)</h2>", len(s.Workers))
	b.WriteString("<table><tr><th>id</th><th>health</th><th>silence</th><th>breaker</th><th>opens</th>" +
		"<th>queue</th><th>processed</th><th>dropped</th><th>reconnects</th>" +
		"<th>sel</th><th>weight</th><th>latency</th><th>proc</th><th>samples</th></tr>")
	for _, wk := range s.Workers {
		hcls := "ok"
		if wk.Health != "healthy" {
			hcls = "bad"
		}
		sel := ""
		if wk.Selected {
			sel = "✓"
		}
		fmt.Fprintf(&b, `<tr><td>%s</td><td class="%s">%s</td><td>%dms</td><td>%s</td><td>%d</td>`+
			"<td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%.3f</td><td>%.1fms</td><td>%.1fms</td><td>%d</td></tr>",
			html.EscapeString(wk.ID), hcls, html.EscapeString(wk.Health), wk.SilenceMillis,
			html.EscapeString(wk.Breaker), wk.BreakerOpens, wk.QueueLen, wk.Processed,
			wk.Dropped, wk.Reconnects, sel, wk.Weight, wk.LatencyMillis, wk.ProcessingMillis, wk.Samples)
	}
	b.WriteString("</table>")

	if s.Journal != nil {
		j := s.Journal
		fmt.Fprintf(&b, "<h2>Journal</h2><table><tr><th>generation</th><th>records</th><th>bytes</th><th>pending</th><th>ckpt hold µs</th><th>ckpt µs</th><th>last sync µs</th><th>last sync age ms</th></tr>"+
			"<tr><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr></table>",
			j.Generation, j.Records, j.Bytes, j.PendingBytes, j.CheckpointHoldMicros, j.CheckpointMicros,
			j.LastSyncMicros, j.LastSyncAgeMillis)
	}

	if events != nil {
		evs := events.Snapshot()
		fmt.Fprintf(&b, "<h2>Events (%d total, last %d)</h2><table><tr><th>seq</th><th>at</th><th>kind</th><th>worker</th><th>detail</th><th>count</th></tr>",
			s.EventsTotal, len(evs))
		for i := len(evs) - 1; i >= 0; i-- {
			e := evs[i]
			fmt.Fprintf(&b, "<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td></tr>",
				e.Seq, e.At.Format("15:04:05.000"), html.EscapeString(e.Kind),
				html.EscapeString(e.Worker), html.EscapeString(e.Detail), e.Count)
		}
		b.WriteString("</table>")
	}
	b.WriteString(`<p><a href="/status.json">status.json</a> &middot; <a href="/events">events</a> &middot; <a href="/statusz?format=json">statusz?format=json</a></p></body></html>`)
	w.Write([]byte(b.String())) //nolint:errcheck
}
