package obs

import (
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// statusKeys is the /status.json schema: every key path a fully set
// Snapshot marshals to ("[]" marks a list element). Dashboards and
// scripts read these names, so a field rename or a change in how a
// struct is embedded must show up here as a deliberate edit.
var statusKeys = []string{
	"batch", "batch.frames", "batch.submits", "batch.tuples",
	"epoch", "events_total",
	"journal", "journal.bytes", "journal.checkpoint_hold_us", "journal.checkpoint_us",
	"journal.generation", "journal.last_sync_age_ms", "journal.last_sync_us",
	"journal.pending_bytes", "journal.records",
	"ledger", "ledger.acked", "ledger.balanced", "ledger.drop_deadlines",
	"ledger.drop_errors", "ledger.drop_panics", "ledger.evicted", "ledger.filtered",
	"ledger.hedged", "ledger.in_flight", "ledger.readopted", "ledger.recovered",
	"ledger.retransmitted", "ledger.retransmitting", "ledger.shadowed", "ledger.shed",
	"ledger.shed_overload", "ledger.shed_poison", "ledger.submitted", "ledger.worker_dropped",
	"replication", "replication.role", "replication.seq", "replication.standbys",
	"replication.standbys[]", "replication.standbys[].acked_seq", "replication.standbys[].id",
	"replication.standbys[].lag", "replication.standbys[].silence_millis",
	"routing", "routing.overloaded", "routing.policy", "routing.probe_budget", "routing.probing",
	"sink", "sink.arrived", "sink.played", "sink.skipped",
	"taken_at", "uptime_millis",
	"workers", "workers[]", "workers[].breaker", "workers[].breaker_opens",
	"workers[].deadlined", "workers[].dropped", "workers[].health", "workers[].id",
	"workers[].latency_millis", "workers[].panics", "workers[].processed",
	"workers[].processing_millis", "workers[].queue_len", "workers[].reconnects",
	"workers[].samples", "workers[].selected", "workers[].silence_millis", "workers[].weight",
}

// TestStatusSchemaKeys marshals a Snapshot with every field set — so no
// omitempty key hides — and compares its sorted key paths to statusKeys.
func TestStatusSchemaKeys(t *testing.T) {
	var snap Snapshot
	fillAll(reflect.ValueOf(&snap).Elem())
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	walkKeys(doc, "", &got)
	sort.Strings(got)
	want := slices.Clone(statusKeys)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("/status.json keys changed:\n got %q\nwant %q", got, want)
	}
}

// fillAll sets every field reachable from v to a non-zero value,
// allocating pointers and giving each slice one element.
func fillAll(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Unix(1, 0).UTC()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			fillAll(v.Field(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillAll(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillAll(v.Index(0))
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint64:
		v.SetUint(1)
	case reflect.Float64:
		v.SetFloat(1.5)
	default:
		panic("fillAll: no value for " + v.Type().String())
	}
}

// walkKeys collects the key path of every object member under prefix.
func walkKeys(doc any, prefix string, out *[]string) {
	switch d := doc.(type) {
	case map[string]any:
		for k, v := range d {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			*out = append(*out, p)
			walkKeys(v, p, out)
		}
	case []any:
		for _, v := range d {
			*out = append(*out, prefix+"[]")
			walkKeys(v, prefix+"[]", out)
		}
	}
}
