package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanKind names the call a span was recorded around.
type spanKind uint8

const (
	spanSubmit spanKind = iota
	spanSubmitBatch
	spanOnResult
	spanSnapshot
	spanStatusSnapshot
)

var spanNames = [...]string{
	spanSubmit:         "runtime.Submit",
	spanSubmitBatch:    "runtime.SubmitBatch",
	spanOnResult:       "runtime.OnResult",
	spanSnapshot:       "runtime.Snapshot",
	spanStatusSnapshot: "runtime.StatusSnapshot",
}

// onResultSampleEvery thins OnResult spans to one tuple in this many: a
// flood run plays hundreds of thousands of tuples per second, and a span
// for each would dominate the traced run's heap.
const onResultSampleEvery = 64

// span is one timed call. id identifies the op (a tuple's sequence
// number, the first sequence number of a batch, or a sample index); parent
// is the id of the span that caused it, 0 for the generator's own calls.
// Times are nanoseconds since the log's base.
type span struct {
	kind       spanKind
	id, parent uint64
	start, end int64
}

// spanLog keeps spans in a preallocated buffer and writes them out once
// the run is over. Spans beyond its capacity are counted, not kept.
type spanLog struct {
	base    time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
	// total is the summed duration of every span per kind, dropped ones
	// included.
	total [len(spanNames)]time.Duration
	count [len(spanNames)]int64
}

const spanCapacity = 1 << 18

func newSpanLog() *spanLog {
	return &spanLog{base: time.Now(), spans: make([]span, 0, spanCapacity)}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

func (l *spanLog) add(kind spanKind, id, parent uint64, start, end int64) {
	l.mu.Lock()
	l.total[kind] += time.Duration(end - start)
	l.count[kind]++
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, span{kind: kind, id: id, parent: parent, start: start, end: end})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// busy returns the summed duration and call count of one kind.
func (l *spanLog) busy(kind spanKind) (time.Duration, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total[kind], l.count[kind]
}

// write stores the spans as JSON lines in .bench_build/ under the
// working directory and returns the file's path.
func (l *spanLog) write(workload string, seed int64) (string, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	l.mu.Lock()
	for _, s := range l.spans {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			spanNames[s.kind], s.id, s.parent, s.start, s.end)
	}
	if l.dropped > 0 {
		fmt.Fprintf(w, `{"dropped_spans":%d}`+"\n", l.dropped)
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
