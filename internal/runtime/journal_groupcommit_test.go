package runtime

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"github.com/swingframework/swing/internal/tuple"
)

// TestJournalGroupCommitConcurrent hammers the journal from many
// goroutines under the strictest fsync policy: every record must
// survive, whole, in the replayable prefix — group commit may coalesce
// writes but must never reorder bytes within a record or tear one.
func TestJournalGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.journal")
	j, err := openJournal(path, 3, 1, FsyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w*perWriter + i + 1)
				tp := tuple.New(id, id)
				tp.Set("payload", tuple.String(fmt.Sprintf("w%d-%d", w, i)))
				if err := j.appendSubmit(tp); err != nil {
					t.Errorf("appendSubmit(%d): %v", id, err)
					return
				}
				// Mix in lifecycle records so batches interleave kinds.
				switch i % 3 {
				case 0:
					if err := j.appendAck(id); err != nil {
						t.Errorf("appendAck(%d): %v", id, err)
					}
				case 1:
					if err := j.appendShed(id, true); err != nil {
						t.Errorf("appendShed(%d): %v", id, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	rep, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.truncated {
		t.Fatal("clean shutdown replayed as truncated")
	}
	if rep.epoch != 3 || rep.generation != 1 {
		t.Fatalf("meta epoch=%d gen=%d", rep.epoch, rep.generation)
	}
	total := writers * perWriter
	if len(rep.submits) != total {
		t.Fatalf("replayed %d submits, want %d", len(rep.submits), total)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			id := uint64(w*perWriter + i + 1)
			tp, ok := rep.submits[id]
			if !ok {
				t.Fatalf("submit %d missing or corrupt", id)
			}
			got, err := tp.MustString("payload")
			if err != nil || got != fmt.Sprintf("w%d-%d", w, i) {
				t.Fatalf("submit %d payload %q err=%v", id, got, err)
			}
			switch i % 3 {
			case 0:
				if _, acked := rep.acked[id]; !acked {
					t.Fatalf("ack %d missing", id)
				}
			case 1:
				if overload, shed := rep.shed[id]; !shed || !overload {
					t.Fatalf("shed %d missing or wrong flag", id)
				}
			}
		}
	}
}

// TestJournalAppendAfterClose: the log refuses records once closed,
// instead of buffering them into nowhere.
func TestJournalAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.journal")
	j, err := openJournal(path, 1, 1, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	tp := tuple.New(1, 1)
	tp.Set("x", tuple.Int64(1))
	if err := j.appendSubmit(tp); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	if err := j.appendAck(1); err == nil {
		t.Fatal("append after close succeeded")
	}
	// The pre-close record is intact.
	rep, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.submits) != 1 {
		t.Fatalf("replayed %d submits, want 1", len(rep.submits))
	}
}

// TestJournalAppendVisibleBeforeClose: an append returns only after its
// records are written, so a second handle replays them while the journal
// is still open, with no flush or sync call in between.
func TestJournalAppendVisibleBeforeClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.journal")
	j, err := openJournal(path, 1, 1, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if err := j.appendAck(i); err != nil {
			t.Fatal(err)
		}
	}
	// Replay from a separate handle while the journal is still open.
	rep, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.acked) != 10 {
		t.Fatalf("replayed %d acks before close, want 10", len(rep.acked))
	}
	_ = j.close()
}
