package runtime

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/testutil"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
)

// fileEvent is one write or sync of a journal file, in the order they
// happened across files. file numbers the files in the order the
// journal opened them; written is the bytes written to that file when
// the event happened, so a sync covers every write up to it.
type fileEvent struct {
	sync    bool
	file    int
	written int64
}

// fileLog opens the journal's files (its create function) and records
// every write and completed sync of them. A test may hold one file's
// syncs on a gate or make every sync fail.
type fileLog struct {
	mu       sync.Mutex
	events   []fileEvent
	opened   int
	gateFile int           // whose syncs wait for gate (-1: none)
	gate     chan struct{} // closed to let held syncs through
	held     chan int      // receives a file number as its sync is held
	syncErr  error         // when set, every sync fails with it
}

func newFileLog() *fileLog {
	return &fileLog{gateFile: -1, held: make(chan int, 1)}
}

func (l *fileLog) create(path string) (logFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.opened++
	return &recFile{File: f, log: l, id: l.opened - 1}, nil
}

// holdSyncs makes every later sync of file wait until release is
// called; the test's cleanup releases it too.
func (l *fileLog) holdSyncs(t *testing.T, file int) (release func()) {
	gate := make(chan struct{})
	l.mu.Lock()
	l.gateFile, l.gate = file, gate
	l.mu.Unlock()
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

func (l *fileLog) failSyncs(err error) {
	l.mu.Lock()
	l.syncErr = err
	l.mu.Unlock()
}

func (l *fileLog) snapshot() []fileEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]fileEvent(nil), l.events...)
}

// firstSync returns the index of file's first sync in events, or -1.
func firstSync(events []fileEvent, file int) int {
	for i := range events {
		if events[i].sync && events[i].file == file {
			return i
		}
	}
	return -1
}

type recFile struct {
	*os.File
	log     *fileLog
	id      int
	written int64 // guarded by log.mu
}

func (f *recFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.log.mu.Lock()
	f.written += int64(n)
	f.log.events = append(f.log.events, fileEvent{file: f.id, written: f.written})
	f.log.mu.Unlock()
	return n, err
}

func (f *recFile) Sync() error {
	l := f.log
	l.mu.Lock()
	var gate chan struct{}
	if l.gateFile == f.id {
		gate = l.gate
	}
	written, failErr := f.written, l.syncErr
	l.mu.Unlock()
	if gate != nil {
		select {
		case l.held <- f.id:
		default:
		}
		<-gate
	}
	if failErr != nil {
		return failErr
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	l.mu.Lock()
	l.events = append(l.events, fileEvent{sync: true, file: f.id, written: written})
	l.mu.Unlock()
	return nil
}

// openLoggedJournal opens an FsyncInterval journal over a fileLog.
func openLoggedJournal(t *testing.T, every time.Duration) (*journal, *fileLog) {
	t.Helper()
	log := newFileLog()
	j, err := openJournalWith(log.create, filepath.Join(t.TempDir(), "wal"), 1, 1, FsyncInterval, every)
	if err != nil {
		t.Fatal(err)
	}
	// Registered before any holdSyncs, so its cleanup releases a held
	// sync before this one joins the syncer.
	t.Cleanup(func() { _ = j.close() })
	return j, log
}

func frameTuples(ids ...uint64) []*tuple.Tuple {
	ts := make([]*tuple.Tuple, len(ids))
	for i, id := range ids {
		ts[i] = frameTuple(id)
	}
	return ts
}

// waitHeld waits for a sync to reach the gate of holdSyncs.
func waitHeld(t *testing.T, log *fileLog) int {
	t.Helper()
	select {
	case file := <-log.held:
		return file
	case <-time.After(5 * time.Second):
		t.Fatal("no sync reached the gate")
		return -1
	}
}

// TestJournalAppendsReturnWhileSyncBlocked: under FsyncInterval the
// journal's syncer syncs beside the group commit, so a sync the disk
// holds up holds up no append — neither a dispatch round nor a result
// frame's acks. Closing stops and joins the syncer.
func TestJournalAppendsReturnWhileSyncBlocked(t *testing.T) {
	baseline := testutil.LeakBaseline()
	j, log := openLoggedJournal(t, time.Millisecond)
	release := log.holdSyncs(t, 0)
	waitHeld(t, log)

	done := make(chan error, 1)
	go func() {
		if err := j.appendRound(frameTuples(1, 2, 3), 0, nil); err != nil {
			done <- err
			return
		}
		done <- j.appendAckBatch([]uint64{1, 2})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("appends waited for a sync in flight")
	}

	release()
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	testutil.CheckLeaked(t, baseline, 5*time.Second)
}

// TestJournalFailedSyncBreaksAppends: a failed interval sync breaks the
// journal as a failed inline sync did — every later append reports it.
func TestJournalFailedSyncBreaksAppends(t *testing.T) {
	j, log := openLoggedJournal(t, time.Millisecond)
	injected := errors.New("injected sync failure")
	log.failSyncs(injected)
	var err error
	waitFor(t, 5*time.Second, func() bool {
		err = j.appendAckBatch([]uint64{1})
		return err != nil
	}, "an append failing after the failed sync")
	if !errors.Is(err, injected) {
		t.Fatalf("append error %v, want the sync failure", err)
	}
	if err := j.appendRound(frameTuples(2), 0, nil); !errors.Is(err, injected) {
		t.Fatalf("later append error %v, want the sync failure", err)
	}
}

// TestJournalIntervalSyncCoversAppends: with FsyncEvery at 5 ms, the
// records appended before a point are synced soon after it — no call
// beyond the appends themselves is needed.
func TestJournalIntervalSyncCoversAppends(t *testing.T) {
	j, log := openLoggedJournal(t, 5*time.Millisecond)
	for i := uint64(1); i <= 3; i++ {
		if err := j.appendRound(frameTuples(i), 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := j.appendAckBatch([]uint64{i}); err != nil {
			t.Fatal(err)
		}
		events := log.snapshot()
		written := events[len(events)-1].written
		waitFor(t, 5*time.Second, func() bool {
			for _, e := range log.snapshot() {
				if e.sync && e.written >= written {
					return true
				}
			}
			return false
		}, "a sync covering the appended records")
	}
	if took, at := j.lastIntervalSync(); at.IsZero() || took <= 0 {
		t.Fatalf("lastIntervalSync = %v at %v after interval syncs", took, at)
	}
}

// TestSetAsideSyncedBeforeNextGeneration drives the master's checkpoint
// cycle over a fileLog: the file a cut sets aside is synced before
// retire deletes anything and before the next generation's first sync,
// so durable state stays a prefix of the append order across the cut.
// The sync runs after the cut released the journal lock: appends go on
// while it is held up.
func TestSetAsideSyncedBeforeNextGeneration(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "wal")
	m, err := StartMaster(MasterConfig{
		App:             benchApp(t),
		ListenAddr:      "master",
		Transport:       transport.NewMem(),
		JournalPath:     jpath,
		CheckpointEvery: -1,
		Fsync:           FsyncInterval,
		FsyncEvery:      time.Millisecond,
		Logger:          quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Crash)
	log := newFileLog()
	m.journal.mu.Lock()
	m.journal.create = log.create
	m.journal.mu.Unlock()

	// The first cut opens file 0 as the live generation.
	if err := m.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	aside := setAsidePath(jpath, m.generation.Load())
	if err := m.journal.appendRound(frameTuples(1, 2), 0, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return firstSync(log.snapshot(), 0) >= 0 }, "file 0 synced while live")

	// The second cut sets file 0 aside and opens file 1. Hold file 0's
	// syncs: the one after the cut must come before file 1's first.
	release := log.holdSyncs(t, 0)
	gen := m.generation.Load()
	cut := make(chan error, 1)
	go func() { cut <- m.checkpointNow() }()
	waitHeld(t, log)
	waitFor(t, 5*time.Second, func() bool { return m.generation.Load() == gen+1 }, "second cut")
	if err := m.journal.appendAckBatch([]uint64{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-cut:
		t.Fatalf("checkpoint cycle returned (%v) with the set-aside file's sync held", err)
	default:
	}
	if _, err := os.Stat(aside); err != nil {
		t.Fatalf("set-aside file retired before its sync: %v", err)
	}
	if firstSync(log.snapshot(), 1) >= 0 {
		t.Fatal("next generation synced before the set-aside file")
	}

	release()
	if err := <-cut; err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(aside); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("set-aside file not retired after the cycle: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return firstSync(log.snapshot(), 1) >= 0 }, "file 1 synced")
	events := log.snapshot()
	var asideWritten int64
	for _, e := range events {
		if !e.sync && e.file == 0 {
			asideWritten = e.written
		}
	}
	next := firstSync(events, 1)
	covered := false
	for _, e := range events[:next] {
		covered = covered || (e.sync && e.file == 0 && e.written == asideWritten)
	}
	if !covered {
		t.Fatalf("no sync of the set-aside file's %d bytes before file 1's first sync: %+v", asideWritten, events)
	}
}
