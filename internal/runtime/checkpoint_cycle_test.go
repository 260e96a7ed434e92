package runtime

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/obs"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
)

// jop is one lifecycle record for a hand-built journal file.
type jop struct {
	typ journalRecType
	id  uint64
}

func submitOp(id uint64) jop { return jop{recSubmit, id} }
func resendOp(id uint64) jop { return jop{recResend, id} }
func ackOp(id uint64) jop    { return jop{recAck, id} }
func shedOp(id uint64) jop   { return jop{recShed, id} }

// writeJournalFile writes one journal file at path holding generation
// gen. A resend record raises its tuple to attempt 1.
func writeJournalFile(t *testing.T, path string, epoch, gen uint64, ops ...jop) {
	t.Helper()
	j, err := openJournal(path, epoch, gen, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		switch op.typ {
		case recSubmit:
			err = j.appendSubmit(frameTuple(op.id))
		case recResend:
			err = j.appendResend(op.id, 1)
		case recAck:
			err = j.appendAck(op.id)
		case recShed:
			err = j.appendShed(op.id, false)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
}

// sortedIDs returns a map's keys in ascending order.
func sortedIDs[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// asideFiles lists the set-aside journal files on disk for path.
func asideFiles(path string) []string {
	var out []string
	for _, f := range journalFiles(path) {
		if f.aside {
			out = append(out, f.path)
		}
	}
	return out
}

func TestParseJournalName(t *testing.T) {
	const base = "/d/wal"
	cases := []struct {
		name string
		ok   bool
		gen  uint64
	}{
		{base + ".g7", true, 7},
		{base + ".g0", true, 0},
		{base + ".g", false, 0},
		{base + ".g7.tmp", false, 0},
		{base + ".ckpt", false, 0},
		{base + ".ckpt.tmp", false, 0},
		{base + ".tmp", false, 0},
		{base + ".gx", false, 0},
	}
	for _, c := range cases {
		gen, ok := parseJournalName(base, c.name)
		if ok != c.ok {
			t.Errorf("%s: ok = %v, want %v", c.name, ok, c.ok)
			continue
		}
		if ok && gen != c.gen {
			t.Errorf("%s: got gen=%d, want %d", c.name, gen, c.gen)
		}
	}
}

// TestSetAsideFromStrandedName: a failed cut whose rename back also
// failed leaves the journal writing under its set-aside name with no
// live file. The next cut must start from there — not fail on the
// missing live path forever — and every record must stay in the file of
// the generation it was written in.
func TestSetAsideFromStrandedName(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, err := openJournal(path, 1, 3, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.appendSubmit(frameTuple(1)); err != nil {
		t.Fatal(err)
	}
	stranded := setAsidePath(path, 3)
	if err := os.Rename(path, stranded); err != nil {
		t.Fatal(err)
	}
	j.cur = stranded
	if err := j.appendSubmit(frameTuple(2)); err != nil {
		t.Fatal(err)
	}

	for gen := uint64(4); gen <= 5; gen++ {
		j.mu.Lock()
		err := j.setAsideLocked(1, gen)
		j.mu.Unlock()
		if err != nil {
			t.Fatalf("cut to generation %d: %v", gen, err)
		}
		if err := j.closeAside(); err != nil {
			t.Fatal(err)
		}
		if err := j.appendSubmit(frameTuple(gen)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	want := map[string]struct {
		gen uint64
		ids []uint64
	}{
		stranded:              {3, []uint64{1, 2}},
		setAsidePath(path, 4): {4, []uint64{4}},
		path:                  {5, []uint64{5}},
	}
	if got := len(journalFiles(path)); got != len(want) {
		t.Fatalf("%d journal files on disk, want %d", got, len(want))
	}
	for p, w := range want {
		gen, recs, _ := readJournalFile(t, p)
		var ids []uint64
		for _, r := range recs {
			tp, err := tuple.Unmarshal(r.payload)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, tp.ID)
		}
		if gen != w.gen || fmt.Sprint(ids) != fmt.Sprint(w.ids) {
			t.Errorf("%s: generation %d tuples %v, want %d %v",
				filepath.Base(p), gen, ids, w.gen, w.ids)
		}
	}
}

// TestCheckpointCycleCrashPoints builds, by hand, the on-disk state each
// crash point of the checkpoint cycle can leave behind and checks that
// recovery yields the exact backlog, counters and dedup set. The base
// checkpoint is at generation 3 with tuples 1–10 submitted, 1–9 acked
// and tuple 10 pending. Each state is then handed to a restarting master: its first checkpoint must
// retire every set-aside file, and a crash right after it must recover
// to the same ledger.
func TestCheckpointCycleCrashPoints(t *testing.T) {
	const g = 3
	type file struct {
		path func(jpath string) string
		gen  uint64
		ops  []jop
	}
	live := func(p string) string { return p }
	aside := func(gen uint64) func(string) string {
		return func(p string) string { return setAsidePath(p, gen) }
	}
	cases := []struct {
		name    string
		ckptGen uint64
		// ckpt counters beyond the base: a checkpoint that already
		// folded in the set-aside generation.
		ckptSubmitted, ckptAcked int64
		ckptPending              []uint64
		files                    []file
		wantPending, wantDedup   []uint64
		wantSubmitted, wantAcked int64
		wantShed                 int64
		wantGen                  uint64
	}{
		{
			// Crash after the cut, before the new checkpoint is installed.
			name: "ckpt G, set-aside G, live G+1", ckptGen: g,
			ckptSubmitted: 10, ckptAcked: 9, ckptPending: []uint64{10},
			files: []file{
				{aside(g), g, []jop{submitOp(11), ackOp(10), submitOp(12)}},
				{live, g + 1, []jop{ackOp(11), submitOp(13), submitOp(14)}},
			},
			wantPending: []uint64{12, 13, 14}, wantDedup: []uint64{10, 11},
			wantSubmitted: 14, wantAcked: 11, wantGen: g + 1,
		},
		{
			// Crash between renaming the live file aside and creating the
			// next generation's file.
			name: "ckpt G, set-aside G, live missing", ckptGen: g,
			ckptSubmitted: 10, ckptAcked: 9, ckptPending: []uint64{10},
			files: []file{
				{aside(g), g, []jop{submitOp(11), ackOp(10), submitOp(12), submitOp(13)}},
			},
			wantPending: []uint64{11, 12, 13}, wantDedup: []uint64{10},
			wantSubmitted: 13, wantAcked: 10, wantGen: g,
		},
		{
			// Crash after the new checkpoint is installed, before retire.
			name: "ckpt G+1, leftover set-aside G", ckptGen: g + 1,
			ckptSubmitted: 12, ckptAcked: 10, ckptPending: []uint64{11, 12},
			files: []file{
				{aside(g), g, []jop{submitOp(11), ackOp(10), submitOp(12)}},
				{live, g + 1, []jop{ackOp(11)}},
			},
			wantPending: []uint64{12}, wantDedup: []uint64{11},
			wantSubmitted: 12, wantAcked: 11, wantGen: g + 1,
		},
		{
			// Two failed saves: both set-aside generations and the live
			// one replay on top of the last installed checkpoint.
			name: "ckpt G, set-aside G and G+1, live G+2", ckptGen: g,
			ckptSubmitted: 10, ckptAcked: 9, ckptPending: []uint64{10},
			files: []file{
				{aside(g), g, []jop{submitOp(11), ackOp(10), submitOp(12)}},
				{aside(g + 1), g + 1, []jop{ackOp(11), submitOp(13)}},
				{live, g + 2, []jop{shedOp(12), submitOp(15), submitOp(14)}},
			},
			wantPending: []uint64{13, 14, 15}, wantDedup: []uint64{10, 11},
			wantSubmitted: 15, wantAcked: 11, wantShed: 1, wantGen: g + 2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			jpath := filepath.Join(dir, "wal")
			cpath := jpath + ".ckpt"
			st := &checkpointState{
				Version: checkpointVersion, Epoch: 1, Generation: c.ckptGen,
				Counters: obs.Counters{Submitted: c.ckptSubmitted, Acked: c.ckptAcked},
				NextSeq:  uint64(c.ckptSubmitted) + 1,
			}
			for _, id := range c.ckptPending {
				b, err := tuple.Marshal(frameTuple(id))
				if err != nil {
					t.Fatal(err)
				}
				st.Pending = append(st.Pending, ckptPending{Tuple: b})
			}
			if err := saveCheckpoint(cpath, st); err != nil {
				t.Fatal(err)
			}
			for _, f := range c.files {
				writeJournalFile(t, f.path(jpath), 1, f.gen, f.ops...)
			}

			rs, err := recoverState(jpath, cpath)
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedIDs(rs.pending); fmt.Sprint(got) != fmt.Sprint(c.wantPending) {
				t.Errorf("pending = %v, want %v", got, c.wantPending)
			}
			if got := sortedIDs(rs.acked); fmt.Sprint(got) != fmt.Sprint(c.wantDedup) {
				t.Errorf("dedup set = %v, want %v", got, c.wantDedup)
			}
			if rs.counters.Submitted != c.wantSubmitted || rs.counters.Acked != c.wantAcked ||
				rs.counters.Shed != c.wantShed {
				t.Errorf("submitted/acked/shed = %d/%d/%d, want %d/%d/%d",
					rs.counters.Submitted, rs.counters.Acked, rs.counters.Shed,
					c.wantSubmitted, c.wantAcked, c.wantShed)
			}
			if rs.generation != c.wantGen {
				t.Errorf("generation = %d, want %d", rs.generation, c.wantGen)
			}

			// A restart folds everything into its own checkpoint and
			// retires every set-aside file; crashing right after must
			// recover the same ledger and backlog.
			m := startRecoverableMaster(t, transport.NewMem(), jpath, nil)
			if left := asideFiles(jpath); len(left) != 0 {
				t.Errorf("set-aside files left after restart: %v", left)
			}
			m.Crash()
			again, err := recoverState(jpath, cpath)
			if err != nil {
				t.Fatal(err)
			}
			if again.counters.Submitted != c.wantSubmitted || again.counters.Acked != c.wantAcked ||
				again.counters.Shed != c.wantShed {
				t.Errorf("after restart: submitted/acked/shed = %d/%d/%d, want %d/%d/%d",
					again.counters.Submitted, again.counters.Acked, again.counters.Shed,
					c.wantSubmitted, c.wantAcked, c.wantShed)
			}
			if got := sortedIDs(again.pending); fmt.Sprint(got) != fmt.Sprint(c.wantPending) {
				t.Errorf("after restart: pending = %v, want %v", got, c.wantPending)
			}
			if again.generation <= c.wantGen {
				t.Errorf("after restart: generation %d, want above %d", again.generation, c.wantGen)
			}
		})
	}
}

// submitFrames submits n frames from src and fails the test on error.
func submitFrames(t *testing.T, m *Master, src *apps.FrameSource, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := m.Submit(src.Next()); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
}

// TestFailedCheckpointSavesLoseNothing blocks checkpoint saves (the temp
// path is a directory), runs two failing cycles with traffic around
// them and crashes: recovery must count every tuple exactly once. Then,
// on the restarted master, two more failing cycles pile up set-aside
// files, and the first cycle after the obstacle is removed retires them
// all.
func TestFailedCheckpointSavesLoseNothing(t *testing.T) {
	mem := transport.NewMem()
	jpath := filepath.Join(t.TempDir(), "wal")
	cpath := jpath + ".ckpt"
	block := func() {
		if err := os.Mkdir(cpath+".tmp", 0o755); err != nil {
			t.Fatal(err)
		}
	}
	unblock := func() {
		if err := os.Remove(cpath + ".tmp"); err != nil {
			t.Fatal(err)
		}
	}
	failCycle := func(m *Master) {
		t.Helper()
		if err := m.checkpointNow(); err == nil {
			t.Fatal("checkpoint saved through a blocked temp path")
		}
	}
	resolved := func(m *Master, n int64) {
		t.Helper()
		waitFor(t, 10*time.Second, func() bool {
			st := m.Stats()
			return st.Acked+st.Shed == n && st.InFlight == 0 && st.Retransmitting == 0
		}, fmt.Sprintf("%d tuples resolved", n))
	}

	col1 := &resultCollector{}
	m1 := startRecoverableMaster(t, mem, jpath, col1)
	startReconnectingWorker(t, mem, m1.Addr(), "w1")
	waitFor(t, 2*time.Second, func() bool { return len(m1.Workers()) == 1 }, "worker join")
	src := apps.NewFrameSource(600, 7)

	submitFrames(t, m1, src, 20)
	resolved(m1, 20)
	block()
	failCycle(m1)
	submitFrames(t, m1, src, 10)
	resolved(m1, 30)
	failCycle(m1)
	submitFrames(t, m1, src, 10) // still in flight at the crash
	m1.Crash()
	st1 := m1.Stats()
	if n := len(asideFiles(jpath)); n != 2 {
		t.Fatalf("%d set-aside files after two failed cycles, want 2", n)
	}

	rs, err := recoverState(jpath, cpath)
	if err != nil {
		t.Fatal(err)
	}
	// The crash closes the journal only after every connection handler
	// drained, so the files hold the crashed incarnation's exact ledger
	// (its in-flight tail is shed when the only worker's link drops).
	if rs.counters.Submitted != 40 || st1.Submitted != 40 {
		t.Fatalf("submitted: recovered %d, crashed incarnation %d, want 40",
			rs.counters.Submitted, st1.Submitted)
	}
	if rs.counters.Acked != st1.Acked || rs.counters.Shed != st1.Shed ||
		int64(len(rs.pending)) != int64(st1.InFlight)+st1.Retransmitting {
		t.Fatalf("recovered acked/shed/pending = %d/%d/%d, crashed incarnation %d/%d/%d",
			rs.counters.Acked, rs.counters.Shed, len(rs.pending),
			st1.Acked, st1.Shed, int64(st1.InFlight)+st1.Retransmitting)
	}
	for id := range rs.pending {
		if _, ok := rs.acked[id]; ok {
			t.Fatalf("tuple %d both pending and acked", id)
		}
	}

	unblock()
	col2 := &resultCollector{}
	m2 := startRecoverableMaster(t, mem, jpath, col2)
	if st := m2.Stats(); st.Submitted != 40 || st.Recovered != int64(len(rs.pending)) || !ledgerBalanced(st) {
		t.Fatalf("restart: submitted %d recovered %d (want 40/%d), stats %+v",
			st.Submitted, st.Recovered, len(rs.pending), st)
	}
	if left := asideFiles(jpath); len(left) != 0 {
		t.Fatalf("set-aside files left after restart: %v", left)
	}
	waitFor(t, 5*time.Second, func() bool { return len(m2.Workers()) == 1 }, "worker re-adopt")
	resolved(m2, 40)

	src.SeekTo(m2.NextSeq())
	block()
	failCycle(m2)
	submitFrames(t, m2, src, 10)
	resolved(m2, 50)
	failCycle(m2)
	if n := len(asideFiles(jpath)); n != 2 {
		t.Fatalf("%d set-aside files after two failed cycles, want 2", n)
	}
	unblock()
	submitFrames(t, m2, src, 10)
	resolved(m2, 60)
	if err := m2.checkpointNow(); err != nil {
		t.Fatalf("checkpoint after unblocking: %v", err)
	}
	if left := asideFiles(jpath); len(left) != 0 {
		t.Fatalf("set-aside files left after a successful cycle: %v", left)
	}
	m2.Crash()
	st2 := m2.Stats()
	rs, err = recoverState(jpath, cpath)
	if err != nil {
		t.Fatal(err)
	}
	if rs.counters.Submitted != st2.Submitted || rs.counters.Acked != st2.Acked || len(rs.pending) != 0 {
		t.Fatalf("final recovery: submitted/acked/pending = %d/%d/%d, want %d/%d/0",
			rs.counters.Submitted, rs.counters.Acked, len(rs.pending), st2.Submitted, st2.Acked)
	}

	seen := make(map[uint64]int)
	for _, r := range append(col1.snapshot(), col2.snapshot()...) {
		if seen[r.Tuple.ID]++; seen[r.Tuple.ID] > 1 {
			t.Fatalf("tuple %d played twice across incarnations", r.Tuple.ID)
		}
	}
}

// TestCheckpointCycleConcurrencySmoke checkpoints every 5 ms under four
// concurrent SubmitBatch submitters and attaches a standby mid-run:
// every ledger poll balances, every tuple is acked, Close leaves no
// set-aside file behind, and the primary's files recover its ledger.
func TestCheckpointCycleConcurrencySmoke(t *testing.T) {
	mem := transport.NewMem()
	dir := t.TempDir()
	pwal := filepath.Join(dir, "p-wal")
	cfg := primaryConfig(t, mem, pwal)
	cfg.CheckpointEvery = 5 * time.Millisecond
	m, err := StartMaster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	for i := 0; i < 2; i++ {
		startTestWorker(t, mem, m, fmt.Sprintf("w%d", i), 1)
	}
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "workers join")
	gen0 := m.generation.Load()

	const (
		submitters = 4
		perBatch   = 8
	)
	var (
		wg, submitWG sync.WaitGroup
		polls        atomic.Int64
		batches      atomic.Int64
		nextID       atomic.Uint64
	)
	stopPolling := make(chan struct{})
	stopSubmitting := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopPolling:
				return
			default:
			}
			if st := m.Stats(); !ledgerBalanced(st) {
				t.Errorf("unbalanced ledger poll: %+v", st)
				return
			}
			polls.Add(1)
		}
	}()
	for s := 0; s < submitters; s++ {
		submitWG.Add(1)
		go func() {
			defer submitWG.Done()
			for {
				select {
				case <-stopSubmitting:
					return
				default:
				}
				batch := make([]*tuple.Tuple, perBatch)
				for i := range batch {
					batch[i] = frameTuple(nextID.Add(1))
				}
				if err := m.SubmitBatch(batch); err != nil {
					t.Errorf("SubmitBatch: %v", err)
					return
				}
				batches.Add(1)
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Traffic runs before, during and after the standby's attach
	// checkpoint.
	waitFor(t, 5*time.Second, func() bool { return batches.Load() >= 16 }, "traffic under way")
	startHotStandby(t, mem, filepath.Join(dir, "s-wal"), nil, time.Hour)
	waitFor(t, 3*time.Second, func() bool { return len(standbys(m)) == 1 }, "standby attach")
	attachedAt := batches.Load()
	waitFor(t, 5*time.Second, func() bool { return batches.Load() >= attachedAt+16 }, "traffic after attach")
	close(stopSubmitting)
	submitWG.Wait()
	total := int64(nextID.Load())
	waitFor(t, 15*time.Second, func() bool { return m.Stats().Acked == total }, "all tuples acked")
	close(stopPolling)
	wg.Wait()
	if polls.Load() == 0 {
		t.Fatal("ledger never polled")
	}
	if cycles := m.generation.Load() - gen0; cycles < 3 {
		t.Fatalf("only %d checkpoint cycles ran", cycles)
	}
	st := m.Stats()
	if st.Submitted != total || !ledgerBalanced(st) {
		t.Fatalf("final ledger: %+v", st)
	}

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if left := asideFiles(pwal); len(left) != 0 {
		t.Fatalf("set-aside files left after Close: %v", left)
	}
	rs, err := recoverState(pwal, pwal+".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if rs.counters.Submitted != total || rs.counters.Acked != total || len(rs.pending) != 0 {
		t.Fatalf("recovered submitted/acked/pending = %d/%d/%d, want %d/%d/0",
			rs.counters.Submitted, rs.counters.Acked, len(rs.pending), total, total)
	}
}

// TestStandbyAttachSurvivesFailedSave: a standby attaches inside the
// cut, before the primary saves its own checkpoint, so a failing save
// must not strand the subscriber — the standby stays attached, tails
// the journal to lag zero, and its mirror recovers the primary's ledger.
func TestStandbyAttachSurvivesFailedSave(t *testing.T) {
	mem := transport.NewMem()
	dir := t.TempDir()
	pwal := filepath.Join(dir, "p-wal")
	swal := filepath.Join(dir, "s-wal")
	m := startPrimary(t, mem, pwal, nil)
	startTestWorker(t, mem, m, "w1", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "worker join")
	if err := os.Mkdir(pwal+".ckpt.tmp", 0o755); err != nil {
		t.Fatal(err)
	}

	sb := startHotStandby(t, mem, swal, nil, time.Hour)
	waitFor(t, 3*time.Second, func() bool { return len(standbys(m)) == 1 }, "standby attach")
	const n = 20
	submitFrames(t, m, apps.NewFrameSource(600, 7), n)
	waitFor(t, 5*time.Second, func() bool {
		sbs := standbys(m)
		return m.Stats().Acked == n && len(sbs) == 1 && sbs[0].Lag == 0
	}, "standby caught up")
	if len(asideFiles(pwal)) == 0 {
		t.Fatal("the attach cut set no journal file aside")
	}

	_ = sb.Close()
	waitFor(t, 3*time.Second, func() bool { return len(standbys(m)) == 0 }, "standby detach")
	rs, err := recoverState(swal, swal+".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if rs.counters.Submitted != n || rs.counters.Acked != n || len(rs.pending) != 0 {
		t.Fatalf("mirror recovered submitted/acked/pending = %d/%d/%d, want %d/%d/0",
			rs.counters.Submitted, rs.counters.Acked, len(rs.pending), n, n)
	}
}

// TestStatusCheckpointTimings: the status snapshot reports the last
// checkpoint cycle's journal-lock hold and total time, zero before the
// first cycle, and the hold never exceeds the total.
func TestStatusCheckpointTimings(t *testing.T) {
	m := startRecoverableMaster(t, transport.NewMem(), filepath.Join(t.TempDir(), "wal"), nil)
	j := m.StatusSnapshot().Journal
	if j == nil {
		t.Fatal("journaling master reports no journal block")
	}
	if j.CheckpointHoldMicros != 0 || j.CheckpointMicros != 0 {
		t.Fatalf("timings before any cycle: hold %d µs, total %d µs", j.CheckpointHoldMicros, j.CheckpointMicros)
	}
	for i := 0; i < 100; i++ {
		if err := m.journal.appendAckBatch([]uint64{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	j = m.StatusSnapshot().Journal
	if j.CheckpointMicros <= 0 || j.CheckpointHoldMicros <= 0 {
		t.Fatalf("timings after a cycle: hold %d µs, total %d µs", j.CheckpointHoldMicros, j.CheckpointMicros)
	}
	if j.CheckpointHoldMicros > j.CheckpointMicros {
		t.Fatalf("hold %d µs exceeds the cycle's %d µs", j.CheckpointHoldMicros, j.CheckpointMicros)
	}
	raw, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"checkpoint_hold_us", "checkpoint_us"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("/status.json journal block lacks %q: %s", k, raw)
		}
	}
}

// TestCheckpointUnderTrafficLosesNothing cuts checkpoints while four
// SubmitBatch submitters feed two echo workers, then crashes the master
// and recovers from disk. Every tuple whose SubmitBatch returned nil
// must be counted Submitted in the recovered ledger, and the recovered
// ledger must balance. A tuple whose write-ahead record landed before a
// cut but which was tracked after the cut's snapshot was in neither the
// checkpoint nor the replayed journal.
func TestCheckpointUnderTrafficLosesNothing(t *testing.T) {
	mem := transport.NewMem()
	jpath := filepath.Join(t.TempDir(), "wal")
	app := benchApp(t)
	m, err := StartMaster(MasterConfig{
		App:             app,
		ListenAddr:      "master",
		Transport:       mem,
		JournalPath:     jpath,
		CheckpointEvery: -1,
		Fsync:           FsyncNever,
		RetryDeadline:   time.Minute,
		Logger:          quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Crash)
	for i := 0; i < 2; i++ {
		w, err := StartWorker(WorkerConfig{
			DeviceID: fmt.Sprintf("echo%d", i), MasterAddr: m.Addr(), App: app,
			Transport: mem, Logger: quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
	}
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "workers join")

	const (
		submitters = 4
		perBatch   = 16
		cuts       = 30
	)
	var (
		wg     sync.WaitGroup
		ok     atomic.Int64
		nextID atomic.Uint64
	)
	stop := make(chan struct{})
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]*tuple.Tuple, perBatch)
				for i := range batch {
					batch[i] = frameTuple(nextID.Add(1))
				}
				if err := m.SubmitBatch(batch); err != nil {
					t.Errorf("SubmitBatch: %v", err)
					return
				}
				ok.Add(perBatch)
			}
		}()
	}
	for i := 0; i < cuts; i++ {
		if err := m.checkpointNow(); err != nil {
			t.Error(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	m.Crash()

	rs, err := recoverState(jpath, jpath+".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	c := rs.counters
	if c.Submitted != ok.Load() {
		t.Errorf("recovered Submitted = %d, want %d successful submits", c.Submitted, ok.Load())
	}
	if c.Acked+c.Shed+int64(len(rs.pending)) != c.Submitted {
		t.Errorf("recovered ledger unbalanced: acked %d + shed %d + pending %d != submitted %d",
			c.Acked, c.Shed, len(rs.pending), c.Submitted)
	}
}

// TestCheckpointKeepsOrphanedTuples: a dead worker's backlog, taken off
// the in-flight table for retransmission, is still owed — a cut taken
// while it is in the retransmitter's hands must write it as pending, or
// a crash before the next cut leaves those tuples counted Submitted but
// never replayed. The cut writes each orphan as it was when taken, not
// as the retransmit path rewrites it afterwards.
func TestCheckpointKeepsOrphanedTuples(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "wal")
	cfg := MasterConfig{
		App:             benchApp(t),
		ListenAddr:      "master",
		Transport:       transport.NewMem(),
		JournalPath:     jpath,
		CheckpointEvery: -1,
		Fsync:           FsyncNever,
		RetryDeadline:   time.Minute,
		Logger:          quietLogger(),
	}
	m, err := StartMaster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	block := []inflightEntry{
		{t: frameTuple(1), worker: "live"},
		{t: frameTuple(2), worker: "dead"},
		{t: frameTuple(3), worker: "dead"},
	}
	m.inflight.trackSubmitBatch(block)
	taken := m.inflight.takeWorker("dead")
	if len(taken) != 2 {
		t.Fatalf("takeWorker took %d entries, want 2", len(taken))
	}
	for _, e := range taken {
		e.t.Attempt, e.t.EmitNanos = 1, 42 // the retransmit path's rewrite
	}
	if err := m.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	m.Crash()

	rs, err := recoverState(jpath, jpath+".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedIDs(rs.pending); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("recovered pending %v, want [1 2 3]", got)
	}
	for id, e := range rs.pending {
		if e.attempt != 0 || e.t.Attempt != 0 || e.t.EmitNanos != 0 {
			t.Fatalf("tuple %d recovered at attempt %d (tuple attempt %d, emit %d), want it as taken",
				id, e.attempt, e.t.Attempt, e.t.EmitNanos)
		}
	}
	c := rs.counters
	if c.Submitted != 3 || c.Acked+c.Shed+int64(len(rs.pending)) != c.Submitted {
		t.Fatalf("recovered ledger: submitted %d, acked %d, shed %d, pending %d",
			c.Submitted, c.Acked, c.Shed, len(rs.pending))
	}

	// The next incarnation replays all three and balances.
	m2, err := StartMaster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m2.Crash)
	st := m2.Stats()
	if st.Recovered != 3 || st.Submitted != 3 || st.InFlight != 3 {
		t.Fatalf("restarted master: recovered %d, submitted %d, in flight %d; want 3, 3, 3",
			st.Recovered, st.Submitted, st.InFlight)
	}
	if !ledgerBalanced(st) {
		t.Fatalf("restarted master's ledger unbalanced: %+v", st)
	}
}
