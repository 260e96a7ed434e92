package runtime

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/obs"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/wire"
)

// startPrimary starts a journaling master with a replication listener on
// the shared mem transport. Periodic checkpoints stay disabled so the
// only checkpoints cut are the standby-attach ones.
func startPrimary(t *testing.T, mem *transport.Mem, jpath string, col *resultCollector) *Master {
	t.Helper()
	cfg := primaryConfig(t, mem, jpath)
	if col != nil {
		cfg.OnResult = col.add
	}
	m, err := StartMaster(cfg)
	if err != nil {
		t.Fatalf("StartMaster: %v", err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// primaryConfig is startPrimary's master configuration.
func primaryConfig(t *testing.T, mem *transport.Mem, jpath string) MasterConfig {
	t.Helper()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	return MasterConfig{
		App:                app,
		Policy:             routing.LRS,
		ListenAddr:         "master",
		Transport:          mem,
		JournalPath:        jpath,
		CheckpointEvery:    -1,
		Fsync:              FsyncNever,
		RetryDeadline:      5 * time.Second,
		ReplicateAddr:      "primary-rep",
		ReplicatePingEvery: 20 * time.Millisecond,
		Logger:             quietLogger(),
	}
}

// startHotStandby attaches a standby to the primary's replication
// listener. The standby's master config reuses the primary's worker
// listen address: on the mem transport a crashed primary frees it, so
// the promoted incarnation is reachable at the address every worker is
// already redialing.
func startHotStandby(t *testing.T, mem *transport.Mem, jpath string, col *resultCollector,
	takeoverAfter time.Duration) *Standby {
	t.Helper()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	cfg := MasterConfig{
		App:             app,
		Policy:          routing.LRS,
		ListenAddr:      "master",
		Transport:       mem,
		JournalPath:     jpath,
		CheckpointEvery: -1,
		Fsync:           FsyncNever,
		RetryDeadline:   5 * time.Second,
		Logger:          quietLogger(),
	}
	if col != nil {
		cfg.OnResult = col.add
	}
	sb, err := StartStandby(StandbyConfig{
		ID:            "sb1",
		PrimaryAddr:   "primary-rep",
		TakeoverAfter: takeoverAfter,
		RedialBackoff: 20 * time.Millisecond,
		Master:        cfg,
		Logger:        quietLogger(),
	})
	if err != nil {
		t.Fatalf("StartStandby: %v", err)
	}
	t.Cleanup(func() {
		_ = sb.Close()
		if m := sb.Master(); m != nil {
			_ = m.Close()
		}
	})
	return sb
}

// standbys samples the primary's replication status.
func standbys(m *Master) []obs.Standby {
	rep := m.StatusSnapshot().Replication
	if rep == nil {
		return nil
	}
	return rep.Standbys
}

// hasEvent reports whether the master's event log contains kind.
func hasEvent(m *Master, kind string) bool {
	for _, e := range m.Events() {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

// TestStandbyReplicationStream checks the replication plane without a
// failover: a standby attaches through a checkpoint, tails the journal
// to lag zero, and its mirror alone — no promotion — recovers to
// exactly the primary's durable state.
func TestStandbyReplicationStream(t *testing.T) {
	mem := transport.NewMem()
	dir := t.TempDir()
	pwal := filepath.Join(dir, "p-wal")
	swal := filepath.Join(dir, "s-wal")
	col := &resultCollector{}
	m := startPrimary(t, mem, pwal, col)
	startReconnectingWorker(t, mem, m.Addr(), "w1")
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "worker join")

	sb := startHotStandby(t, mem, swal, nil, time.Hour) // never promotes in this test
	waitFor(t, 3*time.Second, func() bool { return len(standbys(m)) == 1 }, "standby attach")
	if !hasEvent(m, obs.EventStandbyAttach) {
		t.Fatal("no standby-attach event recorded")
	}

	const n = 30
	src := apps.NewFrameSource(600, 7)
	for i := 0; i < n; i++ {
		if err := m.Submit(src.Next()); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		st := m.Stats()
		return st.Acked == n && st.InFlight == 0
	}, "batch acked")

	// The standby catches all the way up: lag 0 means every flushed batch
	// — submits and acks both — is confirmed applied in the mirror.
	waitFor(t, 3*time.Second, func() bool {
		sbs := standbys(m)
		return len(sbs) == 1 && sbs[0].Lag == 0 && sbs[0].AckedSeq > 0
	}, "standby lag zero")
	rep := m.StatusSnapshot().Replication
	if rep.Role != "primary" {
		t.Fatalf("replication role = %q, want primary", rep.Role)
	}
	if rep.Standbys[0].ID != "sb1" {
		t.Fatalf("standby id = %q, want sb1", rep.Standbys[0].ID)
	}
	if sb.Applied() == 0 {
		t.Fatal("standby applied watermark never advanced")
	}
	select {
	case <-sb.Promoted():
		t.Fatal("standby promoted while the primary was alive")
	default:
	}

	// Detach and read the mirror back through the ordinary recovery path:
	// it must reconstruct the primary's ledger exactly, with no pending
	// backlog (everything was acked) and the primary's epoch.
	_ = sb.Close()
	waitFor(t, 3*time.Second, func() bool { return len(standbys(m)) == 0 }, "standby detach")
	if !hasEvent(m, obs.EventStandbyDetach) {
		t.Fatal("no standby-detach event recorded")
	}
	rs, err := recoverState(swal, swal+".ckpt")
	if err != nil {
		t.Fatalf("recoverState over mirror: %v", err)
	}
	if rs.counters.Submitted != n || rs.counters.Acked != n {
		t.Fatalf("mirror recovered submitted/acked = %d/%d, want %d/%d",
			rs.counters.Submitted, rs.counters.Acked, n, n)
	}
	if len(rs.pending) != 0 {
		t.Fatalf("mirror recovered %d pending tuples, want 0", len(rs.pending))
	}
	if rs.prevEpoch != 1 {
		t.Fatalf("mirror epoch = %d, want 1", rs.prevEpoch)
	}
}

// TestStandbyFailoverPromotion is the headline failover scenario: eight
// workers stream under a primary with a hot standby attached, the
// primary is killed mid-stream with tuples in flight, the standby
// promotes itself within the takeover window, every worker re-adopts
// onto the bumped epoch, the journaled backlog drains, and the sink
// plays every tuple at most once across both incarnations.
func TestStandbyFailoverPromotion(t *testing.T) {
	mem := transport.NewMem()
	dir := t.TempDir()
	col1 := &resultCollector{}
	col2 := &resultCollector{}
	m1 := startPrimary(t, mem, filepath.Join(dir, "p-wal"), col1)
	if m1.Epoch() != 1 {
		t.Fatalf("fresh primary epoch = %d, want 1", m1.Epoch())
	}

	const workers = 8
	ws := make([]*Worker, workers)
	for i := range ws {
		ws[i] = startReconnectingWorker(t, mem, m1.Addr(), fmt.Sprintf("w%d", i))
	}
	waitFor(t, 3*time.Second, func() bool { return len(m1.Workers()) == workers }, "workers join")

	sb := startHotStandby(t, mem, filepath.Join(dir, "s-wal"), col2, 300*time.Millisecond)
	waitFor(t, 3*time.Second, func() bool { return len(standbys(m1)) == 1 }, "standby attach")

	// Sustained load: most of it resolves under the primary, the tail is
	// still in flight when the kill lands.
	src := apps.NewFrameSource(600, 7)
	const warm, tail = 120, 40
	for i := 0; i < warm; i++ {
		if err := m1.Submit(src.Next()); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return m1.Stats().Acked >= warm/2 }, "load in progress")
	for i := 0; i < tail; i++ {
		if err := m1.Submit(src.Next()); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	m1.Crash()
	st1 := m1.Stats()
	if !ledgerBalanced(st1) {
		t.Fatalf("primary ledger unbalanced at crash: %+v", st1)
	}

	// The standby notices the silence and takes over within the window.
	select {
	case <-sb.Promoted():
	case <-time.After(5 * time.Second):
		t.Fatal("standby did not promote after primary crash")
	}
	if err := sb.Err(); err != nil {
		t.Fatalf("promotion failed: %v", err)
	}
	m2 := sb.Master()
	if m2 == nil {
		t.Fatal("promoted standby has no master")
	}
	if m2.Epoch() != m1.Epoch()+1 {
		t.Fatalf("promoted epoch = %d, want %d", m2.Epoch(), m1.Epoch()+1)
	}
	if !hasEvent(m2, obs.EventPromoted) {
		t.Fatal("no promoted event recorded on the new incarnation")
	}

	// Every worker's ordinary reconnect loop lands on the promoted master
	// and re-adopts under the bumped epoch.
	waitFor(t, 5*time.Second, func() bool { return len(m2.Workers()) == workers }, "workers re-adopt")
	waitFor(t, 3*time.Second, func() bool {
		for _, w := range ws {
			if w.MasterEpoch() != m2.Epoch() {
				return false
			}
		}
		return true
	}, "workers see promoted epoch")
	if got := m2.Stats().Readopted; got != workers {
		t.Fatalf("Readopted = %d, want %d", got, workers)
	}

	// The mirrored backlog drains through the normal retransmit path, and
	// fresh traffic keeps flowing on the promoted incarnation.
	waitFor(t, 10*time.Second, func() bool { return m2.Stats().InFlight == 0 }, "backlog resolved")
	src.SeekTo(m2.NextSeq())
	const fresh = 30
	for i := 0; i < fresh; i++ {
		if err := m2.Submit(src.Next()); err != nil {
			t.Fatalf("Submit after failover: %v", err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return m2.Stats().InFlight == 0 }, "fresh batch resolved")
	st2 := m2.Stats()
	if !ledgerBalanced(st2) {
		t.Fatalf("post-failover ledger unbalanced: %+v", st2)
	}

	// At-most-once across the failover: semi-sync replication holds every
	// result until its ack record is mirrored, so the promoted master can
	// never replay a frame the dead primary already delivered.
	seen := make(map[uint64]int)
	for _, r := range col1.snapshot() {
		seen[r.Tuple.ID]++
	}
	for _, r := range col2.snapshot() {
		seen[r.Tuple.ID]++
	}
	for id, n := range seen {
		if n > 1 {
			t.Fatalf("tuple %d played %d times across failover", id, n)
		}
	}
}

// epochFakeMaster accepts one worker and completes the handshake
// advertising the given incarnation number, then hangs up.
func epochFakeMaster(t *testing.T, mem *transport.Mem, addr string, app *apps.App, epoch uint64) {
	t.Helper()
	ln, err := mem.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.FrameHello {
			return
		}
		db, err := wire.EncodeJSON(wire.Deploy{
			Units:             app.Graph.Operators(),
			ReportEveryMillis: 1000,
			Epoch:             epoch,
		})
		if err != nil {
			return
		}
		_ = wire.WriteFrame(conn, wire.FrameDeploy, db)
		_ = wire.WriteFrame(conn, wire.FrameStart, nil)
	}()
}

// TestZombiePrimaryFenced checks both halves of the epoch fence: a
// worker that re-adopted onto a promoted master refuses a deployment
// from the older incarnation it used to serve, and a journaling master
// refuses a worker that claims a newer incarnation than its own.
func TestZombiePrimaryFenced(t *testing.T) {
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}

	// Worker side: the zombie primary still answers its address and deploys
	// under epoch 1, but this worker has already served epoch 2.
	mem := transport.NewMem()
	epochFakeMaster(t, mem, "zombie", app, 1)
	_, err = dialSession(WorkerConfig{
		DeviceID:   "w1",
		MasterAddr: "zombie",
		App:        app,
		Transport:  mem,
	}.withDefaults(), 2)
	if !errors.Is(err, ErrStaleMaster) {
		t.Fatalf("dialSession against stale master = %v, want ErrStaleMaster", err)
	}

	// Master side: a live epoch-1 master must refuse a worker claiming
	// epoch 2 — that worker belongs to a newer incarnation, and adopting
	// it would split the swarm across a failover.
	mem2 := transport.NewMem()
	m := startRecoverableMaster(t, mem2, filepath.Join(t.TempDir(), "wal"), nil)
	conn, err := mem2.Dial(m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	hello, err := wire.EncodeJSON(wire.Hello{DeviceID: "future", App: app.Name(), Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(conn); err == nil {
		t.Fatalf("stale master answered a future-epoch worker with %v, want refusal", typ)
	}
	if len(m.Workers()) != 0 {
		t.Fatalf("stale master adopted a future-epoch worker: %v", m.Workers())
	}
}

// TestWorkerReconnectBudgetCumulative checks that brief sessions do not
// refill the reconnect budget: a link that flaps through outages each
// individually smaller than the budget still exhausts it, because the
// failed-attempt count carries across rejoins.
func TestWorkerReconnectBudgetCumulative(t *testing.T) {
	mem := transport.NewMem()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	startMaster := func() *Master {
		m, err := StartMaster(MasterConfig{
			App:        app,
			ListenAddr: "budget-master",
			Transport:  mem,
			Logger:     quietLogger(),
		})
		if err != nil {
			t.Fatalf("StartMaster: %v", err)
		}
		return m
	}
	m := startMaster()
	w, err := StartWorker(WorkerConfig{
		DeviceID:         "flappy",
		MasterAddr:       "budget-master",
		App:              app,
		Transport:        mem,
		Reconnect:        true,
		ReconnectBackoff: 10 * time.Millisecond,
		// Budget 4 with a reset window far beyond the test: every outage
		// below draws down the same budget.
		ReconnectAttempts:   4,
		ReconnectResetAfter: time.Hour,
		Logger:              quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	errCh := make(chan error, 1)
	go func() { errCh <- w.Wait() }()

	// Each cycle: kill the master, let a couple of dials fail (well under
	// the budget of 4), then bring a master back so the worker rejoins.
	// Without cumulative accounting the worker would survive indefinitely.
	for cycle := 0; cycle < 8; cycle++ {
		waitFor(t, 3*time.Second, func() bool { return len(m.Workers()) == 1 }, "worker joined")
		m.Crash()
		time.Sleep(50 * time.Millisecond)
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrReconnectExhausted) {
				t.Fatalf("Wait() = %v, want ErrReconnectExhausted", err)
			}
			return
		default:
		}
		m = startMaster()
		t.Cleanup(func() { _ = m.Close() })
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrReconnectExhausted) {
			t.Fatalf("Wait() = %v, want ErrReconnectExhausted", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("budget never exhausted: brief sessions must not refill ReconnectAttempts")
	}
}

// TestWorkerReconnectBudgetReset checks the other half of the policy: a
// session that survives ReconnectResetAfter counts as a real recovery
// and refills the budget, so a worker weathering occasional outages
// separated by long healthy stretches never falls out of the swarm.
func TestWorkerReconnectBudgetReset(t *testing.T) {
	mem := transport.NewMem()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	startMaster := func() *Master {
		m, err := StartMaster(MasterConfig{
			App:        app,
			ListenAddr: "reset-master",
			Transport:  mem,
			Logger:     quietLogger(),
		})
		if err != nil {
			t.Fatalf("StartMaster: %v", err)
		}
		return m
	}
	m := startMaster()
	w, err := StartWorker(WorkerConfig{
		DeviceID:            "steady",
		MasterAddr:          "reset-master",
		App:                 app,
		Transport:           mem,
		Reconnect:           true,
		ReconnectBackoff:    10 * time.Millisecond,
		ReconnectAttempts:   4,
		ReconnectResetAfter: 100 * time.Millisecond,
		Logger:              quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })

	// Five outages of one-to-three failed dials each — more failures in
	// total than the budget of 4 — but every rejoined session holds well
	// past ReconnectResetAfter, refilling the budget each time.
	for cycle := 0; cycle < 5; cycle++ {
		waitFor(t, 3*time.Second, func() bool { return len(m.Workers()) == 1 }, "worker joined")
		time.Sleep(250 * time.Millisecond) // session outlives the reset window
		m.Crash()
		time.Sleep(40 * time.Millisecond) // a dial failure or two
		m = startMaster()
		t.Cleanup(func() { _ = m.Close() })
	}
	waitFor(t, 3*time.Second, func() bool { return len(m.Workers()) == 1 }, "worker joined after final outage")
	if err := w.Err(); err != nil {
		t.Fatalf("worker terminal error = %v, want none (budget should have refilled)", err)
	}
}

// TestFailoverSoak hammers the failover path: a long sustained stream
// with a chain of primaries, each killed mid-load and replaced by a hot
// standby, verifying the ledger and at-most-once invariants hold across
// every hop. Gated behind SWING_SOAK=1 (see scripts/soak.sh).
func TestFailoverSoak(t *testing.T) {
	if os.Getenv("SWING_SOAK") == "" {
		t.Skip("soak test: set SWING_SOAK=1 to run")
	}
	mem := transport.NewMem()
	dir := t.TempDir()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	cols := []*resultCollector{{}}
	m := startPrimary(t, mem, filepath.Join(dir, "wal-0"), cols[0])
	const workers = 8
	ws := make([]*Worker, workers)
	for i := range ws {
		ws[i] = startReconnectingWorker(t, mem, m.Addr(), fmt.Sprintf("w%d", i))
	}
	waitFor(t, 3*time.Second, func() bool { return len(m.Workers()) == workers }, "workers join")

	src := apps.NewFrameSource(600, 7)
	const hops = 5
	for hop := 1; hop <= hops; hop++ {
		col := &resultCollector{}
		cols = append(cols, col)
		sbCfg := MasterConfig{
			App:             app,
			Policy:          routing.LRS,
			ListenAddr:      "master",
			Transport:       mem,
			JournalPath:     filepath.Join(dir, fmt.Sprintf("wal-%d", hop)),
			CheckpointEvery: -1,
			Fsync:           FsyncNever,
			RetryDeadline:   5 * time.Second,
			// The promoted master becomes the next hop's primary.
			ReplicateAddr:      "primary-rep",
			ReplicatePingEvery: 20 * time.Millisecond,
			OnResult:           col.add,
			Logger:             quietLogger(),
		}
		sb, err := StartStandby(StandbyConfig{
			ID:            fmt.Sprintf("sb%d", hop),
			PrimaryAddr:   "primary-rep",
			TakeoverAfter: 300 * time.Millisecond,
			RedialBackoff: 20 * time.Millisecond,
			Master:        sbCfg,
			Logger:        quietLogger(),
		})
		if err != nil {
			t.Fatalf("StartStandby hop %d: %v", hop, err)
		}
		waitFor(t, 3*time.Second, func() bool { return len(standbys(m)) == 1 },
			"standby attach")

		src.SeekTo(m.NextSeq())
		for i := 0; i < 100; i++ {
			if err := m.Submit(src.Next()); err != nil {
				t.Fatalf("Submit hop %d: %v", hop, err)
			}
		}
		prevAcked := m.Stats().Acked
		waitFor(t, 10*time.Second, func() bool { return m.Stats().Acked >= prevAcked+40 },
			"load in progress")
		m.Crash()

		select {
		case <-sb.Promoted():
		case <-time.After(5 * time.Second):
			t.Fatalf("hop %d: standby did not promote", hop)
		}
		if err := sb.Err(); err != nil {
			t.Fatalf("hop %d: promotion failed: %v", hop, err)
		}
		next := sb.Master()
		_ = sb.Close()
		t.Cleanup(func() { _ = next.Close() })
		if next.Epoch() != uint64(hop+1) {
			t.Fatalf("hop %d: epoch = %d, want %d", hop, next.Epoch(), hop+1)
		}
		waitFor(t, 5*time.Second, func() bool { return len(next.Workers()) == workers },
			"workers re-adopt")
		waitFor(t, 15*time.Second, func() bool { return next.Stats().InFlight == 0 },
			"backlog resolved")
		if st := next.Stats(); !ledgerBalanced(st) {
			t.Fatalf("hop %d: ledger unbalanced: %+v", hop, st)
		}
		m = next
	}

	// At-most-once across the whole chain of incarnations.
	seen := make(map[uint64]int)
	for _, col := range cols {
		for _, r := range col.snapshot() {
			seen[r.Tuple.ID]++
		}
	}
	for id, n := range seen {
		if n > 1 {
			t.Fatalf("tuple %d played %d times across the failover chain", id, n)
		}
	}
}
