package runtime

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swingframework/swing/internal/obs"
	"github.com/swingframework/swing/internal/wire"
)

// The standby side of hot-standby replication. A Standby dials the
// primary's replication listener, mirrors its durable state — the
// checkpoint image byte-for-byte, then every journal record batch the
// primary flushes, appended to one mirror journal file under the same
// generation — and arms a takeover timer on the primary's ping cadence.
// When the primary has been silent for TakeoverAfter, the standby
// promotes: it runs StartMaster over its mirror, which drives the exact
// recovery path a restarted master runs (checkpoint + journal replay,
// epoch bump to primaryEpoch+1, warm ledger and estimates, un-acked
// backlog queued for retransmission). Workers' ordinary reconnect path
// then re-adopts onto the new incarnation, and the bumped epoch fences
// out any zombie primary still limping along on the old one.
//
// The mirror is applied with the same framing the primary wrote, so
// promotion needs no special-case code: recoverState cannot tell a
// replicated mirror from a local crash's leftovers. The mirror file
// begins with a meta record the standby writes itself — the primary's
// checkpoint cut writes the journal header straight to disk, bypassing
// the flush tap, so it is deliberately absent from the stream and
// reconstructed here from the checkpoint's (epoch, generation).

// ErrStandbyClosed reports an operation on a standby after Close.
var ErrStandbyClosed = errors.New("runtime: standby closed")

// StandbyConfig configures StartStandby.
type StandbyConfig struct {
	// ID names this standby on the primary's replication plane
	// (default "standby").
	ID string
	// PrimaryAddr is the primary master's ReplicateAddr.
	PrimaryAddr string
	// TakeoverAfter is how long the primary may stay silent — no ping,
	// checkpoint or record frame — before the standby promotes itself
	// (default 2 s). Must be comfortably above the primary's
	// ReplicatePingEvery.
	TakeoverAfter time.Duration
	// RedialBackoff paces reconnection attempts to a lost primary while
	// the takeover timer runs (default 100 ms).
	RedialBackoff time.Duration
	// Master configures the master this standby becomes on promotion.
	// JournalPath is required — it is also where the mirror lives, so it
	// must not collide with the primary's own files. Transport doubles as
	// the replication dialer.
	Master MasterConfig
	// Logger defaults to the master config's logger.
	Logger *slog.Logger
}

// Standby tails a primary and promotes itself when the primary dies.
type Standby struct {
	cfg StandbyConfig

	// Mirror state, owned by the run goroutine.
	mirror     *os.File // the mirror journal file, opened on first records
	epoch      uint64
	gen        uint64
	haveCkpt   bool
	applied    atomic.Uint64 // highest applied flush-batch watermark
	primarySeq atomic.Uint64 // primary's flush watermark from the last ping
	lastHeard  atomic.Int64  // unix nanos of the last frame from the primary

	mu     sync.Mutex
	conn   net.Conn // current replication link, for Close to sever
	master *Master  // set at promotion
	err    error

	promoted  chan struct{}
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// StartStandby connects a hot standby to a primary. It returns
// immediately; replication and the takeover timer run in the
// background. Promotion is signaled on Promoted().
func StartStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.PrimaryAddr == "" {
		return nil, errors.New("runtime: standby needs PrimaryAddr")
	}
	if cfg.Master.JournalPath == "" {
		return nil, errors.New("runtime: standby needs Master.JournalPath (the mirror lives there)")
	}
	cfg.Master = cfg.Master.withDefaults()
	if cfg.ID == "" {
		cfg.ID = "standby"
	}
	if cfg.TakeoverAfter == 0 {
		cfg.TakeoverAfter = 2 * time.Second
	}
	if cfg.RedialBackoff == 0 {
		cfg.RedialBackoff = 100 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = cfg.Master.Logger
	}
	s := &Standby{
		cfg:      cfg,
		promoted: make(chan struct{}),
		stop:     make(chan struct{}),
	}
	s.wg.Add(1)
	go s.run()
	return s, nil
}

// Promoted is closed once the standby has taken over (or failed trying:
// check Err). Master() returns the promoted master afterwards.
func (s *Standby) Promoted() <-chan struct{} { return s.promoted }

// Master returns the promoted master, nil before promotion or if
// promotion failed.
func (s *Standby) Master() *Master {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.master
}

// Err reports a failed promotion, nil otherwise.
func (s *Standby) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Applied returns the highest flush-batch watermark the standby has
// applied to its mirror in the current replication session.
func (s *Standby) Applied() uint64 { return s.applied.Load() }

// Close stops replication and releases the mirror files. It does NOT
// close a promoted master — ownership of that passed to the caller via
// Master().
func (s *Standby) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.mu.Lock()
		if s.conn != nil {
			_ = s.conn.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	return nil
}

// run is the standby's life: dial, tail, and — once the primary has
// been silent past the takeover window — promote.
func (s *Standby) run() {
	defer s.wg.Done()
	defer s.closeMirror()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		if s.shouldPromote() {
			s.promote()
			return
		}
		conn, err := s.cfg.Master.Transport.Dial(s.cfg.PrimaryAddr)
		if err != nil {
			if !s.sleep(s.cfg.RedialBackoff) {
				return
			}
			continue
		}
		s.serve(conn)
	}
}

// shouldPromote reports whether the primary has been silent past the
// takeover window. A standby that never heard from a primary at all
// keeps dialing forever: it has no mirror to promote from, and
// promoting cold would restart the epoch sequence and break fencing.
func (s *Standby) shouldPromote() bool {
	last := s.lastHeard.Load()
	return s.haveCkpt && last != 0 &&
		time.Since(time.Unix(0, last)) > s.cfg.TakeoverAfter
}

// sleep waits d or until Close; it reports false when closing.
func (s *Standby) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.stop:
		return false
	}
}

// serve runs one replication session: hello, then the apply loop. Every
// read is bounded by TakeoverAfter, so a zombie primary that keeps the
// TCP link open but stops sending still trips the takeover timer.
func (s *Standby) serve(conn net.Conn) {
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.conn = nil
		s.mu.Unlock()
		_ = conn.Close()
	}()

	hello, err := wire.EncodeJSON(wire.RepHello{StandbyID: s.cfg.ID, App: s.cfg.Master.App.Name()})
	if err != nil {
		return
	}
	if err := wire.WriteFrame(conn, wire.FrameRepHello, hello); err != nil {
		return
	}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.TakeoverAfter))
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		s.lastHeard.Store(time.Now().UnixNano())
		switch typ {
		case wire.FrameRepCheckpoint:
			ck, err := wire.DecodeRepCheckpoint(payload)
			if err != nil {
				s.cfg.Logger.Warn("swing standby: bad checkpoint frame", "err", err)
				return
			}
			if err := s.resetMirror(ck); err != nil {
				s.cfg.Logger.Warn("swing standby: reset mirror", "err", err)
				return
			}
			s.cfg.Logger.Info("swing standby: checkpoint applied",
				"epoch", ck.Epoch, "generation", ck.Generation, "bytes", len(ck.Data))
		case wire.FrameRepRecords:
			rr, err := wire.DecodeRepRecords(payload)
			if err != nil {
				s.cfg.Logger.Warn("swing standby: bad records frame", "err", err)
				return
			}
			if !s.haveCkpt {
				// Records before the base image would replay against the
				// wrong generation; the primary never sends them, so this
				// is a protocol breach worth a resync.
				s.cfg.Logger.Warn("swing standby: records before checkpoint, resyncing")
				return
			}
			if err := s.applyRecords(rr); err != nil {
				s.cfg.Logger.Warn("swing standby: apply records", "err", err)
				return
			}
			// Ack every applied batch immediately, not just on pings: the
			// primary's sink holds results until the ack record is
			// mirrored, so ack latency is sink latency.
			ack := wire.AppendRepSeq(make([]byte, 0, 8), s.applied.Load())
			if err := wire.WriteFrame(conn, wire.FrameRepAck, ack); err != nil {
				return
			}
		case wire.FrameRepPing:
			if seq, err := wire.DecodeRepSeq(payload); err == nil {
				s.primarySeq.Store(seq)
			}
			ack := wire.AppendRepSeq(make([]byte, 0, 8), s.applied.Load())
			if err := wire.WriteFrame(conn, wire.FrameRepAck, ack); err != nil {
				return
			}
		}
	}
}

// resetMirror replaces the whole mirror with a fresh checkpoint image:
// journal files from the previous sync are deleted, the checkpoint body
// is installed byte-for-byte, and subsequent record batches append
// against the new generation.
func (s *Standby) resetMirror(ck wire.RepCheckpoint) error {
	s.closeMirror()
	for _, f := range journalFiles(s.cfg.Master.JournalPath) {
		if err := os.Remove(f.path); err != nil {
			return fmt.Errorf("runtime: clear mirror journal: %w", err)
		}
	}
	if err := saveCheckpointBytes(s.cfg.Master.CheckpointPath, ck.Data); err != nil {
		return err
	}
	s.epoch = ck.Epoch
	s.gen = ck.Generation
	s.haveCkpt = true
	// The watermark restarts with the stream: a resync (or a new primary
	// incarnation) numbers its flushes from the checkpoint base again.
	s.applied.Store(0)
	return nil
}

// applyRecords appends one flushed batch to the mirror journal file,
// creating the file — with the meta record recoverState expects at the
// head of every generation — on first touch.
func (s *Standby) applyRecords(rr wire.RepRecords) error {
	if s.mirror == nil {
		f, err := os.OpenFile(s.cfg.Master.JournalPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("runtime: open mirror journal: %w", err)
		}
		if _, err := f.Write(encodeJournalRecord(recMeta, metaPayload(s.epoch, s.gen))); err != nil {
			_ = f.Close()
			return fmt.Errorf("runtime: write mirror meta: %w", err)
		}
		s.mirror = f
	}
	if _, err := s.mirror.Write(rr.Data); err != nil {
		return fmt.Errorf("runtime: append mirror journal: %w", err)
	}
	if rr.Seq > s.applied.Load() {
		s.applied.Store(rr.Seq)
	}
	return nil
}

// closeMirror releases the mirror journal file handle.
func (s *Standby) closeMirror() {
	if s.mirror != nil {
		_ = s.mirror.Close()
		s.mirror = nil
	}
}

// promote turns the mirror into a live master: StartMaster runs the
// ordinary crash-recovery path over the mirrored checkpoint and journal
// — bumping the epoch past the dead primary's, warming the ledger and
// estimates, queueing the un-acked backlog — and starts listening for
// workers. The epoch bump is the fence: a zombie primary's old epoch is
// refused by workers that have re-adopted, and stale workers dialing
// the zombie are refused by it in turn once they carry the new epoch.
func (s *Standby) promote() {
	s.closeMirror()
	s.cfg.Logger.Info("swing standby: primary silent, promoting",
		"standby", s.cfg.ID, "takeover_after", s.cfg.TakeoverAfter,
		"applied_seq", s.applied.Load())
	m, err := StartMaster(s.cfg.Master)
	s.mu.Lock()
	if err != nil {
		s.err = fmt.Errorf("runtime: standby promotion: %w", err)
	} else {
		s.master = m
	}
	s.mu.Unlock()
	if err == nil {
		m.events.Record(obs.EventPromoted, s.cfg.ID,
			fmt.Sprintf("standby promoted to epoch %d", m.Epoch()), 0)
		s.cfg.Logger.Info("swing standby: promoted",
			"standby", s.cfg.ID, "epoch", m.Epoch(), "addr", m.Addr())
	} else {
		s.cfg.Logger.Error("swing standby: promotion failed", "err", err)
	}
	close(s.promoted)
}
