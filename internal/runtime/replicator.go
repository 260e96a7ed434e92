package runtime

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swingframework/swing/internal/obs"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/wire"
)

// The primary side of hot-standby replication: a listener beside the
// master's worker port accepts standby masters and streams the
// write-ahead journal to them live.
//
// Attach protocol. The standby opens with a FrameRepHello; the primary
// answers by cutting a fresh checkpoint — the same cycle the periodic
// checkpointer runs — and registers the subscriber inside the locked
// window of the cut, with the checkpoint image as its first queued
// frame. On this path the image is encoded inside the window (the
// periodic cycle encodes after it); saving and retiring still follow
// after the lock is released. The cut starts the journal on an empty
// file, so the subscriber needs no historical bytes: it sees
// the checkpoint base plus exactly the record batches flushed after it,
// nothing missing and nothing doubled. Records are forwarded at flush
// time (the journal tap), not append time, because records still
// buffered at a cut flush into the *next* generation — tapping the
// flush preserves the same generation boundary on the standby's mirror.
//
// Flow control is Redis-style resync-on-overflow: each subscriber has a
// bounded frame queue, and a standby too slow to drain it is dropped
// rather than allowed to backpressure the primary's group-commit path;
// it redials and re-attaches through a fresh checkpoint.
//
// Acknowledgment runs on a tap-count watermark: every flushed batch is
// stamped with a monotone flush index (tapSeq), and the standby echoes
// the highest index it has applied. Tap indices are assigned at flush
// time under r.mu, so index order equals queue order and "acked index
// ≥ N" really means every batch up to N is in the mirror.
// That exactness is what lets waitFlushed give sink delivery a
// semi-synchronous guarantee: a result is only released to the sink
// once every attached standby has mirrored the ack record, closing the
// lost-ack duplicate window a promoted standby would otherwise have.

// repQueueCap bounds a subscriber's pending frame queue. At the default
// ping cadence and flush sizes this is tens of megabytes of headroom —
// a standby that falls further behind is cut loose to resync.
const repQueueCap = 1024

// repMsg is one queued replication frame.
type repMsg struct {
	typ     wire.FrameType
	payload []byte
}

// repWriteTimeout bounds one frame write to a standby. A standby that
// stops reading stalls the write loop; the deadline converts that into
// a detach, which in turn releases any waitFlushed callers — so a hung
// standby can delay sink delivery by at most about this long.
const repWriteTimeout = time.Second

// repSub is one attached standby subscriber.
type repSub struct {
	id       string
	conn     net.Conn
	queue    chan repMsg
	ackedSeq atomic.Uint64 // highest tap index the standby has applied
	lastAck  atomic.Int64  // unix nanos of the last ack frame
	closed   sync.Once
	gone     chan struct{}
}

// replicator is the primary's replication plane: listener, subscriber
// registry, journal tap fan-out, and the liveness ping loop.
type replicator struct {
	m  *Master
	ln net.Listener

	mu     sync.Mutex
	cond   *sync.Cond // signaled when any ackedSeq advances or a sub leaves
	tapSeq uint64     // flush-batch watermark, incremented per tap under mu
	subs   map[*repSub]struct{}
	sealed bool // close() ran: no new subscribers

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// startReplicator opens the replication listener and installs the
// journal flush tap. Called from StartMaster after recovery, before any
// worker or standby traffic.
func startReplicator(m *Master) (*replicator, error) {
	ln, err := m.cfg.Transport.Listen(m.cfg.ReplicateAddr)
	if err != nil {
		return nil, err
	}
	r := &replicator{
		m:    m,
		ln:   ln,
		subs: make(map[*repSub]struct{}),
		stop: make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	m.journal.mu.Lock()
	m.journal.tap = r.fanout
	m.journal.mu.Unlock()
	r.wg.Add(2)
	go r.acceptLoop()
	go r.pingLoop()
	return r, nil
}

// fanout is the journal tap: it runs with the journal lock held, so it
// only copies the batch into one shared frame payload and enqueues it
// per subscriber — never blocking, never re-entering the journal. The tap index is assigned under r.mu after the batch
// bytes are fixed, so index order equals queue order: a standby that
// has acked index N holds every batch up to N in its mirror.
func (r *replicator) fanout(b []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tapSeq++
	if len(r.subs) == 0 {
		return
	}
	payload := wire.AppendRepRecords(make([]byte, 0, 8+len(b)), wire.RepRecords{
		Seq:  r.tapSeq,
		Data: b,
	})
	for sub := range r.subs {
		r.enqueueLocked(sub, repMsg{typ: wire.FrameRepRecords, payload: payload})
	}
}

// waitFlushed blocks until every attached standby has applied all
// batches flushed so far — the semi-synchronous half of replication.
// The sink path calls it after journaling an ack, so a result frame is
// only released once the ack record that would dedup its replay is in
// every mirror; a promoted standby then can never redeliver it. With no
// standby attached it returns immediately, and a standby that stalls is
// detached by the write deadline or queue overflow, which also releases
// waiters — the primary degrades to async rather than wedging its sink.
func (r *replicator) waitFlushed() {
	r.mu.Lock()
	defer r.mu.Unlock()
	target := r.tapSeq
	for !r.sealed {
		pending := false
		for sub := range r.subs {
			if sub.ackedSeq.Load() < target {
				pending = true
				break
			}
		}
		if !pending {
			return
		}
		r.cond.Wait()
	}
}

// enqueueLocked queues one frame, dropping the subscriber on overflow.
// The caller holds r.mu.
func (r *replicator) enqueueLocked(sub *repSub, msg repMsg) {
	select {
	case sub.queue <- msg:
	default:
		// The standby is not draining: cut it loose (it will redial and
		// resync from a fresh checkpoint) instead of stalling the queue.
		r.m.cfg.Logger.Warn("swing master: replication queue overflow, dropping standby",
			"standby", sub.id)
		sub.closed.Do(func() {
			close(sub.gone)
			_ = sub.conn.Close()
		})
	}
}

// acceptLoop admits standbys for the life of the primary.
func (r *replicator) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			select {
			case <-r.stop:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) || errors.Is(err, transport.ErrClosed) {
				return
			}
			continue
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.handleStandby(conn)
		}()
	}
}

// handleStandby runs one standby's session: hello, attach-by-checkpoint,
// then writer/reader until the link breaks or the primary stops.
func (r *replicator) handleStandby(conn net.Conn) {
	if r.m.cfg.HelloTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(r.m.cfg.HelloTimeout))
	}
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil || typ != wire.FrameRepHello {
		_ = conn.Close()
		return
	}
	var hello wire.RepHello
	if err := wire.DecodeJSON(payload, &hello); err != nil || hello.StandbyID == "" {
		_ = conn.Close()
		return
	}
	if hello.App != r.m.cfg.App.Name() {
		r.m.cfg.Logger.Warn("swing master: replication app mismatch",
			"standby", hello.StandbyID, "app", hello.App)
		_ = conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})

	sub := &repSub{
		id:    hello.StandbyID,
		conn:  conn,
		queue: make(chan repMsg, repQueueCap),
		gone:  make(chan struct{}),
	}
	sub.lastAck.Store(time.Now().UnixNano())

	// Attach inside the checkpoint's locked window: the checkpoint image
	// is the subscriber's first frame, and every record byte flushed
	// after the cut lands behind it in the queue.
	err = r.m.checkpointAnd(func(epoch, gen uint64, body []byte) {
		ck := wire.AppendRepCheckpoint(make([]byte, 0, 16+len(body)), wire.RepCheckpoint{
			Epoch:      epoch,
			Generation: gen,
			Data:       body,
		})
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.sealed {
			return
		}
		// The checkpoint covers exactly the batches tapped so far: the
		// journal is locked across this hook, so no flush is concurrent,
		// and everything already tapped was flushed to the old generation
		// the checkpoint folded in. Starting the watermark here means
		// waitFlushed never waits on bytes the standby holds as part of
		// its base image.
		sub.ackedSeq.Store(r.tapSeq)
		sub.queue <- repMsg{typ: wire.FrameRepCheckpoint, payload: ck} // cap >> 1: never blocks here
		// Record the attach before the subscriber becomes visible, so
		// anyone who sees the standby in the status also sees the event.
		r.m.events.Record(obs.EventStandbyAttach, hello.StandbyID, "replication stream attached", 0)
		r.subs[sub] = struct{}{}
	})
	// The subscriber is attached once the hook registered it. A failure
	// after that — saving or retiring the primary's own checkpoint —
	// leaves the stream intact: the standby already holds the image, and
	// the primary keeps its set-aside journal files until a later save.
	r.mu.Lock()
	_, attached := r.subs[sub]
	r.mu.Unlock()
	if err != nil {
		r.m.cfg.Logger.Warn("swing master: standby attach checkpoint failed",
			"standby", hello.StandbyID, "err", err)
	}
	if !attached {
		_ = conn.Close()
		return
	}
	r.m.cfg.Logger.Info("swing master: standby attached",
		"standby", hello.StandbyID, "addr", conn.RemoteAddr())

	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.writeLoop(sub)
	}()
	r.readLoop(sub)
	r.detach(sub, "link closed")
}

// writeLoop drains one subscriber's frame queue onto its connection.
// Each write carries a deadline: a standby that stops reading becomes a
// detach within repWriteTimeout instead of wedging waitFlushed callers.
func (r *replicator) writeLoop(sub *repSub) {
	for {
		select {
		case msg := <-sub.queue:
			_ = sub.conn.SetWriteDeadline(time.Now().Add(repWriteTimeout))
			if err := wire.WriteFrame(sub.conn, msg.typ, msg.payload); err != nil {
				sub.closed.Do(func() {
					close(sub.gone)
					_ = sub.conn.Close()
				})
				return
			}
		case <-sub.gone:
			return
		case <-r.stop:
			return
		}
	}
}

// readLoop consumes the standby's ack frames until the link breaks.
// Watermarks only ever advance: a ping echo racing a fresher batch ack
// must not regress the sub below what waitFlushed already observed.
func (r *replicator) readLoop(sub *repSub) {
	for {
		typ, payload, err := wire.ReadFrame(sub.conn)
		if err != nil {
			return
		}
		if typ == wire.FrameRepAck {
			if seq, err := wire.DecodeRepSeq(payload); err == nil {
				sub.lastAck.Store(time.Now().UnixNano())
				r.mu.Lock()
				if seq > sub.ackedSeq.Load() {
					sub.ackedSeq.Store(seq)
					r.cond.Broadcast()
				}
				r.mu.Unlock()
			}
		}
	}
}

// detach removes a subscriber and closes its connection.
func (r *replicator) detach(sub *repSub, why string) {
	r.mu.Lock()
	_, present := r.subs[sub]
	delete(r.subs, sub)
	r.cond.Broadcast()
	r.mu.Unlock()
	sub.closed.Do(func() {
		close(sub.gone)
		_ = sub.conn.Close()
	})
	if present {
		r.m.events.Record(obs.EventStandbyDetach, sub.id, why, 0)
		r.m.cfg.Logger.Info("swing master: standby detached", "standby", sub.id, "why", why)
	}
}

// pingLoop probes every subscriber with the current flush watermark;
// the standby echoes its applied watermark (lag) and uses ping silence
// to arm its takeover timer.
func (r *replicator) pingLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.m.cfg.ReplicatePingEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			r.mu.Lock()
			payload := wire.AppendRepSeq(make([]byte, 0, 8), r.tapSeq)
			for sub := range r.subs {
				r.enqueueLocked(sub, repMsg{typ: wire.FrameRepPing, payload: payload})
			}
			r.mu.Unlock()
		case <-r.stop:
			return
		}
	}
}

// status samples the replication plane for the observability snapshot.
// Seq and lag are in flushed-batch units (the tap watermark): lag 0
// means every batch the primary has flushed is in the standby's mirror.
func (r *replicator) status(now time.Time) *obs.Replication {
	rep := &obs.Replication{Role: "solo"}
	r.mu.Lock()
	rep.Seq = r.tapSeq
	for sub := range r.subs {
		acked := sub.ackedSeq.Load()
		lag := uint64(0)
		if rep.Seq > acked {
			lag = rep.Seq - acked
		}
		rep.Standbys = append(rep.Standbys, obs.Standby{
			ID:            sub.id,
			AckedSeq:      acked,
			Lag:           lag,
			SilenceMillis: (now.UnixNano() - sub.lastAck.Load()) / int64(time.Millisecond),
		})
	}
	r.mu.Unlock()
	if len(rep.Standbys) > 0 {
		rep.Role = "primary"
	}
	return rep
}

// close tears the replication plane down: listener, subscribers, loops.
func (r *replicator) close() {
	r.once.Do(func() {
		close(r.stop)
		_ = r.ln.Close()
		r.mu.Lock()
		r.sealed = true
		subs := make([]*repSub, 0, len(r.subs))
		for sub := range r.subs {
			subs = append(subs, sub)
		}
		r.subs = make(map[*repSub]struct{})
		r.cond.Broadcast()
		r.mu.Unlock()
		for _, sub := range subs {
			sub.closed.Do(func() {
				close(sub.gone)
				_ = sub.conn.Close()
			})
		}
		r.wg.Wait()
	})
}
