package runtime

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/swingframework/swing/internal/tuple"
)

// The master's write-ahead journal (§IV-C's coordinator made crash-safe):
// one append-only file of checksummed records tracking every tuple's life —
// submitted, retransmitted, acked, shed — so a restarted master can rebuild
// the exact ledger and the un-acked backlog of its previous incarnation.
// Every record goes in under one lock and group-commits with the records
// that piled up behind it, so the file's record order is the master's
// append order and recovery replays it as written. Checkpoints
// (checkpoint.go) snapshot the full state, set the file aside as
// "<path>.g<gen>" and start the next generation at the journal path,
// bounding both replay time and file size.
//
// Record layout (all integers little-endian):
//
//	u32 payloadLen | u8 type | payload | u32 crc32c(type || payload)
//
// Every file opens with a meta record (u64 epoch | u64 generation).
// Lifecycle payloads are the marshaled tuple (submit), u64 id | u8
// attempt (resend), u64 id (ack) and u64 id | u8 overload (shed). A meta
// of any other length is a format this build does not write, and
// recovery fails on it rather than guess.
//
// The trailing checksum makes a torn tail — a partial record from a crash
// mid-append — detectable: recovery replays records until the first short
// read or checksum mismatch, then truncates the file at the last good
// offset. Everything before the tear is trusted; the tear itself is
// discarded (its tuple stays pending and is retransmitted, never lost).

// journalRecType distinguishes journal records.
type journalRecType uint8

const (
	// recMeta is the mandatory first record of every journal generation:
	// the writing incarnation's epoch and the checkpoint generation this
	// journal extends.
	recMeta journalRecType = iota + 1
	// recSubmit logs a fresh tuple entering the swarm: full tuple bytes.
	recSubmit
	// recResend logs a retransmission: tuple ID + new attempt counter.
	recResend
	// recAck logs a worker acknowledgment: tuple ID.
	recAck
	// recShed logs an abandoned tuple: tuple ID + overload flag.
	recShed
)

// maxJournalRecord bounds a record payload, protecting replay against a
// corrupt length prefix (tuples are bounded by wire.MaxFrameSize anyway).
const maxJournalRecord = 32 << 20

// journalCRC is the checksum table for record integrity (Castagnoli, the
// same polynomial storage systems use for torn-write detection).
var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// FsyncMode selects how aggressively the journal is flushed to stable
// storage. Process crashes (the common mobile case: the coordinating app
// is killed) lose nothing under any mode, because appends go straight to
// the file; fsync only buys durability against whole-machine crashes.
type FsyncMode int

const (
	// FsyncInterval (default) syncs every FsyncEvery on a syncer
	// goroutine of the journal's own, off the commit path: appends only
	// write. On power failure it loses at most the appends of the last
	// FsyncEvery plus one sync. The syncer keeps the write-back from
	// stalling every appender: on perfbench's flood-journal-tcp (about
	// 660 MB/s of journal on a 2-vCPU guest) a sync inside the group
	// commit holds p99 at 23.5 ms, the syncer at 7.3 ms (medians of 10
	// interleaved 30 s runs each). Appends still meet the write-back —
	// a write that lands on pages being written back waits for them —
	// which puts p50 3% above the inline sync's.
	FsyncInterval FsyncMode = iota
	// FsyncAlways syncs inside every group commit: zero loss window,
	// and every appender waits for the disk.
	FsyncAlways
	// FsyncNever leaves flushing to the OS.
	FsyncNever
)

// String names the mode (the -fsync flag values).
func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseFsyncMode parses a -fsync flag value.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("runtime: unknown fsync mode %q (always, interval or never)", s)
	}
}

// journal is the append side of the write-ahead log, with group commit:
// concurrent appends encode their records into a shared pending buffer
// under mu, then one appender (the leader) writes the whole batch —
// and, under FsyncAlways, syncs it — while the others wait on cond.
// Every append still returns only after its record has reached the
// file — and, under FsyncAlways, the disk — so durability semantics
// match the one-write-per-record design; the batch just amortizes the
// write and fsync across the appends that piled up behind it. Under
// FsyncInterval the leader never syncs: syncLoop does, beside it.
//
// A checkpoint cut (setAsideLocked) holds mu and waits out any in-flight
// flush, so a record is never split across generations and the file
// handle never changes under the leader's feet.
type journal struct {
	mu     sync.Mutex
	cond   *sync.Cond
	f      logFile
	create func(path string) (logFile, error) // opens each generation's file
	path   string
	cur    string // f's name on disk (see setAsideLocked), guarded by mu
	mode   FsyncMode
	every  time.Duration
	gen    uint64 // generation of the live file, guarded by mu

	// aside is the file the last cut set aside, open until closeAside
	// or the syncer syncs and closes it; guarded by mu.
	aside logFile

	// The FsyncInterval syncer. syncMu is held across each whole sync —
	// the syncer's, closeAside's and close's — so one runs at a time and
	// the handles it syncs stay open; it is taken before mu, never
	// after. syncedSeq (the flushedSeq the last sync covered), syncedAt
	// and syncTook are guarded by mu.
	syncMu    sync.Mutex
	syncStop  chan struct{}
	syncDone  chan struct{}
	syncedSeq uint64
	syncedAt  time.Time
	syncTook  time.Duration

	// Group-commit state, all guarded by mu.
	pending    []byte // encoded records awaiting the next flush
	spare      []byte // recycled batch buffer for the next swap
	appendSeq  uint64 // sequence of the most recently buffered record
	flushedSeq uint64 // sequence through which records are in the file
	flushing   bool   // a leader is writing outside the lock
	broken     error  // first flush failure; the log is unusable after
	brokenSeq  uint64 // first record sequence the failed flush covered

	// Observability depth counters (guarded by mu): records and bytes
	// appended this incarnation, cumulative across generations.
	nrecords int64
	nbytes   int64

	// tap, when set (guarded by mu), observes every batch of record
	// bytes that reached the file, in file order, immediately after a
	// successful write and with mu held. Replication streams these bytes
	// to a standby verbatim. The callback must copy what it keeps (the
	// batch buffer is recycled) and must not block or re-enter the
	// journal — it may only hand the bytes off.
	tap func(b []byte)
}

// logFile is what the journal needs of a file it writes: *os.File in
// production, a recording fake in the sync-order tests.
type logFile interface {
	Write(b []byte) (int, error)
	Sync() error
	Close() error
}

// createLogFile creates (or truncates) a journal file.
func createLogFile(path string) (logFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// encodeJournalRecord frames one record.
func encodeJournalRecord(typ journalRecType, payload []byte) []byte {
	buf := make([]byte, 0, 4+1+len(payload)+4)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, byte(typ))
	buf = append(buf, payload...)
	sum := crc32.Update(0, journalCRC, buf[4:])
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// errTornRecord marks the end of the replayable prefix: a partial or
// corrupt record where a crash interrupted an append.
var errTornRecord = errors.New("runtime: torn journal record")

// readJournalRecord reads one record from r, returning errTornRecord on a
// short read, oversized length or checksum mismatch.
func readJournalRecord(r io.Reader) (journalRecType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, errTornRecord
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxJournalRecord {
		return 0, nil, errTornRecord
	}
	body := make([]byte, 1+n+4)
	body[0] = hdr[4]
	if _, err := io.ReadFull(r, body[1:]); err != nil {
		return 0, nil, errTornRecord
	}
	sum := binary.LittleEndian.Uint32(body[1+n:])
	if crc32.Update(0, journalCRC, body[:1+n]) != sum {
		return 0, nil, errTornRecord
	}
	return journalRecType(body[0]), body[1 : 1+n], nil
}

// openJournal creates (or truncates) the journal file and writes the meta
// record for this generation. The previous generation's contents must
// already have been recovered — opening discards them. Under
// FsyncInterval it starts the journal's syncer, which close stops.
func openJournal(path string, epoch, generation uint64, mode FsyncMode, every time.Duration) (*journal, error) {
	return openJournalWith(createLogFile, path, epoch, generation, mode, every)
}

// openJournalWith is openJournal writing through create, which opens
// the first file here and the next generation's at every cut.
func openJournalWith(create func(string) (logFile, error), path string, epoch, generation uint64, mode FsyncMode, every time.Duration) (*journal, error) {
	f, err := create(path)
	if err != nil {
		return nil, fmt.Errorf("runtime: open journal: %w", err)
	}
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	j := &journal{f: f, create: create, path: path, cur: path, mode: mode, every: every, gen: generation}
	j.cond = sync.NewCond(&j.mu)
	if err := j.append(recMeta, metaPayload(epoch, generation)); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("runtime: sync journal: %w", err)
	}
	if mode == FsyncInterval {
		j.syncStop, j.syncDone = make(chan struct{}), make(chan struct{})
		go j.syncLoop()
	}
	return j, nil
}

func metaPayload(epoch, generation uint64) []byte {
	b := make([]byte, 0, 16)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	return binary.LittleEndian.AppendUint64(b, generation)
}

// reserveLocked begins a record in the pending buffer: length
// placeholder plus type byte. It returns the record's start offset for
// sealLocked.
func (j *journal) reserveLocked(typ journalRecType) (int, error) {
	if j.broken != nil {
		return 0, j.broken
	}
	start := len(j.pending)
	j.pending = append(j.pending, 0, 0, 0, 0, byte(typ))
	return start, nil
}

// sealLocked patches the record's length prefix and appends its
// checksum; the payload must already sit between reserve and seal.
func (j *journal) sealLocked(start int) {
	n := len(j.pending) - start - 5
	binary.LittleEndian.PutUint32(j.pending[start:start+4], uint32(n))
	sum := crc32.Update(0, journalCRC, j.pending[start+4:])
	j.pending = binary.LittleEndian.AppendUint32(j.pending, sum)
	j.nrecords++
	j.nbytes += int64(len(j.pending) - start)
}

// depth reports the journal's observability counters: records and bytes
// appended this incarnation, and the bytes currently buffered awaiting
// group commit.
func (j *journal) depth() (records, bytes, pending int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nrecords, j.nbytes, int64(len(j.pending))
}

// maxBatchRetain caps how large a recycled batch buffer may stay; a
// burst should not pin its high-water mark forever.
const maxBatchRetain = 4 << 20

// lastIntervalSync reports how long the last interval sync took and when it
// finished; both are zero until the syncer's first sync.
func (j *journal) lastIntervalSync() (took time.Duration, at time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncTook, j.syncedAt
}

// breakLocked fails every append from the first record not yet in the
// file on; the first failure sticks.
func (j *journal) breakLocked(err error) {
	if j.broken == nil {
		j.broken = err
		j.brokenSeq = j.flushedSeq + 1
	}
}

// commitAndUnlock implements the group-commit protocol for a record
// just sealed into pending. Exactly one appender becomes the flush
// leader: it takes the whole pending batch, writes (and under
// FsyncAlways syncs) it outside the lock, then wakes the appenders whose
// records rode along. Every caller returns only once its record is in
// the file.
func (j *journal) commitAndUnlock() error {
	j.appendSeq++
	mySeq := j.appendSeq
	for {
		// Records flushed before any failure succeeded; records in or
		// after the failing batch report the breakage.
		if j.broken != nil && mySeq >= j.brokenSeq {
			err := j.broken
			j.mu.Unlock()
			return err
		}
		if j.flushedSeq >= mySeq {
			j.mu.Unlock()
			return nil
		}
		if !j.flushing {
			j.flushing = true
			batch := j.pending
			last := j.appendSeq
			j.pending = j.spare[:0]
			j.spare = nil
			f := j.f
			j.mu.Unlock()

			var err error
			if _, werr := f.Write(batch); werr != nil {
				err = fmt.Errorf("runtime: journal append: %w", werr)
			} else if j.mode == FsyncAlways {
				if serr := f.Sync(); serr != nil {
					err = fmt.Errorf("runtime: journal sync: %w", serr)
				}
			}

			j.mu.Lock()
			j.flushing = false
			if err != nil {
				// A failed or partial batch write leaves a torn middle that
				// replay would truncate at; accepting later appends would
				// silently drop everything behind the tear. Fail the whole
				// batch and everything after it.
				j.breakLocked(err)
			}
			if err == nil && j.tap != nil && len(batch) > 0 {
				j.tap(batch)
			}
			j.flushedSeq = last
			if cap(batch) <= maxBatchRetain {
				j.spare = batch[:0]
			}
			j.cond.Broadcast()
			continue
		}
		j.cond.Wait()
	}
}

// quiesceLocked waits until no flush leader is writing outside the
// lock. The caller holds mu, so no new flush can start afterwards.
func (j *journal) quiesceLocked() {
	for j.flushing {
		j.cond.Wait()
	}
}

// flushPendingLocked writes any buffered records directly; the caller
// holds mu and must have quiesced first.
func (j *journal) flushPendingLocked() error {
	if j.broken != nil {
		return j.broken
	}
	if len(j.pending) == 0 {
		return nil
	}
	_, err := j.f.Write(j.pending)
	if err == nil && j.tap != nil {
		j.tap(j.pending)
	}
	j.pending = j.pending[:0]
	if err != nil {
		j.breakLocked(fmt.Errorf("runtime: journal append: %w", err))
	}
	j.flushedSeq = j.appendSeq
	j.cond.Broadcast()
	return j.broken
}

// append writes one record and applies the fsync policy. Callers must not
// hold master locks that appendAck/appendShed callers also take (the
// journal lock is innermost).
func (j *journal) append(typ journalRecType, payload []byte) error {
	j.mu.Lock()
	start, err := j.reserveLocked(typ)
	if err != nil {
		j.mu.Unlock()
		return err
	}
	j.pending = append(j.pending, payload...)
	j.sealLocked(start)
	return j.commitAndUnlock()
}

// appendSubmit logs a first-attempt dispatch: a round of one.
func (j *journal) appendSubmit(t *tuple.Tuple) error {
	return j.appendRound([]*tuple.Tuple{t}, 0, nil)
}

// appendRound logs one dispatch round under one lock acquisition and one
// group-commit entry. Each tuple of a first attempt (attempt 0) gets a
// submit record — the full tuple, serialized straight into the pending
// buffer, so recovery can rebuild and retransmit it — and each tuple of
// a re-dispatch a resend record carrying attempt. A tuple that fails to
// marshal is truncated back out of the buffer; the first such error is
// reported after the rest commits.
//
// track, if not nil, runs under the journal lock after the records are
// buffered and before they commit, whether or not they could be written.
// A checkpoint cut holds the same lock, so it falls before both the
// records and whatever track tracks, or after both: a tuple the cut's
// snapshot misses has its record in the next generation, and one whose
// record the cut folds away is in the snapshot.
func (j *journal) appendRound(ts []*tuple.Tuple, attempt uint8, track func()) error {
	j.mu.Lock()
	broken, sealed := j.broken, 0
	var firstErr error
	for i := 0; broken == nil && i < len(ts); i++ {
		if attempt > 0 {
			start, _ := j.reserveLocked(recResend) // cannot fail: not broken
			j.pending = append(binary.LittleEndian.AppendUint64(j.pending, ts[i].ID), attempt)
			j.sealLocked(start)
			sealed++
			continue
		}
		start, _ := j.reserveLocked(recSubmit)
		p, err := tuple.AppendMarshal(j.pending, ts[i])
		if err != nil {
			j.pending = j.pending[:start]
			firstErr = cmp.Or(firstErr, err)
			continue
		}
		j.pending = p
		j.sealLocked(start)
		sealed++
	}
	if track != nil {
		track()
	}
	if sealed == 0 {
		j.mu.Unlock()
		return cmp.Or(broken, firstErr)
	}
	if err := j.commitAndUnlock(); err != nil {
		return err
	}
	return firstErr
}

// appendResend logs a retransmission's new attempt counter.
func (j *journal) appendResend(id uint64, attempt uint8) error {
	return j.append(recResend, append(binary.LittleEndian.AppendUint64(make([]byte, 0, 9), id), attempt))
}

// appendAck logs a worker acknowledgment: a batch of one.
func (j *journal) appendAck(id uint64) error {
	return j.appendAckBatch([]uint64{id})
}

// appendAckBatch logs a batch of worker acknowledgments under one lock
// acquisition and one group-commit entry — the result-path mirror of
// appendRound. Each ack is still its own record, so replay cannot
// tell the batch from per-ack appends.
func (j *journal) appendAckBatch(ids []uint64) error {
	if len(ids) == 0 {
		return nil
	}
	j.mu.Lock()
	for _, id := range ids {
		start, err := j.reserveLocked(recAck)
		if err != nil {
			j.mu.Unlock()
			return err
		}
		j.pending = binary.LittleEndian.AppendUint64(j.pending, id)
		j.sealLocked(start)
	}
	return j.commitAndUnlock()
}

// appendShed logs an abandoned tuple; overload marks admission-control
// shedding (the ShedOverload ledger subset).
func (j *journal) appendShed(id uint64, overload bool) error {
	var flag byte
	if overload {
		flag = 1
	}
	return j.append(recShed, append(binary.LittleEndian.AppendUint64(make([]byte, 0, 9), id), flag))
}

// setAsideLocked starts the next generation: the current file is
// renamed aside to setAsidePath(path, gen) — its name carries the
// generation it holds, so no later cut overwrites it — and a fresh file
// with the new generation's meta record takes over the live path. Only
// renames and a small write happen here; the checkpointer calls it
// holding j.mu — after quiescing any in-flight group-commit flush — so
// no returned append lands in the old generation after the state
// snapshot was taken (it would double-count on recovery). Records still
// buffered in pending belong to appends that have not returned yet —
// their effects are not in the snapshot — and flush into the new
// generation, where replay applies them on top of the checkpoint.
//
// The set-aside handle stays open in j.aside until the caller, after
// releasing the lock and before the next cut, calls closeAside; the file
// stays on disk until a checkpoint at a later generation is installed:
// until then recovery still needs it. On failure the journal keeps
// writing its current file, renamed back to the live path; should even
// that rename fail, the file stays under its set-aside name (cur), where
// recovery finds it and the next cut starts.
func (j *journal) setAsideLocked(epoch, generation uint64) error {
	aside := setAsidePath(j.path, j.gen)
	if j.cur != aside {
		if err := os.Rename(j.cur, aside); err != nil {
			return fmt.Errorf("runtime: set journal aside: %w", err)
		}
		j.cur = aside
	}
	nf, err := j.create(j.path)
	if err == nil {
		if _, err = nf.Write(encodeJournalRecord(recMeta, metaPayload(epoch, generation))); err != nil {
			_ = nf.Close()
		}
	}
	if err != nil {
		// Put the current generation back under the live path; renaming
		// over a half-made new file replaces it atomically.
		if os.Rename(aside, j.path) == nil {
			j.cur = j.path
		}
		return fmt.Errorf("runtime: start journal generation: %w", err)
	}
	j.aside = j.f
	j.f = nf
	j.cur = j.path
	j.gen = generation
	return nil
}

// closeAside closes the file the last cut set aside, syncing it first
// under FsyncInterval. Its tail, written since the last interval sync,
// must be durable before any sync of a later generation: a power loss
// that kept the later records and lost the earlier ones would leave a
// hole in the log that replay cannot see. The syncer syncs the set-aside
// file first if it ticks before this runs, and a checkpoint cycle calls
// this before retire deletes anything. A failed sync breaks the journal.
// Each whole sync holds syncMu, so once closeAside returns the file is
// closed and synced, whoever did it.
func (j *journal) closeAside() error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	old := j.aside
	j.aside = nil
	j.mu.Unlock()
	return j.syncClose(old)
}

// syncClose syncs a set-aside file under FsyncInterval and closes it.
// The file stays on disk until a checkpoint covers it, so a failed
// close loses nothing recovery needs; a failed sync breaks the journal.
// The caller holds syncMu and not mu.
func (j *journal) syncClose(f logFile) error {
	if f == nil {
		return nil
	}
	var err error
	if j.mode == FsyncInterval {
		err = f.Sync()
	}
	_ = f.Close()
	return j.syncFailed(err)
}

// syncFailed breaks the journal on a failed sync, so every later append
// reports it, and returns the wrapped error; nil passes through. The
// caller does not hold mu.
func (j *journal) syncFailed(err error) error {
	if err == nil {
		return nil
	}
	err = fmt.Errorf("runtime: journal sync: %w", err)
	j.mu.Lock()
	j.breakLocked(err)
	j.mu.Unlock()
	return err
}

// syncLoop is the FsyncInterval syncer: every FsyncEvery it syncs what
// the group commit has written, so the commit leader only writes. A
// record that returned is on disk by the end of the first sync that
// starts after it returned, and syncs start at most FsyncEvery apart
// (back to back when one takes longer): the power-loss window is at
// most FsyncEvery plus one sync.
func (j *journal) syncLoop() {
	defer close(j.syncDone)
	tick := time.NewTicker(j.every)
	defer tick.Stop()
	for {
		select {
		case <-j.syncStop:
			return
		case <-tick.C:
			j.syncNow()
		}
	}
}

// syncNow syncs the set-aside file, if a cut left one open, then the
// live file, holding syncMu but not mu: appends keep committing while
// the disk writes back. It skips a broken journal, and an idle one:
// nothing written since the last sync.
func (j *journal) syncNow() {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	f, aside, seq := j.f, j.aside, j.flushedSeq
	if j.broken != nil || (aside == nil && seq == j.syncedSeq) {
		j.mu.Unlock()
		return
	}
	j.aside = nil
	j.mu.Unlock()

	start := time.Now()
	if j.syncClose(aside) != nil || j.syncFailed(f.Sync()) != nil {
		return
	}
	end := time.Now()
	j.mu.Lock()
	j.syncedSeq, j.syncedAt, j.syncTook = seq, end, end.Sub(start)
	j.mu.Unlock()
}

// close stops the syncer, then flushes, syncs and closes the journal
// file. Later appends fail.
func (j *journal) close() error {
	if j.syncStop != nil {
		close(j.syncStop)
		<-j.syncDone
		j.syncStop = nil
	}
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.quiesceLocked()
	ferr := j.flushPendingLocked()
	_ = j.f.Sync()
	cerr := j.f.Close()
	if j.broken == nil {
		// Only appends after the close fail; everything buffered so far
		// was just flushed.
		j.broken = errors.New("runtime: journal closed")
		j.brokenSeq = j.appendSeq + 1
		j.cond.Broadcast()
	}
	if ferr != nil {
		return ferr
	}
	return cerr
}

// retire deletes every set-aside file whose generation is below gen.
// The checkpointer calls it only once a checkpoint at gen is installed:
// recovery then gates those files out, so they hold nothing it needs.
// Deleting a large file frees its blocks, which is why this runs
// outside the journal lock.
func (j *journal) retire(gen uint64) {
	for _, f := range journalFiles(j.path) {
		if f.aside && f.gen < gen {
			_ = os.Remove(f.path)
		}
	}
}

// setAsidePath names the journal file set aside at a checkpoint cut
// while it held generation gen.
func setAsidePath(path string, gen uint64) string {
	return fmt.Sprintf("%s.g%d", path, gen)
}

// journalFile is one journal file found on disk: the live file, or
// (aside) one set aside at generation gen.
type journalFile struct {
	path  string
	aside bool
	gen   uint64
}

// journalFiles lists the journal files of path that exist on disk in
// replay order: set-aside generations, oldest first, then the live file.
// A set-aside file is found even when the live file is missing (a crash
// between the rename and the new file's creation).
func journalFiles(path string) []journalFile {
	var out []journalFile
	matches, _ := filepath.Glob(path + ".g*")
	for _, p := range matches {
		if gen, ok := parseJournalName(path, p); ok {
			out = append(out, journalFile{path: p, aside: true, gen: gen})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].gen < out[b].gen })
	if _, err := os.Stat(path); err == nil {
		out = append(out, journalFile{path: path})
	}
	return out
}

// parseJournalName recognizes p as "<path>.g<gen>", a file set aside at a
// checkpoint cut. Anything else beside the journal — the checkpoint,
// ".tmp" leftovers — is not a journal file.
func parseJournalName(path, p string) (uint64, bool) {
	r, ok := strings.CutPrefix(p, path+".g")
	if !ok {
		return 0, false
	}
	gen, err := strconv.ParseUint(r, 10, 64)
	return gen, err == nil
}

// journalReplay is the lifecycle view recovery reads back from the
// journal files at or above the checkpoint's generation.
type journalReplay struct {
	epoch      uint64
	generation uint64
	// submits maps tuple ID → the tuple of its attempt-0 record.
	submits map[uint64]*tuple.Tuple
	// attempts maps tuple ID → highest attempt seen in resend records.
	attempts map[uint64]uint8
	// acked and shed are the IDs released after their submit; a true shed
	// value marks admission-control (overload) shedding.
	acked   map[uint64]struct{}
	shed    map[uint64]bool
	resends int64
	// truncated reports whether a torn tail was detected and cut.
	truncated bool
}

func newJournalReplay() *journalReplay {
	return &journalReplay{
		submits:  make(map[uint64]*tuple.Tuple),
		attempts: make(map[uint64]uint8),
		acked:    make(map[uint64]struct{}),
		shed:     make(map[uint64]bool),
	}
}

// replayFile reads one journal file in record order and truncates any
// torn tail in place. Its records are applied only when the file's
// generation reached minGen: an older file was wholly folded into the
// checkpoint. A missing file is skipped; a meta record this build does
// not write fails the replay.
func (rep *journalReplay) replayFile(path string, minGen uint64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("runtime: open journal for recovery: %w", err)
	}
	defer func() { _ = f.Close() }()

	// Count every good record's bytes so a torn tail truncates exactly at
	// the last intact boundary.
	good := int64(0)
	apply := false
	for {
		typ, payload, err := readJournalRecord(f)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil || (good == 0 && typ != recMeta) {
			// A torn tail is cut at the last intact record. A file that
			// does not open with a meta record is not a journal we wrote,
			// and is cut to nothing rather than guessed at.
			rep.truncated = true
			if err := f.Truncate(good); err != nil {
				return fmt.Errorf("runtime: truncate torn journal tail: %w", err)
			}
			return nil
		}
		good += int64(4 + 1 + len(payload) + 4)
		if typ == recMeta {
			if len(payload) != 16 {
				return fmt.Errorf("runtime: journal %s: meta record has %d bytes, want 16 (a format this build does not write)", path, len(payload))
			}
			gen := binary.LittleEndian.Uint64(payload[8:])
			if apply = gen >= minGen; apply {
				rep.epoch = max(rep.epoch, binary.LittleEndian.Uint64(payload[:8]))
				rep.generation = max(rep.generation, gen)
			}
			continue
		}
		if apply {
			rep.applyRecord(typ, payload)
		}
	}
}

// applyRecord folds one lifecycle record into the replay. Malformed
// payloads are skipped defensively.
func (rep *journalReplay) applyRecord(typ journalRecType, payload []byte) {
	switch typ {
	case recSubmit:
		if t, err := tuple.Unmarshal(payload); err == nil {
			rep.submits[t.ID] = t
		}
	case recResend:
		if len(payload) == 9 {
			id := binary.LittleEndian.Uint64(payload[:8])
			rep.attempts[id] = max(rep.attempts[id], payload[8])
			rep.resends++
		}
	case recAck:
		if len(payload) == 8 {
			rep.acked[binary.LittleEndian.Uint64(payload)] = struct{}{}
		}
	case recShed:
		if len(payload) == 9 {
			rep.shed[binary.LittleEndian.Uint64(payload[:8])] = payload[8] != 0
		}
	}
}
