package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swingframework/swing/internal/tuple"
)

// The master's write-ahead journal (§IV-C's coordinator made crash-safe):
// an append-only file of checksummed records tracking every tuple's life —
// submitted, retransmitted, acked, shed — so a restarted master can rebuild
// the exact ledger and the un-acked backlog of its previous incarnation.
// Checkpoints (checkpoint.go) snapshot the full state and start the
// journal on a fresh generation, bounding both replay time and file size.
//
// Record layout (all integers little-endian):
//
//	u32 payloadLen | u8 type | payload | u32 crc32c(type || payload)
//
// The trailing checksum makes a torn tail — a partial record from a crash
// mid-append — detectable: recovery replays records until the first short
// read or checksum mismatch, then truncates the file at the last good
// offset. Everything before the tear is trusted; the tear itself is
// discarded (its tuple stays pending and is retransmitted, never lost).
//
// Since the hot-state sharding work the journal is usually one segment of
// a journalSet (journalset.go): lifecycle records are spread across
// segments by hashed tuple ID, each segment group-commits independently,
// and a shared sequence counter stamps every record so recovery can merge
// segments back into one global order. Format v2 therefore prefixes each
// lifecycle payload with the u64 sequence; the meta record carries the
// format so replay still reads v1 files from earlier releases (whose
// in-file order is their global order).

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
	// FsyncInterval syncs at most once per FsyncEvery (default). Bounded
	// loss window on power failure, negligible overhead.
	FsyncInterval FsyncMode = iota
	// FsyncAlways syncs after every append: zero loss window, one
	// fsync per tuple lifecycle event.
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
// under mu, then one appender (the leader) writes and fsyncs the whole
// batch while the others wait on cond. Every append still returns only
// after its record has reached the file — and, under FsyncAlways, the
// disk — so durability semantics match the one-write-per-record design;
// the batch just amortizes the write and fsync across the appends that
// piled up behind it.
//
// A checkpoint cut (setAsideLocked) holds mu and waits out any in-flight
// flush, so a record is never split across generations and the file
// handle never changes under the leader's feet.
type journal struct {
	// seq stamps every lifecycle record with its position in the global
	// append order. A standalone journal owns its counter; segments of a
	// journalSet share the set's counter, which is what lets recovery
	// merge concurrently written segments by (epoch, seq).
	seq *atomic.Uint64

	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File
	path     string
	cur      string // f's name on disk (see setAsideLocked), guarded by mu
	mode     FsyncMode
	every    time.Duration
	lastSync time.Time
	gen      uint64 // generation of the live file, guarded by mu

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
// already have been recovered — opening discards them.
func openJournal(path string, epoch, generation uint64, mode FsyncMode, every time.Duration) (*journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runtime: open journal: %w", err)
	}
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	j := &journal{seq: new(atomic.Uint64), f: f, path: path, cur: path, mode: mode, every: every, lastSync: time.Now(), gen: generation}
	j.cond = sync.NewCond(&j.mu)
	if err := j.append(recMeta, metaPayload(epoch, generation)); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("runtime: sync journal: %w", err)
	}
	return j, nil
}

// journalFormatV2 marks seq-stamped lifecycle records. A 16-byte meta
// payload (epoch, generation) is implicit format v1 — files written
// before sequence stamping, replayed in file order.
const journalFormatV2 = 2

func metaPayload(epoch, generation uint64) []byte {
	b := make([]byte, 0, 24)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, generation)
	return binary.LittleEndian.AppendUint64(b, journalFormatV2)
}

func parseMetaPayload(b []byte) (epoch, generation, format uint64, err error) {
	switch len(b) {
	case 16:
		return binary.LittleEndian.Uint64(b[:8]), binary.LittleEndian.Uint64(b[8:]), 1, nil
	case 24:
		return binary.LittleEndian.Uint64(b[:8]), binary.LittleEndian.Uint64(b[8:16]),
			binary.LittleEndian.Uint64(b[16:]), nil
	default:
		return 0, 0, 0, fmt.Errorf("runtime: journal meta record has %d bytes, want 16 or 24", len(b))
	}
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

// depth reports the segment's observability counters: records and bytes
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

// commitAndUnlock implements the group-commit protocol for a record
// just sealed into pending. Exactly one appender becomes the flush
// leader: it takes the whole pending batch, writes (and per policy
// fsyncs) it outside the lock, then wakes the appenders whose records
// rode along. Every caller returns only once its record is in the file.
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
			doSync := j.mode == FsyncAlways
			if j.mode == FsyncInterval {
				if now := time.Now(); now.Sub(j.lastSync) >= j.every {
					j.lastSync = now
					doSync = true
				}
			}
			j.mu.Unlock()

			var err error
			if _, werr := f.Write(batch); werr != nil {
				err = fmt.Errorf("runtime: journal append: %w", werr)
			} else if doSync {
				if serr := f.Sync(); serr != nil {
					err = fmt.Errorf("runtime: journal sync: %w", serr)
				}
			}

			j.mu.Lock()
			j.flushing = false
			if err != nil && j.broken == nil {
				// A failed or partial batch write leaves a torn middle that
				// replay would truncate at; accepting later appends would
				// silently drop everything behind the tear. Fail the whole
				// batch and everything after it.
				j.broken = err
				j.brokenSeq = j.flushedSeq + 1
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
		j.broken = fmt.Errorf("runtime: journal append: %w", err)
		j.brokenSeq = j.flushedSeq + 1
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

// appendSubmit logs a first-attempt dispatch: the full tuple, so recovery
// can rebuild and retransmit it. The tuple is serialized straight into
// the pending batch buffer — no intermediate allocation. The sequence is
// drawn before the segment lock, so within one segment records may land
// slightly out of sequence order; recovery sorts by seq, not file order.
func (j *journal) appendSubmit(t *tuple.Tuple) error {
	seq := j.seq.Add(1)
	j.mu.Lock()
	start, err := j.reserveLocked(recSubmit)
	if err != nil {
		j.mu.Unlock()
		return err
	}
	p, err := tuple.AppendMarshal(binary.LittleEndian.AppendUint64(j.pending, seq), t)
	if err != nil {
		j.pending = j.pending[:start]
		j.mu.Unlock()
		return err
	}
	j.pending = p
	j.sealLocked(start)
	return j.commitAndUnlock()
}

// appendSubmitBatch logs a batch of first-attempt dispatches under one
// lock acquisition and one group-commit entry: every tuple's record is
// reserved, serialized and sealed into the same pending buffer, then a
// single commitAndUnlock rides them all out on one flush. Each record
// still gets its own sequence number, so recovery is indistinguishable
// from per-tuple appends. A tuple that fails to marshal is truncated
// back out of the buffer; the first such error is reported after the
// rest of the batch commits.
func (j *journal) appendSubmitBatch(ts []*tuple.Tuple) error {
	j.mu.Lock()
	var firstErr error
	sealed := 0
	for _, t := range ts {
		seq := j.seq.Add(1)
		start, err := j.reserveLocked(recSubmit)
		if err != nil {
			j.mu.Unlock()
			return err // broken journal: nothing more can append
		}
		p, err := tuple.AppendMarshal(binary.LittleEndian.AppendUint64(j.pending, seq), t)
		if err != nil {
			j.pending = j.pending[:start]
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		j.pending = p
		j.sealLocked(start)
		sealed++
	}
	if sealed == 0 {
		j.mu.Unlock()
		return firstErr
	}
	if err := j.commitAndUnlock(); err != nil {
		return err
	}
	return firstErr
}

// appendResend logs a retransmission's new attempt counter.
func (j *journal) appendResend(id uint64, attempt uint8) error {
	b := make([]byte, 0, 17)
	b = binary.LittleEndian.AppendUint64(b, j.seq.Add(1))
	b = binary.LittleEndian.AppendUint64(b, id)
	return j.append(recResend, append(b, attempt))
}

// appendAck logs a worker acknowledgment: a batch of one.
func (j *journal) appendAck(id uint64) error {
	return j.appendAckBatch([]uint64{id})
}

// appendAckBatch logs a batch of worker acknowledgments under one lock
// acquisition and one group-commit entry — the result-path mirror of
// appendSubmitBatch. Each ack is still its own record with its own
// sequence number, so replay cannot tell the batch from per-ack appends.
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
		j.pending = binary.LittleEndian.AppendUint64(j.pending, j.seq.Add(1))
		j.pending = binary.LittleEndian.AppendUint64(j.pending, id)
		j.sealLocked(start)
	}
	return j.commitAndUnlock()
}

// appendShed logs an abandoned tuple; overload marks admission-control
// shedding (the ShedOverload ledger subset).
func (j *journal) appendShed(id uint64, overload bool) error {
	b := make([]byte, 0, 17)
	b = binary.LittleEndian.AppendUint64(b, j.seq.Add(1))
	b = binary.LittleEndian.AppendUint64(b, id)
	if overload {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return j.append(recShed, b)
}

// setAsideLocked starts the next generation on this segment: the
// current file is renamed aside to setAsidePath(path, gen) — its name
// carries the generation it holds, so no later cut overwrites it — and a
// fresh file with the new generation's meta record takes over the live
// path. Only renames and a small write happen here; the checkpointer
// calls it holding j.mu — after quiescing any in-flight group-commit
// flush — so no returned append lands in the old generation after the
// state snapshot was taken (it would double-count on recovery). Records
// still buffered in pending belong to appends that have not returned
// yet — their effects are not in the snapshot — and flush into the new
// generation, where replay applies them on top of the checkpoint.
//
// The set-aside handle is returned for the caller to close after
// releasing the lock, and the file stays on disk until a checkpoint at a
// later generation is installed: until then recovery still needs it. On
// failure the segment keeps writing its current file, renamed back to
// the live path; should even that rename fail, the file stays under its
// set-aside name (cur), where recovery finds it and the next cut starts.
func (j *journal) setAsideLocked(epoch, generation uint64) (*os.File, error) {
	aside := setAsidePath(j.path, j.gen)
	if j.cur != aside {
		if err := os.Rename(j.cur, aside); err != nil {
			return nil, fmt.Errorf("runtime: set journal aside: %w", err)
		}
		j.cur = aside
	}
	nf, err := os.OpenFile(j.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
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
		return nil, fmt.Errorf("runtime: start journal generation: %w", err)
	}
	old := j.f
	j.f = nf
	j.cur = j.path
	j.gen = generation
	return old, nil
}

// sync flushes buffered records and forces them to stable storage.
func (j *journal) sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.quiesceLocked()
	if err := j.flushPendingLocked(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		if j.broken == nil {
			j.broken = fmt.Errorf("runtime: journal sync: %w", err)
		}
		return j.broken
	}
	return nil
}

// close flushes, syncs and closes the journal file. Later appends fail.
func (j *journal) close() error {
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

// segRecord is one lifecycle record read back from a segment, with the
// global order key recovery merges by. payload is the v1-shaped body
// (seq prefix already stripped for v2 files).
type segRecord struct {
	epoch   uint64
	seq     uint64
	typ     journalRecType
	payload []byte
}

// segmentReplay is the raw parse of one journal segment: its meta header
// plus every intact lifecycle record, torn tail already truncated.
type segmentReplay struct {
	path       string
	epoch      uint64
	generation uint64
	format     uint64
	recs       []segRecord
	truncated  bool
}

// replaySegment reads one segment file, collects its replayable prefix
// and truncates any torn tail in place. A missing file returns
// (nil, nil): that segment was never written.
func replaySegment(path string) (*segmentReplay, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runtime: open journal for recovery: %w", err)
	}
	defer func() { _ = f.Close() }()

	sr := &segmentReplay{path: path}
	// Count every good record's bytes so a torn tail truncates exactly at
	// the last intact boundary.
	good := int64(0)
	first := true
	fileOrder := uint64(0)
	for {
		typ, payload, err := readJournalRecord(f)
		if errors.Is(err, io.EOF) {
			break
		}
		if errors.Is(err, errTornRecord) {
			sr.truncated = true
			if err := f.Truncate(good); err != nil {
				return nil, fmt.Errorf("runtime: truncate torn journal tail: %w", err)
			}
			break
		}
		if err != nil {
			return nil, err
		}
		if first {
			if typ != recMeta {
				// No meta record: not a journal we wrote. Treat as torn from
				// the start rather than guessing at its contents.
				sr.truncated = true
				if err := f.Truncate(0); err != nil {
					return nil, fmt.Errorf("runtime: truncate foreign journal: %w", err)
				}
				return sr, nil
			}
			if sr.epoch, sr.generation, sr.format, err = parseMetaPayload(payload); err != nil {
				return nil, err
			}
			first = false
			good += int64(4 + 1 + len(payload) + 4)
			continue
		}
		good += int64(4 + 1 + len(payload) + 4)
		if typ == recMeta {
			// A second meta record never occurs in a well-formed segment;
			// ignore defensively.
			continue
		}
		fileOrder++
		seq := fileOrder
		if sr.format >= journalFormatV2 {
			if len(payload) < 8 {
				continue // malformed lifecycle record; skip defensively
			}
			seq = binary.LittleEndian.Uint64(payload[:8])
			payload = payload[8:]
		}
		sr.recs = append(sr.recs, segRecord{epoch: sr.epoch, seq: seq, typ: typ, payload: payload})
	}
	return sr, nil
}

// journalReplay is the merged lifecycle view of one journal generation —
// possibly assembled from several concurrently written segments.
type journalReplay struct {
	epoch      uint64
	generation uint64
	// submits maps tuple ID → marshaled tuple bytes for attempt-0 records.
	submits map[uint64][]byte
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

// mergeSegments folds segment replays into one journalReplay, applying
// lifecycle records in global (epoch, seq) order — the order the running
// master emitted them, regardless of which segment each landed in or how
// group commit interleaved writes within a segment.
func mergeSegments(segs []*segmentReplay) *journalReplay {
	rep := &journalReplay{
		submits:  make(map[uint64][]byte),
		attempts: make(map[uint64]uint8),
		acked:    make(map[uint64]struct{}),
		shed:     make(map[uint64]bool),
	}
	var all []segRecord
	for _, sr := range segs {
		if sr == nil {
			continue
		}
		if sr.epoch > rep.epoch {
			rep.epoch = sr.epoch
		}
		if sr.generation > rep.generation {
			rep.generation = sr.generation
		}
		rep.truncated = rep.truncated || sr.truncated
		all = append(all, sr.recs...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].epoch != all[j].epoch {
			return all[i].epoch < all[j].epoch
		}
		return all[i].seq < all[j].seq
	})
	for _, r := range all {
		switch r.typ {
		case recSubmit:
			t, err := tuple.Unmarshal(r.payload)
			if err == nil {
				rep.submits[t.ID] = r.payload
			}
		case recResend:
			if len(r.payload) == 9 {
				id := binary.LittleEndian.Uint64(r.payload[:8])
				if r.payload[8] > rep.attempts[id] {
					rep.attempts[id] = r.payload[8]
				}
				rep.resends++
			}
		case recAck:
			if len(r.payload) == 8 {
				rep.acked[binary.LittleEndian.Uint64(r.payload)] = struct{}{}
			}
		case recShed:
			if len(r.payload) == 9 {
				rep.shed[binary.LittleEndian.Uint64(r.payload[:8])] = r.payload[8] != 0
			}
		}
	}
	return rep
}

// replayJournal reads the single journal file at path, replays its
// replayable prefix and truncates any torn tail in place. A missing file
// returns an empty replay (nil error): a fresh start. Multi-segment
// recovery goes through replaySegment + mergeSegments (recoverState),
// which gates each segment's generation individually.
func replayJournal(path string) (*journalReplay, error) {
	sr, err := replaySegment(path)
	if err != nil {
		return nil, err
	}
	if sr == nil {
		return mergeSegments(nil), nil
	}
	return mergeSegments([]*segmentReplay{sr}), nil
}
