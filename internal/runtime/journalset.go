package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/swingframework/swing/internal/tuple"
)

// journalSet is the segmented write-ahead log: one journal file per
// hot-state shard, each with its own lock and group commit, so journal
// appends on the Submit and ACK paths contend only when their tuples
// hash to the same segment. A shared atomic sequence stamps every record
// (journal format v2), which is what lets recovery merge concurrently
// written segments back into the global append order by (epoch, seq).
//
// Layout on disk: segment 0 keeps the configured journal path — so a
// one-segment set is byte-compatible with the pre-sharding layout and an
// old single-file journal recovers under a sharded master — and segment
// i > 0 lives at "<path>.s<i>". A checkpoint cut holds every segment
// lock at once (index order) only long enough to set each live file
// aside as "<segment>.g<gen>" and open the next generation at the
// segment path, so a generation boundary never splits a batch across
// generations. Set-aside files stay on disk until a checkpoint covering
// them is installed (retire); until then recovery replays them together
// with the live files, merged by (epoch, seq). A crash partway through
// a cut leaves some segments at the old generation, which replay exactly
// like the set-aside ones: every file at or above the checkpoint's
// generation holds records the checkpoint has not folded in.
type journalSet struct {
	path string
	segs []*journal
	mask uint64
	seq  atomic.Uint64
}

// segmentPath names segment i of the journal at path.
func segmentPath(path string, i int) string {
	if i == 0 {
		return path
	}
	return fmt.Sprintf("%s.s%d", path, i)
}

// setAsidePath names a segment file set aside at a checkpoint cut while
// it held generation gen.
func setAsidePath(segPath string, gen uint64) string {
	return fmt.Sprintf("%s.g%d", segPath, gen)
}

// journalFile is one journal file found on disk: the live file of
// segment idx, or (aside) one it set aside at generation gen.
type journalFile struct {
	path  string
	idx   int
	aside bool
	gen   uint64
}

// journalFiles lists the journal files of path that exist on disk —
// live segments and set-aside generations — ordered by segment index,
// live file first, then set-aside files by generation. Discovery is
// independent of the configured shard count: a master restarted with
// fewer shards still recovers every segment its previous incarnation
// wrote, and a set-aside file is found even when its live segment is
// missing (a crash between the rename and the new file's creation).
func journalFiles(path string) []journalFile {
	var out []journalFile
	if _, err := os.Stat(path); err == nil {
		out = append(out, journalFile{path: path})
	}
	matches, _ := filepath.Glob(path + ".*")
	for _, p := range matches {
		if f, ok := parseJournalName(path, p); ok {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.idx != y.idx {
			return x.idx < y.idx
		}
		if x.aside != y.aside {
			return !x.aside
		}
		return x.gen < y.gen
	})
	return out
}

// parseJournalName recognizes p as "<path>.s<i>", "<path>.g<gen>" or
// "<path>.s<i>.g<gen>". Anything else beside the journal — the
// checkpoint, ".tmp" leftovers — is not a journal file.
func parseJournalName(path, p string) (journalFile, bool) {
	f := journalFile{path: p}
	rest, ok := strings.CutPrefix(p, path)
	if !ok {
		return f, false
	}
	if r, ok := strings.CutPrefix(rest, ".s"); ok {
		digits, _, _ := strings.Cut(r, ".")
		idx, err := strconv.Atoi(digits)
		if err != nil || idx <= 0 {
			return f, false
		}
		f.idx, rest = idx, r[len(digits):]
		if rest == "" {
			return f, true
		}
	}
	r, ok := strings.CutPrefix(rest, ".g")
	if !ok {
		return f, false
	}
	gen, err := strconv.ParseUint(r, 10, 64)
	if err != nil {
		return f, false
	}
	f.aside, f.gen = true, gen
	return f, true
}

// listJournalSegments returns the paths of every journal file on disk
// for path, live and set aside, in journalFiles order.
func listJournalSegments(path string) []string {
	var out []string
	for _, f := range journalFiles(path) {
		out = append(out, f.path)
	}
	return out
}

// openJournalSet creates (or truncates) one journal segment per shard and
// removes the files of a previous incarnation that the new segments do
// not overwrite: set-aside generations, and higher-numbered segments of
// one that ran with more shards. Their contents are already folded into
// the checkpoint recovery just wrote, so leaving them would double-replay
// on the next crash.
func openJournalSet(path string, shards int, epoch, generation uint64, mode FsyncMode, every time.Duration) (*journalSet, error) {
	n := ceilPow2(shards)
	js := &journalSet{path: path, mask: uint64(n - 1)}
	for i := 0; i < n; i++ {
		j, err := openJournal(segmentPath(path, i), epoch, generation, mode, every)
		if err != nil {
			for _, prev := range js.segs {
				_ = prev.close()
			}
			return nil, err
		}
		// Segments share the set's sequence counter; the per-journal one
		// allocated by openJournal is discarded before any lifecycle append.
		j.seq = &js.seq
		js.segs = append(js.segs, j)
	}
	for _, f := range journalFiles(path) {
		if f.aside || f.idx >= n {
			_ = os.Remove(f.path)
		}
	}
	return js, nil
}

// seg routes a tuple ID to its segment — the same splitmix64 spread the
// in-flight table uses, so one tuple's records always share a segment.
func (js *journalSet) seg(id uint64) *journal {
	return js.segs[mix64(id)&js.mask]
}

// appendSubmitBatch logs a batch of first-attempt dispatches, one group
// commit per touched segment (see bySegment).
func (js *journalSet) appendSubmitBatch(ts []*tuple.Tuple) error {
	return bySegment(js, ts, func(t *tuple.Tuple) uint64 { return t.ID }, (*journal).appendSubmitBatch)
}

// bySegment regroups xs in place by owning segment and hands each group
// to its segment's batch append, so each touched segment takes its lock
// once and commits the whole group under one group-commit entry. xs is
// scratch the caller owns; the reorder is harmless because recovery
// merges segments by sequence number, not append order. The first
// error is reported after every group has been tried.
func bySegment[T any](js *journalSet, xs []T, id func(T) uint64, appendBatch func(*journal, []T) error) error {
	if js.mask == 0 {
		return appendBatch(js.segs[0], xs)
	}
	var firstErr error
	for lo := 0; lo < len(xs); {
		idx := mix64(id(xs[lo])) & js.mask
		hi := lo
		for j := lo; j < len(xs); j++ {
			if mix64(id(xs[j]))&js.mask == idx {
				xs[hi], xs[j] = xs[j], xs[hi]
				hi++
			}
		}
		if err := appendBatch(js.segs[idx], xs[lo:hi]); err != nil && firstErr == nil {
			firstErr = err
		}
		lo = hi
	}
	return firstErr
}

// appendResend logs a retransmission's new attempt counter.
func (js *journalSet) appendResend(id uint64, attempt uint8) error {
	return js.seg(id).appendResend(id, attempt)
}

// appendAckBatch logs a batch of acknowledgments, one group commit per
// touched segment (see bySegment). ids is caller-owned scratch.
func (js *journalSet) appendAckBatch(ids []uint64) error {
	return bySegment(js, ids, func(id uint64) uint64 { return id }, (*journal).appendAckBatch)
}

// appendShed logs an abandoned tuple.
func (js *journalSet) appendShed(id uint64, overload bool) error {
	return js.seg(id).appendShed(id, overload)
}

// lockAll acquires every segment lock in index order (the deadlock-free
// total order); unlockAll releases them. Between the two the caller owns
// the whole log: no append can land and no flush can start.
func (js *journalSet) lockAll() {
	for _, j := range js.segs {
		j.mu.Lock()
	}
}

func (js *journalSet) unlockAll() {
	for i := len(js.segs) - 1; i >= 0; i-- {
		js.segs[i].mu.Unlock()
	}
}

// setTapLocked installs (or, with nil, removes) the flush tap on every
// segment: tap(seg, bytes) fires with that segment's lock held each time
// a batch of record bytes reaches the segment file, in file order. The
// caller holds all segment locks and has quiesced, so no batch is in
// flight across the installation — the tap observes every byte flushed
// after it and none before. The tap must copy what it keeps and must not
// block or take locks that appenders hold.
func (js *journalSet) setTapLocked(tap func(seg int, b []byte)) {
	for i, j := range js.segs {
		if tap == nil {
			j.tap = nil
			continue
		}
		seg := i
		j.tap = func(b []byte) { tap(seg, b) }
	}
}

// quiesceAllLocked waits out in-flight group-commit flushes on every
// segment. The caller holds all segment locks.
func (js *journalSet) quiesceAllLocked() {
	for _, j := range js.segs {
		j.quiesceLocked()
	}
}

// setAsideAllLocked starts the next generation on every segment (see
// journal.setAsideLocked) and returns the set-aside handles for the
// caller to close once it has released the locks. The caller holds all
// segment locks and has quiesced. On error the segments cut so far stay
// at the new generation and the rest at their own; both replay on
// recovery, so the caller must not install a checkpoint at generation
// after a failed cut.
func (js *journalSet) setAsideAllLocked(epoch, generation uint64) ([]*os.File, error) {
	old := make([]*os.File, 0, len(js.segs))
	for _, j := range js.segs {
		f, err := j.setAsideLocked(epoch, generation)
		if err != nil {
			return old, err
		}
		old = append(old, f)
	}
	return old, nil
}

// retire deletes every set-aside file whose generation is below gen.
// The checkpointer calls it only once a checkpoint at gen is installed:
// recovery then gates those files out, so they hold nothing it needs.
// Deleting a large file frees its blocks, which is why this runs
// outside every segment lock.
func (js *journalSet) retire(gen uint64) {
	for _, f := range journalFiles(js.path) {
		if f.aside && f.gen < gen {
			_ = os.Remove(f.path)
		}
	}
}

// depths collects each segment's observability counters for the status
// endpoint: per-segment appended records and bytes, plus the summed
// group-commit backlog across segments.
func (js *journalSet) depths() (records, bytes []int64, pending int64) {
	records = make([]int64, len(js.segs))
	bytes = make([]int64, len(js.segs))
	for i, j := range js.segs {
		var p int64
		records[i], bytes[i], p = j.depth()
		pending += p
	}
	return records, bytes, pending
}

// sync flushes and fsyncs every segment.
func (js *journalSet) sync() error {
	var first error
	for _, j := range js.segs {
		if err := j.sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close flushes, syncs and closes every segment. Later appends fail.
func (js *journalSet) close() error {
	var first error
	for _, j := range js.segs {
		if err := j.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
