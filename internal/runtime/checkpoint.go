package runtime

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"github.com/swingframework/swing/internal/obs"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/tuple"
)

// A checkpoint snapshots everything a restarted master needs that the
// journal alone cannot cheaply reconstruct: the cumulative ledger
// counters, the sink's playback position, the source sequence high-water
// mark, the router's warm per-worker latency estimates, and the set of
// tuples still un-acked at snapshot time (full bytes, so they can be
// retransmitted). Each checkpoint advances the generation counter and the
// journal starts a file at the new generation; recovery replays every
// journal file whose generation reached the checkpoint's, which makes
// the update crash-safe without cross-file atomicity.
//
// The cycle is a fuzzy checkpoint in the ARIES manner: the journal lock
// is held only for the cut, and the slow work follows on the
// checkpointing goroutine while the dataplane runs on.
//
//	lock → snapshot(gen+1) → set journal(gen) aside → open journal(gen+1)
//	     → unlock → encode → write ckpt(gen+1) → rename → retire journal(gen)
//
// A crash before the rename leaves the checkpoint at gen: the set-aside
// gen file and the live gen+1 file both replay on top of it, in that
// order — together they hold every record since that checkpoint. A crash
// after the rename gates the gen file out (the new checkpoint folded it
// in), whether or not retire deleted it yet. A failed save keeps every
// set-aside file, and the next successful one retires them all; file
// names carry their generation, so no later cut overwrites one.
//
// On-disk layout: u32 length | JSON | u32 crc32c(JSON). A short, corrupt
// or torn checkpoint fails closed — recovery reports the error rather
// than silently starting cold from a half-written snapshot (the previous
// checkpoint was atomically replaced, so a torn one can only mean outside
// interference or disk corruption).

// checkpointVersion guards the snapshot schema. Version 2 carries the
// ledger as the embedded obs.Counters record (snake_case keys); a
// version-1 body, whose camelCase counters would decode as zero, is
// refused rather than read.
const checkpointVersion = 2

// ckptEstimate is one worker's persisted routing estimate.
type ckptEstimate struct {
	ID              string `json:"id"`
	LatencyNanos    int64  `json:"latencyNanos"`
	ProcessingNanos int64  `json:"processingNanos"`
	Samples         int64  `json:"samples"`
}

// ckptPending is one un-acked tuple at snapshot time.
type ckptPending struct {
	// Tuple is the marshaled tuple; JSON carries it as standard base64.
	Tuple   []byte `json:"tuple"`
	Attempt uint8  `json:"attempt"`
}

// checkpointState is the JSON snapshot body.
type checkpointState struct {
	Version    int    `json:"version"`
	Epoch      uint64 `json:"epoch"`
	Generation uint64 `json:"generation"`

	// The ledger record is persisted whole; the derived columns
	// (WorkerDropped, InFlight, Retransmitting) are not.
	obs.Counters
	obs.Sink

	NextPlay uint64 `json:"nextPlay"`
	NextSeq  uint64 `json:"nextSeq"`

	Estimates []ckptEstimate `json:"estimates,omitempty"`
	Pending   []ckptPending  `json:"pending,omitempty"`
}

// encodeCheckpoint marshals the snapshot body.
func encodeCheckpoint(st *checkpointState) ([]byte, error) {
	body, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("runtime: encode checkpoint: %w", err)
	}
	return body, nil
}

// saveCheckpoint writes the snapshot atomically: temp file, fsync, rename.
func saveCheckpoint(path string, st *checkpointState) error {
	body, err := encodeCheckpoint(st)
	if err != nil {
		return err
	}
	return saveCheckpointBytes(path, body)
}

// saveCheckpointBytes installs a pre-marshaled checkpoint body with the
// same atomic temp-fsync-rename protocol. The replication standby uses it
// to mirror the primary's checkpoint image byte-for-byte.
func saveCheckpointBytes(path string, body []byte) error {
	buf := make([]byte, 0, 4+len(body)+4)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Update(0, journalCRC, body))

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("runtime: write checkpoint: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		return fmt.Errorf("runtime: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("runtime: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("runtime: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("runtime: install checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads and verifies a snapshot. A missing file returns
// (nil, nil): no checkpoint has ever been written.
func loadCheckpoint(path string) (*checkpointState, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runtime: read checkpoint: %w", err)
	}
	if len(raw) < 8 {
		return nil, fmt.Errorf("runtime: checkpoint too short (%d bytes)", len(raw))
	}
	n := binary.LittleEndian.Uint32(raw[:4])
	if int(n) > len(raw)-8 {
		return nil, fmt.Errorf("runtime: checkpoint body length %d exceeds file", n)
	}
	body := raw[4 : 4+n]
	sum := binary.LittleEndian.Uint32(raw[4+n : 8+n])
	if crc32.Update(0, journalCRC, body) != sum {
		return nil, errors.New("runtime: checkpoint checksum mismatch")
	}
	var st checkpointState
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("runtime: decode checkpoint: %w", err)
	}
	if st.Version != checkpointVersion {
		return nil, fmt.Errorf("runtime: checkpoint version %d, want %d", st.Version, checkpointVersion)
	}
	return &st, nil
}

// recoveredState is the merged checkpoint + journal view handed to the
// new incarnation.
type recoveredState struct {
	prevEpoch  uint64
	generation uint64
	counters   checkpointState // counter fields only
	// pending is the un-acked backlog to retransmit, keyed by tuple ID.
	pending map[uint64]*inflightEntry
	// acked is the cross-epoch sink dedup set: IDs acknowledged by the
	// previous incarnation whose straggler results must not replay.
	acked map[uint64]struct{}
	// estimates warm-start the router when each worker re-joins.
	estimates map[string]routing.Estimate
	// journalTruncated reports a torn tail was cut during replay.
	journalTruncated bool
}

// recoverState merges the checkpoint (if any) with the journal's
// replayable prefix. Every journal file the previous incarnation wrote —
// set-aside generations, then the live file — is replayed in file order,
// which is append order; a file's records apply only when its generation
// reached the checkpoint's. An older file predates the snapshot and is
// wholly folded in already; a file at or above it holds records written
// after the snapshot's cut (see the cycle above).
//
// The recovered generation is the highest one on disk, not only the
// checkpoint's: after a failed save the live file runs ahead of the
// checkpoint, and the next incarnation must start above every file it
// leaves behind, so that its own first checkpoint gates them all out.
func recoverState(journalPath, ckptPath string) (*recoveredState, error) {
	ckpt, err := loadCheckpoint(ckptPath)
	if err != nil {
		return nil, err
	}
	// A build that split the journal wrote segment i > 0 at "<path>.s<i>".
	// Replaying without them would drop their un-acked tuples from the
	// ledger, so refuse to start instead.
	if segs, _ := filepath.Glob(journalPath + ".s[1-9]*"); len(segs) > 0 {
		return nil, fmt.Errorf("runtime: journal segment %s is from a build that split the journal; this build replays one journal file", segs[0])
	}
	var minGen uint64
	if ckpt != nil {
		minGen = ckpt.Generation
	}
	rep := newJournalReplay()
	for _, f := range journalFiles(journalPath) {
		if err := rep.replayFile(f.path, minGen); err != nil {
			return nil, err
		}
	}
	rs := &recoveredState{
		pending:          make(map[uint64]*inflightEntry),
		acked:            make(map[uint64]struct{}),
		estimates:        make(map[string]routing.Estimate),
		journalTruncated: rep.truncated,
	}
	if ckpt != nil {
		rs.prevEpoch = ckpt.Epoch
		rs.generation = ckpt.Generation
		rs.counters = *ckpt
		for _, e := range ckpt.Estimates {
			rs.estimates[e.ID] = routing.Estimate{
				Latency:    time.Duration(e.LatencyNanos),
				Processing: time.Duration(e.ProcessingNanos),
				Samples:    e.Samples,
			}
		}
		for _, p := range ckpt.Pending {
			t, err := tuple.Unmarshal(p.Tuple)
			if err != nil {
				continue
			}
			rs.pending[t.ID] = &inflightEntry{t: t, attempt: p.Attempt}
		}
	}

	// Stale files were gated out above, so the replay applies
	// unconditionally on top of the checkpoint.
	if rep.epoch > rs.prevEpoch {
		rs.prevEpoch = rep.epoch
	}
	if rep.generation > rs.generation {
		rs.generation = rep.generation
	}
	for id, t := range rep.submits {
		if _, dup := rs.pending[id]; dup {
			continue
		}
		rs.pending[id] = &inflightEntry{t: t}
		rs.counters.Submitted++
		if t.SeqNo >= rs.counters.NextSeq {
			rs.counters.NextSeq = t.SeqNo + 1
		}
	}
	for id, attempt := range rep.attempts {
		if e, ok := rs.pending[id]; ok && attempt > e.attempt {
			e.attempt = attempt
		}
	}
	rs.counters.Retransmitted += rep.resends
	for id := range rep.acked {
		if _, ok := rs.pending[id]; ok {
			delete(rs.pending, id)
			rs.counters.Acked++
		}
		rs.acked[id] = struct{}{}
	}
	for id, overload := range rep.shed {
		if _, ok := rs.pending[id]; ok {
			delete(rs.pending, id)
			rs.counters.Shed++
			if overload {
				rs.counters.ShedOverload++
			}
		}
	}
	return rs, nil
}
