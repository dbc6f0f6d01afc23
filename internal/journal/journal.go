// Package journal is a crash-safe, append-only record log: the
// durability substrate under the fpserve /v1 job table. Records are
// framed with a length + CRC32C header, so replay can detect a torn
// final record (a crash mid-write) and truncate the log back to its
// last durable frame. Appends are fsync-batched (group commit): callers
// choose per record whether to wait for durability or to ride the next
// batched sync. When the log grows past a threshold the owner compacts
// it: the current logical state is written to a snapshot file
// (atomically, via rename) and the log restarts empty.
//
// The package is storage only — it knows nothing about jobs. The
// pipeline layer defines the record vocabulary and the replay
// semantics; see pipeline/durable.go.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Record is one journal entry. Type and Job are indexed by the replayer;
// Data is an opaque payload owned by the record vocabulary of the layer
// above.
type Record struct {
	// Type names the record kind ("submit", "result", ...).
	Type string `json:"type"`
	// Job scopes the record to a job ID, when it has one.
	Job string `json:"job,omitempty"`
	// Data is the payload.
	Data json.RawMessage `json:"data,omitempty"`
}

// TypeShutdown is the clean-shutdown marker: appended (durably) as the
// final act of a graceful stop, so the next boot can tell a clean
// restart from a crash. Only a marker in final position counts — a
// marker mid-log is a previous generation's and is ignored.
const TypeShutdown = "shutdown"

// Defaults.
const (
	// DefaultSyncEvery is the group-commit window: a non-durable append
	// is fsynced at most this long after it was written.
	DefaultSyncEvery = 5 * time.Millisecond
	// DefaultCompactBytes is the log size that triggers compaction.
	DefaultCompactBytes = 4 << 20
)

// Log and snapshot file names within a journal directory.
const (
	logName      = "journal.log"
	snapshotName = "snapshot.log"
	tmpName      = "snapshot.tmp"
)

// ErrClosed is returned by operations on a closed (or crash-simulated)
// journal.
var ErrClosed = errors.New("journal: closed")

// frame layout: 4-byte little-endian payload length, 4-byte CRC32C of
// the payload, payload bytes.
const frameHeader = 8

// maxRecordBytes guards replay against a corrupt length field claiming
// a multi-gigabyte frame.
const maxRecordBytes = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a journal.
type Options struct {
	// SyncEvery is the group-commit window (0 = DefaultSyncEvery).
	SyncEvery time.Duration
	// CompactBytes is the log size past which ShouldCompact reports
	// true (0 = DefaultCompactBytes; negative disables).
	CompactBytes int64
	// Fail injects faults; nil runs clean.
	Fail *Failpoints
}

func (o Options) syncEvery() time.Duration {
	if o.SyncEvery > 0 {
		return o.SyncEvery
	}
	return DefaultSyncEvery
}

func (o Options) compactBytes() int64 {
	switch {
	case o.CompactBytes > 0:
		return o.CompactBytes
	case o.CompactBytes < 0:
		return 1 << 62
	}
	return DefaultCompactBytes
}

// BootInfo describes what Open found.
type BootInfo struct {
	// Records is the replayed sequence: snapshot records first, then
	// log records, in append order.
	Records []Record
	// CleanShutdown reports that the log ended with a shutdown marker —
	// the previous process exited gracefully. False means crash (or a
	// fresh directory).
	CleanShutdown bool
	// TruncatedBytes is the size of the torn/corrupt tail dropped from
	// the log at open (0 on a clean log).
	TruncatedBytes int64
	// SnapshotRecords counts how many of Records came from the
	// snapshot.
	SnapshotRecords int
}

// Journal is an open journal directory. Methods are safe for
// concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu        sync.Mutex
	log       *os.File
	logSize   int64 // bytes in the log file (all durable or pending)
	snapSize  int64 // bytes in the snapshot file
	unsynced  int64 // bytes written but not yet fsynced
	syncTimer *time.Timer
	closed    bool
	syncs     int64
	compacts  int64
}

// Open opens (creating if needed) the journal in dir and replays it:
// snapshot first, then the log, truncating any torn tail back to the
// last durable frame so subsequent appends extend a valid log.
// LogPath returns the record log's path under dir — for harnesses that
// simulate crashes by truncating or copying the raw log.
func LogPath(dir string) string { return filepath.Join(dir, logName) }

func Open(dir string, o Options) (*Journal, BootInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, BootInfo{}, fmt.Errorf("journal: %w", err)
	}
	// A crash between snapshot-write and rename leaves snapshot.tmp:
	// never trust it, the durable snapshot (if any) is still complete.
	os.Remove(filepath.Join(dir, tmpName))

	var info BootInfo
	snapRecs, _, err := readAll(filepath.Join(dir, snapshotName))
	if err != nil {
		return nil, BootInfo{}, fmt.Errorf("journal: snapshot: %w", err)
	}
	info.Records = append(info.Records, snapRecs...)
	info.SnapshotRecords = len(snapRecs)

	logPath := filepath.Join(dir, logName)
	logRecs, good, err := readAll(logPath)
	if err != nil {
		return nil, BootInfo{}, fmt.Errorf("journal: log: %w", err)
	}
	info.Records = append(info.Records, logRecs...)
	if n := len(logRecs); n > 0 && logRecs[n-1].Type == TypeShutdown {
		info.CleanShutdown = true
	}

	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, BootInfo{}, fmt.Errorf("journal: %w", err)
	}
	if st, err := f.Stat(); err == nil && st.Size() > good {
		// Torn tail: a record was mid-write when the process died.
		// Truncate back to the last whole frame so the next append
		// starts a valid one.
		info.TruncatedBytes = st.Size() - good
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, BootInfo{}, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, BootInfo{}, fmt.Errorf("journal: %w", err)
	}

	j := &Journal{dir: dir, opts: o, log: f, logSize: good}
	if st, err := os.Stat(filepath.Join(dir, snapshotName)); err == nil {
		j.snapSize = st.Size()
	}
	return j, info, nil
}

// readAll decodes every whole frame of path (see Frames), returning the
// records and the byte offset of the end of the last good frame. A
// missing file is an empty log.
func readAll(path string) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	recs, ends := Frames(data)
	if len(ends) == 0 {
		return recs, 0, nil
	}
	return recs, ends[len(ends)-1], nil
}

// Frames decodes the whole frames at the start of log bytes b,
// returning each record and the offset just past it. Decoding stops —
// without error — at the first torn or corrupt frame: everything after
// a bad CRC is untrusted.
func Frames(b []byte) (recs []Record, ends []int64) {
	var off int64
	for {
		rec, n, ok := decodeFrame(b[off:])
		if !ok {
			return recs, ends
		}
		off += n
		recs = append(recs, rec)
		ends = append(ends, off)
	}
}

// decodeFrame decodes one frame from b, reporting the record, its total
// framed length, and whether the frame was whole and its CRC held.
func decodeFrame(b []byte) (Record, int64, bool) {
	if len(b) < frameHeader {
		return Record{}, 0, false
	}
	size := binary.LittleEndian.Uint32(b)
	if size == 0 || size > maxRecordBytes || frameHeader+int(size) > len(b) {
		return Record{}, 0, false
	}
	sum := binary.LittleEndian.Uint32(b[4:])
	payload := b[frameHeader : frameHeader+int(size)]
	if crc32.Checksum(payload, crcTable) != sum {
		return Record{}, 0, false
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, 0, false
	}
	return rec, frameHeader + int64(size), true
}

// encodeFrame frames one record.
func encodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
	copy(buf[frameHeader:], payload)
	return buf, nil
}

// Append writes one record to the log. With durable set it returns only
// after the record (and every earlier pending one — appends never sync
// out of order) is fsynced; otherwise the record rides the next group
// commit, at most SyncEvery later. Injected sync failures surface as
// transient errors (IsTransient) — the caller retries; the write itself
// is already in the log, so a retried sync never duplicates a record.
func (j *Journal) Append(rec Record, durable bool) error {
	frame, err := encodeFrame(rec)
	if err != nil {
		return fmt.Errorf("journal: encode: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if fp := j.opts.Fail; fp != nil {
		if lim, dead := fp.writeCut(j.logSize, int64(len(frame))); dead {
			// Simulated SIGKILL mid-append: the frame is cut at the
			// configured offset (possibly torn mid-record) and the
			// journal dies, exactly as a real crash would leave it.
			if lim > 0 {
				j.log.Write(frame[:lim])
				j.log.Sync()
			}
			j.closed = true
			return ErrClosed
		}
	}
	if _, err := j.log.Write(frame); err != nil {
		return &transientError{op: "append", err: err}
	}
	j.logSize += int64(len(frame))
	j.unsynced += int64(len(frame))
	if durable {
		return j.syncLocked()
	}
	if j.syncTimer == nil {
		j.syncTimer = time.AfterFunc(j.opts.syncEvery(), func() {
			j.mu.Lock()
			defer j.mu.Unlock()
			if !j.closed {
				j.syncLocked() // best effort; a durable append retries
			}
		})
	}
	return nil
}

// Sync forces the group commit: every pending append becomes durable.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.syncTimer != nil {
		j.syncTimer.Stop()
		j.syncTimer = nil
	}
	if j.unsynced == 0 {
		return nil
	}
	if fp := j.opts.Fail; fp != nil {
		if err := fp.syncErr(); err != nil {
			return err
		}
	}
	if err := j.log.Sync(); err != nil {
		return &transientError{op: "fsync", err: err}
	}
	j.unsynced = 0
	j.syncs++
	return nil
}

// Backlog reports the bytes appended but not yet fsynced — the
// admission-control watermark for journal pressure.
func (j *Journal) Backlog() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.unsynced
}

// LogSize reports the current log file size in bytes.
func (j *Journal) LogSize() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.logSize
}

// ShouldCompact reports that the log has outgrown the compaction
// threshold.
func (j *Journal) ShouldCompact() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.logSize > j.opts.compactBytes()
}

// Stats is the journal's counter snapshot.
type Stats struct {
	LogBytes      int64 `json:"logBytes"`
	SnapshotBytes int64 `json:"snapshotBytes"`
	BacklogBytes  int64 `json:"backlogBytes"`
	Syncs         int64 `json:"syncs"`
	Compactions   int64 `json:"compactions"`
}

// Stats snapshots the journal counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		LogBytes:      j.logSize,
		SnapshotBytes: j.snapSize,
		BacklogBytes:  j.unsynced,
		Syncs:         j.syncs,
		Compactions:   j.compacts,
	}
}

// Compact replaces the journal's durable content with state: the
// records are written to a fresh snapshot (fsynced, then atomically
// renamed over the old one) and the log restarts empty. A crash at any
// point leaves either the old snapshot+log or the new snapshot — never
// a half-state: the rename is the commit point, and the log is only
// truncated after it.
func (j *Journal) Compact(state []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	// The log may hold unsynced frames that the snapshot supersedes;
	// sync first so a mid-compact crash still replays a complete log.
	if err := j.syncLocked(); err != nil {
		return err
	}

	tmp := filepath.Join(j.dir, tmpName)
	f, err := os.Create(tmp)
	if err != nil {
		return &transientError{op: "compact", err: err}
	}
	var snapSize int64
	for _, rec := range state {
		frame, err := encodeFrame(rec)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("journal: encode snapshot: %w", err)
		}
		if _, err := f.Write(frame); err != nil {
			f.Close()
			os.Remove(tmp)
			return &transientError{op: "compact", err: err}
		}
		snapSize += int64(len(frame))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return &transientError{op: "compact", err: err}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return &transientError{op: "compact", err: err}
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapshotName)); err != nil {
		os.Remove(tmp)
		return &transientError{op: "compact", err: err}
	}
	// Commit point passed: the snapshot now carries the state; drop the
	// log.
	if err := j.log.Truncate(0); err != nil {
		return &transientError{op: "compact", err: err}
	}
	if _, err := j.log.Seek(0, io.SeekStart); err != nil {
		return &transientError{op: "compact", err: err}
	}
	j.logSize, j.unsynced, j.snapSize = 0, 0, snapSize
	j.compacts++
	return nil
}

// CleanShutdown durably appends the shutdown marker. It is the final
// append of a graceful stop; Close follows.
func (j *Journal) CleanShutdown() error {
	return j.Append(Record{Type: TypeShutdown}, true)
}

// Close syncs pending appends and closes the log.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	err := j.syncLocked()
	j.closed = true
	if cerr := j.log.Close(); err == nil {
		err = cerr
	}
	return err
}
