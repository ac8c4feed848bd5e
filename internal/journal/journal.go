// Package journal implements TCJRNL: an append-only, checksummed,
// segment-rotated log of applied network deltas. It is the durability and
// replication backbone of the warehouse: on the primary every update is
// appended (and fsynced) here before it is applied in memory and later
// persisted by a background checkpoint, and replicas tail the journal over HTTP and replay
// the records through the same epoch-gated apply path.
//
// On disk a journal is a directory of segment files:
//
//	journal-00000000000000000001.tcjrnl
//	journal-00000000000000004096.tcjrnl
//	...
//
// Each segment starts with the 8-byte magic "TCJRNL1\n" followed by
// back-to-back records; the number in the file name is the sequence number of
// the segment's first record. Records are little-endian:
//
//	u32  crc        CRC-32C (Castagnoli) of everything after this field
//	u64  seq        sequence number, contiguous from 1 across segments
//	u64  epoch      index epoch the delta installed on the primary
//	u64  unixMicros wall-clock append time
//	u16  netLen     length of the network name
//	u32  payloadLen length of the payload
//	...  network    netLen bytes (federation tenant the delta applies to)
//	...  payload    payloadLen bytes (a TCDELTA document)
//
// Appends are group-committed: concurrent Append calls accumulate into one
// in-memory batch and the first caller to reach the file flushes the whole
// batch with a single write+fsync, so N small updates pay one disk round
// trip instead of N. A torn write can only damage the tail of the last
// segment; Open truncates the damaged tail and resumes at the last durable
// record (records are only acknowledged — and only visible to readers —
// once fsynced).
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"themecomm/internal/durable"
)

const (
	segmentMagic = "TCJRNL1\n"

	// recordFixedLen is the length of the fixed record header: crc (4) +
	// seq (8) + epoch (8) + unixMicros (8) + netLen (2) + payloadLen (4).
	recordFixedLen = 34

	// maxNetworkLen and maxPayloadLen bound the variable fields so a
	// corrupt length prefix cannot drive a huge allocation.
	maxNetworkLen = 4096
	maxPayloadLen = 64 << 20

	// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
	// is zero: once the active segment exceeds it, the next batch starts a
	// new segment file.
	DefaultSegmentBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrShort marks a record that ends before its declared length — the
	// truncated-tail case Open tolerates.
	ErrShort = errors.New("journal: short record")
	// ErrCorrupt marks a record whose checksum or length prefix is invalid.
	ErrCorrupt = errors.New("journal: corrupt record")
	// ErrClosed is returned by operations on a closed journal.
	ErrClosed = errors.New("journal: closed")
)

// Record is one journaled delta.
type Record struct {
	// Seq is the record's sequence number: contiguous from 1, global across
	// all networks of the federation.
	Seq uint64
	// Epoch is the index epoch the primary installed when it applied the
	// delta; replicas report it for lag diagnostics.
	Epoch uint64
	// UnixMicros is the wall-clock append time on the primary.
	UnixMicros int64
	// Network names the federation tenant the delta applies to.
	Network string
	// Payload is the serialized TCDELTA document.
	Payload []byte
}

// AppendRecord serializes the record onto dst and returns the extended slice.
func AppendRecord(dst []byte, r *Record) []byte {
	off := len(dst)
	var fixed [recordFixedLen]byte
	binary.LittleEndian.PutUint64(fixed[4:], r.Seq)
	binary.LittleEndian.PutUint64(fixed[12:], r.Epoch)
	binary.LittleEndian.PutUint64(fixed[20:], uint64(r.UnixMicros))
	binary.LittleEndian.PutUint16(fixed[28:], uint16(len(r.Network)))
	binary.LittleEndian.PutUint32(fixed[30:], uint32(len(r.Payload)))
	dst = append(dst, fixed[:]...)
	dst = append(dst, r.Network...)
	dst = append(dst, r.Payload...)
	crc := crc32.Checksum(dst[off+4:], castagnoli)
	binary.LittleEndian.PutUint32(dst[off:off+4], crc)
	return dst
}

// DecodeRecord parses one record from the front of b, returning the record
// and the number of bytes it occupied. A record that ends beyond len(b)
// fails with ErrShort; an invalid length prefix or checksum mismatch fails
// with ErrCorrupt. The returned record's Network and Payload are copies —
// they do not alias b.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < recordFixedLen {
		return Record{}, 0, ErrShort
	}
	netLen := int(binary.LittleEndian.Uint16(b[28:30]))
	payloadLen := int(binary.LittleEndian.Uint32(b[30:34]))
	if netLen > maxNetworkLen || payloadLen > maxPayloadLen {
		return Record{}, 0, fmt.Errorf("%w: lengths %d/%d exceed limits", ErrCorrupt, netLen, payloadLen)
	}
	total := recordFixedLen + netLen + payloadLen
	if len(b) < total {
		return Record{}, 0, ErrShort
	}
	want := binary.LittleEndian.Uint32(b[0:4])
	if crc32.Checksum(b[4:total], castagnoli) != want {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r := Record{
		Seq:        binary.LittleEndian.Uint64(b[4:12]),
		Epoch:      binary.LittleEndian.Uint64(b[12:20]),
		UnixMicros: int64(binary.LittleEndian.Uint64(b[20:28])),
		Network:    string(b[recordFixedLen : recordFixedLen+netLen]),
		Payload:    append([]byte(nil), b[recordFixedLen+netLen:total]...),
	}
	return r, total, nil
}

// Options configures a journal.
type Options struct {
	// SegmentBytes is the rotation threshold; once the active segment
	// exceeds it the next batch starts a new segment. Zero means
	// DefaultSegmentBytes.
	SegmentBytes int64
}

// Stats is a snapshot of journal activity counters. Appends/Fsyncs quantifies
// the group-commit win: with concurrent writers Fsyncs stays well below
// Appends because one fsync durably commits a whole batch.
type Stats struct {
	Appends  uint64 // records appended
	Batches  uint64 // group-commit batches flushed
	Fsyncs   uint64 // fsync calls issued
	Bytes    uint64 // record bytes written
	Segments int    // segment files on disk
	FirstSeq uint64 // sequence number of the oldest record (0 when empty)
	LastSeq  uint64 // highest durable sequence number (0 when empty)
}

type segment struct {
	path     string
	firstSeq uint64
}

// batch is one group-commit accumulation: records encoded back to back,
// flushed by a single leader with one write+fsync.
type batch struct {
	buf      []byte
	firstSeq uint64
	lastSeq  uint64
	done     chan struct{}
	err      error
}

// Journal is an open TCJRNL log. All methods are safe for concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu        sync.Mutex
	flushIdle *sync.Cond // broadcast when the flushing baton is released
	f         *os.File   // active (last) segment, opened for append
	size      int64      // bytes in the active segment
	segments  []segment
	nextSeq   uint64 // seq the next Append assigns
	pending   *batch // accumulating batch, nil when none
	flushing  bool   // a leader is currently writing to disk
	closed    bool
	err       error    // sticky write failure: the journal fails stop
	lock      *os.File // holds the directory lock until Close (nil where unsupported)

	durable atomic.Uint64 // highest fsynced seq, visible to readers

	notifyMu sync.Mutex
	notifyCh chan struct{} // closed and replaced whenever durable advances

	appends atomic.Uint64
	batches atomic.Uint64
	fsyncs  atomic.Uint64
	bytes   atomic.Uint64
}

// Open opens (creating if necessary) the journal in dir and recovers its
// tail: the last segment is scanned record by record and truncated at the
// first damaged or incomplete record, so a crash mid-append loses at most the
// unacknowledged tail batch. Damage in any non-final segment is reported as
// ErrCorrupt — that is real data loss, not a torn tail.
//
// The journal holds an exclusive lock on dir until Close: a second Open of
// the same directory, in this process or another, fails while it is open, so
// two writers never append to one sequence.
func Open(dir string, opts Options) (*Journal, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	j, err := open(dir, opts)
	if err != nil {
		lock.Close()
		return nil, err
	}
	j.lock = lock
	return j, nil
}

// open is Open once the directory is locked.
func open(dir string, opts Options) (*Journal, error) {
	j := &Journal{dir: dir, opts: opts, notifyCh: make(chan struct{})}
	j.flushIdle = sync.NewCond(&j.mu)
	segs, err := scanSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := j.createSegment(1); err != nil {
			return nil, err
		}
		j.nextSeq = 1
		return j, nil
	}
	lastSeq := segs[0].firstSeq - 1
	for i, s := range segs {
		final := i == len(segs)-1
		end, err := verifySegment(s, lastSeq, final)
		if err != nil {
			return nil, err
		}
		lastSeq = end
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last.path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.size = st.Size()
	j.segments = segs
	j.nextSeq = lastSeq + 1
	j.durable.Store(lastSeq)
	return j, nil
}

// scanSegments lists and orders the segment files of dir.
func scanSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		var seq uint64
		if n, err := fmt.Sscanf(e.Name(), "journal-%020d.tcjrnl", &seq); n != 1 || err != nil {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(dir, e.Name()), firstSeq: seq})
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i].firstSeq < segs[k].firstSeq })
	return segs, nil
}

// verifySegment scans one segment, checking the magic, the record checksums
// and the sequence continuity (prev is the last seq before this segment). It
// returns the segment's last valid seq. On the final segment a damaged or
// incomplete tail is truncated away; anywhere else it is ErrCorrupt.
func verifySegment(s segment, prev uint64, final bool) (uint64, error) {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	if len(data) < len(segmentMagic) || string(data[:len(segmentMagic)]) != segmentMagic {
		return 0, fmt.Errorf("%w: %s: bad segment magic", ErrCorrupt, s.path)
	}
	off := len(segmentMagic)
	want := prev + 1
	if s.firstSeq != want {
		return 0, fmt.Errorf("%w: %s: segment starts at seq %d, want %d", ErrCorrupt, s.path, s.firstSeq, want)
	}
	for off < len(data) {
		rec, n, err := DecodeRecord(data[off:])
		if err != nil {
			if !final {
				return 0, fmt.Errorf("%w: %s: offset %d: %v", ErrCorrupt, s.path, off, err)
			}
			// Torn tail: truncate to the last durable record and carry on.
			if terr := truncateSegment(s.path, int64(off)); terr != nil {
				return 0, terr
			}
			return want - 1, nil
		}
		if rec.Seq != want {
			return 0, fmt.Errorf("%w: %s: offset %d: seq %d, want %d", ErrCorrupt, s.path, off, rec.Seq, want)
		}
		want++
		off += n
	}
	return want - 1, nil
}

func truncateSegment(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return fmt.Errorf("journal: truncate torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// createSegment starts the segment whose first record will carry firstSeq and
// makes it the active file. Caller must hold j.mu (or be initializing).
func (j *Journal) createSegment(firstSeq uint64) error {
	path := filepath.Join(j.dir, fmt.Sprintf("journal-%020d.tcjrnl", firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.WriteString(segmentMagic); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := durable.SyncDir(j.dir); err != nil {
		f.Close()
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	if j.f != nil {
		j.f.Close()
	}
	j.f = f
	j.size = int64(len(segmentMagic))
	j.segments = append(j.segments, segment{path: path, firstSeq: firstSeq})
	return nil
}

// Append durably appends one delta and returns its sequence number. The call
// blocks until the record is fsynced; concurrent appends are batched so the
// whole batch shares one fsync. After a write error the journal fails stop:
// every subsequent Append returns the sticky error.
func (j *Journal) Append(network string, epoch uint64, payload []byte) (uint64, error) {
	if len(network) > maxNetworkLen {
		return 0, fmt.Errorf("journal: network name %d bytes exceeds %d", len(network), maxNetworkLen)
	}
	if len(payload) > maxPayloadLen {
		return 0, fmt.Errorf("journal: payload %d bytes exceeds %d", len(payload), maxPayloadLen)
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return 0, err
	}
	seq := j.nextSeq
	j.nextSeq++
	if j.pending == nil {
		j.pending = &batch{firstSeq: seq, done: make(chan struct{})}
	}
	b := j.pending
	b.buf = AppendRecord(b.buf, &Record{
		Seq:        seq,
		Epoch:      epoch,
		UnixMicros: time.Now().UnixMicro(),
		Network:    network,
		Payload:    payload,
	})
	b.lastSeq = seq
	if j.flushing {
		// A leader is on the disk; it will pick this batch up next. Wait as
		// a follower.
		j.mu.Unlock()
		<-b.done
		return seq, b.err
	}
	// Become the leader: flush accumulated batches until none are pending.
	j.flushing = true
	for j.pending != nil && j.err == nil {
		cur := j.pending
		j.pending = nil
		j.mu.Unlock()
		err := j.flushLocked(cur)
		j.mu.Lock()
		if err != nil {
			j.err = err
		}
		cur.err = err
		close(cur.done)
		if err == nil {
			j.advance(cur.lastSeq)
		}
	}
	if j.err != nil && j.pending != nil {
		// The journal failed stop while a follow-up batch was accumulating;
		// fail its followers rather than leaving them blocked.
		cur := j.pending
		j.pending = nil
		cur.err = j.err
		close(cur.done)
	}
	j.flushing = false
	j.flushIdle.Broadcast()
	err := j.err
	j.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return seq, nil
}

// flushLocked writes and fsyncs one batch. Despite the name it runs with
// j.mu RELEASED — exclusivity on the file comes from the flushing flag, so
// appenders can keep accumulating the next batch while the disk works.
func (j *Journal) flushLocked(b *batch) error {
	if j.size > j.opts.SegmentBytes {
		j.mu.Lock()
		err := j.createSegment(b.firstSeq)
		j.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if _, err := j.f.Write(b.buf); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.size += int64(len(b.buf))
	j.appends.Add(b.lastSeq - b.firstSeq + 1)
	j.batches.Add(1)
	j.fsyncs.Add(1)
	j.bytes.Add(uint64(len(b.buf)))
	return nil
}

// advance publishes a new durable seq and wakes WaitFor callers.
func (j *Journal) advance(seq uint64) {
	j.durable.Store(seq)
	j.notifyMu.Lock()
	close(j.notifyCh)
	j.notifyCh = make(chan struct{})
	j.notifyMu.Unlock()
}

// DurableSeq returns the highest fsynced sequence number (0 when the journal
// is empty). Records up to and including it are visible to Range readers.
func (j *Journal) DurableSeq() uint64 { return j.durable.Load() }

// WaitFor blocks until the durable seq reaches at least seq, the deadline
// passes (returns false), or the journal is closed. It is the long-poll
// primitive behind GET /api/v1/journal.
func (j *Journal) WaitFor(seq uint64, timeout time.Duration) bool {
	if j.durable.Load() >= seq {
		return true
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		j.notifyMu.Lock()
		ch := j.notifyCh
		j.notifyMu.Unlock()
		if j.durable.Load() >= seq {
			return true
		}
		j.mu.Lock()
		closed := j.closed
		j.mu.Unlock()
		if closed {
			return j.durable.Load() >= seq
		}
		select {
		case <-ch:
		case <-deadline.C:
			return j.durable.Load() >= seq
		}
	}
}

// Stats snapshots the activity counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	nseg := len(j.segments)
	var first uint64
	if nseg > 0 {
		first = j.segments[0].firstSeq
	}
	j.mu.Unlock()
	s := Stats{
		Appends:  j.appends.Load(),
		Batches:  j.batches.Load(),
		Fsyncs:   j.fsyncs.Load(),
		Bytes:    j.bytes.Load(),
		Segments: nseg,
		LastSeq:  j.durable.Load(),
	}
	if s.LastSeq >= first && first > 0 {
		s.FirstSeq = first
	}
	return s
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Close closes the journal and releases its directory lock. In-flight
// appends finish first (they hold the flushing baton); appends issued after
// Close fail with ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	for j.flushing {
		j.flushIdle.Wait()
	}
	f := j.f
	j.f = nil
	j.mu.Unlock()
	// Wake long-pollers so they observe the closed state.
	j.notifyMu.Lock()
	close(j.notifyCh)
	j.notifyCh = make(chan struct{})
	j.notifyMu.Unlock()
	var err error
	if f != nil {
		err = f.Close()
	}
	if j.lock != nil {
		j.lock.Close()
	}
	return err
}
