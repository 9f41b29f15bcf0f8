package ledger

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// indexStride is the WAL distance between checkpoints of the cursor
// index: a read starting anywhere in the WAL scans at most this many
// bytes before its first record.
const indexStride = 4 << 10

// walMark locates one frame of the visible WAL: its sequence number and
// the logical offset its header starts at.
type walMark struct {
	seq uint64
	off int64
}

// walIndex locates records in the visible WAL — the file's complete
// frames followed, in FsyncOff mode, by the frames still buffered in
// process — so the shipping cursor can start reading at a record
// instead of at offset 0. Offsets are logical: a buffered frame keeps
// its offset when it is flushed to the file.
//
// The index is sparse so that it stays small under a WAL the
// snapshotter never gets to truncate: one checkpoint per indexStride
// bytes, plus the position where the last cursor read stopped, which is
// where a standby tailing the WAL asks for its next batch.
type walIndex struct {
	marks []walMark // ascending; marks[0] is the first frame when non-empty
	last  uint64    // sequence number of the last visible frame; 0 when empty
	end   int64     // logical end of the visible WAL
	hint  walMark   // where the previous read stopped; zero when unset
}

// add indexes a frame of n bytes for seq appended at the visible end.
func (x *walIndex) add(seq uint64, n int) {
	if len(x.marks) == 0 || x.end-x.marks[len(x.marks)-1].off >= indexStride {
		x.marks = append(x.marks, walMark{seq: seq, off: x.end})
	}
	x.last = seq
	x.end += int64(n)
}

// addFrames indexes a run of whole frames appended at the visible end.
func (x *walIndex) addFrames(frames []byte) {
	for off := 0; off < len(frames); {
		n := frameHeaderLen + int(binary.LittleEndian.Uint32(frames[off:]))
		x.add(binary.LittleEndian.Uint64(frames[off+frameHeaderLen:]), n)
		off += n
	}
}

// reset empties the index along with the WAL it described.
func (x *walIndex) reset() {
	x.marks = x.marks[:0]
	x.last, x.end, x.hint = 0, 0, walMark{}
}

// first returns the sequence number of the first visible frame, 0 when
// the WAL is empty.
func (x *walIndex) first() uint64 {
	if len(x.marks) == 0 {
		return 0
	}
	return x.marks[0].seq
}

// floor returns the closest known frame at or before seq, which must
// lie in [first, last].
func (x *walIndex) floor(seq uint64) walMark {
	i := sort.Search(len(x.marks), func(i int) bool { return x.marks[i].seq > seq })
	m := x.marks[i-1]
	if x.hint.seq <= seq && x.hint.seq > m.seq {
		m = x.hint
	}
	return m
}

// ceil returns an offset at or past the end of seq's frame: the closest
// known frame after seq, or the visible end.
func (x *walIndex) ceil(seq uint64) int64 {
	end := x.end
	if i := sort.Search(len(x.marks), func(i int) bool { return x.marks[i].seq > seq }); i < len(x.marks) {
		end = x.marks[i].off
	}
	if x.hint.seq > seq && x.hint.off < end {
		end = x.hint.off
	}
	return end
}

// CursorResult is one ReadEntries read: the records found plus the
// sequence horizons that were current when the read began, so a
// shipper can compute lag and detect truncation races exactly once.
type CursorResult struct {
	// Entries are the records with sequence numbers in [from, from+max),
	// in order; empty when the caller is at the tip.
	Entries []Entry
	// SnapSeq is the snapshot horizon: records at or below it may be
	// truncated away at any time.
	SnapSeq uint64
	// LastSeq is the last record visible to this read — durable frames
	// plus (in FsyncOff mode) buffered ones. Records still waiting on an
	// in-flight commit cohort are excluded: a shipper must never ship a
	// record whose Append has not yet succeeded.
	LastSeq uint64
}

// ReadEntries is the shipping cursor: it returns up to max records with
// sequence numbers >= from, reading the live WAL without racing
// snapshot truncation (it holds the truncation guard shared, so
// WriteSnapshot waits rather than rewriting the file mid-scan). When
// from falls below the snapshot horizon and the records are gone,
// ReadEntries returns ErrTruncated with the horizon in CursorResult —
// the caller fetches a snapshot and resumes from SnapSeq+1.
//
// A read costs O(batch), not O(WAL): the cursor index locates the
// checkpoint at or before from, and only the frames from there to the
// end of the batch are read and checksum-verified — at most indexStride
// bytes of neighbouring frames on either side, none at all when from is
// where the previous read stopped. Damage elsewhere in the WAL is not
// seen by the cursor; recovery at Open still walks every frame.
// Returned Data slices are owned by the caller.
func (l *Ledger) ReadEntries(from uint64, max int) (CursorResult, error) {
	if max <= 0 {
		max = 1 << 10
	}
	l.truncMu.RLock()
	defer l.truncMu.RUnlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return CursorResult{}, ErrClosed
	}
	x := &l.index
	res := CursorResult{SnapSeq: l.snapSeq, LastSeq: l.snapSeq}
	if x.last > res.LastSeq {
		res.LastSeq = x.last
	}
	// Records below the requested point that are no longer on disk are
	// unreachable by shipping; the caller must catch up via snapshot.
	// (from == first or later is servable; from past the tip is an
	// empty read, not an error.) A truncated read still carries the
	// records the WAL does hold from its first frame on.
	var horizonErr error
	first := x.first()
	lowest := l.snapSeq + 1
	if first != 0 && first < lowest {
		lowest = first
	}
	if from < lowest {
		horizonErr = ErrTruncated
	}
	start := from
	if start < first {
		start = first
	}
	if first == 0 || start > x.last {
		l.mu.Unlock()
		return res, horizonErr
	}
	stop := x.last
	if x.last-start >= uint64(max) {
		stop = start + uint64(max) - 1
	}
	mark := x.floor(start)
	end := x.ceil(stop)
	size, f := l.size, l.f
	data := make([]byte, end-mark.off)
	if end > size {
		// The tail of the range is still buffered (FsyncOff).
		lo := mark.off
		if lo < size {
			lo = size
		}
		copy(data[lo-mark.off:], l.buf[lo-size:end-size])
	}
	l.mu.Unlock()

	// The file region [0, size) is immutable while we hold truncMu
	// shared: appends only extend the file past size, and truncation
	// waits on the guard. A group-commit leader may be writing past
	// size right now — those frames belong to appends that have not
	// returned yet and are deliberately not visible to this read.
	if mark.off < size {
		n := min(end, size) - mark.off
		if _, err := f.ReadAt(data[:n], mark.off); err != nil {
			return CursorResult{}, fmt.Errorf("ledger: cursor read: %w", err)
		}
	}
	mCursorReadBytes.Add(uint64(len(data)))

	// The scan must start at mark's record (scanFrames checks density
	// from there on) and cover the batch exactly; next tracks the frame
	// after the last one walked, which becomes the resume hint.
	next := mark
	res.Entries = make([]Entry, 0, stop-start+1)
	scanned, err := scanFrames(data, func(seq uint64, payload []byte) {
		if seq != next.seq || seq > stop {
			return
		}
		next = walMark{seq: seq + 1, off: next.off + int64(frameHeaderLen+8+len(payload))}
		if seq >= start {
			res.Entries = append(res.Entries, Entry{Seq: seq, Data: payload})
		}
	})
	if err == nil && (scanned != int64(len(data)) || next.seq != stop+1) {
		err = fmt.Errorf("%w: cursor read of records %d..%d at offset %d", ErrCorrupt, start, stop, mark.off)
	}
	if err != nil {
		return CursorResult{}, err
	}
	l.mu.Lock()
	x.hint = next
	l.mu.Unlock()
	return res, horizonErr
}
