package ledger

// Differential and cost tests for the shipping cursor's index: every
// ReadEntries answer must equal the one a whole-file scan gives, and a
// tip read must cost the same however long the WAL has grown.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
)

// referenceRead answers ReadEntries the way a whole-WAL scan does:
// every visible frame — the file's complete frames plus any FsyncOff
// buffer — is walked by scanFrames from offset 0. The ledger must be
// quiescent (no append or snapshot in flight).
func referenceRead(t *testing.T, l *Ledger, from uint64, limit int) (CursorResult, error) {
	t.Helper()
	if limit <= 0 {
		limit = 1 << 10
	}
	l.mu.Lock()
	size, snapSeq := l.size, l.snapSeq
	buf := append([]byte(nil), l.buf...)
	l.mu.Unlock()
	raw, err := os.ReadFile(WALPath(l.dir))
	if err != nil {
		t.Fatalf("reference read: %v", err)
	}
	if int64(len(raw)) < size {
		t.Fatalf("reference read: file has %d bytes, ledger says %d", len(raw), size)
	}
	data := append(raw[:size:size], buf...)

	res := CursorResult{SnapSeq: snapSeq, LastSeq: snapSeq}
	first := uint64(0)
	scanned, err := scanFrames(data, func(seq uint64, payload []byte) {
		if first == 0 {
			first = seq
		}
		res.LastSeq = max(res.LastSeq, seq)
		if seq >= from && len(res.Entries) < limit {
			res.Entries = append(res.Entries, Entry{Seq: seq, Data: payload})
		}
	})
	if err != nil || scanned != int64(len(data)) {
		t.Fatalf("reference scan of a live WAL: %d of %d bytes, err %v", scanned, len(data), err)
	}
	lowest := snapSeq + 1
	if first != 0 && first < lowest {
		lowest = first
	}
	if from < lowest {
		return res, ErrTruncated
	}
	return res, nil
}

// sameRead reports how got differs from want, "" when it does not.
func sameRead(got CursorResult, gotErr error, want CursorResult, wantErr error) string {
	if gotErr != nil && !errors.Is(gotErr, ErrTruncated) {
		return fmt.Sprintf("unexpected error %v", gotErr)
	}
	if errors.Is(gotErr, ErrTruncated) != errors.Is(wantErr, ErrTruncated) {
		return fmt.Sprintf("err %v, want %v", gotErr, wantErr)
	}
	if got.SnapSeq != want.SnapSeq || got.LastSeq != want.LastSeq {
		return fmt.Sprintf("horizons snap %d last %d, want snap %d last %d",
			got.SnapSeq, got.LastSeq, want.SnapSeq, want.LastSeq)
	}
	if len(got.Entries) != len(want.Entries) {
		return fmt.Sprintf("%d entries, want %d", len(got.Entries), len(want.Entries))
	}
	for i := range got.Entries {
		g, w := got.Entries[i], want.Entries[i]
		if g.Seq != w.Seq || !bytes.Equal(g.Data, w.Data) {
			return fmt.Sprintf("entry %d: seq %d %q, want seq %d %q", i, g.Seq, g.Data, w.Seq, w.Data)
		}
	}
	return ""
}

// cursorModel drives one ledger through random steps and checks the
// cursor against referenceRead after each.
type cursorModel struct {
	t    *testing.T
	rng  *rand.Rand
	dir  string
	mode FsyncMode
	l    *Ledger

	pullers [2]uint64 // two standbys' next positions
	kept    []Entry   // entries returned earlier, with...
	keptCp  [][]byte  // ...copies of their data taken when read
}

func (m *cursorModel) payload() []byte {
	n := 1 + m.rng.Intn(300)
	if m.rng.Intn(20) == 0 {
		n = indexStride + m.rng.Intn(indexStride) // a frame wider than the stride
	}
	p := make([]byte, n)
	m.rng.Read(p)
	return p
}

// appendConcurrently runs writers × per appends at once, so FsyncAlways
// forms group-commit cohorts, while both pullers tail the WAL.
func (m *cursorModel) appendConcurrently(writers, per int) {
	payloads := make([][][]byte, writers)
	for w := range payloads {
		for i := 0; i < per; i++ {
			payloads[w] = append(payloads[w], m.payload())
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	tailErr := make(chan error, len(m.pullers))
	for _, from := range m.pullers {
		go func(from uint64) { tailErr <- tail(m.l, from, stop) }(from)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(ps [][]byte) {
			defer wg.Done()
			for _, p := range ps {
				if _, err := m.l.Append(p); err != nil {
					m.t.Errorf("Append: %v", err)
					return
				}
			}
		}(payloads[w])
	}
	wg.Wait()
	close(stop)
	for range m.pullers {
		if err := <-tailErr; err != nil {
			m.t.Fatal(err)
		}
	}
}

// tail pulls batches from position from until stop closes, checking
// each batch is dense and within the reported horizon.
func tail(l *Ledger, from uint64, stop <-chan struct{}) error {
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		res, err := l.ReadEntries(from, 7)
		if errors.Is(err, ErrTruncated) {
			from = res.SnapSeq + 1
			continue
		}
		if err != nil {
			return fmt.Errorf("concurrent ReadEntries(%d): %w", from, err)
		}
		for i, e := range res.Entries {
			if e.Seq != from+uint64(i) || e.Seq > res.LastSeq {
				return fmt.Errorf("concurrent read from %d: entry %d has seq %d (last %d)", from, i, e.Seq, res.LastSeq)
			}
		}
		from += uint64(len(res.Entries))
	}
}

// snapshotRacingAppends captures seq at the tip, then commits a
// snapshot for it while appends race the commit: the WAL is truncated
// only when none of them got in first.
func (m *cursorModel) snapshotRacingAppends() {
	seq := m.l.LastSeq()
	var wg sync.WaitGroup
	for w := 0; w < 1+m.rng.Intn(3); w++ {
		p := m.payload()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.l.Append(p); err != nil {
				m.t.Errorf("Append: %v", err)
			}
		}()
	}
	if err := m.l.WriteSnapshot([]byte(`{}`), seq); err != nil {
		m.t.Fatalf("WriteSnapshot: %v", err)
	}
	wg.Wait()
}

// reopenTorn closes the ledger, leaves a torn final frame in the file,
// and reopens it.
func (m *cursorModel) reopenTorn() {
	last := m.l.LastSeq()
	if err := m.l.Close(); err != nil {
		m.t.Fatalf("Close: %v", err)
	}
	frame := appendFrame(nil, last+1, m.payload())
	f, err := os.OpenFile(WALPath(m.dir), os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		m.t.Fatal(err)
	}
	if _, err := f.Write(frame[:1+m.rng.Intn(len(frame)-1)]); err != nil {
		m.t.Fatal(err)
	}
	f.Close()
	l, rec, err := Open(Options{Dir: m.dir, Fsync: m.mode})
	if err != nil {
		m.t.Fatalf("reopen: %v", err)
	}
	if !rec.TornTail {
		m.t.Fatal("reopen did not report the torn tail")
	}
	m.l = l
}

// check compares the cursor with the reference at positions around the
// horizons, the tip and random mid-file points, then advances both
// pullers one batch each.
func (m *cursorModel) check(step string) {
	l := m.l
	l.mu.Lock()
	first, last, snap := l.index.first(), l.index.last, l.snapSeq
	l.mu.Unlock()
	froms := []uint64{0, 1, snap, snap + 1, last, last + 1, last + 5, m.pullers[0], m.pullers[1]}
	if first > 0 {
		froms = append(froms, first-1, first, first+1)
	}
	if last > first {
		for i := 0; i < 4; i++ {
			froms = append(froms, first+uint64(m.rng.Int63n(int64(last-first+1))))
		}
	}
	for _, from := range froms {
		for _, limit := range []int{0, 1, 3, 64} {
			got, gotErr := l.ReadEntries(from, limit)
			want, wantErr := referenceRead(m.t, l, from, limit)
			if d := sameRead(got, gotErr, want, wantErr); d != "" {
				m.t.Fatalf("after %s: ReadEntries(%d, %d): %s", step, from, limit, d)
			}
			m.keep(got.Entries)
		}
	}
	for i := range m.pullers {
		res, err := l.ReadEntries(m.pullers[i], 1+m.rng.Intn(40))
		switch {
		case errors.Is(err, ErrTruncated):
			m.pullers[i] = res.SnapSeq + 1
		case err != nil:
			m.t.Fatalf("after %s: puller %d: %v", step, i, err)
		default:
			m.pullers[i] += uint64(len(res.Entries))
		}
	}
	for i, e := range m.kept {
		if !bytes.Equal(e.Data, m.keptCp[i]) {
			m.t.Fatalf("after %s: entry seq %d returned earlier changed under its reader", step, e.Seq)
		}
	}
}

// keep remembers a few returned entries to re-check later: returned
// data must never alias a buffer the ledger reuses.
func (m *cursorModel) keep(es []Entry) {
	if len(es) == 0 || len(m.kept) > 256 {
		return
	}
	e := es[m.rng.Intn(len(es))]
	m.kept = append(m.kept, e)
	m.keptCp = append(m.keptCp, append([]byte(nil), e.Data...))
}

// TestReadEntriesMatchesWholeWALScan is the differential test for the
// cursor index: across random interleavings of concurrent appends,
// snapshots racing appends, Reset and reopen after a torn tail, every
// ReadEntries answer equals a whole-file scan's.
func TestReadEntriesMatchesWholeWALScan(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				dir := t.TempDir()
				l, _ := openT(t, dir, mode)
				m := &cursorModel{t: t, rng: rand.New(rand.NewSource(seed)), dir: dir, mode: mode, l: l, pullers: [2]uint64{1, 1}}
				m.check("open")
				for step := 0; step < 30; step++ {
					var name string
					switch r := m.rng.Intn(10); {
					case r < 5:
						name = "concurrent appends"
						m.appendConcurrently(1+m.rng.Intn(4), 1+m.rng.Intn(12))
					case r < 7:
						name = "snapshot racing appends"
						m.snapshotRacingAppends()
					case r < 8:
						name = "snapshot at the tip"
						if err := m.l.WriteSnapshot([]byte(`{}`), m.l.LastSeq()); err != nil {
							t.Fatal(err)
						}
					case r < 9:
						name = "reset"
						if err := m.l.Reset([]byte(`{}`), m.l.LastSeq()+uint64(m.rng.Intn(5))); err != nil {
							t.Fatal(err)
						}
					default:
						name = "reopen after torn tail"
						m.reopenTorn()
					}
					m.check(fmt.Sprintf("seed %d step %d (%s)", seed, step, name))
				}
				if err := m.l.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestCursorTipReadBytesBounded pins the cost model: as the WAL grows,
// the bytes a tip pull reads stay bounded by the batch it ships plus
// one index stride — never by the WAL's length.
func TestCursorTipReadBytesBounded(t *testing.T) {
	l, _ := openT(t, t.TempDir(), FsyncOff)
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 100)
	frame := int64(frameHeaderLen + 8 + len(payload))
	const batch = 16
	var tip, other uint64 = 1, 1
	for round := 0; round < 400; round++ { // grows the WAL to ~740 KiB
		for i := 0; i < batch; i++ {
			if _, err := l.Append(payload); err != nil {
				t.Fatal(err)
			}
		}
		if round%50 == 0 {
			if err := l.Sync(); err != nil { // move the buffer into the file
				t.Fatal(err)
			}
		}
		// The standby at the tip resumes where its previous read
		// stopped: exactly the new frames are read.
		before := mCursorReadBytes.Value()
		res, err := l.ReadEntries(tip, batch)
		if err != nil || len(res.Entries) != batch {
			t.Fatalf("round %d: tip read %d entries, err %v", round, len(res.Entries), err)
		}
		if got := int64(mCursorReadBytes.Value() - before); got != batch*frame {
			t.Fatalf("round %d: tip pull read %d bytes, want %d", round, got, batch*frame)
		}
		tip += batch
		// A second puller a few records behind starts from a checkpoint.
		other = tip - batch/2
		before = mCursorReadBytes.Value()
		if _, err := l.ReadEntries(other, batch); err != nil {
			t.Fatal(err)
		}
		if got := int64(mCursorReadBytes.Value() - before); got > batch*frame+indexStride+frame {
			t.Fatalf("round %d: lagging pull read %d bytes, bound %d", round, got, batch*frame+indexStride+frame)
		}
		// Caught up: an empty pull reads nothing.
		before = mCursorReadBytes.Value()
		if _, err := l.ReadEntries(tip, batch); err != nil {
			t.Fatal(err)
		}
		if got := mCursorReadBytes.Value() - before; got != 0 {
			t.Fatalf("round %d: empty tip pull read %d bytes", round, got)
		}
	}
}

// BenchmarkReadEntriesTail measures a tip read of 1 and 256 records
// from WALs of 1k and 100k records: with the cursor index, time and
// bytes per read do not depend on the WAL's length.
func BenchmarkReadEntriesTail(b *testing.B) {
	payload := bytes.Repeat([]byte("p"), 64)
	for _, records := range []int{1_000, 100_000} {
		l, _, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncOff})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < records; i++ {
			if _, err := l.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			b.Fatal(err)
		}
		for _, batch := range []int{1, 256} {
			from := uint64(records - batch + 1)
			b.Run(fmt.Sprintf("wal=%d/batch=%d", records, batch), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := l.ReadEntries(from, batch)
					if err != nil || len(res.Entries) != batch {
						b.Fatalf("read %d entries, err %v", len(res.Entries), err)
					}
				}
			})
		}
		l.Close()
	}
}
