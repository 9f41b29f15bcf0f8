package repl

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"proxykit/internal/ledger"
	"proxykit/internal/wire"
)

// encodePull is handlePull's encoding of r, as a fresh slice.
func encodePull(r *PullResult) []byte {
	e := wire.NewEncoder(64)
	encodePullResult(e, r)
	return e.Bytes()
}

// FuzzPullResult drives the standby's decoder for repl.pull responses
// over arbitrary bytes. It must never panic; it must allocate in
// proportion to its input even when the entry count is hostile; and
// every response it accepts must re-encode, through the primary's own
// encoding, to exactly the bytes it was given.
func FuzzPullResult(f *testing.F) {
	batch := encodePull(&PullResult{Term: 3, SnapSeq: 10, LastSeq: 14, Entries: []ledger.Entry{
		{Seq: 11, Data: []byte("op-11")}, {Seq: 12, Data: []byte{}}, {Seq: 13, Data: bytes.Repeat([]byte{0xAB}, 40)},
	}})
	f.Add(batch)
	f.Add(encodePull(&PullResult{Term: 1, LastSeq: 7}))                                   // caught up
	f.Add(encodePull(&PullResult{Term: 2, NeedSnapshot: true, SnapSeq: 90, LastSeq: 95})) // redirect
	hostile := append([]byte(nil), batch...)
	binary.BigEndian.PutUint32(hostile[8+1+8+8:], 0xFFFFFFFF) // count far past the input
	f.Add(hostile)
	f.Add(batch[:len(batch)-3]) // truncated entry
	f.Add(append(append([]byte(nil), batch...), 0))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := decodePullResult(raw)
		runtime.ReadMemStats(&after)
		// PullResult, one Entry per 12 input bytes at most, and copies
		// of the data fields: a few times the input, never the count.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(16*len(raw)+64<<10) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(raw), alloc)
		}
		if err != nil {
			return
		}
		if got := encodePull(res); !bytes.Equal(got, raw) {
			t.Fatalf("accepted response re-encodes differently:\n in  %x\n out %x", raw, got)
		}
	})
}
