// Package durable is the one durable state-machine host behind the
// accounting (§4), group (§3.3) and authorization (§3.2) servers.
//
// Each server supplies only its Machine: how to apply one WAL record,
// how to capture its whole state, and how to restore it from a
// snapshot. The Host owns everything else, once: the ledger handle and
// the commit gate, open-and-replay, close, snapshots and the background
// snapshotter, and the two replication hooks repl drives on a standby
// (ApplyReplicated and InstallSnapshot). A server embeds its *Host, so
// the Host's methods are the server's durability API and the server
// satisfies repl.StateMachine.
//
// The live commit path is the Log a server keeps in an unexported
// field: Log.Commit runs the commit gate and appends the mutation's
// record, and the server applies the mutation only when Commit
// succeeds. Keeping the Log out of the embedded Host means none of the
// methods the Host adds to a server appends a WAL record without
// applying it.
package durable

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"proxykit/internal/ledger"
)

// Machine is a server's in-memory state as the Host drives it. The
// machine keeps its own locking — the bank its account stripes, the
// group and authz servers their one mutex — and each method runs the
// Host's callback while holding the locks that make it atomic.
type Machine interface {
	// Apply decodes one WAL record and applies it: recovery replay and
	// standby replication both come through here. Holding the locks
	// the record's mutation needs, it runs log first, and applies the
	// record only when log returns nil. An undecodable record changes
	// nothing.
	Apply(record []byte, log func() error) error
	// Capture serializes the whole state. It runs mark while holding
	// locks that exclude every commit, so the WAL position mark reads
	// is exactly the one the captured state covers.
	Capture(mark func()) ([]byte, error)
	// Restore decodes a snapshot into fresh state, then — holding
	// locks that exclude every reader and writer — runs install and
	// swaps the fresh state in only when install returns nil. A
	// snapshot that does not decode, or an install that fails, leaves
	// the current state untouched.
	Restore(state []byte, install func() error) error
}

// Host is the durability half of a ledger-backed server.
type Host struct {
	name string // error prefix: the server's package name
	m    Machine

	// lg and gate are read on every commit, so they are atomics rather
	// than fields behind a mutex.
	lg   atomic.Pointer[ledger.Ledger]
	gate atomic.Pointer[func() error]

	// openMu serializes OpenLedger and CloseLedger.
	openMu sync.Mutex
	// used records that the machine holds state the WAL does not: a
	// ledger was opened before, or a mutation committed while none was
	// attached. Replaying a WAL on top of such state would corrupt it.
	used atomic.Bool
}

// Log is a server's live commit path; see the package comment.
type Log struct{ h *Host }

// New returns the host for m and the Log its live mutations commit
// through. name prefixes the host's errors.
func New(name string, m Machine) (*Host, Log) {
	h := &Host{name: name, m: m}
	return h, Log{h}
}

// Commit admits one live mutation: it runs the commit gate and, with a
// ledger attached, appends the mutation's record. The caller holds the
// machine's locks for the mutation and applies it only when Commit
// returns nil — a refused or failed append leaves the mutation
// unapplied, so a change that is not durable never becomes visible.
func (l Log) Commit(record []byte) error {
	h := l.h
	if gate := h.gate.Load(); gate != nil {
		if err := (*gate)(); err != nil {
			return err
		}
	}
	lg := h.lg.Load()
	if lg == nil {
		if !h.used.Load() {
			h.used.Store(true)
		}
		return nil
	}
	if _, err := lg.Append(record); err != nil {
		return fmt.Errorf("%s: %w", h.name, err)
	}
	return nil
}

// errNoLedger reports an operation that needs an attached ledger.
func (h *Host) errNoLedger() error { return errors.New(h.name + ": no ledger attached") }

// nothing is the log/install step of a recovery replay, where the
// records are already on disk.
func nothing() error { return nil }

// OpenLedger attaches a durable ledger to a fresh server, restoring any
// recovered snapshot and replaying the WAL tail through the machine. A
// server that already holds state outside the WAL — it committed
// mutations in memory, or had a ledger before — is refused. On any
// replay error the ledger is closed again.
func (h *Host) OpenLedger(o ledger.Options) (*ledger.Recovery, error) {
	h.openMu.Lock()
	defer h.openMu.Unlock()
	if h.lg.Load() != nil {
		return nil, errors.New(h.name + ": ledger already open")
	}
	if h.used.Load() {
		return nil, errors.New(h.name + ": OpenLedger requires a server with no state yet")
	}
	lg, rec, err := ledger.Open(o)
	if err != nil {
		return nil, err
	}
	if err := h.replay(rec); err != nil {
		lg.Close()
		return nil, err
	}
	h.used.Store(true)
	h.lg.Store(lg)
	return rec, nil
}

// replay rebuilds the machine from a recovered snapshot and WAL tail.
func (h *Host) replay(rec *ledger.Recovery) error {
	if rec.Snapshot != nil {
		if err := h.m.Restore(rec.Snapshot, nothing); err != nil {
			return fmt.Errorf("%s: restore snapshot: %w", h.name, err)
		}
	}
	for _, e := range rec.Entries {
		if err := h.m.Apply(e.Data, nothing); err != nil {
			return fmt.Errorf("%s: replay record %d: %w", h.name, e.Seq, err)
		}
	}
	return nil
}

// Ledger returns the attached ledger, nil when the server is in-memory
// only.
func (h *Host) Ledger() *ledger.Ledger { return h.lg.Load() }

// CloseLedger flushes and closes the attached ledger; the server keeps
// serving from memory afterwards.
func (h *Host) CloseLedger() error {
	h.openMu.Lock()
	defer h.openMu.Unlock()
	lg := h.lg.Swap(nil)
	if lg == nil {
		return nil
	}
	return lg.Close()
}

// SetCommitGate installs a check run at the top of every live commit,
// before the WAL append; a non-nil error from it refuses the mutation.
// nil removes the gate. Replicated applies bypass it — they carry the
// primary's already-committed records.
func (h *Host) SetCommitGate(gate func() error) {
	if gate == nil {
		h.gate.Store(nil)
		return
	}
	h.gate.Store(&gate)
}

// SnapshotState captures the full state and the WAL sequence number
// the capture covers (0 without a ledger).
func (h *Host) SnapshotState() ([]byte, uint64, error) {
	var seq uint64
	state, err := h.m.Capture(func() {
		if lg := h.lg.Load(); lg != nil {
			seq = lg.LastSeq()
		}
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: snapshot: %w", h.name, err)
	}
	return state, seq, nil
}

// SnapshotNow captures the current state and commits it as a snapshot,
// truncating the WAL when nothing raced past the capture.
func (h *Host) SnapshotNow() error {
	state, seq, err := h.SnapshotState()
	if err != nil {
		return err
	}
	lg := h.lg.Load()
	if lg == nil {
		return h.errNoLedger()
	}
	return lg.WriteSnapshot(state, seq)
}

// StartSnapshotter runs SnapshotNow every interval while new WAL
// records exist. The returned stop function halts it and waits.
func (h *Host) StartSnapshotter(interval time.Duration) (stop func()) {
	lg := h.lg.Load()
	if lg == nil {
		return func() {}
	}
	return lg.StartSnapshotter(interval, h.SnapshotNow)
}

// ApplyReplicated appends one shipped WAL record to the local ledger
// and applies it through the machine — the standby's replay path. The
// locally assigned sequence number must equal the primary's; a mismatch
// means the two logs have diverged and the standby must not continue.
// Callers (the replication puller) are single-threaded.
func (h *Host) ApplyReplicated(seq uint64, record []byte) error {
	lg := h.lg.Load()
	if lg == nil {
		return h.errNoLedger()
	}
	err := h.m.Apply(record, func() error {
		got, err := lg.Append(record)
		if err != nil {
			return err
		}
		if got != seq {
			return fmt.Errorf("replication divergence: local seq %d, shipped seq %d", got, seq)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s: replicate: %w", h.name, err)
	}
	return nil
}

// InstallSnapshot replaces the whole state with a snapshot shipped from
// the primary and resets the local ledger to cover it — replication
// catch-up when the primary has truncated records a lagging standby
// still needs. A snapshot that does not decode leaves both the state
// and the ledger as they were; a failed reset leaves the state as it
// was.
func (h *Host) InstallSnapshot(state []byte, seq uint64) error {
	lg := h.lg.Load()
	if lg == nil {
		return h.errNoLedger()
	}
	if err := h.m.Restore(state, func() error { return lg.Reset(state, seq) }); err != nil {
		return fmt.Errorf("%s: install snapshot: %w", h.name, err)
	}
	return nil
}
