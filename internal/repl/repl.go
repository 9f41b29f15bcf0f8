// Package repl replicates a ledger-backed server (accounting, group,
// authz) to hot standbys by shipping WAL records, and performs fenced
// failover between them.
//
// Neuman's accounting servers are the trust anchors of the proxy
// scheme: no payment, quota, or restricted-proxy workflow completes
// while the bank is down (§4). This package turns the durable WAL into
// availability. A primary serves its ordinary traffic and, in addition,
// lets standbys *pull* committed WAL records over the multiplexed RPC
// transport; a standby replays each record through the same apply path
// live recovery uses, so a promoted standby is the same state machine
// with the same books — not a reimplementation.
//
// # Shipping
//
// Shipping is pull-based long-polling: the standby asks for records
// from its own ledger position, the primary answers from the shipping
// cursor (ledger.ReadEntries), holding the request open briefly when it
// is already caught up. The ordered append hook wakes those held
// requests the moment a group-commit cohort lands, so batches ride
// cohorts without a separate streaming channel. The next pull from
// position N+1 acknowledges everything through N — the standby only
// advances its position after the records are durable and applied
// locally.
//
// # Catch-up
//
// A joining or long-lagging standby may need records the primary's
// snapshotter has already truncated away. The cursor reports that as
// ledger.ErrTruncated; the standby then fetches a full snapshot
// (repl.snapshot), installs it wholesale (InstallSnapshot resets the
// local ledger to the snapshot's sequence), and tails from snapSeq+1.
//
// # Fencing
//
// Failover is guarded by a monotonic fencing term persisted beside both
// ledgers. Promote stops the standby's puller, bumps its term past the
// highest it has seen, and makes it the primary. The deposed primary is
// told the new term (repl.fence — `proxyctl promote` delivers it), after
// which its commit gate refuses every local mutation: appends, check
// admissions, accept-once registrations. Replication RPCs carry terms
// both ways and refuse stale ones, so a deposed primary cannot ship
// history to anyone and a split brain cannot double-pay a check. The
// window between promotion and the fence landing is bounded by
// semi-synchronous mode (Config.SyncTimeout): the primary's append hook
// holds each commit until a standby has acknowledged it, so killing the
// primary loses no acknowledged payment.
package repl

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"proxykit/internal/ledger"
)

// Role is a node's replication role.
type Role int

// Roles. A node is created Primary or Standby; Deposed is entered when
// a higher fencing term is observed and is terminal.
const (
	RolePrimary Role = iota
	RoleStandby
	RoleDeposed
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleStandby:
		return "standby"
	case RoleDeposed:
		return "deposed"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// ErrNotPrimary is returned to mutations on a standby: it serves reads
// only, and the write must go to the primary.
var ErrNotPrimary = errors.New("repl: not primary (standby serves reads only)")

// ErrFenced is returned to mutations and replication RPCs on a deposed
// node: a higher fencing term exists, so this node's writes must never
// become visible.
var ErrFenced = errors.New("repl: fenced (deposed by a higher term)")

// IsFenced reports whether err (possibly a transport.RemoteError
// carrying only the message text) is a fencing refusal.
func IsFenced(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrFenced) || strings.Contains(err.Error(), "repl: fenced")
}

// StateMachine is the ledger-backed server being replicated. The
// durable.Host that the accounting, group, and authz servers embed
// implements it, so all three servers satisfy it.
type StateMachine interface {
	// Ledger returns the attached ledger (the WAL being shipped).
	Ledger() *ledger.Ledger
	// SnapshotState captures full state and the WAL seq it covers.
	SnapshotState() ([]byte, uint64, error)
	// ApplyReplicated appends one shipped record to the local ledger and
	// applies it through the shared replay path.
	ApplyReplicated(seq uint64, payload []byte) error
	// InstallSnapshot replaces all state with a shipped snapshot.
	InstallSnapshot(state []byte, seq uint64) error
	// SetCommitGate installs a check refusing local mutations.
	SetCommitGate(gate func() error)
}

// termName is the fencing-term file beside the WAL and snapshot.
const termName = "repl_term"

// TermPath returns the fencing-term file path inside a ledger dir.
func TermPath(dir string) string { return filepath.Join(dir, termName) }

// LoadTerm reads the persisted fencing term; 0 when none was ever
// stored (callers treat a fresh directory as term 1).
func LoadTerm(dir string) (uint64, error) {
	raw, err := os.ReadFile(TermPath(dir))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("repl: read term: %w", err)
	}
	t, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: parse term file: %w", err)
	}
	return t, nil
}

// StoreTerm durably persists the fencing term (tmp + fsync + rename):
// a node must never come back from a crash believing an older term.
func StoreTerm(dir string, term uint64) error {
	path := TermPath(dir)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("repl: store term: %w", err)
	}
	if _, err := fmt.Fprintf(f, "%d\n", term); err != nil {
		f.Close()
		return fmt.Errorf("repl: store term: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("repl: store term: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("repl: store term: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("repl: store term: %w", err)
	}
	return nil
}
