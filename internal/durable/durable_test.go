package durable

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"proxykit/internal/ledger"
)

// listMachine is a minimal Machine: its state is the list of records
// applied, and a snapshot is that list as a JSON array.
type listMachine struct {
	mu      sync.Mutex
	records []string
}

func (m *listMachine) Apply(record []byte, log func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := log(); err != nil {
		return err
	}
	m.records = append(m.records, string(record))
	return nil
}

func (m *listMachine) Capture(mark func()) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mark()
	return json.Marshal(m.records)
}

func (m *listMachine) Restore(state []byte, install func() error) error {
	var records []string
	if err := json.Unmarshal(state, &records); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := install(); err != nil {
		return err
	}
	m.records = records
	return nil
}

// commit is a server's live commit path over listMachine.
func (m *listMachine) commit(l Log, record string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := l.Commit([]byte(record)); err != nil {
		return err
	}
	m.records = append(m.records, record)
	return nil
}

func (m *listMachine) state() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return strings.Join(m.records, ",")
}

func openHost(t *testing.T, dir string) (*Host, Log, *listMachine) {
	t.Helper()
	m := &listMachine{}
	h, l := New("list", m)
	if _, err := h.OpenLedger(ledger.Options{Dir: dir, Fsync: ledger.FsyncOff}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.CloseLedger() })
	return h, l, m
}

// TestHostGateAndDivergence: a closed gate refuses a live commit before
// the append, and a shipped record whose seq disagrees with the local
// log is not applied.
func TestHostGateAndDivergence(t *testing.T) {
	h, l, m := openHost(t, t.TempDir())
	refused := errors.New("refused")
	h.SetCommitGate(func() error { return refused })
	if err := m.commit(l, "a"); !errors.Is(err, refused) {
		t.Fatalf("gated commit: %v, want %v", err, refused)
	}
	h.SetCommitGate(nil)
	if err := h.ApplyReplicated(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := h.ApplyReplicated(5, []byte("y")); err == nil || !strings.Contains(err.Error(), "divergence") {
		t.Fatalf("diverged apply: %v", err)
	}
	if got := m.state(); got != "x" {
		t.Fatalf("state %q after a refused commit and a diverged apply, want x", got)
	}
}

// TestHostRefusesReplayOverUnloggedState: a WAL must not be replayed on
// top of state it does not hold.
func TestHostRefusesReplayOverUnloggedState(t *testing.T) {
	m := &listMachine{}
	h, l := New("list", m)
	if err := m.commit(l, "in-memory"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.OpenLedger(ledger.Options{Dir: t.TempDir(), Fsync: ledger.FsyncOff}); err == nil {
		_ = h.CloseLedger()
		t.Fatal("OpenLedger accepted a server holding unlogged state")
	}
}
